"""Peak-memory guards for the dense N^2 layers, one Green row, the lattice
transform, the Krawtchouk table, the Potts partition function, the
``potts`` Monte Carlo and the Gibbs weights.

numpy reports its data buffers to ``tracemalloc``, so the traced peak of
one call is the memory that call allocates, output included.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qfield import cli, fields, green, hamiltonian, krawtchouk, lattice, walks


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_circulant_peak_is_about_one_output():
    kernel = np.random.default_rng(0).standard_normal(2**12)
    mat, peak = _traced_peak(lattice.circulant_from_kernel, kernel, 2, 12)
    assert peak <= 1.1 * mat.nbytes, peak / mat.nbytes


def test_green_row_peak_is_a_few_kernels():
    # an (N, d) int64 state table alone would be d = 16 kernels
    op = green.green_exact(walks.UniformLaw(2, 16).spectrum(), 0.5,
                           materialize=False)
    row, peak = _traced_peak(op.row, (1, 0) * 8)
    assert peak <= 4 * op.kernel.nbytes, peak / op.kernel.nbytes
    assert abs(row.sum() - 1.0) < 1e-10


def test_covariance_stderr_peak_is_a_few_inputs():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((6000, 64)) + 1j * rng.standard_normal((6000, 64))
    _, peak = _traced_peak(fields.covariance_stderr, values)
    assert peak <= 3 * values.nbytes, peak / values.nbytes


# q = 2 runs the butterfly passes, q = 4 the np.fft passes; both 4096 points.
# For q = 4 a real input is converted first, and that copy must serve as a
# pass buffer; for q = 2 it is transformed inside its result.
@pytest.mark.parametrize("q,d,real", [
    pytest.param(2, 12, False, id="2-12"),
    pytest.param(2, 12, True, id="2-12-real"),
    pytest.param(4, 6, False, id="4-6"),
    pytest.param(4, 6, True, id="4-6-real"),
])
def test_dft_peak_is_no_more_than_fftn(q, d, real):
    rng = np.random.default_rng(2)
    values = rng.standard_normal((64, q**d))
    if not real:
        values = values + 1j * rng.standard_normal((64, q**d))

    def fftn(f):
        return np.fft.fftn(f.reshape((64,) + (q,) * d), axes=range(1, d + 1),
                           norm="ortho").reshape(f.shape)

    # the first np.fft call imports numpy.fft; keep that out of both peaks
    lattice.dft(values[:1], q, d)
    fftn(values)
    out, peak = _traced_peak(lattice.dft, values, q, d)
    _, fftn_peak = _traced_peak(fftn, values)
    assert peak <= fftn_peak, (peak, fftn_peak)
    if q == 2 and real:
        # numpy's iterator buffer of 8192 floats for the one transposing
        # pass, and 4 KiB for the iterator and the array headers
        assert peak <= out.nbytes + 2**16 + 2**12, peak / out.nbytes


# the batched DP runs its rows in chunks of a fixed number of coefficients;
# one chunk of every row at (5, 8) would be 495 boxes of 9^4 coefficients
@pytest.mark.parametrize("q,d", [(5, 8), (2, 400)])
def test_krawtchouk_table_peak_is_the_table_and_one_chunk(q, d):
    tab, peak = _traced_peak(krawtchouk.table, q, d)
    assert peak <= 2 * tab.values.nbytes + 8 * 2**20, peak / tab.values.nbytes


def test_real_matrix_csv_peak_is_below_the_matrix(tmp_path):
    # rows go out in bounded blocks, with no complex copy of the matrix
    matrix = np.random.default_rng(3).standard_normal((1024, 1024))
    _, peak = _traced_peak(cli._write_complex_csv, str(tmp_path / "g.csv"),
                           matrix, "y")
    assert peak < matrix.nbytes, peak / matrix.nbytes


def test_potts_peak_is_the_drivers_and_the_fields(capsys):
    # 20000 fields on (2, 6): drivers, weighted drivers and complex fields
    # are 4 float64 arrays of n x 64; the reductions read the real part
    n = 20000
    law = '{"variant": "uniform", "q": 2, "d": 6}'

    def potts(samples):
        return cli.main(["potts", "--law", law, "--alpha", "0.5", "--beta",
                         "0.3", "--n", str(samples), "--seed", "1"])

    potts(2)  # imports and first-call caches stay out of the peak
    code, peak = _traced_peak(potts, n)
    assert code == 0 and '"mc_var_h"' in capsys.readouterr().out
    assert peak <= 4 * n * 64 * 8 + 2**20, peak / (n * 64 * 8)


def test_gibbs_peak_is_its_output():
    # beta H is written into the weights and reduced there: no complex H,
    # no |H.imag|, no separate logits or exp
    spec = walks.UniformLaw(2, 6).spectrum()
    sample = fields.sample_field(spec, 0.5, seed=1, n_samples=20000)
    pspec = hamiltonian.PottsSpec(spec, 0.5, 0.3)
    hamiltonian.gibbs(pspec, sample)  # first-call caches stay out of the peak
    weights, peak = _traced_peak(hamiltonian.gibbs, pspec, sample)
    assert peak <= weights.nbytes + 2**20, peak / weights.nbytes


def test_expected_partition_peak_is_a_few_lattice_arrays():
    # q^d = 65536: a dense q^d x q^d bond matrix would need 64 GB
    n = 2**16
    spec = walks.UniformLaw(2, 16).spectrum()
    pspec = hamiltonian.PottsSpec(spec, 0.5, 0.3)
    ez, peak = _traced_peak(hamiltonian.expected_partition, pspec)
    assert peak <= 6 * n * 16, peak / (n * 16)
    closed = hamiltonian.log_expected_partition_delta(spec, 0.5, 0.3)
    assert abs(math.log(ez) - closed) < 1e-12
