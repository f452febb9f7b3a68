"""Peak-memory guards for the dense N^2 layers, one Green row, the lattice
transform, the field inversion, the Krawtchouk table, the Potts partition
function, the ``potts`` and ``sample-field`` Monte Carlo, the transform
identity, the Monte-Carlo blocks and the Gibbs weights.

numpy reports its data buffers to ``tracemalloc``, so the traced peak of
one call is the memory that call allocates, output included.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qfield import (_mc, cli, fields, green, hamiltonian, krawtchouk, lattice,
                    limits, walks)


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
# The rows go in chunks: a chunk is converted to complex (to float for a
# real q = 2 input) and passes between its slice of the result and one
# chunk-sized spare; a real q = 2 input uses the result's imaginary part.
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
    # a converted chunk, the spare and numpy's iterator buffer of 8192
    # complex items for a transposing pass, then 4 KiB for the headers
    assert peak <= out.nbytes + 2 * lattice._CHUNK_BYTES + 2**17 + 2**12, (
        peak - out.nbytes)
    if q == 2 and real:
        # numpy's iterator buffer of 8192 floats for the one transposing
        # pass, and 4 KiB for the iterator and the array headers
        assert peak <= out.nbytes + 2**16 + 2**12, peak / out.nbytes


@pytest.mark.parametrize("q,d,n", [(2, 12, 64), (4, 6, 64), (2, 6, 20000)])
def test_invert_field_peak_is_one_output(q, d, n):
    # the quotient is taken in the transform's output, not in a second one
    spec = walks.UniformLaw(q, d).spectrum()
    values = fields.sample_field(spec, 0.5, 1, n).values
    fields.invert_field(values[:1], spec, 0.5)
    _, peak = _traced_peak(fields.invert_field, values, spec, 0.5)
    assert peak <= values.nbytes + 2 * lattice._CHUNK_BYTES + 2**17, (
        peak - values.nbytes)


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
    # 20000 fields on (2, 6): drivers and complex fields are 3 float64
    # arrays of n x 64, weighted and transformed a chunk of rows at a time;
    # the drivers are freed before var(H) and beta H, which take one more
    n = 20000
    law = '{"variant": "uniform", "q": 2, "d": 6}'

    def potts(samples):
        return cli.main(["potts", "--law", law, "--alpha", "0.5", "--beta",
                         "0.3", "--n", str(samples), "--seed", "1"])

    potts(2)  # imports and first-call caches stay out of the peak
    code, peak = _traced_peak(potts, n)
    assert code == 0 and '"mc_var_h"' in capsys.readouterr().out
    assert peak <= 3 * n * 64 * 8 + 2 * lattice._CHUNK_BYTES, (
        peak / (n * 64 * 8))


@pytest.mark.parametrize("q,d", [(2, 6), (3, 4)])
def test_sample_field_cli_peak_is_the_drivers_and_the_fields(q, d, tmp_path):
    # drivers and complex fields are 3 float64 arrays of n x q^d; beside
    # them the CSV holds one block (its floats, their Python floats and
    # list) and the transform and the inversion residual a few chunks.
    # A whole-batch weighting or residual would add at least one more array.
    n = 5000
    law = f'{{"variant": "uniform", "q": {q}, "d": {d}}}'
    out = str(tmp_path / "g.csv")

    def sample_field(samples):
        return cli.main(["sample-field", "--law", law, "--alpha", "0.5",
                         "-n", str(samples), "--seed", "1", "--out", out])

    sample_field(2)  # imports and first-call caches stay out of the peak
    code, peak = _traced_peak(sample_field, n)
    assert code == 0
    fields_bytes = 3 * n * q**d * 8
    csv_block = 48 * cli._CSV_BLOCK_VALUES
    assert peak <= fields_bytes + csv_block + 4 * lattice._CHUNK_BYTES, (
        (peak - fields_bytes) / lattice._CHUNK_BYTES)


def test_transform_identity_peak_is_four_complex_arrays():
    # at q = 2 the (n, 2) draws are one complex array of n, and so is each
    # of the phase, route B's output and the phase times it; the Hermite
    # rows are built per chunk of points (a whole table would add 5 arrays)
    q, n = 2, 400_000
    omega = np.array([0.0, 0.7])
    degrees = krawtchouk.degree_indices(q, 3, 2)
    limits.transform_identity(omega, degrees, q, 100, 1)  # first-call caches
    _, peak = _traced_peak(limits.transform_identity, omega, degrees, q, n, 1)
    assert peak <= 4 * n * 16 + 2**20, peak / (n * 16)


def test_run_chunked_peak_is_one_output_and_one_block():
    # five blocks and a short sixth, one worker: each block is copied into
    # the output and let go before the next is drawn
    total, row = 5 * _mc.BLOCK + 7, 8
    out, peak = _traced_peak(_mc.run_chunked, total, 0, 1, lambda rng, m:
                             rng.standard_normal((m, row)), row)
    block = _mc.BLOCK * row * 8
    assert peak <= out.nbytes + block + 2**16, (peak - out.nbytes) / block


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
