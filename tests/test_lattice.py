import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfield import lattice


def _count_vectors_by_recursion(q, d):
    """All m in N^q with |m| = d in lex order: each is a vector with
    |m| = d - 1 plus one unit in some entry."""
    if d == 0:
        return [(0,) * q]
    return sorted({m[:j] + (m[j] + 1,) + m[j + 1:]
                   for m in _count_vectors_by_recursion(q, d - 1)
                   for j in range(q)})


@pytest.mark.parametrize("q,d", [(2, 0), (2, 12), (3, 7), (4, 6), (7, 4),
                                 (200, 2)])
def test_count_vectors_equal_the_recursive_enumeration(q, d):
    got = lattice.count_vectors(q, d)
    assert got == _count_vectors_by_recursion(q, d)
    assert all(type(v) is int for m in got for v in m)


def test_count_vectors_need_no_recursion_past_the_type_count():
    # one recursion level per type would pass Python's limit here
    got = lattice.count_vectors(4096, 1)
    assert len(got) == 4096 and got[0][-1] == 1 and got[-1][0] == 1


def test_rank_examples():
    assert lattice.rank((0, 0), 3) == 0
    assert lattice.rank((1, 2), 3) == 7  # 1 + 2*3, little-endian


def test_rank_unrank_round_trip_exhaustive():
    q, d = 3, 4
    for i in range(3**4):
        assert lattice.rank(lattice.unrank(i, q, d), q) == i


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(1, 5), st.data())
def test_rank_unrank_round_trip_random(q, d, data):
    i = data.draw(st.integers(0, q**d - 1))
    assert lattice.rank(lattice.unrank(i, q, d), q) == i


def test_unrank_out_of_range():
    with pytest.raises(lattice.RangeError):
        lattice.unrank(8, 2, 3)
    with pytest.raises(lattice.RangeError):
        lattice.unrank(-1, 2, 3)


def test_all_states_matches_unrank():
    states = lattice.all_states(2, 3)
    for i in range(8):
        assert tuple(states[i]) == lattice.unrank(i, 2, 3)


def test_root_table_invariants():
    for q in (2, 3, 5, 8):
        powers = lattice.roots(q)
        assert np.max(np.abs(np.abs(powers) - 1.0)) < 1e-14
        # geometric sum: sum_j theta^(jk) = q * delta_{k mod q, 0}
        for k in range(2 * q):
            s = np.sum(powers ** k)
            expected = q if k % q == 0 else 0.0
            assert abs(s - expected) < 1e-12


def test_dft_of_delta_is_constant():
    f = np.zeros(8)
    f[0] = 1.0
    c = lattice.dft(f, 2, 3)
    assert np.allclose(c, 2 ** (-1.5), atol=1e-14)


def test_dft_inverse_round_trip():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    back = lattice.dft(lattice.dft(f, 3, 3), 3, 3, inverse=True)
    assert np.max(np.abs(back - f)) < 1e-12


def test_dft_parseval():
    rng = np.random.default_rng(1)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    c = lattice.dft(f, 4, 2)
    assert abs(np.sum(np.abs(f) ** 2) - np.sum(np.abs(c) ** 2)) < 1e-12


def test_dft_matches_naive_oracle():
    rng = np.random.default_rng(2)
    f = rng.standard_normal(27) + 1j * rng.standard_normal(27)
    fast = lattice.dft(f, 3, 3)
    slow = lattice.dft_naive(f, 3, 3)
    assert np.max(np.abs(fast - slow)) < 1e-11


@pytest.mark.parametrize("q", [1024, 2048])
def test_dft_matches_naive_oracle_at_large_q(q):
    rng = np.random.default_rng(5)
    f = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    # theta^(j*k) looked up at the integer (j*k) mod q: exact to rounding,
    # where exp(2*pi*i*j*k/q) of the unreduced product is not
    k = np.arange(q)
    phases = lattice.roots(q)[np.outer(k, k) % q]
    for inverse in (False, True):
        fast = lattice.dft(f, q, 1, inverse=inverse)
        slow = lattice.dft_naive(f, q, 1, inverse=inverse)
        exact = (phases if inverse else phases.conj()) @ f / np.sqrt(q)
        assert np.max(np.abs(fast - slow)) < 1e-13
        assert np.max(np.abs(slow - exact)) < 1e-13


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(2, 1), (2, 4), (3, 2), (4, 2), (5, 1), (6, 2)]),
       st.integers(0, 2**31 - 1))
def test_dft_unitarity_property(qd, seed):
    q, d = qd
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(q**d) + 1j * rng.standard_normal(q**d)
    c = lattice.dft(f, q, d)
    assert abs(np.vdot(f, f).real - np.vdot(c, c).real) < 1e-10
    assert np.max(np.abs(lattice.dft(c, q, d, inverse=True) - f)) < 1e-11


def test_dft_all_sizes_up_to_4096():
    rng = np.random.default_rng(3)
    pairs = [(q, d) for q in range(2, 17) for d in range(1, 13)
             if q**d <= 4096]
    pairs += [(101, 1), (512, 1), (4096, 1)]  # large single-axis probes
    for q, d in pairs:
        f = rng.standard_normal(q**d)
        c = lattice.dft(f, q, d)
        assert abs(np.sum(f**2) - np.sum(np.abs(c) ** 2)) < 1e-10 * q**d


def test_dft_shape_error():
    with pytest.raises(lattice.ShapeError):
        lattice.dft(np.zeros(7), 2, 3)


def test_dft_batched_matches_loop():
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
    together = lattice.dft(batch, 3, 2)
    for i in range(5):
        assert np.allclose(together[i], lattice.dft(batch[i], 3, 2))


def _fftn_dft(values, q, d, inverse):
    """The transform as one fftn over the d lattice axes of a reshape."""
    f = np.asarray(values, dtype=complex)
    batch = f.shape[:-1]
    transform = np.fft.ifftn if inverse else np.fft.fftn
    axes = tuple(range(len(batch), len(batch) + d))
    return transform(f.reshape(batch + (q,) * d), axes=axes,
                     norm="ortho").reshape(f.shape)


def _same_bits(a, b):
    """Equal shapes and equal bits, so -0.0 and 0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _special_inputs(rng, n):
    """Signed zeros, a strided column slice and an int64 array."""
    zeros = np.empty((3, n), dtype=complex)
    zeros.real = rng.choice([-0.0, 0.0], size=(3, n))
    zeros.imag = rng.choice([-0.0, 0.0], size=(3, n))
    zeros[2, ::3] = 1.0 - 1.0j
    wide = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    slab = rng.standard_normal((2, n, 2)) + 1j * rng.standard_normal((2, n, 2))
    ints = rng.integers(-5, 6, size=(3, n))
    return [zeros, wide[:, 1], slab[..., 0], ints]


# q = 2 runs the butterfly passes: d = 14 is beyond MATERIAL_LIMIT, and
# at d = 16 one row is more than a chunk
@pytest.mark.parametrize("q,d,n", [
    (2, 6, 20000), (2, 12, 64), (4, 3, 20000), (3, 7, 64), (16, 3, 64),
    (4096, 1, 64), (64, 2, None), (2, 12, None), (5, 1, None),
    (4, 5, None), (7, 4, 3), (2, 1, 5), (2, 3, 7), (2, 14, None),
    (2, 16, None)])
def test_dft_equals_fftn_bit_for_bit(q, d, n):
    rng = np.random.default_rng(q * 100 + d)
    # 48 rows of 2^16 points would spend seconds in fftn
    batches = [(), (0, 8), (2, 3, 8) if q**d < 2**16 else (2, 1)]
    batches += [(n,)] if n else []
    # the rows take their passes one chunk at a time: one row short of a
    # chunk, one chunk, and one row into a second chunk
    rows = max(1, lattice._CHUNK_BYTES // (16 * q**d))
    batches += [(rows - 1,), (rows,), (rows + 1,)]
    inputs = [rng.standard_normal(batch + (q**d,))
              + 1j * rng.standard_normal(batch + (q**d,)) for batch in batches]
    # real inputs: q = 2 transforms them inside the result
    inputs += [rng.standard_normal(batch + (q**d,)) for batch in batches]
    # single precision is converted chunk by chunk, before the passes; the
    # complex one is in Fortran order, so its rows are strided
    fortran = np.asfortranarray(inputs[len(batches) - 1])
    inputs += [inputs[-1].astype(np.float32), fortran.astype(np.complex64)]
    inputs += [rng.choice([-0.0, 0.0], size=(3, q**d))]
    inputs += _special_inputs(rng, q**d)
    for f in inputs:
        before = f.copy()
        for inverse in (False, True):
            got = lattice.dft(f, q, d, inverse=inverse)
            want = _fftn_dft(f, q, d, inverse)
            assert _same_bits(got, want), (q, d, f.shape, f.dtype, inverse)
            assert np.array_equal(f, before)


def test_circulant_from_kernel():
    kernel = np.array([0.5, 0.3, 0.2])
    mat = lattice.circulant_from_kernel(kernel, 3, 1)
    # entry [x, y] = kernel[(x - y) mod 3]
    assert np.allclose(mat, [[0.5, 0.2, 0.3], [0.3, 0.5, 0.2], [0.2, 0.3, 0.5]])


def _circulant_oracle(kernel, q, d):
    """M[x, y] = kernel[rank((x - y) mod q)], one row per x."""
    states = lattice.all_states(q, d)
    offsets = q ** np.arange(d)
    return np.array([kernel[((x - states) % q) @ offsets] for x in states])


@pytest.mark.parametrize("q,d", [(5, 1), (3, 3), (2, 8), (4, 4), (64, 2),
                                 (2, 1), (7, 2), (3, 5)])
def test_circulant_from_kernel_matches_rank_oracle(q, d):
    kernel = np.random.default_rng(q * 10 + d).standard_normal(q**d)
    assert np.array_equal(lattice.circulant_from_kernel(kernel, q, d),
                          _circulant_oracle(kernel, q, d))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64])
def test_circulant_from_kernel_keeps_the_kernel_dtype(dtype):
    rng = np.random.default_rng(7)
    kernel = (100 * rng.standard_normal(27)).astype(dtype)
    if dtype is np.complex128:
        kernel += 1j * rng.standard_normal(27)
    mat = lattice.circulant_from_kernel(kernel, 3, 3)
    assert mat.dtype == dtype
    assert np.array_equal(mat, _circulant_oracle(kernel, 3, 3))


@pytest.mark.parametrize("q,d", [(3, 3), (2, 6)])
def test_circulant_row_is_a_row_of_the_matrix(q, d):
    kernel = np.random.default_rng(q + 10 * d).standard_normal(q**d)
    mat = lattice.circulant_from_kernel(kernel, q, d)
    for x in lattice.all_states(q, d):
        assert np.array_equal(lattice.circulant_row(kernel, x, q, d),
                              mat[lattice.rank(x, q)])


def test_circulant_row_matches_the_all_states_formula():
    q, d = 5, 2
    kernel = np.random.default_rng(52).standard_normal(q**d)
    states = lattice.all_states(q, d)
    offsets = q ** np.arange(d)
    for x in states:
        want = kernel[((x[None, :] - states) % q) @ offsets]
        assert np.array_equal(lattice.circulant_row(kernel, x, q, d), want)


def test_circulant_row_shape_errors():
    with pytest.raises(lattice.ShapeError):
        lattice.circulant_row(np.zeros(7), (0, 0, 0), 2, 3)
    with pytest.raises(lattice.ShapeError):
        lattice.circulant_row(np.zeros(8), (0, 0), 2, 3)


@pytest.mark.parametrize("q,d", [(2, 12), (16, 3), (4096, 1)])
def test_circulant_from_kernel_entries_at_the_limit(q, d):
    rng = np.random.default_rng(q + d)
    kernel = rng.standard_normal(q**d)
    mat = lattice.circulant_from_kernel(kernel, q, d)
    assert mat.shape == (q**d, q**d)
    xs, ys = rng.integers(q**d, size=(2, 300))
    want = [kernel[lattice.rank((np.array(lattice.unrank(x, q, d))
                                 - lattice.unrank(y, q, d)) % q, q)]
            for x, y in zip(xs, ys)]
    assert np.array_equal(mat[xs, ys], want)


def test_circulant_from_kernel_refuses_above_material_limit():
    assert lattice.MATERIAL_LIMIT == 4096
    with pytest.raises(lattice.RangeError, match="materialization limit"):
        lattice.circulant_from_kernel(np.zeros(2**13), 2, 13)
    with pytest.raises(lattice.RangeError):
        lattice.circulant_from_kernel(np.zeros(4097), 4097, 1)


def test_axis_tensor_little_endian():
    v0 = np.array([1.0, 2.0])
    v1 = np.array([1.0, 10.0])
    out = lattice.axis_tensor([v0, v1])
    # rank = x0 + 2*x1
    assert np.allclose(out, [1.0, 2.0, 10.0, 20.0])


def test_budget_names_what_the_amount_and_the_budget():
    entries, steps = lattice.ENTRY_BUDGET, lattice.STEP_BUDGET
    lattice.budget("at the budgets", entries=entries, steps=steps)
    with pytest.raises(lattice.RangeError) as err:
        lattice.budget("a build", entries=entries + 1)
    assert str(err.value) == (f"a build: needs {entries + 1} entries, over "
                              f"the entry budget of {entries}")
    # one step per loop iteration and per 2^10 entries touched
    lattice.budget("a loop", steps=steps - 2, touched=2 * 2**10)
    with pytest.raises(lattice.RangeError) as err:
        lattice.budget("a loop", steps=steps - 2, touched=2 * 2**10 + 1)
    assert str(err.value) == (f"a loop: needs {steps + 1} steps, over the "
                              f"step budget of {steps}")
    with pytest.raises(lattice.RangeError, match="needs more than 2\\^64 entries"):
        lattice.budget("a build", entries=2**64)
    assert lattice.MATERIAL_LIMIT**2 == entries


def test_size_refuses_a_lattice_over_the_budget_before_forming_it():
    assert lattice.size(2, 24) == lattice.ENTRY_BUDGET
    with pytest.raises(lattice.RangeError,
                       match="the 2\\^40-point lattice: needs 1099511627776 "):
        lattice.size(2, 40)
    # 3^(10^12) is never formed: the message bounds it instead
    with pytest.raises(lattice.RangeError, match="more than 2\\^64 entries"):
        lattice.size(3, 10**12)
    with pytest.raises(lattice.RangeError, match="state table"):
        lattice.all_states(2, 24)
    with pytest.raises(lattice.RangeError, match="tensor product"):
        lattice.axis_tensor([np.ones(2**12)] * 3)



@pytest.mark.parametrize("q,d,n", [(3, 5, 0), (3, 5, 2), (2, 6, 3), (5, 3, 3)])
def test_sparse_ranks_equal_the_rank_of_each_point(q, d, n):
    positions = np.array(list(itertools.combinations(range(d), n)),
                         dtype=np.int64)
    values = np.random.default_rng(n).integers(0, q, size=(n, 4))
    got = lattice.sparse_ranks(positions, values, q)
    assert got.shape == (len(positions), 4) and got.dtype == np.int64
    for i, where in enumerate(positions):
        for j in range(4):
            x = np.zeros(d, dtype=np.int64)
            x[where] = values[:, j]
            assert got[i, j] == lattice.rank(x, q)

@pytest.mark.parametrize("q,d", [(2, 5), (3, 4), (7, 2), (4096, 1)])
def test_rank_of_rows_equals_rank_of_each_row(q, d):
    rows = np.random.default_rng(q * d).integers(0, q, size=(3, 5, d))
    got = lattice.rank(rows, q)
    assert got.shape == (3, 5) and got.dtype == np.int64
    assert got.tolist() == [[lattice.rank(x, q) for x in block]
                            for block in rows]
    assert np.array_equal(lattice.unrank(got, q, d), rows)
    bad = rows.copy()
    bad[2, 4, d - 1] = q
    with pytest.raises(lattice.RangeError):
        lattice.rank(bad, q)
    bad[2, 4, d - 1] = -1
    with pytest.raises(lattice.RangeError):
        lattice.rank(bad, q)
    with pytest.raises(lattice.RangeError):
        lattice.unrank(np.array([0, q**d]), q, d)


def _type_counts_by_bincount(q, d):
    """The per-point loop the vectorized map replaces."""
    counts = lattice.count_vectors(q, d)
    lookup = {m: i for i, m in enumerate(counts)}
    states = lattice.all_states(q, d)
    classes = np.empty(states.shape[0], dtype=np.int64)
    for i, x in enumerate(states):
        classes[i] = lookup[tuple(np.bincount(x, minlength=q))]
    return counts, classes


@pytest.mark.parametrize("q,d", [(2, 1), (2, 12), (3, 6), (4, 5), (7, 3),
                                 (4096, 1)])
def test_state_type_counts_equal_the_per_point_bincount(q, d):
    counts, classes = lattice.state_type_counts(q, d)
    want_counts, want_classes = _type_counts_by_bincount(q, d)
    assert counts == want_counts == lattice.count_vectors(q, d)
    assert classes.dtype == want_classes.dtype
    assert np.array_equal(classes, want_classes)
