import math

import numpy as np
import pytest

from qfield import fields, green, krawtchouk, lattice, pointprocess as pp, walks


def test_rejects_non_real_spectrum():
    spec = walks.DeterministicLaw(3, 1, (1,)).spectrum()
    assert not spec.is_real
    with pytest.raises(fields.ReversibilityError):
        fields.sample_field(spec, 0.5, seed=0)


def test_uniform_law_field_is_white_plus_common():
    # covariance (1-a) I + (a/q^d) J: diagonal 1, off-diagonal a/q^d
    spec = walks.UniformLaw(2, 2).spectrum()
    sample = fields.sample_field(spec, 0.6, seed=1, n_samples=60_000)
    cov = fields.empirical_covariance(sample.values)
    target = 0.4 * np.eye(4) + 0.6 / 4
    se = fields.covariance_stderr(sample.values)
    assert np.max(np.abs(cov - target) / np.maximum(se, 1e-12)) <= 5


def test_alpha_zero_decorrelates():
    spec = walks.lazy_walk(2, 2, [0.4]).spectrum()
    sample = fields.sample_field(spec, 0.0, seed=2, n_samples=50_000)
    cov = fields.empirical_covariance(sample.values)
    off = cov - np.diag(np.diag(cov))
    se = fields.covariance_stderr(sample.values)
    assert np.max(np.abs(off) / np.maximum(se, 1e-12)) <= 5


@pytest.mark.parametrize("q,d", [(2, 3), (3, 2)])
def test_empirical_covariance_matches_green(q, d):
    spec = walks.lazy_walk(q, d, [0.3, 0.7]).spectrum()
    alpha = 0.5
    sample = fields.sample_field(spec, alpha, seed=3, n_samples=100_000)
    cov = fields.empirical_covariance(sample.values)
    target = green.green_exact(spec, alpha).matrix
    se = fields.covariance_stderr(sample.values)
    assert np.max(np.abs(cov - target) / np.maximum(se, 1e-12)) <= 5


def test_covariance_every_symmetric_builtin_up_to_64_states():
    # reversible members of each built-in family; q^d <= 64
    cases = [
        walks.UniformLaw(2, 4),
        walks.UniformLaw(4, 2),
        walks.DeterministicLaw(2, 3, (1, 1, 0)),  # -1 = 1 mod 2
        walks.ProductIIDLaw(3, 2, p=[0.5, 0.25, 0.25]),
        walks.lazy_walk(2, 5, [0.3, 0.7]),
        walks.lazy_walk(4, 2, [0.2, 0.6]),
        walks.builtin_law("sparse_exchangeable", 2, 5),
        walks.builtin_law("sparse_exchangeable", 3, 3),
    ]
    for idx, law in enumerate(cases):
        spec = law.spectrum()
        assert spec.is_real, law
        sample = fields.sample_field(spec, 0.5, seed=40 + idx,
                                     n_samples=40_000)
        cov = fields.empirical_covariance(sample.values)
        target = green.green_exact(spec, 0.5).matrix
        se = fields.covariance_stderr(sample.values)
        ratio = np.max(np.abs(cov - target) / np.maximum(se, 1e-12))
        assert ratio <= 5, (law, ratio)


def test_invert_field_round_trip():
    spec = walks.lazy_walk(3, 2, [0.2, 0.6]).spectrum()
    sample = fields.sample_field(spec, 0.7, seed=4, n_samples=100)
    back = fields.invert_field(sample.values, spec, 0.7)
    assert np.max(np.abs(back - sample.driver)) < 1e-10


def test_zero_driver_zero_field():
    spec = walks.lazy_walk(2, 2, [0.4]).spectrum()
    values = lattice.dft(np.zeros(4) * fields.synthesis_weights(spec, 0.5),
                         2, 2, inverse=True)
    assert np.max(np.abs(values)) == 0.0


def test_dual_field_equivalence_identity():
    spec = walks.lazy_walk(3, 2, [0.2, 0.6]).spectrum()
    sample = fields.sample_field(spec, 0.55, seed=5, n_samples=20)
    direct = fields.dual_field(sample.driver, 3, 2)
    via_values = fields.dual_field(
        fields.invert_field(sample.values, spec, 0.55), 3, 2)
    assert np.max(np.abs(direct - via_values)) < 1e-9
    # random contractions agree too
    rng = np.random.default_rng(6)
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert np.max(np.abs(direct @ b - via_values @ b)) < 1e-8


def test_non_conjugate_pairing_is_lambda_transform():
    # E[g_x g_y] (no conjugate) = q^-d sum_r lambda_r theta^((x+y).r)
    spec = walks.lazy_walk(2, 3, [0.3, 0.7]).spectrum()
    alpha = 0.5
    sample = fields.sample_field(spec, alpha, seed=7, n_samples=150_000)
    vals = sample.values
    lam = green.green_eigenvalues(spec.rho.real, alpha)
    states = lattice.all_states(2, 3)
    strides = 2 ** np.arange(3)
    rng = np.random.default_rng(8)
    for _ in range(4):
        xi, yi = rng.integers(8), rng.integers(8)
        plus = lattice.rank((states[xi] + states[yi]) % 2, 2)
        target = lattice.dft(lam, 2, 3, inverse=True)[plus] / math.sqrt(8)
        prods = vals[:, xi] * vals[:, yi]
        se = prods.real.std(ddof=1) / math.sqrt(len(prods)) \
            + prods.imag.std(ddof=1) / math.sqrt(len(prods))
        assert abs(prods.mean() - target) <= 5 * se + 1e-12


def test_count_field_covariance_and_weights():
    law = walks.lazy_walk(2, 3, [0.3, 0.7])
    alpha = 0.5
    kap = {l: krawtchouk.kappa_from_law(law, l)
           for l in krawtchouk.degree_indices(2, 3)}
    cf = fields.sample_count_field(kap, 2, 3, alpha, seed=9, n_samples=120_000)
    tab = krawtchouk.table(2, 3)
    lam = np.array([green.grouped_green_eigenvalue(kap[l], alpha).real
                    for l in tab.degrees])
    target = (tab.values.T @ ((lam / tab.h_inv)[:, None]
                              * tab.values.conj())) / 8.0
    cov = fields.empirical_covariance(cf.values)
    se = fields.covariance_stderr(cf.values)
    assert np.max(np.abs(cov - target) / np.maximum(se, 1e-12)) <= 5
    # the synthesis weight sqrt(lambda_l) is the half-process moment E[Y^l]
    half = pp.spec_from_mixture(law, alpha, phi=0.5)
    for l in tab.degrees:
        lam_l = green.grouped_green_eigenvalue(kap[l], alpha).real
        assert abs(math.sqrt(lam_l) - pp.y_moment(half, l).real) < 1e-12


def test_count_field_constant_mode():
    law = walks.lazy_walk(2, 3, [0.5])
    kap = {l: krawtchouk.kappa_from_law(law, l)
           for l in krawtchouk.degree_indices(2, 3)}
    cf = fields.sample_count_field(kap, 2, 3, 0.4, seed=10, n_samples=3)
    zero_idx = cf.degrees.index((0,))
    # the l = 0 term contributes q^(-d/2) g_{l0} to every entry
    contrib = cf.driver[:, zero_idx] / math.sqrt(8)
    tab = krawtchouk.table(2, 3)
    rebuilt = np.zeros((3, len(cf.counts)), dtype=complex)
    lamv = np.array([green.grouped_green_eigenvalue(kap[l], 0.4).real
                     for l in tab.degrees])
    for i, l in enumerate(tab.degrees):
        w = math.sqrt(lamv[i] / tab.h_inv[i])
        rebuilt += np.outer(cf.driver[:, i] * w, tab.values[i]) / math.sqrt(8)
    assert np.max(np.abs(rebuilt - cf.values)) < 1e-12
    assert np.max(np.abs(np.mean(cf.values, axis=1)
                         - contrib * 0 - np.mean(rebuilt, axis=1))) < 1e-12


def test_count_field_is_lumped_field_in_law():
    # aggregate the full field by type class: covariance of class sums
    # matches the count-field covariance scaled by class sizes
    law = walks.lazy_walk(2, 3, [0.3, 0.7])
    alpha = 0.5
    spec = law.spectrum()
    sample = fields.sample_field(spec, alpha, seed=11, n_samples=150_000)
    counts, classes = krawtchouk.state_type_counts(2, 3)
    sums = np.stack([sample.values[:, classes == i].sum(axis=1)
                     for i in range(len(counts))], axis=1)
    cov_sums = fields.empirical_covariance(sums)
    kap = {l: krawtchouk.kappa_from_law(law, l)
           for l in krawtchouk.degree_indices(2, 3)}
    tab = krawtchouk.table(2, 3)
    lam = np.array([green.grouped_green_eigenvalue(kap[l], alpha).real
                    for l in tab.degrees])
    count_cov = (tab.values.T @ ((lam / tab.h_inv)[:, None]
                                 * tab.values.conj())) / 8.0
    sizes = np.array([math.comb(3, m[1]) for m in counts], dtype=float)
    target = count_cov * np.outer(sizes, sizes)
    se = fields.covariance_stderr(sums)
    assert np.max(np.abs(cov_sums - target) / np.maximum(se, 1e-12)) <= 5


def test_ranked_class_sums():
    rng = np.random.default_rng(12)
    driver = rng.standard_normal(16)
    x = np.array([1, 0, 1, 1])
    # singleton-frequency class: explicit signed sum
    got = fields.ranked_class_sum(driver, x, (1, 0, 0, 0), 2, 4)
    expected = sum(
        (-1.0) ** x[i]
        * driver[lattice.rank(tuple(1 if k == i else 0 for k in range(4)), 2)]
        for i in range(4))
    assert abs(got - expected) < 1e-12
    # the classes partition all frequencies: sums rebuild the dual field
    total = sum(fields.ranked_class_sum(driver, x, key, 2, 4)
                for key in fields.ranked_classes(2, 4))
    assert abs(total - fields.dual_field(driver, 2, 4)[lattice.rank(x, 2)]) \
        < 1e-9


def test_class_phase_sums_are_binary_krawtchouk():
    states = lattice.all_states(2, 4)
    for k in range(5):
        for w in range(5):
            x = np.array([1] * w + [0] * (4 - w))
            sel = [i for i in range(16) if int(states[i].sum()) == k]
            ssum = sum((-1.0) ** int(states[i] @ x) for i in sel)
            exact = krawtchouk.krawtchouk_exact_q2((4 - w, w), k)
            assert abs(ssum - exact) < 1e-12


def test_torus_field_truncations():
    law = green.WrappedLaw(1, atoms=[[0.25], [0.75]], weights=[0.35, 0.35],
                           uniform_weight=0.3)
    grid = np.array([[0.15], [0.6]])
    tf = fields.sample_torus_field(law, 0.5, 4, seed=13, grid=grid,
                                   n_samples=80_000)
    cov = fields.empirical_covariance(tf.values)
    target = green.torus_green_truncated(law, 0.5, grid[0], grid[1],
                                         4).raw_partial_sum
    se = fields.covariance_stderr(tf.values)
    assert abs(cov[0, 1] - target) <= 5 * se[0, 1]
    # R = 0 keeps only the constant mode
    tf0 = fields.sample_torus_field(law, 0.5, 0, seed=14, grid=grid,
                                    n_samples=4)
    assert np.allclose(tf0.values, tf0.driver[:, :1])
    # uniform wrapped law: common + white split at matching frequencies
    uni = green.WrappedLaw(1, uniform_weight=1.0)
    tfu = fields.sample_torus_field(uni, 0.6, 3, seed=15, grid=grid,
                                    n_samples=60_000)
    covu = fields.empirical_covariance(tfu.values)
    tgt = green.torus_green_truncated(uni, 0.6, grid[0], grid[1],
                                      3).raw_partial_sum
    seu = fields.covariance_stderr(tfu.values)
    assert abs(covu[0, 1] - tgt) <= 5 * seu[0, 1]


def test_torus_field_rejects_asymmetric_law():
    law = green.WrappedLaw(1, atoms=[[0.3]], weights=[1.0])
    with pytest.raises(fields.ReversibilityError):
        fields.sample_torus_field(law, 0.5, 2, seed=0,
                                  grid=np.array([[0.1]]))


def _two_pass_stderr(v):
    """The (n, N, N) product-table standard error, as an oracle."""
    prods = v[:, :, None] * v.conj()[:, None, :]
    var = prods.real.var(axis=0, ddof=1) + prods.imag.var(axis=0, ddof=1)
    return np.sqrt(var / v.shape[0])


@pytest.mark.parametrize("dtype", [float, complex])
def test_covariance_stderr_matches_two_pass_formula(dtype):
    rng = np.random.default_rng(7)
    v = rng.standard_normal((400, 12)) + 0.3
    if dtype is complex:
        v = v + 1j * rng.standard_normal((400, 12))
    v[:, 5] = 1.5 - 0.5j if dtype is complex else 1.5  # a constant column
    se = fields.covariance_stderr(v)
    np.testing.assert_allclose(se, _two_pass_stderr(v), rtol=1e-12, atol=0)
    assert se[5, 5] == 0.0
    assert np.all(se[5, np.arange(12) != 5] > 0)


def test_single_sample_has_no_standard_error():
    with pytest.raises(lattice.RangeError):
        fields.covariance_stderr(np.ones((1, 4)))
    with pytest.raises(lattice.RangeError):
        fields.covariance_stderr(np.ones((0, 4)))


def _record_draws(monkeypatch):
    """The block sizes every ``run_chunked`` call of ``fields`` draws."""
    drawn, run_chunked = [], fields._mc.run_chunked

    def recording(total, seed, workers, draw, row):
        def record(rng, m):
            drawn.append(m)
            return draw(rng, m)
        return run_chunked(total, seed, workers, record, row)

    monkeypatch.setattr(fields._mc, "run_chunked", recording)
    return drawn


def test_sample_field_budgets_every_field_before_the_first_draw(monkeypatch):
    drawn = _record_draws(monkeypatch)
    spec = walks.UniformLaw(2, 3).spectrum()
    with pytest.raises(lattice.RangeError, match="100000000 Monte-Carlo "
                       "draws: needs 800000000 entries"):
        fields.sample_field(spec, 0.5, seed=1, n_samples=10**8)
    assert drawn == []


def test_sample_count_field_draws_nothing_over_the_budget(monkeypatch):
    # 496 degrees at (3, 30), so one sample past the entry budget's rows,
    # refused before the table's DP
    def no_table(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(fields, "table", no_table)
    drawn = _record_draws(monkeypatch)
    n_samples = lattice.ENTRY_BUDGET // 496 + 1
    with pytest.raises(lattice.RangeError, match=f"{n_samples} Monte-Carlo "
                       f"draws: needs {496 * n_samples} entries"):
        fields.sample_count_field(lambda l: 0.5, 3, 30, 0.5, seed=1,
                                  n_samples=n_samples)
    assert drawn == []
