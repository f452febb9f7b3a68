import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from qfield import krawtchouk as kw
from qfield import _mc, lattice, limits, pointprocess as pp, walks


def test_hermite_low_degrees():
    assert limits.hermite_chebycheff(0, 0.3, 2) == 1.0
    assert limits.hermite_chebycheff(1, 0.7, 3) == 0.7
    # z^2 coefficient of exp(-z^2/2q + xz): H_2 = x^2 - 1/q
    assert abs(limits.hermite_chebycheff(2, 0.0, 2) + 0.5) < 1e-15
    assert abs(limits.hermite_chebycheff(2, 1.0, 4) - (1.0 - 0.25)) < 1e-15


def test_hermite_generating_function():
    # sum_k z^k H_k(x)/k! = exp(-z^2/2q + xz), truncated tail is tiny
    q, x, z = 3, 0.4, 0.3
    series = sum(z**k / math.factorial(k) * limits.hermite_chebycheff(k, x, q)
                 for k in range(30))
    assert abs(series - math.exp(-z**2 / (2 * q) + x * z)) < 1e-14


def _hermite_recurrence(k, x, q):
    # reference: the three-term recurrence run on its own, two rows at a time
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = x.copy()
    for j in range(1, k):
        prev, cur = cur, x * cur - (j / q) * prev
    return cur


@pytest.mark.parametrize("q", [2, 3, 4, 7])
def test_hermite_is_the_table_recurrence_bit_for_bit(q):
    rng = np.random.default_rng(q)
    inputs = [0.37, -0.0, np.array(-0.0), rng.standard_normal(5),
              rng.standard_normal((3, 4)) * 2.0, np.array([-0.0, 0.0, 1.5])]
    for x in inputs:
        for k in range(30):
            got = np.asarray(limits.hermite_chebycheff(k, x, q))
            want = np.asarray(_hermite_recurrence(k, x, q))
            assert got.shape == want.shape == np.shape(x)
            assert got.tobytes() == want.tobytes(), (q, k, x)
    with pytest.raises(lattice.RangeError):
        limits.hermite_chebycheff(-1, 0.3, q)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermite_orthogonality_quadrature(q):
    assert limits.hermite_orthogonality_residual(q) < 1e-10


def test_hermite_norms_by_direct_quadrature():
    # independent check of E[H_k^2] = k!/q^k under N(0, 1/q)
    q = 3
    z, w = hermegauss(48)
    x = z / math.sqrt(q)
    w = w / w.sum()
    for k in range(6):
        vals = limits.hermite_chebycheff(k, x, q)
        assert abs(w @ (vals * vals) - math.factorial(k) / q**k) < 1e-12


@pytest.mark.parametrize("q", [2, 3, 4])
def test_limit_krawtchouk_routes_agree(q):
    rng = np.random.default_rng(q)
    for _ in range(6):
        m = limits.full_type_vector(0.8 * rng.standard_normal(q - 1), q)
        for l in kw.degree_indices(q, 5, 4):
            a = limits.limit_krawtchouk_series(m, l, q)
            b = limits.limit_krawtchouk_hermite(m, l, q)
            assert abs(a - b) < 1e-9, (q, l)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermite_coefficients_match_per_pair_krawtchouk(q):
    for l in kw.degree_indices(q, 6, 5):
        denom = math.prod(math.factorial(v) for v in l)
        oracle = {}
        for a in kw.count_vectors(q, sum(l)):
            coeff = kw.krawtchouk((0,) + l, a[1:], q) / denom
            if coeff != 0:
                oracle[a] = coeff
        got = dict(limits._hermite_expansion_coeffs(l, q))
        assert max((abs(got.get(a, 0) - oracle.get(a, 0))
                    for a in set(got) | set(oracle)), default=0.0) < 1e-14


def test_hermite_coefficients_take_one_dp(monkeypatch):
    calls = []
    dp = limits.krawtchouk_values
    monkeypatch.setattr(limits, "krawtchouk_values",
                        lambda *args: calls.append(args) or dp(*args))
    limits._hermite_expansion_coeffs((2, 1, 1), 4)
    assert len(calls) == 1


def test_limit_krawtchouk_degree_one_is_linear_form():
    q = 3
    m = limits.full_type_vector(np.array([0.4, -0.2]), q)
    theta = np.exp(2j * np.pi / 3)
    for k in (1, 2):
        l = tuple(1 if j == k else 0 for j in (1, 2))
        expected = sum(m[j] * theta ** (k * j) for j in range(3))
        assert abs(limits.limit_krawtchouk_series(m, l, q) - expected) < 1e-12


def test_limit_krawtchouk_zero_degree():
    m = limits.full_type_vector(np.array([0.3]), 2)
    assert limits.limit_krawtchouk_series(m, (0,), 2) == 1.0
    assert limits.limit_krawtchouk_hermite(m, (0,), 2) == 1.0


def test_q2_limit_polynomials_are_scaled_hermite():
    # exp(-w^2/2 + (m0 - m1) w): Q_l = He_l(m0 - m1)/l!
    m = limits.full_type_vector(np.array([0.35]), 2)
    x = m[0] - m[1]
    he = [1.0, x, x**2 - 1, x**3 - 3 * x]
    for deg in range(4):
        got = limits.limit_krawtchouk_series(m, (deg,), 2)
        assert abs(got - he[deg] / math.factorial(deg)) < 1e-12


def test_finite_d_scaled_krawtchouk_converges():
    for l in [(2,), (3,), (4,)]:
        errs = []
        for d in (40, 80, 160):
            delta = int(round(0.35 * math.sqrt(d)))
            counts = (d // 2 + delta, d // 2 - delta)
            m_eff = (np.array(counts) - d / 2) / math.sqrt(d)
            finite = kw.krawtchouk(counts, l, 2).real * d ** (-sum(l) / 2)
            limit = limits.limit_krawtchouk_hermite(m_eff, l, 2).real
            errs.append(abs(finite - limit))
        # error decreases with d up to roundoff noise
        assert errs[2] <= errs[0] + 1e-12, (l, errs)


@pytest.mark.parametrize("q,degs", [
    (2, [(0,), (1,), (2,), (3,)]),
    (3, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]),
])
def test_biorthogonality_by_monte_carlo(q, degs):
    rng = np.random.default_rng(17 + q)
    m = limits.sample_type_gaussian(q, 300_000, rng)
    vals = {l: limits.limit_krawtchouk_batch(m, l, q) for l in degs}
    for la in degs:
        for lb in degs:
            prods = vals[la] * np.conj(vals[lb])
            est = prods.mean()
            se = (prods.real.std(ddof=1) + prods.imag.std(ddof=1)) \
                / math.sqrt(len(prods)) + 1e-12
            target = 1.0 / np.prod([math.factorial(v) for v in la]) \
                if la == lb else 0.0
            assert abs(est - target) <= 5 * se, (la, lb, est, target)


def test_type_gaussian_covariance():
    q = 4
    m = limits.sample_type_gaussian(q, 300_000, np.random.default_rng(3))
    cov = m.T @ m / len(m)
    target = (np.eye(q) - 1.0 / q) / q
    assert np.max(np.abs(cov - target)) < 5e-3
    assert np.max(np.abs(m.sum(axis=1))) < 1e-12  # singular constraint


def test_gaussian_char_closed_form():
    q = 3
    omega = np.array([0.0, 0.4, -0.7])
    m = limits.sample_type_gaussian(q, 400_000, np.random.default_rng(8))
    emp = np.exp(1j * m @ omega).mean()
    assert abs(emp - limits.gaussian_char(omega, q)) < 4e-3
    # matches the reduced quadratic on the M_+ marginal
    red = math.exp(-0.5 / q * (np.sum(omega[1:] ** 2)
                               - np.sum(omega[1:]) ** 2 / q))
    assert abs(limits.gaussian_char(omega, q) - red) < 1e-14


def test_complex_argument_gaussian_identity():
    # E[e^{i(ia+b)X}] = e^{-(ia+b)^2/2} for X ~ N(0,1), by quadrature
    z, w = hermegauss(96)
    w = w / w.sum()
    for a, b in ((0.5, 0.3), (1.0, -0.7), (0.0, 1.2)):
        quad = np.sum(w * np.exp(1j * (1j * a + b) * z))
        closed = np.exp(-0.5 * (1j * a + b) ** 2)
        assert abs(quad - closed) < 1e-8


def test_transform_identity_cases():
    # omega = 0, |l| >= 1: both sides vanish
    [(mc, rhs, se)] = limits.transform_identity(np.zeros(2), [(1,)], 2, 2000,
                                                seed=0)
    assert abs(rhs) < 1e-15 and abs(mc) <= 5 * se
    # l = 0: transform of the constant polynomial
    omega = np.array([0.0, 0.8])
    [(mc0, rhs0, se0)] = limits.transform_identity(omega, [(0,)], 2, 50_000,
                                                   seed=1)
    assert abs(rhs0 - limits.gaussian_char(omega, 2)) < 1e-14
    assert abs(mc0 - rhs0) <= 4 * se0 + 1e-12
    [(mc1, rhs1, se1)] = limits.transform_identity(omega, [(1,)], 2, 300_000,
                                                   seed=2)
    assert abs(mc1 - rhs1) <= 4 * se1
    # one sample has no standard error
    with pytest.raises(lattice.RangeError):
        limits.transform_identity(omega, [(1,)], 2, 1, seed=3)


def _transform_reference(omega, l, q, n_samples, seed):
    """One (omega, l) as a single-degree transform_identity computed it."""
    m = _mc.run_chunked(n_samples, seed, 1,
                        lambda rng, k: limits.sample_type_gaussian(q, k, rng))
    samples = np.exp(1j * m @ omega) * limits.limit_krawtchouk_batch(m, l, q)
    se = math.sqrt((samples.real.var(ddof=1) + samples.imag.var(ddof=1))
                   / n_samples)
    return complex(samples.mean()), se


@pytest.mark.parametrize("q", [2, 3, 4])
def test_transform_identity_degrees_share_one_draw_bit_for_bit(q):
    # complex a*b and b*a can differ in the last bit, so this also pins
    # the operand order of the phase times the polynomial
    omega = np.zeros(q)
    omega[1:] = np.random.default_rng(q).standard_normal(q - 1)
    degrees = kw.degree_indices(q, 3, 2)
    together = limits.transform_identity(omega, degrees, q, 20_000, seed=5)
    assert len(together) == len(degrees)
    for l, triple in zip(degrees, together):
        alone = limits.transform_identity(omega, [l], q, 20_000, seed=5)
        assert alone == [triple], l
        mc, se = _transform_reference(omega, l, q, 20_000, 5)
        assert (triple[0], triple[2]) == (mc, se), l


def test_krawtchouk_batch_shared_table_bit_for_bit():
    q = 3
    m = limits.sample_type_gaussian(q, 500, np.random.default_rng(4))
    table = limits.hermite_table(4, m, q)
    for l in kw.degree_indices(q, 5, 4):
        assert np.array_equal(limits.limit_krawtchouk_batch(m, l, q, table),
                              limits.limit_krawtchouk_batch(m, l, q))
    with pytest.raises(lattice.RangeError):
        limits.limit_krawtchouk_batch(m, (3, 2), q, table)


def test_limit_green_density_truncation_monotone_at_center():
    spec = pp.PointProcessSpec(0.5, [pp.XiAtom([0.8, 0.2], 1.0)], 1.0)
    lam = lambda l: pp.y_moment(spec, l)
    zero = np.zeros(1)
    vals = [limits.limit_green_density(zero, zero, lam, 2, L)
            for L in range(1, 8)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_limit_green_density_alpha_zero_is_reproducing_series():
    lam = lambda l: 1.0  # alpha = 0 makes every eigenvalue 1
    zero = np.zeros(1)
    with pytest.warns(UserWarning, match="delta-type"):
        got = limits.limit_green_density(zero, zero, lam, 2, 4)
    phi0 = limits.mplus_density(zero, 2)
    series = 1.0
    for deg in range(1, 5):
        qval = limits.limit_krawtchouk_hermite(np.zeros(2), (deg,), 2)
        series += math.factorial(deg) * abs(qval) ** 2
    assert abs(got - phi0**2 * series) < 1e-12


def test_scaled_green_converges_to_limit_density():
    spec = pp.lazy_spec(2, 0.5, [0.2, 0.4])
    kap = lambda l: pp.kappa(spec, l)
    lam = lambda l: pp.y_moment(spec, l)
    ratios = []
    for d in (40, 80, 160):
        delta = int(round(0.3 * math.sqrt(d)))
        delta2 = int(round(0.5 * math.sqrt(d)))
        m = (d // 2 + delta, d // 2 - delta)
        n = (d // 2 - delta2, d // 2 + delta2)
        m_eff = np.array([(m[0] - d / 2) / math.sqrt(d)])
        n_eff = np.array([(n[0] - d / 2) / math.sqrt(d)])
        finite = limits.scaled_green_finite_d(kap, 0.5, 2, d, m, n,
                                              max_degree=6)
        limit = limits.limit_green_density(m_eff, n_eff, lam, 2, 6)
        ratios.append(finite / limit)
    assert abs(ratios[-1] - 1.0) < 0.05
    assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0)


@pytest.mark.parametrize("q,d,max_degree", [(2, 9, None), (3, 5, None),
                                            (3, 8, 3), (4, 4, 2)])
def test_scaled_green_matches_per_degree_sum(q, d, max_degree):
    alpha = 0.5
    law = walks.lazy_walk(q, d, [0.3, 0.6])
    kap = {l: kw.kappa_from_law(law, l) for l in kw.degree_indices(q, d)}
    counts = kw.count_vectors(q, d)
    for m, n in ((counts[0], counts[-1]),
                 (counts[1], counts[len(counts) // 2])):
        acc = 0.0 + 0.0j
        for l in kw.degree_indices(q, d, max_degree):
            lam = 1.0 / (1.0 + alpha / (1.0 - alpha) * (1.0 - kap[l]))
            acc += (math.exp(-kw.log_scale_constant_inv(l, d)) * lam
                    * kw.krawtchouk(m, l, q) * np.conj(kw.krawtchouk(n, l, q)))
        oracle = (d ** (q - 1) * kw.multinomial_pmf(m, d, q)
                  * kw.multinomial_pmf(n, d, q) * acc.real)
        got = limits.scaled_green_finite_d(kap, alpha, q, d, m, n, max_degree)
        assert abs(got - oracle) < 1e-13


def test_transform_field_cov_routes_agree():
    spec = pp.lazy_spec(2, 0.6, [0.2, 0.4])
    omega = np.array([0.0, 0.3])
    psi = np.array([0.0, 0.5])
    closed, bound = limits.transform_field_cov_closed(omega, psi, spec)
    series, tail = limits.transform_field_cov_series(omega, psi, spec, 12)
    assert abs(closed - series) <= max(1e-6, tail + bound)


def test_transform_field_cov_zero_arguments():
    spec = pp.lazy_spec(3, 0.5, [0.2, 0.5])
    zero = np.zeros(3)
    closed, _ = limits.transform_field_cov_closed(zero, zero, spec)
    assert abs(closed - 1.0) < 1e-9


def test_transform_field_cov_uniform_atom():
    # uniform pmf: xi = 0, so Y = 1 only on the T = 0 event; the inner
    # expectation is alpha + (1-alpha) e^(sum u), consistent with the
    # series through the moment formula (lambda_l = 1 - alpha, l != 0)
    alpha = 0.6
    spec = pp.PointProcessSpec(alpha, [pp.XiAtom([0.5, 0.5], 1.0)], 1.0)
    omega = np.array([0.0, 0.3])
    psi = np.array([0.0, 0.5])
    closed, _ = limits.transform_field_cov_closed(omega, psi, spec)
    series, _ = limits.transform_field_cov_series(omega, psi, spec, 18)
    u = limits._transform_couplings(omega, psi, 2)
    pref = limits.gaussian_char(omega, 2) * limits.gaussian_char(-psi, 2)
    expected = pref * (alpha + (1 - alpha) * np.exp(np.sum(u)))
    assert abs(closed - expected) < 1e-9
    assert abs(series - expected) < 1e-9


def test_transform_field_cov_against_driver_synthesis():
    # third route: realize the transform field from i.i.d. real drivers,
    # coefficient of g_l = (i/q)^|l| E[prod Y_half^l] (sum w theta)^l/sqrt(l!),
    # and estimate the conjugate pairing by Monte Carlo
    q = 2
    spec = pp.lazy_spec(q, 0.6, [0.2, 0.4])
    half = pp.PointProcessSpec(spec.alpha, spec.atoms, 0.5)
    omega = np.array([0.0, 0.3])
    psi = np.array([0.0, 0.5])
    theta = np.exp(2j * np.pi / q)
    max_degree = 10

    def coeffs(w):
        out = []
        for l in kw.degree_indices(q, max_degree + 1, max_degree):
            c = (1j / q) ** sum(l) * pp.y_moment(half, l)
            for k, v in enumerate(l, start=1):
                form = sum(w[a] * theta ** (k * a) for a in range(q))
                c *= form**v / math.sqrt(math.factorial(v))
            out.append(c)
        return limits.gaussian_char(w, q) * np.array(out)

    rng = np.random.default_rng(31)
    drivers = rng.standard_normal((200_000, len(coeffs(omega))))
    f_omega = drivers @ coeffs(omega)
    f_psi = drivers @ coeffs(psi)
    prods = f_omega * np.conj(f_psi)
    est = prods.mean()
    se = (prods.real.std(ddof=1) + prods.imag.std(ddof=1)) \
        / math.sqrt(len(prods))
    closed, _ = limits.transform_field_cov_closed(omega, psi, spec)
    assert abs(est - closed) <= 5 * se


def test_transform_field_cov_rejects_complex_atoms():
    atom = pp.XiAtom([0.6, 0.3, 0.1], 1.0)  # complex transform
    spec = pp.PointProcessSpec(0.5, [atom], 1.0)
    with pytest.raises(walks.ContractError):
        limits.transform_field_cov_closed(np.zeros(3), np.zeros(3), spec)


def test_closed_transform_route_counts_its_compositions_up_front(monkeypatch):
    def refuse(*args):
        raise AssertionError("compositions enumerated before the count")

    monkeypatch.setattr(limits, "count_vectors", refuse)
    spec = pp.lazy_spec(3, 0.99, [0.2, 0.4])
    omega, psi = np.array([0.0, 0.3, 0.0]), np.array([0.0, 0.5, 0.0])
    with pytest.raises(lattice.RangeError, match="closed transform-field "
                       "route at alpha=0.99: needs 7592932 steps"):
        limits.transform_field_cov_closed(omega, psi, spec)
