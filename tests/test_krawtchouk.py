import math
import sys
import tracemalloc

import numpy as np
import pytest

from qfield import green, hamiltonian, lattice, limits, walks
from qfield import krawtchouk as kw


def test_q2_linear_polynomial():
    # expand (1+w)^m0 (1-w)^m1: coefficient of w is m0 - m1
    for m0 in range(5):
        for m1 in range(5):
            got = kw.krawtchouk((m0, m1), (1,), 2)
            assert abs(got - (m0 - m1)) < 1e-13


def test_q3_single_count_first_degree():
    theta = np.exp(2j * np.pi / 3)
    for a in range(3):
        m = [0, 0, 0]
        m[a] = 1
        assert abs(kw.krawtchouk(m, (1, 0), 3) - theta**a) < 1e-14
        assert abs(kw.krawtchouk(m, (0, 1), 3) - theta ** (2 * a)) < 1e-14


def test_degree_zero_is_one():
    for m in kw.count_vectors(4, 5):
        assert kw.krawtchouk(m, (0, 0, 0), 4) == 1.0 + 0.0j


def test_degree_beyond_bound_returns_zero_with_flag():
    with pytest.warns(UserWarning):
        assert kw.krawtchouk((1, 0), (2,), 2) == 0.0


def test_exact_q2_matches_float_dp():
    for m0 in range(6):
        for m1 in range(6):
            for deg in range(m0 + m1 + 1):
                exact = kw.krawtchouk_exact_q2((m0, m1), deg)
                approx = kw.krawtchouk((m0, m1), (deg,), 2).real
                assert abs(exact - approx) < 1e-12


def test_scale_constants_exact_integers():
    assert kw.scale_constant_inv((1,), 3) == 3
    assert kw.scale_constant_inv((1, 1), 4) == 12  # 4!/2!
    assert kw.scale_constant_inv((0, 0), 7) == 1
    assert kw.scale_constant_inv((2, 1), 5) == math.factorial(5) // (
        math.factorial(2) * math.factorial(2) * math.factorial(1))
    # integer arithmetic survives dimensions where d! overflows floats
    big = kw.scale_constant_inv((3, 2), 200)
    assert big == (200 * 199 * 198 * 197 * 196) // 12
    assert abs(kw.log_scale_constant_inv((3, 2), 200) - math.log(big)) < 1e-9


def test_orthogonality_enumerated_small():
    # q=2, d=3, l=l'=(1): sum = 3 = h^-1 over the 8 binary outcomes
    weights = [kw.multinomial_pmf(m, 3, 2) for m in kw.count_vectors(2, 3)]
    values = [kw.krawtchouk(m, (1,), 2).real for m in kw.count_vectors(2, 3)]
    assert abs(sum(w * v * v for w, v in zip(weights, values)) - 3.0) < 1e-12


@pytest.mark.parametrize("q,d", [(2, 3), (2, 6), (3, 4), (4, 4)])
def test_orthogonality_residual(q, d):
    assert kw.orthogonality_residual(q, d, min(d, 4)) < 1e-9


def test_duality_all_pairs_small():
    assert kw.max_duality_residual(2, 3) < 1e-10
    assert kw.max_duality_residual(3, 3) < 1e-10


def test_duality_degenerate_cases():
    # l = 0: both sides reduce to the multinomial coefficient of m
    for m in kw.count_vectors(3, 4):
        assert kw.duality_residual(m, (0, 0), 3) < 1e-10
    # m concentrated on type 0: Q_{m^-} = Q_0 = 1
    assert kw.duality_residual((4, 0, 0), (2, 1), 3) < 1e-10


def test_kappa_routes_agree_on_mixtures():
    # quantified over 50 random mixtures
    rng = np.random.default_rng(12)
    for trial in range(50):
        q = int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        n_comp = int(rng.integers(1, 4))
        pmfs = rng.dirichlet(np.ones(q), size=n_comp)
        weights = rng.dirichlet(np.ones(n_comp))
        law = walks.DeFinettiMixtureLaw(q, d, weights=weights, pmfs=pmfs)
        pool = kw.degree_indices(q, d, min(d, 3))
        degrees = pool if trial < 12 else \
            [pool[int(rng.integers(0, len(pool)))]]
        for l in degrees:
            a = kw.kappa_route_counts(law, l)
            b = kw.kappa_route_transform(law, l)
            assert abs(a - b) < 1e-10, (q, d, l)


def test_kappa_q2_mixture_moment_form():
    # kappa_l = E[(1 - 2 p1)^l] over the mixing atoms
    gammas, weights = [0.1, 0.45], [0.25, 0.75]
    law = walks.lazy_walk(2, 5, gammas, weights)
    for deg in range(5):
        expected = sum(w * (1 - 2 * g) ** deg for g, w in zip(gammas, weights))
        assert abs(kw.kappa_from_law(law, (deg,)) - expected) < 1e-12


def test_kappa_uniform_component_is_delta():
    law = walks.ProductIIDLaw(3, 3, p=[1 / 3] * 3)
    assert abs(kw.kappa_from_law(law, (0, 0)) - 1.0) < 1e-14
    for l in kw.degree_indices(3, 3):
        if sum(l):
            assert abs(kw.kappa_from_law(law, l)) < 1e-13


def test_kappa_rejects_non_exchangeable():
    law = walks.DeterministicLaw(3, 2, (1, 2))
    with pytest.raises(walks.ContractError):
        kw.kappa_route_counts(law, (1, 0))


def test_kappa_sparse_vanishes_beyond_support():
    law = walks.builtin_law("sparse_exchangeable", 2, 4)  # c = 2
    assert abs(kw.kappa_route_counts(law, (3,))) < 1e-12
    assert abs(kw.kappa_route_counts(law, (2,))) > 1e-6


@pytest.mark.parametrize("q,d,t", [(2, 3, 0), (2, 3, 1), (2, 3, 2), (2, 3, 3),
                                   (3, 3, 2), (3, 4, 3), (2, 4, 2)])
def test_count_chain_matches_lumping_oracle(q, d, t):
    law = walks.lazy_walk(q, d, [0.3, 0.7])
    kap = {l: kw.kappa_from_law(law, l) for l in kw.degree_indices(q, d)}
    kernel, counts = kw.count_chain_kernel(kap, q, d, t)
    p_t = np.linalg.matrix_power(walks.transition_matrix(law.spectrum()), t)
    lumped = kw.lump_by_type(p_t, q, d)
    assert np.max(np.abs(kernel - lumped)) < 1e-9
    assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) < 1e-9


def test_count_chain_lumping_all_exchangeable_builtins():
    for family in ("uniform", "product_iid", "definetti_mixture",
                   "sparse_exchangeable"):
        law = walks.builtin_law(family, 3, 3)
        kap = {l: kw.kappa_route_counts(law, l)
               for l in kw.degree_indices(3, 3)}
        kernel, _ = kw.count_chain_kernel(kap, 3, 3, 2)
        p2 = np.linalg.matrix_power(walks.transition_matrix(law.spectrum()), 2)
        assert np.max(np.abs(kernel - kw.lump_by_type(p2, 3, 3))) < 1e-9


def test_count_chain_d1_reduces_to_p():
    law = walks.lazy_walk(3, 1, [0.4])
    kap = {l: kw.kappa_from_law(law, l) for l in kw.degree_indices(3, 1)}
    kernel, counts = kw.count_chain_kernel(kap, 3, 1, 1)
    p = walks.transition_matrix(law.spectrum())
    # counts enumerate the three singleton states; align orderings
    order = [lattice.rank([j], 3) for j, m in
             ((m.index(1), m) for m in counts)]
    assert np.max(np.abs(kernel - p[np.ix_(order, order)])) < 1e-12


def test_count_chain_t_zero_is_identity():
    law = walks.lazy_walk(2, 4, [0.3])
    kap = {l: kw.kappa_from_law(law, l) for l in kw.degree_indices(2, 4)}
    kernel, counts = kw.count_chain_kernel(kap, 2, 4, 0)
    assert np.max(np.abs(kernel - np.eye(len(counts)))) < 1e-9


def test_count_chain_rejects_bogus_kappa():
    degrees = kw.degree_indices(2, 3)
    bogus = {l: (-1.0 if sum(l) else 1.0) for l in degrees}
    with pytest.raises(kw.KappaError):
        kw.count_chain_kernel(bogus, 2, 3, 1)


@pytest.mark.parametrize("q,d,max_degree", [(4, 6, None), (3, 10, None),
                                            (5, 4, None), (3, 20, 4)])
def test_table_matches_per_pair_dp(q, d, max_degree):
    tab = kw.table(q, d, max_degree)
    assert tab.degrees == kw.degree_indices(q, d, max_degree)
    assert tab.counts == kw.count_vectors(q, d)
    worst = max(abs(tab.values[i, j] - kw.krawtchouk(m, l, q))
                for i, l in enumerate(tab.degrees)
                for j, m in enumerate(tab.counts))
    assert worst < 1e-13


@pytest.mark.parametrize("q", [2, 3, 4])
def test_max_duality_matches_per_pair_residuals(q):
    for d in range(1, 7):
        per_degree = {l: max(kw.duality_residual(m, l, q)
                             for m in kw.count_vectors(q, d))
                      for l in kw.degree_indices(q, d)}
        for max_degree in (None, min(d, 3)):
            oracle = max(r for l, r in per_degree.items()
                         if max_degree is None or sum(l) <= max_degree)
            got = kw.max_duality_residual(q, d, max_degree)
            assert abs(got - oracle) < 1e-12, (q, d, max_degree)


def _count_dp_calls(monkeypatch):
    calls = []
    dp = kw.krawtchouk_values

    def counted(m, degrees, q):
        calls.append(np.shape(m))
        return dp(m, degrees, q)

    def per_pair(*args):
        raise AssertionError("per-(l, m) krawtchouk() call")

    monkeypatch.setattr(kw, "krawtchouk_values", counted)
    monkeypatch.setattr(kw, "krawtchouk", per_pair)
    return calls


@pytest.mark.parametrize("q,d,max_degree", [(2, 6, None), (3, 5, 4),
                                            (4, 5, None), (4, 6, 4)])
def test_one_batched_dp_per_caller(monkeypatch, q, d, max_degree):
    n_counts = len(kw.count_vectors(q, d))
    n_degrees = len(kw.degree_indices(q, d, max_degree))
    calls = _count_dp_calls(monkeypatch)
    kw.table(q, d, max_degree)
    assert calls == [(n_counts, q)]
    calls.clear()
    kw.max_duality_residual(q, d, max_degree)
    assert calls == [(n_counts, q), (n_degrees, q)]
    calls.clear()
    law = walks.lazy_walk(q, d, [0.3, 0.7])
    kw.kappa_route_counts(law, (1,) * (q - 1))
    assert calls == [(len(law.count_law()), q)]


def _per_row_dp(m, degrees, q):
    """The one-count-vector DP: |m| passes, each a copy and q - 1 shifted
    adds, over the box of the largest degree on each axis."""
    degrees = np.asarray(degrees, dtype=np.int64).reshape(-1, q - 1)
    box = tuple((np.max(degrees, axis=0, initial=0) + 1).tolist())
    shifts = [(k, (slice(None),) * (k - 1) + (slice(1, None),),
               (slice(None),) * (k - 1) + (slice(0, -1),))
              for k in range(1, q) if box[k - 1] > 1]
    theta = lattice.roots(q)
    coef = np.zeros(box, dtype=complex)
    coef[(0,) * (q - 1)] = 1.0
    for j in range(q):
        for _ in range(int(m[j])):
            new = coef.copy()
            for k, dst, src in shifts:
                new[dst] += theta[(k * j) % q] * coef[src]
            coef = new
    return coef[tuple(degrees.T)]


def _same_bits(got, want):
    return (got.shape == want.shape
            and all(np.array_equal(f(got), f(want)) for f in (
                np.real, np.imag, lambda v: np.signbit(v.real),
                lambda v: np.signbit(v.imag))))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_batched_dp_equals_the_per_row_dp_bit_for_bit(q):
    rng = np.random.default_rng(q)
    # rows of |m| = 0..5 in a shuffled order, and degrees up to |l| = 6,
    # past every row's |m|, so some entries are exact zeros
    rows = [m for d in range(6) for m in kw.count_vectors(q, d)]
    rows = np.array(rows)[rng.permutation(len(rows))]
    degrees = kw.degree_indices(q, 6, 6 if q <= 4 else 3)
    got = kw.krawtchouk_values(rows, degrees, q)
    want = np.array([_per_row_dp(m, degrees, q) for m in rows])
    assert _same_bits(got, want)
    assert np.all(got[rows.sum(axis=1) < 3][:, [sum(l) >= 3 for l in degrees]]
                  == 0)
    # a single row keeps its (n_degrees,) shape
    assert _same_bits(kw.krawtchouk_values(rows[-1], degrees, q), want[-1])


def test_batched_dp_spans_chunks():
    # a (31, 31) box holds 961 coefficients, so 496 rows span many chunks
    q, d = 3, 30
    assert 496 * 31**2 > 4 * kw._CHUNK_ENTRIES
    counts = np.array(kw.count_vectors(q, d))[::-1]
    degrees = kw.degree_indices(q, d)
    got = kw.krawtchouk_values(counts, degrees, q)
    picks = np.random.default_rng(0).choice(len(counts), 40, replace=False)
    for i in [0, len(counts) - 1, *picks]:
        assert _same_bits(got[i], _per_row_dp(counts[i], degrees, q))


@pytest.mark.parametrize("m", [(1, -1, 2), (1, 2), (1, 2, 3, 4),
                               [(1, 1, 1), (0, 1)], [(1, 1, 1), (2, -1, 0)],
                               [[(1, 1, 1)]]])
def test_batched_dp_refuses_bad_rows(m):
    with pytest.raises(lattice.RangeError, match="length-3 nonnegative"):
        kw.krawtchouk_values(m, [(1, 0)], 3)


def test_batched_dp_of_no_rows():
    assert kw.krawtchouk_values(np.zeros((0, 3)), [(1, 0), (0, 2)],
                                3).shape == (0, 2)


def test_orthogonality_on_the_496_table():
    # entries reach h_l^-1 = 30!/(10!)^3 = 5.6e12; the residual is relative,
    # so a correct table passes at the same bound as at small d
    tab = kw.table(3, 30)
    assert tab.values.shape == (496, 496)
    assert kw.orthogonality_residual(3, 30, tab=tab) <= 1e-9


@pytest.mark.parametrize("check", [kw.orthogonality_residual,
                                   kw.max_duality_residual])
def test_exact_checks_cap_count_vectors_before_the_table(monkeypatch, check):
    def refuse(*args, **kwargs):
        raise AssertionError("table built before the size check")

    monkeypatch.setattr(kw, "table", refuse)
    for max_degree in (None, 2):
        with pytest.raises(lattice.RangeError, match="125751 count vectors"):
            check(3, 500, max_degree)


@pytest.mark.parametrize("check", [kw.orthogonality_residual,
                                   kw.max_duality_residual])
def test_exact_checks_cap_table_entries_before_the_table(monkeypatch, check):
    # C(302, 2) = 45451 count vectors pass the count cap, but a table of
    # 45451 degrees by 45451 counts is 2.07e9 entries
    def refuse(*args, **kwargs):
        raise AssertionError("table built before the size check")

    monkeypatch.setattr(kw, "table", refuse)
    with pytest.raises(lattice.RangeError, match="2065793401 table entries"):
        check(3, 300)


def test_duality_residual_is_relative_at_d20():
    # h_{m-}^-1 h_l^-1 reaches 1.8e16 here, where the absolute gap is 8.3e-3
    assert kw.max_duality_residual(3, 20, 20) <= 1e-9


@pytest.mark.parametrize("law", [
    *(walks.builtin_law(f, 3, 3) for f in walks.BUILTIN_FAMILIES),
    walks.lazy_walk(2, 4, [0.3, 0.7]),
], ids=lambda law: f"{type(law).__name__}-q{law.q}-d{law.d}")
def test_count_law_matches_lumped_pmf(law):
    counts, classes = kw.state_type_counts(law.q, law.d)
    oracle = np.bincount(classes, weights=law.pmf(), minlength=len(counts))
    got = law.count_law()
    assert set(got) <= set(counts)
    assert max(abs(got.get(m, 0.0) - p) for m, p in zip(counts, oracle)) < 1e-14


class TiltedPairLaw(walks.IncrementLaw):
    """Entries i.i.d. p or i.i.d. reversed p, each with probability 1/2;
    defined here from the interface alone."""

    def __init__(self, q, d, p):
        self.q, self.d = q, d
        self.pmfs = np.array([p, p[::-1]], dtype=float)

    def mixing_measure(self):
        return np.array([0.5, 0.5]), self.pmfs

    def spectrum(self):
        return walks.Spectrum(sum(
            0.5 * lattice.axis_tensor([walks.xi_transform(p)] * self.d)
            for p in self.pmfs), self.q, self.d)

    def sample(self, rng, n):
        comp = rng.integers(0, 2, size=n)
        return np.stack([rng.choice(self.q, size=self.d, p=self.pmfs[c])
                         for c in comp])

    def pmf(self):
        return sum(0.5 * lattice.axis_tensor([p] * self.d).real
                   for p in self.pmfs)

    def is_exchangeable(self):
        return True


def test_new_law_is_one_class():
    q, d = 3, 3
    law = TiltedPairLaw(q, d, [0.5, 0.3, 0.2])
    kap = {}
    for l in kw.degree_indices(q, d):
        kap[l] = kw.kappa_route_counts(law, l)
        assert abs(kap[l] - kw.kappa_route_transform(law, l)) < 1e-12
    kernel, _ = kw.count_chain_kernel(kap, q, d, 2)
    p2 = np.linalg.matrix_power(walks.transition_matrix(law.spectrum()), 2)
    assert np.max(np.abs(kernel - kw.lump_by_type(p2, q, d))) < 1e-9
    assert hamiltonian.grouping_identity_residual(law, 0.6) < 1e-10


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_dp_box_is_budgeted_before_it_is_allocated():
    # |l| <= 3 on each of 15 axes: a 4^15-entry complex box, 16 GiB
    degrees = [tuple(3 * (j == k) for j in range(15)) for k in range(15)]

    def refused():
        with pytest.raises(lattice.RangeError, match="Krawtchouk DP at q=16"):
            kw.krawtchouk_values((0, 3) + (0,) * 14, degrees, 16)

    assert _traced_peak(refused) < 2**20


def test_degree_indices_are_budgeted_before_they_are_enumerated():
    assert kw.degree_indices(3, 2) == [(0, 0), (0, 1), (0, 2), (1, 0),
                                       (1, 1), (2, 0)]
    assert kw.degree_indices(4, 5, 1) == [(0, 0, 0), (0, 0, 1), (0, 1, 0),
                                          (1, 0, 0)]

    # C(403, 4), about 1.1e9, degree indices at q = 400
    def refused():
        with pytest.raises(lattice.RangeError,
                           match="1082740100 count vectors at q=400"):
            kw.degree_indices(400, 5, 4)

    assert _traced_peak(refused) < 2**20


def _record_charges_and_dps(monkeypatch):
    """Every ``lattice.budget`` call as ("charge", touched), and every
    Krawtchouk DP run as ("dp", rows * passes * q * box) when it starts and
    ("done", 0) when it returns, in call order."""
    events, charge, dp = [], lattice.budget, kw.krawtchouk_values

    def recording_budget(what, entries=0, steps=0, touched=0):
        events.append(("charge", touched))
        return charge(what, entries, steps, touched)

    def recording_dp(m, degrees, q):
        rows = np.asarray(m).reshape(-1, q)
        top = np.max(np.reshape(degrees, (-1, q - 1)), axis=0, initial=0)
        events.append(("dp", len(rows) * int(rows.sum(axis=1).max())
                       * q * math.prod((top + 1).tolist())))
        out = dp(m, degrees, q)
        events.append(("done", 0))
        return out

    for name, module in list(sys.modules.items()):
        if name.startswith("qfield"):
            if getattr(module, "budget", None) is charge:
                monkeypatch.setattr(module, "budget", recording_budget)
            if getattr(module, "krawtchouk_values", None) is dp:
                monkeypatch.setattr(module, "krawtchouk_values", recording_dp)
    return events


_LAW = walks.lazy_walk(3, 6, [0.3, 0.7])
_WORK_CASES = {
    "table": lambda: kw.table(4, 5, 3),
    "orthogonality": lambda: kw.orthogonality_residual(3, 6, 4),
    "duality": lambda: kw.max_duality_residual(4, 8, 4),
    "route-a": lambda: kw.kappa_route_counts(_LAW, (2, 1)),
    "route-b": lambda: kw.kappa_route_transform(_LAW, (2, 1)),
    "green-grouped": lambda: green.green_grouped(
        lambda l: 0.5, 3, 5, 0.4, (3, 1, 1), (1, 2, 2)),
    "ct-grouped": lambda: kw.ct_grouped_eigenvalues(walks.AtomicMeasure(
        np.array([[4, 0, 0], [2, 1, 1], [0, 3, 1]]), np.array([0.5, 0.3, 0.2])),
        0.7, 3, 4),
    "limit-kraw": lambda: limits.check_table("limit-kraw", 3, 0.5, None, 1),
}


@pytest.mark.parametrize("name", _WORK_CASES)
def test_every_dp_is_charged_its_work_and_plans_charge_ahead(monkeypatch,
                                                             name):
    # a DP charges exactly its work while it runs; a charge outside every
    # DP that touches entries is a plan, at least the next DP's work
    limits._series_plan.cache_clear()
    limits._hermite_expansion_coeffs.cache_clear()
    events = _record_charges_and_dps(monkeypatch)
    _WORK_CASES[name]()
    work, inside, plans = [], None, []
    for kind, amount in events:
        if kind == "dp":
            work.append(amount)
            inside = []
        elif kind == "done":
            # one charge that touches entries, none for a DP of no passes
            assert len(inside) <= 1 and sum(inside) == work[-1], events
            inside = None
        elif amount and inside is not None:
            inside.append(amount)
        elif amount:
            plans.append((amount, len(work)))
    assert bool(work) == (name != "route-b")  # route B runs no DP
    for amount, n_before in plans:
        assert work[n_before:] == [] or amount >= work[n_before], events
    if name == "duality":  # the dual DP, the second, is charged before the first
        assert any(amount >= work[1] for amount, n_before in plans
                   if n_before == 0), events
