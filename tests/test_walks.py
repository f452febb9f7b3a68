import json
import math

import numpy as np
import pytest

from qfield import _mc, green, lattice, walks
from qfield import krawtchouk as kw


def brute_force_spectrum(law):
    """Oracle: rho[r] = sum_v P(V=v) theta^(v.r) by full enumeration."""
    q, d = law.q, law.d
    pmf = law.pmf()
    states = lattice.all_states(q, d)
    cross = states @ states.T
    return np.exp(2j * np.pi * cross / q) @ pmf


LAW_CASES = [
    walks.UniformLaw(2, 3),
    walks.UniformLaw(3, 2),
    walks.DeterministicLaw(3, 2, (1, 2)),
    walks.DeterministicLaw(2, 1, (1,)),
    walks.ProductIIDLaw(4, 2, p=[0.4, 0.3, 0.2, 0.1]),
    walks.lazy_walk(2, 3, [0.3, 0.7]),
    walks.lazy_walk(5, 2, [0.2, 0.6], [0.3, 0.7]),
    walks.builtin_law("sparse_exchangeable", 2, 3),
    walks.builtin_law("sparse_exchangeable", 3, 3),
]


@pytest.mark.parametrize("law", LAW_CASES, ids=lambda law: law.to_json()["variant"]
                         + f"_q{law.q}d{law.d}")
def test_spectrum_matches_enumeration_oracle(law):
    spec = law.spectrum()
    oracle = brute_force_spectrum(law)
    assert np.max(np.abs(spec.rho - oracle)) < 1e-12


@pytest.mark.parametrize("law", LAW_CASES, ids=lambda law: law.to_json()["variant"]
                         + f"_q{law.q}d{law.d}")
def test_kernel_is_transition_matrix(law):
    spec = law.spectrum()
    p = walks.transition_matrix(spec)
    n = lattice.size(law.q, law.d)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-10
    assert np.max(np.abs(p.sum(axis=0) - 1.0)) < 1e-10  # doubly stochastic
    assert p.min() >= -1e-12
    # uniform stationary distribution
    pi = np.full(n, 1.0 / n)
    assert np.max(np.abs(pi @ p - pi)) < 1e-10
    # symmetric kernel iff symmetric jumps iff real spectrum
    assert np.allclose(p, p.T, atol=1e-10) == law.is_symmetric()
    assert spec.is_real == law.is_symmetric()


def test_uniform_law_spectrum_is_delta():
    rho = walks.UniformLaw(3, 2).spectrum().rho
    assert abs(rho[0] - 1.0) < 1e-14
    assert np.max(np.abs(rho[1:])) < 1e-14


def test_deterministic_q2_spectrum():
    assert np.allclose(walks.DeterministicLaw(2, 1, (1,)).spectrum().rho, [1, -1])


def test_single_component_mixture_transform():
    law = walks.DeFinettiMixtureLaw(2, 1, weights=[1.0], pmfs=[[0.75, 0.25]])
    assert abs(law.spectrum().rho[1] - 0.5) < 1e-14


def test_swap_walk_transition():
    p = walks.transition_matrix(walks.DeterministicLaw(2, 1, (1,)).spectrum())
    assert np.allclose(p, [[0.0, 1.0], [1.0, 0.0]])


def test_transition_orientation_asymmetric():
    # the walk moves BY +v: row x puts its mass at y = x + v
    p = walks.transition_matrix(walks.DeterministicLaw(3, 1, (1,)).spectrum())
    assert abs(p[0, 1] - 1.0) < 1e-12
    assert abs(p[2, 0] - 1.0) < 1e-12
    law = walks.builtin_law("product_iid", 3, 1)  # p proportional to (1,2,3)
    p = walks.transition_matrix(law.spectrum())
    assert np.max(np.abs(p[0] - law.pmf())) < 1e-12


def test_uniform_transition_is_flat():
    p = walks.transition_matrix(walks.UniformLaw(3, 1).spectrum())
    assert np.allclose(p, 1.0 / 3.0)


def test_sparse_support_count_is_exact():
    law = walks.builtin_law("sparse_exchangeable", 2, 4)
    rho = law.spectrum().rho
    nonzero_entries = (lattice.all_states(2, 4) != 0).sum(axis=1)
    inside = nonzero_entries <= law.c
    assert np.all(np.abs(rho[~inside]) < 1e-15)
    assert np.all(np.abs(rho[inside]) > 1e-12)
    assert np.count_nonzero(np.abs(rho) > 1e-12) == int(inside.sum())


def _sparse_spectrum_oracle(law):
    """rho by a loop over every state: C(d-n, c-n)/C(d, c) phi[u] when the
    n nonzero entries of r, read in order, have rank u and n <= c."""
    q, d, c = law.q, law.d, law.c
    phi = law._char()
    rho = np.zeros(q**d, dtype=complex)
    for i, r in enumerate(lattice.all_states(q, d)):
        vals = r[r != 0]
        if len(vals) <= c:
            u = int(vals @ q ** np.arange(len(vals))) if len(vals) else 0
            rho[i] = math.comb(d - len(vals), c - len(vals)) \
                / math.comb(d, c) * phi[u]
    return rho


@pytest.mark.parametrize("q,d", [(3, 5), (2, 8), (4, 4), (5, 3)])
def test_sparse_spectrum_matches_per_state_loop(q, d):
    rng = np.random.default_rng(q * 10 + d)
    for c in range(1, d + 1):
        # a two-component mixture of i.i.d. slots is exchangeable
        slots = lattice.all_states(q, c)
        pmfs = rng.dirichlet(np.ones(q), size=2)
        joint = 0.3 * np.prod(pmfs[0][slots], axis=1) \
            + 0.7 * np.prod(pmfs[1][slots], axis=1)
        law = walks.SparseExchangeableLaw(q, d, c, joint=joint / joint.sum())
        assert np.array_equal(law.spectrum().rho, _sparse_spectrum_oracle(law))


def test_sparse_needs_exchangeable_joint():
    joint = np.array([0.7, 0.1, 0.1, 0.1])  # p(0,1) != p(1,0)
    joint[1], joint[2] = 0.15, 0.05
    with pytest.raises(walks.ContractError):
        walks.SparseExchangeableLaw(2, 3, 2, joint=joint)


def test_invalid_spectrum_rejected():
    with pytest.raises(lattice.RangeError):
        walks.Spectrum(np.array([1.0, 1.5]), 2, 1)  # exceeds unit disc
    with pytest.raises(lattice.RangeError):
        walks.Spectrum(np.array([0.5, 0.5]), 2, 1)  # rho[0] != 1


def test_non_moment_eigenvalues_rejected():
    # |rho| <= 1 but not of moment form: kernel goes negative
    spec = walks.Spectrum(np.array([1.0, -1.0, -1.0]), 3, 1)
    with pytest.raises(walks.KernelError):
        walks.transition_kernel(spec)


def test_law_json_round_trip():
    for law in LAW_CASES:
        doc = json.loads(json.dumps(law.to_json()))
        rebuilt = walks.law_from_json(doc)
        assert np.max(np.abs(rebuilt.spectrum().rho - law.spectrum().rho)) < 1e-14


def test_law_json_errors():
    with pytest.raises(lattice.RangeError):
        walks.law_from_json({"variant": "nope", "q": 2, "d": 1})
    with pytest.raises(lattice.RangeError):
        walks.law_from_json({"variant": "uniform"})


@pytest.mark.parametrize("doc", [
    {"variant": "uniform", "q": "2", "d": 1},
    {"variant": "uniform", "q": 2.0, "d": 1},
    {"variant": "deterministic", "q": 0, "d": 1, "shift": [0]},
    {"variant": "deterministic", "q": 2, "d": 2, "shift": [1, 1.5]},
    {"variant": "product_iid", "q": 2, "d": 1, "pmf": [math.nan, 1.0]},
    {"variant": "definetti_mixture", "q": 2, "d": 1,
     "components": [{"weight": math.nan, "pmf": [0.5, 0.5]}]},
    {"variant": "sparse_exchangeable", "q": 2, "d": 2, "c": 1,
     "joint_pmf": [math.nan, 1.0]},
], ids=["q-string", "q-float", "q-zero", "shift-float", "pmf-nan",
        "weight-nan", "joint-nan"])
def test_law_json_rejects_malformed_fields(doc):
    with pytest.raises(lattice.RangeError):
        walks.law_from_json(doc)


def test_deterministic_full_cycle_returns():
    law = walks.DeterministicLaw(3, 2, (1, 1))
    path = walks.simulate_walk(law, (0, 2), 3, seed=0)
    assert tuple(path[-1]) == (0, 2)
    assert tuple(path[1]) == (1, 0)


def test_killed_walk_alpha_zero_stays_put():
    law = walks.lazy_walk(2, 2, [0.5])
    ends = walks.simulate_killed(law, (1, 0), walks.KillingLaw(0.0), seed=1,
                                 n_walks=16)
    assert np.all(ends == np.array([1, 0]))


def test_one_step_empirical_matches_transition_row():
    # asymmetric jumps, so the check is sensitive to row orientation
    law = walks.builtin_law("product_iid", 3, 2)
    n = 10**5
    path = walks.simulate_walk(law, (0, 0), n, seed=7)
    steps = (path[1:] - path[:-1]) % 3
    ranks = steps @ (3 ** np.arange(2))
    emp = np.bincount(ranks, minlength=9) / n
    row = walks.transition_matrix(law.spectrum())[0]
    se = np.sqrt(row * (1 - row) / n)
    assert np.all(np.abs(emp - row) <= 4 * se + 1e-12)


def test_killed_walk_workers_deterministic():
    kill = walks.KillingLaw(0.5)
    # a two-point lazy step and a 64-entry pmf
    for law in (walks.lazy_walk(2, 2, [0.3]),
                walks.ProductIIDLaw(64, 1, p=np.arange(1.0, 65.0) / 2080.0)):
        x0 = (0,) * law.d
        # three blocks, the last one short, so workers 2 and 3 run the pool
        a, b, c = (walks.simulate_killed(law, x0, kill, seed=9,
                                         n_walks=2 * _mc.BLOCK + 1, workers=w)
                   for w in (1, 2, 3))
        assert np.array_equal(a, b) and np.array_equal(a, c), law.q


def test_walk_start_and_steps_are_checked():
    law = walks.lazy_walk(3, 2, [0.5])
    with pytest.raises(lattice.RangeError):
        walks.simulate_walk(law, (5, -1), 3, seed=0)
    with pytest.raises(lattice.RangeError):
        walks.simulate_walk(law, (0, 0), -1, seed=0)
    assert walks.simulate_walk(law, (2, 1), 0, seed=0).tolist() == [[2, 1]]


def _choice_sample(law, rng, n):
    """The increments each law drew through ``rng.choice``."""
    if isinstance(law, walks.ProductIIDLaw):
        return rng.choice(law.q, size=(n, law.d), p=law.p)
    if isinstance(law, walks.DeFinettiMixtureLaw):
        comp = rng.choice(len(law.weights), size=n, p=law.weights)
        out = np.empty((n, law.d), dtype=np.int64)
        for i, p in enumerate(law.pmfs):
            idx = np.nonzero(comp == i)[0]
            if idx.size:
                out[idx] = rng.choice(law.q, size=(idx.size, law.d), p=p)
        return out
    out = rng.integers(0, law.q, size=(n, law.d))
    positions = np.argsort(rng.random((n, law.d)), axis=1)[:, : law.c]
    flat = rng.choice(len(law.joint), size=n, p=law.joint)
    vals = (flat[:, None] // law.q ** np.arange(law.c)[None, :]) % law.q
    np.put_along_axis(out, positions, vals, axis=1)
    return out


def _killed_reference(law, x0, killing, seed, n_walks, workers):
    """Killed endpoints by the step loop that reduces mod q every step."""
    x0 = np.asarray(x0, dtype=np.int64)

    def draw(rng, m):
        horizon = killing.sample(rng, m)
        pos = np.tile(x0, (m, 1))
        alive = horizon.copy()
        while True:
            active = np.nonzero(alive > 0)[0]
            if active.size == 0:
                break
            step = _choice_sample(law, rng, active.size)
            pos[active] = (pos[active] + step) % law.q
            alive[active] -= 1
        return pos

    return _mc.run_chunked(n_walks, seed, workers, draw, law.d)


SAMPLED_LAWS = {
    "lazy_walk": walks.lazy_walk(2, 6, [0.3, 0.7], [0.4, 0.6]),
    "product_iid": walks.builtin_law("product_iid", 5, 3),
    "definetti_mixture": walks.builtin_law("definetti_mixture", 3, 3),
    "sparse_exchangeable": walks.builtin_law("sparse_exchangeable", 3, 4),
    "zero_mass_at_ends": walks.ProductIIDLaw(4, 3, [0.0, 0.5, 0.5, 0.0]),
}


@pytest.mark.parametrize("name", list(SAMPLED_LAWS))
def test_law_sample_equals_choice_draws(name):
    law = SAMPLED_LAWS[name]
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for n in (0, 1, 777):
        got = law.sample(rng, n)
        want = _choice_sample(law, ref_rng, n)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the same uniforms were consumed
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("name", ["lazy_walk", "product_iid"])
@pytest.mark.parametrize("workers", [1, 2])
def test_killed_endpoints_equal_stepwise_reference(name, workers):
    law = SAMPLED_LAWS[name]
    x0 = (1,) * law.d
    kill = walks.KillingLaw(0.8)
    got = walks.simulate_killed(law, x0, kill, seed=21, n_walks=3001,
                                workers=workers)
    want = _killed_reference(law, x0, kill, 21, 3001, workers)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_killed_walk_start_must_lie_on_the_lattice():
    law = walks.lazy_walk(3, 2, [0.5])
    with pytest.raises(lattice.RangeError):
        walks.simulate_killed(law, (3, 0), walks.KillingLaw(0.5), seed=1)


def test_killing_law_pmf_mass_and_horizon():
    kill = walks.KillingLaw(0.6, phi=0.5)
    horizon = kill.truncation_horizon(1e-12)
    t = np.arange(horizon + 1)
    assert abs(kill.pmf(t).sum() - 1.0) < 1e-11
    geo = walks.KillingLaw(0.3, phi=1.0)
    assert np.allclose(geo.pmf(np.arange(10)), 0.7 * 0.3 ** np.arange(10))


def test_killing_law_validation():
    with pytest.raises(lattice.RangeError):
        walks.KillingLaw(1.0)
    with pytest.raises(lattice.RangeError):
        walks.KillingLaw(0.5, phi=0.0)
    for phi in (math.nan, math.inf):
        with pytest.raises(lattice.RangeError):
            walks.KillingLaw(0.5, phi=phi)


def test_ct_eigenvalues_semigroup_and_limits():
    atoms = np.array([[0.2], [0.8], [0.5]])
    weights = np.array([0.024, 0.096, 0.1])
    beta = walks.AtomicMeasure(atoms, weights)
    s1 = walks.ct_eigenvalues(beta, 0.7, 2, 1).rho
    s2 = walks.ct_eigenvalues(beta, 1.1, 2, 1).rho
    s3 = walks.ct_eigenvalues(beta, 1.8, 2, 1).rho
    assert np.max(np.abs(s1 * s2 - s3)) < 1e-12
    assert np.allclose(walks.ct_eigenvalues(beta, 0.0, 2, 1).rho, 1.0)
    # single atom, tau large: nontrivial frequency decays to 0
    single = walks.AtomicMeasure(np.array([[0.5]]), np.array([0.5]))
    big = walks.ct_eigenvalues(single, 200.0, 2, 1).rho
    assert abs(big[1]) < 1e-12
    assert abs(big[0] - 1.0) < 1e-14


def test_ct_eigenvalues_rejects_zero_atom():
    with pytest.raises(lattice.RangeError):
        walks.ct_eigenvalues(
            walks.AtomicMeasure(np.array([[0.0]]), np.array([1.0])), 1.0, 2, 1)


def test_unit_rate_embedding_reproduces_discrete_spectrum():
    law = walks.lazy_walk(3, 2, [0.4])
    emb = walks.unit_rate_embedding(law)
    tau = 0.9
    got = walks.ct_eigenvalues(emb, tau, 3, 2).rho
    expected = np.exp(-tau * (1.0 - law.spectrum().rho))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_ct_grouped_eigenvalues():
    zeta = np.array([[3, 0, 0], [1, 2, 0], [2, 0, 1]], dtype=float)
    gamma = walks.AtomicMeasure(zeta, [0.5, 0.3, 0.2])
    vals = kw.ct_grouped_eigenvalues(gamma, 1.0, 3, 3)
    assert abs(vals[(0, 0)] - 1.0) < 1e-14  # l = 0 stays 1
    assert all(abs(v) <= 1 + 1e-12 for v in vals.values())
    # tau = 0: identity semigroup
    assert all(abs(v - 1.0) < 1e-14
               for v in kw.ct_grouped_eigenvalues(gamma, 0.0, 3, 3).values())
    # an atom at zeta[0] = d is inert: h_l Q_l((d,0,..)) = 1 for every l
    pure = walks.AtomicMeasure(np.array([[3.0, 0.0, 0.0]]), [2.5])
    assert all(abs(v - 1.0) < 1e-14
               for v in kw.ct_grouped_eigenvalues(pure, 1.0, 3, 3).values())


def test_ct_grouped_eigenvalues_match_per_degree_sum():
    q, d, tau = 3, 4, 0.7
    zeta = np.array([[4, 0, 0], [1, 2, 1], [2, 0, 2], [0, 3, 1]])
    weights = [0.5, 0.3, 0.2, 0.4]
    degrees = kw.degree_indices(q, d)
    got = kw.ct_grouped_eigenvalues(walks.AtomicMeasure(zeta, weights),
                                    tau, q, d)
    assert list(got) == degrees
    for l in degrees:
        acc = 0.0 + 0.0j
        for z, w in zip(zeta, weights):
            if z[0] != d:
                acc += w * (kw.krawtchouk(z, l, q) / kw.scale_constant_inv(l, d)
                            - 1.0) / (d - z[0])
        assert abs(got[l] - np.exp(tau * acc)) < 1e-13


def test_xi_transform_round_trip():
    for p in ([0.75, 0.25], [0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]):
        xi = walks.xi_transform(np.array(p))
        assert abs(xi[0] - 1.0) < 1e-14
        assert np.max(np.abs(walks.pmf_from_xi(xi) - p)) < 1e-12


MIXED_LAWS = [walks.builtin_law(f, 3, 3) for f in walks.BUILTIN_FAMILIES
              if f != "sparse_exchangeable"]


@pytest.mark.parametrize("law", MIXED_LAWS, ids=lambda law: type(law).__name__)
def test_mixing_measure_reproduces_spectrum(law):
    weights, pmfs = law.mixing_measure()
    rho = sum(w * lattice.axis_tensor([walks.xi_transform(p)] * law.d)
              for w, p in zip(weights, pmfs))
    assert np.max(np.abs(rho - law.spectrum().rho)) < 1e-14


@pytest.mark.parametrize("law", [
    walks.builtin_law("sparse_exchangeable", 3, 3),
    walks.DeterministicLaw(3, 2, (1, 2)),
], ids=["sparse", "deterministic-non-exchangeable"])
def test_mixing_measure_refused_without_de_finetti_form(law):
    with pytest.raises(walks.ContractError):
        law.mixing_measure()


def test_killed_walks_refuse_their_steps_before_the_first_draw(monkeypatch):
    law = walks.lazy_walk(2, 3, [0.5])

    def refuse(*args):
        raise AssertionError("a walk was drawn before the step count")

    monkeypatch.setattr(law, "sample", refuse)
    # 10 walks of mean horizon 1e9 steps each
    with pytest.raises(lattice.RangeError, match="10 killed walks at "
                       "alpha=0.999999999: needs 1029296904 steps"):
        walks.simulate_killed(law, (0, 0, 0), walks.KillingLaw(0.999999999),
                              seed=1, n_walks=10)


def test_killing_horizon_is_budgeted_up_front(monkeypatch):
    kill = walks.KillingLaw(1.0 - 1e-9)
    monkeypatch.setattr(walks.KillingLaw, "pmf", lambda self, t: 1 / 0)
    with pytest.raises(lattice.RangeError, match="killing horizon"):
        kill.truncation_horizon()
