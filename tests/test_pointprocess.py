import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfield import green, krawtchouk, lattice, pointprocess as pp, walks


def test_xi_atom_round_trip_and_bounds():
    atom = pp.XiAtom([0.5, 0.2, 0.3], 1.0)
    assert abs(atom.xi[0] - 1.0) < 1e-14
    assert np.all(np.abs(atom.xi) <= 1.0 + 1e-12)
    assert np.max(np.abs(walks.pmf_from_xi(atom.xi) - atom.pmf)) < 1e-12


def test_y_moment_worked_values():
    # q = 2, p = (3/4, 1/4): xi[1] = 1/2, kappa at l=2 is 1/4
    spec = pp.PointProcessSpec(0.5, [pp.XiAtom([0.75, 0.25], 1.0)], 1.0)
    assert abs(pp.kappa(spec, (2,)) - 0.25) < 1e-14
    assert abs(pp.y_moment(spec, (2,)) - 4.0 / 7.0) < 1e-14
    half = pp.PointProcessSpec(0.5, spec.atoms, 0.5)
    assert abs(pp.y_moment(half, (2,)) - (7.0 / 4.0) ** -0.5) < 1e-12
    assert abs(pp.y_moment(half, (2,)) - 0.755929) < 1e-6


def test_y_moment_trivial_degree():
    spec = pp.lazy_spec(3, 0.7, [0.2, 0.5])
    assert pp.y_moment(spec, (0, 0)) == 1.0


def test_y_moment_is_geometric_series():
    # direct oracle: sum_t (1-a) a^t kappa^t
    spec = pp.PointProcessSpec(0.6, [pp.XiAtom([0.8, 0.2], 0.5),
                                     pp.XiAtom([0.6, 0.4], 0.5)], 1.0)
    l = (3,)
    kap = pp.kappa(spec, l)
    series = sum(0.4 * 0.6**t * kap**t for t in range(200))
    assert abs(pp.y_moment(spec, l) - series) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**31 - 1),
       st.floats(0.05, 0.9), st.integers(1, 3))
def test_half_process_identity_property(q, seed, alpha, n_atoms):
    rng = np.random.default_rng(seed)
    pmfs = rng.dirichlet(np.ones(q), size=n_atoms)
    weights = rng.dirichlet(np.ones(n_atoms))
    atoms = [pp.XiAtom(p, float(w)) for p, w in zip(pmfs, weights)]
    spec = pp.PointProcessSpec(alpha, atoms, 1.0)
    l = tuple(int(v) for v in rng.integers(0, 4, size=q - 1))
    assert pp.half_process_residual(spec, l) < 1e-12


def test_complex_kappa_principal_branch_flagged():
    # asymmetric pmf gives complex xi; the identity still holds
    atom = pp.XiAtom([0.6, 0.3, 0.1], 1.0)
    spec = pp.PointProcessSpec(0.5, [atom], 1.0)
    with pytest.warns(UserWarning):
        value = pp.y_moment(spec, (1, 0))
    assert abs(value.imag) > 0
    assert pp.half_process_residual(spec, (1, 0)) < 1e-12


def test_y_moment_mc_matches_closed_form():
    spec = pp.lazy_spec(3, 0.5, [0.2, 0.5], [0.4, 0.6])
    est, se = pp.y_moment_mc(spec, (1, 2), 150_000, seed=7)
    assert abs(est - pp.y_moment(spec, (1, 2))) <= 4 * se


def test_y_moment_mc_alpha_zero_is_one():
    spec = pp.lazy_spec(2, 0.0, [0.3])
    est, se = pp.y_moment_mc(spec, (2,), 1000, seed=1)
    assert est == 1.0 + 0.0j


def test_half_process_mc_product_matches_full_moment():
    # two independent half-process samples multiply to the full moment
    spec = pp.lazy_spec(2, 0.6, [0.2, 0.4])
    half = pp.PointProcessSpec(spec.alpha, spec.atoms, 0.5)
    l = (2,)
    e1, s1 = pp.y_moment_mc(half, l, 200_000, seed=21)
    e2, s2 = pp.y_moment_mc(half, l, 200_000, seed=22)
    prod = e1 * e2
    se = abs(e1) * s2 + abs(e2) * s1 + s1 * s2
    assert abs(prod - pp.y_moment(spec, l)) <= 4 * se


@pytest.mark.parametrize("scheme", ["blocks", "interleave"])
def test_partition_samplers_match_closed_form(scheme):
    spec = pp.lazy_spec(3, 0.5, [0.2, 0.5], [0.4, 0.6])
    l = (1, 2)
    est, se = pp.y_moment_mc_points(spec, l, 120_000, seed=5, scheme=scheme)
    assert abs(est - pp.y_moment(spec, l)) <= 4 * se


@pytest.mark.parametrize("seed", range(20))
def test_categorical_draws_equal_rng_choice(seed):
    # the sampler every law and the lattice-draw moment estimator use gives
    # the indices rng.choice gives, from the same uniforms, size 0 included
    spec = pp.lazy_spec(3, 0.5, [0.2, 0.5], [0.4, 0.6])
    for p, shape in ((spec.weights(), 0), (spec.weights(), 17),
                     (spec.atoms[1].pmf, (0, 3)), (spec.atoms[1].pmf, (9, 3))):
        rng_a, rng_b = (np.random.default_rng(seed) for _ in range(2))
        got = walks._draw_categorical(rng_a, p, shape)
        want = rng_b.choice(len(p), size=shape, p=p)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng_a.random() == rng_b.random()  # as many uniforms consumed


@pytest.mark.parametrize("scheme", ["blocks", "interleave"])
def test_lattice_draw_moments_equal_their_rng_choice_form(monkeypatch, scheme):
    spec = pp.lazy_spec(3, 0.5, [0.2, 0.5], [0.4, 0.6])
    got = pp.y_moment_mc_points(spec, (1, 2), 3000, seed=7, scheme=scheme)
    monkeypatch.setattr(pp, "_draw_categorical", lambda rng, p, shape:
                        rng.choice(len(p), size=shape, p=p))
    assert pp.y_moment_mc_points(spec, (1, 2), 3000, seed=7,
                                 scheme=scheme) == got


def test_y_moment_single_entry_matches_green_eigenvalue():
    # l = e_k moments are exactly the grouped Green eigenvalues
    law = walks.lazy_walk(3, 4, [0.2, 0.5])
    alpha = 0.65
    spec = pp.spec_from_mixture(law, alpha)
    for k in range(2):
        l = tuple(1 if j == k else 0 for j in range(2))
        kap = krawtchouk.kappa_from_law(law, l)
        lam = green.grouped_green_eigenvalue(kap, alpha)
        assert abs(pp.y_moment(spec, l) - lam) < 1e-12


def test_log_laplace_closed_form_and_edges():
    spec = pp.lazy_spec(3, 0.5, [0.2, 0.5], [0.4, 0.6])
    assert abs(pp.log_laplace(spec, [0.0, 0.0]) - 1.0) < 1e-14
    # q = 2 with positive xi: Laplace transform at varphi=1 equals the moment
    s2 = pp.lazy_spec(2, 0.6, [0.25])
    assert abs(pp.log_laplace(s2, [1.0]) - pp.y_moment(s2, (1,)).real) < 1e-14
    # zero transform entry is a zero factor, not an error
    uni = pp.PointProcessSpec(0.5, [pp.XiAtom([0.5, 0.5], 1.0)], 1.0)
    got = pp.log_laplace(uni, [2.0])
    assert abs(got - 1.0 / (1.0 + 1.0)) < 1e-14


def test_log_laplace_mc_agreement():
    spec = pp.lazy_spec(3, 0.5, [0.2, 0.5], [0.4, 0.6])
    est, se = pp.log_laplace_mc(spec, [1.0, 0.5], 150_000, seed=13)
    assert abs(est - pp.log_laplace(spec, [1.0, 0.5])) <= 4 * se


def test_spec_validation():
    with pytest.raises(Exception):
        pp.PointProcessSpec(1.0, [pp.XiAtom([1.0, 0.0], 1.0)])
    with pytest.raises(Exception):
        pp.PointProcessSpec(0.5, [pp.XiAtom([1.0, 0.0], 0.5)])  # weights != 1


def test_log_laplace_and_mc_share_varphi_checks():
    spec = pp.lazy_spec(3, 0.5, [0.2, 0.5], [0.4, 0.6])
    for varphi in ([0.5], [-1.0, -2.0]):
        with pytest.raises(lattice.RangeError):
            pp.log_laplace(spec, varphi)
        with pytest.raises(lattice.RangeError):
            pp.log_laplace_mc(spec, varphi, 100, seed=1)


def test_spec_from_any_law_with_a_mixing_measure():
    law = walks.ProductIIDLaw(3, 2, p=[0.5, 0.3, 0.2])
    spec = pp.spec_from_mixture(law, 0.5)
    for l in krawtchouk.degree_indices(3, 2):
        assert abs(pp.kappa(spec, l) - krawtchouk.kappa_route_counts(law, l)) < 1e-14
