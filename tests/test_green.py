import math

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss

from qfield import green, krawtchouk, lattice, walks


def brute_force_green(spec, alpha, tol=1e-12):
    """Oracle: (1-alpha) sum_{t<=T} alpha^t P^t with tail bound alpha^(T+1)."""
    p = walks.transition_matrix(spec)
    n = p.shape[0]
    acc = np.zeros((n, n))
    power = np.eye(n)
    weight = 1.0 - alpha
    t = 0
    while weight > tol * (1.0 - alpha):
        acc += weight * power
        power = power @ p
        weight *= alpha
        t += 1
        if t > 100_000:
            raise RuntimeError("series too slow")
    return acc


def test_alpha_zero_is_identity():
    spec = walks.lazy_walk(3, 2, [0.3, 0.6]).spectrum()
    g = green.green_exact(spec, 0.0)
    assert np.allclose(g.matrix, np.eye(9), atol=1e-14)


def test_uniform_law_closed_form():
    spec = walks.UniformLaw(2, 2).spectrum()
    g = green.green_exact(spec, 0.7)
    assert np.allclose(g.matrix, 0.3 * np.eye(4) + 0.7 / 4, atol=1e-13)


def test_swap_walk_half_killing():
    spec = walks.DeterministicLaw(2, 1, (1,)).spectrum()
    g = green.green_exact(spec, 0.5)
    assert np.allclose(g.matrix, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-13)


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("builder", [
    lambda: walks.lazy_walk(2, 3, [0.3, 0.7]),
    lambda: walks.lazy_walk(3, 3, [0.2, 0.5]),
    lambda: walks.ProductIIDLaw(3, 2, p=[0.5, 0.3, 0.2]),
    lambda: walks.builtin_law("sparse_exchangeable", 3, 2),
])
def test_green_matches_series_oracle(alpha, builder):
    spec = builder().spectrum()
    g = green.green_exact(spec, alpha)
    oracle = brute_force_green(spec, alpha)
    assert np.max(np.abs(g.matrix - oracle)) < 1e-9


def test_green_structure_invariants():
    # the kernel is always real with unit row sums; it is symmetric
    # (equivalently Hermitian) exactly when the spectrum is real, and
    # positive semidefinite in that case
    for alpha in (0.2, 0.5, 0.8):
        for law in (walks.lazy_walk(2, 3, [0.3, 0.7]),
                    walks.DeterministicLaw(3, 2, (1, 2)),
                    walks.builtin_law("product_iid", 4, 2)):
            spec = law.spectrum()
            g = green.green_exact(spec, alpha)
            assert abs(g.kernel.sum() - 1.0) < 1e-10  # row sums
            assert np.isrealobj(g.matrix)
            symmetric = np.max(np.abs(g.matrix - g.matrix.T)) < 1e-11
            assert symmetric == spec.is_real
            assert abs(g.lam[0] - 1.0) < 1e-14
            # the diagonal is the mean eigenvalue
            assert abs(g.kernel[0] - g.lam.real.mean()) < 1e-12
            if spec.is_real:
                # eigenvalue window ((1-alpha)/(1+alpha), 1] for rho real
                assert np.max(np.abs(g.lam.imag)) < 1e-12
                assert g.lam.real.min() > (1 - alpha) / (1 + alpha) - 1e-12
                assert g.lam.real.max() <= 1.0 + 1e-12
                eigmin = np.linalg.eigvalsh((g.matrix + g.matrix.T) / 2).min()
                assert eigmin >= -1e-10


def test_lazy_offdiagonal_increases_with_alpha():
    spec = walks.lazy_walk(2, 3, [0.3, 0.7]).spectrum()
    x, y = (0, 0, 0), (1, 0, 0)
    values = [green.green_exact(spec, a).entry(x, y)
              for a in np.linspace(0.05, 0.95, 10)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_grouped_green_is_class_average():
    law = walks.lazy_walk(2, 4, [0.3, 0.7])
    alpha = 0.6
    g = green.green_exact(law.spectrum(), alpha)
    kap = {l: krawtchouk.kappa_from_law(law, l)
           for l in krawtchouk.degree_indices(2, 4)}
    counts, classes = krawtchouk.state_type_counts(2, 4)
    states = lattice.all_states(2, 4)
    for mi, m in enumerate(counts):
        x = states[np.nonzero(classes == mi)[0][0]]
        for ni, n in enumerate(counts):
            members = np.nonzero(classes == ni)[0]
            avg = np.mean([g.entry(x, states[j]) for j in members])
            assert abs(green.green_grouped(kap, 2, 4, alpha, m, n) - avg) < 1e-9


@pytest.mark.parametrize("q,d", [(2, 7), (3, 4), (4, 3)])
def test_grouped_green_matches_per_degree_sum(q, d):
    alpha = 0.45
    law = walks.lazy_walk(q, d, [0.25, 0.7])
    kap = {l: krawtchouk.kappa_from_law(law, l)
           for l in krawtchouk.degree_indices(q, d)}
    counts = krawtchouk.count_vectors(q, d)
    for m in counts[::3]:
        for n in counts[::4]:
            acc = 0.0 + 0.0j
            for l in krawtchouk.degree_indices(q, d):
                lam = 1.0 / (1.0 + alpha / (1.0 - alpha) * (1.0 - kap[l]))
                acc += (lam / krawtchouk.scale_constant_inv(l, d)
                        * krawtchouk.krawtchouk(m, l, q)
                        * np.conj(krawtchouk.krawtchouk(n, l, q)))
            got = green.green_grouped(kap, q, d, alpha, m, n)
            assert abs(got - acc.real / q**d) < 1e-13


def test_grouped_green_singleton_class_is_pointwise():
    law = walks.lazy_walk(3, 3, [0.2, 0.5])
    kap = {l: krawtchouk.kappa_from_law(law, l)
           for l in krawtchouk.degree_indices(3, 3)}
    g = green.green_exact(law.spectrum(), 0.4)
    got = green.green_grouped(kap, 3, 3, 0.4, (3, 0, 0), (3, 0, 0))
    assert abs(got - g.entry((0, 0, 0), (0, 0, 0))) < 1e-11


def test_grouped_green_alpha_zero_reproducing_identity():
    law = walks.lazy_walk(2, 3, [0.5])
    kap = {l: krawtchouk.kappa_from_law(law, l)
           for l in krawtchouk.degree_indices(2, 3)}
    for m in krawtchouk.count_vectors(2, 3):
        for n in krawtchouk.count_vectors(2, 3):
            got = green.green_grouped(kap, 2, 3, 0.0, m, n)
            expected = (1.0 / math.comb(3, m[1]) if m == n else 0.0)
            assert abs(got - expected) < 1e-12


def test_green_matrix_free_above_threshold():
    # q^d = 8192 > 4096: no materialized matrix, rows still evaluate
    spec = walks.lazy_walk(2, 13, [0.3]).spectrum()
    g = green.green_exact(spec, 0.5)
    assert g.matrix is None
    row = g.row((0,) * 13)
    assert abs(row.sum() - 1.0) < 1e-10
    assert row.shape == (8192,)


def test_green_operator_rejects_points_off_the_lattice():
    op = green.green_exact(walks.UniformLaw(3, 2).spectrum(), 0.5,
                           materialize=False)
    for bad in [(5, -1), (3, 0), (0, -1)]:
        with pytest.raises(lattice.RangeError):
            op.row(bad)
        with pytest.raises(lattice.RangeError):
            op.entry(bad, (0, 0))
        with pytest.raises(lattice.RangeError):
            op.entry((0, 0), bad)
    with pytest.raises(lattice.ShapeError):
        op.entry((0,), (0, 0))
    assert op.entry((2, 1), (0, 0)) == op.row((2, 1))[0]


def test_green_mc_point_mass_at_alpha_zero():
    law = walks.lazy_walk(2, 2, [0.5])
    emp = green.green_mc(law, 0.0, (1, 1), 100, seed=3)
    assert emp[lattice.rank((1, 1), 2)] == 1.0
    assert abs(emp.sum() - 1.0) < 1e-15


def test_green_mc_total_variation():
    law = walks.lazy_walk(2, 2, [0.3, 0.7])
    emp = green.green_mc(law, 0.6, (0, 0), 200_000, seed=11, workers=2)
    exact = green.green_exact(law.spectrum(), 0.6).row((0, 0))
    assert green.tv_distance(emp, exact) <= 0.01
    assert abs(emp.sum() - 1.0) < 1e-12


def test_resolvent_alpha_correspondence():
    spec = walks.lazy_walk(2, 2, [0.4]).spectrum()
    res = green.resolvent(spec, 1.0)
    assert abs(res.alpha - 0.5) < 1e-15
    g = green.green_exact(spec, 0.5)
    assert np.max(np.abs(res.varkappa * res.kernel - g.kernel)) < 1e-12
    # large varkappa: varkappa * u -> identity kernel
    big = green.resolvent(spec, 1e6)
    ident = np.zeros(4)
    ident[0] = 1.0
    assert np.max(np.abs(1e6 * big.kernel - ident)) < 1e-5


def test_resolvent_rejects_nonpositive_rate():
    spec = walks.UniformLaw(2, 1).spectrum()
    with pytest.raises(lattice.RangeError):
        green.resolvent(spec, 0.0)


def test_resolvent_matches_laplace_quadrature():
    # three-atom torus measure with generator weights symmetric under
    # xi -> 1 - xi, so the effective spectrum is real
    atoms = np.array([[0.2], [0.8], [0.5]])
    weights = np.array([0.2 * 0.12, 0.8 * 0.12, 0.5 * 0.2])
    beta = walks.AtomicMeasure(atoms, weights)
    psi = np.zeros(2, dtype=complex)
    for xi, w in zip(atoms, weights):
        vec = np.exp(2j * np.pi * xi[0] * np.arange(2))
        psi += (w / abs(xi[0])) * (1.0 - vec)
    spec = walks.Spectrum(1.0 - psi, 2, 1)
    varkappa = 1.3
    res = green.resolvent(spec, varkappa)
    target = varkappa * res.kernel
    nodes, wts = laggauss(80)
    quad = np.zeros(2)
    for z, w in zip(nodes, wts):
        tau = z / varkappa
        rho_tau = walks.ct_eigenvalues(beta, tau, 2, 1).rho
        quad += w * (lattice.dft(rho_tau, 2, 1, inverse=True).real
                     / math.sqrt(2))
    assert np.max(np.abs(quad - target)) < 1e-6


def test_torus_uniform_law_truncation():
    law = green.WrappedLaw(1, uniform_weight=1.0)
    r = green.torus_green_truncated(law, 0.4, [0.3], [0.7], 5)
    assert abs(r.smooth_value - 0.4) < 1e-12
    assert abs(r.delta_coefficient - 0.6) < 1e-12
    assert r.tail_bound == 0.0
    assert not r.delta_singularity


def test_torus_truncation_tail_inequality():
    law = green.WrappedLaw(1, uniform_weight=1.0)
    r1 = green.torus_green_truncated(law, 0.5, [0.1], [0.6], 2)
    r2 = green.torus_green_truncated(law, 0.5, [0.1], [0.6], 7)
    assert abs(r2.smooth_value - r1.smooth_value) <= r1.tail_bound + 1e-15
    atomic = green.WrappedLaw(1, atoms=[[0.25], [0.75]],
                              weights=[0.5, 0.5])
    assert green.torus_green_truncated(atomic, 0.5, [0.1], [0.6], 3).tail_bound \
        is None


def test_torus_delta_singularity_flagged():
    law = green.WrappedLaw(1, uniform_weight=1.0)
    r = green.torus_green_truncated(law, 0.0, [0.3], [0.3], 5)
    assert r.delta_singularity
    assert abs(r.raw_partial_sum - 11.0) < 1e-9  # box size at R = 5


def test_torus_natural_mode_box():
    box = green.frequency_box(2, 2, mode="N")
    assert box.shape == (9, 2)
    assert box.min() == 0
    box_z = green.frequency_box(2, 2, mode="Z")
    assert box_z.shape == (25, 2)
