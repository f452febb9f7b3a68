import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from qfield import fields, green, hamiltonian as ham, krawtchouk, lattice, walks


def test_identity_worked_example():
    # q=2, d=1, swap walk, alpha=1/2, g=(1,0): both quadratic forms are 1
    spec = walks.DeterministicLaw(2, 1, (1,)).spectrum()
    lhs, rhs, res = ham.hamiltonian_identity_check(spec, 0.5, [1.0, 0.0])
    assert abs(lhs - 1.0) < 1e-14
    assert abs(rhs - 1.0) < 1e-14
    assert res < 1e-14


def test_identity_constant_vector():
    spec = walks.lazy_walk(2, 3, [0.4]).spectrum()
    alpha, c = 0.3, 1.7
    g = np.full(8, c)
    lhs, rhs, res = ham.hamiltonian_identity_check(spec, alpha, g)
    assert res < 1e-12
    assert abs(lhs - (1 - alpha) / (2 * alpha) * 8 * c**2) < 1e-12


def test_identity_random_vectors_and_scale_invariance():
    spec = walks.lazy_walk(3, 2, [0.3, 0.8]).spectrum()
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = rng.standard_normal(9)
        lhs, rhs, res = ham.hamiltonian_identity_check(spec, 0.45, g)
        assert res <= 1e-10 * (1.0 + abs(lhs))
    g = rng.standard_normal(9)
    l1, r1, _ = ham.hamiltonian_identity_check(spec, 0.45, g)
    l2, r2, _ = ham.hamiltonian_identity_check(spec, 0.45, 2.0 * g)
    assert abs(l2 - 4.0 * l1) < 1e-10
    assert abs(r2 - 4.0 * r1) < 1e-10


def test_identity_alpha_zero_errors():
    spec = walks.UniformLaw(2, 1).spectrum()
    with pytest.raises(lattice.RangeError):
        ham.hamiltonian_identity_check(spec, 0.0, [1.0, 0.0])
    with pytest.raises(lattice.RangeError):
        ham.identity_residuals(spec, 0.0, np.random.default_rng(0), 1)


def test_identity_residuals_equal_the_public_checks_bit_for_bit():
    spec = walks.lazy_walk(3, 3, [0.2, 0.5, 0.9]).spectrum()
    alpha, k = 0.55, 4
    got = ham.identity_residuals(spec, alpha, np.random.default_rng(11), k)
    rng = np.random.default_rng(11)
    res_max = rel_max = diag_gap = 0.0
    for _ in range(k):
        lhs, _, res = ham.hamiltonian_identity_check(
            spec, alpha, rng.standard_normal(27))
        res_max = max(res_max, res)
        rel_max = max(rel_max, res / (1.0 + abs(lhs)))
        drv = rng.standard_normal(27)
        diag_gap = max(diag_gap, abs(ham.hamiltonian_value(drv, spec, alpha)
                                     - 0.5 * float(drv @ drv)))
    assert got == (res_max, rel_max, diag_gap)


def test_hamiltonian_value_diagonalizes():
    spec = walks.lazy_walk(2, 3, [0.3, 0.7]).spectrum()
    rng = np.random.default_rng(1)
    for _ in range(10):
        driver = rng.standard_normal(8)
        got = ham.hamiltonian_value(driver, spec, 0.6)
        assert abs(got - 0.5 * float(driver @ driver)) < 1e-10
    one_hot = np.zeros(8)
    one_hot[3] = 1.0
    assert abs(ham.hamiltonian_value(one_hot, spec, 0.6) - 0.5) < 1e-12
    assert ham.hamiltonian_value(np.zeros(8), spec, 0.6) == 0.0


def precision_matrix(spec, alpha):
    """Dense precision form K = I - alpha P."""
    n = lattice.size(spec.q, spec.d)
    return np.eye(n) - alpha * walks.transition_matrix(spec)


def test_quadratic_form_eigenvalue_range():
    spec = walks.lazy_walk(3, 2, [0.2, 0.9]).spectrum()
    k = precision_matrix(spec, 0.7)
    eig = np.linalg.eigvalsh((k + k.T) / 2)
    assert eig.min() >= 1 - 0.7 - 1e-12
    assert eig.max() <= 1 + 0.7 + 1e-12
    assert np.max(np.abs(np.sort(eig)
                         - np.sort(1 - 0.7 * spec.rho.real))) < 1e-10


DENSE_SHAPES = [(2, 1), (2, 4), (2, 10), (3, 1), (3, 3), (3, 6), (4, 2),
                (4, 5), (5, 2), (5, 4), (6, 1), (6, 3)]
DENSE_FAMILIES = ["uniform", "deterministic", "definetti_mixture",
                  "sparse_exchangeable"]


def shape_id(qd):
    return f"q{qd[0]}d{qd[1]}"


@pytest.mark.parametrize("qd", DENSE_SHAPES, ids=shape_id)
def test_expected_partition_matches_dense_bond_formula(qd):
    # sum_y exp{beta^2/(2N) sum_r B_r(y)^2 lambda_r} with B_r(y) the inverse
    # transform of the identity bonds, times sqrt(N)
    q, d = qd
    n = lattice.size(q, d)
    bigb = lattice.dft(np.eye(n), q, d, inverse=True) * math.sqrt(n)
    for family in DENSE_FAMILIES:
        spec = walks.builtin_law(family, q, d).spectrum()
        for alpha, beta in ((0.5, 0.3), (0.9, 1.2)):
            lam = green.green_eigenvalues(spec.rho.real, alpha)
            exponents = (beta**2 / (2.0 * n)) * (bigb**2) @ lam
            dense = float(np.sum(np.exp(exponents.real)))
            got = ham.expected_partition(ham.PottsSpec(spec, alpha, beta))
            assert abs(got - dense) <= 1e-13 * dense, (family, alpha)


@pytest.mark.parametrize("qd", [(2, 5), (3, 3), (4, 3), (5, 2)], ids=shape_id)
def test_free_energy_and_hamiltonian_value_match_dense_forms(qd):
    q, d = qd
    n = lattice.size(q, d)
    rng = np.random.default_rng(8)
    for family in DENSE_FAMILIES:
        spec = walks.builtin_law(family, q, d).spectrum()
        alpha, beta = 0.6, 0.4
        g = green.green_exact(spec, alpha, materialize=True).matrix
        dense = d / beta * math.log(q) \
            + beta / 2 * (np.trace(g) / n - g.sum() / n**2)
        got = ham.free_energy_expansion(ham.PottsSpec(spec, alpha, beta))
        assert abs(got - dense) <= 1e-13 * abs(dense), family
        if not spec.is_real:
            continue
        driver = rng.standard_normal(n)
        field = ham.scaled_field_from_driver(driver, spec, alpha)
        k = precision_matrix(spec, alpha)
        dense = np.real(np.conj(field) @ (k @ field)) / (2 * alpha)
        got = ham.hamiltonian_value(driver, spec, alpha)
        assert abs(got - dense) <= 1e-13 * abs(dense), family


def test_hamiltonian_value_rejects_invalid_spectrum():
    rho = np.array([1.0, -1.0, -1.0, -1.0], dtype=complex)
    spec = walks.Spectrum(rho, 2, 2)
    with pytest.raises(walks.KernelError):
        ham.hamiltonian_value(np.ones(4), spec, 0.5)


def test_partition_function_worked_value():
    spec = walks.DeterministicLaw(2, 1, (1,)).spectrum()
    pr = ham.partition_function(spec, 0.5, 2 * math.pi)
    assert abs(pr.jacobian - 0.5 / math.sqrt(0.75)) < 1e-12
    assert abs(pr.jacobian - 0.5773503) < 1e-6
    assert abs(pr.z - pr.jacobian) < 1e-12  # beta = 2 pi cancels the prefactor


def test_partition_function_log_space_survives_growth():
    spec = walks.lazy_walk(2, 10, [0.3]).spectrum()
    pr = ham.partition_function(spec, 0.5, 1e-4)
    assert pr.z is None and not pr.representable
    assert np.isfinite(pr.log_z)


def brute_partition_quadrature(spec, alpha, beta, nodes=40):
    """Oracle: tensor Gauss-Hermite integral of e^(-beta H(g)) over the
    field plane, with H the precision quadratic form."""
    n = lattice.size(spec.q, spec.d)
    k = precision_matrix(spec, alpha)
    z, w = hermgauss(nodes)
    # substitution g = z * s against weight e^{-z^2}
    s = math.sqrt(2.0 * alpha / beta)
    grids = np.meshgrid(*([z] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1) * s
    wgrids = np.meshgrid(*([w] * n), indexing="ij")
    weights = np.ones(pts.shape[0])
    for g in wgrids:
        weights = weights * g.ravel()
    energy = 0.5 / alpha * np.einsum("ni,ij,nj->n", pts, k, pts)
    integrand = np.exp(-beta * energy + np.sum((pts / s) ** 2, axis=1))
    return float(np.sum(weights * integrand) * s**n)


@pytest.mark.parametrize("qd", [(2, 1), (2, 2), (4, 1)])
def test_partition_matches_quadrature(qd):
    q, d = qd
    law = walks.lazy_walk(q, d, [0.35, 0.8])
    spec = law.spectrum()
    pr = ham.partition_function(spec, 0.6, 1.3)
    quad = brute_partition_quadrature(spec, 0.6, 1.3)
    assert abs(pr.z - quad) <= 1e-6 * quad


def test_partition_matches_importance_sampling():
    law = walks.lazy_walk(2, 4, [0.3, 0.7])
    spec = law.spectrum()
    alpha, beta = 0.5, 0.9
    pr = ham.partition_function(spec, alpha, beta)
    rng = np.random.default_rng(2)
    n = 16
    sigma2 = alpha / (beta * (1 - alpha))  # dominates every target variance
    draws = rng.standard_normal((200_000, n)) * math.sqrt(sigma2)
    k = precision_matrix(spec, alpha)
    energy = 0.5 / alpha * np.einsum("ni,ij,nj->n", draws, k, draws)
    log_proposal = (-0.5 * np.sum(draws**2, axis=1) / sigma2
                    - 0.5 * n * math.log(2 * math.pi * sigma2))
    weights = np.exp(-beta * energy - log_proposal)
    est, se = weights.mean(), weights.std(ddof=1) / math.sqrt(len(weights))
    assert abs(est - pr.z) <= 4 * se


def test_grouping_identity_exact():
    for q, d in ((2, 3), (2, 4), (3, 3), (3, 4)):
        law = walks.lazy_walk(q, d, [0.3, 0.7])
        assert ham.grouping_identity_residual(law, 0.6) < 1e-10


def test_log_z_limit_closed_form():
    out = ham.log_z_limit([0.8], [1.0], 0.6, 1.1, 2, c=1.0)
    expected = math.log(2 * math.pi * 0.6 / 1.1) \
        - math.log(1 - 0.6 * math.exp(-0.8))
    assert abs(out.value - expected) < 1e-14
    assert out.finite_at_alpha_one
    zero_atom = ham.log_z_limit([0.0, 1.0], [0.5, 0.5], 0.5, 1.0, 2)
    assert not zero_atom.finite_at_alpha_one
    assert ham.log_z_limit([1.0], [1.0], 0.5, 1.0, 3).c_constant == 5.0 / 3.0


def test_log_z_gap_approaches_limit_with_unit_constant():
    # per-entry jump mass s/d concentrates the grouped eigenvalues at
    # e^{-s}; the gap tends to -log(1 - alpha e^{-c s}) with c = 1
    alpha, s = 0.6, 1.0
    gaps = []
    for d in (4, 6, 8, 10, 12):
        spec = walks.lazy_walk(2, d, [s / d]).spectrum()
        gaps.append(ham.log_z_density_gap(spec, alpha))
    target_c1 = -math.log1p(-alpha * math.exp(-s))
    errs = [abs(g - target_c1) for g in gaps]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.01


def test_potts_delta_hamiltonian_and_gibbs():
    spec = walks.UniformLaw(2, 2).spectrum()
    sample = fields.sample_field(spec, 0.5, seed=3, n_samples=200)
    pspec = ham.PottsSpec(spec, 0.5, 0.3)
    h = ham.potts_hamiltonian(pspec, sample)
    assert np.allclose(h, -sample.values)
    weights = ham.gibbs(pspec, sample)
    assert np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-12
    # reduced in place, the weights keep the bits of e^(beta H) / Z from H
    logits = pspec.beta * h.real
    logits -= logits.max(axis=-1, keepdims=True)
    want = np.exp(logits)
    assert np.array_equal(weights, want / want.sum(axis=-1, keepdims=True))
    # beta -> 0 flattens the Gibbs measure
    flat = ham.gibbs(ham.PottsSpec(spec, 0.5, 1e-12), sample)
    assert np.max(np.abs(flat - 0.25)) < 1e-9


def test_gibbs_rejects_complex_hamiltonians():
    spec = walks.lazy_walk(3, 1, [0.4]).spectrum()
    sample = fields.sample_field(spec, 0.5, seed=4, n_samples=10)
    pspec = ham.PottsSpec(spec, 0.5, 0.2)
    with pytest.raises(walks.ContractError):
        ham.gibbs(pspec, sample)


def test_potts_nine_term_expansion_q3_d2():
    # H_y = -sum_r J_r theta^(y.r) with J_r the scaled driver bonds
    spec = walks.lazy_walk(3, 2, [0.3, 0.8]).spectrum()
    sample = fields.sample_field(spec, 0.4, seed=5, n_samples=6)
    pspec = ham.PottsSpec(spec, 0.4, 0.2)
    h = ham.potts_hamiltonian(pspec, sample)
    theta = np.exp(2j * np.pi / 3)
    states = lattice.all_states(3, 2)
    bonds = ham.bond_coefficients(sample.driver, spec, 0.4)
    for si in range(6):
        for yi, y in enumerate(states):
            explicit = -sum(
                bonds[si, ri] * theta ** int(y @ r)
                for ri, r in enumerate(states))
            assert abs(h[si, yi] - explicit) < 1e-10


def test_potts_variance_trend_in_alpha():
    spec = walks.UniformLaw(2, 3).spectrum()
    for alpha, n in ((0.0, 60_000), (0.99, 60_000)):
        sample = fields.sample_field(spec, alpha, seed=6, n_samples=n)
        pspec = ham.PottsSpec(spec, max(alpha, 1e-9) if alpha else 1e-9, 0.2)
        h = -sample.values  # b = delta
        var = h.real.var()
        target = (1 - alpha) + alpha / 8.0
        assert abs(var - target) < 0.02, (alpha, var, target)


def test_expected_partition_closed_form_and_mc():
    spec = walks.lazy_walk(2, 2, [0.3, 0.7]).spectrum()
    alpha, beta = 0.5, 0.3
    pspec = ham.PottsSpec(spec, alpha, beta)
    ez = ham.expected_partition(pspec)
    closed = math.exp(ham.log_expected_partition_delta(spec, alpha, beta))
    assert abs(ez - closed) < 1e-9
    sigma2 = green.green_exact(spec, alpha).kernel[0]
    assert abs(math.log(ez) - (2 * math.log(2) + beta**2 * sigma2 / 2)) < 1e-12
    sample = fields.sample_field(spec, alpha, seed=7, n_samples=100_000)
    z_draws = np.sum(np.exp(beta * (-sample.values.real)), axis=1)
    se = z_draws.std(ddof=1) / math.sqrt(len(z_draws))
    assert abs(z_draws.mean() - ez) <= 4 * se


def test_expected_partition_uniform_closed_form():
    # logE[Z] = d log 2 + (beta^2/2)((1-alpha) + alpha/2^d)
    spec = walks.UniformLaw(2, 3).spectrum()
    pspec = ham.PottsSpec(spec, 0.4, 0.25)
    got = math.log(ham.expected_partition(pspec))
    expected = 3 * math.log(2) + 0.25**2 / 2 * (0.6 + 0.4 / 8)
    assert abs(got - expected) < 1e-12


def test_expected_partition_complex_coefficients_q3():
    # q = 3: the per-frequency exponents carry theta^(2 y.r) complex
    # squares, yet E[Z] is real; Monte Carlo over complex summands agrees
    spec = walks.lazy_walk(3, 2, [0.3, 0.8]).spectrum()
    alpha, beta = 0.5, 0.25
    pspec = ham.PottsSpec(spec, alpha, beta)
    ez = ham.expected_partition(pspec)
    sample = fields.sample_field(spec, alpha, seed=9, n_samples=200_000)
    h = ham.potts_hamiltonian(pspec, sample)
    z_draws = np.sum(np.exp(beta * h), axis=1)
    se = (z_draws.real.std(ddof=1) + z_draws.imag.std(ddof=1)) \
        / math.sqrt(len(z_draws))
    assert abs(z_draws.mean() - ez) <= 5 * se
    assert abs(z_draws.mean().imag) <= 5 * se


def test_expected_partition_beta_zero_counts_states():
    spec = walks.lazy_walk(3, 2, [0.5]).spectrum()
    pspec = ham.PottsSpec(spec, 0.5, 1e-9)
    assert abs(ham.expected_partition(pspec) - 9.0) < 1e-6


def test_free_energy_expansion_closed_form():
    spec = walks.UniformLaw(2, 2).spectrum()
    alpha, beta = 0.5, 0.3
    pspec = ham.PottsSpec(spec, alpha, beta)
    sigma2 = green.green_exact(spec, alpha).kernel[0]
    expected = 2 / beta * math.log(2) + beta / 2 * (sigma2 - 0.25)
    assert abs(ham.free_energy_expansion(pspec) - expected) < 1e-12
    # equivalent covariance bookkeeping
    g = green.green_exact(spec, alpha).matrix
    off = g.sum() - np.trace(g)
    alt = 2 / beta * math.log(2) \
        + beta / 2 * ((1 - 0.25) * sigma2 - off / 16.0)
    assert abs(ham.free_energy_expansion(pspec) - alt) < 1e-12


def test_identity_residuals_count_their_steps_first(monkeypatch):
    def refuse(*args):
        raise AssertionError("the kernel was built before the step count")

    monkeypatch.setattr(ham, "transition_kernel", refuse)
    spec = walks.UniformLaw(2, 3).spectrum()
    with pytest.raises(lattice.RangeError, match="1000000000 identity checks "
                       "at 8 points: needs 1062500000 steps"):
        ham.identity_residuals(spec, 0.5, np.random.default_rng(0), 10**9)
