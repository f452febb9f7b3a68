"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or plain pytest; the
lines still land in captured output).  Every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest

from qfield import fields, green, hamiltonian as ham, krawtchouk as kw
from qfield import lattice, limits, pointprocess as pp, walks


def _report(num, name, cap, t0, detail=""):
    # shown live under -s; the project addopts (-rP) surface it in the
    # pass summary otherwise
    elapsed = time.monotonic() - t0
    assert elapsed <= cap, f"criterion {num} exceeded its {cap}s budget"
    extra = f" {detail};" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({extra} {elapsed:.1f}s <= {cap}s)")


def test_criterion_01_kernel_validity():
    """Every built-in family reconstructs a row-stochastic, nonnegative
    kernel on all (q, d) with q^d <= 4096 (d = 1 probed up to q = 512
    plus 1024/2048/4096)."""
    t0 = time.monotonic()
    pairs = [(q, d) for d in range(2, 13) for q in range(2, 65)
             if q**d <= 4096]
    pairs += [(q, 1) for q in range(2, 513)] + [(1024, 1), (2048, 1), (4096, 1)]
    worst_row = worst_neg = 0.0
    n_checked = 0
    for q, d in pairs:
        for family in walks.BUILTIN_FAMILIES:
            kernel = walks.transition_kernel(walks.builtin_law(family, q, d)
                                             .spectrum())
            worst_row = max(worst_row, abs(kernel.sum() - 1.0))
            worst_neg = max(worst_neg, max(0.0, -float(kernel.min())))
            n_checked += 1
    assert worst_row <= 1e-10, worst_row
    assert worst_neg <= 1e-12, worst_neg
    _report(1, "kernel validity", 10.0, t0,
            f"{n_checked} kernels, row err {worst_row:.1e}, "
            f"neg {worst_neg:.1e}")


def test_criterion_02_green_exactness():
    """green_exact equals the brute-force killed series to 1e-9."""
    t0 = time.monotonic()
    worst = 0.0
    for alpha in (0.3, 0.6, 0.9):
        horizon = int(math.ceil(math.log(1e-12) / math.log(alpha)))
        for q in (2, 3):
            for d in (1, 2, 3):
                for family in ("definetti_mixture", "product_iid",
                               "sparse_exchangeable"):
                    law = walks.builtin_law(family, q, d)
                    spec = law.spectrum()
                    p = walks.transition_matrix(spec)
                    series = np.zeros_like(p)
                    power = np.eye(p.shape[0])
                    for t in range(horizon + 1):
                        series += (1 - alpha) * alpha**t * power
                        power = power @ p
                    g = green.green_exact(spec, alpha)
                    worst = max(worst, float(np.max(np.abs(g.matrix - series))))
    assert worst <= 1e-9, worst
    _report(2, "Green exactness", 10.0, t0, f"max |exact - series| {worst:.1e}")


def test_criterion_03_mc_green():
    """Killed-walk endpoint law within TV 0.005 of the exact Green row."""
    t0 = time.monotonic()
    law = walks.lazy_walk(2, 2, [0.3, 0.7])
    emp = green.green_mc(law, 0.6, (0, 0), 10**6, seed=1003, workers=4)
    exact = green.green_exact(law.spectrum(), 0.6).row((0, 0))
    tv = green.tv_distance(emp, exact)
    assert tv <= 0.005, tv
    _report(3, "Monte-Carlo Green", 30.0, t0, f"TV {tv:.2e} over 1e6 walks")


def test_criterion_04_krawtchouk_orthogonality_and_duality():
    """Enumerated biorthogonality and duality at 1e-9 up to degree 4."""
    t0 = time.monotonic()
    worst_orth = worst_dual = 0.0
    for q in (2, 3, 4):
        for d in range(1, 7):
            worst_orth = max(worst_orth,
                             kw.orthogonality_residual(q, d, min(d, 4)))
            worst_dual = max(worst_dual,
                             kw.max_duality_residual(q, d, min(d, 4)))
    assert worst_orth <= 1e-9, worst_orth
    assert worst_dual <= 1e-9, worst_dual
    _report(4, "Krawtchouk orthogonality/duality", 60.0, t0,
            f"orth {worst_orth:.1e}, dual {worst_dual:.1e}")


def test_criterion_05_count_chain_lumping():
    """Spectral count kernel equals brute-force type lumping of P^t."""
    t0 = time.monotonic()
    worst = 0.0
    for q in (2, 3):
        for d in (1, 2, 3, 4):
            law = walks.lazy_walk(q, d, [0.3, 0.7])
            kap = {l: kw.kappa_from_law(law, l)
                   for l in kw.degree_indices(q, d)}
            p = walks.transition_matrix(law.spectrum())
            for t in range(4):
                kernel, _ = kw.count_chain_kernel(kap, q, d, t)
                lumped = kw.lump_by_type(np.linalg.matrix_power(p, t), q, d)
                worst = max(worst, float(np.max(np.abs(kernel - lumped))))
    assert worst <= 1e-9, worst
    _report(5, "count-chain lumping", 30.0, t0, f"max gap {worst:.1e}")


def test_criterion_06_point_process_identities():
    """Closed-form moments vs 1e6-sample MC (4 SE) on 10 random specs;
    half-process identity at 1e-12; Laplace transform MC at 4 SE."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1006)
    worst_half = 0.0
    for trial in range(10):
        q = 2 + trial % 2
        n_atoms = int(rng.integers(1, 4))
        pmfs = rng.dirichlet(np.ones(q), size=n_atoms)
        if q == 3:  # symmetrize so moments stay real
            pmfs[:, 2] = pmfs[:, 1]
            pmfs /= pmfs.sum(axis=1, keepdims=True)
        weights = rng.dirichlet(np.ones(n_atoms))
        alpha = float(rng.uniform(0.2, 0.8))
        atoms = [pp.XiAtom(p, float(w)) for p, w in zip(pmfs, weights)]
        spec = pp.PointProcessSpec(alpha, atoms, 1.0)
        l = tuple(int(v) for v in rng.integers(0, 3, size=q - 1))
        if sum(l) == 0:
            l = (1,) + l[1:]
        est, se = pp.y_moment_mc(spec, l, 10**6, seed=2000 + trial, workers=4)
        closed = pp.y_moment(spec, l)
        assert abs(est - closed) <= 4 * se, (trial, est, closed, se)
        worst_half = max(worst_half, pp.half_process_residual(spec, l))
    assert worst_half <= 1e-12, worst_half
    lap_spec = pp.lazy_spec(3, 0.5, [0.2, 0.5], [0.4, 0.6])
    varphi = [1.0, 0.5]
    lap_est, lap_se = pp.log_laplace_mc(lap_spec, varphi, 10**6, seed=77,
                                        workers=4)
    assert abs(lap_est - pp.log_laplace(lap_spec, varphi)) <= 4 * lap_se
    _report(6, "point-process identities", 60.0, t0,
            f"10 moment checks, half residual {worst_half:.1e}")


def test_criterion_07_field_covariance():
    """Empirical E[g conj(g)] within 5 SE of (1-alpha)G; inversion 1e-10."""
    t0 = time.monotonic()
    worst_ratio = worst_inv = 0.0
    for q, d in ((2, 3), (3, 2)):
        spec = walks.lazy_walk(q, d, [0.3, 0.7]).spectrum()
        alpha = 0.5
        sample = fields.sample_field(spec, alpha, seed=1007 + q,
                                     n_samples=10**5)
        cov = fields.empirical_covariance(sample.values)
        target = green.green_exact(spec, alpha).matrix
        se = fields.covariance_stderr(sample.values)
        worst_ratio = max(worst_ratio, float(np.max(
            np.abs(cov - target) / np.maximum(se, 1e-12))))
        back = fields.invert_field(sample.values, spec, alpha)
        worst_inv = max(worst_inv, float(np.max(np.abs(back - sample.driver))))
    assert worst_ratio <= 5.0, worst_ratio
    assert worst_inv <= 1e-10, worst_inv
    _report(7, "field covariance", 60.0, t0,
            f"max |err|/SE {worst_ratio:.2f}, inversion {worst_inv:.1e}")


def test_criterion_08_hamiltonian_identity_and_partition():
    """Identity residuals at 1e-10; quadrature partition check at 1e-6;
    the worked Jacobian 0.5773503."""
    t0 = time.monotonic()
    from test_hamiltonian import brute_partition_quadrature

    rng = np.random.default_rng(1008)
    worst = 0.0
    for q in (2, 3):
        for d in (1, 2, 3):
            spec = walks.lazy_walk(q, d, [0.3, 0.7]).spectrum()
            n = lattice.size(q, d)
            for _ in range(100):
                g = rng.standard_normal(n)
                lhs, _, res = ham.hamiltonian_identity_check(spec, 0.55, g)
                worst = max(worst, res / (1.0 + abs(lhs)))
                drv = rng.standard_normal(n)
                worst = max(worst, abs(
                    ham.hamiltonian_value(drv, spec, 0.55)
                    - 0.5 * float(drv @ drv)))
    assert worst <= 1e-10, worst
    worst_quad = 0.0
    for q, d in ((2, 1), (2, 2), (4, 1)):
        spec = walks.lazy_walk(q, d, [0.35, 0.8]).spectrum()
        pr = ham.partition_function(spec, 0.6, 1.3)
        quad = brute_partition_quadrature(spec, 0.6, 1.3)
        worst_quad = max(worst_quad, abs(pr.z - quad) / quad)
    assert worst_quad <= 1e-6, worst_quad
    swap = walks.DeterministicLaw(2, 1, (1,)).spectrum()
    jac = ham.partition_function(swap, 0.5, 1.0).jacobian
    assert abs(jac - 0.5773503) <= 1e-6
    _report(8, "Hamiltonian identity/partition", 30.0, t0,
            f"identity {worst:.1e}, quadrature {worst_quad:.1e}, "
            f"J {jac:.7f}")


def test_criterion_09_log_z_limit():
    """Finite-d partition density approaches the limit; the gap to the
    better-fitting decay constant decreases monotonically; the fitted
    constant and a bootstrap interval are reported (the displayed
    (2q-1)/q vs 1 discrepancy stays an open question)."""
    t0 = time.monotonic()
    q, alpha, beta, s = 2, 0.6, 1.3, 1.0
    dims = [4, 6, 8, 10, 12]
    gaps, fitted = [], []
    for d in dims:
        law = walks.lazy_walk(q, d, [s / d])  # expected nonzero count s
        spec = law.spectrum()
        pr = ham.partition_function(spec, alpha, beta)
        gap = 2.0 / q**d * pr.log_z - math.log(2 * math.pi * alpha / beta)
        assert abs(gap - ham.log_z_density_gap(spec, alpha)) < 1e-12
        gaps.append(gap)
        fitted.append(-math.log((1.0 - math.exp(-gap)) / alpha) / s)
    candidates = {c: ham.log_z_limit([s], [1.0], alpha, beta, q, c=c).value
                  - math.log(2 * math.pi * alpha / beta)
                  for c in (1.0, (2 * q - 1) / q)}
    best_c = min(candidates, key=lambda c: abs(gaps[-1] - candidates[c]))
    errs = [abs(g - candidates[best_c]) for g in gaps]
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    # bootstrap the 1/d extrapolation of the fitted constants
    rng = np.random.default_rng(1009)
    inv_d = 1.0 / np.array(dims)
    draws = []
    for _ in range(500):
        idx = rng.integers(0, len(dims), size=len(dims))
        if len(set(idx.tolist())) < 2:
            continue
        coef = np.polyfit(inv_d[idx], np.array(fitted)[idx], 1)
        draws.append(coef[1])
    lo, hi = np.percentile(draws, [2.5, 97.5])
    assert errs[-1] < 0.02
    _report(9, "log Z limit", 120.0, t0,
            f"best c {best_c:.2f}, fitted c(d=12) {fitted[-1]:.3f}, "
            f"extrapolated c in [{lo:.3f}, {hi:.3f}], gap errors "
            + "->".join(f"{e:.4f}" for e in errs))


def test_criterion_10_clt_layer():
    """Hermite orthogonality 1e-10; limit-Krawtchouk route agreement
    1e-9; transform identity at 4 SE with 1e6 samples; transform-field
    covariance routes within 1e-6 at L = 12."""
    t0 = time.monotonic()
    worst_herm = max(limits.hermite_orthogonality_residual(q, 8)
                     for q in (2, 3, 4))
    assert worst_herm <= 1e-10, worst_herm
    rng = np.random.default_rng(1010)
    worst_routes = 0.0
    for q in (2, 3, 4):
        for _ in range(5):
            m = limits.full_type_vector(0.8 * rng.standard_normal(q - 1), q)
            for l in kw.degree_indices(q, 5, 4):
                worst_routes = max(worst_routes, abs(
                    limits.limit_krawtchouk_series(m, l, q)
                    - limits.limit_krawtchouk_hermite(m, l, q)))
    assert worst_routes <= 1e-9, worst_routes
    omega = np.array([0.0, 1.0])
    worst_sigma = 0.0
    for i, l in enumerate([(1,), (2,), (3,)]):
        [(mc, rhs, se)] = limits.transform_identity(omega, [l], 2, 10**6,
                                                    seed=500 + i)
        assert abs(mc - rhs) <= 4 * se, (l, mc, rhs, se)
        worst_sigma = max(worst_sigma, abs(mc - rhs) / se)
    spec = pp.lazy_spec(2, 0.6, [0.2, 0.4])
    closed, _ = limits.transform_field_cov_closed(
        np.array([0.0, 0.3]), np.array([0.0, 0.5]), spec)
    series, _ = limits.transform_field_cov_series(
        np.array([0.0, 0.3]), np.array([0.0, 0.5]), spec, 12)
    assert abs(closed - series) <= 1e-6, abs(closed - series)
    _report(10, "CLT layer", 120.0, t0,
            f"hermite {worst_herm:.1e}, routes {worst_routes:.1e}, "
            f"transform {worst_sigma:.2f} SE, field routes "
            f"{abs(closed - series):.1e}")


def test_criterion_11_potts():
    """log E[Z] = d log 2 + beta^2 sigma^2/2 closed-form and within 4 SE
    of field-sample Monte Carlo at q=2, d=2, beta=0.3."""
    t0 = time.monotonic()
    spec = walks.lazy_walk(2, 2, [0.3, 0.7]).spectrum()
    alpha, beta = 0.5, 0.3
    pspec = ham.PottsSpec(spec, alpha, beta)
    ez = ham.expected_partition(pspec)
    sigma2 = green.green_exact(spec, alpha).kernel[0]
    closed = 2 * math.log(2) + beta**2 * sigma2 / 2
    assert abs(math.log(ez) - closed) <= 1e-12
    sample = fields.sample_field(spec, alpha, seed=1011, n_samples=10**5)
    h = ham.potts_hamiltonian(pspec, sample)
    z_draws = np.sum(np.exp(beta * h.real), axis=1)
    se = z_draws.std(ddof=1) / math.sqrt(len(z_draws))
    assert abs(z_draws.mean() - ez) <= 4 * se
    _report(11, "Potts annealed partition", 60.0, t0,
            f"logE[Z] {closed:.6f}, MC gap {abs(z_draws.mean() - ez):.2e} "
            f"(4SE {4 * se:.2e})")
