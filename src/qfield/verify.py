"""Cross-module invariant suite behind ``qfield verify``.

Each check returns a residual-style statistic with its tolerance; the
report is JSON-friendly and the CLI exits nonzero when any check fails.
Checks run at one (q, d) with a fixed seed, so reports are reproducible.
"""

from __future__ import annotations

import numpy as np

from . import fields, green, hamiltonian, krawtchouk, lattice, pointprocess, walks


def _check(name, statistic, tol, extra=None):
    entry = {
        "name": name,
        "statistic": float(statistic),
        "tol": float(tol),
        "pass": bool(statistic <= tol),
    }
    if extra:
        entry.update(extra)
    return entry


def run_suite(q: int, d: int, seed: int = 0, tol_scale: float = 1.0) -> dict:
    n = lattice.size(q, d)
    lattice.budget(f"verify at {n} points, with a dense P", entries=n * n)
    rng = np.random.default_rng(seed)
    checks = []

    # transform round trip / Parseval
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = lattice.dft(f, q, d)
    checks.append(_check("dft_round_trip",
                         np.max(np.abs(lattice.dft(c, q, d, inverse=True) - f)),
                         1e-12 * tol_scale))
    checks.append(_check("dft_parseval",
                         abs(np.sum(np.abs(f) ** 2) - np.sum(np.abs(c) ** 2)),
                         1e-10 * tol_scale))

    # kernel validity across the built-in families
    worst_row, worst_neg = 0.0, 0.0
    symmetric_mismatch = 0.0
    for family in walks.BUILTIN_FAMILIES:
        law = walks.builtin_law(family, q, d)
        spec = law.spectrum()
        kernel = walks.transition_kernel(spec)
        worst_row = max(worst_row, abs(kernel.sum() - 1.0))
        worst_neg = max(worst_neg, max(0.0, -float(kernel.min())))
        if law.is_symmetric() != spec.is_real:
            symmetric_mismatch = 1.0
    checks.append(_check("kernel_row_sums", worst_row, 1e-10 * tol_scale))
    checks.append(_check("kernel_nonnegative", worst_neg, 1e-12 * tol_scale))
    checks.append(_check("symmetry_iff_real_spectrum", symmetric_mismatch, 0.5))

    # Green operator structure for the lazy family
    law = walks.lazy_walk(q, d, [0.3, 0.7])
    spec = law.spectrum()
    alpha = 0.6
    g = green.green_exact(spec, alpha, materialize=n <= 1024)
    checks.append(_check("green_row_sum", abs(g.kernel.sum() - 1.0),
                         1e-10 * tol_scale))
    if g.matrix is not None:
        checks.append(_check("green_hermitian",
                             np.max(np.abs(g.matrix - g.matrix.T.conj())),
                             1e-11 * tol_scale))
        eigmin = float(np.linalg.eigvalsh((g.matrix + g.matrix.T) / 2).min())
        checks.append(_check("green_psd", max(0.0, -eigmin), 1e-10 * tol_scale))

    # grouped eigenvalue routes and the multinomial grouping identity
    degs = krawtchouk.degree_indices(q, d, min(d, 3))
    route_gap = max(abs(krawtchouk.kappa_route_counts(law, l)
                        - krawtchouk.kappa_route_transform(law, l))
                    for l in degs)
    checks.append(_check("kappa_routes", route_gap, 1e-10 * tol_scale))
    checks.append(_check("log_grouping_identity",
                         hamiltonian.grouping_identity_residual(law, alpha),
                         1e-10 * tol_scale))

    # Krawtchouk orthogonality / duality at affordable degree
    deg_cap = min(d, 3)
    checks.append(_check("krawtchouk_orthogonality",
                         krawtchouk.orthogonality_residual(q, d, deg_cap),
                         1e-9 * tol_scale))
    checks.append(_check("krawtchouk_duality",
                         krawtchouk.max_duality_residual(q, d, deg_cap),
                         1e-9 * tol_scale))

    # count chain vs brute-force lumping
    if n <= 256:
        kap = {l: krawtchouk.kappa_from_law(law, l)
               for l in krawtchouk.degree_indices(q, d)}
        kern, _ = krawtchouk.count_chain_kernel(kap, q, d, 2)
        p2 = np.linalg.matrix_power(walks.transition_matrix(spec), 2)
        lumped = krawtchouk.lump_by_type(p2, q, d)
        checks.append(_check("count_chain_lumping",
                             np.max(np.abs(kern - lumped)), 1e-9 * tol_scale))

    # point-process identities
    pspec = pointprocess.spec_from_mixture(law, alpha)
    half_gap = max(pointprocess.half_process_residual(pspec, l)
                   for l in krawtchouk.degree_indices(q, min(d, 3)))
    checks.append(_check("half_process_identity", half_gap, 1e-12 * tol_scale))

    # field synthesis inversion and Hamiltonian diagonalization
    sample = fields.sample_field(spec, alpha, seed=seed + 1, n_samples=4)
    checks.append(_check("field_inversion",
                         np.max(np.abs(fields.invert_field(
                             sample.values, spec, alpha) - sample.driver)),
                         1e-10 * tol_scale))
    _, rel_max, diag_gap = hamiltonian.identity_residuals(spec, alpha, rng, 5)
    checks.append(_check("hamiltonian_identity", max(rel_max, diag_gap),
                         1e-9 * tol_scale))

    return {
        "q": q,
        "d": d,
        "seed": seed,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
