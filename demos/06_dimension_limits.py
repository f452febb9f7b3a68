# Scale type counts as m = d/q + sqrt(d) mfrak and let d grow: the
# multinomial becomes a singular Gaussian, the Krawtchouk polynomials
# become Hermite products, and the Green kernel acquires a density limit
# whose transform has a one-line covariance.

import math

import numpy as np

from qfield import krawtchouk as kw
from qfield import limits, pointprocess as pp

q = 2

print("== Hermite family scaled to N(0, 1/q) ==")
print("H_2(0; 2) =", limits.hermite_chebycheff(2, 0.0, 2))
print("quadrature orthogonality residual:",
      limits.hermite_orthogonality_residual(q))

print("\n== limit polynomials: series route vs Hermite route ==")
m = limits.full_type_vector(np.array([0.35]), q)
for deg in range(4):
    a = limits.limit_krawtchouk_series(m, (deg,), q)
    b = limits.limit_krawtchouk_hermite(m, (deg,), q)
    print(f"  degree {deg}: series {a.real:+.5f}, hermite {b.real:+.5f}")

print("\n== finite-d polynomials converge after scaling ==")
for d in (40, 80, 160):
    delta = int(round(0.35 * math.sqrt(d)))
    counts = (d // 2 + delta, d // 2 - delta)
    m_eff = (np.array(counts) - d / 2) / math.sqrt(d)
    finite = kw.krawtchouk(counts, (3,), 2).real * d ** (-1.5)
    limit = limits.limit_krawtchouk_hermite(m_eff, (3,), 2).real
    print(f"  d = {d:3d}: scaled Q_3 {finite:+.6f} vs limit {limit:+.6f}")

print("\n== Gaussian transform identity ==")
omega = np.array([0.0, 1.0])
[(mc, closed, se)] = limits.transform_identity(omega, [(2,)], q, 200_000,
                                               seed=0)
print(f"  MC {mc:.5f} vs closed {closed:.5f} (se {se:.1e})")

print("\n== scaled Green converges to the limit density ==")
spec = pp.lazy_spec(2, 0.5, [0.2, 0.4])
kappa = lambda l: pp.kappa(spec, l)
lam = lambda l: pp.y_moment(spec, l)
for d in (40, 80, 160):
    delta = int(round(0.3 * math.sqrt(d)))
    counts = (d // 2 + delta, d // 2 - delta)
    m_eff = np.array([(counts[0] - d / 2) / math.sqrt(d)])
    finite = limits.scaled_green_finite_d(kappa, 0.5, 2, d, counts, counts,
                                          max_degree=6)
    limit = limits.limit_green_density(m_eff, m_eff, lam, 2, 6)
    print(f"  d = {d:3d}: ratio finite/limit = {finite / limit:.4f}")

print("\n== transform-field covariance: two routes ==")
omega = np.array([0.0, 0.3])
psi = np.array([0.0, 0.5])
closed, bound = limits.transform_field_cov_closed(omega, psi, spec)
series, tail = limits.transform_field_cov_series(omega, psi, spec, 12)
print(f"  closed {closed.real:.8f}, series {series.real:.8f}, "
      f"gap {abs(closed - series):.1e}")
