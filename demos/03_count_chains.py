# With exchangeable increments only the type counts matter.  The count
# chain is diagonalized by multivariate Krawtchouk polynomials on the
# uniform multinomial; its eigenvalues kappa_l group the walk spectrum.

import numpy as np

from qfield import krawtchouk as kw
from qfield import walks

q, d = 3, 4
law = walks.lazy_walk(q, d, gammas=[0.2, 0.5], weights=[0.4, 0.6])

print("== polynomial values by coefficient extraction ==")
m = (2, 1, 1)
for l in [(0, 0), (1, 0), (1, 1), (2, 0)]:
    value = kw.krawtchouk(m, l, q)
    print(f"  Q_{l}({m}) = {value:.4f},  h^-1 = {kw.scale_constant_inv(l, d)}")

print("\n== biorthogonality on the multinomial (exact enumeration) ==")
print("max residual:", kw.orthogonality_residual(q, d, max_degree=3))

print("\n== duality between degree and count indices ==")
print("max residual:", kw.max_duality_residual(q, d, max_degree=3))

print("\n== grouped eigenvalues, two independent routes ==")
degrees = [(1, 0), (1, 1), (2, 1)]
route_a = kw.kappa_route_counts(law, degrees)     # h_l E[Q_l(counts of V)]
route_b = kw.kappa_route_transform(law, degrees)  # E[prod xi[k]^l[k]]
for l, a, b in zip(degrees, route_a, route_b):
    print(f"  l = {l}: counts {a.real:.6f}, transform {b.real:.6f}, "
          f"gap {abs(a - b):.1e}")

print("\n== count kernel equals brute-force lumping of P^t ==")
degrees = kw.degree_indices(q, d)
kappas = dict(zip(degrees, kw.kappa_from_law(law, degrees)))
P = walks.transition_matrix(law.spectrum())
for t in (1, 2, 3):
    kernel, counts = kw.count_chain_kernel(kappas, q, d, t)
    lumped = kw.lump_by_type(np.linalg.matrix_power(P, t), q, d)
    print(f"  t = {t}: max gap {np.max(np.abs(kernel - lumped)):.1e}, "
          f"{len(counts)} count states")
