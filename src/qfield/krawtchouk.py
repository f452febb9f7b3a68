"""Multivariate Krawtchouk polynomials on the uniform multinomial.

Q_l(m) is the coefficient of w_1^l[1] .. w_{q-1}^l[q-1] in

    prod_{j=0}^{q-1} (1 + sum_{k=1}^{q-1} w_k theta_k^j)^m[j],

theta_k = exp(2*pi*i*k/q), extracted by one dynamic program per count
vector m: it truncates multi-degrees componentwise at the largest degree
asked for on each axis, so one pass of cost O(|m| * q * prod(L[k]+1))
yields Q_l(m) for every l in the box L.  The inverse squared norms
h_l^-1 = d!/((d-|l|)! prod l[k]!) are computed in integer arithmetic.

These polynomials diagonalize the type-count chain of walks with
exchangeable increments.  Grouped eigenvalues kappa_l come from the law
in one of two ways: route A sums h_l P(m) Q_l(m) over the law's
``count_law()``, route B integrates ``walks.xi_powers`` (prod_k
xi[k]^l[k]) over its ``mixing_measure()``.  The t-step count kernel is

    p(n; d) * (1 + sum_{0<|l|<=d} kappa_l^t h_l Q_l(m) conj(Q_l(n))).

Count vectors m and p(m; d) are the lattice's type classes
(``lattice.count_vectors``, ``lattice.multinomial_pmf``); the layer below,
``walks``, names nothing from this module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import (NumericalError, RangeError, all_states, budget,
                      count_vectors, multinomial_pmf, roots)
from .walks import (AtomicMeasure, ContractError, IncrementLaw, _check_degree,
                    xi_powers, xi_transform)


class KappaError(NumericalError):
    """Grouped eigenvalues do not define a transition kernel."""


def degree_indices(q: int, d: int, max_total: int | None = None) -> list[tuple[int, ...]]:
    """All l in N^(q-1) with |l| <= max_total (default d), lex order."""
    cap = d if max_total is None else min(max_total, d)
    # l followed by the slack cap - |l| is a count vector over q types
    return [m[:-1] for m in count_vectors(q, cap)]


def _check_counts(m, q: int) -> np.ndarray:
    m = np.asarray(m, dtype=np.int64)
    if m.shape != (q,) or np.any(m < 0):
        raise RangeError(f"m must be a length-{q} nonnegative count vector")
    return m


def krawtchouk_values(m, degrees, q: int) -> np.ndarray:
    """Q_l(m) for every l in ``degrees`` (length-(q-1) nonnegative degree
    indices), from one DP truncated at the largest degree on each axis;
    entries with |l| > sum(m) come out exactly 0."""
    m = _check_counts(m, q)
    degrees = np.asarray(degrees, dtype=np.int64).reshape(-1, q - 1)
    box = tuple((np.max(degrees, axis=0, initial=0) + 1).tolist())
    passes, n = int(m.sum()), math.prod(box)
    # two coefficient arrays; each pass is a copy and q - 1 shifted adds
    budget(f"the Krawtchouk DP at q={q}, |m|={passes}", entries=2 * n,
           steps=passes * q, touched=passes * q * n)
    # multiplying by w_k shifts the coefficient array one step up axis k-1
    shifts = [(k, (slice(None),) * (k - 1) + (slice(1, None),),
               (slice(None),) * (k - 1) + (slice(0, -1),))
              for k in range(1, q) if box[k - 1] > 1]
    theta = roots(q)
    coef = np.zeros(box, dtype=complex)
    coef[(0,) * (q - 1)] = 1.0
    for j in range(q):
        for _ in range(int(m[j])):
            new = coef.copy()
            for k, dst, src in shifts:
                new[dst] += theta[(k * j) % q] * coef[src]
            coef = new
    return coef[tuple(degrees.T)]


def krawtchouk(m, l, q: int) -> complex:
    """Q_l(m), one entry of :func:`krawtchouk_values`.

    ``m`` is a length-q count vector; sum(m) plays the role of the
    dimension.  Degrees |l| beyond sum(m) exceed the polynomial degree
    bound and return 0 (with a warning).
    """
    m = _check_counts(m, q)
    l = _check_degree(l, q)
    if sum(l) > int(m.sum()):
        warnings.warn(f"degree |l|={sum(l)} exceeds |m|={int(m.sum())}; "
                      "coefficient is 0", stacklevel=2)
        return 0.0 + 0.0j
    return complex(krawtchouk_values(m, [l], q)[0])


def krawtchouk_exact_q2(m, l: int) -> int:
    """q = 2 coefficient of w^l in (1+w)^m[0] (1-w)^m[1], exact integers."""
    m0, m1 = int(m[0]), int(m[1])
    coef = [1]  # truncated at degree l
    for sign, reps in ((1, m0), (-1, m1)):
        for _ in range(reps):
            new = list(coef) + ([0] if len(coef) <= l else [])
            for i in range(len(new) - 1, 0, -1):
                new[i] = (coef[i] if i < len(coef) else 0) + sign * coef[i - 1]
            coef = new
    return coef[l] if l < len(coef) else 0


def scale_constant_inv(l, d: int) -> int:
    """h_l^-1 = d!/((d-|l|)! * prod_k l[k]!), exact integer."""
    s = sum(int(v) for v in l)
    if s > d:
        raise RangeError(f"|l| = {s} exceeds d = {d}")
    return math.perm(d, s) // math.prod(math.factorial(int(v)) for v in l)


def log_scale_constant_inv(l, d: int) -> float:
    """log h_l^-1, for dimensions too large for exact floats."""
    s = sum(int(v) for v in l)
    out = math.lgamma(d + 1) - math.lgamma(d - s + 1)
    for v in l:
        out -= math.lgamma(int(v) + 1)
    return out


@dataclass
class KrawtchoukTable:
    """Precomputed Q_l(m) and scale constants for all |l| <= max_degree."""

    q: int
    d: int
    degrees: list[tuple[int, ...]]
    counts: list[tuple[int, ...]]
    values: np.ndarray  # (n_degrees, n_counts) complex
    h_inv: np.ndarray   # exact h_l^-1 as float


def table(q: int, d: int, max_degree: int | None = None) -> KrawtchoukTable:
    """Q_l(m) for |l| <= max_degree (default d) and |m| = d, one DP per m."""
    _check_count_budget(q, d, max_degree)
    degrees = degree_indices(q, d, max_degree)
    counts = count_vectors(q, d)
    values = np.empty((len(degrees), len(counts)), dtype=complex)
    for j, m in enumerate(counts):
        values[:, j] = krawtchouk_values(m, degrees, q)
    h_inv = np.array([scale_constant_inv(l, d) for l in degrees], dtype=float)
    return KrawtchoukTable(q, d, degrees, counts, values, h_inv)


def _check_count_budget(q: int, d: int, max_degree: int | None) -> None:
    """Exact checks build a table of the C(L+q-1, q-1) degrees, L =
    min(max_degree, d), by all C(d+q-1, q-1) count vectors, one DP over an
    (L+1)^(q-1) box per count vector: refuse it before building anything."""
    n = math.comb(d + q - 1, q - 1)
    cap = d if max_degree is None else max(0, min(max_degree, d))
    entries = n * math.comb(cap + q - 1, q - 1)
    budget(f"{n} count vectors and {entries} table entries at q={q}, d={d}, "
           f"degree <= {cap}", entries=entries, steps=n * d * q,
           touched=n * d * q * (cap + 1) ** (q - 1))


def orthogonality_residual(q: int, d: int, max_degree: int | None = None,
                           tab: KrawtchoukTable | None = None) -> float:
    """max_{l,l'} | E[Q_l conj(Q_l')] / sqrt(h_l^-1 h_l'^-1) - delta_{ll'} |
    over the multinomial: the Gram matrix of the normalized polynomials
    against the identity, a relative residual at every d."""
    _check_count_budget(q, d, max_degree)
    if tab is None:
        tab = table(q, d, max_degree)
    weights = np.array([multinomial_pmf(m, d, q) for m in tab.counts])
    gram = (tab.values * weights[None, :]) @ tab.values.conj().T
    scale = 1.0 / np.sqrt(tab.h_inv)
    gram *= scale[:, None] * scale[None, :]
    return float(np.max(np.abs(gram - np.eye(len(scale)))))


def duality_residual(m, l, q: int) -> float:
    """| h_{m^-}^-1 Q_l(m) - h_l^-1 Q_{m^-}(l^+) | / (h_{m^-}^-1 h_l^-1)
    for one (m, l) pair: the duality gap relative to its scale.

    l^+ prepends d - |l| as the type-0 count; m^- drops the type-0 count
    of m and acts as a degree index.
    """
    d = int(sum(m))
    m_minus = tuple(int(v) for v in m[1:])
    l_plus = (d - sum(l),) + tuple(int(v) for v in l)
    h_inv_m = scale_constant_inv(m_minus, d)
    h_inv_l = scale_constant_inv(l, d)
    lhs = h_inv_m * krawtchouk(m, l, q)
    rhs = h_inv_l * krawtchouk(l_plus, m_minus, q)
    return float(abs(lhs - rhs) / (h_inv_m * h_inv_l))


def max_duality_residual(q: int, d: int, max_degree: int | None = None) -> float:
    """max of :func:`duality_residual` over |l| <= max_degree and |m| = d:
    Q_l(m) from one table, Q_{m^-}(l^+) for every m from one DP per l."""
    _check_count_budget(q, d, max_degree)
    tab = table(q, d, max_degree)
    m_minus = [m[1:] for m in tab.counts]
    h_inv_m = np.array([scale_constant_inv(v, d) for v in m_minus], dtype=float)
    worst = 0.0
    for l, h_inv_l, q_l in zip(tab.degrees, tab.h_inv, tab.values):
        dual = krawtchouk_values((d - sum(l),) + l, m_minus, q)
        gap = h_inv_m * q_l - h_inv_l * dual
        # hypot is abs() of a Python complex: each entry is the per-pair one
        rel = np.hypot(gap.real, gap.imag) / (h_inv_m * h_inv_l)
        worst = max(worst, float(np.max(rel)))
    return worst


def kappa_route_counts(law: IncrementLaw, l) -> complex:
    """Route A: kappa_l = h_l sum_m P(counts of V = m) Q_l(m)."""
    l = _check_degree(l, law.q)
    n = math.comb(law.d + law.q - 1, law.q - 1) * law.d * law.q  # DP steps
    budget(f"route A at q={law.q}, d={law.d}", steps=n,
           touched=n * math.prod(v + 1 for v in l))
    h_l = 1.0 / scale_constant_inv(l, law.d)
    mean = sum(prob * krawtchouk(m, l, law.q)
               for m, prob in law.count_law().items())
    return complex(h_l * mean)


def kappa_route_transform(law: IncrementLaw, l) -> complex:
    """Route B: kappa_l = E[prod_k xi[k]^l[k]] over the mixing measure."""
    _check_degree(l, law.q)  # before the (n, q) mixing measure is built
    weights, pmfs = law.mixing_measure()
    xi = np.stack([xi_transform(p) for p in pmfs])
    return complex(weights @ xi_powers(xi, l))


def kappa_from_law(law: IncrementLaw, l) -> complex:
    """Grouped eigenvalue kappa_l by the transform route, or by the
    counts route for laws without a mixing measure."""
    try:
        return kappa_route_transform(law, l)
    except ContractError:
        return kappa_route_counts(law, l)


def kappa_getter(kappas):
    """Degree tuple -> eigenvalue, from a dict or a callable."""
    return kappas.__getitem__ if isinstance(kappas, dict) else kappas


def count_chain_kernel(kappas, q: int, d: int, t: int,
                       tab: KrawtchoukTable | None = None
                       ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """t-step transition matrix of the type-count chain.

    ``kappas`` maps degree tuples to eigenvalues (dict or callable).
    Rows sum to 1 within 1e-9; entries below -1e-9 raise KappaError.
    """
    if t < 0:
        raise RangeError(f"t must be >= 0, got {t}")
    if tab is None:
        tab = table(q, d)
    get = kappa_getter(kappas)
    kap = np.array([complex(get(l)) for l in tab.degrees])
    weights = (kap**t) * (1.0 / tab.h_inv)
    pvec = np.array([multinomial_pmf(m, d, q) for m in tab.counts])
    # S[m, n] = sum_l kappa_l^t h_l Q_l(m) conj(Q_l(n))
    s = tab.values.T @ (weights[:, None] * tab.values.conj())
    kernel = pvec[None, :] * s
    if np.max(np.abs(kernel.imag)) > 1e-9:
        raise KappaError("count kernel has imaginary residue; kappas invalid")
    kernel = kernel.real
    if kernel.min() < -1e-9:
        raise KappaError(f"count kernel entry {kernel.min():.3e} < -1e-9")
    rows = kernel.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > 1e-9:
        raise KappaError("count kernel rows do not sum to 1")
    return np.clip(kernel, 0.0, None), tab.counts


def ct_grouped_eigenvalues(measure: AtomicMeasure, tau: float, q: int, d: int,
                           degree_indices=None) -> dict[tuple[int, ...], complex]:
    """Count-chain semigroup eigenvalues per degree index l.

    exponent_l = tau * sum_atoms w * (h_l Q_l(zeta) - 1)/(d - zeta[0]) over
    count-vector atoms zeta with |zeta| = d.  An atom at zeta[0] = d has
    h_l Q_l = 1 for every l, so it contributes nothing and the chain is
    unmoved by it.
    """
    if tau < 0:
        raise RangeError(f"tau must be >= 0, got {tau}")
    if degree_indices is None:  # the keyword shadows the module function
        degree_indices = [m[:-1] for m in count_vectors(q, d)]
    degrees = [_check_degree(l, q) for l in degree_indices]
    h_inv = np.array([scale_constant_inv(l, d) for l in degrees], dtype=float)
    atoms = np.atleast_2d(measure.points).astype(np.int64)
    if atoms.shape[1] != q or np.any(atoms.sum(axis=1) != d):
        raise RangeError("atoms must be count vectors over q types summing to d")
    acc = np.zeros(len(degrees), dtype=complex)
    for zeta, w in zip(atoms, measure.weights):
        moving = d - int(zeta[0])
        if moving == 0:
            continue  # h_l Q_l((d,0,..)) = 1 exactly: inert atom
        acc += w * (krawtchouk_values(zeta, degrees, q) / h_inv - 1.0) / moving
    return {l: complex(np.exp(tau * a)) for l, a in zip(degrees, acc)}


def state_type_counts(q: int, d: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Count vectors plus the map rank -> class index."""
    counts = count_vectors(q, d)
    lookup = {m: i for i, m in enumerate(counts)}
    states = all_states(q, d)
    classes = np.empty(states.shape[0], dtype=np.int64)
    for i, x in enumerate(states):
        classes[i] = lookup[tuple(np.bincount(x, minlength=q))]
    return counts, classes


def lump_by_type(matrix: np.ndarray, q: int, d: int) -> np.ndarray:
    """Type-lumped kernel: sum columns over classes, one representative row.

    The brute-force oracle that the spectral count kernel must match.
    """
    counts, classes = state_type_counts(q, d)
    reps = [int(np.nonzero(classes == i)[0][0]) for i in range(len(counts))]
    lumped = np.zeros((len(counts), len(counts)))
    for mi, x in enumerate(reps):
        lumped[mi] = np.bincount(classes, weights=matrix[x].real,
                                 minlength=len(counts))
    return lumped
