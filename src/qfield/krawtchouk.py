"""Multivariate Krawtchouk polynomials on the uniform multinomial.

Q_l(m) is the coefficient of w_1^l[1] .. w_{q-1}^l[q-1] in

    prod_{j=0}^{q-1} (1 + sum_{k=1}^{q-1} w_k theta_k^j)^m[j],

theta_k = exp(2*pi*i*k/q), extracted by one dynamic program (DP) over a
batch of count vectors.  The DP keeps one flat index of coefficients in
lex order, the box j <= top or, where fewer, the simplex |j| <= total, top
the largest degree asked for on each axis and total the largest |l|; the
|m| passes of q steps over it that each m needs yield Q_l(m) for every l
asked for.  :func:`dp_cells` sizes that index and :func:`dp_budget`
charges DP plans, for the whole batch in the DP and for every caller that
refuses its DPs ahead.  The inverse squared norms h_l^-1 =
d!/((d-|l|)! prod l[k]!) are computed in integer arithmetic.

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

import bisect
import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import (NumericalError, RangeError, budget, count_vectors,
                      multinomial_pmf, roots, state_type_counts)
from .walks import (AtomicMeasure, ContractError, IncrementLaw, _check_degree,
                    xi_powers, xi_transform)


class KappaError(NumericalError):
    """Grouped eigenvalues do not define a transition kernel."""


def degree_indices(q: int, d: int, max_total: int | None = None) -> list[tuple[int, ...]]:
    """All l in N^(q-1) with |l| <= max_total (default d), lex order."""
    cap = d if max_total is None else min(max_total, d)
    # l followed by the slack cap - |l| is a count vector over q types
    return [m[:-1] for m in count_vectors(q, cap)]


def _check_counts(m, q: int, ndims=(1,)) -> np.ndarray:
    """m as an int64 array of ``ndims`` axes, the last of length q, with
    no negative entry."""
    try:
        m = np.asarray(m, dtype=np.int64)
    except ValueError:  # ragged rows
        m = np.zeros((0, 0), dtype=np.int64)
    if m.ndim not in ndims or m.shape[-1] != q or np.any(m < 0):
        raise RangeError(f"m must be a length-{q} nonnegative count vector")
    return m


# one chunk of the batched DP holds at most this many coefficients: 128 KiB
# of complex128 per array, so the DP's few chunk-sized arrays stay in cache
_CHUNK_ENTRIES = 2**13
# simplex plans kept, those of at most _CHUNK_ENTRIES coefficients, each
# under 2^15 positions: a pass of the grouped-counts benchmark asks for 12
# distinct ones 89 times
_PLAN_CACHE = 16


def dp_cells(top, total: int) -> int:
    """Coefficients of the DP over the degrees j <= top with |j| <= total:
    the fewer of the box j <= top and the simplex |j| <= total."""
    cells, box = math.comb(total + len(top), len(top)), 1
    for t in top:  # stops past the simplex, before the product grows huge
        box *= t + 1
        if box > cells:
            return cells
    return box


def dp_budget(what: str, q: int, plans, entries: int = 0, steps: int = 0,
              touched: int = 0) -> None:
    """Refuse DP plans (rows, passes, cells), on top of ``steps`` and
    ``touched`` of other work: ``rows`` count vectors, ``passes`` passes
    each of one copy and q - 1 shifted adds, every step touching ``cells``
    coefficients."""
    for rows, passes, cells in plans:
        steps += rows * passes * q
        touched += rows * passes * q * cells
    budget(what, entries=entries, steps=steps, touched=touched)


def _dp_plan(top: tuple[int, ...], total: int, boxed: bool,
             degrees: np.ndarray):
    """The DP's coefficients, the box j <= top if ``boxed`` else the
    simplex |j| <= total, in lex order: the shape they are viewed in past
    the rows axis, the positions of ``degrees``, and per axis k the shift
    by w_k from j to j + e_k as index tuples (dst, src) into that view."""
    if boxed:
        # the box, viewed over its axes of extent > 1 (within the entry
        # budget at most 23): each shift is a slice
        keep = [k for k, t in enumerate(top) if t]
        stride = list(itertools.accumulate((t + 1 for t in top[:0:-1]),
                                           operator.mul, initial=1))[::-1]
        shifts = [(k + 1, (slice(None),) * (a + 1) + (slice(1, None),),
                   (slice(None),) * (a + 1) + (slice(None, -1),))
                  for a, k in enumerate(keep)]
        return tuple(top[k] + 1 for k in keep), shifts, degrees @ stride
    cells = math.comb(total + len(top), len(top))
    shifts, below = (_simplex_plan if cells <= _CHUNK_ENTRIES
                     else _simplex_plan.__wrapped__)(len(top), total)
    # l[b] = v with room r = total - |l[:b]| skips the cells of l[b] < v
    axes = np.arange(1, len(top) + 1)
    room = total + degrees - np.cumsum(degrees, axis=1)
    skips = below[axes, room + 1] - below[axes, room + 1 - degrees]
    return (cells,), shifts, skips.sum(axis=1)


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _simplex_plan(axes: int, total: int):
    """The shifts of the simplex |j| <= total on ``axes`` axes, as for
    :func:`_dp_plan`, and ``below``: below[b, x] counts the j on axes b..
    with |j| < x, so the cells before j[b] = v among those with room r on
    axes b.. are below[b + 1, r + 1] - below[b + 1, r + 1 - v]."""
    count = np.ones((axes + 1, total + 1), dtype=np.int64)
    for b in reversed(range(axes)):
        count[b] = np.cumsum(count[b + 1])
    below = np.zeros((axes + 1, total + 2), dtype=np.int64)
    below[:, 1:] = np.cumsum(count, axis=1)
    # every j with |j| < total moves to j + e_k on each axis k.  Walk them
    # axis by axis, each prefix at its position with its room r[b] = total -
    # |j[:b]| and drift, the sum of count[b + 1, r[b + 1]] - count[b + 1,
    # r[b]] over the axes so far; j + e_k lies count[k + 1, r[k + 1]] +
    # that sum over the axes past k further on
    pos = drift = np.zeros(1, dtype=np.int64)
    room = np.full(1, total)
    ahead = np.zeros((0, 1), dtype=np.int64)
    for b in range(axes):
        i = np.repeat(np.arange(len(room)), room)
        v = np.arange(len(i)) - np.repeat(np.cumsum(room) - room, room)
        r = room[i]
        pos = pos[i] + below[b + 1, r + 1] - below[b + 1, r + 1 - v]
        room = r - v
        drift = drift[i] + count[b + 1, room] - count[b + 1, r]
        ahead = np.vstack([ahead[:, i], count[b + 1, room] - drift])
    # a run of positions, as axis 0's always is, is added to as a slice
    runs = [slice(int(d[0]), int(d[-1]) + 1) if d[-1] - d[0] == len(d) - 1
            else d for d in ahead + (pos + drift)]
    return [(k + 1, (slice(None), runs[k]), (slice(None), pos))
            for k in range(axes)], below


def krawtchouk_values(m, degrees, q: int) -> np.ndarray:
    """Q_l(m) for every l in ``degrees`` (length-(q-1) nonnegative degree
    indices), for one count vector m of shape (q,) or for each row of an
    (n, q) array: shape (n_degrees,) or (n, n_degrees), whose transpose is
    C-contiguous.  Entries with |l| > sum(m) come out exactly 0.

    All rows run through the same DP passes over the coefficients of the
    box j <= top or, where fewer, the simplex |j| <= total, top the largest
    degree on each axis and total the largest |l|: each j reads only
    coefficients below it, so its value is the one of the untruncated
    product.  Before digit j the rows are put in order of m[j], most
    first, so pass a of digit j is one copy and one shifted add per axis
    on the leading rows with m[j] > a: each row sees the operations of its
    own DP, and its values equal that DP bit for bit.  Rows go in chunks
    of at most ``_CHUNK_ENTRIES`` coefficients, or of one row where its
    coefficients alone are more.
    """
    m = _check_counts(m, q, ndims=(1, 2))
    rows = m.reshape(-1, q)
    degrees = np.asarray(degrees, dtype=np.int64).reshape(-1, q - 1)
    # degree-major, so that the (n_degrees, n) transpose is C-contiguous
    out = np.empty((len(degrees), len(rows)), dtype=complex).T
    if not len(rows):
        return out
    listed = degrees.tolist()
    top = tuple(map(max, zip(*listed))) if listed else (0,) * (q - 1)
    total = max(map(sum, listed), default=0)
    passes = int(rows.sum(axis=1).max())
    # the chunk and its copy; for the simplex, its plan's positions of
    # j + e_k, q - 1 times the j with |j| < total, built and added to once
    n = dp_cells(top, total)
    boxed = total >= sum(top) or n < math.comb(total + q - 1, q - 1)
    pairs = 0 if boxed else (q - 1) * math.comb(total + q - 2, q - 1)
    dp_budget(f"the Krawtchouk DP at q={q}, |m|={passes}", q,
              [(len(rows), passes, n)], entries=2 * n + 2 * pairs)
    shape, shifts, picks = _dp_plan(top, total, boxed, degrees)
    theta = roots(q)
    step = max(1, _CHUNK_ENTRIES // n)
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        coef = np.zeros((len(chunk),) + shape, dtype=complex)
        coef.reshape(-1, n)[:, 0] = 1.0
        held = list(range(len(chunk)))  # coef row p holds chunk row held[p]
        for j, column in enumerate(chunk.T.tolist()):
            # the rows by m[j], most first: pass a of digit j runs on the
            # leading rows, those with m[j] > a
            order = sorted(held, key=column.__getitem__, reverse=True)
            if order != held:
                where = {row: p for p, row in enumerate(held)}
                coef, held = coef[[where[row] for row in order]], order
            column.sort()
            for a in range(column[-1]):
                live = len(column) - bisect.bisect_right(column, a)
                head = coef[:live]
                old = head.copy()
                for k, dst, src in shifts:
                    head[dst] += theta[(k * j) % q] * old[src]
        out[start:start + len(chunk)][held] = coef.reshape(-1, n)[:, picks]
    return out if m.ndim == 2 else out[0]


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
    """Q_l(m) for |l| <= max_degree (default d) and |m| = d, every m in
    one batched DP."""
    _check_count_budget(q, d, max_degree)
    degrees = degree_indices(q, d, max_degree)
    counts = count_vectors(q, d)
    values = krawtchouk_values(counts, degrees, q).T
    h_inv = np.array([scale_constant_inv(l, d) for l in degrees], dtype=float)
    return KrawtchoukTable(q, d, degrees, counts, values, h_inv)


def _check_count_budget(q: int, d: int, max_degree: int | None,
                        dual: bool = False, gram: bool = False) -> int:
    """Refuse, before anything is built, the (C(L+q-1, q-1), n) table of an
    exact check, L = min(max_degree, d), and its DP over the n count
    vectors; with ``dual`` also the DP over the table's degrees, whose
    coefficients are the n count vectors, and with ``gram`` the table's
    Gram product.  Return L."""
    n = math.comb(d + q - 1, q - 1)
    cap = d if max_degree is None else max(0, min(max_degree, d))
    cells = dp_cells((cap,) * (q - 1), cap)
    entries = n * cells
    dp_budget(f"{n} count vectors and {entries} table entries at q={q}, "
              f"d={d}, degree <= {cap}", q,
              [(n, d, cells)] + dual * [(cells, d, n)], entries=entries,
              touched=gram * cells * entries)
    return cap


def orthogonality_residual(q: int, d: int, max_degree: int | None = None,
                           tab: KrawtchoukTable | None = None) -> float:
    """max_{l,l'} | E[Q_l conj(Q_l')] / sqrt(h_l^-1 h_l'^-1) - delta_{ll'} |
    over the multinomial: the Gram matrix of the normalized polynomials
    against the identity, a relative residual at every d."""
    _check_count_budget(q, d, max_degree, gram=True)
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
    Q_l(m) from one table, the duals Q_{m^-}(l^+) for every l and m from
    one batched DP over the l^+.  That DP is the table's with rows and
    coefficients swapped, so one plan charges both before the table."""
    _check_count_budget(q, d, max_degree, dual=True)
    tab = table(q, d, max_degree)
    m_minus = [m[1:] for m in tab.counts]
    h_inv_m = np.array([scale_constant_inv(v, d) for v in m_minus], dtype=float)
    duals = krawtchouk_values([(d - sum(l),) + l for l in tab.degrees],
                              m_minus, q)
    worst = 0.0
    for h_inv_l, q_l, dual in zip(tab.h_inv, tab.values, duals):
        gap = h_inv_m * q_l - h_inv_l * dual
        # hypot is abs() of a Python complex: each entry is the per-pair one
        rel = np.hypot(gap.real, gap.imag) / (h_inv_m * h_inv_l)
        worst = max(worst, float(np.max(rel)))
    return worst


def route_a_budget(q: int, d: int, degrees) -> None:
    """Refuse route A's DPs, one per degree in ``degrees``, from (q, d)."""
    rows = math.comb(d + q - 1, q - 1)
    dp_budget(f"route A at q={q}, d={d}", q,
              [(rows, d, dp_cells(l, sum(l))) for l in degrees])


def kappa_route_counts(law: IncrementLaw, l) -> complex:
    """Route A: kappa_l = h_l sum_m P(counts of V = m) Q_l(m)."""
    l = _check_degree(l, law.q)
    route_a_budget(law.q, law.d, [l])
    h_l = 1.0 / scale_constant_inv(l, law.d)
    counts = law.count_law()
    values = krawtchouk_values(list(counts), [l], law.q)[:, 0].tolist()
    return complex(h_l * sum(p * v for p, v in zip(counts.values(), values)))


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


def count_chain_kernel(kappas, q: int, d: int, t: int
                       ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """t-step transition matrix of the type-count chain.

    ``kappas`` maps degree tuples to eigenvalues (dict or callable).
    Rows sum to 1 within 1e-9; entries below -1e-9 raise KappaError.
    """
    if t < 0:
        raise RangeError(f"t must be >= 0, got {t}")
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


def ct_grouped_eigenvalues(measure: AtomicMeasure, tau: float, q: int, d: int
                           ) -> dict[tuple[int, ...], complex]:
    """Count-chain semigroup eigenvalues per degree index l.

    exponent_l = tau * sum_atoms w * (h_l Q_l(zeta) - 1)/(d - zeta[0]) over
    count-vector atoms zeta with |zeta| = d.  An atom at zeta[0] = d has
    h_l Q_l = 1 for every l, so it contributes nothing and the chain is
    unmoved by it.
    """
    if tau < 0:
        raise RangeError(f"tau must be >= 0, got {tau}")
    degrees = degree_indices(q, d)
    h_inv = np.array([scale_constant_inv(l, d) for l in degrees], dtype=float)
    atoms = np.atleast_2d(measure.points).astype(np.int64)
    if atoms.shape[1] != q or np.any(atoms.sum(axis=1) != d):
        raise RangeError("atoms must be count vectors over q types summing to d")
    moving = d - atoms[:, 0]
    # h_l Q_l((d,0,..)) = 1 exactly: inert atoms run no DP and add nothing
    live = np.flatnonzero(moving)
    values = krawtchouk_values(atoms[live], degrees, q)
    acc = np.zeros(len(degrees), dtype=complex)
    for i, q_zeta in zip(live.tolist(), values):
        acc += measure.weights[i] * (q_zeta / h_inv - 1.0) / int(moving[i])
    return {l: complex(np.exp(tau * a)) for l, a in zip(degrees, acc)}


def lump_by_type(matrix: np.ndarray, q: int, d: int) -> np.ndarray:
    """Type-lumped kernel: sum columns over classes, one representative row.

    The brute-force oracle that the spectral count kernel must match.
    """
    counts, classes = state_type_counts(q, d)
    reps = np.unique(classes, return_index=True)[1]
    lumped = np.zeros((len(counts), len(counts)))
    for mi, x in enumerate(reps):
        lumped[mi] = np.bincount(classes, weights=matrix[x].real,
                                 minlength=len(counts))
    return lumped
