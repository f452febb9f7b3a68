"""Large-dimension limits: Hermite polynomials scaled to N(0,1/q), limit
Krawtchouk polynomials, the Gaussian transform identity, the limit Green
density, and the transform-field covariance.

Scaling counts as m = d/q + sqrt(d) mfrak, the type fluctuation mfrak
converges to a singular Gaussian M with Cov = (1/q)(delta_ab - 1/q),
realized here as M = (I - J/q) Z / sqrt(q) with Z i.i.d. standard
normal.  The scaled polynomials Q_l(d/q + sqrt(d) m) d^(-|l|/2) converge
to Q_l(m; infinity), the coefficient of w^l in

    exp{ -(1/2q) sum_j (sum_k w_k theta_k^j)^2 + sum_j m[j] sum_k w_k theta_k^j }.

Two independent evaluation routes are kept: generic truncated-series
exponentiation of that generating function (route A) and the explicit
Hermite-product expansion (route B).  Each keeps what depends on (l, q)
alone, per process: route A the shifted slice-adds of its exponent, route
B the expansion coefficients from one Krawtchouk DP.  Neither reads the
other's, and both return the values of their per-entry loops bit for bit.
:func:`check_table` builds the five ``qfield limit --check`` tables.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from . import _mc
from .green import grouped_sum
from .krawtchouk import (degree_indices, dp_budget, dp_cells, kappa_getter,
                         krawtchouk_values)
from .lattice import RangeError, budget, count_vectors, multinomial_pmf, roots
from .pointprocess import PointProcessSpec, kappa, lazy_spec, y_moment
from .walks import ContractError

# (l, q) entries each route keeps; `limit --check limit-kraw` asks for
# C(q + 3, 4) degrees, 330 at q = 8
_ROUTE_CACHE = 512
# gathered Hermite values per chunk of route B's points (512 KiB)
_GATHER_ENTRIES = 2**16


def hermite_chebycheff(k: int, x, q: int):
    """H_k for the N(0, 1/q) weight: H_{k+1} = x H_k - (k/q) H_{k-1}.

    Generating function sum_k z^k H_k / k! = exp(-z^2/(2q) + x z).
    Vectorized over x; the last row of :func:`hermite_table`.
    """
    if k < 0:
        raise RangeError("degree must be >= 0")
    return hermite_table(k, x, q)[k]


def hermite_table(max_k: int, x, q: int) -> np.ndarray:
    """Stack H_0..H_max_k along axis 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty((max_k + 1,) + x.shape)
    out[0] = 1.0
    if max_k >= 1:
        out[1] = x
    for j in range(1, max_k):
        np.multiply(x, out[j], out=out[j + 1, ...])  # a view at 0-d x too
        out[j + 1] -= (j / q) * out[j - 1]
    return out


def hermite_orthogonality_residual(q: int) -> float:
    """max |E[H_j H_k] - delta_jk k!/q^k| over j, k <= 8 under N(0, 1/q),
    by 64-node Gauss quadrature."""
    max_k = 8
    z, w = hermegauss(64)
    x = z / math.sqrt(q)
    w = w / w.sum()
    table = hermite_table(max_k, x, q)
    gram = (table * w[None, :]) @ table.T
    target = np.diag([math.factorial(k) / q**k for k in range(max_k + 1)])
    return float(np.max(np.abs(gram - target)))


def _quadratic_pairs(q: int) -> list[tuple[int, int, complex]]:
    """Exponent quadratic -(1/2q) sum_j (sum_k w_k theta_k^j)^2 reduces to
    -(1/2) sum_k w_k w_{q-k}; returns (k, k', coeff) with k <= k'."""
    out = []
    for k in range(1, q):
        kk = (q - k) % q
        if kk == 0:
            continue
        if k < kk:
            out.append((k, kk, -1.0 + 0.0j))
        elif k == kk:
            out.append((k, k, -0.5 + 0.0j))
    return out


def full_type_vector(m_plus, q: int) -> np.ndarray:
    """Prepend m[0] = -sum(m_plus) to close the singular constraint."""
    m_plus = np.asarray(m_plus, dtype=float)
    if m_plus.shape != (q - 1,):
        raise RangeError(f"m_plus must have length {q - 1}")
    return np.concatenate(([-m_plus.sum()], m_plus))


@functools.lru_cache(maxsize=_ROUTE_CACHE)
def _series_plan(l: tuple[int, ...], q: int
                 ) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Route A's exponent at degree l: the rows theta_k^j (k = 1..q-1) whose
    sums against m give the linear coefficients c_k = sum_j m[j] theta_k^j,
    the quadratic coefficients, and one (slot, output slices, term window
    slices) per exponent entry inside the (l + 1) box, slot indexing
    [c_1 .. c_{q-1}, quadratic coefficients].

    Multiplying a term by the exponent adds term[window] * value into
    out[entry:] for each entry.  The entries go in descending lex order, so
    output entry t gets its products term[t - e] expo[e] in ascending lex
    order of t - e, the order of a loop over the term's entries."""
    pairs = _quadratic_pairs(q)
    entries = [tuple(int(i == k) for i in range(1, q)) for k in range(1, q)]
    entries += [tuple(int(i == k) + int(i == kk) for i in range(1, q))
                for k, kk, _ in pairs]
    shape = tuple(v + 1 for v in l)
    inside = sorted(((e, slot) for slot, e in enumerate(entries)
                     if all(i < s for i, s in zip(e, shape))), reverse=True)
    shifts = tuple((slot, tuple(slice(i, None) for i in e),
                    tuple(slice(0, s - i) for s, i in zip(shape, e)))
                   for e, slot in inside)
    rows = roots(q)[(np.arange(1, q)[:, None] * np.arange(q)) % q]
    quad = np.array([coeff for *_, coeff in pairs], dtype=complex)
    rows.flags.writeable = quad.flags.writeable = False
    return rows, quad, shifts


def limit_krawtchouk_series(m_full, l, q: int) -> complex:
    """Route A: coefficient of w^l by truncated series exponentiation."""
    l = tuple(int(v) for v in l)
    m_full = np.asarray(m_full, dtype=float)
    if m_full.shape != (q,):
        raise RangeError(f"m must be the full length-{q} type vector")
    rows, quad, shifts = _series_plan(l, q)
    # each value as += on a zero entry leaves it: x + 0 turns -0.0 into +0.0
    expo = np.concatenate((np.sum(m_full * rows, axis=1), quad)) + 0j
    shape = tuple(v + 1 for v in l)
    # exp(E) = sum_n E^n / n!, truncated at total degree |l|
    term = np.zeros(shape, dtype=complex)
    term[(0,) * (q - 1)] = 1.0
    acc = term.copy()
    for n in range(1, sum(l) + 1):
        out = np.zeros(shape, dtype=complex)
        for slot, target, window in shifts:
            # term on the left: complex products are not bitwise commutative
            out[target] += term[window] * expo[slot]
        term = out / n
        acc += term
    return complex(acc[l])


@functools.lru_cache(maxsize=_ROUTE_CACHE)
def _hermite_expansion_coeffs(l: tuple[int, ...], q: int
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Q_l(m; inf) = sum_i coeff[i] prod_j H_{a[i, j]}(m[j]), as the
    read-only (n_coeff, q) count vectors a and (n_coeff,) coefficients,
    nonzero ones only, from one Krawtchouk DP per (l, q)."""
    denom = float(math.prod(math.factorial(v) for v in l))
    a_all = count_vectors(q, sum(l))
    # degree index reused as a count vector over q types
    values = krawtchouk_values((0,) + l, [a[1:] for a in a_all], q).tolist()
    keep = [i for i, v in enumerate(values) if v != 0]
    a = np.array([a_all[i] for i in keep], dtype=np.intp).reshape(-1, q)
    coeff = np.array([values[i] / denom for i in keep], dtype=complex)
    a.flags.writeable = coeff.flags.writeable = False
    return a, coeff


def limit_krawtchouk_hermite(m_full, l, q: int) -> complex:
    """Route B: explicit Hermite-product expansion."""
    m_full = np.asarray(m_full, dtype=float)
    if m_full.shape != (q,):
        raise RangeError(f"m must be the full length-{q} type vector")
    return complex(limit_krawtchouk_batch(m_full, l, q)[0])


def route_b_cost(l, q: int, n: int) -> tuple[int, int]:
    """(loop steps, gathered values) of :func:`limit_krawtchouk_batch` at n
    points, for at most C(|l|+q-1, q-1) coefficients (exactly that many
    to |l| = 2): per chunk of points, |l| + 1 Hermite rows and one add per
    coefficient; q gathered values per coefficient and point."""
    s = sum(l)
    n_coeff = math.comb(s + q - 1, q - 1)
    chunks = -(-n // _chunk_points(n_coeff * q))
    return chunks * (s + 1 + n_coeff), n_coeff * q * n


def _chunk_points(entries: int) -> int:
    """Points to a chunk of route B with ``entries`` gathers per point."""
    return max(1, _GATHER_ENTRIES // entries)


def limit_krawtchouk_batch(m_samples: np.ndarray, l, q: int) -> np.ndarray:
    """Route-B evaluation over many full type vectors (n, q).

    The points go in chunks; each chunk builds its own Hermite rows
    H_0..H_|l| with :func:`hermite_table`, elementwise and so equal bit
    for bit to the rows of one whole-batch table.
    """
    m_samples = np.atleast_2d(np.asarray(m_samples, dtype=float))
    s = sum(int(v) for v in l)
    a, coeff = _hermite_expansion_coeffs(tuple(int(v) for v in l), q)
    n = m_samples.shape[0]
    acc = np.zeros(n, dtype=complex)
    digits = np.arange(q)
    step = _chunk_points(a.size)
    for start in range(0, n, step):
        table = hermite_table(s, m_samples[start:start + step], q)
        # (n_coeff, q, points): H_{a[i, j]} at digit j of each point; the
        # product over digits is the left fold 1.0 * t_0 * t_1 ...
        prod = np.multiply.reduce(table[a, :, digits], axis=1)
        terms = coeff[:, None] * prod
        out = acc[start:start + step]
        # summed in order from +0, one add per coefficient, as np.sum's
        # pairwise order would change the bits
        for term in terms:
            out += term
    return acc


def mplus_density(m_plus, q: int) -> float:
    """Density of the nonsingular marginal M_+ at m_plus."""
    m_plus = np.asarray(m_plus, dtype=float)
    quad = float(np.sum(m_plus**2) + np.sum(m_plus) ** 2)
    return (q ** (q / 2.0) / (2.0 * np.pi) ** ((q - 1) / 2.0)
            * math.exp(-q / 2.0 * quad))


def sample_type_gaussian(q: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of the singular type Gaussian M = (I - J/q) Z / sqrt(q)."""
    z = rng.standard_normal((n, q))
    return (z - z.mean(axis=1, keepdims=True)) / math.sqrt(q)


def gaussian_char(omega, q: int) -> complex:
    """E[e^(i omega . M)] = exp{-(1/2q) sum w^2 + (1/2q^2)(sum w)^2}."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (q,):
        raise RangeError(f"omega must be the full length-{q} vector")
    return complex(math.exp(-np.sum(omega**2) / (2 * q)
                            + np.sum(omega) ** 2 / (2 * q**2)))


def transform_identity(omega, degrees, q: int, n_samples: int, seed: int
                       ) -> list[tuple[complex, complex, float]]:
    """(MC transform, closed form, standard error) for each l in ``degrees``.

    E[e^(i w.M) Q_l(M; inf)] = E[e^(i w.M)] (i/q)^|l|
                               prod_k (sum_a w[a] theta_k^a)^l[k] / l[k]!.

    Every degree reads the same ``n_samples`` draws of M from ``seed`` and
    the same phase e^(i w.M), so each triple equals the one a
    single-degree call with that seed returns.  Route B builds its
    Hermite rows per chunk of points, and its loop steps and gathers for
    every degree are charged before the draw.
    """
    omega = np.asarray(omega, dtype=float)
    degrees = [tuple(int(v) for v in l) for l in degrees]
    costs = [route_b_cost(l, q, n_samples) for l in degrees]
    budget(f"the route-B gathers of {n_samples} draws at q={q}",
           steps=sum(c[0] for c in costs), touched=sum(c[1] for c in costs))
    m = _mc.run_chunked(n_samples, seed, 1,
                        lambda rng, k: sample_type_gaussian(q, k, rng), q)
    phase = np.exp(1j * m @ omega)
    theta = roots(q)
    a = np.arange(q)
    char = gaussian_char(omega, q)
    out = []
    for l in degrees:
        # phase on the left: complex products are not bitwise commutative
        mc, se = _mc.mean_and_stderr(
            np.multiply(phase, limit_krawtchouk_batch(m, l, q)))
        rhs = char * (1j / q) ** sum(l)
        for k in range(1, q):
            rhs *= np.sum(omega * theta[(k * a) % q]) ** l[k - 1] \
                / math.factorial(l[k - 1])
        out.append((complex(mc), complex(rhs), se))
    return out


def limit_green_density(m_plus, n_plus, lambda_of_l, q: int,
                        max_degree: int) -> float:
    """Truncated limit Green density
    phi(m)phi(n){1 + sum_{0<|l|<=L} (prod l!) lambda_l Q_l(m) conj(Q_l(n))}.

    With unit eigenvalues (the alpha = 0 case) the series is the
    reproducing kernel and diverges as L grows; the truncated value is
    still returned, with a warning flagging the delta-type limit.
    """
    m_full = full_type_vector(m_plus, q)
    n_full = full_type_vector(n_plus, q)
    get = kappa_getter(lambda_of_l)
    acc = 1.0 + 0.0j
    degenerate = True
    for l in degree_indices(q, max_degree + 1, max_degree):
        if sum(l) == 0:
            continue
        lam_l = complex(get(l))
        if abs(lam_l - 1.0) > 1e-12:
            degenerate = False
        lfac = 1.0
        for v in l:
            lfac *= math.factorial(v)
        acc += (lfac * lam_l
                * limit_krawtchouk_hermite(m_full, l, q)
                * np.conj(limit_krawtchouk_hermite(n_full, l, q)))
    if degenerate and max_degree > 0:
        warnings.warn("unit eigenvalues: truncated reproducing series of a "
                      "delta-type limit", stacklevel=2)
    return float(mplus_density(m_plus, q) * mplus_density(n_plus, q) * acc.real)


def scaled_green_finite_d(kappa_of_l, alpha: float, q: int, d: int, m, n,
                          max_degree: int | None = None) -> float:
    """d^(q-1) (d choose m)(d choose n) q^-2d {1 + sum h_l lambda_l Q Q*}.

    The finite-d quantity whose truncation converges to
    :func:`limit_green_density` at the matching degree: the local CLT
    sends d^((q-1)/2) (d choose m) q^-d to the Gaussian density, and
    h_l Q_l(m) conj(Q_l(n)) scales to (prod l!) Q_l conj(Q_l) at infinity.
    Count vectors m, n must sum to d.
    """
    acc = grouped_sum(kappa_of_l, alpha, q, d, m, n,
                      degree_indices(q, d, max_degree))
    return float(d ** (q - 1) * multinomial_pmf(m, d, q)
                 * multinomial_pmf(n, d, q) * acc)


def _check_transform_args(omega, psi, q: int) -> tuple[np.ndarray, np.ndarray]:
    omega = np.asarray(omega, dtype=float)
    psi = np.asarray(psi, dtype=float)
    for name, v in (("omega", omega), ("psi", psi)):
        if v.shape != (q,):
            raise RangeError(f"{name} must be the full length-{q} vector")
        if abs(v[0]) > 0:
            raise RangeError(f"{name}[0] must be 0 (M_+ marginal convention)")
    return omega, psi


def _transform_couplings(omega, psi, q: int) -> np.ndarray:
    """u_k = q^-2 (sum_a w[a] theta_k^a)(sum_b psi[b] theta_k^-b)."""
    budget(f"the transform couplings at q={q}", steps=q, touched=2 * q * q)
    theta = roots(q)
    a = np.arange(q)
    u = np.empty(q - 1, dtype=complex)
    for k in range(1, q):
        u[k - 1] = (np.sum(omega * theta[(k * a) % q])
                    * np.sum(psi * theta[(-k * a) % q]) / q**2)
    return u


def transform_field_cov_series(omega, psi, spec: PointProcessSpec,
                               max_degree: int = 12
                               ) -> tuple[complex, float]:
    """Series route: prefactors * sum_l lambda_l prod_k u_k^l[k] / l[k]!.

    Returns (value, tail estimate over degrees L+1, L+2).
    """
    omega, psi = _check_transform_args(omega, psi, spec.q)
    # one step per inner-loop iteration: q - 1 for each l with |l| <= L + 2
    budget(f"the transform-field series at q={spec.q}", steps=(spec.q - 1)
           * math.comb(max_degree + spec.q + 1, spec.q - 1))
    degrees = degree_indices(spec.q, max_degree + 1, max_degree)
    u = _transform_couplings(omega, psi, spec.q)
    full = PointProcessSpec(spec.alpha, spec.atoms, 1.0)
    pref = gaussian_char(omega, spec.q) * gaussian_char(-psi, spec.q)
    acc = 0.0 + 0.0j
    for l in degrees:
        term = complex(y_moment(full, l))
        for k, v in enumerate(l):
            term *= u[k] ** v / math.factorial(v)
        acc += term
    tail = 0.0
    for extra in (max_degree + 1, max_degree + 2):
        for l in count_vectors(spec.q - 1, extra):
            t = 1.0
            for k, v in enumerate(l):
                t *= abs(u[k]) ** v / math.factorial(v)
            tail += t
    return complex(pref * acc), float(abs(pref) * tail)


def transform_field_cov_closed(omega, psi, spec: PointProcessSpec
                               ) -> tuple[complex, float]:
    """Closed route: prefactors * E_Y[exp(sum_k u_k Y[k])] with the exact
    killed-horizon mixture over atom compositions, truncated at total
    mass 1 - 1e-12.  Returns (value, truncation bound)."""
    omega, psi = _check_transform_args(omega, psi, spec.q)
    xi = spec.xi_matrix()
    if np.max(np.abs(xi.imag)) > 1e-12:
        raise ContractError("closed transform-field route requires real Y "
                            "(real transform atoms)")
    u = _transform_couplings(omega, psi, spec.q)
    mass_eps = 1e-12
    weights = spec.weights()
    n_atoms = len(weights)
    alpha = spec.alpha
    # t runs to alpha^t <= mass_eps over C(t+a, a) atom compositions in all
    horizon = math.ceil(math.log(mass_eps) / math.log(alpha)) if alpha else 1
    comps = math.comb(horizon + n_atoms, n_atoms)
    budget(f"the closed transform-field route at alpha={alpha}",
           steps=comps * n_atoms, touched=comps * n_atoms * spec.q)
    pref = gaussian_char(omega, spec.q) * gaussian_char(-psi, spec.q)
    acc = 0.0 + 0.0j
    mass = 0.0
    t = 0
    while mass < 1.0 - mass_eps:
        p_t = (1.0 - alpha) * alpha**t
        inner = 0.0 + 0.0j
        for comp in count_vectors(n_atoms, t):
            logm = math.lgamma(t + 1)
            for c_a, w_a in zip(comp, weights):
                if c_a and w_a == 0.0:
                    break  # a composition with a weightless atom: no mass
                logm += c_a * math.log(w_a) if c_a else 0.0
                logm -= math.lgamma(c_a + 1)
            else:
                y = np.prod(xi.real[:, 1:] ** np.array(comp)[:, None], axis=0)
                inner += math.exp(logm) * np.exp(np.sum(u * y))
        acc += p_t * inner
        mass += p_t
        t += 1
    bound = (1.0 - mass) * math.exp(float(np.sum(np.abs(u))))
    return complex(pref * acc), float(abs(pref) * bound)


def check_table(check: str, q: int, alpha: float, mc: int | None, seed: int
                ) -> tuple[dict, float | None]:
    """The table ``check`` and the statistic ``--tol`` judges (None for
    transform and green-limit).  hermite reads q; limit-kraw q and seed;
    transform q, mc (None: 200 000) and seed; green-limit alpha at q = 2;
    field-transform q and alpha."""
    rng = np.random.default_rng(seed)
    if check == "hermite":
        stat = hermite_orthogonality_residual(q)
        result = {"max_residual": stat}
    elif check == "limit-kraw":
        # route B's kept expansion runs one DP per degree, whatever the
        # points: 4 passes over the coefficients of |a| <= 4; then its loop
        # runs per degree at each point, at a cost set by |l|
        points = 10
        loop = [(math.comb(s + q - 2, s), route_b_cost((s,), q, 1))
                for s in range(5)]
        dp_budget(f"limit-kraw at q={q}", q,
                  [(math.comb(q + 3, 4), 4, dp_cells((4,) * (q - 1), 4))],
                  steps=points * sum(c * steps for c, (steps, _) in loop),
                  touched=points * sum(c * seen for c, (_, seen) in loop))
        degrees = degree_indices(q, 5, 4)
        stat = 0.0
        for _ in range(points):
            m = full_type_vector(rng.standard_normal(q - 1), q)
            for l in degrees:
                stat = max(stat, abs(limit_krawtchouk_series(m, l, q)
                                     - limit_krawtchouk_hermite(m, l, q)))
        result = {"max_route_gap": stat}
    elif check == "transform":
        degrees = degree_indices(q, 3, 2)
        omega = np.zeros(q)
        omega[1:] = rng.standard_normal(q - 1)
        checks = transform_identity(omega, degrees, q, mc or 200_000, seed)
        rows = [{"l": list(l), "mc": [est.real, est.imag],
                 "closed": [rhs.real, rhs.imag], "stderr": se,
                 "pass": bool(abs(est - rhs) <= 4.0 * se + 1e-12)}
                for l, (est, rhs, se) in zip(degrees, checks)]
        result, stat = {"omega": omega.tolist(), "rows": rows}, None
    elif check == "green-limit":
        spec = lazy_spec(2, alpha, [0.2, 0.4])
        kap = lambda l: kappa(spec, l)
        lam = lambda l: y_moment(spec, l)
        rows = []
        for d in (40, 80, 160):
            delta = int(round(0.3 * math.sqrt(d)))
            m = (d // 2 + delta, d // 2 - delta)
            meff = np.array([(m[0] - d / 2) / math.sqrt(d)])
            fin = scaled_green_finite_d(kap, alpha, 2, d, m, m, max_degree=6)
            lim = limit_green_density(meff, meff, lam, 2, 6)
            rows.append({"d": d, "finite": fin, "limit": lim,
                         "ratio": fin / lim})
        result, stat = {"rows": rows}, None
    else:  # field-transform
        spec = lazy_spec(q, alpha, [0.2, 0.4])
        omega = np.zeros(q)
        psi = np.zeros(q)
        omega[1] = 0.3
        psi[1] = 0.5
        b, tail = transform_field_cov_series(omega, psi, spec, 12)
        a, bound = transform_field_cov_closed(omega, psi, spec)
        stat = abs(a - b)
        result = {"closed": [a.real, a.imag], "series": [b.real, b.imag],
                  "route_gap": stat, "series_tail": tail,
                  "closed_truncation": bound}
    return {"check": check, **result}, stat
