"""Increment laws on {0,..,q-1}^d, their spectra, kernels and simulation.

A walk moves by X_{t+1} = X_t + V mod q with V drawn i.i.d. from an
increment law.  Every law here yields eigenvalues

    rho[r] = E[ theta^(V.r) ],   theta = exp(2*pi*i/q),

for the eigenvectors theta^(x.r), and the one-step kernel is the
circulant P[x, y] = q^-d * sum_r rho[r] * theta^((x-y).r).

Law variants
------------
UniformLaw            V uniform on the lattice (one-step mixing).
DeterministicLaw      V = a fixed shift.
ProductIIDLaw         entries of V i.i.d. from a pmf on Z_q.
DeFinettiMixtureLaw   entries i.i.d. p given a latent component (w_i, p_i).
SparseExchangeableLaw c positions get an exchangeable joint pmf on Z_q^c,
                      the rest are i.i.d. uniform; rho[r] vanishes when r
                      has more than c nonzero entries.

Exchangeable laws also carry the two inputs of the grouped eigenvalues
kappa_l.  ``mixing_measure()`` is the de Finetti measure (weights, pmfs):
the entries of V are i.i.d. pmfs[i] given component i, and route B
integrates ``xi_powers`` over it.  ``count_law()`` is the law of the type
counts of V; the base class builds it as the multinomial mixture of the
mixing measure, the sparse law convolves its c special slots with the
uniform rest (count vectors from ``lattice``), and route A, in the layer
above, averages h_l Q_l over it.  A law with no mixing measure raises
ContractError from ``mixing_measure``, and from ``count_law`` unless it
overrides it.

``lazy_walk`` builds the canonical symmetric test family: hold with
probability 1-gamma, step +-1 otherwise, gamma mixed over finitely many
atoms.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import _mc
from .lattice import (NumericalError, RangeError, all_states, axis_tensor,
                      budget, circulant_from_kernel, count_vectors, dft,
                      multinomial_pmf, point, rank, size, unrank)

PMF_TOL = 1e-12
IMAG_TOL = 1e-10
CLAMP_TOL = 1e-12
KERNEL_TOL = 1e-8


class KernelError(NumericalError):
    """Reconstructed kernel is not a transition matrix."""


class ContractError(NumericalError):
    """Operation called outside its contract (e.g. needs exchangeability)."""


def _check_pmf(p, q: int, where: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (q,):
        raise RangeError(f"{where}: pmf must have length {q}, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise RangeError(f"{where}: pmf has non-finite entries")
    if np.any(p < 0):
        raise RangeError(f"{where}: pmf has negative mass")
    if abs(p.sum() - 1.0) > PMF_TOL:
        raise RangeError(f"{where}: pmf sums to {p.sum()!r}, not 1")
    return p


def _draw_categorical(rng: np.random.Generator, p: np.ndarray, shape):
    """Indices drawn from the pmf ``p`` by inverse CDF: the same uniforms
    and the same values as ``rng.choice(len(p), shape, p=p)``, without its
    per-call argument checks (the laws check their pmfs once, when built).
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(shape), side="right")


def _draw_mixture(rng: np.random.Generator, weights, pmfs, shape):
    """Rows of i.i.d. draws from pmfs[i], i drawn once per row with
    ``weights``: the components first, then each component's rows in
    component order."""
    comp = _draw_categorical(rng, weights, shape[0])
    out = np.empty(shape, dtype=np.int64)
    for i, p in enumerate(pmfs):
        idx = np.nonzero(comp == i)[0]
        if idx.size:
            out[idx] = _draw_categorical(rng, p, (idx.size,) + shape[1:])
    return out


def xi_transform(p: np.ndarray) -> np.ndarray:
    """xi[k] = sum_j theta^(k*j) p[j]; xi[0] = 1."""
    q = len(p)
    return dft(np.asarray(p, dtype=float), q, 1, inverse=True) * math.sqrt(q)


def pmf_from_xi(xi: np.ndarray) -> np.ndarray:
    """Inverse of :func:`xi_transform`: p[j] = q^-1 sum_k theta^(-k*j) xi[k]."""
    q = len(xi)
    return (dft(xi, q, 1) / math.sqrt(q)).real


def _check_degree(l, q: int) -> tuple[int, ...]:
    l = tuple(int(v) for v in l)
    if len(l) != q - 1 or any(v < 0 for v in l):
        raise RangeError(f"l must be a length-{q - 1} nonnegative degree index")
    return l


def xi_powers(xi: np.ndarray, l) -> np.ndarray:
    """prod_k xi[k]^l[k] over k = 1..q-1, one value per row of ``xi``."""
    l = _check_degree(l, xi.shape[1])
    return np.prod(xi[:, 1:] ** np.array(l)[None, :], axis=1)


@dataclass
class Spectrum:
    """Walk eigenvalues rho[r] over the lattice, with reality/bound flags."""

    rho: np.ndarray
    q: int
    d: int
    is_real: bool = field(init=False)
    is_unit_bounded: bool = field(init=False)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        n = size(self.q, self.d)
        if self.rho.shape != (n,):
            raise RangeError(f"spectrum needs q^d = {n} entries, got {self.rho.shape}")
        if abs(self.rho[0] - 1.0) > 1e-10:
            raise RangeError(f"rho[0] = {self.rho[0]!r}, must be 1")
        self.is_unit_bounded = bool(np.max(np.abs(self.rho)) <= 1.0 + 1e-12)
        if not self.is_unit_bounded:
            raise RangeError("spectrum exceeds the unit disc")
        self.is_real = bool(np.max(np.abs(self.rho.imag)) < IMAG_TOL)


class IncrementLaw:
    """Base class; concrete laws implement spectrum/sampling/pmf."""

    q: int
    d: int

    def spectrum(self) -> Spectrum:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, d) array of increment draws."""
        raise NotImplementedError

    def pmf(self) -> np.ndarray:
        """Full length-q^d pmf of V by rank (desk scale only)."""
        raise NotImplementedError

    def is_symmetric(self) -> bool:
        """True when V and -V mod q have the same law (symmetric jumps)."""
        p = self.pmf()
        neg_ranks = rank(-all_states(self.q, self.d) % self.q, self.q)
        return bool(np.allclose(p, p[neg_ranks], atol=PMF_TOL * 10))

    def is_exchangeable(self) -> bool:
        return False

    def mixing_measure(self) -> tuple[np.ndarray, np.ndarray]:
        """de Finetti measure: (weights, (n, q) pmfs) such that the entries
        of V are i.i.d. pmfs[i] given component i drawn with weights[i]."""
        raise ContractError(
            f"{type(self).__name__} entries are not conditionally i.i.d.: "
            "no de Finetti mixing measure")

    def count_law(self) -> dict[tuple[int, ...], float]:
        """P(type counts of V = m) over the count vectors m it charges.

        The multinomial mixture of :meth:`mixing_measure`, so it raises
        ContractError where that does.
        """
        weights, pmfs = self.mixing_measure()
        counts = np.array(count_vectors(self.q, self.d))
        log_coef = np.array([math.lgamma(self.d + 1)
                             - sum(math.lgamma(v + 1) for v in m) for m in counts])
        log_p = np.log(np.where(pmfs > 0, pmfs, 1.0))
        impossible = ((counts[:, None, :] > 0) & (pmfs[None] == 0)).any(axis=2)
        mass = np.where(impossible, 0.0,
                        np.exp(log_coef[:, None] + counts @ log_p.T)) @ weights
        return {tuple(int(v) for v in m): float(p)
                for m, p in zip(counts, mass) if p > 0}

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass
class UniformLaw(IncrementLaw):
    q: int
    d: int

    def spectrum(self) -> Spectrum:
        rho = np.zeros(size(self.q, self.d), dtype=complex)
        rho[0] = 1.0
        return Spectrum(rho, self.q, self.d)

    def sample(self, rng, n):
        return rng.integers(0, self.q, size=(n, self.d))

    def pmf(self):
        n = size(self.q, self.d)
        return np.full(n, 1.0 / n)

    def is_exchangeable(self):
        return True

    def mixing_measure(self):
        return np.ones(1), np.full((1, self.q), 1.0 / self.q)

    def to_json(self):
        return {"variant": "uniform", "q": self.q, "d": self.d}


@dataclass
class DeterministicLaw(IncrementLaw):
    q: int
    d: int
    shift: tuple[int, ...] = ()

    def __post_init__(self):
        self.shift = tuple(int(v) % self.q for v in self.shift)
        if len(self.shift) != self.d:
            raise RangeError(f"shift must have length {self.d}")

    def spectrum(self) -> Spectrum:
        size(self.q, self.d)  # budgeted before the d vectors of length q
        vecs = [np.exp(2j * np.pi * v * np.arange(self.q) / self.q) for v in self.shift]
        return Spectrum(axis_tensor(vecs), self.q, self.d)

    def sample(self, rng, n):
        return np.tile(np.array(self.shift, dtype=np.int64), (n, 1))

    def pmf(self):
        p = np.zeros(size(self.q, self.d))
        p[rank(self.shift, self.q)] = 1.0
        return p

    def is_exchangeable(self):
        return len(set(self.shift)) <= 1

    def mixing_measure(self):
        if not self.is_exchangeable():
            return super().mixing_measure()
        p = np.zeros((1, self.q))
        p[0, self.shift[0]] = 1.0
        return np.ones(1), p

    def to_json(self):
        return {"variant": "deterministic", "q": self.q, "d": self.d,
                "shift": list(self.shift)}


@dataclass
class ProductIIDLaw(IncrementLaw):
    """Entries of V i.i.d. from one pmf on Z_q."""

    q: int
    d: int
    p: np.ndarray = None

    def __post_init__(self):
        self.p = _check_pmf(self.p, self.q, "ProductIIDLaw")

    def spectrum(self) -> Spectrum:
        size(self.q, self.d)  # budgeted before the d-fold list
        xi = xi_transform(self.p)
        return Spectrum(axis_tensor([xi] * self.d), self.q, self.d)

    def sample(self, rng, n):
        return _draw_categorical(rng, self.p, (n, self.d))

    def pmf(self):
        return axis_tensor([self.p] * self.d).real

    def is_exchangeable(self):
        return True

    def mixing_measure(self):
        return np.ones(1), self.p[None, :]

    def to_json(self):
        return {"variant": "product_iid", "q": self.q, "d": self.d,
                "pmf": self.p.tolist()}


@dataclass
class DeFinettiMixtureLaw(IncrementLaw):
    """Entries of V i.i.d. p_i given a component i drawn with weight w_i."""

    q: int
    d: int
    weights: np.ndarray = None
    pmfs: np.ndarray = None  # (n_components, q)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.pmfs = np.atleast_2d(np.asarray(self.pmfs, dtype=float))
        if self.weights.ndim != 1 or len(self.weights) != len(self.pmfs):
            raise RangeError("weights and pmfs must have matching lengths")
        if not np.all(self.weights > 0):
            raise RangeError("mixture weights must be positive")
        if abs(self.weights.sum() - 1.0) > PMF_TOL:
            raise RangeError(f"mixture weights sum to {self.weights.sum()!r}")
        for i, p in enumerate(self.pmfs):
            _check_pmf(p, self.q, f"component {i}")

    def spectrum(self) -> Spectrum:
        rho = np.zeros(size(self.q, self.d), dtype=complex)
        for w, p in zip(self.weights, self.pmfs):
            rho += w * axis_tensor([xi_transform(p)] * self.d)
        return Spectrum(rho, self.q, self.d)

    def sample(self, rng, n):
        return _draw_mixture(rng, self.weights, self.pmfs, (n, self.d))

    def pmf(self):
        out = np.zeros(size(self.q, self.d))
        for w, p in zip(self.weights, self.pmfs):
            out += w * axis_tensor([p] * self.d).real
        return out

    def is_exchangeable(self):
        return True

    def mixing_measure(self):
        return self.weights, self.pmfs

    def to_json(self):
        return {
            "variant": "definetti_mixture", "q": self.q, "d": self.d,
            "components": [{"weight": float(w), "pmf": p.tolist()}
                           for w, p in zip(self.weights, self.pmfs)],
        }


@dataclass
class SparseExchangeableLaw(IncrementLaw):
    """c uniformly-placed entries from an exchangeable joint pmf on Z_q^c.

    The remaining d - c entries are i.i.d. uniform, so rho[r] = 0 as soon
    as r has more than c nonzero entries.
    """

    q: int
    d: int
    c: int = 1
    joint: np.ndarray = None  # flat pmf over Z_q^c, little-endian rank

    def __post_init__(self):
        if not 1 <= self.c <= self.d:
            raise RangeError(f"need 1 <= c <= d, got c={self.c}, d={self.d}")
        self.joint = _check_pmf(self.joint, size(self.q, self.c), "joint pmf")
        if not self._joint_exchangeable():
            raise ContractError("joint pmf must be exchangeable in its c slots")

    def _joint_exchangeable(self) -> bool:
        if self.c == 1:
            return True
        states = all_states(self.q, self.c)
        # swapping the first two slots generates S_c together with rotations
        for perm in (np.roll(np.arange(self.c), 1),
                     np.concatenate(([1, 0], np.arange(2, self.c)))):
            permuted = rank(states[:, perm], self.q)
            if not np.allclose(self.joint, self.joint[permuted], atol=1e-10):
                return False
        return True

    def _char(self) -> np.ndarray:
        """phi[u] = E_p[theta^(u.v)] over the c-slot joint pmf."""
        return dft(self.joint, self.q, self.c, inverse=True) * self.q ** (self.c / 2)

    def spectrum(self) -> Spectrum:
        phi = self._char()
        rho = np.zeros(size(self.q, self.d), dtype=complex)
        denom = math.comb(self.d, self.c)
        # rho lives on the r with n <= c nonzero entries: for each n, the
        # nonzero positions (rows) times their values in order (columns)
        for n in range(self.c + 1):
            positions = np.array(list(combinations(range(self.d), n)),
                                 dtype=np.int64)
            values = 1 + np.indices((self.q - 1,) * n, dtype=np.int64
                                    ).reshape(n, (self.q - 1) ** n)
            ranks = self.q ** positions @ values
            u = rank(values.T, self.q)
            rho[ranks] = math.comb(self.d - n, self.c - n) / denom * phi[u]
        return Spectrum(rho, self.q, self.d)

    def sample(self, rng, n):
        out = rng.integers(0, self.q, size=(n, self.d))
        positions = np.argsort(rng.random((n, self.d)), axis=1)[:, : self.c]
        vals = unrank(_draw_categorical(rng, self.joint, n), self.q, self.c)
        np.put_along_axis(out, positions, vals, axis=1)
        return out

    def pmf(self):
        states = all_states(self.q, self.d)
        out = np.zeros(size(self.q, self.d))
        u_base = 1.0 / (math.comb(self.d, self.c) * self.q ** (self.d - self.c))
        for sub in combinations(range(self.d), self.c):
            out += u_base * self.joint[rank(states[:, sub], self.q)]
        return out

    def is_exchangeable(self):
        return True

    def count_law(self):
        """Counts over the c special slots plus multinomial uniform rest."""
        rest = [(np.array(mu), multinomial_pmf(mu, self.d - self.c, self.q))
                for mu in count_vectors(self.q, self.d - self.c)]
        out: dict[tuple[int, ...], float] = {}
        for slots, prob in zip(all_states(self.q, self.c), self.joint):
            if prob == 0.0:
                continue
            special = np.bincount(slots, minlength=self.q)
            for mu, w in rest:
                m = tuple(int(v) for v in special + mu)
                out[m] = out.get(m, 0.0) + prob * w
        return out

    def to_json(self):
        return {"variant": "sparse_exchangeable", "q": self.q, "d": self.d,
                "c": self.c, "joint_pmf": self.joint.tolist()}


def lazy_walk(q: int, d: int, gammas, weights=None) -> DeFinettiMixtureLaw:
    """Hold w.p. 1-gamma, step +-1 w.p. gamma/2, gamma mixed over atoms.

    The canonical symmetric-jump test family.  For q = 2 both steps land
    on 1, so p = (1-gamma, gamma).
    """
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    if np.any(gammas < 0) or np.any(gammas > 1):
        raise RangeError("gamma atoms must lie in [0, 1]")
    budget(f"{len(gammas)} pmfs on Z_{q}", entries=len(gammas) * q)
    if weights is None:
        weights = np.full(len(gammas), 1.0 / len(gammas))
    pmfs = []
    for g in gammas:
        p = np.zeros(q)
        p[0] = 1.0 - g
        p[1 % q] += g / 2.0
        p[(q - 1) % q] += g / 2.0
        pmfs.append(p)
    return DeFinettiMixtureLaw(q, d, weights=np.asarray(weights), pmfs=np.array(pmfs))


_VARIANTS = {
    "uniform": lambda doc: UniformLaw(doc["q"], doc["d"]),
    "deterministic": lambda doc: DeterministicLaw(doc["q"], doc["d"],
                                                  tuple(doc["shift"])),
    "product_iid": lambda doc: ProductIIDLaw(doc["q"], doc["d"], p=doc["pmf"]),
    "definetti_mixture": lambda doc: DeFinettiMixtureLaw(
        doc["q"], doc["d"],
        weights=[c["weight"] for c in doc["components"]],
        pmfs=[c["pmf"] for c in doc["components"]],
    ),
    "sparse_exchangeable": lambda doc: SparseExchangeableLaw(
        doc["q"], doc["d"], doc["c"], joint=doc["joint_pmf"]),
}


def _check_int(value, where: str, low: int | None = None) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise RangeError(f"{where} must be an integer{bound}, got {value!r}")


def law_from_json(doc: dict | str) -> IncrementLaw:
    """Rebuild a law from its JSON document (see each law's ``to_json``).

    ``q`` >= 2, ``d`` >= 1, ``c`` >= 1 and the ``shift`` entries must be
    integers.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    try:
        variant = doc["variant"]
    except (TypeError, KeyError):
        raise RangeError("law document needs a 'variant' field") from None
    if variant not in _VARIANTS:
        raise RangeError(
            f"unknown law variant {variant!r}; expected one of {sorted(_VARIANTS)}")
    for key, low in (("q", 2), ("d", 1), ("c", 1)):
        if key in doc:
            _check_int(doc[key], f"law field {key!r}", low)
    for value in doc.get("shift", ()):
        _check_int(value, "law field 'shift' entry")
    try:
        return _VARIANTS[variant](doc)
    except KeyError as missing:
        raise RangeError(f"law variant {variant!r} is missing field {missing}") from None


def transition_kernel(spec: Spectrum) -> np.ndarray:
    """First-row kernel k(z) = q^-d sum_r rho[r] theta^(z.r), validated.

    Imaginary residue below 1e-10 is discarded; entries in (-1e-12, 0)
    are clamped to zero with a warning; anything below -1e-8 means the
    eigenvalues are not of moment form and raises KernelError.
    """
    n = size(spec.q, spec.d)
    k = dft(spec.rho, spec.q, spec.d, inverse=True) / np.sqrt(n)
    if np.max(np.abs(k.imag)) > IMAG_TOL:
        raise KernelError(
            f"kernel has imaginary residue {np.max(np.abs(k.imag)):.3e}")
    k = k.real.copy()
    low = k.min()
    if low < -KERNEL_TOL:
        raise KernelError(
            f"not a transition kernel: entry {low:.3e} < -{KERNEL_TOL:g}")
    if low < 0:
        if low < -CLAMP_TOL:
            warnings.warn(f"clamping kernel entries down to {low:.3e}",
                          stacklevel=2)
        np.clip(k, 0.0, None, out=k)
    return k


def transition_matrix(spec: Spectrum) -> np.ndarray:
    """Full q^d x q^d one-step matrix P[x, y] = kernel((x - y) mod q)."""
    return circulant_from_kernel(transition_kernel(spec), spec.q, spec.d)


@dataclass
class KillingLaw:
    """Killing horizon T with P(T = t) = (1-alpha)^phi alpha^t (phi)_t / t!.

    phi = 1 is the geometric horizon; phi = 1/2 drives half-process
    constructions.
    """

    alpha: float
    phi: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise RangeError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not (0 < self.phi < math.inf):
            raise RangeError(f"phi must be finite and positive, got {self.phi}")

    def pmf(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.int64)
        if self.alpha == 0.0:
            return np.where(t == 0, 1.0, 0.0).astype(float)
        log_rising = np.vectorize(
            lambda k: math.lgamma(self.phi + k) - math.lgamma(self.phi)
            - math.lgamma(k + 1.0))(t)
        return np.exp(self.phi * math.log1p(-self.alpha)
                      + t * math.log(self.alpha) + log_rising)

    def truncation_horizon(self, eps: float = 1e-12) -> int:
        """Smallest T with P(T <= T) >= 1 - eps."""
        # the tail falls below eps about (phi + log 1/eps) / (1 - alpha) in
        budget(f"the killing horizon at alpha={self.alpha}",
               steps=math.ceil((self.phi - math.log(eps)) / (1.0 - self.alpha)))
        mass, t = 0.0, 0
        while mass < 1.0 - eps:
            mass += float(self.pmf(t))
            t += 1
        return t - 1

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.alpha == 0.0:
            return np.zeros(n, dtype=np.int64)
        return rng.negative_binomial(self.phi, 1.0 - self.alpha, size=n)


@dataclass
class AtomicMeasure:
    """Finitely many weighted atoms; points may be vectors or scalars."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.weights) != len(self.points):
            raise RangeError("points and weights must have equal length")
        if np.any(~np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise RangeError("weights must be finite and nonnegative")


def simulate_walk(law: IncrementLaw, x0, steps: int, seed: int) -> np.ndarray:
    """Path (steps+1, d) of the walk started at the lattice point x0."""
    if steps < 0:
        raise RangeError(f"steps must be >= 0, got {steps}")
    x0 = point(x0, law.q, law.d)
    rng = np.random.default_rng(seed)
    increments = law.sample(rng, steps)
    path = np.empty((steps + 1, law.d), dtype=np.int64)
    path[0] = x0
    np.cumsum(increments, axis=0, out=increments)
    path[1:] = (x0[None, :] + increments) % law.q
    return path


def simulate_killed(
    law: IncrementLaw,
    x0,
    killing: KillingLaw,
    seed: int,
    n_walks: int = 1,
    workers: int = 1,
) -> np.ndarray:
    """Endpoints X_T of n_walks killed walks, shape (n_walks, d).

    T = 0 returns x0 unmoved.  Deterministic given the seed; ``workers``
    only schedules the blocks of :func:`_mc.run_chunked`.  Within a block,
    step t draws one increment per walk with T > t, in walk order, in a
    single ``law.sample`` call; those walks are filtered from the ones of
    step t - 1.  The sums are reduced mod q once, at the end, which gives
    the same endpoints as reducing after every step because x0 is checked
    to lie on the lattice.
    """
    x0 = point(x0, law.q, law.d)
    mean = killing.phi * killing.alpha / (1.0 - killing.alpha)
    blocks = -(-n_walks // _mc.BLOCK)  # each loops about a mean horizon
    budget(f"{n_walks} killed walks at alpha={killing.alpha}",
           steps=blocks * math.ceil(mean), touched=math.ceil(n_walks * law.d * mean))

    def draw(rng, m):
        horizon = killing.sample(rng, m)
        pos = np.tile(x0, (m, 1))
        active = np.nonzero(horizon)[0]
        t = 0
        while active.size:
            pos[active] += law.sample(rng, active.size)
            t += 1
            active = active[horizon[active] > t]
        pos %= law.q
        return pos

    return _mc.run_chunked(n_walks, seed, workers, draw)


def unit_rate_embedding(law: IncrementLaw) -> AtomicMeasure:
    """Jump measure whose continuous-time eigenvalues are exp(-tau(1-rho)).

    Atoms sit at the scaled lattice points v/q with weight P(V=v)*|v/q|
    for v != 0; the v = 0 mass drops out of the generator.
    """
    p = law.pmf()
    states = all_states(law.q, law.d).astype(float) / law.q
    sizes = states.sum(axis=1)
    keep = (sizes > 0) & (p > 0)
    return AtomicMeasure(states[keep], p[keep] * sizes[keep])


def ct_eigenvalues(measure: AtomicMeasure, tau: float, q: int, d: int) -> Spectrum:
    """Continuous-time eigenvalues exp{tau * sum_a w_a (e^(2 pi i xi_a.r)-1)/|xi_a|}.

    Atoms live on [0,1)^d with |xi| the L1 norm; |xi| = 0 atoms are
    rejected.  Semigroup in tau; rho(0) = 1 identically.
    """
    if tau < 0:
        raise RangeError(f"tau must be >= 0, got {tau}")
    pts = np.atleast_2d(measure.points)
    if pts.shape[1] != d:
        raise RangeError(f"atoms must have dimension {d}")
    sizes = np.abs(pts).sum(axis=1)
    if np.any(sizes <= 0):
        raise RangeError("invalid measure: atom with |xi| = 0")
    exponent = np.zeros(size(q, d), dtype=complex)
    for xi, w, s in zip(pts, measure.weights, sizes):
        vecs = [np.exp(2j * np.pi * x * np.arange(q)) for x in xi]
        exponent += (w / s) * (axis_tensor(vecs) - 1.0)
    return Spectrum(np.exp(tau * exponent), q, d)


BUILTIN_FAMILIES = ("uniform", "deterministic", "product_iid",
                    "definetti_mixture", "sparse_exchangeable")


def builtin_law(family: str, q: int, d: int) -> IncrementLaw:
    """A representative law of each built-in family, used by the verify suite."""
    if family == "uniform":
        return UniformLaw(q, d)
    if family == "deterministic":
        return DeterministicLaw(q, d, tuple([1] * d))
    if family == "product_iid":
        p = np.arange(1.0, q + 1.0)
        return ProductIIDLaw(q, d, p=p / p.sum())
    if family == "definetti_mixture":
        return lazy_walk(q, d, [0.3, 0.6])
    if family == "sparse_exchangeable":
        # mass at 0 keeps the slot marginals non-uniform, so no
        # frequency inside the support accidentally vanishes
        c = min(2, d)
        n = q**c
        joint = np.full(n, 0.4 / n)
        diag = rank(np.repeat(np.arange(q), c).reshape(q, c), q)
        joint[diag] += 0.3 / q
        joint[0] += 0.3
        return SparseExchangeableLaw(q, d, c, joint=joint)
    raise RangeError(f"unknown family {family!r}")
