"""Green functions of walks killed at rate 1 - alpha.

The normalized Green kernel used everywhere downstream is

    (1-alpha) G(x, y; alpha) = (1-alpha) sum_t alpha^t P^t[x, y]
                             = q^-d sum_r lambda[r] theta^((x-y).r),

with lambda[r] = 1 / (1 + alpha/(1-alpha) * (1 - rho[r])).  This matches
the spectral display; alpha = 0 gives the identity.

Also here: the grouped (type-count) form, the Monte-Carlo estimator from
killed-walk endpoints, the continuous-time resolvent
(alpha = 1/(1+varkappa)), and truncated torus Green sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import (MATERIAL_LIMIT, RangeError, circulant_from_kernel,
                      circulant_row, dft, point, rank, size)
from .krawtchouk import (degree_indices, kappa_getter, krawtchouk_values,
                         log_scale_constant_inv)
from .walks import IncrementLaw, KillingLaw, Spectrum, simulate_killed


def green_eigenvalues(rho: np.ndarray, alpha: float) -> np.ndarray:
    """lambda[r] = 1/(1 + alpha/(1-alpha) (1 - rho[r]))."""
    if not 0.0 <= alpha < 1.0:
        raise RangeError(f"alpha must lie in [0, 1), got {alpha}")
    return 1.0 / (1.0 + alpha / (1.0 - alpha) * (1.0 - np.asarray(rho)))


@dataclass
class GreenOperator:
    """Normalized killed-walk Green operator (1-alpha) G."""

    q: int
    d: int
    alpha: float
    lam: np.ndarray = field(repr=False)
    kernel: np.ndarray = field(repr=False)
    matrix: np.ndarray | None = field(default=None, repr=False)

    def row(self, x) -> np.ndarray:
        """(1-alpha) G(x, .): row of the operator as a lattice array."""
        return circulant_row(self.kernel, x, self.q, self.d)

    def entry(self, x, y) -> float:
        z = (point(x, self.q, self.d) - point(y, self.q, self.d)) % self.q
        return float(self.kernel[rank(z, self.q)])


def green_exact(spec: Spectrum, alpha: float,
                materialize: bool | None = None) -> GreenOperator:
    """Exact Green operator by one inverse transform of the eigenvalues."""
    lam = green_eigenvalues(spec.rho, alpha)
    n = size(spec.q, spec.d)
    kernel = dft(lam, spec.q, spec.d, inverse=True) / math.sqrt(n)
    if np.max(np.abs(kernel.imag)) > 1e-10:
        raise RangeError("Green kernel has imaginary residue; eigenvalues invalid")
    kernel = kernel.real
    if materialize is None:
        materialize = n <= MATERIAL_LIMIT
    matrix = circulant_from_kernel(kernel, spec.q, spec.d) if materialize else None
    return GreenOperator(spec.q, spec.d, alpha, lam, kernel, matrix)


def green_grouped(kappas, q: int, d: int, alpha: float, m, n) -> float:
    """Grouped Green value for type counts m, n (exchangeable walks).

    Returns q^-d {1 + sum_{0<|l|<=d} h_l lambda_l Q_l(m) conj(Q_l(n))},
    the average of (1-alpha) G(x, y) over y in the type class of n for
    any x with counts m (pointwise equal when the class is a singleton).
    """
    return float(grouped_sum(kappas, alpha, q, d, m, n, degree_indices(q, d))
                 / q**d)


def grouped_sum(kappas, alpha: float, q: int, d: int, m, n, degrees) -> float:
    """Re sum_l h_l lambda_l Q_l(m) conj(Q_l(n)) over ``degrees``, h_l taken
    as exp(-log h_l^-1); the count vectors m, n must sum to d."""
    if sum(int(v) for v in m) != d or sum(int(v) for v in n) != d:
        raise RangeError(f"count vectors must sum to d = {d}")
    get = kappa_getter(kappas)
    q_m = krawtchouk_values(m, degrees, q).tolist()
    q_n = krawtchouk_values(n, degrees, q).tolist()
    acc = 0.0 + 0.0j
    for l, a, b in zip(degrees, q_m, q_n):
        h_l = math.exp(-log_scale_constant_inv(l, d))
        lam_l = grouped_green_eigenvalue(complex(get(l)), alpha)
        acc += h_l * lam_l * a * np.conj(b)
    return acc.real


def grouped_green_eigenvalue(kappa_l: complex, alpha: float) -> complex:
    """lambda_l for one grouped eigenvalue."""
    return complex(green_eigenvalues(np.array([kappa_l]), alpha)[0])


def green_mc(law: IncrementLaw, alpha: float, x0, n_walks: int, seed: int,
             workers: int = 1) -> np.ndarray:
    """Empirical pmf of the killed endpoint X_T, a consistent estimate of
    the Green row (1-alpha) G(x0, .)."""
    n = size(law.q, law.d)
    endpoints = simulate_killed(law, x0, KillingLaw(alpha), seed,
                                n_walks=n_walks, workers=workers)
    return np.bincount(rank(endpoints, law.q), minlength=n) / n_walks


def tv_distance(p: np.ndarray, q_: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q_)).sum())


@dataclass
class Resolvent:
    """Continuous-time resolvent u^varkappa; varkappa u = (1-alpha) G."""

    varkappa: float
    alpha: float
    green: GreenOperator

    @property
    def kernel(self) -> np.ndarray:
        return self.green.kernel / self.varkappa

    def matrix(self) -> np.ndarray:
        if self.green.matrix is None:
            raise RangeError("underlying Green operator not materialized")
        return self.green.matrix / self.varkappa


def resolvent(spec: Spectrum, varkappa: float) -> Resolvent:
    """u^varkappa with alpha = 1/(1 + varkappa)."""
    if varkappa <= 0:
        raise RangeError(f"varkappa must be > 0, got {varkappa}")
    alpha = 1.0 / (1.0 + varkappa)
    return Resolvent(varkappa, alpha, green_exact(spec, alpha))


@dataclass
class WrappedLaw:
    """Increment law on the torus [0,1)^d: uniform mass plus finitely
    many atoms.  rho[r] = uniform_weight * delta_{r,0} + sum_i w_i
    e^(2 pi i xi_i . r)."""

    d: int
    atoms: np.ndarray = None          # (n_atoms, d) points in [0,1)
    weights: np.ndarray = None
    uniform_weight: float = 0.0

    def __post_init__(self):
        if self.atoms is None:
            self.atoms = np.zeros((0, self.d))
            self.weights = np.zeros(0)
        self.atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float)) % 1.0
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        total = self.uniform_weight + self.weights.sum()
        if abs(total - 1.0) > 1e-12 or np.any(self.weights < 0) \
                or self.uniform_weight < 0:
            raise RangeError("wrapped law weights must be a probability vector")
        if self.atoms.shape != (len(self.weights), self.d):
            raise RangeError("atoms and weights mismatch")

    def rho(self, freqs: np.ndarray) -> np.ndarray:
        """Eigenvalues at integer frequency vectors (n, d)."""
        freqs = np.atleast_2d(freqs)
        out = np.zeros(len(freqs), dtype=complex)
        if len(self.weights):
            out += np.exp(2j * np.pi * freqs @ self.atoms.T) @ self.weights
        out += self.uniform_weight * np.all(freqs == 0, axis=1)
        return out


def frequency_box(d: int, radius: int, mode: str = "Z") -> np.ndarray:
    """Truncation index set: {-R..R}^d ("Z") or {0..R}^d ("N")."""
    if radius < 0:
        raise RangeError("radius must be >= 0")
    if mode == "Z":
        axis = np.arange(-radius, radius + 1)
    elif mode == "N":
        axis = np.arange(0, radius + 1)
    else:
        raise RangeError(f"mode must be 'Z' or 'N', got {mode!r}")
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@dataclass
class TorusGreenResult:
    """Truncated torus Green evaluation.

    ``smooth_value`` sums alpha*rho*lambda terms (the part that can
    converge); the omitted Dirac part carries coefficient
    ``delta_coefficient`` at a = b.  ``raw_partial_sum`` is the literal
    truncated series sum_r lambda_r e^(2 pi i (a-b).r).  ``tail_bound``
    bounds the smooth terms outside the box when computable (0 for the
    pure-uniform law, None for atomic laws, whose eigenvalues do not
    decay).
    """

    smooth_value: complex
    delta_coefficient: float
    raw_partial_sum: complex
    tail_bound: float | None
    n_terms: int
    delta_singularity: bool


def torus_green_truncated(law: WrappedLaw, alpha: float, a, b, radius: int,
                          mode: str = "Z") -> TorusGreenResult:
    """Partial spectral sum of the torus Green function over a frequency box."""
    if not 0.0 <= alpha < 1.0:
        raise RangeError(f"alpha must lie in [0, 1), got {alpha}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    freqs = frequency_box(law.d, radius, mode)
    rho = law.rho(freqs)
    lam = green_eigenvalues(rho, alpha)
    phases = np.exp(2j * np.pi * freqs @ (a - b))
    raw = complex(lam @ phases)
    smooth_terms = alpha * rho * lam
    smooth = complex(smooth_terms @ phases)
    tail = 0.0 if len(law.weights) == 0 else None
    singular = alpha == 0.0 and bool(np.allclose(a % 1.0, b % 1.0))
    return TorusGreenResult(smooth, 1.0 - alpha, raw, tail, len(freqs), singular)
