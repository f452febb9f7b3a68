"""Gaussian fields whose covariance is the normalized Green kernel.

Synthesis from real i.i.d. standard normal drivers gr:

    g[x] = q^(-d/2) sum_r sqrt(lambda[r]) theta^(x.r) gr[r],

so E[g_x conj(g_y)] = (1-alpha) G(x, y; alpha).  Real eigenvalues
(reversibility) are required; the inverse map recovers the driver by one
forward transform.  Count-indexed fields use the Krawtchouk synthesis
with weights sqrt(h_l lambda_l), ranked-class sums expose the spin-glass
grouping, and truncated torus fields mirror the torus Green expansion.

Drivers are real, not circular: only the conjugate pairing
E[g conj(g)] is contractual; E[g g] equals the transform of lambda at
x + y and is checked, not promised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _mc
from .green import WrappedLaw, frequency_box, green_eigenvalues
from .krawtchouk import kappa_getter, table
from .lattice import (NumericalError, RangeError, budget, dft, size,
                      state_type_counts, unrank)
from .walks import Spectrum


class ReversibilityError(NumericalError):
    """Field construction requires real walk eigenvalues."""


def synthesis_weights(spec: Spectrum, alpha: float) -> np.ndarray:
    """sqrt(lambda[r]); demands a real spectrum."""
    if not spec.is_real:
        raise ReversibilityError(
            "field synthesis requires real eigenvalues (symmetric jumps)")
    lam = green_eigenvalues(spec.rho.real, alpha)
    return np.sqrt(lam)


@dataclass
class FieldSample:
    """Field values with the drivers that synthesized them."""

    values: np.ndarray   # (n_samples, q^d) complex
    driver: np.ndarray   # (n_samples, q^d) real
    alpha: float


def sample_field(spec: Spectrum, alpha: float, seed: int,
                 n_samples: int = 1, workers: int = 1) -> FieldSample:
    """Draw fields; deterministic given the seed, whatever ``workers``."""
    weights = synthesis_weights(spec, alpha)
    n = size(spec.q, spec.d)
    # a row has q^d entries, so even block 0 can exceed the budget alone
    budget(f"{n_samples} fields of {n} points", entries=n_samples * n)

    def draw(rng, m):
        return rng.standard_normal((m, n))

    driver = _mc.run_chunked(n_samples, seed, workers, draw)
    values = dft(driver * weights[None, :], spec.q, spec.d, inverse=True)
    return FieldSample(values, driver, alpha)


def invert_field(values: np.ndarray, spec: Spectrum, alpha: float) -> np.ndarray:
    """Recover drivers: gr = forward(values) / sqrt(lambda)."""
    weights = synthesis_weights(spec, alpha)
    coeffs = dft(values, spec.q, spec.d) / weights
    return coeffs.real


def dual_field(driver: np.ndarray, q: int, d: int) -> np.ndarray:
    """Unweighted companion field g*[y] = sum_r theta^(y.r) gr[r]."""
    n = size(q, d)
    return dft(driver, q, d, inverse=True) * math.sqrt(n)


@dataclass
class CountFieldSample:
    """Type-count-indexed field with per-degree drivers."""

    values: np.ndarray       # (n_samples, n_counts) complex
    driver: np.ndarray       # (n_samples, n_degrees) real
    counts: list[tuple[int, ...]]
    degrees: list[tuple[int, ...]]
    alpha: float


def sample_count_field(kappas, q: int, d: int, alpha: float, seed: int,
                       n_samples: int = 1) -> CountFieldSample:
    """Count field g[m] = q^(-d/2) sum_l sqrt(h_l lambda_l) Q_l(m) gl.

    Covariance is the grouped Green display; the l = 0 term contributes
    the constant q^(-d/2) g_{l0}.  Requires real grouped eigenvalues.
    """
    tab = table(q, d)
    get = kappa_getter(kappas)
    kap = np.array([complex(get(l)) for l in tab.degrees])
    if np.max(np.abs(kap.imag)) > 1e-10:
        raise ReversibilityError("count field requires real grouped eigenvalues")
    lam = green_eigenvalues(kap.real, alpha)
    weights = np.sqrt(lam / tab.h_inv)
    driver = _mc.run_chunked(n_samples, seed, 1, lambda rng, m:
                             rng.standard_normal((m, len(tab.degrees))))
    values = (driver * weights[None, :]) @ tab.values / q ** (d / 2.0)
    return CountFieldSample(values, driver, tab.counts, tab.degrees, alpha)


def ranked_classes(q: int, d: int) -> dict[tuple[int, ...], np.ndarray]:
    """Ranks of r grouped by sorted(r) descending (spin-glass classes): the
    type classes, keyed by their lowest rank's digits and in its order."""
    _, classes = state_type_counts(q, d)
    groups = np.split(np.argsort(classes, kind="stable"),
                      np.cumsum(np.bincount(classes))[:-1])
    groups.sort(key=lambda g: g[0])
    return {unrank(int(g[0]), q, d): g for g in groups}


def ranked_class_sum(driver: np.ndarray, x, ranked: tuple[int, ...],
                     q: int, d: int) -> complex:
    """sum_{r in [ranked]} theta^(r.x) gr[r] for one ranked class.

    For q = 2 and |ranked| = j ones this is the degree-j spin-glass term
    sum_{i1<..<ij} (-1)^(x[i1]+..+x[ij]) g_{i1..ij} after relabeling.
    """
    classes = ranked_classes(q, d)
    key = tuple(sorted((int(v) for v in ranked), reverse=True))
    if key not in classes:
        raise RangeError(f"no ranked class {ranked!r} at q={q}, d={d}")
    idx = classes[key]
    x = np.asarray(x, dtype=np.int64)
    phases = np.exp(2j * np.pi * (unrank(idx, q, d) @ x) / q)
    return complex(phases @ np.asarray(driver)[idx])


@dataclass
class TorusFieldSample:
    values: np.ndarray       # (n_samples, n_grid) complex
    driver: np.ndarray       # (n_samples, n_freqs) real
    grid: np.ndarray         # (n_grid, d)
    freqs: np.ndarray        # (n_freqs, d)
    alpha: float


def sample_torus_field(law: WrappedLaw, alpha: float, radius: int, seed: int,
                       grid: np.ndarray, n_samples: int = 1,
                       mode: str = "Z") -> TorusFieldSample:
    """Truncated torus field g[b] = sum_|r|<=R sqrt(lambda_r) e^(2 pi i b.r) gr.

    Real (symmetric) eigenvalues enforced; the empirical covariance on
    the grid targets the same-box truncated Green sum.
    """
    freqs = frequency_box(law.d, radius, mode)
    rho = law.rho(freqs)
    if np.max(np.abs(rho.imag)) > 1e-10:
        raise ReversibilityError("torus field requires a symmetric wrapped law")
    lam = green_eigenvalues(rho.real, alpha)
    weights = np.sqrt(lam)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    driver = _mc.run_chunked(n_samples, seed, 1, lambda rng, m:
                             rng.standard_normal((m, len(freqs))))
    basis = np.exp(2j * np.pi * grid @ freqs.T)  # (n_grid, n_freqs)
    values = (driver * weights[None, :]) @ basis.T
    return TorusFieldSample(values, driver, grid, freqs, alpha)


def empirical_covariance(values: np.ndarray) -> np.ndarray:
    """E-hat[g_x conj(g_y)] over samples (axis 0)."""
    v = np.asarray(values)
    return v.T @ v.conj() / v.shape[0]


def covariance_stderr(values: np.ndarray) -> np.ndarray:
    """Entrywise standard error of :func:`empirical_covariance`.

    The sample variance of p_s = v[s, x] conj(v[s, y]) over n samples is
    (sum_s |p_s|^2 - n |mean p|^2) / (n - 1), and
    sum_s |p_s|^2 = sum_s |v[s, x]|^2 |v[s, y]|^2, so two N x N products
    replace the (n, N, N) table of p_s.  Rounding can push the difference
    below 0; it is clamped there.
    """
    v = np.asarray(values)
    n = v.shape[0]
    if n < 2:
        raise RangeError(f"a standard error needs at least 2 samples, got {n}")
    sq = v.real ** 2
    if np.iscomplexobj(v):
        sq += v.imag ** 2
    mean = empirical_covariance(v)
    var = (sq.T @ sq - n * np.abs(mean) ** 2) / (n - 1)
    return np.sqrt(np.maximum(var, 0.0) / n)
