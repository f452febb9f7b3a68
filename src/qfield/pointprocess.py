"""Killed point processes of pmf transforms and their moment identities.

Each epoch of a killed horizon T (geometric for phi = 1, negative
binomial for general phi) contributes an independent draw xi from a
finite measure nu of pmf transforms (xi[k] = sum_j theta^(kj) p[j]).
Writing Y[k] for the product of the k-th entries over the horizon,

    E[prod_k Y[k]^l[k]] = (1 + alpha/(1-alpha) * (1 - kappa_l))^(-phi),

with kappa_l = integral prod_k xi[k]^l[k] nu(dxi).  phi = 1/2 gives the
half process whose moments square to the phi = 1 moments, and the joint
Laplace transform of -log|Y[k]| has the same closed form with
|xi[k]|^varphi_k in place of xi[k]^l[k].

Monte-Carlo checks sample either the transform points xi directly or
actual lattice draws grouped into per-degree blocks (partition
construction); both estimate the same moments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _mc
from .lattice import RangeError
from .walks import (IncrementLaw, KillingLaw, _check_degree, _check_pmf,
                    _draw_mixture, lazy_walk, pmf_from_xi, xi_powers,
                    xi_transform)


@dataclass
class XiAtom:
    """One transform point: pmf p on Z_q and xi[k] = sum_j theta^(kj) p[j]."""

    pmf: np.ndarray
    weight: float
    xi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.pmf = _check_pmf(self.pmf, len(self.pmf), "atom")
        if not 0 <= self.weight < math.inf:
            raise RangeError(
                f"atom weight must be finite and nonnegative, got {self.weight}")
        self.xi = xi_transform(self.pmf)
        if np.max(np.abs(pmf_from_xi(self.xi) - self.pmf)) > 1e-12:
            raise RangeError("xi <-> pmf round trip failed")


@dataclass
class PointProcessSpec:
    """Killing parameters plus the finite transform measure nu."""

    alpha: float
    atoms: list[XiAtom]
    phi: float = 1.0

    def __post_init__(self):
        self.killing()
        total = sum(a.weight for a in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise RangeError(f"atom weights sum to {total!r}, not 1")
        self.q = len(self.atoms[0].pmf)
        if any(len(a.pmf) != self.q for a in self.atoms):
            raise RangeError("atoms must share one q")

    def weights(self) -> np.ndarray:
        return np.array([a.weight for a in self.atoms])

    def xi_matrix(self) -> np.ndarray:
        """(n_atoms, q) transform values."""
        return np.stack([a.xi for a in self.atoms])

    def killing(self) -> KillingLaw:
        return KillingLaw(self.alpha, self.phi)


def spec_from_mixture(law: IncrementLaw, alpha: float,
                      phi: float = 1.0) -> PointProcessSpec:
    """Point process driven by the mixing measure of a de Finetti walk."""
    weights, pmfs = law.mixing_measure()
    atoms = [XiAtom(p, float(w)) for w, p in zip(weights, pmfs)]
    return PointProcessSpec(alpha, atoms, phi)


def lazy_spec(q: int, alpha: float, gammas, weights=None,
              phi: float = 1.0) -> PointProcessSpec:
    return spec_from_mixture(lazy_walk(q, 1, gammas, weights), alpha, phi)


def kappa(spec: PointProcessSpec, l) -> complex:
    """kappa_l = sum_atoms w * prod_k xi[k]^l[k]."""
    return complex(spec.weights() @ xi_powers(spec.xi_matrix(), l))


def y_moment(spec: PointProcessSpec, l) -> complex:
    """Closed-form mixed moment E[prod_k Y[k]^l[k]].

    Complex kappa is handled on the principal branch (a warning flags it;
    the Gaussian-field layer requires real kappa and refuses otherwise).
    """
    k = kappa(spec, l)
    base = 1.0 + spec.alpha / (1.0 - spec.alpha) * (1.0 - k)
    if abs(k.imag) > 1e-12:
        warnings.warn("kappa is not real; using the principal power branch",
                      stacklevel=2)
        return complex(base ** (-spec.phi))
    return complex(base.real ** (-spec.phi))


def half_process_residual(spec: PointProcessSpec, l) -> float:
    """| y_moment(phi=1/2)^2 - y_moment(phi=1) | for the same nu, alpha."""
    half = PointProcessSpec(spec.alpha, spec.atoms, 0.5)
    full = PointProcessSpec(spec.alpha, spec.atoms, 1.0)
    return float(abs(y_moment(half, l) ** 2 - y_moment(full, l)))


def _horizon_product_mc(spec: PointProcessSpec, factors: np.ndarray,
                        n_samples: int, seed: int,
                        workers: int) -> tuple[complex, float]:
    """Mean and standard error of prod_atoms factors[a]^counts[a] over the
    walks, counts being the multinomial split of each walk's horizon over
    the atoms: an atom enters only through its per-epoch factor."""
    def draw(rng, m):
        horizons = spec.killing().sample(rng, m)
        counts = rng.multinomial(horizons, spec.weights())
        return np.prod(factors[None, :] ** counts, axis=1)

    return _mc.mean_and_stderr(_mc.run_chunked(n_samples, seed, workers, draw))


def y_moment_mc(spec: PointProcessSpec, l, n_samples: int, seed: int,
                workers: int = 1) -> tuple[complex, float]:
    """Monte-Carlo estimate of the mixed moment from transform products.

    Returns (estimate, standard error).  Each walk multiplies
    prod_k xi_b[k]^l[k] over its horizon.
    """
    return _horizon_product_mc(spec, xi_powers(spec.xi_matrix(), l),
                               n_samples, seed, workers)


def y_moment_mc_points(spec: PointProcessSpec, l, n_samples: int, seed: int,
                       scheme: str = "blocks") -> tuple[complex, float]:
    """Moment estimate from actual lattice draws, not their means.

    Per epoch, degree entry l[k] consumes l[k] distinct coordinates of
    the (conditionally i.i.d.) increment row; each contributes a factor
    theta^(k*V).  ``scheme`` fixes which coordinates feed which degree
    slot ("blocks": consecutive; "interleave": round robin); any disjoint
    assignment gives the same law, which is the point of the check.
    """
    l = _check_degree(l, spec.q)
    if scheme not in ("blocks", "interleave"):
        raise RangeError(f"unknown partition scheme {scheme!r}")
    q = spec.q
    width = sum(l)
    if width == 0:
        return 1.0 + 0.0j, 0.0
    # k-label of each coordinate slot under the chosen partition
    if scheme == "blocks":
        labels = np.repeat(np.arange(1, q), l)
    else:
        labels = np.array([k + 1 for r in range(max(l)) for k in range(q - 1)
                           if l[k] > r])

    def draw(rng, m):
        horizons = spec.killing().sample(rng, m)
        total_epochs = int(horizons.sum())
        draws = _draw_mixture(rng, spec.weights(), [a.pmf for a in spec.atoms],
                              (total_epochs, width))
        phase = (draws * labels[None, :]).sum(axis=1) % q
        epoch_factors = np.exp(2j * np.pi * phase / q)
        # per-walk product over its run of epochs
        boundaries = np.concatenate(([0], np.cumsum(horizons)[:-1]))
        samples = np.ones(m, dtype=complex)
        nonempty = horizons > 0
        samples[nonempty] = np.multiply.reduceat(epoch_factors,
                                                 boundaries[nonempty])
        return samples

    return _mc.mean_and_stderr(_mc.run_chunked(n_samples, seed, 1, draw))


def _laplace_factors(spec: PointProcessSpec, varphi) -> np.ndarray:
    """prod_k |xi[k]|^varphi_k per atom; |xi[k]| = 0 with varphi_k > 0
    contributes a zero factor, not an error."""
    varphi = np.asarray(varphi, dtype=float)
    if varphi.shape != (spec.q - 1,) or np.any(varphi < 0):
        raise RangeError(f"varphi must be length {spec.q - 1}, nonnegative")
    mags = np.abs(spec.xi_matrix()[:, 1:])
    with np.errstate(divide="ignore"):
        return np.prod(np.where((mags == 0) & (varphi[None, :] > 0), 0.0,
                                mags ** varphi[None, :]), axis=1)


def log_laplace(spec: PointProcessSpec, varphi) -> float:
    """Joint Laplace transform of (-log|Y[k]|) at nonnegative varphi.

    [1 + alpha/(1-alpha) sum_atoms w (1 - prod_k |xi[k]|^varphi_k)]^-phi.
    """
    mean_defect = spec.weights() @ (1.0 - _laplace_factors(spec, varphi))
    return float((1.0 + spec.alpha / (1.0 - spec.alpha) * mean_defect)
                 ** (-spec.phi))


def log_laplace_mc(spec: PointProcessSpec, varphi, n_samples: int, seed: int,
                   workers: int = 1) -> tuple[float, float]:
    """Monte-Carlo companion of :func:`log_laplace`."""
    mean, se = _horizon_product_mc(spec, _laplace_factors(spec, varphi),
                                   n_samples, seed, workers)
    return float(mean.real), se
