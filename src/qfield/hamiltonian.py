"""Quadratic forms, partition functions and random-bond spin quantities.

The field driver change of variables diagonalizes the precision form
I - alpha P: for the alpha-scaled field g(alpha) synthesized through
weights (1/alpha - rho[r])^(-1/2),

    (1/2 alpha) conj(g)^T (I - alpha P) g = (1/2) sum_r gr^2,

with Jacobian J = alpha^(q^d/2) prod_r (1 - alpha rho[r])^(-1/2) and
partition function Z = (2 pi / beta)^(q^d/2) J, computed in log space.

The random-bond layer takes the delta bonds H_y = -g_y, so every Potts
quantity is diagonal in frequency and reads the Green kernel k of
lambda(Re rho): the annealed partition function is
E[Z] = sum_y exp{(beta^2/2) k(2y mod q)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldSample, ReversibilityError
from .green import green_eigenvalues, green_exact
from .krawtchouk import degree_indices, kappa_from_law, scale_constant_inv
from .lattice import (RangeError, budget, circulant_from_kernel, dft,
                      gather_digits, size)
from .walks import (PMF_TOL, ContractError, Spectrum, transition_kernel,
                    transition_matrix)


def hamiltonian_identity_check(spec: Spectrum, alpha: float, g
                               ) -> tuple[float, float, float]:
    """Dirichlet-plus-mass identity against the inverse-Green form.

    lhs = 1/4 sum_xy P[x,y](g_x - g_y)^2 + (1-alpha)/(2 alpha) sum g^2
    rhs = 1/(2 alpha) g^T (I - alpha P) g
    Returns (lhs, rhs, |lhs - rhs|).  alpha = 0 is undefined and raises
    RangeError like every alpha outside (0, 1).
    """
    _check_identity_args(spec, alpha)
    return _identity(transition_matrix(spec), alpha, g)


def _check_identity_args(spec: Spectrum, alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise RangeError(f"alpha must lie in (0, 1), got {alpha}")
    if not spec.is_real:
        raise ReversibilityError("identity requires real eigenvalues")


def _identity(p: np.ndarray, alpha: float, g) -> tuple[float, float, float]:
    """The identity for one test vector g, given the dense P."""
    g = np.asarray(g, dtype=float)
    diff = g[:, None] - g[None, :]
    lhs = 0.25 * float(np.sum(p * diff**2)) \
        + (1.0 - alpha) / (2.0 * alpha) * float(g @ g)
    rhs = float(g @ (g - alpha * (p @ g))) / (2.0 * alpha)
    return lhs, rhs, abs(lhs - rhs)


def scaled_field_from_driver(driver, spec: Spectrum, alpha: float) -> np.ndarray:
    """g(alpha)[x] = q^(-d/2) sum_r (1/alpha - rho[r])^(-1/2) theta^(x.r) gr."""
    if not 0.0 < alpha < 1.0:
        raise RangeError(f"alpha must lie in (0, 1), got {alpha}")
    if not spec.is_real:
        raise ReversibilityError("scaled field requires real eigenvalues")
    weights = 1.0 / np.sqrt(1.0 / alpha - spec.rho.real)
    return dft(np.asarray(driver) * weights, spec.q, spec.d, inverse=True)


def hamiltonian_value(driver, spec: Spectrum, alpha: float) -> float:
    """Hermitian energy (1/2 alpha) conj(g)^T (I - alpha P) g of the
    alpha-scaled field; equals (1/2) sum gr^2 by unitary diagonalization.

    P g is the convolution with the validated transition kernel, taken
    through the lattice transform."""
    g = scaled_field_from_driver(driver, spec, alpha)
    return _energy(g, _kernel_transform(transition_kernel(spec), spec),
                   spec, alpha)


def _kernel_transform(kernel: np.ndarray, spec: Spectrum) -> np.ndarray:
    """k_hat = q^(d/2) dft(k), so that dft(P f) = k_hat * dft(f)."""
    q, d = spec.q, spec.d
    return math.sqrt(size(q, d)) * dft(kernel, q, d)


def _energy(g: np.ndarray, k_hat: np.ndarray, spec: Spectrum,
            alpha: float) -> float:
    """(1/2 alpha) conj(g)^T (I - alpha P) g of a scaled field g."""
    q, d = spec.q, spec.d
    pg = dft(k_hat * dft(g, q, d), q, d, inverse=True)
    val = np.real(np.conj(g) @ (g - alpha * pg)) / (2.0 * alpha)
    return float(val)


def identity_residuals(spec: Spectrum, alpha: float, rng, n_vectors: int
                       ) -> tuple[float, float, float]:
    """Worst identity residual, its relative form |lhs - rhs| / (1 + |lhs|)
    and the worst diagonalization gap |hamiltonian_value - (1/2) sum gr^2|
    over ``n_vectors`` draws; each draw takes a test vector g, then a
    driver, from ``rng``.  P and its kernel transform are built once."""
    n = size(spec.q, spec.d)
    _check_identity_args(spec, alpha)
    budget(f"{n_vectors} identity checks at {n} points", entries=n * n,
           steps=n_vectors, touched=n_vectors * n * n)
    kernel = transition_kernel(spec)
    p = circulant_from_kernel(kernel, spec.q, spec.d)
    k_hat = _kernel_transform(kernel, spec)
    res_max = rel_max = diag_gap = 0.0
    for _ in range(n_vectors):
        g = rng.standard_normal(n)
        lhs, _, res = _identity(p, alpha, g)
        res_max = max(res_max, res)
        rel_max = max(rel_max, res / (1.0 + abs(lhs)))
        drv = rng.standard_normal(n)
        field = scaled_field_from_driver(drv, spec, alpha)
        diag_gap = max(diag_gap, abs(_energy(field, k_hat, spec, alpha)
                                     - 0.5 * float(drv @ drv)))
    return res_max, rel_max, diag_gap


@dataclass
class PartitionResult:
    log_jacobian: float
    log_z: float
    jacobian: float | None
    z: float | None
    representable: bool


def partition_function(spec: Spectrum, alpha: float, beta: float
                       ) -> PartitionResult:
    """log J = (q^d/2) log alpha - 1/2 sum_r log(1 - alpha rho[r]);
    log Z = (q^d/2) log(2 pi / beta) + log J.  Log space throughout;
    Z and J are materialized only when they fit a double."""
    if beta <= 0:
        raise RangeError(f"beta must be > 0, got {beta}")
    if not 0.0 < alpha < 1.0:
        raise RangeError(f"alpha must lie in (0, 1), got {alpha}")
    if not spec.is_real:
        raise ReversibilityError("partition function requires real eigenvalues")
    n = size(spec.q, spec.d)
    log_j = 0.5 * n * math.log(alpha) \
        - 0.5 * float(np.sum(np.log1p(-alpha * spec.rho.real)))
    log_z = 0.5 * n * math.log(2.0 * math.pi / beta) + log_j
    representable = abs(log_z) < 700 and abs(log_j) < 700
    return PartitionResult(
        log_j, log_z,
        math.exp(log_j) if abs(log_j) < 700 else None,
        math.exp(log_z) if representable else None,
        representable)


def grouping_identity_residual(law, alpha: float) -> float:
    """| -1/2 sum_r q^-d log(1-alpha rho_r)
       + 1/2 sum_l (d choose l+) q^-d log(1-alpha kappa_l) |.

    Exact for exchangeable laws: kappa_l repeats h_l^-1 times among the
    rho_r.
    """
    n = size(law.q, law.d)
    ungrouped = 0.5 * log_z_density_gap(law.spectrum(), alpha)
    grouped = 0.0
    for l in degree_indices(law.q, law.d):
        kap = kappa_from_law(law, l).real
        grouped += -0.5 * scale_constant_inv(l, law.d) \
            * math.log1p(-alpha * kap) / n
    return abs(ungrouped - grouped)


def log_z_density_gap(spec: Spectrum, alpha: float) -> float:
    """(2/q^d) log Z - log(2 pi alpha / beta) = -q^-d sum_r log(1-alpha rho_r).

    The beta-free part of the partition density that the d -> infinity
    limit controls.
    """
    if not 0.0 < alpha < 1.0:
        raise RangeError(f"alpha must lie in (0, 1), got {alpha}")
    n = size(spec.q, spec.d)
    return -float(np.sum(np.log1p(-alpha * spec.rho.real))) / n


@dataclass
class LogZLimit:
    value: float
    expectation_term: float
    finite_at_alpha_one: bool
    c_constant: float


def log_z_limit(z_values, weights, alpha: float, beta: float, q: int,
                c: float | None = None) -> LogZLimit:
    """Limit partition density log(2 pi alpha / beta)
    + E[-log(1 - alpha e^(-c |Z|))] over an atomic |Z| measure.

    The decay constant defaults to (2q-1)/q and may be overridden (the
    finite-d oracle is the arbiter; see the verify suite).  Also reports
    whether the alpha -> 1 limit stays finite, which for atoms means no
    mass at |Z| = 0.
    """
    if not 0.0 < alpha < 1.0:
        raise RangeError(f"alpha must lie in (0, 1), got {alpha}")
    if beta <= 0:
        raise RangeError(f"beta must be > 0, got {beta}")
    z_values = np.asarray(z_values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if np.any(z_values < 0):
        raise RangeError("|Z| atoms must be >= 0")
    if abs(weights.sum() - 1.0) > PMF_TOL or np.any(weights < 0):
        raise RangeError("weights must be a probability vector")
    c_val = (2.0 * q - 1.0) / q if c is None else float(c)
    inner = alpha * np.exp(-c_val * z_values)
    if np.any(inner >= 1.0):
        raise RangeError("log singularity: alpha e^(-c|z|) >= 1")
    expect = float(weights @ (-np.log1p(-inner)))
    value = math.log(2.0 * math.pi * alpha / beta) + expect
    finite = bool(np.all(z_values[weights > 0] > 0))
    return LogZLimit(value, expect, finite, c_val)


@dataclass
class PottsSpec:
    """Delta-bond random-bond setup: the field source and the inverse
    temperature beta."""

    spec: Spectrum
    alpha: float
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise RangeError(f"beta must be > 0, got {self.beta}")


def potts_hamiltonian(pspec: PottsSpec, sample: FieldSample) -> np.ndarray:
    """H_y = -g_y per sample, shape (n_samples, q^d)."""
    return -np.atleast_2d(sample.values)


def bond_coefficients(driver, spec: Spectrum, alpha: float) -> np.ndarray:
    """J_r = q^(-d/2) gr sqrt(lambda[r]): the random bonds of the model."""
    lam = green_eigenvalues(spec.rho.real, alpha)
    n = size(spec.q, spec.d)
    return np.asarray(driver) * np.sqrt(lam) / math.sqrt(n)


def gibbs(pspec: PottsSpec, sample: FieldSample) -> np.ndarray:
    """Gibbs weights e^(beta H_y) / Z per sample; H must be real."""
    h = potts_hamiltonian(pspec, sample)
    if np.max(np.abs(h.imag)) > 1e-9:
        raise ContractError("Gibbs measure needs real Hamiltonians "
                            "(complex H_y beyond tolerance)")
    logits = pspec.beta * h.real
    logits -= logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=-1, keepdims=True)


def expected_partition(pspec: PottsSpec) -> float:
    """Annealed E[Z] = sum_y prod_r exp{beta^2 lambda_r theta^(2y.r) / (2q^d)}
    = sum_y exp{(beta^2/2) k(2y mod q)}, where k is the Green kernel of
    lambda(Re rho); k is real since Re rho is even in r."""
    spec, alpha, beta = pspec.spec, pspec.alpha, pspec.beta
    q, d = spec.q, spec.d
    lam = green_eigenvalues(spec.rho.real, alpha)
    kernel = (dft(lam, q, d, inverse=True) / math.sqrt(size(q, d))).real
    at_2y = gather_digits(kernel, [2 * np.arange(q) % q] * d, q, d)
    return float(np.sum(np.exp((0.5 * beta**2) * at_2y)))


def log_expected_partition_delta(spec: Spectrum, alpha: float,
                                 beta: float) -> float:
    """Closed form for q = 2, b = delta: d log 2 + beta^2 sigma^2 / 2."""
    if spec.q != 2:
        raise ContractError("closed form is the q = 2, b = delta path")
    sigma2 = float(green_exact(spec, alpha, materialize=False).kernel[0])
    return spec.d * math.log(2.0) + 0.5 * beta**2 * sigma2


def free_energy_expansion(pspec: PottsSpec) -> float:
    """Low-temperature-free expansion through O(beta):

    F = (d/beta) log q + (beta/2) [ q^-d sum_y E|H_y|^2
                                    - q^-2d E|sum_y H_y|^2 ]
      = (d/beta) log q + (beta/2) [ k(0) - q^-d sum_z k(z) ]

    with k the exact Green kernel, since E[H_y conj(H_y')] = k(y - y').
    """
    spec, alpha, beta = pspec.spec, pspec.alpha, pspec.beta
    kernel = green_exact(spec, alpha, materialize=False).kernel
    spread = float(kernel[0]) - float(np.sum(kernel)) / kernel.size
    return (spec.d / beta) * math.log(spec.q) + 0.5 * beta * spread
