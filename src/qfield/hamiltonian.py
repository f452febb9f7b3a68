"""Quadratic forms, partition functions and random-bond spin quantities.

The field driver change of variables diagonalizes the precision form
I - alpha P: for the alpha-scaled field g(alpha) synthesized through
weights (1/alpha - rho[r])^(-1/2),

    (1/2 alpha) conj(g)^T (I - alpha P) g = (1/2) sum_r gr^2,

with Jacobian J = alpha^(q^d/2) prod_r (1 - alpha rho[r])^(-1/2) and
partition function Z = (2 pi / beta)^(q^d/2) J, computed in log space.

The random-bond layer regresses a Hamiltonian on spin monomials:
H_y = -sum_x b(y, x) g_x; with nonrandom b the annealed partition
function E[Z] has a per-frequency Gaussian product form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import FieldSample, ReversibilityError
from .green import green_eigenvalues, green_exact
from .lattice import MATERIAL_LIMIT, RangeError, dft, size
from .walks import ContractError, Spectrum, transition_matrix


@dataclass
class QuadraticForm:
    """Precision form K = I - alpha P with eigenvalues 1 - alpha rho[r]."""

    q: int
    d: int
    alpha: float
    matrix: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)


def quadratic_form(spec: Spectrum, alpha: float) -> QuadraticForm:
    if not 0.0 <= alpha < 1.0:
        raise RangeError(f"alpha must lie in [0, 1), got {alpha}")
    p = transition_matrix(spec)
    k = np.eye(size(spec.q, spec.d)) - alpha * p
    return QuadraticForm(spec.q, spec.d, alpha, k, 1.0 - alpha * spec.rho)


def hamiltonian_identity_check(spec: Spectrum, alpha: float, g
                               ) -> tuple[float, float, float]:
    """Dirichlet-plus-mass identity against the inverse-Green form.

    lhs = 1/4 sum_xy P[x,y](g_x - g_y)^2 + (1-alpha)/(2 alpha) sum g^2
    rhs = 1/(2 alpha) g^T (I - alpha P) g
    Returns (lhs, rhs, |lhs - rhs|).  alpha = 0 is undefined.
    """
    if alpha == 0.0:
        raise ZeroDivisionError("identity undefined at alpha = 0")
    if not 0.0 < alpha < 1.0:
        raise RangeError(f"alpha must lie in (0, 1), got {alpha}")
    if not spec.is_real:
        raise ReversibilityError("identity requires real eigenvalues")
    g = np.asarray(g, dtype=float)
    p = transition_matrix(spec)
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
    alpha-scaled field; equals (1/2) sum gr^2 by unitary diagonalization."""
    g = scaled_field_from_driver(driver, spec, alpha)
    p = transition_matrix(spec)
    val = np.real(np.conj(g) @ (g - alpha * (p @ g))) / (2.0 * alpha)
    return float(val)


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
    from .krawtchouk import degree_indices, kappa_from_law, scale_constant_inv

    spec = law.spectrum()
    n = size(law.q, law.d)
    ungrouped = -0.5 * float(np.sum(np.log1p(-alpha * spec.rho.real))) / n
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
    if abs(weights.sum() - 1.0) > 1e-12 or np.any(weights < 0):
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
    """Random-bond setup: coefficients b(y, x) (None means delta), inverse
    temperature beta, and the field source."""

    spec: Spectrum
    alpha: float
    beta: float
    b: np.ndarray | None = None

    def __post_init__(self):
        if self.beta <= 0:
            raise RangeError(f"beta must be > 0, got {self.beta}")
        n = size(self.spec.q, self.spec.d)
        if self.b is not None:
            self.b = np.asarray(self.b, dtype=complex)
            if self.b.shape != (n, n):
                raise RangeError(f"b must be {n} x {n} or None (delta)")


def potts_hamiltonian(pspec: PottsSpec, sample: FieldSample) -> np.ndarray:
    """H_y = -sum_x b(y, x) g_x per sample, shape (n_samples, q^d).

    b = delta gives H_y = -g_y.
    """
    values = np.atleast_2d(sample.values)
    if pspec.b is None:
        return -values
    return -values @ pspec.b.T


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
    """Annealed E[Z] = sum_y prod_r exp{beta^2 lambda_r B_r(y)^2 / (2 q^d)}
    for nonrandom b, with B_r(y) = sum_x b(y, x) theta^(x.r).  The default
    b = delta is a dense identity: RangeError above ``MATERIAL_LIMIT``."""
    spec, alpha, beta = pspec.spec, pspec.alpha, pspec.beta
    n = size(spec.q, spec.d)
    lam = green_eigenvalues(spec.rho.real, alpha)
    if pspec.b is None:
        if n > MATERIAL_LIMIT:
            raise RangeError(f"b = delta on {n} lattice points exceeds the "
                             f"materialization limit of {MATERIAL_LIMIT}")
        b = np.eye(n, dtype=complex)
    else:
        b = pspec.b
    bigb = dft(b, spec.q, spec.d, inverse=True) * math.sqrt(n)  # rows: B_r(y)
    exponents = (beta**2 / (2.0 * n)) * (bigb**2) @ lam
    if np.max(np.abs(exponents.imag)) > 1e-9:
        raise ContractError("E[Z] exponents are not real; b is incompatible")
    return float(np.sum(np.exp(exponents.real)))


def log_expected_partition_delta(spec: Spectrum, alpha: float,
                                 beta: float) -> float:
    """Closed form for q = 2, b = delta: d log 2 + beta^2 sigma^2 / 2."""
    if spec.q != 2:
        raise ContractError("closed form is the q = 2, b = delta path")
    sigma2 = float(green_exact(spec, alpha).kernel[0])
    return spec.d * math.log(2.0) + 0.5 * beta**2 * sigma2


def free_energy_expansion(pspec: PottsSpec) -> float:
    """Low-temperature-free expansion through O(beta):

    F = (d/beta) log q + (beta/2) [ q^-d sum_y E|H_y|^2
                                    - q^-2d E|sum_y H_y|^2 ].

    Exact covariance input; for q = 2, b = delta this is
    (d/beta) log 2 + (beta/2)(sigma^2 - 2^-d).
    """
    spec, alpha, beta = pspec.spec, pspec.alpha, pspec.beta
    n = size(spec.q, spec.d)
    g = green_exact(spec, alpha, materialize=True).matrix
    if pspec.b is None:
        b = np.eye(n, dtype=complex)
    else:
        b = pspec.b
    cov_h = b @ g @ b.conj().T  # E[H_y conj(H_y')] entries
    term1 = float(np.trace(cov_h).real) / n
    term2 = float(np.sum(cov_h).real) / n**2
    return (spec.d / beta) * math.log(spec.q) + 0.5 * beta * (term1 - term2)
