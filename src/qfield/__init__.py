"""Spectral random walks on {0,..,q-1}^d and the Gaussian fields they drive.

Submodules, in layer order (each imports only from earlier ones)
-----------------------------------------------------------------
lattice       ranks, digit views, type classes, unitary DFT, size budget
_mc           seeded Monte Carlo in blocks, whatever the worker count
walks         increment laws, eigenvalues, kernels, killed simulation
krawtchouk    multivariate Krawtchouk polynomials and the count chain
green         killed-walk Green operators, resolvent, torus truncations
pointprocess  killed transform point processes and moment identities
fields        Gaussian fields with Green covariance, count/torus fields
limits        d -> infinity layer: limit polynomials, transforms, densities
hamiltonian   quadratic forms, partition functions, random-bond spins
verify        the cross-module invariant suite behind ``qfield verify``
cli           the ``qfield`` command-line front end
"""

__version__ = "0.1.0"

from .lattice import dft, rank, size, unrank
from .walks import (
    DeFinettiMixtureLaw,
    DeterministicLaw,
    IncrementLaw,
    KillingLaw,
    ProductIIDLaw,
    SparseExchangeableLaw,
    Spectrum,
    UniformLaw,
    law_from_json,
    lazy_walk,
    transition_matrix,
)
from .green import GreenOperator, green_exact, green_mc, resolvent
from .fields import FieldSample, invert_field, sample_field
from .pointprocess import PointProcessSpec, XiAtom, y_moment

__all__ = [
    "__version__",
    "dft", "rank", "size", "unrank",
    "IncrementLaw", "UniformLaw", "DeterministicLaw", "ProductIIDLaw",
    "DeFinettiMixtureLaw", "SparseExchangeableLaw", "KillingLaw", "Spectrum",
    "law_from_json", "lazy_walk", "transition_matrix",
    "GreenOperator", "green_exact", "green_mc", "resolvent",
    "FieldSample", "sample_field", "invert_field",
    "PointProcessSpec", "XiAtom", "y_moment",
]
