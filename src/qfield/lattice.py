"""Index arithmetic and Fourier analysis on the lattice {0,..,q-1}^d.

Points of the lattice are plain integer vectors (length d, entries in
[0, q)).  A point x is identified with its little-endian rank
``sum_k x[k] * q**k``, so rank 0 is the origin and the first coordinate
is the fastest-varying digit.  Functions on the lattice are stored as
flat complex arrays of length q**d indexed by rank ("lattice arrays").

The discrete Fourier transform used throughout is the unitary one,

    forward:  c[r] = q^(-d/2) * sum_x f[x] * theta^(-x.r)
    inverse:  f[x] = q^(-d/2) * sum_r c[r] * theta^(x.r)

with theta = exp(2*pi*i/q), computed as d passes of the 1-D
``np.fft.fft``/``ifft`` (``norm="ortho"``), one per digit.  Each pass
runs over contiguous rows of length q and writes its digit back as the
slowest one, so the digits rotate into rank order; the result equals
``np.fft.fftn`` over the d lattice axes bit for bit.  A naive O(q^{2d})
double-sum path is kept as a test oracle.

Dense matrices over lattice pairs, such as the circulant
M[x, y] = k(x - y), are built only up to ``MATERIAL_LIMIT`` = 4096
points (a 128 MB float64 matrix); larger shapes raise RangeError, and
callers work with the kernel instead.
"""

from __future__ import annotations

import numpy as np


# largest q**d whose dense (q**d, q**d) matrix may be built: 128 MB of float64
MATERIAL_LIMIT = 4096


class ShapeError(ValueError):
    """Array length does not match q**d."""


class RangeError(ValueError):
    """Index or parameter outside its permitted range."""


def size(q: int, d: int) -> int:
    """Number of lattice points, q**d."""
    if q < 2 or d < 1:
        raise RangeError(f"need q >= 2 and d >= 1, got q={q}, d={d}")
    return q**d


def rank(entries, q: int) -> int:
    """Little-endian rank of a lattice point: sum_k entries[k] * q**k."""
    x = np.asarray(entries, dtype=np.int64)
    if x.ndim != 1 or np.any(x < 0) or np.any(x >= q):
        raise RangeError(f"entries must lie in [0, {q}): got {entries!r}")
    return int(np.dot(x, q ** np.arange(x.size, dtype=np.int64)))


def unrank(i: int, q: int, d: int) -> tuple[int, ...]:
    """Inverse of :func:`rank`.  Raises RangeError for i outside [0, q**d)."""
    n = size(q, d)
    if not 0 <= i < n:
        raise RangeError(f"rank {i} outside [0, {n})")
    out = []
    for _ in range(d):
        i, digit = divmod(i, q)
        out.append(digit)
    return tuple(out)


def all_states(q: int, d: int) -> np.ndarray:
    """(q**d, d) integer array whose row i is unrank(i, q, d)."""
    n = size(q, d)
    i = np.arange(n, dtype=np.int64)[:, None]
    return (i // q ** np.arange(d, dtype=np.int64)[None, :]) % q


def roots(q: int) -> np.ndarray:
    """theta^j for j = 0..q-1, theta = exp(2*pi*i/q)."""
    if q < 2:
        raise RangeError(f"need q >= 2, got {q}")
    return np.exp(2j * np.pi * np.arange(q) / q)


def axis_tensor(vectors: list[np.ndarray]) -> np.ndarray:
    """Little-endian tensor product: out[rank(r)] = prod_k vectors[k][r[k]]."""
    acc = np.ones(1, dtype=complex)
    for v in vectors:
        acc = np.multiply.outer(np.asarray(v, dtype=complex), acc).ravel()
    return acc


def dft(values, q: int, d: int, *, inverse: bool = False) -> np.ndarray:
    """Unitary DFT over the lattice.

    ``values`` may carry leading batch dimensions; the transform acts on
    the last axis, which must have length q**d.  Cost O(q^d * d * log q)
    per batch element.
    """
    f = np.asarray(values, dtype=complex)
    n = size(q, d)
    if f.shape[-1] != n:
        raise ShapeError(f"last axis has length {f.shape[-1]}, expected {n}")
    # each pass transforms the fastest digit x[0] over contiguous rows of
    # length q and writes it back as the slowest digit, so after d passes
    # the digits are in rank order again; the passes alternate between two
    # buffers and never write the caller's array
    transform = np.fft.ifft if inverse else np.fft.fft
    rest = n // q
    buffers = [np.empty(f.shape, dtype=complex) for _ in range(min(d, 2))]
    src = f
    for k in range(d):
        dst = buffers[k % 2]
        transform(src.reshape(-1, rest, q), axis=-1, norm="ortho",
                  out=dst.reshape(-1, q, rest).transpose(0, 2, 1))
        src = dst
    return src


def dft_naive(values, q: int, d: int, *, inverse: bool = False) -> np.ndarray:
    """Reference double-sum DFT, O(q^{2d}).  Test oracle for :func:`dft`."""
    f = np.asarray(values, dtype=complex)
    n = size(q, d)
    if f.shape[-1] != n:
        raise ShapeError(f"last axis has length {f.shape[-1]}, expected {n}")
    states = all_states(q, d)
    cross = (states @ states.T) % q  # x . r mod q: exact phases at large q
    sign = 1.0 if inverse else -1.0
    w = np.exp(sign * 2j * np.pi * cross / q) / q ** (d / 2.0)
    return f @ w.T


def circulant_from_kernel(kernel: np.ndarray, q: int, d: int) -> np.ndarray:
    """Expand a lattice kernel k(z) into the full matrix M[x, y] = k(x - y).

    Raises RangeError above ``MATERIAL_LIMIT`` lattice points.
    """
    kernel = np.asarray(kernel)
    n = size(q, d)
    if kernel.shape != (n,):
        raise ShapeError(f"kernel has shape {kernel.shape}, expected ({n},)")
    if n > MATERIAL_LIMIT:
        raise RangeError(f"an {n} x {n} matrix exceeds the materialization "
                         f"limit of {MATERIAL_LIMIT} lattice points")
    diff = (np.arange(q)[:, None] - np.arange(q)) % q  # (a - b) mod q
    # the reshape puts z[d-1] on axis 0; each take turns one z axis into an
    # (x_k, y_k) pair, last axis first so the earlier axis numbers stay
    # put, and the transpose moves every x axis before every y axis
    m = kernel.reshape((q,) * d)
    for axis in reversed(range(d)):
        m = np.take(m, diff, axis=axis)
    return m.transpose(tuple(range(0, 2 * d, 2))
                       + tuple(range(1, 2 * d, 2))).reshape(n, n)
