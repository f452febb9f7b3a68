"""Index arithmetic and Fourier analysis on the lattice {0,..,q-1}^d.

Points of the lattice are plain integer vectors (length d, entries in
[0, q)).  A point x is identified with its little-endian rank
``sum_k x[k] * q**k``, so rank 0 is the origin and the first coordinate
is the fastest-varying digit.  Functions on the lattice are stored as
flat complex arrays of length q**d indexed by rank ("lattice arrays").

The discrete Fourier transform used throughout is the unitary one,

    forward:  c[r] = q^(-d/2) * sum_x f[x] * theta^(-x.r)
    inverse:  f[x] = q^(-d/2) * sum_r c[r] * theta^(x.r)

with theta = exp(2*pi*i/q), computed by one ``np.fft.fftn``/``ifftn``
call (``norm="ortho"``) over the d lattice axes.  A naive O(q^{2d})
double-sum path is kept as a test oracle.
"""

from __future__ import annotations

import numpy as np


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
        acc = np.kron(np.asarray(v, dtype=complex), acc)
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
    batch = f.shape[:-1]
    # the reshape puts x[d-1] on the first lattice axis; x.r, and so the
    # transform over all d axes, does not depend on the axis order
    transform = np.fft.ifftn if inverse else np.fft.fftn
    axes = tuple(range(len(batch), len(batch) + d))
    return transform(f.reshape(batch + (q,) * d), axes=axes,
                     norm="ortho").reshape(batch + (n,))


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


def difference_rank_table(q: int, d: int) -> np.ndarray:
    """(N, N) table with entry [i, j] = rank((x_i - x_j) mod q).

    Backs the circulant expansion kernel[rank(x - y)] -> matrix.  Only
    sensible at desk scale; materialization callers enforce q**d limits.
    """
    digits = all_states(q, d).astype(np.int32)
    n = digits.shape[0]
    table = np.zeros((n, n), dtype=np.int64)
    stride = 1
    for k in range(d):
        col = digits[:, k]
        table += ((col[:, None] - col[None, :]) % q).astype(np.int64) * stride
        stride *= q
    return table


def circulant_from_kernel(kernel: np.ndarray, q: int, d: int) -> np.ndarray:
    """Expand a lattice kernel k(z) into the full matrix M[x, y] = k(x - y)."""
    kernel = np.asarray(kernel)
    if kernel.shape != (size(q, d),):
        raise ShapeError(f"kernel has shape {kernel.shape}, expected ({size(q, d)},)")
    return kernel[difference_rank_table(q, d)]
