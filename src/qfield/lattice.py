"""Index arithmetic and Fourier analysis on the lattice {0,..,q-1}^d.

Points of the lattice are plain integer vectors (length d, entries in
[0, q)).  A point x is identified with its little-endian rank
``sum_k x[k] * q**k``, so rank 0 is the origin and the first coordinate
is the fastest-varying digit.  Functions on the lattice are stored as
flat complex arrays of length q**d indexed by rank ("lattice arrays").
This module is the one home of those index maps: :func:`rank` and
:func:`unrank` convert one point or a (..., d) array of them,
:func:`sparse_ranks` ranks points given by their nonzero digits, and
:func:`gather_digits` reads a lattice array through one index map per
digit of its (q,)*d view.

The discrete Fourier transform used throughout is the unitary one,

    forward:  c[r] = q^(-d/2) * sum_x f[x] * theta^(-x.r)
    inverse:  f[x] = q^(-d/2) * sum_r c[r] * theta^(x.r)

with theta = exp(2*pi*i/q), computed as d passes, one per digit, each
writing its digit back as the slowest one so the digits rotate into rank
order.  For q >= 3 a pass is the 1-D ``np.fft.fft``/``ifft``
(``norm="ortho"``) over contiguous rows of length q, written through the
``out=`` argument that numpy added in 2.0.  For q = 2 it is the
Walsh-Hadamard butterfly (a + b, a - b), scaled by the same 1/sqrt(2)
that numpy hands pocketfft, which is what pocketfft computes for a
length-2 row; it needs only whole-array adds, subtracts and multiplies,
and a real input is transformed inside its complex result, one
cache-sized chunk of rows at a time.
Either way the result equals ``np.fft.fftn`` over the d lattice axes bit
for bit.  A naive O(q^{2d}) double-sum path is kept as a test oracle.

The type classes of points (count vectors m, m[j] coordinates equal to
j) are listed by :func:`count_vectors`, weighted by :func:`multinomial_pmf`;
:func:`state_type_counts` maps every rank to its class.
Errors form two families: :class:`RangeError` is bad input (CLI exit 2),
:class:`NumericalError` a failed numerical contract (exit 3).

Every call stays inside one size budget: :func:`budget` refuses, before
anything is built, more than ``ENTRY_BUDGET`` = 2^24 array entries (128 MB
of float64) or more than ``STEP_BUDGET`` = 2^20 steps, one step being one
Python-level loop iteration or 2^10 array entries touched.  So a dense
(q^d, q^d) matrix exists only up to ``MATERIAL_LIMIT`` = 4096 points.
"""

from __future__ import annotations

import math

import numpy as np

ENTRY_BUDGET = 2**24
STEP_BUDGET = 2**20
# largest q**d whose dense (q**d, q**d) matrix fits the entry budget
MATERIAL_LIMIT = math.isqrt(ENTRY_BUDGET)


class RangeError(ValueError):
    """Index or parameter outside its permitted range."""


class ShapeError(RangeError):
    """Array length does not match q**d."""


class NumericalError(ValueError):
    """A numerical contract fails on valid input; base of the modules' own."""


def budget(what: str, entries: int = 0, steps: int = 0, touched: int = 0) -> None:
    """Refuse a build of ``entries`` array entries, or a run of ``steps``
    loop iterations that touch ``touched`` array entries in all, beyond
    the budgets: RangeError naming ``what``, the amount and the budget."""
    steps += -(-touched // 2**10)
    if entries <= ENTRY_BUDGET and steps <= STEP_BUDGET:
        return
    for amount, limit, unit, name in ((entries, ENTRY_BUDGET, "entries", "entry"),
                                      (steps, STEP_BUDGET, "steps", "step")):
        if amount > limit:
            need = amount if amount < 2**64 else "more than 2^64"
            raise RangeError(f"{what}: needs {need} {unit}, over the {name} "
                             f"budget of {limit}")


def size(q: int, d: int) -> int:
    """Number of lattice points, q**d, within the entry budget."""
    if q < 2 or d < 1:
        raise RangeError(f"need q >= 2 and d >= 1, got q={q}, d={d}")
    n = q**d if d < 65 else q**65  # q^65 > 2^64 reads "more than 2^64"
    budget(f"the {q}^{d}-point lattice", entries=n)
    return n


def rank(entries, q: int):
    """Little-endian rank sum_k x[k] * q**k of one point (an int) or of
    each row of a (..., d) array (an int64 array of shape (...,))."""
    x = np.asarray(entries, dtype=np.int64)
    if x.ndim == 0 or np.any(x < 0) or np.any(x >= q):
        raise RangeError(f"entries must lie in [0, {q}): got {entries!r}")
    r = x @ q ** np.arange(x.shape[-1], dtype=np.int64)
    return int(r) if x.ndim == 1 else r


def sparse_ranks(positions, values, q: int) -> np.ndarray:
    """Ranks of the points with digits values[:, j] at the digit positions
    positions[i] and 0 elsewhere: ``positions`` is (n_sets, n) and
    ``values`` (n, n_values), the result an (n_sets, n_values) int64 array."""
    return q ** np.asarray(positions, dtype=np.int64) @ np.asarray(
        values, dtype=np.int64)


def point(entries, q: int, d: int) -> np.ndarray:
    """A lattice point as an int64 vector: ShapeError unless it has d
    entries, RangeError unless each lies in [0, q), as in :func:`rank`."""
    x = np.asarray(entries, dtype=np.int64)
    if x.shape != (d,):
        raise ShapeError(f"point has shape {x.shape}, expected ({d},)")
    if np.any(x < 0) or np.any(x >= q):
        raise RangeError(f"entries must lie in [0, {q}): got {entries!r}")
    return x


def unrank(i, q: int, d: int):
    """Inverse of :func:`rank`: a tuple for one rank, a (..., d) int64
    array for an array of them.  RangeError for a rank outside [0, q**d)."""
    n = size(q, d)
    r = np.asarray(i)
    if np.any(r < 0) or np.any(r >= n):
        raise RangeError(f"rank {i} outside [0, {n})")
    strides = q ** np.arange(d, dtype=np.int64)
    digits = (r.astype(np.int64, copy=False)[..., None] // strides) % q
    return digits if r.ndim else tuple(digits.tolist())


def all_states(q: int, d: int) -> np.ndarray:
    """(q**d, d) integer array whose row i is unrank(i, q, d)."""
    n = size(q, d)
    budget(f"the ({n}, {d}) state table", entries=n * d)
    return unrank(np.arange(n, dtype=np.int64), q, d)


def count_vectors(q: int, d: int) -> list[tuple[int, ...]]:
    """All m in N^q with |m| = d, lex order: the lattice's type classes."""
    n = math.comb(max(d + q - 1, 0), q - 1)
    budget(f"{n} count vectors at q={q}, d={d}", entries=n * q, steps=n)
    # an odometer: the next vector moves one unit from the last nonzero
    # entry j >= 1 into entry j - 1 and the rest of entry j to the end
    m = [0] * (q - 1) + [d]
    out = [tuple(m)] if n else []
    j = q - 1
    for _ in range(n - 1):
        m[j - 1], m[j], m[-1] = m[j - 1] + 1, 0, m[j] - 1
        j = q - 1 if m[-1] else j - 1
        out.append(tuple(m))
    return out


def multinomial_pmf(m, d: int, q: int) -> float:
    """p(m; d) = (d choose m) q^-d, the share of the lattice in class m."""
    logc = math.lgamma(d + 1) - sum(math.lgamma(int(v) + 1) for v in m)
    return math.exp(logc - d * math.log(q))


def state_type_counts(q: int, d: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Count vectors plus the map rank -> class index.  A point's digits in
    descending order rank lowest in its class, and the count vectors in
    lex order are the classes by that lowest rank, highest first."""
    counts = count_vectors(q, d)
    states = np.sort(all_states(q, d), axis=1)
    lowest = states @ q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    reps, inverse = np.unique(lowest, return_inverse=True)
    return counts, len(reps) - 1 - inverse


def roots(q: int) -> np.ndarray:
    """theta^j for j = 0..q-1, theta = exp(2*pi*i/q)."""
    return np.exp(2j * np.pi * np.arange(size(q, 1)) / q)


def axis_tensor(vectors: list[np.ndarray]) -> np.ndarray:
    """Little-endian tensor product: out[rank(r)] = prod_k vectors[k][r[k]]."""
    budget("a tensor product", entries=math.prod(len(v) for v in vectors))
    acc = np.ones(1, dtype=complex)
    for v in vectors:
        acc = np.multiply.outer(np.asarray(v, dtype=complex), acc).ravel()
    return acc


# the factor numpy's fft hands pocketfft for norm="ortho" at length 2
_ORTHO_2 = np.reciprocal(np.sqrt(2.0))
# complex output bytes per chunk of rows of the real q = 2 transform, small
# enough for a chunk to stay in cache through its d passes; a sweep from
# 128 KiB to 2 MiB (CHANGES.md) was fastest and flat from 256 KiB to 1 MiB
_CHUNK_BYTES = 2**19


def dft(values, q: int, d: int, *, inverse: bool = False) -> np.ndarray:
    """Unitary DFT over the lattice.

    ``values`` may carry leading batch dimensions; the transform acts on
    the last axis, which must have length q**d.  Cost O(q^d * d * log q)
    per batch element: for q >= 3, d ``np.fft`` passes written through
    ``out=`` (numpy >= 2.0); for q = 2, d add/subtract/scale butterflies
    over the whole array, or over each chunk of rows of a real input,
    equal to ``fftn`` bit for bit because they are the operations
    pocketfft runs on a length-2 row (see :func:`_walsh_hadamard`).
    """
    f = np.asarray(values)
    n = size(q, d)
    if f.shape[-1] != n:
        raise ShapeError(f"last axis has length {f.shape[-1]}, expected {n}")
    if q == 2:
        return _walsh_hadamard(f, d)
    # each pass transforms the fastest digit x[0] over contiguous rows of
    # length q and writes it back as the slowest digit, so after d passes
    # the digits are in rank order again; the passes alternate between two
    # buffers and never write the caller's array, but a converted or
    # flattened copy of it serves as the second buffer
    transform = np.fft.ifft if inverse else np.fft.fft
    rest = n // q
    src = np.ascontiguousarray(f, dtype=complex)
    buffers = [np.empty(f.shape, dtype=complex)]
    if d > 1:
        shared = np.may_share_memory(src, f)
        buffers.append(np.empty(f.shape, dtype=complex) if shared else src)
    for k in range(d):
        dst = buffers[k % 2]
        transform(src.reshape(-1, rest, q), axis=-1, norm="ortho",
                  out=dst.reshape(-1, q, rest).transpose(0, 2, 1))
        src = dst
    return src


def _walsh_hadamard(f: np.ndarray, d: int) -> np.ndarray:
    """The q = 2 transform, forward and inverse alike, as d butterflies.

    Each pass maps the adjacent pairs (a, b) of the fastest digit to the
    two contiguous halves a + b and a - b, making it the slowest digit,
    and scales the float view by 1/sqrt(2).  pocketfft computes a length-2
    row the same way and scales real and imaginary parts apart (a complex
    multiply would flip the sign of some zeros), so with digit 0 first and
    every pass scaled the bits equal ``fftn``.  A pass over the whole
    batch as one strided run rotates the batch axes to the fastest place.
    A complex input makes d such passes through two buffers, a converted
    or flattened copy of it serving as the second, and one transposed
    copy puts the batch back in front.  A real input is transformed
    inside its result, one chunk of rows of about ``_CHUNK_BYTES`` of
    output at a time (see :func:`_walsh_hadamard_real`), so each chunk
    takes all its passes while it is in cache; the butterflies act on
    each row alone, so the chunks give the bits of one whole-batch run.
    """
    n = f.shape[-1]
    batch = f.size // n
    if not np.iscomplexobj(f):
        src = f.astype(float, copy=False).reshape(batch, n)
        out = np.empty((batch, n), dtype=complex)
        rows = max(1, _CHUNK_BYTES // out.itemsize // n)
        for start in range(0, batch, rows):
            _walsh_hadamard_real(src[start:start + rows],
                                 out[start:start + rows], d)
        return out.reshape(f.shape)
    half = f.size // 2
    src = f.astype(complex, copy=False).reshape(-1)
    shared = np.may_share_memory(src, f)
    buffers = [np.empty(f.size, dtype=complex),
               np.empty(f.size, dtype=complex) if shared else src]
    for k in range(d):
        src = _butterfly(src, buffers[k % 2], half)
    if batch > 1:
        dst = buffers[d % 2]
        dst.reshape(batch, n)[...] = src.reshape(n, batch).T
        src = dst
    return src.reshape(f.shape)


def _walsh_hadamard_real(src: np.ndarray, out: np.ndarray, d: int) -> None:
    """The q = 2 transform of the real (rows, n) ``src`` into the complex
    (rows, n) ``out``, with no other buffer: d - 1 passes alternate between
    the imaginary and real parts of ``out``, and the last writes each row's
    halves together into the real part (numpy buffers 8192 floats for that
    transposing pass); the imaginary part is then +0.0, as in ``fftn``."""
    batch, n = src.shape
    half = src.size // 2
    flat = out.reshape(-1)
    # pass d - 2 writes the imaginary part, which the last pass reads
    buffers = [flat.real, flat.imag] if d % 2 else [flat.imag, flat.real]
    src = src.reshape(-1)
    for k in range(d - 1):
        src = _butterfly(src, buffers[k % 2], half)
    pairs = src.reshape(n // 2, batch, 2)
    halves = flat.real.reshape(batch, 2, n // 2).transpose(1, 2, 0)
    np.add(pairs[..., 0], pairs[..., 1], out=halves[0])
    np.subtract(pairs[..., 0], pairs[..., 1], out=halves[1])
    np.multiply(flat.real, _ORTHO_2, out=flat.real)
    flat.imag = 0.0


def _butterfly(src: np.ndarray, dst: np.ndarray, half: int) -> np.ndarray:
    """One pass: (a + b, a - b) / sqrt(2) of the adjacent pairs of the flat
    ``src`` into the two halves of ``dst``, which it returns."""
    np.add(src[0::2], src[1::2], out=dst[:half])
    np.subtract(src[0::2], src[1::2], out=dst[half:])
    parts = dst.view(float)
    parts *= _ORTHO_2
    return dst


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


def gather_digits(values: np.ndarray, maps, q: int, d: int) -> np.ndarray:
    """out[rank(y)] = values[rank((maps[k][y[k]])_k)]: a lattice array read
    through one index map of length q per digit."""
    out = values.reshape((q,) * d)
    # axis a of the (q,)*d view is digit d-1-a
    for k, index in enumerate(maps):
        out = np.take(out, index, axis=d - 1 - k)
    return out.ravel()


def circulant_row(kernel: np.ndarray, x, q: int, d: int) -> np.ndarray:
    """Row x of the circulant, M[x, y] = k(x - y), as a lattice array in y:
    k read at (x_k - y_k) mod q on every digit.  Raises RangeError unless
    every coordinate of x lies in [0, q).
    """
    kernel = np.asarray(kernel)
    n = size(q, d)
    if kernel.shape != (n,):
        raise ShapeError(f"kernel has shape {kernel.shape}, expected ({n},)")
    x = point(x, q, d)
    return gather_digits(kernel, [(v - np.arange(q)) % q for v in x], q, d)


def circulant_from_kernel(kernel: np.ndarray, q: int, d: int) -> np.ndarray:
    """Expand a lattice kernel k(z) into the full matrix M[x, y] = k(x - y).

    Row 0 is seeded with k(-y) by :func:`circulant_row`.  The rows are then
    filled digit by digit: once the q^j rows whose digits j and above are
    zero are in place, the rows x + s q^j (s = 1..q-1) are those rows
    rolled by s along digit j of y, M[x + s e_j, y] = M[x, y - s e_j].
    Each roll is two slice copies, so every entry is written once, in
    contiguous runs of at least q^j, and nothing but the output is
    allocated.

    Raises RangeError above ``MATERIAL_LIMIT`` lattice points.
    """
    kernel = np.asarray(kernel)
    n = size(q, d)
    if kernel.shape != (n,):
        raise ShapeError(f"kernel has shape {kernel.shape}, expected ({n},)")
    budget(f"an {n} x {n} matrix (materialization limit {MATERIAL_LIMIT} "
           "lattice points)", entries=n * n)
    m = np.empty((n, n), dtype=kernel.dtype)
    m[0] = circulant_row(kernel, (0,) * d, q, d)
    low = 1  # q^j: rows [0, low) are filled
    for _ in range(d):
        # y split as (digits above j, digit j, digits below j)
        src = m[:low].reshape(low, n // (q * low), q, low)
        for s in range(1, q):
            dst = m[s * low:(s + 1) * low].reshape(src.shape)
            dst[:, :, s:] = src[:, :, :q - s]
            dst[:, :, :s] = src[:, :, q - s:]
        low *= q
    return m
