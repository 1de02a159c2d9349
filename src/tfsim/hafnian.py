"""Hafnian evaluation: reference permutation sum, matching recursion, reductions.

The hafnian of a symmetric 2m x 2m matrix B is the sum over all perfect
matchings of {1..2m} of the product of the matched entries,

    haf(B) = sum_{M in PM(2m)} prod_{(i,j) in M} B_ij
           = 1/(m! 2^m) sum_{sigma in S_2m} prod_i B_{sigma(2i-1) sigma(2i)},

with haf of the empty matrix equal to 1. Diagonal entries are never read.

Two evaluators are provided: :func:`hafnian_perm_sum` is the literal
permutation sum, kept as an independent oracle for small matrices, and
:func:`hafnian` enumerates perfect matchings recursively with memoization on
index subsets. Both accept object-dtype matrices (exact integers, symbols), so
algebraic identities can be checked without floating point.

:func:`hafnian_box`, the kernel behind :mod:`tfsim.fgbs`'s tables, fills a
whole box of reduced hafnians by the Gaussian recurrence of Miatto & Quesada,
Quantum 4, 366 (2020), arXiv:2004.11002, in one pass over the box:

    R[m + e_i] = (sum_j A_ij sqrt(m_j) R[m - e_j]) / sqrt(m_i + 1),  R[0] = 1.

It sums the matching sum's own products, so its rounding error stays of the
order of haf(|A_m|); it is tested against ``hafnian(reduce(A, pattern))``.
:func:`hafnian_corner`, the kernel behind one pattern's probability, returns
the box's last entry, byte for byte, from the same per-slice step run only on
the entries it depends on: about a quarter of the box at large equal sides.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

import numpy as np

from .exceptions import _check_int

__all__ = [
    "hafnian",
    "hafnian_box",
    "hafnian_corner",
    "hafnian_perm_sum",
    "reduce",
]

#: Largest matrix dimension hafnian() accepts.
MAX_DIM = 32

#: Largest matrix dimension the literal permutation sum accepts ((2m)! growth).
MAX_DIM_PERM_SUM = 8

SYMMETRY_TOL = 1e-12


def _as_square(B, name):
    B = np.asarray(B)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    return B


def _check_symmetric(B):
    if B.dtype == object:
        n = B.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if not B[i, j] == B[j, i]:
                    raise ValueError("matrix must be symmetric")
    else:
        scale = max(1.0, float(np.max(np.abs(B)))) if B.size else 1.0
        if not np.allclose(B, B.T, rtol=0.0, atol=SYMMETRY_TOL * scale):
            raise ValueError("matrix must be symmetric")


def _oracle_matrix(B, limit, what):
    """The oracles' one preamble: B as a symmetric square matrix of even dimension <= limit."""
    B = _as_square(B, "B")
    if B.shape[0] % 2:
        raise ValueError("hafnian is defined for even dimension only")
    if B.shape[0] > limit:
        raise ValueError(f"{what} limited to dimension {limit}")
    _check_symmetric(B)
    return B


def hafnian_perm_sum(B):
    """Literal permutation-sum hafnian; independent oracle for dimension <= 8.

    Raises
    ------
    ValueError
        If B is not square/symmetric, has odd dimension, or is larger than 8x8.
    """
    B = _oracle_matrix(B, MAX_DIM_PERM_SUM, "permutation sum")
    n = B.shape[0]
    if n == 0:
        return 1.0
    m = n // 2
    total = 0
    for sigma in permutations(range(n)):
        term = B[sigma[0], sigma[1]]
        for i in range(1, m):
            term = term * B[sigma[2 * i], sigma[2 * i + 1]]
        total = total + term
    return total / (factorial(m) * 2 ** m)


def hafnian(B):
    """Hafnian via recursive perfect-matching enumeration, memoized on subsets.

    Fixes the lowest remaining index, pairs it with each other remaining index,
    and recurses on the complement; subproblems are cached per index subset.
    Accepts dimensions up to 32 (even), object dtype allowed.

    Raises
    ------
    ValueError
        If B is not square/symmetric, has odd dimension, or exceeds 32x32.
    """
    B = _oracle_matrix(B, MAX_DIM, "hafnian")
    n = B.shape[0]
    if n == 0:
        return 1.0

    memo = {}

    def match(mask):
        if mask == 0:
            return 1
        cached = memo.get(mask)
        if cached is not None:
            return cached
        i = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        acc = 0
        remaining = rest
        while remaining:
            low = remaining & -remaining
            j = low.bit_length() - 1
            remaining ^= low
            acc = acc + B[i, j] * match(rest ^ low)
        memo[mask] = acc
        return acc

    return match((1 << n) - 1)


def _check_pattern(pattern, n_modes):
    """A detection pattern as a tuple: one non-negative integer per mode."""
    if np.shape(pattern) != (n_modes,):
        raise ValueError(f"pattern must list one mode order per mode ({n_modes})")
    return tuple(_check_int(v, "pattern entry") for v in pattern)


def reduce(A, pattern):
    """Repeat rows/columns of a 2N x 2N matrix according to a detection pattern.

    Row and column ``i`` and ``N + i`` are each repeated ``pattern[i]`` times,
    giving a matrix of dimension 2 * sum(pattern). Entries of ``pattern`` must
    be non-negative integers.
    """
    A = _as_square(A, "A")
    if A.shape[0] % 2:
        raise ValueError("A must have even dimension 2N")
    N = A.shape[0] // 2
    pattern = _check_pattern(pattern, N)
    repeats = np.repeat(np.arange(N), pattern)
    idx = np.concatenate([repeats, N + repeats])
    return A[np.ix_(idx, idx)]


def _check_box(A, shape):
    A = np.asarray(A, dtype=complex)
    shape = tuple(_check_int(d, "box side", 1) for d in shape)
    if A.shape != (len(shape),) * 2:
        raise ValueError("the box needs one axis per row of A")
    return A, shape


def _shifts(roots, lo):
    """Per axis j >= 1: sqrt(m_j) and the indices (into new, into cur) pairing
    new[m] with cur[m - e_j], where new's window starts at lo[j] on axis j and
    that of cur, the slice before it, at max(0, lo[j] - 1); both end at the
    last index. Where lo[j] > 0, cur starts one index before new, else both
    start at 0 and new[m_j = 0] has no source.

    ``roots[j]`` is sqrt(1, 2, ...) along axis j.
    """
    align = tuple(slice(1 if s else 0, None) for s in lo)
    return [(roots[j][(slice(lo[j] - a.start, None),) + (None,) * (len(lo) - 1 - j)],
             (slice(None),) * j + (slice(1 - a.start, None),),
             align[:j] + (slice(None, -1),) + align[j + 1:])
            for j, a in enumerate(align) if j]


def _step(new, prev, cur, row, r, t, shifts):
    """Slice t + 1 of axis k from its slices t (cur) and t - 1 (prev, unread at t = 0):

        new = A_kk (r_{t-1} / r_t) prev + sum_j (A_kj / r_t) (sqrt(m_j) shift_j(cur)),

    with row = A[k, k:], r = sqrt(1, 2, ...) along axis k and ``shifts`` the
    entries j > k of :func:`_shifts`, in increasing j. Slices keep every axis,
    axis k and those before it of length 1. ``new`` is contiguous and zero at
    t = 0, and ``prev`` covers its window; a strided ``prev`` is copied first,
    so every product by a complex coefficient runs over a contiguous array
    (NumPy may round strided and 0-d ones differently) and a window holds the
    same values as the whole slice.
    """
    if t:
        np.multiply(np.ascontiguousarray(prev), row[0] * (r[t - 1] / r[t]), out=new)
    for a, (w, dst, src) in zip(row[1:], shifts):
        new[dst] += (a / r[t]) * (w * cur[src])


def hafnian_box(A, shape):
    """R[m] = haf(A_m) / sqrt(prod m_i!) for every index vector 0 <= m < shape.

    A_m repeats row and column i of the symmetric matrix A m_i times, so for
    m = (n, n), R[m] = haf(reduce(A, n)) / prod n_i!. Axes fill last first;
    axis k's slice t + 1 comes from its slices t and t - 1 by :func:`_step`,
    so a sub-box holds the same values.
    """
    A, shape = _check_box(A, shape)
    box = np.zeros(shape, dtype=complex)
    box[(0,) * len(shape)] = 1.0
    roots = [np.sqrt(np.arange(1.0, d)) for d in shape]
    shifts = _shifts(roots, (0,) * len(shape))
    for k in reversed(range(len(shape))):
        pre = (slice(0, 1),) * k
        for t in range(shape[k] - 1):
            _step(box[pre + (slice(t + 1, t + 2),)], box[pre + (slice(t - 1, t),)],
                  box[pre + (slice(t, t + 1),)], A[k, k:], roots[k], t, shifts[k:])
    return box


def hafnian_corner(A, shape):
    """R[c], c = shape - 1: the corner of ``hafnian_box(A, shape)``, byte for byte.

    Axis 0 fills last, and its entry (t, m) reads (t - 1, m - e_j) and
    (t - 2, m): one slice down, every other index drops by at most one. So the
    corner reads slice t only on the window m_i >= c_i - (c_0 - t) of the
    other axes. Slice 0 is ``hafnian_box(A[1:, 1:], shape[1:])``; slices
    1..c_0 are filled on their windows by the same :func:`_step`. At large
    equal c_i that is about a quarter of the box, and three slices are held.
    """
    A, shape = _check_box(A, shape)
    if not shape:
        return np.complex128(1.0)
    c = [d - 1 for d in shape]
    lo = [[0] + [max(0, ci - c[0] + t) for ci in c[1:]] for t in range(shape[0])]
    roots = [np.sqrt(np.arange(1.0, d)) for d in shape]
    prev = None
    cur = hafnian_box(A[1:, 1:], shape[1:])[None][tuple(slice(s, None) for s in lo[0])]
    for t in range(c[0]):
        new = np.zeros([1] + [ci + 1 - s for ci, s in zip(c[1:], lo[t + 1][1:])], dtype=complex)
        if t:
            prev = prev[tuple(slice(a - b, None) for a, b in zip(lo[t + 1], lo[t - 1]))]
        _step(new, prev, cur, A[0], roots[0], t, _shifts(roots, lo[t + 1]))
        prev, cur = cur, new
    return cur[(0,) * len(shape)]
