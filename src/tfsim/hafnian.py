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

:func:`hafnian_box`, the kernel behind :mod:`tfsim.fgbs`, fills a whole box of
reduced hafnians by the Gaussian recurrence of Miatto & Quesada, Quantum 4,
366 (2020), arXiv:2004.11002, in one pass over the box:

    R[m + e_i] = (sum_j A_ij sqrt(m_j) R[m - e_j]) / sqrt(m_i + 1),  R[0] = 1.

It sums the matching sum's own products, so its rounding error stays of the
order of haf(|A_m|); it is tested against ``hafnian(reduce(A, pattern))``.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

import numpy as np

__all__ = [
    "hafnian",
    "hafnian_box",
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


def hafnian_perm_sum(B):
    """Literal permutation-sum hafnian; independent oracle for dimension <= 8.

    Raises
    ------
    ValueError
        If B is not square/symmetric, has odd dimension, or is larger than 8x8.
    """
    B = _as_square(B, "B")
    n = B.shape[0]
    if n == 0:
        return 1.0
    if n % 2:
        raise ValueError("hafnian is defined for even dimension only")
    if n > MAX_DIM_PERM_SUM:
        raise ValueError(f"permutation sum limited to dimension {MAX_DIM_PERM_SUM}")
    _check_symmetric(B)
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
    B = _as_square(B, "B")
    n = B.shape[0]
    if n == 0:
        return 1.0
    if n % 2:
        raise ValueError("hafnian is defined for even dimension only")
    if n > MAX_DIM:
        raise ValueError(f"hafnian limited to dimension {MAX_DIM}")
    _check_symmetric(B)

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
    arr = np.asarray(pattern)
    if arr.shape != (n_modes,):
        raise ValueError(f"pattern must list one mode order per mode ({n_modes})")
    if arr.dtype.kind not in "iu" or np.any(arr < 0):
        raise ValueError("pattern entries must be non-negative integers")
    return tuple(int(v) for v in arr)


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


def hafnian_box(A, shape):
    """R[m] = haf(A_m) / sqrt(prod m_i!) for every index vector 0 <= m < shape.

    A_m repeats row and column i of the symmetric matrix A m_i times, so for
    m = (n, n), R[m] = haf(reduce(A, n)) / prod n_i!. Axes fill last first;
    axis k's slice t + 1 comes from its slices t and t - 1. Every product by
    a complex coefficient runs over a contiguous array (NumPy may round
    strided and 0-d ones differently), so a sub-box holds the same values.
    """
    A = np.asarray(A, dtype=complex)
    shape = tuple(int(d) for d in shape)
    if A.shape != (len(shape),) * 2 or min(shape, default=1) < 1:
        raise ValueError("the box needs one axis of length >= 1 per row of A")
    box = np.zeros(shape, dtype=complex)
    box[(0,) * len(shape)] = 1.0
    roots = [np.sqrt(np.arange(1.0, d)) for d in shape]
    for k in reversed(range(len(shape))):
        sub = box[(0,) * k]
        # sqrt(m_j) along axis j - k of a slice sub[t:t + 1], for j > k.
        weights = [roots[j].reshape((-1,) + (1,) * (len(shape) - 1 - j))
                   for j in range(k + 1, len(shape))]
        for t in range(shape[k] - 1):
            cur, new = sub[t:t + 1], sub[t + 1:t + 2]
            if t:
                np.multiply(sub[t - 1:t], A[k, k] * (roots[k][t - 1] / roots[k][t]), out=new)
            for j, w in enumerate(weights, start=k + 1):
                lead = (slice(None),) * (j - k)
                shifted = w * cur[lead + (slice(None, -1),)]
                new[lead + (slice(1, None),)] += (A[k, j] / roots[k][t]) * shifted
    return box
