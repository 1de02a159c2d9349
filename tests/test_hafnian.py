"""Tests for hafnian evaluation, reductions, and the Gaussian recurrence kernel."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tfsim import hafnian as hf


def random_symmetric(rng, n, scale=1.0):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (M + M.T) / 2.0


def test_empty_matrix():
    assert hf.hafnian(np.zeros((0, 0))) == 1.0
    assert hf.hafnian_perm_sum(np.zeros((0, 0))) == 1.0


def test_two_by_two():
    c = 0.7 - 0.2j
    B = np.array([[0.0, c], [c, 0.0]])
    assert hf.hafnian(B) == pytest.approx(c, rel=1e-15)
    assert hf.hafnian_perm_sum(B) == pytest.approx(c, rel=1e-15)


def test_four_by_four_matching_formula_exact():
    # haf(B) = B01 B23 + B02 B13 + B03 B12, checked in exact rational
    # arithmetic on random integer entries.
    rng = np.random.default_rng(11)
    for _ in range(10):
        vals = rng.integers(-9, 10, size=(4, 4))
        B = np.empty((4, 4), dtype=object)
        for i in range(4):
            for j in range(4):
                B[i, j] = Fraction(int(vals[i, j] + vals[j, i]), 3)
        expected = B[0, 1] * B[2, 3] + B[0, 2] * B[1, 3] + B[0, 3] * B[1, 2]
        assert hf.hafnian(B) == expected
        assert hf.hafnian_perm_sum(B) == expected


def test_four_by_four_matching_formula_symbolic():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("b01 b02 b03 b12 b13 b23")
    b01, b02, b03, b12, b13, b23 = syms
    B = np.empty((4, 4), dtype=object)
    B[:] = 0
    pairs = {(0, 1): b01, (0, 2): b02, (0, 3): b03, (1, 2): b12, (1, 3): b13, (2, 3): b23}
    for (i, j), s in pairs.items():
        B[i, j] = s
        B[j, i] = s
    result = sympy.expand(hf.hafnian(B))
    assert result == sympy.expand(b01 * b23 + b02 * b13 + b03 * b12)


def test_all_ones():
    # haf(J_2m) = (2m - 1)!! : 3 for 4x4, 15 for 6x6.
    assert hf.hafnian(np.ones((4, 4))) == 3
    assert hf.hafnian(np.ones((6, 6))) == 15
    assert hf.hafnian_perm_sum(np.ones((6, 6))) == pytest.approx(15.0, rel=1e-13)


def test_recursion_matches_permutation_sum():
    rng = np.random.default_rng(42)
    for n in (2, 4, 6, 8):
        for _ in range(10):
            B = random_symmetric(rng, n)
            fast = hf.hafnian(B)
            oracle = hf.hafnian_perm_sum(B)
            assert abs(fast - oracle) < 1e-10 * max(1.0, abs(oracle))


def test_permutation_invariance():
    # Simultaneous row/column permutation leaves the hafnian unchanged.
    rng = np.random.default_rng(3)
    for trial in range(50):
        n = int(rng.choice([4, 6]))
        B = random_symmetric(rng, n)
        perm = rng.permutation(n)
        P = B[np.ix_(perm, perm)]
        assert hf.hafnian(P) == pytest.approx(hf.hafnian(B), rel=1e-11, abs=1e-12)


def test_scaling_homogeneity():
    # haf(c B) = c^(n/2) haf(B).
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        B = random_symmetric(rng, n)
        c = 0.3 + 1.1j
        assert hf.hafnian(c * B) == pytest.approx(
            c ** (n // 2) * hf.hafnian(B), rel=1e-12
        )


def test_diagonal_independence():
    rng = np.random.default_rng(8)
    B = random_symmetric(rng, 6)
    C = B.copy()
    np.fill_diagonal(C, rng.standard_normal(6))
    assert hf.hafnian(C) == pytest.approx(hf.hafnian(B), rel=1e-13)
    assert hf.hafnian_perm_sum(C) == pytest.approx(hf.hafnian_perm_sum(B), rel=1e-13)


def test_block_diagonal_factorizes():
    rng = np.random.default_rng(13)
    B1 = random_symmetric(rng, 2)
    B2 = random_symmetric(rng, 4)
    block = np.zeros((6, 6), dtype=complex)
    block[:2, :2] = B1
    block[2:, 2:] = B2
    assert hf.hafnian(block) == pytest.approx(
        hf.hafnian(B1) * hf.hafnian(B2), rel=1e-12
    )


def test_dimension_and_shape_guards():
    with pytest.raises(ValueError):
        hf.hafnian(np.zeros((3, 3)))  # odd dimension
    with pytest.raises(ValueError):
        hf.hafnian(np.zeros((2, 4)))  # not square
    with pytest.raises(ValueError):
        hf.hafnian(np.zeros((34, 34)))  # beyond recursion limit
    with pytest.raises(ValueError):
        hf.hafnian_perm_sum(np.zeros((10, 10)))  # beyond oracle limit
    with pytest.raises(ValueError, match="even dimension"):
        hf.hafnian_perm_sum(np.zeros((3, 3)))
    asym = np.arange(16.0).reshape(4, 4)
    with pytest.raises(ValueError):
        hf.hafnian(asym)
    with pytest.raises(ValueError, match="symmetric"):
        hf.hafnian(asym.astype(int).astype(object))


def test_reduce_structure():
    A = np.arange(16.0).reshape(4, 4)
    A = (A + A.T) / 2.0  # 2N x 2N with N = 2
    out = hf.reduce(A, np.array([2, 0]))
    # Mode 0 repeated twice, mode 1 dropped: rows {0, 0, 2, 2}.
    idx = [0, 0, 2, 2]
    assert out.shape == (4, 4)
    assert np.array_equal(out, A[np.ix_(idx, idx)])

    assert hf.reduce(A, np.array([0, 0])).shape == (0, 0)
    assert np.array_equal(hf.reduce(A, np.array([1, 1])), A)

    with pytest.raises(ValueError):
        hf.reduce(A, np.array([1, 1, 1]))  # wrong length
    with pytest.raises(ValueError):
        hf.reduce(A, np.array([-1, 1]))  # negative repeat
    with pytest.raises(ValueError):
        hf.reduce(np.zeros((3, 3)), np.array([1]))  # odd ambient dimension


def test_hafnian_box_matches_reduce_then_hafnian():
    # Every pattern n of the box, read at m = (n, n), against the memoized
    # recursion on the explicitly reduced matrix.
    rng = np.random.default_rng(21)
    for _ in range(20):
        N = int(rng.choice([1, 2, 3]))
        A = random_symmetric(rng, 2 * N, scale=0.6)
        pattern = rng.integers(0, 4, size=N)
        box = hf.hafnian_box(A, np.concatenate([pattern, pattern]) + 1)
        for n in np.ndindex(*(pattern + 1)):
            direct = hf.hafnian(hf.reduce(A, np.array(n)))
            fast = box[n + n] * math.prod(math.factorial(v) for v in n)
            assert abs(fast - direct) < 1e-10 * max(1.0, abs(direct))


def test_hafnian_box_general_index_vectors():
    # Off the (n, n) diagonal, R[m] sqrt(m!) is the hafnian of A with row and
    # column i repeated m_i times, and 0 for an odd total.
    rng = np.random.default_rng(5)
    A = random_symmetric(rng, 3, scale=0.8)
    box = hf.hafnian_box(A, (3, 4, 3))
    for m in np.ndindex(*box.shape):
        idx = np.repeat(np.arange(3), m)
        direct = hf.hafnian(A[np.ix_(idx, idx)]) if idx.size % 2 == 0 else 0.0
        fast = box[m] * math.sqrt(math.prod(math.factorial(v) for v in m))
        assert abs(fast - direct) < 1e-12 * max(1.0, abs(direct))


def test_hafnian_box_empty_and_invalid():
    assert hf.hafnian_box(np.zeros((0, 0)), ()) == 1.0
    A = random_symmetric(np.random.default_rng(0), 4)
    assert np.array_equal(hf.hafnian_box(A, (1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
    with pytest.raises(ValueError):
        hf.hafnian_box(A, (2, 2))  # one axis per row of A
    with pytest.raises(ValueError):
        hf.hafnian_box(A, (2, 0, 2, 2))

