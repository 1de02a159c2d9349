"""Tests for joint spectral amplitudes and the frequency beam splitter."""

import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from tfsim import cli
from tfsim import twophoton as tp
from tfsim.exceptions import CostGuardError
from tfsim.hg import SpectralState, decompose, hg_value

S2 = math.sqrt(2.0)


def random_jsa(rng, cutoff, sigma=1.0):
    c = rng.standard_normal((cutoff + 1, cutoff + 1)) + 1j * rng.standard_normal(
        (cutoff + 1, cutoff + 1)
    )
    c /= np.sqrt(np.sum(np.abs(c) ** 2))
    return tp.JointSpectralAmplitude(coeffs=c, sigma=sigma)


def basis_photon(n, size=None, sigma=1.0):
    size = n + 1 if size is None else size
    coeffs = np.zeros(size, dtype=complex)
    coeffs[n] = 1.0
    return SpectralState(coeffs=coeffs, sigma=sigma)


def test_sector_matrix_small_orders():
    u0 = tp.sector_matrix(0)
    assert np.array_equal(u0, np.eye(1))

    u1 = tp.sector_matrix(1)
    expected1 = np.array([[1.0, -1.0], [1.0, 1.0]]) / S2
    assert np.max(np.abs(u1 - expected1)) < 1e-15

    u2 = tp.sector_matrix(2)
    expected2 = np.array(
        [
            [0.5, -1.0 / S2, 0.5],
            [1.0 / S2, 0.0, -1.0 / S2],
            [0.5, 1.0 / S2, 0.5],
        ]
    )
    assert np.max(np.abs(u2 - expected2)) < 1e-15


def test_sector_matrix_orthogonal_up_to_24():
    for k in range(25):
        u = tp.sector_matrix(k)
        assert np.max(np.abs(u @ u.T - np.eye(k + 1))) < 1e-12


@functools.cache
def literal_sector_matrix(k):
    """The FBS sector matrix by expanding (a - b)^n (a + b)^m / sqrt(2^k) term by term."""
    u = np.zeros((k + 1, k + 1))
    for n in range(k + 1):
        m = k - n
        for r in range(k + 1):
            acc = 0
            for q in range(max(0, r - n), min(m, r) + 1):
                acc += math.comb(n, r - q) * math.comb(m, q) * (-1) ** (n - r + q)
            if acc:
                amp = math.exp(
                    0.5
                    * (
                        math.lgamma(r + 1)
                        + math.lgamma(k - r + 1)
                        - math.lgamma(n + 1)
                        - math.lgamma(m + 1)
                    )
                )
                u[r, n] = amp * acc * 2.0 ** (-0.5 * k)
    return u


def test_sector_matrix_matches_literal_expansion_up_to_60():
    for k in range(61):
        assert np.max(np.abs(tp.sector_matrix(k) - literal_sector_matrix(k))) < 1e-13


def eigh_sector_matrix(k):
    """The FBS sector matrix from the eigenvectors of the tridiagonal J_x = V diag(m) V^T:
    R V diag(e^{i pi m/2}) V^T R^dagger with R = diag(e^{-i pi n/2}), averaged in the two
    exchange symmetries (m = -k/2..k/2 exactly; the product does not depend on the
    eigenvectors' signs). A LAPACK construction that shares no step with the recurrence."""
    n = np.arange(k + 1)
    off = np.sqrt((n[:-1] + 1.0) * (k - n[:-1])) / 2.0
    _, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    rotation = (v * np.exp(0.5j * np.pi * (n - k / 2.0))) @ v.T
    r = np.array([1.0, -1.0j, -1.0, 1.0j])[n % 4]
    u = (r[:, None] * rotation * r.conj()).real
    u = 0.5 * (u + (-1.0) ** (k - n)[:, None] * u[:, ::-1])
    return 0.5 * (u + (-1.0) ** n * u[::-1])


def test_sector_matrix_matches_the_eigh_construction_up_to_200():
    for k in range(201):
        assert np.max(np.abs(tp.sector_matrix(k) - eigh_sector_matrix(k))) <= 1e-14


def recurrence_residual(u):
    """max |U diag(n - k/2) - T U|, T[r, r+1] = T[r+1, r] = -sqrt((r+1)(k-r))/2, without BLAS."""
    k = u.shape[0] - 1
    n = np.arange(k + 1)
    c = np.sqrt((n[:-1] + 1.0) * (k - n[:-1]))[:, None] / 2.0
    tu = np.zeros_like(u)
    tu[:-1] -= c * u[1:]
    tu[1:] -= c * u[:-1]
    return np.max(np.abs(u * (n - k / 2.0) - tu))


@pytest.mark.parametrize("k", [1100, 2300])
def test_sector_matrix_beyond_the_default_guard(k, monkeypatch):
    # Above k ~ 1074, C(k, n) / 2^k underflows a double at the edges of row 0 (its square
    # root does above k ~ 2148), and at k = 2300 column 0 spans 2^1150: the recurrence
    # carries a binary exponent per column, so no column is lost and U stays orthogonal.
    monkeypatch.setenv("TFSIM_MAX_COST", str((k + 1) ** 2))
    u = tp.sector_matrix(k)
    gram = u @ u.T
    gram[np.diag_indices(k + 1)] -= 1.0
    assert np.max(np.abs(gram)) <= 1e-13
    del gram
    assert recurrence_residual(u) <= 1e-12


def test_sector_matrix_zeros_are_exact_and_true():
    # For even k, U[r, k/2] = 0 for odd r and U[k/2, n] = 0 for odd n by the exchange
    # symmetries; no other entry is zero unless the literal expansion is.
    for k in range(0, 201, 2):
        u, h = tp.sector_matrix(k), k // 2
        assert not np.any(u[1::2, h]) and not np.any(u[h, 1::2])
    for k in range(61):
        assert np.all((tp.sector_matrix(k) != 0) | (literal_sector_matrix(k) == 0))


def test_sector_matrix_orthogonal_at_high_order():
    for k in (100, 200):
        u = tp.sector_matrix(k)
        assert u.shape == (k + 1, k + 1)
        assert np.max(np.abs(u @ u.T - np.eye(k + 1))) < 1e-13


def test_hom_coincidence_at_high_order():
    # Twin photons in HG_n coincide with probability (C(n, n/2) / 2^n)^2.
    for n in (50, 100):
        jsa = tp.hom_output(n)
        expected = (math.comb(n, n // 2) / 2.0**n) ** 2
        assert tp.coincidence_probability(jsa, n, n) == pytest.approx(expected, rel=1e-10)


def test_hom_coincidence_to_rounding(capsys):
    # P(n, n) = (C(n, n/2) / 2^n)^2, at n = 100 and through the CLI at n = 498 (sector
    # k = 996, the largest the default guard admits).
    expected = float(Fraction(math.comb(100, 50), 2**100) ** 2)
    p = tp.coincidence_probability(tp.hom_output(100), 100, 100)
    assert abs(p - expected) <= 1e-14 * expected
    assert cli.main(["hom", "--n", "498"]) == 0
    p = json.loads(capsys.readouterr().out)["coincidence"]["probability"]
    expected = float(Fraction(math.comb(498, 249), 2**498) ** 2)
    assert abs(p - expected) <= 1e-12 * expected


def test_sector_cost_guard():
    with pytest.raises(CostGuardError):
        tp.sector_matrix(1000)  # (k+1)^2 = 1 002 001 units > 10^6
    with pytest.raises(CostGuardError):
        tp.hom_output(500)  # sector k = 1000


def test_sector_matrix_is_read_only():
    u = tp.sector_matrix(3)
    with pytest.raises(ValueError):
        u[0, 0] = 99.0


def test_product_jsa_outer_product():
    a = SpectralState(coeffs=np.array([0.6, 0.8j]), sigma=1.0)
    b = SpectralState(coeffs=np.array([1.0, 0.0, 0.0]), sigma=1.0)
    jsa = tp.product_jsa(a, b)
    assert jsa.coeffs.shape == (3, 3)  # padded to the larger input
    assert jsa.coeffs[0, 0] == pytest.approx(0.6)
    assert jsa.coeffs[1, 0] == pytest.approx(0.8j)
    assert jsa.norm_squared == pytest.approx(1.0, rel=1e-14)


def test_product_jsa_validation():
    a = basis_photon(0)
    with pytest.raises(TypeError):
        tp.product_jsa(a, np.array([1.0]))
    with pytest.raises(ValueError):
        tp.product_jsa(a, basis_photon(0, sigma=2.0))


def test_hom_null_and_bunching():
    jsa = tp.hom_output(1)
    # Indistinguishable photons never coincide; they bunch with equal weight
    # and opposite sign in the two-photon outputs.
    assert tp.coincidence_probability(jsa, 1, 1) < 1e-12
    assert tp.coincidence_probability(jsa, 2, 0) == pytest.approx(0.5, abs=1e-10)
    assert tp.coincidence_probability(jsa, 0, 2) == pytest.approx(0.5, abs=1e-10)
    assert jsa.coeffs[2, 0] == pytest.approx(1.0 / S2, rel=1e-12)
    assert jsa.coeffs[0, 2] == pytest.approx(-1.0 / S2, rel=1e-12)

    marg = tp.mode_marginal(jsa, "a")
    assert np.allclose(marg, [0.5, 0.0, 0.5], atol=1e-12)
    assert np.allclose(tp.mode_marginal(jsa, "b"), marg, atol=1e-12)


def test_hom_ground_mode_passthrough():
    jsa = tp.hom_output(0)
    assert jsa.coeffs[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_hom_second_order_coincidence():
    # Both photons in mode 2: the coincidence revives to 1/4.
    jsa = tp.hom_output(2)
    assert tp.coincidence_probability(jsa, 2, 2) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        tp.hom_output(-1)


def test_apply_fbs_is_unitary_on_random_inputs():
    rng = np.random.default_rng(31)
    for _ in range(20):
        jsa = random_jsa(rng, int(rng.integers(2, 7)))
        out = tp.apply_fbs(jsa)
        assert out.norm_squared == pytest.approx(jsa.norm_squared, abs=1e-12)


def test_apply_fbs_conserves_total_index():
    c = np.zeros((4, 4), dtype=complex)
    c[2, 1] = 1.0  # pure k = 3 sector
    out = tp.apply_fbs(tp.JointSpectralAmplitude(coeffs=c))
    for n in range(out.cutoff + 1):
        for m in range(out.cutoff + 1):
            if n + m != 3:
                assert out.coeffs[n, m] == 0.0
    assert out.norm_squared == pytest.approx(1.0, abs=1e-13)


def test_apply_fbs_enlarges_to_fit_populated_sectors():
    c = np.zeros((2, 2), dtype=complex)
    c[1, 1] = 1.0  # k = 2 needs indices up to 2
    out = tp.apply_fbs(tp.JointSpectralAmplitude(coeffs=c))
    assert out.cutoff == 2
    assert out.norm_squared == pytest.approx(1.0, abs=1e-13)


def test_apply_fbs_twice_is_quarter_turn():
    # Two passes rotate the JSA plane by pi/2: C2[r, s] = (-1)^s C[s, r].
    rng = np.random.default_rng(5)
    jsa = random_jsa(rng, 5)
    twice = tp.apply_fbs(tp.apply_fbs(jsa))
    k = twice.cutoff
    expected = np.zeros((k + 1, k + 1), dtype=complex)
    cin = jsa.coeffs
    for r in range(cin.shape[0]):
        for s in range(cin.shape[1]):
            expected[r, s] = (-1) ** s * cin[s, r]
    assert np.max(np.abs(twice.coeffs - expected)) < 1e-12


def test_apply_fbs_twice_matches_grid_quarter_turn():
    # The same quarter-turn law, verified against the brute-force grid path
    # composed with itself, on a basis of random JSAs.
    rng = np.random.default_rng(77)
    for _ in range(10):
        jsa = random_jsa(rng, 4)
        twice = tp.apply_fbs(tp.apply_fbs(jsa))
        grid_twice = tp.apply_fbs_grid(tp.apply_fbs_grid(jsa))
        hi = min(twice.cutoff, grid_twice.cutoff) + 1
        assert np.max(np.abs(twice.coeffs[:hi, :hi] - grid_twice.coeffs[:hi, :hi])) < 1e-13


def test_sector_path_matches_grid_path():
    rng = np.random.default_rng(53)
    for _ in range(10):
        jsa = random_jsa(rng, 6)
        fast = tp.apply_fbs(jsa)
        slow = tp.apply_fbs_grid(jsa)
        assert fast.coeffs.shape == slow.coeffs.shape
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) < 1e-13


def test_unequal_width_pair_against_grid():
    # Photons of different spectral widths, expressed in a common basis: the
    # sector path and the sampled-rotation path agree on the mixed pair.
    wide = decompose(lambda w: hg_value(0, 1.25, w), cutoff=10)
    narrow = decompose(lambda w: hg_value(0, 0.8, w), cutoff=10)
    jsa = tp.product_jsa(wide, narrow)
    fast = tp.apply_fbs(jsa)
    slow = tp.apply_fbs_grid(jsa)
    assert np.max(np.abs(fast.coeffs - slow.coeffs)) < 1e-13
    # Distinguishable only in width: the dip survives partially.
    p11 = tp.coincidence_probability(fast, 1, 1)
    assert 0.0 < p11 < 0.5


@pytest.mark.parametrize("cutoff", [20, 30])
def test_grid_path_is_exact_at_large_cutoff(cutoff):
    # The Gauss-Hermite order follows the input, so the oracle stays exact, with no
    # spurious TruncationWarning, where a fixed sampling grid no longer resolves F.
    import warnings

    rng = np.random.default_rng(cutoff)
    for _ in range(3):
        jsa = random_jsa(rng, cutoff)
        with warnings.catch_warnings():
            warnings.simplefilter("error", tp.TruncationWarning)
            slow = tp.apply_fbs_grid(jsa)
        assert np.max(np.abs(tp.apply_fbs(jsa).coeffs - slow.coeffs)) < 1e-13


def test_grid_path_memory_and_cost_guard(monkeypatch):
    # A 9 x 9 product pair fills sectors up to k = 16: order R = 8 + 16 // 2 + 1 = 17 and
    # (8 + 1) * 17^2 = 2601 units, charged before any table is allocated.
    import tracemalloc

    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal((2, 9))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    jsa = tp.product_jsa(*(SpectralState(c, 1.0) for c in coeffs))
    tracemalloc.start()
    try:
        tp.apply_fbs_grid(jsa)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2e6
    monkeypatch.setenv("TFSIM_MAX_COST", "2600")
    with pytest.raises(CostGuardError, match="costs 2601 "):
        tp.apply_fbs_grid(jsa)
    monkeypatch.setenv("TFSIM_MAX_COST", "2601")
    tp.apply_fbs_grid(jsa)


def test_forced_cutoff_warns_when_norm_is_lost():
    c = np.zeros((2, 2), dtype=complex)
    c[1, 1] = 1.0
    jsa = tp.JointSpectralAmplitude(coeffs=c)
    with pytest.warns(tp.TruncationWarning):
        out = tp.apply_fbs_grid(jsa, cutoff=1)
    assert out.cutoff == 1
    assert out.norm_squared < 1e-12


def test_no_warning_when_nothing_is_lost():
    import warnings

    jsa = tp.hom_output(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", tp.TruncationWarning)
        tp.apply_fbs_grid(jsa, cutoff=3)


def test_coincidence_probability_range_checks():
    jsa = tp.hom_output(1)
    with pytest.raises(ValueError):
        tp.coincidence_probability(jsa, 3, 0)
    with pytest.raises(ValueError):
        tp.coincidence_probability(jsa, -1, 0)


def test_mode_marginal_values_and_validation():
    c = np.zeros((3, 3), dtype=complex)
    c[0, 1] = math.sqrt(0.3)
    c[2, 1] = math.sqrt(0.7) * 1j
    jsa = tp.JointSpectralAmplitude(coeffs=c)
    assert np.allclose(tp.mode_marginal(jsa, "a"), [0.3, 0.0, 0.7], atol=1e-14)
    assert np.allclose(tp.mode_marginal(jsa, "b"), [0.0, 1.0, 0.0], atol=1e-14)
    with pytest.raises(ValueError):
        tp.mode_marginal(jsa, "c")


def test_jsa_validation():
    with pytest.raises(ValueError):
        tp.JointSpectralAmplitude(coeffs=np.ones((2, 3)))
    with pytest.raises(ValueError):
        tp.JointSpectralAmplitude(coeffs=np.ones((2, 2)))  # norm 4
    with pytest.raises(ValueError):
        tp.JointSpectralAmplitude(coeffs=np.eye(2) / S2, sigma=-1.0)
    with pytest.raises(ValueError, match="coeffs"):
        tp.JointSpectralAmplitude(coeffs=np.zeros((0, 0)))
    one_nan = np.eye(2) / S2
    one_nan[0, 1] = np.nan
    with pytest.raises(ValueError, match="norm nan"):
        tp.JointSpectralAmplitude(coeffs=one_nan)
