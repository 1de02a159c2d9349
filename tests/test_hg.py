"""Tests for Hermite-Gauss spectral modes and quadrature overlaps."""

import math
import warnings

import numpy as np
import pytest

from tfsim import hg
from tfsim.exceptions import CostGuardError
from tfsim.twophoton import JointSpectralAmplitude

# Reference value for hg_value(50, sigma=1, omega=10), computed with mpmath at
# 60 decimal digits via the direct Hermite-polynomial route.
HG50_AT_10 = 0.3346339145587353475122794


def test_hg_value_ground_mode_peak():
    assert hg.hg_value(0, 1.0, 0.0) == pytest.approx(np.pi ** -0.25, rel=1e-15)


def test_hg_value_odd_mode_vanishes_at_origin():
    assert hg.hg_value(1, 1.0, 0.0) == 0.0
    assert hg.hg_value(3, 1.0, 0.0) == 0.0


def test_hg_value_second_mode_at_origin():
    # psi_2(0) = -(1/sqrt(2)) * pi**(-1/4)
    expected = -(np.pi ** -0.25) / np.sqrt(2.0)
    assert hg.hg_value(2, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)


def test_hg_value_scaling_with_width():
    # psi_n^sigma(omega) = psi_n(omega / sigma) / sqrt(sigma)
    rng = np.random.default_rng(7)
    for n in (0, 1, 4, 9):
        omega = rng.uniform(-3.0, 3.0)
        sigma = rng.uniform(0.5, 2.0)
        direct = hg.hg_value(n, sigma, omega)
        rescaled = hg.hg_value(n, 1.0, omega / sigma) / np.sqrt(sigma)
        assert direct == pytest.approx(rescaled, rel=1e-13, abs=1e-15)


def test_hg_value_vectorized():
    omega = np.linspace(-4.0, 4.0, 17)
    values = hg.hg_value(3, 1.0, omega)
    assert values.shape == omega.shape
    for w, v in zip(omega, values):
        assert v == pytest.approx(hg.hg_value(3, 1.0, float(w)), rel=1e-14, abs=1e-16)


def test_hg_value_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hg.hg_value(-1, 1.0, 0.0)
    with pytest.raises(ValueError):
        hg.hg_value(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        hg.hg_value(0, -2.0, 0.0)
    with pytest.raises(ValueError, match="nmax must be an integer >= 0"):
        hg.hermite_functions(-1, 0.0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda f: hg.decompose(f, cutoff=-1), "cutoff must be an integer >= 0"),
        (  # the contract asks for order 2 * 5 + MIN_ORDER_MARGIN = 26
            lambda f: hg.decompose(f, cutoff=5, rule=hg.gauss_hermite(10)),
            "rule order 10 below contract minimum 26",
        ),
        (lambda f: hg.decompose(lambda w: 1.0, cutoff=2), "f must map an ndarray"),
    ],
    ids=["negative-cutoff", "rule-below-minimum", "f-wrong-shape"],
)
def test_decompose_rejects_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call(lambda w: np.exp(-w * w / 2.0))


def test_hg_value_high_order_far_tail():
    # Order 50 evaluated ten widths from the origin, against an
    # extended-precision reference.  The recurrence must not lose accuracy.
    value = hg.hg_value(50, 1.0, 10.0)
    assert value == pytest.approx(HG50_AT_10, rel=1e-12)


def test_hg_value_high_order_mpmath_cross_check():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    # Past |x| = 37.6 the seed pi^(-1/4) e^(-x^2/2) is subnormal or 0, yet large orders
    # are O(1) there: hg_value(1000, 1, 40) is 0.17225052073279226.
    for n, x in ((47, 8.5), (1000, 40.0), (1500, 39.0), (2000, 50.0)):
        ref = (
            mpmath.hermite(n, x)
            * mpmath.exp(-x * x / 2)
            / mpmath.sqrt(mpmath.mpf(2) ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
        )
        assert hg.hg_value(n, 1.0, x) == pytest.approx(float(ref), rel=1e-11, abs=0.0)


def test_hermite_functions_vanish_at_infinity():
    # psi_n(+-inf) = 0 for every row, with no inf * 0 warning; NaN stays NaN and
    # the finite columns keep their bytes.
    x = np.array([0.3, np.inf, -2.0, -np.inf, np.nan, 45.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = hg.hermite_functions(50, x)
        for n in range(51):
            assert hg.hg_value(n, 1.0, np.inf) == 0.0
            assert hg.hg_value(n, 2.5, -np.inf) == 0.0
    assert np.array_equal(table[:, [1, 3]], np.zeros((51, 2)))
    assert np.isnan(table[:, 4]).all()
    assert np.array_equal(table[:, [0, 2, 5]], hg.hermite_functions(50, x[[0, 2, 5]]))
    assert np.array_equal(hg.hermite_functions(3, np.inf), np.zeros(4))


def test_hermite_functions_table_matches_scalar():
    x = np.linspace(-5.0, 5.0, 11)
    table = hg.hermite_functions(6, x)
    assert table.shape == (7, 11)
    for n in range(7):
        for j, xv in enumerate(x):
            assert table[n, j] == pytest.approx(
                hg.hg_value(n, 1.0, float(xv)), rel=1e-13, abs=1e-16
            )


def test_gauss_hermite_polynomial_exactness():
    # An order-n rule integrates x^(2k) exp(-x^2) exactly for 2k <= 2n-1.
    for order in range(1, 65):
        rule = hg.gauss_hermite(order)
        for k in range(order):
            moment = np.sum(rule.weights * rule.nodes ** (2 * k))
            exact = math.sqrt(math.pi) * math.factorial(2 * k) / (
                4.0**k * math.factorial(k)
            )
            assert moment == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("order", [1, 2, 7, 64, 391, 392, 1032])
def test_gauss_hermite_nodes_and_weights_are_symmetric(order):
    # Order 1032 builds only because every W is finite and positive (the rule checks).
    rule = hg.gauss_hermite(order)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.scaled_weights, rule.scaled_weights[::-1])
    if order % 2:
        assert rule.nodes[order // 2] == 0.0


@pytest.mark.parametrize("order", [96, 392])
def test_gauss_hermite_christoffel_identity(order):
    # W_i = w_i exp(x_i^2) = 1 / sum_{k<n} psi_k(x_i)^2, by the explicit sum.
    rule = hg.gauss_hermite(order)
    christoffel = 1.0 / np.sum(hg.hermite_functions(order - 1, rule.nodes) ** 2, axis=0)
    assert np.max(np.abs(rule.scaled_weights / christoffel - 1.0)) < 1e-12


@pytest.mark.parametrize("cutoff, a", [(40, 3.0), (90, 8.0), (250, 10.0)])
def test_decompose_coherent_spectrum_closed_form(cutoff, a):
    # f = pi^(-1/4) exp(-(x-a)^2/2) has c_n = exp(-a^2/4) (a/sqrt2)^n / sqrt(n!).
    # Cutoff 90 doubles to order 392, where plain weights underflow; cutoff 250
    # doubles to order 1032, where psi_0 underflows at the outer nodes.
    f = lambda w: np.pi**-0.25 * np.exp(-((w - a) ** 2) / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", hg.AccuracyWarning)
        state = hg.decompose(f, cutoff=cutoff)
    n = np.arange(cutoff + 1)
    log_factorial = np.array([math.lgamma(k + 1) for k in n])
    exact = np.exp(-a * a / 4 + n * math.log(a / math.sqrt(2)) - 0.5 * log_factorial)
    assert np.max(np.abs(state.coeffs - exact)) <= 1e-10
    assert abs(state.deficit) <= 1e-9


def test_gauss_hermite_cost_guard(monkeypatch):
    def never(w):
        raise AssertionError("f must not be evaluated")

    with pytest.raises(CostGuardError):
        hg.decompose(never, cutoff=10**6)
    monkeypatch.setenv("TFSIM_MAX_COST", "99")
    assert hg.gauss_hermite(19).order == 19  # (19 // 2)^2 = 81 units
    with pytest.raises(CostGuardError):
        hg.gauss_hermite(20)  # 100 units


def test_gauss_hermite_rejects_bad_order():
    with pytest.raises(ValueError):
        hg.gauss_hermite(0)
    with pytest.raises(ValueError):
        hg.gauss_hermite(-4)


def test_orthonormality_up_to_20():
    # Overlap of HG_m (as a plain callable) against HG_n via quadrature.
    order = 2 * 20 + 16
    rule = hg.gauss_hermite(order)
    for sigma in (1.0, 1.7):
        for n in range(21):
            for m in range(21):
                f = lambda w, m=m, s=sigma: hg.hg_value(m, s, w)
                overlap = hg.hg_overlap(f, n, sigma, rule)
                expected = 1.0 if n == m else 0.0
                assert abs(overlap - expected) < 1e-10


def test_overlap_gaussian_of_twice_the_width():
    # <0_sigma | 0_(2 sigma)> = sqrt(2 * 2 / (1 + 4)) = sqrt(4/5), a value that
    # a dense trapezoid integration independently reproduces.
    sigma = 1.0
    f = lambda w: (np.pi * (2 * sigma) ** 2) ** -0.25 * np.exp(
        -(w**2) / (2 * (2 * sigma) ** 2)
    )
    overlap = hg.hg_overlap(f, 0, sigma, hg.gauss_hermite(64))
    assert isinstance(overlap, complex)
    assert overlap.real == pytest.approx(math.sqrt(4.0 / 5.0), abs=1e-10)
    assert overlap.imag == pytest.approx(0.0, abs=1e-12)

    grid = np.linspace(-12.0, 12.0, 20001)
    trapezoid = np.trapezoid(hg.hg_value(0, sigma, grid) * f(grid), grid)
    assert overlap.real == pytest.approx(trapezoid, abs=1e-10)


def test_overlap_complex_function():
    # A chirped Gaussian exercises the complex return path.
    f = lambda w: np.pi ** -0.25 * np.exp(-(1 + 0.5j) * w**2 / 2)
    overlap = hg.hg_overlap(f, 0, 1.0, hg.gauss_hermite(64))
    grid = np.linspace(-10.0, 10.0, 20001)
    trapezoid = np.trapezoid(hg.hg_value(0, 1.0, grid) * f(grid), grid)
    assert overlap == pytest.approx(trapezoid, abs=1e-10)


def test_overlap_warns_when_rule_is_too_coarse():
    # A very narrow Gaussian is badly resolved by a low-order rule: doubling
    # the order moves the value, which must raise AccuracyWarning.
    f = lambda w: (np.pi * 0.12**2) ** -0.25 * np.exp(-(w**2) / (2 * 0.12**2))
    with pytest.warns(hg.AccuracyWarning):
        hg.hg_overlap(f, 0, 1.0, hg.gauss_hermite(16))


def test_overlap_warns_when_a_lower_coefficient_moves():
    # An even, narrow Gaussian: <1|f> is 0 at every order by symmetry, but
    # <0|f> moves when the order-18 rule is doubled, and the overlap checks 0..n.
    f = lambda w: (np.pi * 0.12**2) ** -0.25 * np.exp(-(w**2) / (2 * 0.12**2))
    with pytest.warns(hg.AccuracyWarning, match=r"<0\.\.1\|f>"):
        overlap = hg.hg_overlap(f, 1, 1.0, hg.gauss_hermite(18))
    assert abs(overlap) < 1e-12


def test_overlap_does_not_warn_on_smooth_function():
    f = lambda w: (np.pi * 1.3**2) ** -0.25 * np.exp(-(w**2) / (2 * 1.3**2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", hg.AccuracyWarning)
        hg.hg_overlap(f, 0, 1.0, hg.gauss_hermite(48))


def test_decompose_recovers_basis_states():
    state = hg.decompose(lambda w: hg.hg_value(0, 1.0, w))
    assert state.cutoff == 16
    assert state.coeffs.shape == (17,)
    assert state.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(state.coeffs[1:])) < 1e-12
    assert state.deficit < 1e-12

    state1 = hg.decompose(lambda w: hg.hg_value(1, 1.0, w))
    assert state1.coeffs[1] == pytest.approx(1.0, abs=1e-12)
    assert state1.deficit < 1e-12


def test_decompose_gaussian_of_twice_the_width():
    # Closed form: c_{2k} = sqrt(sech r) * tanh(r)^k * sqrt((2k)!) / (2^k k!)
    # with r = ln 2; odd coefficients vanish.
    r = math.log(2.0)
    f = lambda w: (np.pi * 4.0) ** -0.25 * np.exp(-(w**2) / 8.0)
    state = hg.decompose(f, cutoff=10, sigma=1.0)
    for k in range(5):
        expected = (
            math.sqrt(1.0 / math.cosh(r))
            * math.tanh(r) ** k
            * math.sqrt(math.factorial(2 * k))
            / (2.0**k * math.factorial(k))
        )
        assert state.coeffs[2 * k] == pytest.approx(expected, abs=1e-10)
    odd = state.coeffs[1::2]
    assert np.max(np.abs(odd)) < 1e-12
    # The tail beyond the cutoff carries the (small) missing norm.
    retained = sum(
        (1.0 / math.cosh(r))
        * math.tanh(r) ** (2 * k)
        * math.factorial(2 * k)
        / (4.0**k * math.factorial(k) ** 2)
        for k in range(6)
    )
    assert state.deficit == pytest.approx(1.0 - retained, abs=1e-10)


def test_decompose_respects_cutoff_argument():
    state = hg.decompose(lambda w: hg.hg_value(0, 1.0, w), cutoff=4)
    assert state.coeffs.shape == (5,)


def test_mode_probability():
    coeffs = np.zeros(5, dtype=complex)
    coeffs[0] = math.sqrt(0.25)
    coeffs[2] = math.sqrt(0.75)
    state = hg.SpectralState(coeffs=coeffs, sigma=1.0)
    assert hg.mode_probability(state, 0) == pytest.approx(0.25, rel=1e-14)
    assert hg.mode_probability(state, 2) == pytest.approx(0.75, rel=1e-14)
    assert hg.mode_probability(state, 1) == 0.0
    with pytest.raises(ValueError):
        hg.mode_probability(state, 5)
    with pytest.raises(ValueError):
        hg.mode_probability(state, -1)


def test_spectral_state_validation():
    with pytest.raises(ValueError):
        hg.SpectralState(coeffs=np.array([1.2 + 0.0j]), sigma=1.0)
    with pytest.raises(ValueError):
        hg.SpectralState(coeffs=np.array([1.0 + 0.0j]), sigma=0.0)
    with pytest.raises(ValueError):
        hg.SpectralState(coeffs=np.array([[1.0 + 0.0j]]), sigma=1.0)
    with pytest.raises(ValueError, match="coeffs"):
        hg.SpectralState(coeffs=np.zeros(0), sigma=1.0)
    with pytest.raises(ValueError, match="norm nan"):
        hg.SpectralState(coeffs=np.array([np.nan, 0.5]), sigma=1.0)


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda sigma: hg.SpectralState(coeffs=np.array([1.0 + 0.0j]), sigma=sigma),
        lambda sigma: JointSpectralAmplitude(np.eye(1), sigma),
        lambda sigma: hg.hg_value(0, sigma, 0.0),
        lambda sigma: hg.decompose(lambda w: np.exp(-w * w / 2.0), 4, sigma),
    ],
    ids=["SpectralState", "JointSpectralAmplitude", "hg_value", "decompose"],
)
def test_non_finite_width_is_refused(build, sigma):
    with pytest.raises(ValueError, match="sigma must be positive"):
        build(sigma)


def test_spectral_state_norm_and_deficit():
    coeffs = np.zeros(3, dtype=complex)
    coeffs[0] = 0.6
    coeffs[1] = 0.6j
    state = hg.SpectralState(coeffs=coeffs, sigma=2.0)
    assert state.norm_squared == pytest.approx(0.72, rel=1e-14)
    assert state.deficit == pytest.approx(0.28, rel=1e-13)


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):  # nodes not increasing
        hg.QuadratureRule(nodes=np.array([1.0, -1.0]), scaled_weights=np.array([1.0, 1.0]))
    for bad in (-1.0, 0.0, np.nan, np.inf):  # non-positive or non-finite weight
        with pytest.raises(ValueError):
            hg.QuadratureRule(nodes=np.array([-1.0, 1.0]), scaled_weights=np.array([1.0, bad]))
    rule = hg.QuadratureRule(nodes=np.array([-1.0, 1.0]), scaled_weights=np.array([1.0, 1.0]))
    assert rule.order == len(rule.nodes) == 2
