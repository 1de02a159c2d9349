"""Hermite-Gauss spectral modes, Gauss-Hermite quadrature, and decompositions.

The single-photon spectral basis used throughout the package is the family of
Hermite-Gauss functions

    HG_n(omega; sigma) = (pi sigma^2)^(-1/4) (2^n n!)^(-1/2)
                         H_n(omega/sigma) exp(-omega^2 / (2 sigma^2)),

orthonormal on the real line. ``omega`` is a dimensionless detuning from the
carrier in units set by ``sigma``. Evaluation never forms the bare Hermite
polynomial times the Gaussian; the weighted three-term recurrence

    psi_{n+1}(x) = x sqrt(2/(n+1)) psi_n(x) - sqrt(n/(n+1)) psi_{n-1}(x)

is used instead, which stays finite and accurate at large ``n`` and ``|x|`` (past
|x| = 37.6, where psi_0 underflows, it carries a power of two, as the quadrature does).

Overlaps use the order-n Gauss-Hermite rule of :func:`gauss_hermite`: the
square roots of the eigenvalues of the (n//2)-square Laguerre Jacobi matrix
(alpha = -1/2, or +1/2 plus the node 0 for odd n; Golub & Welsch 1969),
polished by Newton steps on psi_n with psi_n' = sqrt(2n) psi_{n-1} - x psi_n.
It keeps the O(1) scaled weights W = w e^{x^2} = 1/(n psi_{n-1}(x)^2) (Townsend,
Trogdon & Olver 2016), with psi_{n-1} carried as a mantissa and a power of two
so that no order underflows. A rule charges (n//2)^2 units to the cost guard.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .exceptions import _check_cost, _check_int, _check_real

__all__ = [
    "AccuracyWarning",
    "QuadratureRule",
    "gauss_hermite",
    "hg_value",
    "hermite_functions",
    "hg_overlap",
    "decompose",
    "SpectralState",
    "mode_probability",
]

#: Doubling the quadrature order must move a reported overlap by less than this.
CONVERGENCE_TOL = 1e-10

#: Contract: resolving the degree-2n weighted integrand needs at least this order.
MIN_ORDER_MARGIN = 16

#: Contract: an amplitude's squared norm may exceed 1 by at most this (rounding).
NORM_TOL = 1e-8


class AccuracyWarning(UserWarning):
    """Raised as a warning when refining the quadrature moves a result."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule for the weight exp(-x^2) on the real line.

    Attributes
    ----------
    nodes : ndarray
        Strictly increasing quadrature nodes.
    scaled_weights : ndarray
        Positive scaled weights W = w e^{x^2}; sum W g(x) approximates the
        integral of g, exactly when g e^{x^2} is a polynomial of degree
        <= 2*order - 1.
    """

    nodes: np.ndarray
    scaled_weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        scaled = np.asarray(self.scaled_weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != scaled.shape or nodes.size < 1:
            raise ValueError("nodes and weights must be non-empty 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all((scaled > 0) & np.isfinite(scaled)):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "scaled_weights", scaled)

    @property
    def order(self):
        """Number of nodes."""
        return len(self.nodes)

    @property
    def weights(self):
        """Plain weights w = W e^{-x^2} (they underflow to 0 at the outer nodes of large orders)."""
        return self.scaled_weights * np.exp(-self.nodes**2)


def _scaled_rows(n, x):
    """Yield psi_{k-1}(x), psi_k(x) for k = 0..n (psi_{-1} = 0) as mantissas times
    2**exponent times pi^(-1/4) e^(-x^2/2)."""
    lo, hi, exponent = np.zeros_like(x), np.ones_like(x), np.zeros(x.shape, dtype=int)
    yield lo, hi, exponent
    for k in range(n):
        lo, hi = hi, (math.sqrt(2.0 / (k + 1)) * x) * hi - math.sqrt(k / (k + 1)) * lo
        if k % 32 == 31:
            shift = np.frexp(np.abs(lo) + np.abs(hi))[1]
            lo, hi, exponent = np.ldexp(lo, -shift), np.ldexp(hi, -shift), exponent + shift
        yield lo, hi, exponent


def _log_magnitude(mantissa, exponent, x):
    """log(pi^(1/4) |psi|) of a psi that _scaled_rows gives as mantissa and exponent at x."""
    return np.log(np.abs(mantissa)) + math.log(2.0) * exponent - 0.5 * x * x


def gauss_hermite(order):
    """The Gauss-Hermite :class:`QuadratureRule` of the given order; costs (order // 2)^2 units."""
    order = _check_int(order, "order", 1)
    half = order // 2
    _check_cost(half * half, f"Gauss-Hermite order {order}")
    alpha = 0.5 if order % 2 else -0.5
    k = np.arange(half)
    jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(np.sqrt(k[1:] * (k[1:] + alpha)), 1)
    x = np.concatenate(([0.0] * (order % 2), np.sqrt(np.linalg.eigvalsh(jacobi, UPLO="U"))))
    for _ in range(2):  # W comes from the pass before the last step, which moves x by ~eps
        lo, hi, exponent = deque(_scaled_rows(order, x), maxlen=1)[0]
        scaled = math.sqrt(math.pi) / order * np.exp(-2.0 * _log_magnitude(lo, exponent, x))
        x = x - hi / (math.sqrt(2.0 * order) * lo - x * hi)
    return QuadratureRule(
        np.concatenate((-x[::-1][:half], x)), np.concatenate((scaled[::-1][:half], scaled))
    )


def hermite_functions(nmax, x):
    """Evaluate the unit-width Hermite-Gauss functions psi_0..psi_nmax at ``x``.

    Returns an array of shape ``(nmax + 1,) + shape(x)``. Row ``n`` is
    ``HG_n(x; sigma=1)``.
    """
    nmax = _check_int(nmax, "nmax")
    x = np.asarray(x, dtype=float)
    at_inf = np.isinf(x)
    x = np.where(at_inf, 0.0, x)  # psi_n(+-inf) = 0 for every n: set below; NaN stays NaN
    out = np.zeros((nmax + 1,) + x.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax >= 1:
        out[1] = x * np.sqrt(2.0) * out[0]
    for n in range(1, nmax):
        out[n + 1] = x * np.sqrt(2.0 / (n + 1)) * out[n] - np.sqrt(n / (n + 1)) * out[n - 1]
    # Past |x| = 37.6 the seed is subnormal or 0 and the rows lose their digits: rebuild
    # them from _scaled_rows. Where that overflows (|x| > ~1e9) every row underflows to 0.
    rows = out.reshape(nmax + 1, -1)
    tail = np.flatnonzero(rows[0] < np.finfo(float).tiny)
    if tail.size:
        xt = x.ravel()[tail]
        with np.errstate(all="ignore"):
            for k, (_, hi, exponent) in enumerate(_scaled_rows(nmax, xt)):
                value = np.pi**-0.25 * np.sign(hi) * np.exp(_log_magnitude(hi, exponent, xt))
                rows[k, tail] = np.where(np.isfinite(value), value, rows[k, tail])
    out[:, at_inf] = 0.0
    return out


def hg_value(n, sigma, omega):
    """Value of the Hermite-Gauss mode ``n`` of width ``sigma`` at ``omega``.

    Parameters
    ----------
    n : int
        Mode index, >= 0.
    sigma : float
        Spectral width, > 0.
    omega : float or ndarray
        Detuning(s) at which to evaluate.

    Returns
    -------
    float or ndarray
    """
    n, sigma = _check_int(n, "n"), _check_real(sigma, "sigma", positive=True)
    x = np.asarray(omega, dtype=float) / sigma
    value = hermite_functions(n, x)[n] / np.sqrt(sigma)
    if np.isscalar(omega):
        return float(value)
    return value


def _overlap_matrix(f, cutoff, sigma, rule):
    """Coefficients <n|f> = sqrt(sigma) sum_i psi_n(x_i) W_i f(sigma x_i), n = 0..cutoff."""
    x = rule.nodes
    fx = np.asarray(f(sigma * x))
    if fx.shape != x.shape:
        raise ValueError("f must map an ndarray of detunings to an equal-shape ndarray")
    return np.sqrt(sigma) * ((hermite_functions(cutoff, x) * rule.scaled_weights) @ fx)


def hg_overlap(f, n, sigma, rule=None):
    """Overlap <HG_n(sigma)|f> = Int domega HG_n(omega; sigma)* f(omega), as a complex.

    Coefficient ``n`` of ``decompose(f, n, sigma, rule)``, whose checks (the squared
    norm of coefficients 0..n may not exceed 1) and AccuracyWarning (raised when any
    of them moves under order doubling) it shares.
    """
    return complex(decompose(f, n, sigma, rule).coeffs[n])


@dataclass(frozen=True)
class _Amplitude:
    """The one amplitude contract, of PHOTONS photons over an HG basis of width ``sigma``
    (finite, > 0): ``coeffs`` is a non-empty complex array with one axis of length
    cutoff + 1 per photon, whose squared norm may exceed 1 by at most NORM_TOL. It is
    stored as a read-only copy, so a checked state stays as checked."""

    PHOTONS: ClassVar[int]

    coeffs: np.ndarray
    sigma: float

    def __post_init__(self):
        coeffs = np.atleast_1d(np.array(self.coeffs, dtype=complex))
        if coeffs.ndim != self.PHOTONS or coeffs.size == 0 or len(set(coeffs.shape)) != 1:
            raise ValueError("coeffs must be a non-empty array, one equal axis per photon")
        object.__setattr__(self, "sigma", _check_real(self.sigma, "sigma", positive=True))
        norm = float(np.sum(np.abs(coeffs) ** 2))
        if not norm <= 1.0 + NORM_TOL:
            raise ValueError(f"coefficient norm {norm} is not at most 1")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def cutoff(self):
        return len(self.coeffs) - 1

    @property
    def norm_squared(self):
        return float(np.sum(np.abs(self.coeffs) ** 2))

    @property
    def deficit(self):
        """Probability mass lying outside the truncation: 1 - sum |c|^2."""
        return 1.0 - self.norm_squared


@dataclass(frozen=True)
class SpectralState(_Amplitude):
    """Single-photon spectral amplitude in the Hermite-Gauss basis.

    Attributes
    ----------
    coeffs : ndarray
        Complex coefficients c_0..c_cutoff; sum |c_n|^2 <= 1 + NORM_TOL.
    sigma : float
        Width of the basis the coefficients refer to.
    """

    PHOTONS = 1


def decompose(f, cutoff=16, sigma=1.0, rule=None):
    """Project a spectral amplitude onto HG_0..HG_cutoff.

    Parameters
    ----------
    f : callable
        Spectral amplitude; maps an ndarray of detunings to amplitudes.
    cutoff : int
        Largest retained index (default 16).
    sigma : float
        Basis width.
    rule : QuadratureRule, optional
        Must have order >= 2*cutoff + 16. Defaults to exactly that order; the
        coefficients come from the doubled-order rule.

    Returns
    -------
    SpectralState
        The truncation deficit is exposed via ``state.deficit``, never hidden.

    Warns
    -----
    AccuracyWarning
        If any coefficient moves by more than 1e-10 under order doubling.
    """
    cutoff, sigma = _check_int(cutoff, "cutoff"), _check_real(sigma, "sigma", positive=True)
    minimum = 2 * cutoff + MIN_ORDER_MARGIN
    if rule is None:
        rule = gauss_hermite(minimum)
    if rule.order < minimum:
        raise ValueError(f"rule order {rule.order} below contract minimum {minimum}")
    coarse = _overlap_matrix(f, cutoff, sigma, rule)
    fine = _overlap_matrix(f, cutoff, sigma, gauss_hermite(2 * rule.order))
    shift = float(np.max(np.abs(fine - coarse)))
    if shift > CONVERGENCE_TOL:
        warnings.warn(
            f"coefficients <0..{cutoff}|f> moved by up to {shift:.3e} when the quadrature "
            "order was doubled; raise the rule order",
            AccuracyWarning,
            stacklevel=2,
        )
    return SpectralState(coeffs=fine, sigma=sigma)


def mode_probability(state, n):
    """Probability |c_n|^2 of finding the photon in basis mode ``n``."""
    if _check_int(n, "n") > state.cutoff:
        raise ValueError(f"mode index {n} outside truncation 0..{state.cutoff}")
    return float(np.abs(state.coeffs[n]) ** 2)
