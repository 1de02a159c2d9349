"""Hermite-Gauss spectral modes, Gauss-Hermite quadrature, and decompositions.

The single-photon spectral basis used throughout the package is the family of
Hermite-Gauss functions

    HG_n(omega; sigma) = (pi sigma^2)^(-1/4) (2^n n!)^(-1/2)
                         H_n(omega/sigma) exp(-omega^2 / (2 sigma^2)),

orthonormal on the real line. ``omega`` is a dimensionless detuning from the
carrier in units set by ``sigma``. Evaluation never forms the bare Hermite
polynomial times the Gaussian; the weighted three-term recurrence

    sqrt((n+1)/2) psi_{n+1}(x) = x psi_n(x) - sqrt(n/2) psi_{n-1}(x)

is used instead, from psi_0 carried as a mantissa and a power of two, so it stays
finite and accurate at large ``n`` and ``|x|`` (psi_0 underflows past |x| = 37.6; past
sqrt(2 nmax + 1) + 40 rows 0..nmax are below 1e-365 and are returned as 0). One private
``_recurrence`` runs it, the Gauss-Hermite weights and the FBS sector rows of
:mod:`tfsim.twophoton`.

Overlaps use the order-n Gauss-Hermite rule of :func:`gauss_hermite`: the
square roots of the eigenvalues of the (n//2)-square Laguerre Jacobi matrix
(alpha = -1/2, or +1/2 plus the node 0 for odd n; Golub & Welsch 1969),
polished by Newton steps on psi_n with psi_n' = sqrt(2n) psi_{n-1} - x psi_n.
It keeps the O(1) scaled weights W = w e^{x^2} = 1/(n psi_{n-1}(x)^2) (Townsend,
Trogdon & Olver 2016), from the last two rows of the recurrence, so that no order
underflows. A rule charges (n//2)^2 units to the cost guard.
"""

from __future__ import annotations

import math
import warnings
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
    "decompose",
    "SpectralState",
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
    nodes : ndarray (read-only copy)
        Strictly increasing quadrature nodes.
    scaled_weights : ndarray (read-only copy)
        Positive scaled weights W = w e^{x^2}; sum W g(x) approximates the
        integral of g, exactly when g e^{x^2} is a polynomial of degree
        <= 2*order - 1.
    """

    nodes: np.ndarray
    scaled_weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        scaled = np.array(self.scaled_weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != scaled.shape or nodes.size < 1:
            raise ValueError("nodes and weights must be non-empty 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all((scaled > 0) & np.isfinite(scaled)):
            raise ValueError("weights must be positive")
        nodes.setflags(write=False)
        scaled.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "scaled_weights", scaled)

    @property
    def order(self):
        """Number of nodes."""
        return len(self.nodes)


def _recurrence(lam, c, first, exponent, out=None):
    """Rows p_0..p_len(c) of c[r] p_{r+1} = lam p_r - c[r-1] p_{r-1} from p_{-1} = 0 and
    p_0 = first 2^exponent, columnwise (Golub & Welsch 1969), on mantissas rescaled by a
    power of two every 64 rows, whose exponents apply one 64-row block at a time. With
    ``out`` it fills out[r] = p_r; without, it returns p_{len(c)-1} and p_len(c)."""
    # int32 exponents: NumPy's ldexp runs about 7x faster on them than on int64.
    prev, cur, exponent, done = np.zeros_like(first), first, np.asarray(exponent, np.int32), 0
    if out is not None:
        out[0] = first
    for r in range(len(c)):
        if r % 64 == 0:  # a row is at most (|lam| + c[r-1]) / c[r] times the two before it
            s = np.frexp(np.maximum(abs(prev), abs(cur)))[1]
            prev, cur = np.ldexp(prev, -s), np.ldexp(cur, -s)
            if out is not None:
                np.ldexp(out[done : r + 1], exponent, out=out[done : r + 1])
                done = r + 1
            exponent = exponent + s
        row = None if out is None else out[r + 1, ...]  # a view, also for 0-d lam
        prev, cur = cur, np.divide(lam * cur - c[r - 1] * prev, c[r], out=row)
    if out is None:
        return np.ldexp(prev, exponent), np.ldexp(cur, exponent)
    np.ldexp(out[done:], exponent, out=out[done:])
    return out


def _hermite_rows(nmax, x, out=None):
    """_recurrence for psi_0..psi_nmax at x: lam = x, c_r = sqrt((r+1)/2), and psi_0 =
    pi^(-1/4) e^(-x^2/2) as pi^(-1/4) e^(e ln2 - x^2/2) times 2^-e, e = rint(x^2/(2 ln2)),
    with ln 2 = hi + lo split so that e * hi is exact (Cody & Waite)."""
    h = 0.5 * x * x
    e = np.fmax(np.rint(h / math.log(2.0)), 0.0)  # fmax maps NaN to 0; NaN stays in psi_0
    first = np.pi**-0.25 * np.exp((e * 0.6931471803691238 - h) + e * 1.9082149292705877e-10)
    c = np.sqrt(np.arange(1.0, nmax + 1.0) / 2.0).tolist()
    return _recurrence(x, c, first, -e.astype(np.int32), out)


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
        lo, hi = _hermite_rows(order, x)
        scaled = 1.0 / (order * lo * lo)
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
    # Past sqrt(2 nmax + 1) + 40 (and at +-inf) every psi_n is below 1e-365: those columns
    # are 0, which also keeps 64 rows of the recurrence from overflowing. NaN stays NaN.
    far = np.abs(x) > math.sqrt(2 * nmax + 1) + 40.0
    x = np.where(far, 0.0, x)
    out = _hermite_rows(nmax, x, np.empty((nmax + 1,) + x.shape))
    out[:, far] = 0.0
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
