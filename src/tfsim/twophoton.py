"""Joint spectral amplitudes of photon pairs and the frequency beam splitter.

A photon pair with one photon in each spatial arm carries a joint spectral
amplitude F(omega_a, omega_b); over a shared Hermite-Gauss basis of width
sigma it becomes the coefficient matrix C[n, m] = <n, m|psi>. The frequency
beam splitter (FBS) maps the two frequencies to their normalized sum and
difference -- a pi/4 rotation of the (omega_a, omega_b) plane. On HG indices
this is exactly the balanced beam-splitter unitary: the total index k = n + m
is conserved and each k-sector transforms by the orthogonal matrix of
:func:`sector_matrix`, fixed by the ladder map a -> (a - b)/sqrt2,
b -> (a + b)/sqrt2 so that C[1][1] = 1 goes to (C[2][0] - C[0][2])/sqrt2.

Two evaluation paths are provided: the exact sector path (:func:`apply_fbs`)
and a quadrature path (:func:`apply_fbs_grid`) that evaluates F at rotated
Gauss-Hermite nodes and projects back onto the basis. The rule's order makes
the projection exact, so the two agree to rounding, which the test-suite
checks on random inputs up to cutoff 30.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import _check_cost, _check_int
from .hg import SpectralState, _Amplitude, _recurrence, gauss_hermite, hermite_functions

__all__ = [
    "JointSpectralAmplitude",
    "TruncationWarning",
    "sector_matrix",
    "product_jsa",
    "apply_fbs",
    "apply_fbs_grid",
    "coincidence_probability",
    "mode_marginal",
    "hom_output",
]

TRUNCATION_TOL = 1e-6


class TruncationWarning(UserWarning):
    """apply_fbs_grid's output cutoff discarded more than TRUNCATION_TOL of the norm."""


def _check_sector_cost(k):
    """Refuse a total-index-k sector whose (k+1)^2 cost units exceed the guard; return k."""
    _check_cost((k + 1) ** 2, f"sector k={k}")
    return k


def sector_matrix(k):
    """Unitary action of the FBS on the total-index-k sector.

    Returns a new read-only (k+1) x (k+1) real orthogonal matrix U with C_out[r, k-r] = sum_n
    U[r, n] C_in[n, k-n]: the spin-k/2 rotation R exp(i pi/2 J_x) R^dagger, R = diag(e^{-i pi n/2}),
    in O(k^2) with no LAPACK or BLAS, from row 0 and the J_x three-term (Krawtchouk) recurrence,
    run by :func:`tfsim.hg._recurrence` on rows 0..k//2.
    """
    k = _check_sector_cost(_check_int(k, "k"))
    n, h = np.arange(k + 1), k // 2
    # U[0, j] = (-1)^j sqrt(z) 2^-((k+1)//2), z = C(k, j) 2^(k%2); float(2r + sticky) rounds once.
    roots, z = [], 1 << (k & 1)
    for j in range(h + 1):
        t = 60 - z.bit_length() // 2  # r = floor(sqrt(z) 2^t) has about 60 bits
        y, lost = divmod(z << max(0, 2 * t), 1 << max(0, -2 * t))
        r = math.isqrt(y)
        roots.append((2 * r + (r * r != y or lost != 0), -t - 1))
        z = z * (k - j) // (j + 1)
    m, e = np.array(roots + roots[: k - h][::-1]).T
    lam, c = k / 2.0 - n, (np.sqrt((n[:h] + 1.0) * (k - n[:h])) / 2.0).tolist()
    u = np.empty((k + 1, k + 1))
    _recurrence(lam, c, m * (-1.0) ** n, e - (k + 1) // 2, u[: h + 1])
    u[h + 1 :] = u[: k - h][::-1] * (-1.0) ** n
    # Average in the two exchange symmetries, U[r, n] = (-1)^(k-r) U[r, k-n] =
    # (-1)^n U[k-r, n], so that the amplitudes they forbid are exactly zero.
    u = 0.5 * (u + (-1.0) ** (k - n)[:, None] * u[:, ::-1])
    u = 0.5 * (u + (-1.0) ** n * u[::-1])
    u.setflags(write=False)
    return u


@dataclass(frozen=True)
class JointSpectralAmplitude(_Amplitude):
    """Two-photon spectral state: square coefficient matrix over HG pairs.

    ``coeffs[n, m]`` is the amplitude on basis mode n in arm a and m in arm b;
    ``sigma`` is the shared basis width. The total weight may fall short of 1
    (truncation); the shortfall is exposed as ``deficit``, never renormalized.
    """

    PHOTONS = 2

    sigma: float = 1.0


def product_jsa(a, b):
    """Separable pair: C[n, m] = a.coeffs[n] * b.coeffs[m].

    Both :class:`~tfsim.hg.SpectralState` inputs must share the basis width.
    """
    if not isinstance(a, SpectralState) or not isinstance(b, SpectralState):
        raise TypeError("product_jsa expects two SpectralState inputs")
    if a.sigma != b.sigma:
        raise ValueError(f"basis widths differ: {a.sigma} vs {b.sigma}")
    size = max(a.coeffs.size, b.coeffs.size)
    ca = np.zeros(size, dtype=complex)
    cb = np.zeros(size, dtype=complex)
    ca[: a.coeffs.size] = a.coeffs
    cb[: b.coeffs.size] = b.coeffs
    return JointSpectralAmplitude(np.outer(ca, cb), a.sigma)


def _pair(n):
    """Two photons in unit-width basis mode n, one per arm: the sector-2n product pair."""
    n = _check_int(n, "n")
    _check_sector_cost(2 * n)
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    photon = SpectralState(coeffs=coeffs, sigma=1.0)
    return product_jsa(photon, photon)


def _sector(coeffs, k):
    """Arm-a indices n of the sector n + m = k of a square ``coeffs``, and coeffs[n, k - n]."""
    cutoff = coeffs.shape[0] - 1
    n = np.arange(max(0, k - cutoff), min(k, cutoff) + 1)
    return n, coeffs[n, k - n]


def _populated_kmax(coeffs):
    rows, cols = np.nonzero(coeffs)
    if rows.size == 0:
        return 0
    return int(np.max(rows + cols))


def apply_fbs(jsa):
    """Frequency beam splitter on a JSA, exact sector-by-sector.

    The output matrix is enlarged so that every populated total-index sector
    fits (k = n + m is conserved, so the map is exact and loses no norm).
    """
    kmax = _populated_kmax(jsa.coeffs)
    target = max(jsa.cutoff, kmax)
    out = np.zeros((target + 1, target + 1), dtype=complex)
    for k in range(kmax + 1):
        n, sector = _sector(jsa.coeffs, k)
        if not np.any(sector):
            continue
        r = np.arange(k + 1)
        out[r, k - r] = sector_matrix(k)[:, n] @ sector
    return JointSpectralAmplitude(out, jsa.sigma)


def apply_fbs_grid(jsa, cutoff=None):
    """Quadrature FBS: evaluate F at rotated Gauss-Hermite nodes, project back.

    For input cutoff c and output size T, F((x - y)/sqrt2, (x + y)/sqrt2) psi_i(x) psi_j(y)
    is a polynomial of degree at most 2c + T in each of x and y times e^(-x^2 - y^2), so
    the tensor Gauss-Hermite rule of order R = c + T//2 + 1 projects it exactly (Golub &
    Welsch 1969); (c + 1) R^2 units, the size of F's basis tables, are charged to the cost
    guard first. It never calls :func:`sector_matrix`: it shares with :func:`apply_fbs`
    only ``hg._recurrence``, through :func:`~tfsim.hg.hermite_functions` and
    :func:`~tfsim.hg.gauss_hermite`, and is used as its oracle. The output cutoff T
    defaults to apply_fbs's size; a smaller ``cutoff`` truncates and warns with
    TruncationWarning if the discarded squared norm exceeds TRUNCATION_TOL.
    """
    kmax = _populated_kmax(jsa.coeffs)
    target = max(jsa.cutoff, kmax) if cutoff is None else _check_int(cutoff, "cutoff")
    order = jsa.cutoff + target // 2 + 1
    _check_cost((jsa.cutoff + 1) * order**2, f"FBS oracle of order {order}")
    rule = gauss_hermite(order)
    x, y = rule.nodes[:, None], rule.nodes[None, :]
    pu = hermite_functions(jsa.cutoff, ((x - y) / np.sqrt(2.0)).ravel())
    pv = hermite_functions(jsa.cutoff, ((x + y) / np.sqrt(2.0)).ravel())
    rotated = np.einsum("np,np->p", pu, jsa.coeffs @ pv).reshape(order, order)
    pout = hermite_functions(target, rule.nodes) * rule.scaled_weights
    coeffs = pout @ rotated @ pout.T
    result = JointSpectralAmplitude(coeffs, jsa.sigma)
    lost = jsa.norm_squared - result.norm_squared
    if lost > TRUNCATION_TOL:
        warnings.warn(
            f"cutoff {target} discarded {lost:.3e} of the squared norm",
            TruncationWarning,
            stacklevel=2,
        )
    return result


def coincidence_probability(jsa, n, m):
    """Probability |C[n, m]|^2 of detecting modes (n, m) in arms (a, b)."""
    if max(_check_int(n, "n"), _check_int(m, "m")) > jsa.cutoff:
        raise ValueError(f"indices ({n},{m}) outside truncation 0..{jsa.cutoff}")
    return float(np.abs(jsa.coeffs[n, m]) ** 2)


def mode_marginal(jsa, arm):
    """Per-arm mode distribution: p[n] = sum_m |C[n, m]|^2 (arm 'a') or transpose."""
    weights = np.abs(jsa.coeffs) ** 2
    if arm == "a":
        return weights.sum(axis=1)
    if arm == "b":
        return weights.sum(axis=0)
    raise ValueError(f"arm must be 'a' or 'b', got {arm!r}")


def hom_output(n=1):
    """Two photons in unit-width basis mode n, one per arm, after the beam splitter."""
    return apply_fbs(_pair(n))

