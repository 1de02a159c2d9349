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
and a brute-force grid path (:func:`apply_fbs_grid`) that samples F, rotates
the plane, and projects back onto the basis. They agree to quadrature
accuracy, which the test-suite checks on random inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._text import floats, ints, table_text
from .exceptions import _check_cost, _check_int
from .hg import SpectralState, _Amplitude, hermite_functions

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
    "jsa_to_csv",
]

TRUNCATION_TOL = 1e-6
#: apply_fbs_grid samples F on GRID_POINTS^2 points over +-GRID_EXTENT sigma.
GRID_POINTS = 512
GRID_EXTENT = 8.0


class TruncationWarning(UserWarning):
    """apply_fbs_grid's output cutoff discarded more than TRUNCATION_TOL of the norm."""


def _check_sector_cost(k):
    """Refuse a total-index-k sector whose (k+1)^2 cost units exceed the guard."""
    _check_cost((k + 1) ** 2, f"sector k={k}")


def sector_matrix(k):
    """Unitary action of the FBS on the total-index-k sector.

    Returns a new read-only (k+1) x (k+1) real orthogonal matrix U with
    C_out[r, k-r] = sum_n U[r, n] C_in[n, k-n]: the spin-k/2 rotation
    R exp(i pi/2 J_x) R^dagger, R = diag(e^{-i pi n/2}), from the eigenvectors
    of the tridiagonal J_x = V diag(m) V^T (m = -k/2..k/2 exactly; the product
    V diag(e^{i pi m/2}) V^T does not depend on the eigenvectors' signs).
    """
    k = _check_int(k, "k")
    _check_sector_cost(k)
    n = np.arange(k + 1)
    off = np.sqrt((n[:-1] + 1.0) * (k - n[:-1])) / 2.0
    _, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    rotation = (v * np.exp(0.5j * np.pi * (n - k / 2.0))) @ v.T
    r = np.array([1.0, -1.0j, -1.0, 1.0j])[n % 4]
    u = (r[:, None] * rotation * r.conj()).real
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
    """Brute-force FBS: rotate sampled function values, project back.

    Samples F on a GRID_POINTS x GRID_POINTS grid over +-GRID_EXTENT (in units
    of sigma), evaluates F((x - y)/sqrt2, (x + y)/sqrt2), and recovers
    coefficients by Riemann-sum projection onto the basis. Independent of
    :func:`apply_fbs`; used as its oracle. The output cutoff defaults to
    apply_fbs's size; a smaller ``cutoff`` truncates and warns with
    TruncationWarning if the discarded squared norm exceeds TRUNCATION_TOL.
    """
    kmax = _populated_kmax(jsa.coeffs)
    target = max(jsa.cutoff, kmax) if cutoff is None else _check_int(cutoff, "cutoff")
    x = np.linspace(-GRID_EXTENT, GRID_EXTENT, GRID_POINTS)
    dx = x[1] - x[0]
    grid_x, grid_y = x[:, None], x[None, :]
    u = ((grid_x - grid_y) / np.sqrt(2.0)).ravel()
    v = ((grid_x + grid_y) / np.sqrt(2.0)).ravel()
    pu = hermite_functions(jsa.cutoff, u)
    pv = hermite_functions(jsa.cutoff, v)
    rotated = np.einsum("np,np->p", pu, jsa.coeffs @ pv).reshape(GRID_POINTS, GRID_POINTS)
    pout = hermite_functions(target, x)
    coeffs = (pout * dx) @ rotated @ (pout.T * dx)
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


def jsa_to_csv(jsa):
    """Coefficients as CSV ``n,m,re,im`` rows, n-major."""
    coeffs = jsa.coeffs
    n, m = np.indices(coeffs.shape)
    row = [ints(n), ",", ints(m), ",", floats(coeffs.real), ",", floats(coeffs.imag), "\n"]
    return table_text("n,m,re,im\n", row, coeffs.size)
