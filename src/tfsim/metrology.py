"""Two-photon phase estimation with frequency beam splitters.

The probe is a :class:`~tfsim.twophoton.JointSpectralAmplitude` supported on
one total-index sector k = n + m = N; the interferometer is the frequency
beam splitter (:func:`~tfsim.twophoton.apply_fbs`) -> index phase
e^{i n phi} on arm a -> beam splitter. Every estimator reads the N+1 sector
amplitudes chi[n] = C[n, N-n] (the sector slice :mod:`tfsim.twophoton` also
reads). The angular-momentum picture maps the two arms onto a spin j = N/2:
J_z is half the index difference and J_x, J_y the exchange generators; the
beam splitter is the rotation e^{i pi J_x / 2} of :func:`~tfsim.twophoton.sector_matrix`.

With the beam-splitter convention of :mod:`tfsim.twophoton` (the one fixed
by the (|2,0> - |0,2>)/sqrt2 image of |1,1>), the Heisenberg-picture
conjugation of J_z through the full interferometer is

    U(phi)^dagger Jz U(phi) = -cos(phi) Jz + sin(phi) Jy,

a pure rotation of the measurement axis (the tests assert this identity and
check the first-moment estimator against it). All three phase-precision
estimators read the output index distribution p_n(phi) and its analytic
phi-derivative: error propagation on <Jz> (degenerate for twin inputs, where
it stays 0) and on <Jz^2>, and the Cramer-Rao bound from its classical Fisher
information.
"""

from __future__ import annotations

import numpy as np

from ._text import floats, ints, table_text, texts
from .exceptions import _check_int, _check_real
from .twophoton import (
    JointSpectralAmplitude,
    _check_sector_cost,
    _pair,
    _sector,
    apply_fbs,
    sector_matrix,
)

__all__ = [
    "PrecisionEstimate",
    "twin_state",
    "interferometer",
    "phase_precision",
    "quantum_fisher_information",
    "best_precision",
    "precision_sweep",
    "sweep_csv_text",
    "heisenberg_slope",
]

LEAK_TOL = 1e-12
NORM_TOL = 1e-10
DEGENERACY_TOL = 1e-12
ROUNDING_FACTOR = 16
PROB_FLOOR = 1e-14
#: best_precision searches this many evenly spaced interior points of (0, pi).
PHI_GRID_POINTS = 181
ESTIMATORS = ("jz", "jz_squared", "fisher")


def twin_state(n_total):
    """Both photons in HG mode N/2, one per arm: the input pair of hom_output(N/2)."""
    if _check_int(n_total, "n_total", 2) % 2:
        raise ValueError("n_total must be an even integer >= 2")
    return _pair(n_total // 2)


def _probe(n_total, state):
    """chi[n] = C[n, N-n] of a probe (the twin state when None), checked to be a unit-norm
    JSA supported on the one sector n + m = N, and N to equal n_total."""
    jsa = twin_state(n_total) if state is None else state
    coeffs = jsa.coeffs
    index = np.add.outer(np.arange(coeffs.shape[0]), np.arange(coeffs.shape[1]))
    sector = int(index.flat[np.argmax(np.abs(coeffs))])
    leak = float(np.abs(coeffs[index != sector]).max(initial=0.0))
    if not leak <= LEAK_TOL:
        raise ValueError(f"support leaks off the n+m={sector} sector ({leak:.3e})")
    norm = jsa.norm_squared
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state norm {norm} is not 1")
    if sector != _check_int(n_total, "n_total"):
        raise ValueError("state total index does not match n_total")
    n, amplitudes = _sector(coeffs, n_total)
    chi = np.zeros(n_total + 1, dtype=complex)
    chi[n] = amplitudes
    return chi


def interferometer(jsa, phi):
    """Run a pair through apply_fbs -> e^{i n phi} on arm a's index n -> apply_fbs."""
    mid = apply_fbs(jsa)
    phases = np.exp(1j * _check_real(phi, "phi") * np.arange(mid.cutoff + 1))
    return apply_fbs(JointSpectralAmplitude(phases[:, None] * mid.coeffs, jsa.sigma))


class PrecisionEstimate(float):
    """Phase precision delta-phi; carries the signal derivative and a
    degeneracy flag (set when |d<signal>/dphi| fell below 1e-12 or below
    ROUNDING_FACTOR times its rounding error, in which case the value is inf)."""

    def __new__(cls, value, derivative, degenerate, estimator, phi):
        obj = super().__new__(cls, value)
        obj.derivative = float(derivative)
        obj.degenerate = bool(degenerate)
        obj.estimator = estimator
        obj.phi = float(phi)
        return obj


def _signal(chi, phis):
    """Output probabilities, their analytic phi-derivatives and the amplitudes they come
    from, amp = B (e^{i phi n} o B chi) and damp = B (i n e^{i phi n} o B chi), a column per phi."""
    b = sector_matrix(chi.size - 1)
    n = np.arange(chi.size)
    phased = np.exp(1j * np.outer(n, phis)) * (b @ chi)[:, None]
    amp = b @ phased
    damp = b @ (1j * n[:, None] * phased)
    return np.abs(amp) ** 2, 2.0 * np.real(np.conj(amp) * damp), amp, damp


def _moment_estimate(chi, phis, observable):
    """Error propagation on <O>(phi) for O diagonal in arm a's index n: the variance of O
    about its mean, the derivative O . dp and its rounding scale |O| . |2 amp damp|."""
    p, dp, amp, damp = _signal(chi, phis)
    variance = ((observable[:, None] - observable @ p) ** 2 * p).sum(axis=0)
    return variance, observable @ dp, np.abs(observable) @ np.abs(2.0 * amp * damp)


def _fisher_information(chi, phis):
    """Classical Fisher information at each of an array of phases."""
    p, dp = _signal(chi, phis)[:2]
    ratio = np.divide(dp**2, p, out=np.zeros_like(p), where=p > PROB_FLOOR)
    return ratio.sum(axis=0)


def _estimates(n_total, phis, estimator, state):
    """delta-phi, signal derivative and degeneracy flag at every phi, as arrays.

    Degenerate points get inf: a vanishing signal, or a derivative within ROUNDING_FACTOR
    of its rounding error (N+1) eps scale, with the scale _moment_estimate returns.
    For 'fisher' the derivative slot carries the Fisher information, or 0 when it vanishes.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    chi = _probe(n_total, state)
    if estimator == "fisher":
        info = _fisher_information(chi, phis)
        degenerate = info < DEGENERACY_TOL**2
        with np.errstate(divide="ignore"):
            value = np.where(degenerate, np.inf, info**-0.5)
        return value, np.where(degenerate, 0.0, info), degenerate
    m = np.arange(n_total + 1) - n_total / 2.0
    variance, derivative, scale = _moment_estimate(chi, phis, m if estimator == "jz" else m * m)
    noise = ROUNDING_FACTOR * (n_total + 1) * np.finfo(float).eps * scale
    degenerate = np.abs(derivative) < np.maximum(DEGENERACY_TOL, noise)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(degenerate, np.inf, np.sqrt(variance) / np.abs(derivative))
    return value, derivative, degenerate


def _best(n_total, phis, estimator, state):
    """The PrecisionEstimate of least delta-phi over ``phis``; ties go to the first."""
    value, derivative, degenerate = _estimates(n_total, phis, estimator, state)
    i = int(np.argmin(value))
    return PrecisionEstimate(value[i], derivative[i], degenerate[i], estimator, phis[i])


def phase_precision(n_total, phi, estimator, state=None):
    """Phase uncertainty delta-phi of one estimator at operating point phi.

    ``estimator`` is one of 'jz' and 'jz_squared' (error propagation on the
    first and second moments of the output index distribution) or 'fisher'
    (inverse root of its classical Fisher information). The probe ``state``
    is a unit-norm JointSpectralAmplitude on the sector n + m = ``n_total``
    and defaults to the twin state |N/2, N/2>. Degenerate estimators
    (vanishing signal derivative) return inf with the ``degenerate`` flag set.
    """
    if not 0.0 < _check_real(phi, "phi") < np.pi:
        raise ValueError("phi must lie in the open interval (0, pi)")
    return _best(n_total, [phi], estimator, state)


def quantum_fisher_information(n_total, state=None):
    """4 Var(n_a) of the post-beam-splitter state: the pure-state bound.

    The phase enters as e^{i phi n_a} between the beam splitters, so the
    quantum Fisher information is four times the index variance of B chi;
    for twin input it equals N(N+2)/2.
    """
    chi = _probe(n_total, state)
    p = np.abs(sector_matrix(n_total) @ chi) ** 2
    n = np.arange(n_total + 1)
    mean = float(n @ p)
    return 4.0 * (float(n**2 @ p) - mean**2)


def best_precision(n_total, estimator, state=None):
    """Minimize delta-phi over PHI_GRID_POINTS interior phases; the estimate's
    ``phi`` is the operating point.

    The whole grid is evaluated as one batch; ties go to the smallest phi.
    """
    return _best(n_total, np.linspace(0.0, np.pi, PHI_GRID_POINTS + 2)[1:-1], estimator, state)


def precision_sweep(n_values, estimator, phi=None):
    """Rows (N, phi, estimator, delta_phi); phi=None optimizes per N."""
    n_values = list(n_values)
    _check_sector_cost(max(n_values, default=0))
    rows = []
    for n_total in n_values:
        if phi is None:
            est = best_precision(n_total, estimator)
        else:
            est = phase_precision(n_total, phi, estimator)
        rows.append((n_total, est.phi, estimator, est))
    return rows


def _sweep_table(rows):
    """The sweep CSV as (header, row pieces, row count)."""
    rows = list(rows)
    n_photons, phis, estimators, values = zip(*rows) if rows else ((),) * 4
    row = [
        ints(n_photons), ",", floats(phis), ",",
        texts(estimators), ",", floats(values), "\n",
    ]
    return "n_photons,phi,estimator,delta_phi\n", row, len(rows)


def sweep_csv_text(rows):
    """Sweep rows as CSV ``n_photons,phi,estimator,delta_phi``."""
    return table_text(*_sweep_table(rows))


def heisenberg_slope(n_values=tuple(range(2, 21, 2)), estimator="fisher"):
    """Fitted log-log slope of the optimized delta-phi against N."""
    rows = precision_sweep(n_values, estimator)
    n = np.array([r[0] for r in rows], dtype=float)
    dphi = np.array([float(r[3]) for r in rows])
    finite = np.isfinite(dphi)
    if finite.sum() < 2:
        raise ValueError("not enough finite precision values to fit a slope")
    slope = np.polyfit(np.log(n[finite]), np.log(dphi[finite]), 1)[0]
    return float(slope)
