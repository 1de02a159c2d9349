"""Frequency-based Gaussian boson sampling over Hermite-Gauss mode patterns.

A zero-mean N-mode time-frequency Gaussian state assigns to every detection
pattern n = (n_1, ..., n_N) of HG mode orders the probability

    P(n) = |det Sigma_Q|^{-1/2} * haf(reduce(A, n)) / prod(n_i!),

where Sigma_Q = Sigma_c + I/2 in the (alpha, alpha*) basis, A is the
block-swapped matrix X (I - Sigma_Q^{-1}) with X = [[0, I], [I, 0]], and
``reduce`` repeats rows/columns i and N+i of A n_i times. The hafnians come
from the Gaussian recurrence of :mod:`tfsim.hafnian` on the full A, for pure
and mixed sources alike: one pattern takes the corner of the box of its
nonzero modes from :func:`~tfsim.hafnian.hafnian_corner`, which fills only
the part of that box of prod (n_i + 1)^2 entries the corner depends on
(about a quarter at large equal n_i); a table up to a cutoff c fills the
(c + 1)^(2N) box once with :func:`~tfsim.hafnian.hafnian_box` and reads its
diagonal. The two give the same bytes for the same pattern.

Everything is cross-checked against :func:`oracle_probability`, which knows
nothing of hafnians: it reconstructs the pure-state frequency wavefunction
from the covariance matrix and projects it onto the HG product basis by
tensor-product Gauss-Hermite quadrature.

Cost guards protect the hafnian evaluation, the sampler's pattern
enumeration and its draws; the limit defaults to
:data:`tfsim.exceptions.DEFAULT_MAX_COST` cost units (one unit = one entry of
the recurrence box, filled or not, or one shot) and is set through the
TFSIM_MAX_COST environment variable (a non-negative decimal integer).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._text import floats, ints, table_text, texts
from .exceptions import CostGuardError, InsufficientMassError, _check_cost, _check_int
from .gaussian import _inverse_and_det, purity_defect, to_complex_covariance
from .hafnian import _check_pattern, hafnian_box, hafnian_corner
from .hg import gauss_hermite, hermite_functions

__all__ = [
    "FgbsDistribution",
    "MASS_REQUIREMENT",
    "build_distribution",
    "probability",
    "oracle_probability",
    "total_probability",
    "sample",
    "samples_to_jsonl",
    "probability_table_csv",
]

MASS_REQUIREMENT = 0.999
IMAG_TOL = 1e-10
MEAN_TOL = 1e-12
PURITY_TOL = 1e-8
#: Order of the tensor-product Gauss-Hermite rule behind oracle_probability.
ORACLE_RULE_ORDER = 48


@dataclass(frozen=True)
class FgbsDistribution:
    """Sampling data derived from a zero-mean Gaussian state.

    ``a_matrix`` is the complex symmetric kernel entering the hafnian,
    ``prefactor`` the normalization |det Sigma_Q|^{-1/2} with Sigma_Q the
    Husimi covariance Sigma_c + I/2, and ``is_pure`` records whether the
    source state was pure (pure sources place zero mass on odd total index).
    ``a_matrix`` is stored as a read-only copy.
    """

    a_matrix: np.ndarray
    prefactor: float
    is_pure: bool

    def __post_init__(self):
        a = np.array(self.a_matrix)
        a.setflags(write=False)
        object.__setattr__(self, "a_matrix", a)

    @property
    def n_modes(self):
        return self.a_matrix.shape[0] // 2


def _check_zero_mean(state):
    if float(np.max(np.abs(state.mean))) > MEAN_TOL:
        raise ValueError("displaced states are not supported; mean must be zero")


def build_distribution(state):
    """Derive (A, prefactor) from a zero-mean Gaussian state.

    Displaced states are rejected: their probabilities would need loop
    hafnians, which are out of scope. So is an ill-conditioned Sigma_Q, whose
    inverse and determinant would be rounding noise. Costs one inverse, one
    determinant and one real eigensolve: X permutes rows and W is unitary, so
    ||A||_2 = max |lam - 1/2| / (lam + 1/2) over lam in eig(Sigma), a bound on
    A's spectral radius that is < 1 iff Sigma > 0. Validation admits Sigma <= 0
    only within UNCERTAINTY_TOL, so only such states are refused. The same lam
    give the purity det(2 Sigma) = prod 2 lam.
    """
    _check_zero_mean(state)
    n = state.n_modes
    eye = np.eye(2 * n)
    sigma_q = to_complex_covariance(state) + 0.5 * eye
    inv, det = _inverse_and_det(sigma_q, "Husimi covariance Sigma_Q")
    a = (eye - inv)[np.r_[n:2 * n, 0:n]]
    asym = float(np.max(np.abs(a - a.T)))
    if asym > 1e-10:
        raise ArithmeticError(f"A matrix lost its symmetry (defect {asym:.3e})")
    a = (a + a.T) / 2.0
    lam = np.linalg.eigvalsh(state.cov)
    norm = float(np.max(np.abs(lam - 0.5) / (lam + 0.5)))
    if not norm < 1.0:
        raise ValueError(f"norm of A is {norm:.6f} >= 1; distribution not normalizable")
    prefactor = 1.0 / math.sqrt(abs(det))
    return FgbsDistribution(
        a_matrix=a,
        prefactor=prefactor,
        is_pure=abs(math.expm1(float(np.sum(np.log(2.0 * lam))))) < 1e-10,  # every lam > 0
    )


def _probabilities(dist, hafnians):
    """The one finish of pattern probabilities: ``dist.prefactor`` times the hafnians,
    whose imaginary residue above IMAG_TOL, or a value below -1e-9, is refused."""
    values = dist.prefactor * hafnians
    residue = float(np.max(np.abs(values.imag)))
    if residue > IMAG_TOL:
        raise ArithmeticError(f"probability has imaginary residue {residue:.3e}")
    if float(np.min(values.real)) < -1e-9:
        raise ArithmeticError(f"negative probability {np.min(values.real):.3e} encountered")
    return values.real


def probability(dist, pattern):
    """Exact probability of one detection pattern.

    Pure sources short-circuit odd total index to exactly 0; mixed Gaussian
    sources can populate odd totals and take the full hafnian path.
    """
    pattern = _check_pattern(pattern, dist.n_modes)
    _check_cost(math.prod((v + 1) ** 2 for v in pattern), f"pattern {pattern}")
    if dist.is_pure and sum(pattern) % 2:
        return 0.0
    active = [i for i, v in enumerate(pattern) if v]
    idx = active + [dist.n_modes + i for i in active]
    corner = hafnian_corner(dist.a_matrix[np.ix_(idx, idx)], [pattern[i] + 1 for i in active] * 2)
    return float(_probabilities(dist, corner))


def _pure_wavefunction_params(state):
    """Quadratic form V + iU of the frequency wavefunction exp(-w(V+iU)w/2)."""
    n = state.n_modes
    sww = state.cov[:n, :n]
    swt = state.cov[:n, n:]
    stt = state.cov[n:, n:]
    inv_ww = np.linalg.inv(sww)
    v = 0.5 * inv_ww
    u = -inv_ww @ swt
    if float(np.max(np.abs(u - u.T))) > PURITY_TOL:
        raise ValueError("covariance is not that of a pure Gaussian state")
    u = (u + u.T) / 2.0
    predicted_tt = 0.5 * (v + u @ np.linalg.inv(v) @ u)
    if float(np.max(np.abs(stt - predicted_tt))) > PURITY_TOL:
        raise ValueError("covariance is not that of a pure Gaussian state")
    return v, u


def oracle_probability(state, pattern):
    """Ground-truth pattern probability by direct quadrature, no hafnians.

    Reconstructs the pure-state wavefunction in the frequency representation
    from the covariance matrix and evaluates |<n|psi>|^2 with a
    tensor-product Gauss-Hermite rule. Limited to 3 modes and total index 8.
    """
    n_modes = state.n_modes
    pattern = _check_pattern(pattern, n_modes)
    if n_modes > 3:
        raise CostGuardError("quadrature oracle is limited to 3 modes")
    if sum(pattern) > 8:
        raise CostGuardError("quadrature oracle is limited to total index 8")
    _check_zero_mean(state)
    if purity_defect(state) > PURITY_TOL:
        raise ValueError("quadrature oracle handles pure states only")
    v, u = _pure_wavefunction_params(state)
    m = v + 1j * u
    rule = gauss_hermite(ORACLE_RULE_ORDER)
    factors = [hermite_functions(k, rule.nodes)[k] * rule.scaled_weights for k in pattern]
    weight_tensor = factors[0]
    for f in factors[1:]:
        weight_tensor = np.multiply.outer(weight_tensor, f)
    grids = np.meshgrid(*([rule.nodes] * n_modes), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    quad = np.einsum("gi,ij,gj->g", pts, m, pts)
    pref = (np.linalg.det(v) / np.pi**n_modes) ** 0.25
    psi = pref * np.exp(-0.5 * quad)
    amp = weight_tensor.ravel() @ psi
    return float(np.abs(amp) ** 2)


def _enumerate_probabilities(dist, cutoff):
    cutoff = _check_int(cutoff, "cutoff")
    _check_cost((cutoff + 1) ** (2 * dist.n_modes), f"enumerating patterns up to cutoff {cutoff}")
    patterns = list(itertools.product(range(cutoff + 1), repeat=dist.n_modes))
    box = hafnian_box(dist.a_matrix, [cutoff + 1] * (2 * dist.n_modes))
    hafnians = box.reshape(len(patterns), -1).diagonal()
    if dist.is_pure:  # pure sources place no mass on odd totals
        hafnians = np.where([sum(p) % 2 == 1 for p in patterns], 0.0, hafnians)
    return patterns, np.clip(_probabilities(dist, hafnians), 0.0, None)


def total_probability(dist, cutoff):
    """Total mass of all patterns with every entry <= cutoff."""
    _, probs = _enumerate_probabilities(dist, cutoff)
    return float(probs.sum())


def sample(dist, shots, rng_seed, cutoff):
    """Draw detection patterns by exact enumeration and CDF inversion.

    Each shot costs one unit against the guard, charged before anything is
    enumerated or drawn. The truncation must capture at least MASS_REQUIREMENT
    of the distribution, else :class:`InsufficientMassError` reports the
    achieved mass. Identical seeds give identical sequences.
    """
    shots = _check_int(shots, "shots")
    _check_cost(shots, f"{shots} shots")
    patterns, probs = _enumerate_probabilities(dist, cutoff)
    mass = float(probs.sum())
    if mass < MASS_REQUIREMENT:
        raise InsufficientMassError(mass, MASS_REQUIREMENT)
    cdf = np.cumsum(probs / mass)
    cdf[-1] = 1.0
    rng = np.random.default_rng(rng_seed)
    draws = rng.random(shots)
    idx = np.searchsorted(cdf, draws, side="right")
    return [patterns[i] for i in idx]


def _samples_table(samples):
    """The samples' JSON lines as (header, row pieces, row count)."""
    distinct = {}
    codes = np.fromiter((distinct.setdefault(tuple(p), len(distinct)) for p in samples), np.intp)
    patterns = texts((", ".join(map(str, map(int, p))) for p in distinct), codes)
    row = ['{"pattern": [', patterns, '], "shot": ', ints(np.arange(codes.size)), "}\n"]
    return "", row, codes.size


def samples_to_jsonl(samples):
    """Serialize samples as JSON lines {"pattern": [...], "shot": i}."""
    return table_text(*_samples_table(samples))


def probability_table_csv(dist, cutoff):
    """Tabulate pattern probabilities as CSV (pattern entries ';'-joined)."""
    patterns, probs = _enumerate_probabilities(dist, cutoff)
    modes = np.array(patterns).reshape(len(patterns), dist.n_modes).T
    row = [piece for mode in modes for piece in (";", ints(mode))][1:]
    row += [",", floats(probs), "\n"]
    return table_text("pattern,probability\n", row, len(patterns))
