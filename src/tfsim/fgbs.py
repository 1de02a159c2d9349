"""Frequency-based Gaussian boson sampling over Hermite-Gauss mode patterns.

A zero-mean N-mode time-frequency Gaussian state assigns to every detection
pattern n = (n_1, ..., n_N) of HG mode orders the probability

    P(n) = |det Sigma_Q|^{-1/2} * haf(reduce(A, n)) / prod(n_i!),

where Sigma_Q = Sigma_c + I/2 in the (alpha, alpha*) basis, A is the
block-swapped matrix X (I - Sigma_Q^{-1}) with X = [[0, I], [I, 0]], and
``reduce`` repeats rows/columns i and N+i of A n_i times. The source must be
pure, as every circuit source is: then A = B (+) conj(B) (Hamilton et al., PRL
119, 170501 (2017)), so haf(reduce(A, n)) = |haf(B_n)|^2, and the hafnians come
from one kernel, the Gaussian recurrence :func:`~tfsim.hafnian.hafnian_box` on
B. Its box has N axes, one per mode: prod (n_i + 1) entries for one pattern,
(c + 1)^N for a table up to a cutoff c. Odd totals come out as exact zeros.
Patterns and tables read one probability box, indexed by the pattern: a pattern
reads the last entry of the box of its nonzero modes, the same bytes as a
table's entry for it, and the sampler turns only the drawn indices into pattern
tuples. Mixed sources are refused, as displaced ones are.

Everything is cross-checked against :func:`oracle_probability`, which knows
nothing of hafnians: it reconstructs the pure-state frequency wavefunction
from the covariance matrix and projects it onto the HG product basis by
tensor-product Gauss-Hermite quadrature.

Cost guards protect the hafnian box and the sampler's draws: one unit is one
box entry or one shot. The limit defaults to
:data:`tfsim.exceptions.DEFAULT_MAX_COST` units and is set through the
TFSIM_MAX_COST environment variable (a non-negative decimal integer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._text import floats, ints, table_text, texts
from .exceptions import CostGuardError, InsufficientMassError, _check_cost, _check_int
from .gaussian import _inverse_and_det, purity_defect, to_complex_covariance
from .hafnian import _check_pattern, hafnian_box

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
MEAN_TOL = 1e-12
PURITY_TOL = 1e-8
#: A source whose off-diagonal block of A is at most this times the condition
#: number of Sigma_Q is pure; that block, rounding noise for a pure state, is dropped.
PURE_SOURCE_TOL = 1e-10
#: Order of the tensor-product Gauss-Hermite rule behind oracle_probability.
ORACLE_RULE_ORDER = 48


@dataclass(frozen=True)
class FgbsDistribution:
    """Sampling data derived from a pure zero-mean Gaussian state.

    ``a_matrix`` is the complex symmetric kernel entering the hafnian, B (+)
    conj(B) exactly, with B its top-left N x N block, stored as a read-only
    copy; ``prefactor`` is the normalization |det Sigma_Q|^{-1/2} with Sigma_Q
    the Husimi covariance Sigma_c + I/2.
    """

    a_matrix: np.ndarray
    prefactor: float

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
    """Derive (A, prefactor) from a pure zero-mean Gaussian state.

    Displaced states are rejected: their probabilities would need loop
    hafnians, which are out of scope. So are mixed states, and an
    ill-conditioned Sigma_Q, whose inverse and determinant would be rounding
    noise. Costs one inverse, one determinant and one real eigensolve: X
    permutes rows and W is unitary, so ||A||_2 = max |lam - 1/2| / (lam + 1/2)
    over lam in eig(Sigma), a bound on A's spectral radius that is < 1 iff
    Sigma > 0. Validation admits Sigma <= 0 only within UNCERTAINTY_TOL, so only
    such states are refused. The same lam give the condition number kappa =
    (lam_max + 1/2) / (lam_min + 1/2) of Sigma_Q. A pure source has a zero
    off-diagonal block A[:N, N:]; one at most PURE_SOURCE_TOL * kappa is taken
    as the rounding noise of the inverse, and A is stored as B (+) conj(B) with
    exact zeros there. A larger block is a mixed source, a ValueError.
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
    cross = float(np.max(np.abs(a[:n, n:])))
    if cross > PURE_SOURCE_TOL * (lam[-1] + 0.5) / (lam[0] + 0.5):  # lam ascending, > 0
        raise ValueError(f"mixed states are not supported; A's off-diagonal block is {cross:.3e}")
    a[:n, n:] = a[n:, :n] = 0.0
    a[n:, n:] = a[:n, :n].conj()
    return FgbsDistribution(a_matrix=a, prefactor=1.0 / math.sqrt(abs(det)))


def _probability_box(dist, last, what):
    """P(m) for every pattern m <= ``last`` on the modes nonzero in ``last``, the others
    empty, indexed by m on those modes: prefactor times |R|^2 of B's box, charged to
    ``what`` one unit per box entry before it is filled."""
    modes = [i for i, v in enumerate(last) if v]
    sides = [last[i] + 1 for i in modes]
    _check_cost(math.prod(sides), what)
    return dist.prefactor * np.abs(hafnian_box(dist.a_matrix[np.ix_(modes, modes)], sides)) ** 2


def probability(dist, pattern):
    """Exact probability of one detection pattern: the last entry of its box."""
    pattern = _check_pattern(pattern, dist.n_modes)
    return float(_probability_box(dist, pattern, f"pattern {pattern}").flat[-1])


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
    from .hg import gauss_hermite, hermite_functions  # only the oracle needs hg

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


def _cutoff_box(dist, cutoff):
    """The probability box of every pattern with each entry <= ``cutoff``."""
    cutoff, n = _check_int(cutoff, "cutoff"), dist.n_modes
    box = _probability_box(dist, (cutoff,) * n, f"enumerating patterns up to cutoff {cutoff}")
    return box.reshape((cutoff + 1,) * n)


def total_probability(dist, cutoff):
    """Total mass of all patterns with every entry <= cutoff."""
    return float(_cutoff_box(dist, cutoff).sum())


def _draw(dist, shots, rng_seed, cutoff):
    """The drawn patterns, distinct and in box order, and each shot's index into them."""
    shots, rng_seed = _check_int(shots, "shots"), _check_int(rng_seed, "rng_seed")
    _check_cost(shots, f"{shots} shots")
    box = _cutoff_box(dist, cutoff)
    probs = box.ravel()
    mass = float(probs.sum())
    if mass < MASS_REQUIREMENT:
        raise InsufficientMassError(mass, MASS_REQUIREMENT)
    cdf = np.cumsum(probs / mass)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, np.random.default_rng(rng_seed).random(shots), side="right")
    drawn = np.zeros(probs.size, dtype=bool)
    drawn[idx] = True
    distinct = np.flatnonzero(drawn)
    patterns = list(zip(*(m.tolist() for m in np.unravel_index(distinct, box.shape))))
    return patterns, np.searchsorted(distinct, idx)


def sample(dist, shots, rng_seed, cutoff):
    """Draw detection patterns by CDF inversion over the cutoff box.

    Each shot costs one unit against the guard, charged before the box is
    filled or anything drawn. The truncation must capture at least
    MASS_REQUIREMENT of the distribution, else :class:`InsufficientMassError`
    reports the achieved mass. The shots that drew a box entry share its
    pattern tuple. Identical seeds give identical sequences.
    """
    patterns, codes = _draw(dist, shots, rng_seed, cutoff)
    return [patterns[i] for i in codes.tolist()]


def _samples_table(patterns, codes):
    """JSON lines of shots drawing patterns[codes[i]], as (header, row pieces, row count)."""
    patterns = texts((", ".join(map(str, map(int, p))) for p in patterns), codes)
    row = ['{"pattern": [', patterns, '], "shot": ', ints(np.arange(codes.size)), "}\n"]
    return "", row, codes.size


def samples_to_jsonl(samples):
    """Serialize samples as JSON lines {"pattern": [...], "shot": i}."""
    distinct = {}
    codes = np.fromiter((distinct.setdefault(tuple(p), len(distinct)) for p in samples), np.intp)
    return table_text(*_samples_table(distinct, codes))


def probability_table_csv(dist, cutoff):
    """Tabulate pattern probabilities as CSV (pattern entries ';'-joined)."""
    box = _cutoff_box(dist, cutoff)
    modes = np.indices(box.shape).reshape(dist.n_modes, -1)
    row = [piece for mode in modes for piece in (";", ints(mode))][1:]
    row += [",", floats(box.ravel()), "\n"]
    return table_text("pattern,probability\n", row, box.size)
