"""Gaussian states and symplectic gates on single-photon chronocyclic phase space.

Each spectral mode carries a conjugate pair (omega, t): the detuning from the
carrier and the arrival-time offset, with the commutator analog [omega, t] = i.
An N-mode Gaussian state is the pair (mean, Sigma) over the coordinate vector

    X = (omega_1, ..., omega_N, t_1, ..., t_N)

(block ordering). The single-photon vacuum reference -- a photon with the unit
Gaussian spectrum -- has mean 0 and covariance Sigma = I/2, and every gate is a
symplectic matrix S (S^T Omega S = Omega with Omega = [[0, I], [-I, 0]])
optionally followed by a mean displacement. Purity is det(2 Sigma) = 1. The
gates are the entries of one table, :data:`GATES`, each a small symplectic
block on its targets' rows; :func:`apply` (and :func:`tfsim.circuit.run_circuit`,
which folds the same step over a circuit) updates only those rows and columns,
so a gate costs O(N).

Wigner and Husimi functions use the normalized conventions

    W(X) = exp(-(X-mu)^T Sigma^-1 (X-mu) / 2) / ((2 pi)^N sqrt(det Sigma)),
    Q(alpha) = exp(-d^T (Sigma + I/2)^-1 d / 2) / (pi^N sqrt(det(Sigma + I/2))),

with alpha_k = (omega_k + i t_k)/sqrt(2) and d the phase-space displacement, so
the vacuum peaks at 1/pi in both and integrates to one (d^2alpha = domega dt/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._text import floats, table_text
from .exceptions import _check_cost

__all__ = [
    "GaussianTFState",
    "PhaseSpaceGrid",
    "vacuum_state",
    "symplectic_form",
    "Gate",
    "GATES",
    "gate_block",
    "mode_indices",
    "apply",
    "reduce_to_mode",
    "purity_defect",
    "to_complex_covariance",
    "wigner_eval",
    "husimi_eval",
    "wigner_csv_text",
]

UNCERTAINTY_TOL = 1e-10
#: A covariance whose diagonally scaled 1-norm condition number exceeds this is refused.
CONDITION_LIMIT = 1.0 / np.finfo(float).eps


def symplectic_form(n_modes):
    """Omega = [[0, I], [-I, 0]] in block (omega..., t...) ordering."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


@dataclass(frozen=True)
class GaussianTFState:
    """Gaussian state of N spectral modes: mean vector and covariance matrix.

    ``mean`` has length 2N and ``cov`` is 2N x 2N; both are finite, ``cov`` is
    symmetric and satisfies the uncertainty relation Sigma + i Omega / 2 >= 0
    (all validated). Both are stored as read-only copies.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2:
            raise ValueError("mean must be a 1-d vector of even length 2N")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov must be square with the same 2N dimension as mean")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        cov = (cov + cov.T) / 2.0
        herm = cov + 0.5j * symplectic_form(mean.size // 2)
        try:  # a Cholesky factor exists iff every eigenvalue exceeds -UNCERTAINTY_TOL
            np.linalg.cholesky(herm + UNCERTAINTY_TOL * np.eye(mean.size))
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(herm).min())
            if min_eig < -UNCERTAINTY_TOL:
                raise ValueError(
                    f"covariance violates the uncertainty relation (min eig {min_eig:.3e})"
                ) from None
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self):
        return self.mean.size // 2


def _check_mode_count(n_modes):
    """The one mode-count rule: ValueError unless a non-bool Python or NumPy integer >= 1."""
    if isinstance(n_modes, bool) or not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
        raise ValueError("modes must be an integer >= 1")


def vacuum_state(n_modes):
    """N unit-width Gaussian photons: mean 0, covariance I/2."""
    _check_mode_count(n_modes)
    return GaussianTFState(np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))


def mode_indices(modes, n_modes):
    """Rows (omega_m..., t_m...) of distinct non-bool integer modes in 0..N-1, else ValueError."""
    for mode in modes:
        if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)):
            raise ValueError(f"mode {mode!r} is not an integer")
        if not 0 <= mode < n_modes:
            raise ValueError(f"mode {mode} outside 0..{n_modes - 1}")
    if len(set(modes)) != len(modes):
        raise ValueError(f"modes {tuple(modes)} must be distinct")
    return list(modes) + [n_modes + m for m in modes]


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
#: The fbs block, built once (read-only): H on (omega_a, omega_b) and on (t_a, t_b).
_FBS_BLOCK = np.block([[_HADAMARD, np.zeros((2, 2))], [np.zeros((2, 2)), _HADAMARD]])
_FBS_BLOCK.setflags(write=False)


def _fbs_block():
    return _FBS_BLOCK, None


def _frft_block(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]]), None


def _scale_block(s):
    if not s > 0:
        raise ValueError("scale factor s must be positive")
    return np.diag([float(s), 1.0 / float(s)]), None


def _displace_block(omega0, t0):
    if not (np.isfinite(omega0) and np.isfinite(t0)):
        raise ValueError("displacement values must be finite")
    return np.eye(2), np.array([omega0, t0], dtype=float)


@dataclass(frozen=True)
class Gate:
    """One gate kind: its target count, parameter names and block builder.

    ``build(**params)`` returns the 2a x 2a symplectic block acting on the
    (omega..., t...) rows of the a targets, and a length-2a mean shift or None.
    """

    arity: int
    params: tuple
    build: object


#: The gate table: circuit parsing and apply / run_circuit read it. fbs maps
#: (omega_a, omega_b) and (t_a, t_b) to their sum and difference over sqrt2; frft
#: rotates one mode's (omega, t) plane by phi (HG index n picks up e^{i n phi});
#: scale maps omega -> s omega, t -> t / s; displace shifts the mean by (omega0, t0).
GATES = {
    "fbs": Gate(2, (), _fbs_block),
    "frft": Gate(1, ("phi",), _frft_block),
    "scale": Gate(1, ("s",), _scale_block),
    "displace": Gate(1, ("omega0", "t0"), _displace_block),
}


def gate_block(name, params):
    """Table block and shift of gate ``name``: the one check of a gate's name and parameters.

    ValueError unless ``name`` is in the table and ``params`` names exactly its parameters,
    passes the builder's domain check (``s > 0``, finite displacements) and gives a finite block.
    """
    if name not in GATES:
        raise ValueError(f"unknown gate {name!r}; expected one of {sorted(GATES)}")
    gate, names = GATES[name], params.keys()
    if names != set(gate.params):
        missing, unknown = sorted(set(gate.params) - names), sorted(names - set(gate.params))
        raise ValueError(f"gate {name!r}: missing keys {missing}, unknown keys {unknown}")
    with np.errstate(invalid="ignore"):  # cos(inf) is nan, refused below
        block, shift = gate.build(**params)
    if not np.isfinite(block).all():
        raise ValueError(f"{name} block is not finite for parameters {params}")
    return block, shift


def _check_target_count(gate, targets):
    """The one target-count rule: ValueError unless a list, tuple or array of the gate's arity."""
    if not isinstance(targets, (list, tuple, np.ndarray)) or len(targets) != GATES[gate].arity:
        raise ValueError(f"gate {gate!r} takes exactly {GATES[gate].arity} target(s)")


@np.errstate(over="ignore", invalid="ignore")  # GaussianTFState rejects the result
def _step(mean, cov, gate, targets, params):
    """Apply one table gate in place to its targets' rows and columns only, after the one
    check of a step for apply and run_circuit: gate_block, the target count, mode_indices."""
    block, shift = gate_block(gate, params)
    _check_target_count(gate, targets)
    idx = mode_indices(targets, mean.size // 2)
    cov[idx, :] = block @ cov[idx, :]
    cov[:, idx] = cov[:, idx] @ block.T
    mean[idx] = block @ mean[idx]
    if shift is not None:
        mean[idx] += shift


def apply(state, gate, targets, **params):
    """Apply table gate ``gate`` to the modes ``targets``: mean -> S mean + shift,
    Sigma -> S Sigma S^T, with S the gate's block on the targets' rows.

    Gates, targets and parameters are named as in a circuit file's ops, e.g.
    ``apply(state, "frft", (0,), phi=0.7)``.
    """
    mean, cov = state.mean.copy(), state.cov.copy()
    _step(mean, cov, gate, targets, params)
    return GaussianTFState(mean, cov)


def reduce_to_mode(state, mode):
    """Trace out all modes but one, returning the single-mode Gaussian state."""
    idx = mode_indices((mode,), state.n_modes)
    return GaussianTFState(state.mean[idx], state.cov[np.ix_(idx, idx)])


def purity_defect(state):
    """|det(2 Sigma) - 1|; zero (to rounding) for pure states."""
    return abs(float(np.linalg.det(2.0 * state.cov)) - 1.0)


def to_complex_covariance(state):
    """Covariance of (alpha_1..N, conj(alpha)_1..N), alpha = (omega + i t)/sqrt2.

    Sigma_c = W Sigma W^dagger with W = [[I, iI], [I, -iI]]/sqrt2; Hermitian,
    vacuum value I/2. Evaluated blockwise in real arithmetic so exact
    cancellations (e.g. the vacuum off-diagonal) stay exact.
    """
    n = state.n_modes
    sww = state.cov[:n, :n]
    swt = state.cov[:n, n:]
    stt = state.cov[n:, n:]
    upper_left = ((sww + stt) + 1j * (swt.T - swt)) / 2.0
    upper_right = ((sww - stt) + 1j * (swt.T + swt)) / 2.0
    return np.block(
        [[upper_left, upper_right], [upper_right.conj(), upper_left.conj()]]
    )


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular evaluation grid for one mode's (omega, t) plane.

    ``origin`` is the carrier detuning that the omega axis is measured from;
    axis specs are (min, max, count) with count >= 2. The axis ends (omega
    measured from ``origin``) and spans must be finite.
    """

    omega_min: float
    omega_max: float
    omega_count: int
    t_min: float
    t_max: float
    t_count: int
    origin: float = 0.0

    def __post_init__(self):
        ends = (self.omega_min - self.origin, self.omega_max - self.origin, self.t_min,
                self.t_max, self.omega_max - self.omega_min, self.t_max - self.t_min)
        if not np.isfinite(ends).all():
            raise ValueError("grid bounds, origin and axis spans must be finite")
        if self.omega_count < 2 or self.t_count < 2:
            raise ValueError("axis counts must be >= 2")
        if not (self.omega_max > self.omega_min and self.t_max > self.t_min):
            raise ValueError("axis maxima must exceed minima")

    @property
    def omega_axis(self):
        return np.linspace(self.omega_min, self.omega_max, self.omega_count)

    @property
    def t_axis(self):
        return np.linspace(self.t_min, self.t_max, self.t_count)


def _inverse_and_det(cov, what):
    """Inverse and determinant of a covariance; a ValueError naming ``what`` when it is
    singular, its determinant is 0 or not finite, or D^-1/2 cov D^-1/2 (D its diagonal)
    has a 1-norm condition number above CONDITION_LIMIT, read from the inverse in O(N^2).
    """
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(cov)
        except np.linalg.LinAlgError:
            inv = np.full_like(cov, np.inf)
        det = np.linalg.det(cov)
        scale = np.sqrt(np.abs(np.diagonal(cov)))
        scale = np.outer(scale, scale)
        condition = np.linalg.norm(cov / scale, 1) * np.linalg.norm(inv * scale, 1)
    if not (0.0 < abs(det) < np.inf and condition <= CONDITION_LIMIT):
        raise ValueError(
            f"ill-conditioned {what} (determinant {abs(det):.3e}, "
            f"scaled condition number {condition:.3e})"
        )
    return inv, det


def _gaussian_field(mean, cov, omega_axis, t_axis):
    inv, det = _inverse_and_det(cov, "single-mode covariance")
    norm = (2.0 * np.pi) * np.sqrt(det)
    dw = omega_axis[:, None] - mean[0]
    dt = t_axis[None, :] - mean[1]
    # Built in place so the grid costs one array; b + a rounds as a + b does.
    values = 2.0 * inv[0, 1] * dw * dt
    values += inv[0, 0] * dw ** 2
    values += inv[1, 1] * dt ** 2
    values *= -0.5
    np.exp(values, out=values)
    values /= norm
    return values


def wigner_eval(state, grid, mode=0):
    """Wigner function of one mode on a :class:`PhaseSpaceGrid`.

    Returns an array of shape (omega_count, t_count), indexed [i_omega, i_t];
    the omega axis is shifted by ``grid.origin``. One grid cell is one unit of
    the cost guard, charged before anything is allocated.
    """
    cells = grid.omega_count * grid.t_count
    _check_cost(cells, f"Wigner grid of {grid.omega_count}x{grid.t_count} cells")
    single = reduce_to_mode(state, mode)
    omega_axis = grid.omega_axis - grid.origin
    return _gaussian_field(single.mean, single.cov, omega_axis, grid.t_axis)


def husimi_eval(state, point, mode=None):
    """Husimi function at complex point(s) alpha, alpha = (omega + i t)/sqrt2.

    ``point`` is a scalar for single-mode states (or with ``mode`` given) or a
    length-N complex vector; normalized so Int Q d^2alpha = 1.
    """
    if mode is not None:
        state = reduce_to_mode(state, mode)
    n = state.n_modes
    alpha = np.atleast_1d(np.asarray(point, dtype=complex))
    if alpha.shape != (n,):
        raise ValueError(f"point must supply {n} complex value(s)")
    d = np.sqrt(2.0) * np.concatenate([alpha.real, alpha.imag]) - state.mean
    inv, det = _inverse_and_det(state.cov + 0.5 * np.eye(2 * n), "Husimi covariance")
    return float(np.exp(-0.5 * (d @ inv @ d)) / (np.pi ** n * np.sqrt(det)))


def _wigner_table(state, grid, mode):
    """The Wigner CSV as (header, row pieces, row count), its field evaluated."""
    field = wigner_eval(state, grid, mode=mode)
    t_count = grid.t_count
    row = [
        floats(grid.omega_axis, lambda lo, hi: np.arange(lo, hi) // t_count), ",",
        floats(grid.t_axis, lambda lo, hi: np.arange(lo, hi) % t_count), ",",
        floats(field), "\n",
    ]
    return "omega,t,value\n", row, field.size


def wigner_csv_text(state, grid, mode=0):
    """Wigner field as CSV ``omega,t,value`` rows, omega-major."""
    return table_text(*_wigner_table(state, grid, mode))
