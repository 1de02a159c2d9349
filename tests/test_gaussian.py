"""Tests for Gaussian chronocyclic states, symplectic gates, and quasiprobabilities."""

import io
import math
import re

import numpy as np
import pytest

from tfsim import gaussian as g
from tfsim.circuit import CircuitSpec, GateSpec, run_circuit


def run_spec(modes, inputs, *ops):
    return run_circuit(CircuitSpec(modes, inputs, ops))


def random_circuit_state(rng, n_modes, n_gates=5, with_displacement=False):
    state = g.vacuum_state(n_modes)
    for _ in range(n_gates):
        kind = rng.choice(["fbs", "frft", "scale"] if n_modes > 1 else ["frft", "scale"])
        if kind == "fbs":
            a, b = rng.choice(n_modes, size=2, replace=False)
            state = g.apply(state, "fbs", (int(a), int(b)))
        elif kind == "frft":
            state = g.apply(state, "frft", (int(rng.integers(n_modes)),),
                            phi=float(rng.uniform(0, 2 * np.pi)))
        else:
            state = g.apply(state, "scale", (int(rng.integers(n_modes)),),
                            s=float(rng.uniform(0.6, 1.6)))
    if with_displacement:
        state = g.apply(state, "displace", (int(rng.integers(n_modes)),),
                        omega0=float(rng.uniform(-1, 1)), t0=float(rng.uniform(-1, 1)))
    return state


def test_vacuum_state():
    state = g.vacuum_state(3)
    assert state.n_modes == 3
    assert np.array_equal(state.mean, np.zeros(6))
    assert np.array_equal(state.cov, 0.5 * np.eye(6))
    assert g.purity_defect(state) < 1e-14
    with pytest.raises(ValueError):
        g.vacuum_state(0)


def test_symplectic_form():
    omega = g.symplectic_form(2)
    expected = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
    )
    assert np.array_equal(omega, expected)


def dense_gate(name, modes, n_modes, params):
    """Reference S and shift: the table block embedded on the targets' rows."""
    idx = g.mode_indices(modes, n_modes)
    block, shift = g.gate_block(name, params)
    S = np.eye(2 * n_modes)
    S[np.ix_(idx, idx)] = block
    full_shift = np.zeros(2 * n_modes)
    if shift is not None:
        full_shift[idx] = shift
    return S, full_shift


def test_all_gate_constructors_are_symplectic():
    rng = np.random.default_rng(2)
    blocks = [
        g.gate_block("fbs", {}),
        g.gate_block("frft", {"phi": 0.7}),
        g.gate_block("scale", {"s": 1.4}),
        g.gate_block("displace", {"omega0": 0.3, "t0": -0.2}),
    ]
    for _ in range(20):
        blocks.append(g.gate_block("frft", {"phi": float(rng.uniform(0, 7))}))
        blocks.append(g.gate_block("scale", {"s": float(rng.uniform(0.5, 2.0))}))
    for S, _ in blocks:
        form = g.symplectic_form(S.shape[0] // 2)
        assert np.max(np.abs(S.T @ form @ S - form)) < 1e-12


def test_fbs_mean_mapping():
    # Photons carrying mean detunings 3 and 1 leave with the sum and the
    # difference, each divided by sqrt(2).
    state = g.vacuum_state(2)
    state = g.apply(state, "displace", (0,), omega0=3.0, t0=0.0)
    state = g.apply(state, "displace", (1,), omega0=1.0, t0=0.0)
    out = g.apply(state, "fbs", (0, 1))
    s2 = math.sqrt(2.0)
    assert out.mean[0] == pytest.approx(4.0 / s2, rel=1e-14)
    assert out.mean[1] == pytest.approx(2.0 / s2, rel=1e-14)
    assert out.mean[2] == pytest.approx(0.0, abs=1e-14)
    assert out.mean[3] == pytest.approx(0.0, abs=1e-14)


def test_fbs_preserves_vacuum():
    state = g.vacuum_state(2)
    out = g.apply(state, "fbs", (0, 1))
    assert np.max(np.abs(out.cov - state.cov)) < 1e-14
    assert np.max(np.abs(out.mean)) < 1e-14


def test_fbs_correlates_unequal_widths():
    # Widths (s, 1/s) into the mixer: the output frequency block picks up
    # off-diagonal correlations +/- (s^2 - s^-2)/4.
    s = 1.5
    state = g.vacuum_state(2)
    state = g.apply(state, "scale", (0,), s=s)
    state = g.apply(state, "scale", (1,), s=1.0 / s)
    out = g.apply(state, "fbs", (0, 1))
    expected = (s**2 - s**-2) / 4.0
    assert out.cov[0, 1] == pytest.approx(expected, rel=1e-12)
    assert out.cov[2, 3] == pytest.approx(-expected, rel=1e-12)


def test_fbs_rejects_bad_modes():
    with pytest.raises(ValueError):
        g.apply(g.vacuum_state(2), "fbs", (0, 0))
    with pytest.raises(ValueError):
        g.apply(g.vacuum_state(2), "fbs", (0, 2))


def test_frft_zero_is_identity():
    block, shift = g.gate_block("frft", {"phi": 0.0})
    assert np.array_equal(block, np.eye(2)) and shift is None
    state = random_circuit_state(np.random.default_rng(3), 2, with_displacement=True)
    out = g.apply(state, "frft", (1,), phi=0.0)
    assert np.array_equal(out.cov, state.cov)
    assert np.array_equal(out.mean, state.mean)


def test_frft_composes_as_rotation():
    a, _ = g.gate_block("frft", {"phi": 0.4})
    b, _ = g.gate_block("frft", {"phi": 0.9})
    c, _ = g.gate_block("frft", {"phi": 1.3})
    assert np.max(np.abs(b @ a - c)) < 1e-13
    state = random_circuit_state(np.random.default_rng(4), 1, with_displacement=True)
    twice = g.apply(g.apply(state, "frft", (0,), phi=0.4), "frft", (0,), phi=0.9)
    once = g.apply(state, "frft", (0,), phi=1.3)
    assert np.max(np.abs(twice.cov - once.cov)) < 1e-13
    assert np.max(np.abs(twice.mean - once.mean)) < 1e-13


def test_scale_inverse_composes_to_identity():
    op, _ = g.gate_block("scale", {"s": 1.7})
    inv, _ = g.gate_block("scale", {"s": 1.0 / 1.7})
    assert np.max(np.abs(inv @ op - np.eye(2))) < 1e-13
    state = g.vacuum_state(1)
    # scale maps omega -> s omega and t -> t / s: the vacuum's I/2 becomes diag(s^2, 1/s^2)/2.
    assert np.array_equal(np.diag(g.apply(state, "scale", (0,), s=2.0).cov), [2.0, 0.125])
    with pytest.raises(ValueError):
        g.apply(state, "scale", (0,), s=0.0)
    with pytest.raises(ValueError):
        g.apply(state, "scale", (0,), s=-1.0)


def test_displace_only_shifts_mean():
    state = g.vacuum_state(2)
    out = g.apply(state, "displace", (1,), omega0=0.8, t0=-0.3)
    assert np.array_equal(out.cov, state.cov)
    assert out.mean[1] == pytest.approx(0.8)
    assert out.mean[3] == pytest.approx(-0.3)
    assert out.mean[0] == out.mean[2] == 0.0
    with pytest.raises(ValueError):
        g.apply(state, "displace", (0,), omega0=np.inf, t0=0.0)
    with pytest.raises(ValueError):
        g.apply(state, "displace", (0,), omega0=np.nan, t0=0.0)


def test_gate_symplectic_dispatch():
    # Every table entry: apply(state, name, targets, **params) equals the dense
    # reference S Sigma S^T, S mu + shift, with S the identity carrying the
    # table block on the target rows.
    rng = np.random.default_rng(5)
    n = 4
    state = random_circuit_state(rng, n, n_gates=12, with_displacement=True)
    for name, gate in g.GATES.items():
        modes = tuple(int(m) for m in rng.choice(n, size=gate.arity, replace=False))
        params = {p: float(rng.uniform(0.3, 1.7)) for p in gate.params}
        assert g.gate_block(name, params)[0].shape == (2 * gate.arity, 2 * gate.arity)
        S, shift = dense_gate(name, modes, n, params)
        out = g.apply(state, name, modes, **params)
        assert np.max(np.abs(out.cov - S @ state.cov @ S.T)) < 1e-13
        assert np.max(np.abs(out.mean - (S @ state.mean + shift))) < 1e-13

    with pytest.raises(ValueError, match="unknown gate"):
        g.gate_block("squeeze", {})
    with pytest.raises(ValueError, match="unknown keys \\['extra'\\]"):
        g.gate_block("frft", {"phi": 0.3, "extra": 1})


@pytest.mark.parametrize(
    "gate, params, match",
    [
        ("frft", {"phi": np.nan}, "^phi must be finite$"),
        ("frft", {"phi": np.inf}, "^phi must be finite$"),
        ("scale", {"s": np.inf}, "^s must be finite$"),
        ("scale", {"s": 1e-310}, "not finite"),  # 1/s overflows
        ("frft", {}, "missing keys \\['phi'\\]"),
    ],
    ids=["frft-nan", "frft-inf", "scale-inf", "scale-subnormal", "frft-missing-phi"],
)
def test_gate_block_is_the_one_parameter_check(gate, params, match):
    # apply and run_circuit refuse through gate_block, with no RuntimeWarning.
    with pytest.raises(ValueError, match=match):
        g.gate_block(gate, params)
    with pytest.raises(ValueError, match=match):
        g.apply(g.vacuum_state(1), gate, (0,), **params)


def test_apply_rejects_wrong_arity_unknown_gate_and_bad_target():
    state = g.vacuum_state(2)
    with pytest.raises(ValueError, match="exactly 1 target"):
        g.apply(state, "frft", (0, 1), phi=0.1)
    with pytest.raises(ValueError, match="exactly 2 target"):
        g.apply(state, "fbs", (0,))
    with pytest.raises(ValueError, match="unknown gate"):
        g.apply(state, "squeeze", (0,), r=0.1)
    with pytest.raises(ValueError, match="outside 0..1"):
        g.apply(state, "frft", (2,), phi=0.1)
    with pytest.raises(ValueError, match="outside 0..1"):
        g.apply(state, "frft", (-1,), phi=0.1)
    # apply, run_circuit, reduce_to_mode and wigner_eval share mode_indices: a mode is a
    # Python or NumPy integer, never a bool, a float or a string.
    def run(gate, targets, **params):
        return run_circuit(CircuitSpec(2, (1.0, 1.0), (GateSpec(gate, targets, params),)))

    grid = g.PhaseSpaceGrid(-1.0, 1.0, 2, -1.0, 1.0, 2)
    with pytest.raises(ValueError, match="unknown gate"):
        run("squeeze", (0,), r=0.1)
    with pytest.raises(ValueError, match="exactly 2 target"):
        run("fbs", (0,))
    with pytest.raises(ValueError, match="exactly 1 target"):
        run("frft", (0, 1), phi=0.1)
    for mode in (True, np.True_, 0.5, "0"):
        with pytest.raises(ValueError, match="is not an integer"):
            g.apply(state, "frft", (mode,), phi=0.1)
        with pytest.raises(ValueError, match="is not an integer"):
            run("frft", (mode,), phi=0.1)
        with pytest.raises(ValueError, match="is not an integer"):
            g.reduce_to_mode(state, mode)
        with pytest.raises(ValueError, match="is not an integer"):
            g.wigner_eval(state, grid, mode=mode)
    one = np.int64(1)
    assert np.array_equal(g.apply(state, "frft", (one,), phi=0.1).cov,
                          g.apply(state, "frft", (1,), phi=0.1).cov)
    assert np.array_equal(run("fbs", (np.int64(0), one)).cov, run("fbs", (0, 1)).cov)
    assert np.array_equal(g.reduce_to_mode(state, one).cov, g.reduce_to_mode(state, 1).cov)
    # A NumPy mode count and an array of targets pass the count rules.
    assert np.array_equal(g.vacuum_state(np.int64(2)).cov, state.cov)
    assert np.array_equal(run_spec(np.int64(2), (1.0, 1.0), GateSpec("fbs", np.array([0, 1]))).cov,
                          run("fbs", (0, 1)).cov)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: g.vacuum_state(True), "modes must be an integer >= 1"),
        (lambda: g.vacuum_state(2.5), "modes must be an integer >= 1"),
        (lambda: g.vacuum_state(0), "modes must be an integer >= 1"),
        (lambda: run_spec(True, (1.0,)), "modes must be an integer >= 1"),
        (lambda: run_spec(2.5, (1.0, 1.0)), "modes must be an integer >= 1"),
        (lambda: run_spec(2, (1.0,)), "inputs must list exactly 2 entries"),
        (lambda: run_spec(1, 1.0), "inputs must list exactly 1 entries"),
        (lambda: g.apply(g.vacuum_state(2), "fbs", 0), "gate 'fbs' takes exactly 2 target(s)"),
        (lambda: run_spec(2, (1.0, 1.0), GateSpec("fbs", 0)),
         "gate 'fbs' takes exactly 2 target(s)"),
    ],
    ids=["vacuum-bool", "vacuum-float", "vacuum-0", "run-bool", "run-float", "run-inputs",
         "run-inputs-not-a-list", "apply-targets-int", "run-targets-int"],
)
def test_counts_are_the_parser_rules(call, message):
    # vacuum_state, apply and run_circuit on a hand-built CircuitSpec refuse a mode
    # count, an input count and a target list with the parser's rule and wording.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_purity_preserved_by_random_circuits():
    rng = np.random.default_rng(17)
    for _ in range(25):
        state = random_circuit_state(rng, int(rng.integers(1, 4)), with_displacement=True)
        assert g.purity_defect(state) < 1e-10


def test_purity_defect_flags_mixed_covariance():
    mixed = g.GaussianTFState(np.zeros(2), np.eye(2))
    assert g.purity_defect(mixed) == pytest.approx(3.0, rel=1e-12)


def test_covariance_validation():
    with pytest.raises(ValueError):
        g.GaussianTFState(np.zeros(2), np.array([[0.5, 0.1], [0.2, 0.5]]))
    with pytest.raises(ValueError):  # below the uncertainty bound
        g.GaussianTFState(np.zeros(2), 0.1 * np.eye(2))
    with pytest.raises(ValueError):
        g.GaussianTFState(np.zeros(3), 0.5 * np.eye(3))
    with pytest.raises(ValueError, match="cov must be square with the same 2N dimension"):
        g.GaussianTFState(np.zeros(2), np.eye(4))


def test_checked_states_are_read_only_copies():
    # A validated state cannot be changed afterwards, neither through its own
    # arrays nor through the caller's arrays it was built from.
    from tfsim.fgbs import FgbsDistribution
    from tfsim.hg import SpectralState
    from tfsim.twophoton import JointSpectralAmplitude

    mean, cov = np.zeros(2), 0.5 * np.eye(2)
    one, two = np.array([0.6, 0.8j]), np.diag([0.6, 0.8]).astype(complex)
    a = np.array([[0.0, 0.1], [0.1, 0.0]], dtype=complex)
    state = g.GaussianTFState(mean, cov)
    checked = [
        (state.mean, mean),
        (state.cov, cov),
        (SpectralState(one, 1.0).coeffs, one),
        (JointSpectralAmplitude(two).coeffs, two),
        (FgbsDistribution(a, 1.0).a_matrix, a),
    ]
    for stored, given in checked:
        assert np.array_equal(stored, given)
        assert not np.shares_memory(stored, given)
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = np.nan
        given[0] = np.nan
        assert np.isfinite(stored).all()


def test_uncertainty_boundary_is_the_validation_tolerance():
    # (0.5 - delta) I + i Omega / 2 has min eigenvalue -delta; UNCERTAINTY_TOL is 1e-10.
    for n_modes in (1, 3):
        eye = np.eye(2 * n_modes)
        state = g.GaussianTFState(np.zeros(2 * n_modes), (0.5 - 0.5e-10) * eye)
        assert np.array_equal(state.cov, (0.5 - 0.5e-10) * eye)
        with pytest.raises(ValueError, match=r"uncertainty relation \(min eig -2.000e-10\)"):
            g.GaussianTFState(np.zeros(2 * n_modes), (0.5 - 2e-10) * eye)


def test_non_finite_state_rejected():
    with pytest.raises(ValueError, match="finite"):
        g.GaussianTFState(np.zeros(2), [[np.inf, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        g.GaussianTFState(np.zeros(2), [[np.nan, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        g.GaussianTFState(np.array([np.inf, 0.0]), 0.5 * np.eye(2))
    # Two finite displacements whose sum overflows the mean.
    state = g.apply(g.vacuum_state(1), "displace", (0,), omega0=1e308, t0=0.0)
    with pytest.raises(ValueError, match="finite"):
        g.apply(state, "displace", (0,), omega0=1e308, t0=0.0)


def test_reduce_to_mode():
    state = g.vacuum_state(3)
    state = g.apply(state, "scale", (1,), s=2.0)
    single = g.reduce_to_mode(state, 1)
    assert single.n_modes == 1
    assert np.allclose(single.cov, np.diag([2.0, 0.125]))
    with pytest.raises(ValueError):
        g.reduce_to_mode(state, 3)


def test_wigner_vacuum_peak():
    grid = g.PhaseSpaceGrid(-4, 4, 81, -4, 4, 81)
    field = g.wigner_eval(g.vacuum_state(1), grid)
    assert field.shape == (81, 81)
    assert field[40, 40] == pytest.approx(1.0 / np.pi, rel=1e-12)
    assert float(field.max()) == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_wigner_integrates_to_one():
    grid = g.PhaseSpaceGrid(-6, 6, 201, -6, 6, 201)
    state = g.apply(g.vacuum_state(1), "scale", (0,), s=1.3)
    field = g.wigner_eval(state, grid)
    total = np.trapezoid(np.trapezoid(field, grid.t_axis, axis=1), grid.omega_axis)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_wigner_marginal_matches_spectral_density():
    # Integrating W over t gives the spectral density: for a width-s Gaussian
    # photon that is |HG_0(omega; s)|^2, pointwise to 1e-8.
    s = 1.4
    state = g.apply(g.vacuum_state(1), "scale", (0,), s=s)
    grid = g.PhaseSpaceGrid(-6, 6, 121, -9, 9, 301)
    field = g.wigner_eval(state, grid)
    marginal = np.trapezoid(field, grid.t_axis, axis=1)
    expected = (np.pi * s**2) ** -0.5 * np.exp(-grid.omega_axis ** 2 / s**2)
    assert np.max(np.abs(marginal - expected)) < 1e-8


def test_wigner_respects_grid_origin():
    # Axis values are absolute frequencies measured against ``origin``: a
    # photon displaced to detuning +2 peaks at axis value origin + 2.
    state = g.apply(g.vacuum_state(1), "displace", (0,), omega0=2.0, t0=0.0)
    grid = g.PhaseSpaceGrid(-2, 6, 81, -4, 4, 81, origin=0.5)
    field = g.wigner_eval(state, grid)
    i, j = np.unravel_index(np.argmax(field), field.shape)
    assert grid.omega_axis[i] == pytest.approx(grid.origin + 2.0, abs=0.11)
    assert field[i, j] == pytest.approx(1.0 / np.pi, rel=1e-3)


def test_phase_space_grid_validation():
    with pytest.raises(ValueError):
        g.PhaseSpaceGrid(-1, 1, 1, -1, 1, 11)
    with pytest.raises(ValueError):
        g.PhaseSpaceGrid(1, -1, 11, -1, 1, 11)
    for bad in [(-np.inf, 1, 3, -1, 1, 3), (-1, 1, 3, -1, np.nan, 3),
                (-1e308, 1e308, 3, -1, 1, 3), (-1, 1, 3, -1, 1, 3, np.inf),
                (1e308, 1.5e308, 3, -1, 1, 3, -1e308)]:
        with pytest.raises(ValueError, match="finite"):
            g.PhaseSpaceGrid(*bad)


def test_husimi_vacuum_values():
    vac = g.vacuum_state(1)
    assert g.husimi_eval(vac, 0.0) == pytest.approx(1.0 / np.pi, rel=1e-13)
    assert g.husimi_eval(vac, 1.0) == pytest.approx(np.exp(-1.0) / np.pi, rel=1e-13)
    assert g.husimi_eval(vac, 1.0j) == pytest.approx(np.exp(-1.0) / np.pi, rel=1e-13)


def test_husimi_normalization():
    state = g.apply(g.vacuum_state(1), "scale", (0,), s=1.3)
    w = np.linspace(-8, 8, 161)
    t = np.linspace(-8, 8, 161)
    q = np.array([[g.husimi_eval(state, (wi + 1j * ti) / math.sqrt(2.0)) for ti in t] for wi in w])
    # d^2 alpha = domega dt / 2.
    total = np.trapezoid(np.trapezoid(q, t, axis=1), w) / 2.0
    assert total == pytest.approx(1.0, abs=1e-6)


def test_husimi_positive_on_random_states():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        state = random_circuit_state(rng, n, with_displacement=True)
        point = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        value = g.husimi_eval(state, point)
        assert np.isfinite(value)
        assert value >= 0.0


def test_husimi_mode_selector_and_validation():
    state = g.vacuum_state(2)
    assert g.husimi_eval(state, 0.0, mode=1) == pytest.approx(1.0 / np.pi, rel=1e-13)
    with pytest.raises(ValueError):
        g.husimi_eval(state, 0.0)  # two modes need a length-2 point


def test_husimi_ill_conditioned_covariance_is_named():
    # Mixing widths 1e150 and 1e-150 rounds Sigma + I/2 to a singular matrix.
    state = g.apply(g.vacuum_state(2), "scale", (0,), s=1e150)
    state = g.apply(state, "scale", (1,), s=1e-150)
    state = g.apply(state, "fbs", (0, 1))
    with pytest.raises(ValueError, match="ill-conditioned Husimi covariance"):
        g.husimi_eval(state, [0.0, 0.0])


def test_complex_covariance_vacuum():
    for n in (1, 2):
        sigma_c = g.to_complex_covariance(g.vacuum_state(n))
        assert np.max(np.abs(sigma_c - 0.5 * np.eye(2 * n))) < 1e-14


def test_complex_covariance_of_scaled_mode():
    # scale(s) is a squeezer in the complex picture: diagonal cosh(2r)/2,
    # off-diagonal sinh(2r)/2 with r = ln s.
    s = 1.5
    r = math.log(s)
    state = g.apply(g.vacuum_state(1), "scale", (0,), s=s)
    sigma_c = g.to_complex_covariance(state)
    assert sigma_c[0, 0] == pytest.approx(math.cosh(2 * r) / 2.0, rel=1e-12)
    assert sigma_c[1, 1] == pytest.approx(math.cosh(2 * r) / 2.0, rel=1e-12)
    assert sigma_c[0, 1] == pytest.approx(math.sinh(2 * r) / 2.0, rel=1e-12)
    assert np.max(np.abs(sigma_c - sigma_c.conj().T)) < 1e-13


def test_wigner_csv_round_trip():
    state = g.apply(g.vacuum_state(1), "scale", (0,), s=1.2)
    grid = g.PhaseSpaceGrid(-2, 2, 5, -3, 3, 7)
    text = g.wigner_csv_text(state, grid)
    assert text == g.wigner_csv_text(state, grid)  # deterministic
    lines = text.splitlines()
    assert lines[0] == "omega,t,value"
    assert len(lines) == 1 + 5 * 7

    field = g.wigner_eval(state, grid)
    w_vals, t_vals, values = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, unpack=True)
    assert np.max(np.abs(values.reshape(5, 7) - field)) == 0.0
    assert np.allclose(w_vals.reshape(5, 7)[:, 0], grid.omega_axis)
    assert np.allclose(t_vals.reshape(5, 7)[0, :], grid.t_axis)
