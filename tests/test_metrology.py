"""Tests for two-photon phase estimation in the fixed total-index sector."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from tfsim import metrology as mt
from tfsim.exceptions import CostGuardError
from tfsim.twophoton import JointSpectralAmplitude, apply_fbs, hom_output, mode_marginal


def sector_state(chi):
    """Antidiagonal pair C[n, N-n] = chi[n] on the sector n + m = N = len(chi) - 1."""
    n_total = len(chi) - 1
    coeffs = np.zeros((n_total + 1, n_total + 1), dtype=complex)
    n = np.arange(n_total + 1)
    coeffs[n, n_total - n] = chi
    return JointSpectralAmplitude(coeffs)


def random_chi(rng, n_total):
    chi = rng.standard_normal(n_total + 1) + 1j * rng.standard_normal(n_total + 1)
    return chi / np.linalg.norm(chi)


def random_sector_state(rng, n_total):
    return sector_state(random_chi(rng, n_total))


def sector_amplitudes(jsa, n_total):
    n = np.arange(n_total + 1)
    return jsa.coeffs[n, n_total - n]


def interferometer_matrix(n_total, phi):
    """U of the interferometer on the sector, one column per basis probe."""
    columns = [
        sector_amplitudes(mt.interferometer(sector_state(e), phi), n_total)
        for e in np.eye(n_total + 1)
    ]
    return np.stack(columns, axis=1)


@dataclass(frozen=True)
class JOperators:
    """J_x, J_y, J_z on the total-index-N sector ((N+1) x (N+1) Hermitian)."""

    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


def j_operators(n_total):
    """Angular-momentum matrices for two arms at fixed total index N, the closed-form
    oracle of the interferometer's rotation.

    Sector basis is |n>_a |N-n>_b, n = 0..N; J_z = diag(n - N/2), and the
    raising operator moves an index quantum from arm b to arm a.
    """
    n = np.arange(n_total + 1)
    jz = np.diag(n - n_total / 2.0).astype(complex)
    jp = np.diag(np.sqrt((n[:-1] + 1.0) * (n_total - n[:-1])), -1).astype(complex)
    return JOperators(jx=(jp + jp.conj().T) / 2.0, jy=(jp - jp.conj().T) / 2.0j, jz=jz)


def commutator(a, b):
    return a @ b - b @ a


def test_j_operators_su2_algebra():
    for n_total in (1, 2, 4, 7, 10):
        ops = j_operators(n_total)
        assert np.max(np.abs(commutator(ops.jx, ops.jy) - 1j * ops.jz)) < 1e-10
        assert np.max(np.abs(commutator(ops.jy, ops.jz) - 1j * ops.jx)) < 1e-10
        assert np.max(np.abs(commutator(ops.jz, ops.jx) - 1j * ops.jy)) < 1e-10
        # Casimir: J^2 = j(j+1) with j = N/2.
        j = n_total / 2.0
        casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
        assert np.max(np.abs(casimir - j * (j + 1) * np.eye(n_total + 1))) < 1e-10
        for op in (ops.jx, ops.jy, ops.jz):
            assert np.max(np.abs(op - op.conj().T)) < 1e-14


def test_twin_state_structure():
    state = mt.twin_state(4)
    assert state.coeffs[2, 2] == 1.0
    assert np.count_nonzero(state.coeffs) == 1
    assert np.array_equal(mt._probe(4, state), [0, 0, 1, 0, 0])
    # Both arms hold index 2: J_z = (n_a - n_b)/2 is 0 with certainty.
    assert np.array_equal(mode_marginal(state, "a"), [0, 0, 1])
    with pytest.raises(ValueError):
        mt.twin_state(3)
    with pytest.raises(ValueError):
        mt.twin_state(0)


def test_two_mode_state_validation():
    good = np.zeros((3, 3), dtype=complex)
    good[1, 1] = 1.0
    assert float(mt.phase_precision(2, 1.0, "fisher", state=JointSpectralAmplitude(good))) == (
        pytest.approx(0.5, rel=1e-10)
    )

    leaky = good.copy()
    leaky[0, 0] = 1e-6
    with pytest.raises(ValueError, match="leaks"):
        mt.phase_precision(2, 1.0, "fisher", state=JointSpectralAmplitude(leaky))
    with pytest.raises(ValueError, match="norm"):
        mt.phase_precision(2, 1.0, "fisher", state=JointSpectralAmplitude(0.5 * good))
    with pytest.raises(ValueError, match="norm"):
        mt.phase_precision(2, 1.0, "fisher", state=JointSpectralAmplitude(np.zeros((3, 3))))
    with pytest.raises(ValueError, match="coeffs"):
        mt.quantum_fisher_information(2, state=JointSpectralAmplitude(np.zeros((0, 0))))

    # A NaN amplitude fails every check that reads it, even in a JSA built
    # around the constructor, whose own norm check refuses NaN first.
    for entries, message in [({(0, 2): np.nan}, "norm nan"),
                             ({(0, 2): np.nan, (2, 2): np.nan}, "leaks")]:
        coeffs = good.copy()
        for at, value in entries.items():
            coeffs[at] = value
        probe = object.__new__(JointSpectralAmplitude)
        object.__setattr__(probe, "coeffs", coeffs)
        object.__setattr__(probe, "sigma", 1.0)
        with pytest.raises(ValueError, match=message):
            mt.quantum_fisher_information(2, state=probe)


def test_twin_state_beam_splitter_output_is_hom_output():
    # The twin probe of total index 2n is exactly the input pair of hom_output(n).
    for n in range(1, 60):
        expected = hom_output(n).coeffs
        assert np.array_equal(apply_fbs(mt.twin_state(2 * n)).coeffs, expected)


def test_interferometer_unitary_is_unitary():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_total = int(rng.integers(1, 9))
        phi = float(rng.uniform(0.0, 2 * np.pi))
        u = interferometer_matrix(n_total, phi)
        eye = np.eye(n_total + 1)
        assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-12


def test_interferometer_preserves_norm():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n_total = int(rng.integers(2, 8))
        state = random_sector_state(rng, n_total)
        out = mt.interferometer(state, float(rng.uniform(0.1, 3.0)))
        assert np.sum(np.abs(out.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_jz_conjugation_is_an_axis_rotation():
    # Through the full sequence, U(phi)^dag Jz U(phi) = -cos(phi) Jz + sin(phi) Jy.
    for n_total in (2, 4, 6):
        ops = j_operators(n_total)
        for phi in (0.3, 1.1, 2.5):
            u = interferometer_matrix(n_total, phi)
            rotated = u.conj().T @ ops.jz @ u
            expected = -math.cos(phi) * ops.jz + math.sin(phi) * ops.jy
            assert np.max(np.abs(rotated - expected)) < 1e-10


def test_twin_coincidence_probability_is_cos_squared():
    # N = 2 twin input: P(1,1) after the interferometer equals cos^2(phi).
    for phi in (0.2, 0.9, 1.5707963267948966, 2.8):
        out = mt.interferometer(mt.twin_state(2), phi)
        p11 = abs(out.coeffs[1, 1]) ** 2
        assert p11 == pytest.approx(math.cos(phi) ** 2, abs=1e-12)


def test_jz_statistics_distribution():
    # J_z = n_a - N/2 takes the values -1, 0, 1 with the arm-a marginal's weights.
    out = mt.interferometer(mt.twin_state(2), math.pi / 2.0)
    values = np.arange(3) - 1.0
    probabilities = mode_marginal(out, "a")
    assert probabilities[1] == pytest.approx(0.0, abs=1e-12)
    assert probabilities[0] == pytest.approx(0.5, abs=1e-12)
    assert probabilities[2] == pytest.approx(0.5, abs=1e-12)
    mean = values @ probabilities
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert (values - mean) ** 2 @ probabilities == pytest.approx(1.0, abs=1e-12)


def test_jz_estimator_is_degenerate_for_twin_input():
    est = mt.phase_precision(4, 0.7, "jz")
    assert est.degenerate
    assert math.isinf(est)
    assert est.derivative == pytest.approx(0.0, abs=1e-12)
    assert est.estimator == "jz"


def test_jz_estimator_works_off_twin_input():
    # A lopsided probe has first moments, so the rotated-moment signal moves.
    state = sector_state([0.0, 0.0, 1.0])  # both index quanta in arm a
    est = mt.phase_precision(2, 1.0, "jz", state=state)
    assert not est.degenerate
    assert np.isfinite(est)
    assert est > 0.0


def test_jz_squared_derivative_matches_finite_difference():
    # The analytic derivative of <Jz^2>(phi) against a central difference.
    state = mt.twin_state(4)
    m2 = (np.arange(5) - 2.0) ** 2

    def mean_m2(phi):
        out = mt.interferometer(state, phi)
        return float(m2 @ mode_marginal(out, "a"))

    for phi in (0.4, 1.0, 2.2):
        est = mt.phase_precision(4, phi, "jz_squared")
        h = 1e-6
        numeric = (mean_m2(phi + h) - mean_m2(phi - h)) / (2 * h)
        assert est.derivative == pytest.approx(numeric, abs=1e-7)


def test_fisher_matches_finite_difference_probabilities():
    state = mt.twin_state(6)

    def probs(phi):
        return mode_marginal(mt.interferometer(state, phi), "a")

    phi = 0.8
    h = 1e-6
    p = probs(phi)
    dp = (probs(phi + h) - probs(phi - h)) / (2 * h)
    keep = p > 1e-12
    fisher_fd = float(np.sum(dp[keep] ** 2 / p[keep]))
    est = mt.phase_precision(6, phi, "fisher")
    assert est == pytest.approx(fisher_fd**-0.5, rel=1e-6)


def test_fisher_constant_for_two_photons():
    # N = 2 twin input: the index-difference distribution carries Fisher
    # information 4 at every phase, saturating the quantum bound.
    for phi in (0.3, 1.0, 2.0, 2.9):
        est = mt.phase_precision(2, phi, "fisher")
        assert float(est) == pytest.approx(0.5, rel=1e-10)


def test_fisher_bounded_by_quantum_fisher_information():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n_total = int(rng.integers(2, 9))
        state = random_sector_state(rng, n_total)
        phi = float(rng.uniform(0.05, np.pi - 0.05))
        est = mt.phase_precision(n_total, phi, "fisher", state=state)
        qfi = mt.quantum_fisher_information(n_total, state=state)
        if np.isfinite(est):
            cfi = est**-2
            assert cfi <= qfi * (1.0 + 1e-9)


def test_quantum_fisher_information_twin_value():
    for n_total in (2, 4, 6, 8, 10, 12):
        qfi = mt.quantum_fisher_information(n_total)
        assert qfi == pytest.approx(n_total * (n_total + 2) / 2.0, rel=1e-12)


def test_best_fisher_precision_saturates_quantum_bound():
    for n_total in (2, 4, 6, 8):
        est = mt.best_precision(n_total, "fisher")
        bound = mt.quantum_fisher_information(n_total) ** -0.5
        assert 0.0 < est.phi < np.pi
        assert float(est) == pytest.approx(bound, rel=1e-9)


def legendre(degree, x):
    """P_degree(x), degree >= 1, by Bonnet's recurrence
    (l + 1) P_{l+1} = (2l + 1) x P_l - l P_{l-1}."""
    prev, cur = np.ones_like(x), x
    for ell in range(1, degree):
        prev, cur = cur, ((2 * ell + 1) * x * cur - ell * prev) / (ell + 1)
    return cur


@pytest.mark.parametrize("n_total", [2, 20, 100, 200, 400, 998])
def test_twin_index_parity_is_a_legendre_polynomial(n_total):
    # Arm a's index parity on the twin probe: sum_n (-1)^n p_n(phi) = (-1)^(N/2)
    # P_{N/2}(cos 2 phi), a closed form that checks the sector rows, the phase and the
    # second beam splitter in O(N), and shares no code with sector_matrix.
    phis = np.linspace(0.0, np.pi, mt.PHI_GRID_POINTS + 2)[1:-1]
    p = mt._signal(mt._probe(n_total, None), phis)[0]
    parity = (-1.0) ** np.arange(n_total + 1) @ p
    expected = (-1.0) ** (n_total // 2) * legendre(n_total // 2, np.cos(2.0 * phis))
    assert np.max(np.abs(parity - expected)) <= 1e-12


def test_best_precision_equals_minimum_of_single_phase_calls():
    # The batched grid evaluation against one phase_precision call per phi,
    # on the twin probe and on a state with first moments.
    lopsided = random_sector_state(np.random.default_rng(17), 6)
    phis = np.linspace(0.0, np.pi, mt.PHI_GRID_POINTS + 2)[1:-1]
    for state in (mt.twin_state(6), lopsided):
        for estimator in mt.ESTIMATORS:
            single = [mt.phase_precision(6, phi, estimator, state=state) for phi in phis]
            expected = min(single, key=float)
            est = mt.best_precision(6, estimator, state=state)
            assert float(est) == pytest.approx(float(expected), rel=1e-12)
            assert est.degenerate == expected.degenerate
            at_phi = single[list(phis).index(est.phi)]
            assert float(est) == pytest.approx(float(at_phi), rel=1e-12)
            assert est.degenerate == at_phi.degenerate
            assert est.derivative == pytest.approx(at_phi.derivative, rel=1e-9, abs=1e-12)


def test_jz_estimate_matches_the_output_distribution():
    # The output-distribution estimate against the Heisenberg-picture signal
    # -cos(phi) <Jz> + sin(phi) <Jy>, built from the input state's J moments.
    rng = np.random.default_rng(23)
    phis = np.linspace(0.0, np.pi, 31)[1:-1]
    c, s = np.cos(phis), np.sin(phis)
    for n_total in range(1, 12):
        state = random_sector_state(rng, n_total)
        chi = sector_amplitudes(state, n_total)
        ops = j_operators(n_total)

        def expect(op):
            return float(np.real(chi.conj() @ op @ chi))

        mean_z, mean_y = expect(ops.jz), expect(ops.jy)
        var_z = expect(ops.jz @ ops.jz) - mean_z**2
        var_y = expect(ops.jy @ ops.jy) - mean_y**2
        cov_yz = expect(ops.jy @ ops.jz + ops.jz @ ops.jy) / 2.0 - mean_y * mean_z
        derivative = s * mean_z + c * mean_y
        variance = c * c * var_z + s * s * var_y - 2.0 * s * c * cov_yz
        value, estimated, degenerate = mt._estimates(n_total, phis, "jz", state)
        assert not degenerate.any()
        assert np.max(np.abs(estimated - derivative)) < 1e-12
        assert np.max(np.abs((value * estimated) ** 2 - variance)) < 1e-12


def test_error_propagation_never_beats_the_fisher_bound():
    # delta-phi is at least 1/sqrt(QFI) at every grid phase, for the twin probe
    # and random states (both estimators propagate the interferometer's own signal).
    # For N = 2 twin input jz_squared is flat at 0.5; the one-pass variance
    # <Jz^4> - <Jz^2>^2 cancelled near phi = pi/2 and gave 0.49999999999956.
    rng = np.random.default_rng(5)
    phis = np.linspace(0.0, np.pi, 183)[1:-1]
    cases = [(n, None, ("jz", "jz_squared")) for n in range(2, 101, 2)]
    cases += [(n, random_sector_state(rng, n), ("jz", "jz_squared")) for n in range(2, 11)]
    for n_total, state, estimators in cases:
        bound = mt.quantum_fisher_information(n_total, state=state) ** -0.5
        for estimator in estimators:
            value, _, degenerate = mt._estimates(n_total, phis, estimator, state)
            assert np.all(value >= bound * (1.0 - 1e-12))
            assert np.array_equal(np.isinf(value), degenerate)
            if state is None and estimator == "jz":
                assert degenerate.all()
    est = mt.best_precision(2, "jz_squared")
    assert float(est) == pytest.approx(0.5, rel=1e-14, abs=0.0)


def test_derivative_at_rounding_level_is_degenerate():
    # At phi = pi/2 the twin probe's <Jz^2> signal is stationary; for N = 400
    # its computed derivative is rounding noise above the absolute 1e-12 floor.
    est = mt.phase_precision(400, np.pi / 2, "jz_squared")
    assert est.degenerate
    assert math.isinf(est)


def test_sector_cost_guard_in_metrology():
    with pytest.raises(CostGuardError):
        mt.twin_state(1000)
    with pytest.raises(CostGuardError):
        mt.precision_sweep((2, 4, 4_000_000), "fisher")


def test_precision_sweep_charges_each_photon_number_as_it_is_read(monkeypatch):
    # An unbounded iterable is refused at its first N over the guard, not built.
    monkeypatch.delenv("TFSIM_MAX_COST", raising=False)
    with pytest.raises(CostGuardError, match=r"^sector k=1000 costs 1002001 > limit 1000000$"):
        mt.precision_sweep(itertools.count(2, 2), "fisher")


def test_fisher_periodicity_in_pi():
    # The twin-input Fisher information has period pi (internal function, so
    # points outside the public (0, pi) domain can be probed directly).
    chi = mt._probe(4, None)
    phis = np.array([0.4, 1.2, 2.0])
    f1 = mt._fisher_information(chi, phis)
    f2 = mt._fisher_information(chi, phis + np.pi)
    assert f1 == pytest.approx(f2, rel=1e-10)
    assert np.all(f1 >= 0.0)


def test_phase_precision_domain_and_argument_checks():
    with pytest.raises(ValueError):
        mt.phase_precision(2, 0.0, "fisher")
    with pytest.raises(ValueError):
        mt.phase_precision(2, np.pi, "fisher")
    with pytest.raises(ValueError):
        mt.phase_precision(2, 0.5, "variance")
    with pytest.raises(ValueError):
        mt.phase_precision(4, 0.5, "fisher", state=mt.twin_state(2))


def test_quantum_fisher_information_checks_the_probe_sector():
    with pytest.raises(ValueError, match="does not match n_total"):
        mt.quantum_fisher_information(4, state=mt.twin_state(2))


def test_precision_sweep_and_csv():
    rows = mt.precision_sweep((2, 4), "fisher")
    assert [r[0] for r in rows] == [2, 4]
    text = mt.sweep_csv_text(rows)
    lines = text.splitlines()
    assert lines[0] == "n_photons,phi,estimator,delta_phi"
    n, phi, name, dphi = lines[1].split(",")
    assert int(n) == 2
    assert name == "fisher"
    assert float(dphi) == pytest.approx(0.5, rel=1e-9)
    assert mt.sweep_csv_text(rows) == text  # deterministic


def test_sweep_csv_renders_degenerate_rows_as_inf():
    rows = mt.precision_sweep((2,), "jz", phi=0.8)
    text = mt.sweep_csv_text(rows)
    assert text.splitlines()[1].endswith(",jz,inf")


def test_heisenberg_slope_value():
    # The optimized twin-input scaling over N = 2..20: delta-phi equals
    # sqrt(2/(N(N+2))), whose fitted log-log slope over this window is -0.877
    # (it approaches -1 only asymptotically).
    slope = mt.heisenberg_slope()
    assert slope == pytest.approx(-0.8769540697754512, abs=1e-9)
    exact = np.polyfit(
        np.log(np.arange(2, 21, 2)),
        0.5 * np.log(2.0 / (np.arange(2, 21, 2) * (np.arange(2, 21, 2) + 2.0))),
        1,
    )[0]
    assert slope == pytest.approx(exact, abs=1e-12)


def test_heisenberg_slope_needs_two_photon_numbers():
    with pytest.raises(ValueError, match="at least two photon numbers"):
        mt.heisenberg_slope(n_values=(4,))
