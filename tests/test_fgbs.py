"""Tests for frequency-domain Gaussian boson sampling probabilities and sampling."""

import math
from collections import Counter

import numpy as np
import pytest

from tfsim import fgbs
from tfsim import gaussian as g
from tfsim import twophoton as tp
from tfsim.exceptions import CostGuardError, InsufficientMassError
from tfsim.hg import decompose, hg_value


def scaled_state(s, n_modes=1, mode=0):
    return g.apply(g.vacuum_state(n_modes), g.scale(mode, s, n_modes))


def random_two_mode_state(rng, n_gates=4):
    state = g.vacuum_state(2)
    for _ in range(n_gates):
        kind = rng.choice(["fbs", "frft", "scale"])
        if kind == "fbs":
            op = g.fbs(0, 1, 2)
        elif kind == "frft":
            op = g.frft(int(rng.integers(2)), float(rng.uniform(0, 2 * np.pi)), 2)
        else:
            op = g.scale(int(rng.integers(2)), float(rng.uniform(0.75, 1.4)), 2)
        state = g.apply(state, op)
    return state


def test_vacuum_distribution_is_trivial():
    dist = fgbs.build_distribution(g.vacuum_state(2))
    assert np.max(np.abs(dist.a_matrix)) == 0.0
    assert dist.prefactor == pytest.approx(1.0, rel=1e-14)
    assert dist.is_pure
    assert fgbs.probability(dist, (0, 0)) == 1.0
    assert fgbs.probability(dist, (1, 0)) == 0.0
    assert fgbs.probability(dist, (2, 2)) == pytest.approx(0.0, abs=1e-15)


def test_single_mode_scale_closed_form():
    # scale(s) is a squeezer with r = ln s: A = tanh(r) I, prefactor 1/cosh(r),
    # P(2k) = (2k)! tanh(r)^(2k) / (4^k (k!)^2 cosh(r)), odd orders empty.
    s = 1.5
    r = math.log(s)
    dist = fgbs.build_distribution(scaled_state(s))
    t, c = math.tanh(r), math.cosh(r)
    assert np.allclose(dist.a_matrix, t * np.eye(2), atol=1e-12)
    assert dist.prefactor == pytest.approx(1.0 / c, rel=1e-12)
    for k in range(5):
        expected = (
            math.factorial(2 * k) * t ** (2 * k) / (4.0**k * math.factorial(k) ** 2 * c)
        )
        assert fgbs.probability(dist, (2 * k,)) == pytest.approx(expected, rel=1e-10)
    for odd in (1, 3, 5, 7):
        assert fgbs.probability(dist, (odd,)) == 0.0


def test_two_mode_squeezing_closed_form():
    # Anti-widths (s, 1/s) into the mixer give the correlated-pair ladder
    # P(n, n) = tanh(r)^(2n) / cosh(r)^2 with everything else empty.
    s = 1.4
    r = math.log(s)
    state = g.vacuum_state(2)
    state = g.apply(state, g.scale(0, s, 2))
    state = g.apply(state, g.scale(1, 1.0 / s, 2))
    state = g.apply(state, g.fbs(0, 1, 2))
    dist = fgbs.build_distribution(state)
    t, c = math.tanh(r), math.cosh(r)
    for n in range(4):
        assert fgbs.probability(dist, (n, n)) == pytest.approx(
            t ** (2 * n) / c**2, rel=1e-10
        )
    assert fgbs.probability(dist, (0, 2)) == pytest.approx(0.0, abs=1e-12)
    assert fgbs.probability(dist, (2, 0)) == pytest.approx(0.0, abs=1e-12)
    assert fgbs.probability(dist, (1, 2)) == 0.0  # odd total, pure source


def test_thermal_source_populates_odd_orders():
    # A mixed single-mode source with covariance (nbar + 1/2) I is thermal in
    # the mode ladder: P(n) = nbar^n / (nbar + 1)^(n+1), odd orders included.
    nbar = 0.5
    state = g.GaussianTFState(np.zeros(2), (nbar + 0.5) * np.eye(2))
    dist = fgbs.build_distribution(state)
    assert not dist.is_pure
    for n in range(5):
        expected = nbar**n / (nbar + 1.0) ** (n + 1)
        assert fgbs.probability(dist, (n,)) == pytest.approx(expected, rel=1e-10)


def test_formula_matches_quadrature_oracle():
    rng = np.random.default_rng(107)
    for _ in range(12):
        state = random_two_mode_state(rng)
        dist = fgbs.build_distribution(state)
        for pattern in [(0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (4, 0)]:
            fast = fgbs.probability(dist, pattern)
            slow = fgbs.oracle_probability(state, pattern)
            assert abs(fast - slow) < 1e-8


def test_matches_two_photon_beam_splitter_picture():
    # A pair of unequal-width Gaussian photons through the mixer: Gaussian
    # formalism pattern probabilities equal the JSA coincidences.
    w_a, w_b = 1.3, 0.7
    state = g.vacuum_state(2)
    state = g.apply(state, g.scale(0, w_a, 2))
    state = g.apply(state, g.scale(1, w_b, 2))
    state = g.apply(state, g.fbs(0, 1, 2))
    dist = fgbs.build_distribution(state)

    photon_a = decompose(lambda w: hg_value(0, w_a, w), cutoff=12)
    photon_b = decompose(lambda w: hg_value(0, w_b, w), cutoff=12)
    jsa = tp.apply_fbs(tp.product_jsa(photon_a, photon_b))
    for pattern in [(0, 0), (1, 1), (2, 0), (0, 2), (2, 2), (3, 1)]:
        gaussian_p = fgbs.probability(dist, pattern)
        jsa_p = tp.coincidence_probability(jsa, *pattern)
        assert abs(gaussian_p - jsa_p) < 1e-6


def test_displaced_states_rejected():
    displaced = g.apply(g.vacuum_state(1), g.displace(0, 0.4, 0.0, 1))
    with pytest.raises(ValueError):
        fgbs.build_distribution(displaced)
    with pytest.raises(ValueError):
        fgbs.oracle_probability(displaced, (0,))


def test_oracle_guards():
    state = scaled_state(1.2)
    with pytest.raises(CostGuardError):
        fgbs.oracle_probability(g.vacuum_state(4), (0, 0, 0, 0))
    with pytest.raises(CostGuardError):
        fgbs.oracle_probability(state, (10,))
    mixed = g.GaussianTFState(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        fgbs.oracle_probability(mixed, (0,))


def test_oracle_on_vacuum():
    assert fgbs.oracle_probability(g.vacuum_state(1), (0,)) == pytest.approx(
        1.0, rel=1e-12
    )
    assert fgbs.oracle_probability(g.vacuum_state(1), (2,)) == pytest.approx(
        0.0, abs=1e-14
    )


def test_pattern_validation():
    dist = fgbs.build_distribution(g.vacuum_state(2))
    with pytest.raises(ValueError):
        fgbs.probability(dist, (0,))  # wrong length
    with pytest.raises(ValueError):
        fgbs.probability(dist, (0, -1))
    with pytest.raises(ValueError):
        fgbs.probability(dist, (0.5, 0.5))


def test_pattern_cost_guard_parameter_and_env(monkeypatch):
    dist = fgbs.build_distribution(scaled_state(1.3, n_modes=2))
    assert fgbs.probability(dist, (2, 2), max_cost=81) >= 0.0
    with pytest.raises(CostGuardError):
        fgbs.probability(dist, (2, 2), max_cost=80)

    monkeypatch.setenv("TFSIM_MAX_COST", "80")
    with pytest.raises(CostGuardError):
        fgbs.probability(dist, (2, 2))
    # An explicit argument overrides the environment.
    assert fgbs.probability(dist, (2, 2), max_cost=81) >= 0.0

    monkeypatch.setenv("TFSIM_MAX_COST", "10")
    with pytest.raises(CostGuardError):
        fgbs.total_probability(dist, cutoff=4)


def test_total_probability_monotone_and_sufficient():
    state = g.vacuum_state(2)
    state = g.apply(state, g.scale(0, 1.5, 2))
    state = g.apply(state, g.scale(1, 1.3, 2))
    state = g.apply(state, g.fbs(0, 1, 2))
    dist = fgbs.build_distribution(state)
    masses = [fgbs.total_probability(dist, cutoff) for cutoff in (2, 4, 6, 8)]
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
    assert masses[-1] > 0.999
    assert masses[-1] <= 1.0 + 1e-9


def test_sample_determinism_and_parity():
    dist = fgbs.build_distribution(scaled_state(1.5))
    first = fgbs.sample(dist, shots=500, rng_seed=7, cutoff=8)
    second = fgbs.sample(dist, shots=500, rng_seed=7, cutoff=8)
    assert first == second
    other = fgbs.sample(dist, shots=500, rng_seed=8, cutoff=8)
    assert other != first
    assert all(p[0] % 2 == 0 for p in first)
    assert len(first) == 500


def test_sample_frequencies_track_probabilities():
    dist = fgbs.build_distribution(scaled_state(1.5))
    shots = 20000
    samples = fgbs.sample(dist, shots=shots, rng_seed=3, cutoff=8)
    counts = Counter(p[0] for p in samples)
    for k in (0, 2, 4):
        p = fgbs.probability(dist, (k,))
        expected = shots * p
        band = 4.0 * math.sqrt(shots * p * (1.0 - p))
        assert abs(counts.get(k, 0) - expected) <= band


def test_sample_insufficient_mass():
    dist = fgbs.build_distribution(scaled_state(1.5))
    with pytest.raises(InsufficientMassError) as excinfo:
        fgbs.sample(dist, shots=10, rng_seed=0, cutoff=1)
    assert excinfo.value.mass < 0.999
    assert excinfo.value.required == pytest.approx(0.999)


def test_sample_rejects_negative_shots():
    dist = fgbs.build_distribution(g.vacuum_state(1))
    with pytest.raises(ValueError):
        fgbs.sample(dist, shots=-1, rng_seed=0, cutoff=2)


def test_enumeration_rejects_negative_cutoff():
    dist = fgbs.build_distribution(g.vacuum_state(1))
    for call in (
        lambda: fgbs.sample(dist, shots=1, rng_seed=0, cutoff=-1),
        lambda: fgbs.total_probability(dist, cutoff=-1),
        lambda: fgbs.probability_table_csv(dist, cutoff=-2),
    ):
        with pytest.raises(ValueError, match="cutoff must be >= 0"):
            call()


def test_samples_to_jsonl(tmp_path):
    text = fgbs.samples_to_jsonl([(0, 2), (1, 1)])
    lines = text.splitlines()
    assert lines[0] == '{"pattern": [0, 2], "shot": 0}'
    assert lines[1] == '{"pattern": [1, 1], "shot": 1}'
    assert text.endswith("\n")
    assert fgbs.samples_to_jsonl([]) == ""

    path = tmp_path / "samples.jsonl"
    fgbs.samples_to_jsonl([(3,)], path=path)
    assert path.read_text() == '{"pattern": [3], "shot": 0}\n'


def test_probability_table_csv(tmp_path):
    dist = fgbs.build_distribution(scaled_state(1.2))
    path = tmp_path / "table.csv"
    text = fgbs.probability_table_csv(dist, cutoff=2, path=path)
    assert path.read_text() == text
    lines = text.splitlines()
    assert lines[0] == "pattern,probability"
    assert len(lines) == 4
    pat, prob = lines[1].split(",")
    assert pat == "0"
    assert float(prob) == pytest.approx(fgbs.probability(dist, (0,)), rel=1e-15)


def test_distribution_prefactor_matches_purity():
    rng = np.random.default_rng(55)
    state = random_two_mode_state(rng)
    dist = fgbs.build_distribution(state)
    assert dist.is_pure
    assert dist.n_modes == 2
    # Symmetric kernel with spectral radius below 1.
    assert np.max(np.abs(dist.a_matrix - dist.a_matrix.T)) < 1e-12
    assert np.max(np.abs(np.linalg.eigvals(dist.a_matrix))) < 1.0
