"""Tests for frequency-domain Gaussian boson sampling probabilities and sampling."""

import hashlib
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from tfsim import circuit as ct
from tfsim import fgbs
from tfsim import gaussian as g
from tfsim import hafnian as hf
from tfsim import twophoton as tp
from tfsim.exceptions import CostGuardError, InsufficientMassError
from tfsim.hg import decompose, hg_value


def scaled_state(s, n_modes=1, mode=0):
    return g.apply(g.vacuum_state(n_modes), "scale", (mode,), s=s)


def random_two_mode_state(rng, n_gates=4):
    state = g.vacuum_state(2)
    for _ in range(n_gates):
        kind = rng.choice(["fbs", "frft", "scale"])
        if kind == "fbs":
            state = g.apply(state, "fbs", (0, 1))
        elif kind == "frft":
            state = g.apply(state, "frft", (int(rng.integers(2)),),
                            phi=float(rng.uniform(0, 2 * np.pi)))
        else:
            state = g.apply(state, "scale", (int(rng.integers(2)),),
                            s=float(rng.uniform(0.75, 1.4)))
    return state


def test_vacuum_distribution_is_trivial():
    dist = fgbs.build_distribution(g.vacuum_state(2))
    assert np.max(np.abs(dist.a_matrix)) == 0.0
    assert dist.prefactor == pytest.approx(1.0, rel=1e-14)
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
    state = g.apply(state, "scale", (0,), s=s)
    state = g.apply(state, "scale", (1,), s=1.0 / s)
    state = g.apply(state, "fbs", (0, 1))
    dist = fgbs.build_distribution(state)
    t, c = math.tanh(r), math.cosh(r)
    for n in range(4):
        assert fgbs.probability(dist, (n, n)) == pytest.approx(
            t ** (2 * n) / c**2, rel=1e-10
        )
    assert fgbs.probability(dist, (0, 2)) == pytest.approx(0.0, abs=1e-12)
    assert fgbs.probability(dist, (2, 0)) == pytest.approx(0.0, abs=1e-12)
    assert fgbs.probability(dist, (1, 2)) == 0.0  # odd total, pure source


def tmsv_distribution(s):
    state = g.vacuum_state(2)
    state = g.apply(state, "scale", (0,), s=s)
    state = g.apply(state, "scale", (1,), s=1.0 / s)
    return fgbs.build_distribution(g.apply(state, "fbs", (0, 1)))


@pytest.mark.parametrize("s", [100.0, 1000.0])
def test_wide_two_mode_squeezing_is_pure_at_forty_pairs(s, monkeypatch):
    # At widths 100 and 1000, det(2 Sigma) rounds to 1 + 4e-9 and 1 + 7e-5, but A's
    # off-diagonal block stays at rounding noise times the condition number of Sigma_Q:
    # the source is pure and P(40, 40) = (1 - lam^2) lam^80, lam = (s^2 - 1) / (s^2 + 1),
    # reads B's 41^2 = 1681-entry box.
    dist = tmsv_distribution(s)
    lam = (s * s - 1.0) / (s * s + 1.0)
    monkeypatch.setenv("TFSIM_MAX_COST", "1681")
    assert fgbs.probability(dist, (40, 40)) == pytest.approx((1.0 - lam**2) * lam**80,
                                                             rel=1e-9, abs=0.0)
    monkeypatch.setenv("TFSIM_MAX_COST", "1680")
    with pytest.raises(CostGuardError, match="pattern \\(40, 40\\) costs 1681 "):
        fgbs.probability(dist, (40, 40))


@pytest.mark.parametrize("s", [3.0, 100.0, 1000.0, 1e4])
def test_forty_pairs_of_a_wide_pair_hold_the_stated_accuracy(s, monkeypatch):
    # README's accuracy statement for fgbs prob: P(40, 40) of the width-s pair is within
    # 40 kappa eps of (1 - lam^2) lam^80, lam = (s^2 - 1) / (s^2 + 1) taken exactly, where
    # kappa = s^2 is the condition number of Sigma_Q (measured 7.3e-14, 7.4e-11, 0, 3.0e-7).
    monkeypatch.setenv("TFSIM_MAX_COST", "1681")
    lam = Fraction(round(s * s) - 1, round(s * s) + 1)
    expected = float((1 - lam**2) * lam**80)
    p = fgbs.probability(tmsv_distribution(s), (40, 40))
    assert abs(p - expected) <= 40 * s * s * np.finfo(float).eps * expected


@pytest.mark.parametrize("s", [1.5, 3.0])
def test_two_mode_squeezing_ladder_to_thirty_photons(s):
    # P(n, n) = tanh(r)^(2n) / cosh(r)^2 stays exact far past n <= 8; at
    # width 3 the last rung is ~5.5e-7, so every value must stay positive.
    r = math.log(s)
    dist = tmsv_distribution(s)
    for n in range(31):
        expected = math.tanh(r) ** (2 * n) / math.cosh(r) ** 2
        assert fgbs.probability(dist, (n, n)) == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_single_pattern_does_not_fill_its_whole_box():
    # P(30, 30) of a pure source fills the (31, 31) box of B, 15 kB of complex
    # entries, not the (31, 31, 31, 31) box of A, 14.8 MB.
    dist = tmsv_distribution(3.0)
    tracemalloc.start()
    try:
        value = fgbs.probability(dist, (30, 30))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 5.516983947116897e-07
    assert value == pytest.approx(math.tanh(math.log(3.0)) ** 60 / math.cosh(math.log(3.0)) ** 2,
                                  rel=1e-13, abs=0.0)
    assert peak < 5e6


def test_single_mode_squeezing_to_sixty_photons():
    # P(2k) = C(2k, k) tanh(r)^(2k) / (4^k cosh(r)) for 2k <= 60.
    s = 2.0
    r = math.log(s)
    dist = fgbs.build_distribution(scaled_state(s))
    for k in range(31):
        expected = math.comb(2 * k, k) / 4.0**k * math.tanh(r) ** (2 * k) / math.cosh(r)
        assert fgbs.probability(dist, (2 * k,)) == pytest.approx(expected, rel=1e-10, abs=0.0)


def hafnian_oracle(dist, pattern):
    """prefactor haf(reduce(A, n)) / n! and the same with |reduce(A, n)|."""
    reduced = hf.reduce(dist.a_matrix, np.array(pattern))
    norm = dist.prefactor / math.prod(math.factorial(v) for v in pattern)
    return norm * hf.hafnian(reduced), norm * hf.hafnian(np.abs(reduced))


def wide_pure_circuit(seed, modes=100, gates=150):
    """A seeded pure circuit: a fifth of the inputs squeezed, mixers on near modes."""
    rng = np.random.default_rng(seed)
    squeezed = set(rng.choice(modes, modes // 5, replace=False).tolist())
    doc = {
        "modes": modes,
        "inputs": [{"type": "gaussian", "width": float(rng.uniform(0.8, 1.25))
                    if m in squeezed else 1.0} for m in range(modes)],
        "ops": [],
    }
    for i in range(gates):
        m = int(rng.integers(modes))
        if i % 3 == 0:
            op = {"gate": "fbs", "targets": [m, (m + int(rng.integers(1, 4))) % modes]}
        elif i % 3 == 1:
            op = {"gate": "frft", "targets": [m], "params": {"phi": float(rng.uniform(0, 6.3))}}
        else:
            op = {"gate": "scale", "targets": [m], "params": {"s": float(rng.uniform(0.7, 1.4))}}
        doc["ops"].append(op)
    return doc


def test_passive_circuit_of_squeezed_inputs_matches_the_closed_form_at_100_modes():
    # Input widths w_k squeeze mode k by r_k = ln w_k; fbs and frft are passive, alpha -> U alpha
    # with alpha = (omega + i t)/sqrt2: fbs is the real Hadamard on its pair and frft(phi)
    # multiplies alpha by e^{i phi}. So A = conj(U) diag(tanh r) conj(U)^T on the alpha block,
    # 0 off it, and the prefactor is prod sech r.
    rng = np.random.default_rng(11)
    n = 100
    widths = rng.uniform(0.7, 1.4, n)
    u = np.eye(n, dtype=complex)
    ops = []
    for _ in range(400):
        if rng.random() < 0.5:
            pair = [int(m) for m in rng.choice(n, 2, replace=False)]
            ops.append(ct.GateSpec("fbs", tuple(pair)))
            u[pair] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0) @ u[pair]
        else:
            m, phi = int(rng.integers(n)), float(rng.uniform(0.0, 2.0 * np.pi))
            ops.append(ct.GateSpec("frft", (m,), {"phi": phi}))
            u[m] *= np.exp(1j * phi)
    spec = ct.CircuitSpec(n, tuple(float(w) for w in widths), tuple(ops))
    dist = fgbs.build_distribution(ct.run_circuit(spec))
    r = np.log(widths)
    expected = u.conj() @ np.diag(np.tanh(r)) @ u.conj().T
    a = dist.a_matrix
    assert np.max(np.abs(a[:n, :n] - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.max(np.abs(a[:n, n:])) <= 1e-12
    assert dist.prefactor == pytest.approx(np.prod(1.0 / np.cosh(r)), rel=1e-12, abs=0.0)


def test_weakly_coupled_wide_patterns_match_hafnian_oracle():
    # For a pure state the off-diagonal block of A is rounding noise (~1e-16), and
    # build_distribution stores it as exact zeros; squared, that noise was all of the
    # P ~ 1e-32 a full-A kernel gave the weakly coupled patterns that are exactly 0.
    doc = wide_pure_circuit(seed=4)
    dist = fgbs.build_distribution(ct.run_circuit(ct.parse_circuit(json.dumps(doc))))
    pairs = [tuple(op["targets"]) for op in doc["ops"] if op["gate"] == "fbs"][:20]
    for a, b in pairs:
        for na, nb in ((1, 1), (2, 2), (1, 3)):
            pattern = [0] * doc["modes"]
            pattern[a], pattern[b] = na, nb
            ref, scale = hafnian_oracle(dist, pattern)
            assert abs(fgbs.probability(dist, pattern) - ref) <= 1e-10 * scale


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
    state = g.apply(state, "scale", (0,), s=w_a)
    state = g.apply(state, "scale", (1,), s=w_b)
    state = g.apply(state, "fbs", (0, 1))
    dist = fgbs.build_distribution(state)

    photon_a = decompose(lambda w: hg_value(0, w_a, w), cutoff=12)
    photon_b = decompose(lambda w: hg_value(0, w_b, w), cutoff=12)
    jsa = tp.apply_fbs(tp.product_jsa(photon_a, photon_b))
    for pattern in [(0, 0), (1, 1), (2, 0), (0, 2), (2, 2), (3, 1)]:
        gaussian_p = fgbs.probability(dist, pattern)
        jsa_p = tp.coincidence_probability(jsa, *pattern)
        assert abs(gaussian_p - jsa_p) < 1e-6


def test_displaced_states_rejected():
    displaced = g.apply(g.vacuum_state(1), "displace", (0,), omega0=0.4, t0=0.0)
    with pytest.raises(ValueError):
        fgbs.build_distribution(displaced)
    with pytest.raises(ValueError):
        fgbs.oracle_probability(displaced, (0,))


def test_mixed_states_rejected():
    # A thermal source and a pure one under added noise: A's off-diagonal block is
    # far above rounding noise, so neither is a pure source.
    noisy = pinned_pure_state()
    for state in (g.GaussianTFState(np.zeros(2), np.eye(2)),
                  g.GaussianTFState(noisy.mean, noisy.cov + 0.05 * np.eye(6))):
        with pytest.raises(ValueError, match="mixed states are not supported"):
            fgbs.build_distribution(state)


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
    # One unit per box entry: pattern (2, 2) fills a 3^2 = 9-entry box of B; so does a
    # cutoff-2 table.
    dist = fgbs.build_distribution(scaled_state(1.3, n_modes=2))
    monkeypatch.setenv("TFSIM_MAX_COST", "9")
    assert fgbs.probability(dist, (2, 2)) >= 0.0
    assert fgbs.total_probability(dist, cutoff=2) >= 0.0
    monkeypatch.setenv("TFSIM_MAX_COST", "8")
    with pytest.raises(CostGuardError, match="pattern \\(2, 2\\) costs 9 "):
        fgbs.probability(dist, (2, 2))
    with pytest.raises(CostGuardError, match="cutoff 2 costs 9 "):
        fgbs.total_probability(dist, cutoff=2)


def test_cost_limit_rejects_negative_and_malformed_values(monkeypatch):
    dist = fgbs.build_distribution(scaled_state(1.3, n_modes=2))
    monkeypatch.setenv("TFSIM_MAX_COST", "1")
    assert fgbs.probability(dist, (0, 0)) == dist.prefactor
    monkeypatch.setenv("TFSIM_MAX_COST", "0")
    with pytest.raises(CostGuardError):
        fgbs.probability(dist, (0, 0))
    for value in ("abc", "1e9", "-5", " 7"):
        monkeypatch.setenv("TFSIM_MAX_COST", value)
        with pytest.raises(ValueError, match="TFSIM_MAX_COST"):
            fgbs.probability(dist, (0, 0))
    monkeypatch.setenv("TFSIM_MAX_COST", "0081")
    assert fgbs.probability(dist, (2, 2)) >= 0.0
    monkeypatch.setenv("TFSIM_MAX_COST", "")
    assert fgbs.probability(dist, (2, 2)) >= 0.0


def test_total_probability_monotone_and_sufficient():
    state = g.vacuum_state(2)
    state = g.apply(state, "scale", (0,), s=1.5)
    state = g.apply(state, "scale", (1,), s=1.3)
    state = g.apply(state, "fbs", (0, 1))
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


def pinned_pure_state():
    state = g.vacuum_state(3)
    state = g.apply(state, "scale", (0,), s=1.4)
    state = g.apply(state, "scale", (1,), s=0.8)
    state = g.apply(state, "fbs", (0, 1))
    state = g.apply(state, "frft", (2,), phi=0.7)
    return g.apply(state, "fbs", (1, 2))


@pytest.mark.parametrize("make_state, cutoff, first, digest", [
    (pinned_pure_state, 8, [(0, 0, 0)] * 5 + [(1, 0, 1)],
     "fcf93d9d36b1bcfed8601d26aee85179a11ec4832fdd1b5781726cb83b1eea6f"),
])
def test_seeded_samples_are_pinned(make_state, cutoff, first, digest):
    # Which pattern each seeded draw becomes: the table's order, its CDF and the draw.
    dist = fgbs.build_distribution(make_state())
    samples = fgbs.sample(dist, shots=2000, rng_seed=11, cutoff=cutoff)
    assert samples[:6] == first
    assert all(type(v) is int for p in samples for v in p)
    assert hashlib.sha256(fgbs.samples_to_jsonl(samples).encode()).hexdigest() == digest


def test_largest_admitted_table_samples_in_bounded_memory():
    # A pure 6-mode state at cutoff 8: 9^6 = 531441 entries, the default guard's
    # largest table. Only the drawn entries become pattern tuples, and the shots
    # are codes into them, so the traced peak, measured at 12.76 MB, is the box
    # fill: 8.5 MB of complex entries and 4.3 MB of their probabilities. The bound
    # leaves 1.2 MB of margin; an int64 per box entry more (4.3 MB) breaks it.
    state = g.vacuum_state(6)
    for m in range(6):
        state = g.apply(state, "scale", (m,), s=1.0 + 0.05 * (m + 1))
    for m in range(5):
        state = g.apply(state, "fbs", (m, m + 1))
    dist = fgbs.build_distribution(state)
    tracemalloc.start()
    try:
        samples = fgbs.sample(dist, shots=10, rng_seed=1, cutoff=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(samples) == 10 and all(len(p) == 6 for p in samples)
    assert peak < 14e6


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
        with pytest.raises(ValueError, match="cutoff must be an integer >= 0"):
            call()


def test_samples_to_jsonl():
    text = fgbs.samples_to_jsonl([(0, 2), (1, 1)])
    lines = text.splitlines()
    assert lines[0] == '{"pattern": [0, 2], "shot": 0}'
    assert lines[1] == '{"pattern": [1, 1], "shot": 1}'
    assert text.endswith("\n")
    assert fgbs.samples_to_jsonl([]) == ""
    assert fgbs.samples_to_jsonl([(3,)]) == '{"pattern": [3], "shot": 0}\n'


def test_probability_table_csv():
    dist = fgbs.build_distribution(scaled_state(1.2))
    text = fgbs.probability_table_csv(dist, cutoff=2)
    lines = text.splitlines()
    assert lines[0] == "pattern,probability"
    assert len(lines) == 4
    pat, prob = lines[1].split(",")
    assert pat == "0"
    assert float(prob) == pytest.approx(fgbs.probability(dist, (0,)), rel=1e-15)


def random_gates_state(rng, n, s_lo, s_hi):
    """An n-mode vacuum through six seeded fbs, frft and scale(s_lo..s_hi) gates."""
    state = g.vacuum_state(n)
    for _ in range(6):
        mode = int(rng.integers(n))
        if n > 1 and rng.random() < 0.4:
            state = g.apply(state, "fbs", (mode, (mode + 1) % n))
        elif rng.random() < 0.5:
            state = g.apply(state, "frft", (mode,), phi=float(rng.uniform(0, 2 * np.pi)))
        else:
            state = g.apply(state, "scale", (mode,), s=float(rng.uniform(s_lo, s_hi)))
    return state


def test_pure_patterns_and_tables_equal_the_box_of_the_dense_kernel():
    # The B path against hafnian_box on the dense A, off-diagonal block and all.
    rng = np.random.default_rng(28)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        state = random_gates_state(rng, n, 0.7, 1.4)
        dist = fgbs.build_distribution(state)
        cutoff = {1: 12, 2: 6, 3: 3}[n]
        dense = dense_kernel(g.to_complex_covariance(state) + 0.5 * np.eye(2 * n))
        box = hf.hafnian_box(dense, [cutoff + 1] * (2 * n))
        expected = dist.prefactor * box.reshape((cutoff + 1) ** n, -1).diagonal().real
        probs = fgbs._cutoff_box(dist, cutoff)
        singles = [fgbs.probability(dist, p) for p in np.ndindex(probs.shape)]
        tol = 1e-14 * np.max(expected)
        assert np.max(np.abs(probs.ravel() - expected)) <= tol
        assert np.max(np.abs(np.array(singles) - expected)) <= tol


def total_index_distribution(state, k_max):
    """P(K) of the total index K = sum n_i for K <= k_max, from the generating function
    sum_K P(K) z^K = prod_i (1/2 + mu_i + (1/2 - mu_i) z)^(-1/2) over the eigenvalues mu_i
    of Sigma_c; no hafnian and no box. Each factor is the binomial series
    (mu_i + 1/2)^(-1/2) sum_k C(2k, k) ((mu_i - 1/2) / (4 (mu_i + 1/2)))^k z^k."""
    series = np.zeros(k_max + 1)
    series[0] = 1.0
    for mu in np.linalg.eigvalsh(g.to_complex_covariance(state)):
        ratio = (mu - 0.5) / (4.0 * (mu + 0.5))
        factor = [math.comb(2 * k, k) * ratio**k / math.sqrt(mu + 0.5) for k in range(k_max + 1)]
        series = np.convolve(series, factor)[:k_max + 1]
    return series


def test_pure_tables_match_the_total_index_generating_function():
    # A cutoff-8 table holds every pattern of total index K <= 8.
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        state = random_gates_state(rng, n, 0.5, 2.0)
        probs = fgbs._cutoff_box(fgbs.build_distribution(state), 8)
        totals = np.indices(probs.shape).sum(axis=0).ravel()
        by_total = np.bincount(totals, weights=probs.ravel())[:9]
        assert np.max(np.abs(by_total - total_index_distribution(state, 8))) <= 1e-13


def test_table_equals_per_pattern_probabilities_bit_for_bit():
    # One cutoff box for the table, one box of the nonzero modes per pattern:
    # the values must agree exactly, on pure sources of 1-3 modes.
    rng = np.random.default_rng(2024)
    for trial in range(60):
        n = int(rng.integers(1, 4))
        dist = fgbs.build_distribution(random_gates_state(rng, n, 0.7, 1.4))
        cutoff = int(rng.integers(2, {1: 14, 2: 8, 3: 5}[n]))
        probs = fgbs._cutoff_box(dist, cutoff)
        for pattern, value in zip(np.ndindex(probs.shape), probs.ravel().tolist()):
            assert fgbs.probability(dist, pattern) == value, (trial, pattern)


def test_distribution_prefactor_matches_purity():
    # prefactor = |det Sigma_Q|^{-1/2} with Sigma_Q = Sigma_c + I/2.
    rng = np.random.default_rng(55)
    state = random_two_mode_state(rng)
    dist = fgbs.build_distribution(state)
    assert dist.n_modes == 2
    sigma_q = g.to_complex_covariance(state) + 0.5 * np.eye(4)
    assert dist.prefactor == pytest.approx(abs(np.linalg.det(sigma_q)) ** -0.5, rel=1e-12)
    # Symmetric kernel with spectral radius below 1.
    assert np.max(np.abs(dist.a_matrix - dist.a_matrix.T)) < 1e-12
    assert np.max(np.abs(np.linalg.eigvals(dist.a_matrix))) < 1.0


def dense_kernel(sigma_q):
    """X (I - Sigma_Q^-1) as a dense product with X = [[0, I], [I, 0]], symmetrised."""
    n = sigma_q.shape[0] // 2
    swap = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    a = swap @ (np.eye(2 * n) - np.linalg.inv(sigma_q))
    return (a + a.T) / 2.0


def sigma_norm_bound(state):
    """max |lam - 1/2| / (lam + 1/2) over the eigenvalues lam of Sigma."""
    lam = np.linalg.eigvalsh(state.cov)
    return float(np.max(np.abs(lam - 0.5) / (lam + 0.5)))


def kernel_states():
    rng = np.random.default_rng(61)
    for trial in range(24):
        n = trial % 4 + 1
        yield random_gates_state(rng, n, 0.5, 2.0)
    yield ct.run_circuit(ct.parse_circuit(json.dumps(wide_pure_circuit(seed=9))))


def test_kernel_is_the_dense_block_swap_byte_for_byte():
    # build_distribution permutes the rows of I - Sigma_Q^-1 instead of
    # multiplying by X; the product only adds exact zeros, so A is unchanged.
    # The source is pure, so A keeps the top-left block B and stores B (+) conj(B):
    # the dense kernel's off-diagonal block it drops is rounding noise.
    for state in kernel_states():
        a = fgbs.build_distribution(state).a_matrix
        n = state.n_modes
        sigma_q = g.to_complex_covariance(state) + 0.5 * np.eye(2 * n)
        dense = dense_kernel(sigma_q)
        b, zero = dense[:n, :n], np.zeros((n, n))
        assert np.array_equal(a, np.block([[b, zero], [zero, b.conj()]])), n
        assert np.max(np.abs(dense[:n, n:])) <= 1e-15, n
        # And from Sigma_Q = W Sigma W^dagger + I/2 built with the dense W.
        eye = np.eye(n)
        w = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / math.sqrt(2.0)
        sigma_q = w @ state.cov @ w.conj().T + 0.5 * np.eye(2 * n)
        assert np.max(np.abs(a - dense_kernel(sigma_q))) < 1e-12


def test_sigma_norm_bound_is_the_kernel_norm_and_bounds_its_spectral_radius():
    for state in kernel_states():
        a = fgbs.build_distribution(state).a_matrix
        bound = sigma_norm_bound(state)
        assert bound < 1.0
        assert bound >= float(np.max(np.abs(np.linalg.eigvals(a)))) - 1e-12
        assert bound == pytest.approx(np.linalg.norm(a, 2), rel=1e-12, abs=1e-14)


def test_sigma_inside_the_uncertainty_tolerance_is_not_normalizable():
    # Sigma + i Omega / 2 has min eigenvalue -1e-11, inside UNCERTAINTY_TOL, so the
    # state is accepted; but Sigma itself is not positive, so ||A|| > 1. The
    # spectral radius of A is 0.9999999999 here, which a radius check would pass.
    state = g.GaussianTFState(np.zeros(2), np.diag([1e10, -1e-11]))
    assert sigma_norm_bound(state) > 1.0
    with pytest.raises(ValueError, match="norm of A is .* >= 1"):
        fgbs.build_distribution(state)
