"""Seeded job lists for the three workloads, with their reference checks.

A job is either a CLI job (argv for ``python -m tfsim.cli``) or a library job
(a call into tfsim's public functions). Each job has a check that compares
its output with a reference: a closed form, an independent oracle, or an
independent recomputation in this file. Checks run after the timed section.

The seed picks input values (circuit gates, widths, spectra, matrices,
patterns); the structure and size of every workload stay fixed, so the work
done barely depends on the seed.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

import tfsim.circuit
import tfsim.fgbs
import tfsim.hafnian
import tfsim.hg
import tfsim.metrology
import tfsim.twophoton

# FGBS closed forms: relative only, as in tests/test_fgbs.py; exact values
# fall to ~1e-25, so an absolute tolerance would pass anything.
FGBS_RTOL = 1e-10

SIZES = {
    "full": {
        "ladder_max": 30,
        "squeeze_kmax": 30,
        "cli_ladder": (1, 10, 30),
        "sample_shots": 100_000,
        "sample_cutoff": 8,
        "sample_circuits": 2,
        "lib_sample_shots": 20_000,
        "lib_sample_cutoff": 5,
        "hafnian_dims": (16, 18, 20),
        "wide_modes": 100,
        "wide_gates": 150,
        "wigner_points": 801,
        "wide_patterns": 12,
        "metrology_max": 100,
        "sweep_max": 40,
        "hom_orders": (10, 50, 100),
        "decompose_cutoff": 40,
        "high_cutoff": 90,
    },
    "tiny": {
        "ladder_max": 3,
        "squeeze_kmax": 3,
        "cli_ladder": (1, 2, 3),
        "sample_shots": 2_000,
        "sample_cutoff": 6,
        "sample_circuits": 1,
        "lib_sample_shots": 2_000,
        "lib_sample_cutoff": 4,
        "hafnian_dims": (4, 6),
        "wide_modes": 6,
        "wide_gates": 8,
        "wigner_points": 21,
        "wide_patterns": 3,
        "metrology_max": 6,
        "sweep_max": 6,
        "hom_orders": (2, 4),
        "decompose_cutoff": 20,
        "high_cutoff": 90,
    },
}


@dataclass
class Job:
    """One unit of work: CLI argv or a library call, and its reference check.

    ``check`` takes the job's output (stdout text for CLI jobs, the return
    value for library jobs) and returns None or the reason it is wrong.
    ``defect`` names the known seed defect this job can expose, if any.
    """

    id: str
    kind: str
    run: object
    check: object
    defect: str | None = None


class Miss(str):
    """A failure reason for a value outside the tolerance of its reference."""

    def __new__(cls, text, expected):
        miss = super().__new__(cls, text)
        miss.expected = expected
        return miss


# Known seed defects. A failing job whose defect applies still counts as
# failed; it only does not make the run incorrect. A job carries a defect tag
# only where the seed shows that defect, and the tag excuses only the failure
# the defect causes, never an exit code, an exception or a broken check.

# Where the seed's kernel misses 1e-10: TMSV P(n,n) from n = 11, single-mode
# squeezed P(2k) from 2k = 18, and wide patterns whose exact value is below
# WEAK_PATTERN_P (the kernel's absolute error there is near 1e-20).
LADDER_DEFECT_N = 11
SQUEEZED_DEFECT_PHOTONS = 18
WEAK_PATTERN_P = 1e-20


def _moment_sum_kernel():
    """True while the moment-sum kernel (see ROADMAP.md) is what fgbs uses."""
    return hasattr(sys.modules["tfsim.fgbs"], "reduced_hafnian")


KNOWN_DEFECTS = {
    # The kernel cancels catastrophically at large photon numbers.
    "moment-sum": lambda reason: isinstance(reason, Miss) and _moment_sum_kernel(),
    # The same kernel on weakly coupled modes, where the exact value is tiny.
    "moment-sum-weak": lambda reason: (isinstance(reason, Miss) and _moment_sum_kernel()
                                       and reason.expected < WEAK_PATTERN_P),
    # Gauss-Hermite weights underflow for the doubled rule at cutoff >= ~89.
    "quadrature-underflow": lambda reason: (reason.startswith("raised ValueError")
                                            and "weights must be positive" in reason),
}


def is_known(job, reason):
    return job.defect is not None and KNOWN_DEFECTS[job.defect](reason)


# --- reference helpers -------------------------------------------------------


def rel_error(value, expected, rtol, what):
    if value < 0:
        return Miss(f"{what}: negative probability {value!r} (expected {expected!r})", expected)
    err = abs(value - expected) / abs(expected)
    if not err <= rtol:
        return Miss(f"{what}: {value!r} vs {expected!r}, rel err {err:.2e} > {rtol:g}", expected)
    return None


def tmsv_doc(s):
    """Two-mode squeezed vacuum: widths (s, 1/s) into the mixer, r = ln s."""
    return {
        "schema": "tfsim/1",
        "modes": 2,
        "inputs": [{"type": "gaussian", "width": s}, {"type": "gaussian", "width": 1.0 / s}],
        "ops": [{"gate": "fbs", "targets": [0, 1], "params": {}}],
    }


def tmsv_p(s, n):
    r = math.log(s)
    return math.tanh(r) ** (2 * n) / math.cosh(r) ** 2


def squeezed_p(s, k):
    """P(2k) of a single mode scaled by s (a squeezer with r = ln s)."""
    r = math.log(s)
    return math.comb(2 * k, k) / 4.0**k * math.tanh(r) ** (2 * k) / math.cosh(r)


def hafnian_reference(dist, pattern):
    """P from the memoized hafnian oracle, and its rounding scale.

    The scale uses haf(|B|): no matching-sum evaluation in floating point can
    be expected to do better than a small multiple of it.
    """
    B = tfsim.hafnian.reduce(dist.a_matrix, np.asarray(pattern))
    norm = dist.prefactor / math.prod(math.factorial(v) for v in pattern)
    ref = float(np.real(tfsim.hafnian.hafnian(B))) * norm
    scale = float(np.real(tfsim.hafnian.hafnian(np.abs(B)))) * norm
    return ref, scale


def check_pattern(value, dist, pattern, what):
    ref, scale = hafnian_reference(dist, pattern)
    if value < 0 and ref >= 0:
        return Miss(f"{what}: negative probability {value!r} (hafnian oracle {ref!r})", ref)
    if not abs(value - ref) <= FGBS_RTOL * scale:
        return Miss(f"{what}: {value!r} vs hafnian oracle {ref!r} (scale {scale:.3e})", ref)
    return None


def propagate(doc):
    """Mean and covariance of a circuit, by block updates written here.

    Independent of tfsim.gaussian: each gate updates only the rows and
    columns of the modes it touches.
    """
    n = doc["modes"]
    mean = np.zeros(2 * n)
    cov = 0.5 * np.eye(2 * n)

    def act(idx, block, shift=None):
        cov[idx, :] = block @ cov[idx, :]
        cov[:, idx] = cov[:, idx] @ block.T
        mean[idx] = block @ mean[idx]
        if shift is not None:
            mean[idx] += shift

    steps = [("scale", [m], {"s": e["width"]}) for m, e in enumerate(doc["inputs"])
             if e["width"] != 1.0]
    steps += [(op["gate"], op["targets"], op["params"]) for op in doc["ops"]]
    for gate, targets, params in steps:
        if gate == "fbs":
            h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
            a, b = targets
            act([a, b, n + a, n + b], np.block([[h, np.zeros((2, 2))], [np.zeros((2, 2)), h]]))
        else:
            m = targets[0]
            if gate == "frft":
                c, s = math.cos(params["phi"]), math.sin(params["phi"])
                act([m, n + m], np.array([[c, -s], [s, c]]))
            elif gate == "scale":
                act([m, n + m], np.diag([params["s"], 1.0 / params["s"]]))
            else:
                act([m, n + m], np.eye(2), np.array([params["omega0"], params["t0"]]))
    return mean, cov


def distribution_reference(cov):
    """(A, prefactor) of a zero-mean state from its covariance, written here."""
    n = cov.shape[0] // 2
    eye = np.eye(n)
    w = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / math.sqrt(2.0)
    sigma_q = w @ cov @ w.conj().T + 0.5 * np.eye(2 * n)
    swap = np.block([[np.zeros((n, n)), eye], [eye, np.zeros((n, n))]])
    a = swap @ (np.eye(2 * n) - np.linalg.inv(sigma_q))
    return a, math.exp(-0.5 * np.linalg.slogdet(sigma_q)[1])


def _distribution_check(doc):
    """Check a built distribution against the covariance propagated here."""

    def check(dist):
        a, prefactor = distribution_reference(propagate(doc)[1])
        err = float(np.max(np.abs(dist.a_matrix - a)))
        if err > 1e-9 or abs(dist.prefactor - prefactor) > 1e-9 * prefactor:
            return f"A differs by {err:.2e}, prefactor {dist.prefactor!r} vs {prefactor!r}"
        return None

    return check


def state_of(doc):
    spec = tfsim.circuit.parse_circuit(json.dumps(doc))
    return tfsim.circuit.run_circuit(spec)


def check_samples(patterns, shots, cutoff, doc):
    """Sample counts against the quadrature oracle, 6 sigma per pattern."""
    if len(patterns) != shots:
        return f"{len(patterns)} samples, expected {shots}"
    bad = [p for p in patterns if max(p) > cutoff or sum(p) % 2]
    if bad:
        return f"pattern {bad[0]} outside cutoff {cutoff} or with odd total"
    state = state_of(doc)
    for pattern, count in sorted(Counter(map(tuple, patterns)).items()):
        if count < 30 or sum(pattern) > 8:
            continue
        p = tfsim.fgbs.oracle_probability(state, pattern)
        sigma = math.sqrt(shots * p * (1.0 - p))
        if abs(count - shots * p) > 6.0 * sigma + 1.0:
            return f"pattern {pattern}: {count} of {shots} shots, oracle p = {p:.6g}"
    return None


def hg_table(nmax, x):
    """Unit-width Hermite-Gauss functions 0..nmax, by the normalized recurrence."""
    out = np.empty((nmax + 1, x.size))
    out[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if nmax:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, nmax):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * x * out[k] - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


PROJECTION_GRID = np.linspace(-20.0, 20.0, 8001)


def spectrum(rng):
    """A normalized non-Gaussian spectral amplitude (cubic times Gaussian)."""
    coef = rng.uniform(-0.3, 0.3, 3)
    centre, width = rng.uniform(-0.5, 0.5), rng.uniform(0.85, 1.15)

    def raw(w):
        return (1.0 + coef[0] * w + coef[1] * w**2 + coef[2] * w**3) * np.exp(
            -((w - centre) ** 2) / (2.0 * width**2)
        )

    norm = math.sqrt(np.trapezoid(raw(PROJECTION_GRID) ** 2, PROJECTION_GRID))
    return lambda w: raw(w) / norm


def check_decomposition(state, f, cutoff):
    x = PROJECTION_GRID
    expected = np.trapezoid(hg_table(cutoff, x) * f(x), x, axis=1)
    err = float(np.max(np.abs(state.coeffs - expected)))
    if err > 1e-9:
        return f"coefficients differ from the trapezoid projection by {err:.2e}"
    if abs(state.deficit) > 1e-9:
        return f"truncation deficit {state.deficit:.2e} for a spectrum resolved at cutoff {cutoff}"
    return None


# --- workloads ----------------------------------------------------------------


def _write(workdir, name, doc):
    path = workdir / name
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _cli_probability(expected, what):
    def check(text):
        value = json.loads(text)["probability"]
        return rel_error(value, expected, FGBS_RTOL, what)

    return check


def _random_circuit(rng, gates, lo, hi, modes):
    doc = {
        "schema": "tfsim/1",
        "modes": modes,
        "inputs": [{"type": "gaussian", "width": float(rng.uniform(lo, hi))} for _ in range(modes)],
        "ops": [],
    }
    for i in range(gates):
        kind = ("fbs", "frft", "scale")[i % 3]
        if kind == "fbs":
            a, b = (int(v) for v in rng.choice(modes, 2, replace=False))
            doc["ops"].append({"gate": "fbs", "targets": [a, b], "params": {}})
        elif kind == "frft":
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            doc["ops"].append({"gate": "frft", "targets": [int(rng.integers(modes))],
                               "params": {"phi": phi}})
        else:
            s = float(rng.uniform(lo, hi))
            doc["ops"].append({"gate": "scale", "targets": [int(rng.integers(modes))],
                               "params": {"s": s}})
    return doc


def fgbs_ladder(rng, size, workdir, ctx):
    jobs = []
    # CLI: pattern probabilities along the TMSV ladder; (30,30) at width 3
    # is the seed's negative-probability case.
    widths = (1.5, float(rng.uniform(1.3, 2.5)), 3.0)
    for s, n in zip(widths, size["cli_ladder"]):
        path = _write(workdir, f"tmsv-{n}.json", tmsv_doc(s))
        jobs.append(Job(f"cli-prob-tmsv{s:.3g}-{n}", "cli",
                        ["fgbs", "prob", "--circuit", path, "--pattern", f"{n},{n}"],
                        _cli_probability(tmsv_p(s, n), f"P({n},{n}) at width {s:.3g}"),
                        "moment-sum" if n >= LADDER_DEFECT_N else None))
    shots, cutoff = size["sample_shots"], size["sample_cutoff"]
    for i in range(size["sample_circuits"]):
        doc = _random_circuit(rng, 5, 0.8, 1.25, 2)
        path = _write(workdir, f"sample-{i}.json", doc)
        seed = int(rng.integers(1 << 31))

        def check(text, doc=doc):
            patterns = [tuple(json.loads(line)["pattern"]) for line in text.splitlines()]
            return check_samples(patterns, shots, cutoff, doc)

        jobs.append(Job(f"cli-sample-{i}", "cli",
                        ["fgbs", "sample", "--circuit", path, "--shots", str(shots),
                         "--seed", str(seed), "--cutoff", str(cutoff)], check))

    # Library: the TMSV ladder P(n,n), n = 0..30, at widths 1.5 and 3.
    for s in (1.5, 3.0):
        key = f"ladder{s:g}"

        def build(s=s, key=key):
            ctx[key] = tfsim.fgbs.build_distribution(state_of(tmsv_doc(s)))
            return ctx[key]

        jobs.append(Job(f"lib-build-tmsv{s:g}", "lib", build, _distribution_check(tmsv_doc(s))))
        for n in range(size["ladder_max"] + 1):
            jobs.append(Job(
                f"lib-ladder{s:g}-{n}", "lib",
                lambda key=key, n=n: tfsim.fgbs.probability(ctx[key], (n, n)),
                lambda v, s=s, n=n: rel_error(v, tmsv_p(s, n), FGBS_RTOL, f"P({n},{n})"),
                "moment-sum" if n >= LADDER_DEFECT_N else None))

    # Library: single-mode squeezed P(2k) against its closed form.
    s_sq = float(rng.uniform(1.5, 2.5))
    squeezed = {"modes": 1, "inputs": [{"type": "gaussian", "width": s_sq}], "ops": []}

    def build_squeezed():
        ctx["squeezed"] = tfsim.fgbs.build_distribution(state_of(squeezed))
        return ctx["squeezed"]

    jobs.append(Job("lib-build-squeezed", "lib", build_squeezed, _distribution_check(squeezed)))
    for k in range(size["squeeze_kmax"] + 1):
        jobs.append(Job(
            f"lib-squeezed-{2 * k}", "lib",
            lambda k=k: tfsim.fgbs.probability(ctx["squeezed"], (2 * k,)),
            lambda v, k=k: rel_error(v, squeezed_p(s_sq, k), FGBS_RTOL, f"P({2 * k})"),
            "moment-sum" if 2 * k >= SQUEEZED_DEFECT_PHOTONS else None))

    # Library: sampling a 3-mode circuit by table enumeration.
    doc3 = _random_circuit(rng, 6, 0.85, 1.18, 3)
    lib_shots, lib_cutoff = size["lib_sample_shots"], size["lib_sample_cutoff"]
    sample_seed = int(rng.integers(1 << 31))
    jobs.append(Job(
        "lib-sample-3mode", "lib",
        lambda: tfsim.fgbs.sample(
            tfsim.fgbs.build_distribution(state_of(doc3)), lib_shots, sample_seed, lib_cutoff),
        lambda v: check_samples(v, lib_shots, lib_cutoff, doc3)))

    # Library: the quadrature oracle against closed forms.
    s_oracle = float(rng.uniform(1.2, 2.0))
    for n in (1, 2, 4):
        jobs.append(Job(
            f"lib-oracle-tmsv-{n}", "lib",
            lambda n=n: tfsim.fgbs.oracle_probability(state_of(tmsv_doc(s_oracle)), (n, n)),
            lambda v, n=n: rel_error(v, tmsv_p(s_oracle, n), 1e-8, f"oracle P({n},{n})")))

    # Library: hafnian recursion on rank-one B = v v^T, haf = (2m-1)!! prod(v).
    for dim in size["hafnian_dims"]:
        v = rng.uniform(0.5, 1.5, dim) * rng.choice([-1.0, 1.0], dim)
        expected = math.prod(range(1, dim, 2)) * float(np.prod(v))
        jobs.append(Job(
            f"lib-hafnian-{dim}", "lib",
            lambda v=v: tfsim.hafnian.hafnian(np.outer(v, v)),
            lambda h, expected=expected, dim=dim: None
            if abs(h - expected) <= 1e-10 * abs(expected)
            else f"haf dim {dim}: {h!r} vs {expected!r}"))
    return jobs


def _wide_doc(rng, modes, gates, kinds):
    # A fixed fifth of the inputs are squeezed, so every seed applies as many gates.
    squeezed = set(rng.choice(modes, max(1, modes // 5), replace=False).tolist())
    doc = {
        "schema": "tfsim/1",
        "modes": modes,
        "inputs": [
            {"type": "gaussian", "width": float(rng.uniform(0.8, 1.25)) if m in squeezed else 1.0}
            for m in range(modes)
        ],
        "ops": [],
    }
    for i in range(gates):
        kind = kinds[i % len(kinds)]
        m = int(rng.integers(modes))
        if kind == "fbs":
            op = {"targets": [m, (m + int(rng.integers(1, 4))) % modes], "params": {}}
        elif kind == "frft":
            op = {"targets": [m], "params": {"phi": float(rng.uniform(0.0, 2.0 * math.pi))}}
        elif kind == "scale":
            op = {"targets": [m], "params": {"s": float(rng.uniform(0.7, 1.4))}}
        else:
            op = {"targets": [m], "params": {"omega0": float(rng.normal(0.0, 0.5)),
                                             "t0": float(rng.normal(0.0, 0.5))}}
        doc["ops"].append({"gate": kind, **op})
    return doc


def _propagation_check(doc):
    def check(state):
        mean, cov = propagate(doc)
        err = max(float(np.max(np.abs(state.cov - cov))), float(np.max(np.abs(state.mean - mean))))
        if err > 1e-10 * max(float(np.max(np.abs(cov))), float(np.max(np.abs(mean)))):
            return f"mean or covariance differs from block propagation by {err:.2e}"
        return None

    return check


def _sparse_patterns(rng, doc, count):
    """Even totals of 2-6 photons on <= 4 modes the mixers couple."""
    pairs = [op["targets"] for op in doc["ops"] if op["gate"] == "fbs"]
    patterns = []
    for _ in range(count):
        a, b = pairs[int(rng.integers(len(pairs)))]
        near = sorted({m for p in pairs if a in p or b in p for m in p} - {a, b})
        chosen = [a, b] + [int(m) for m in rng.permutation(near)[:2]]
        pattern = [0] * doc["modes"]
        for _ in range(2 * int(rng.integers(1, 4))):
            pattern[chosen[int(rng.integers(len(chosen)))]] += 1
        patterns.append(tuple(pattern))
    return patterns


def circuit_wide(rng, size, workdir, ctx):
    modes, gates = size["wide_modes"], size["wide_gates"]
    displaced = _wide_doc(rng, modes, gates, ("fbs", "frft", "scale", "displace"))
    pure = _wide_doc(rng, modes, gates, ("fbs", "frft", "scale"))
    pure_text = json.dumps(pure)
    patterns = _sparse_patterns(rng, pure, size["wide_patterns"])
    jobs = []

    # CLI: Wigner map of a displaced mode on a square grid.
    mode = int(rng.choice([op["targets"][0] for op in displaced["ops"]
                           if op["gate"] == "displace"]))
    points = size["wigner_points"]
    grid = f"-7:7:{points},-7:7:{points}"

    def check_wigner(text):
        rows = np.loadtxt(text.splitlines()[1:], delimiter=",")
        axis = np.linspace(-7.0, 7.0, points)
        if rows.shape != (points * points, 3):
            return f"{rows.shape} values, expected {(points * points, 3)}"
        if not (np.array_equal(rows[:, 0], np.repeat(axis, points))
                and np.array_equal(rows[:, 1], np.tile(axis, points))):
            return "grid axes differ from the requested linspace"
        mean, cov = propagate(displaced)
        idx = [mode, modes + mode]
        mu, sig = mean[idx], cov[np.ix_(idx, idx)]
        d = rows[:, :2] - mu
        quad = np.einsum("pi,ij,pj->p", d, np.linalg.inv(sig), d)
        expected = np.exp(-0.5 * quad) / (2.0 * np.pi * math.sqrt(np.linalg.det(sig)))
        err = np.abs(rows[:, 2] - expected)
        if not np.all(err <= 1e-9 * expected + 1e-12 * expected.max()):
            return f"Wigner values differ from the propagated Gaussian by {err.max():.2e}"
        return None

    jobs.append(Job("cli-wigner", "cli",
                    ["wigner", "--circuit", _write(workdir, "wide-displaced.json", displaced),
                     "--mode", str(mode), f"--grid={grid}"], check_wigner))

    # CLI and library: the displacement-free circuit through FGBS.
    pure_path = _write(workdir, "wide-pure.json", pure)

    def reference_dist():
        if "dist" not in ctx:
            ctx["dist"] = tfsim.fgbs.build_distribution(state_of(pure))
        return ctx["dist"]

    def check_cli_pattern(text):
        return check_pattern(json.loads(text)["probability"], reference_dist(), patterns[0],
                             "CLI pattern")

    jobs.append(Job("cli-prob-wide", "cli",
                    ["fgbs", "prob", "--circuit", pure_path,
                     "--pattern", ",".join(map(str, patterns[0]))],
                    check_cli_pattern, "moment-sum-weak"))

    def parse():
        ctx["spec"] = tfsim.circuit.parse_circuit(pure_text)
        return ctx["spec"]

    def check_spec(spec):
        if (spec.modes, len(spec.ops)) != (modes, gates):
            return f"parsed {spec.modes} modes, {len(spec.ops)} gates"
        return None

    def run():
        ctx["state"] = tfsim.circuit.run_circuit(ctx["spec"])
        return ctx["state"]

    def build():
        ctx["dist"] = tfsim.fgbs.build_distribution(ctx["state"])
        return ctx["dist"]

    jobs += [
        Job("lib-run-displaced", "lib", lambda: state_of(displaced), _propagation_check(displaced)),
        Job("lib-parse-wide", "lib", parse, check_spec),
        Job("lib-run-wide", "lib", run, _propagation_check(pure)),
        Job("lib-build-wide", "lib", build, _distribution_check(pure)),
    ]
    for i, pattern in enumerate(patterns):
        jobs.append(Job(
            f"lib-prob-wide-{i}", "lib",
            lambda pattern=pattern: tfsim.fgbs.probability(ctx["dist"], pattern),
            lambda v, i=i, pattern=pattern: check_pattern(v, reference_dist(), pattern,
                                                          f"pattern {i}"),
            "moment-sum-weak"))
    return jobs


def _twin_bound(n):
    """Fisher optimum for the twin state |N/2, N/2>: 1/sqrt(N(N+2)/2)."""
    return math.sqrt(2.0 / (n * (n + 2)))


def su2_sweep(rng, size, workdir, ctx):
    jobs = []
    top = size["metrology_max"]

    def check_metrology(text):
        lines = text.splitlines()
        if lines[0] != "n_photons,phi,estimator,delta_phi":
            return f"header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(range(2, top + 1, 2)):
            return "rows do not cover the requested photon range"
        for n_text, phi, estimator, value in rows:
            n = int(n_text)
            if estimator != "fisher" or not 0.0 < float(phi) < math.pi:
                return f"row N={n}: estimator {estimator!r}, phi {phi}"
            reason = rel_error(float(value), _twin_bound(n), 1e-10, f"fisher optimum N={n}")
            if reason:
                return reason
        return None

    jobs.append(Job("cli-metrology", "cli", ["metrology", "--photons", f"2..{top}"],
                    check_metrology))

    for n in size["hom_orders"]:
        def check_hom(text, n=n):
            report = json.loads(text)
            for arm in ("marginal_a", "marginal_b"):
                if abs(sum(report[arm]) - 1.0) > 1e-10:
                    return f"{arm} sums to {sum(report[arm])!r}"
            expected = (math.comb(n, n // 2) / 2.0**n) ** 2
            return rel_error(report["coincidence"]["probability"], expected, 1e-10,
                             f"HOM P({n},{n})")

        jobs.append(Job(f"cli-hom-{n}", "cli", ["hom", "--n", str(n)], check_hom))

    photons = list(range(2, size["sweep_max"] + 1, 2))

    def check_jz(rows):
        # Every first moment of a twin state vanishes: degenerate, infinite.
        bad = [r[0] for r in rows if not (math.isinf(float(r[3])) and r[3].degenerate)]
        return f"finite first-moment precision at N={bad}" if bad else None

    def check_jz_squared(rows):
        if [r[0] for r in rows] != photons:
            return "rows do not cover the requested photon range"
        for n, _, _, value in rows:
            if not _twin_bound(n) * (1.0 - 1e-9) <= float(value) < math.inf:
                return f"N={n}: delta phi {float(value)!r} beats the Cramer-Rao bound"
        return None

    jobs.append(Job("lib-sweep-jz", "lib",
                    lambda: tfsim.metrology.precision_sweep(photons, "jz"), check_jz))
    jobs.append(Job("lib-sweep-jz_squared", "lib",
                    lambda: tfsim.metrology.precision_sweep(photons, "jz_squared"),
                    check_jz_squared))

    cutoff = size["decompose_cutoff"]
    spectra = {name: spectrum(rng) for name in ("a", "b")}
    for name, f in spectra.items():
        def decompose(name=name, f=f):
            ctx[name] = tfsim.hg.decompose(f, cutoff=cutoff)
            return ctx[name]

        jobs.append(Job(f"lib-decompose-{name}", "lib", decompose,
                        lambda state, f=f: check_decomposition(state, f, cutoff)))

    def fbs():
        ctx["jsa"] = tfsim.twophoton.product_jsa(ctx["a"], ctx["b"])
        return tfsim.twophoton.apply_fbs(ctx["jsa"])

    def check_fbs(out):
        lost = abs(out.norm_squared - ctx["jsa"].norm_squared)
        if lost > 1e-10:
            return f"norm changed by {lost:.2e}"
        small = [tfsim.hg.SpectralState(ctx[name].coeffs[:9], 1.0) for name in ("a", "b")]
        jsa = tfsim.twophoton.product_jsa(*small)
        exact = tfsim.twophoton.apply_fbs(jsa)
        grid = tfsim.twophoton.apply_fbs_grid(jsa, cutoff=exact.cutoff)
        err = float(np.max(np.abs(exact.coeffs - grid.coeffs)))
        return f"differs from apply_fbs_grid by {err:.2e} at cutoff 8" if err > 1e-8 else None

    jobs.append(Job("lib-apply-fbs", "lib", fbs, check_fbs))

    high = size["high_cutoff"]
    jobs.append(Job(f"lib-decompose-{high}", "lib",
                    lambda: tfsim.hg.decompose(spectra["a"], cutoff=high),
                    lambda state: check_decomposition(state, spectra["a"], high),
                    "quadrature-underflow"))
    return jobs


BUILDERS = {"fgbs-ladder": fgbs_ladder, "circuit-wide": circuit_wide, "su2-sweep": su2_sweep}


def build(workload, seed, size, workdir):
    """The workload's jobs, CLI jobs first; library jobs share ``ctx``."""
    rng = np.random.default_rng([seed, list(BUILDERS).index(workload)])
    jobs = BUILDERS[workload](rng, SIZES[size], workdir, {})
    return [j for j in jobs if j.kind == "cli"] + [j for j in jobs if j.kind == "lib"]
