"""tfsim benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage (from the repository root):

    python3 bench/run.py --workload fgbs-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Load: one client in a closed loop. Each pass runs the workload's seeded job
list once, one job at a time, in a fresh worker interpreter, so tfsim's
caches start cold as they do for a CLI user. Passes repeat while the run
stays within about half a pass of ``--seconds``; times are medians over passes.

With ``--trace 0`` CLI jobs run as ``python -m tfsim.cli`` children and the
end-to-end metrics are printed. With ``--trace 1`` CLI jobs run in-process
through ``tfsim.cli.main``; untraced and traced passes alternate, and the
per-layer metrics come from the traced ones, with ``trace.overhead_frac``
comparing the two. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS

WORKLOADS = ("fgbs-ladder", "circuit-wide", "su2-sweep")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cli_s": "s",
    "lib_s": "s",
    "peak_rss_mb": "MB",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # every run must end well inside three minutes

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"

IMPORT_PROBE = (
    "import tfsim.cli, sys\n"
    "print(tfsim.cli.__file__, flush=True)\n"
    "import json, platform, numpy, scipy\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
    " 'scipy': scipy.__version__}))\n"
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def _stop(proc):
    """Kill a child's whole process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def import_once(env):
    """Seconds from spawning an interpreter until ``import tfsim.cli`` returns."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True)
    first = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    rest, err = proc.stdout.read(), proc.stderr.read()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise HarnessError("import probe did not exit") from None
    if proc.returncode != 0:
        raise HarnessError(f"import tfsim.cli failed: {err.decode(errors='replace')}")
    module_file = pathlib.Path(first.decode().strip()).resolve()
    if SRC.resolve() not in module_file.parents:
        raise HarnessError(f"tfsim imported from {module_file}, not from {SRC}")
    return elapsed, json.loads(rest)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(args, mode, index, workdir, env, deadline):
    out = workdir / f"pass-{index}-{mode}.json"
    log = workdir / f"pass-{index}-{mode}.log"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode,
           "--workdir", str(workdir), "--out", str(out)]
    start = time.perf_counter()
    with open(log, "wb") as log_fh:
        proc = subprocess.Popen(cmd, stdout=log_fh, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _stop(proc)
            raise HarnessError(f"{mode} pass did not finish within the run limit") from None
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise HarnessError(f"{mode} pass exited with {code}:\n{tail}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["pass_s"] = time.perf_counter() - start
    return result


def measure(args):
    """One workload, one trace setting: returns (report lines, result dict)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{args.size}"
    workdir.mkdir(parents=True, exist_ok=True)

    _, versions = import_once(env)  # untimed warm-up: byte-code exists afterwards
    if args.trace == 0:
        setup_s = statistics.median(import_once(env)[0] for _ in range(SETUP_REPEATS))

    modes = ["subprocess"] if args.trace == 0 else ["inproc", "traced"]
    passes = []
    start = time.perf_counter()
    round_s = 0.0
    while not passes or time.perf_counter() - start + round_s / 2 < args.seconds:
        round_start = time.perf_counter()
        for mode in modes:
            passes.append(run_worker(args, mode, len(passes), workdir, env, deadline))
        round_s = time.perf_counter() - round_start
        modes.reverse()  # untraced and traced take turns going first

    # A job counts once however many passes ran it, and fails if it failed in
    # any pass: attempted and failed then depend on the seed, not on the clock.
    failures = [f for p in passes for f in p["failures"]]
    failed_jobs = {f["job"] for f in failures}
    digests = {p["digest"] for p in passes}
    attempted = passes[0]["attempted"]
    correct = len(digests) == 1 and not any(not f["known"] for f in failures)

    def median_of(key, mode):
        return statistics.median(p[key] for p in passes if p["mode"] == mode)

    if args.trace == 0:
        metrics = {"setup_s": setup_s}
        metrics.update({k: median_of(k, "subprocess") for k in END_TO_END if k != "setup_s"})
        units = END_TO_END
    else:
        traced = [p for p in passes if p["mode"] == "traced"]
        metrics = {k: statistics.median(p["layers"][k] for p in traced) for k in LAYER_METRICS}
        metrics["trace.overhead_frac"] = (
            median_of("wall_s", "traced") / median_of("wall_s", "inproc") - 1.0)
        units = dict(LAYER_METRICS, **{"trace.overhead_frac": "ratio"})

    env_record = dict(versions, nproc=len(os.sched_getaffinity(0)), git_sha=git_sha(),
                      threads=1, thread_vars=list(THREAD_VARS), seed=args.seed,
                      workload=args.workload, size=args.size, trace=args.trace)
    first = passes[0]
    lines = [
        f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}",
        "env " + json.dumps(env_record, sort_keys=True),
        f"passes {len(passes)}: " + ", ".join(f"{p['mode']} {p['pass_s']:.2f} s" for p in passes),
    ]
    lines += [f"  {name:32s} {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}"
              for name, value in metrics.items()]
    lines.append(f"  {'fail_frac':32s} {len(failed_jobs) / attempted:.6g} ratio  "
                 f"({len(failed_jobs)} of {attempted} jobs failed in {len(passes)} passes, "
                 f"{len({f['job'] for f in failures if not f['known']})} outside the known "
                 f"seed defects; {sum(p['checks_run'] for p in passes)} outputs compared "
                 "with references)")
    lines.append(f"cli digest sha256:{first['digest']}  ({first['cli_jobs']} CLI jobs: "
                 f"stdout bytes and exit codes; {'stable' if len(digests) == 1 else 'UNSTABLE'}"
                 " across passes)")
    if args.trace == 1:
        lines.append("absent: " + (", ".join(sorted(set(
            a for p in passes for a in p.get("absent", [])))) or "none"))
    known = [f["job"] for f in first["failures"] if f["known"]]
    if known:
        lines.append(f"known seed defects in pass 1 ({len(known)}): " + " ".join(known))
    unexpected = {f["job"]: f["reason"] for f in failures if not f["known"]}
    lines += [f"  UNEXPECTED failure {job}: {reason}" for job, reason in unexpected.items()]

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_jobs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, env=env_record, passes=passes)
    path = ROOT / ".bench_work" / (
        f"result-{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    lines.append(f"result file {path.relative_to(ROOT)}")
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every job, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "tfsim" / "cli.py").is_file():
        print(f"error: tfsim sources not found under {SRC}", file=sys.stderr)
        return 2
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        one = argparse.Namespace(**dict(vars(args), workload=workload, trace=trace))
        try:
            lines, result = measure(one)
        except HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined if args.workload == "all" else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
