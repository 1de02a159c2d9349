"""One pass of one workload in a fresh interpreter; used by run.py.

Runs every job once, one at a time, then checks every output against its
reference outside the timed section, and writes a JSON summary.

Modes:
  subprocess  CLI jobs run as ``python -m tfsim.cli`` children (untraced).
  inproc      CLI jobs run in-process through ``tfsim.cli.main`` (untraced).
  traced      as inproc, with spans around tfsim's public calls.

In-process CLI jobs start with tfsim's caches cleared, as a CLI process
would, and the library jobs start from cleared caches too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import resource
import subprocess
import sys
import time

import jobs as jobs_module
import tfsim.cli
from tracing import Tracer, cli_metric

CLI_TIMEOUT_S = 120


def tfsim_caches():
    """Cache-holding functions defined in tfsim (functools caches)."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "tfsim" or name.startswith("tfsim."):
            for value in vars(module).values():
                if (hasattr(value, "cache_clear")
                        and getattr(value, "__module__", "") == name
                        and value not in found):
                    found.append(value)
    return found


def run_cli_subprocess(argv, outdir, index):
    out_path = outdir / f"cli-{index}.out"
    err_path = outdir / f"cli-{index}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "tfsim.cli", *argv], stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    return code, out_path, err_path, seconds


def _take(path):
    """Read and delete a captured output file; in-process output is bytes already."""
    if isinstance(path, bytes):
        return path
    data = path.read_bytes()
    path.unlink()
    return data


def run_cli_inproc(argv, caches, tracer):
    for cached in caches:
        cached.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    span = contextlib.nullcontext()
    if tracer:
        span = tracer.span("cli.main", cli_metric(argv), inclusive=True)
    start = time.perf_counter()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tfsim.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags by exiting
            code = exc.code if isinstance(exc.code, int) else 1
    seconds = time.perf_counter() - start
    stdout = out.getvalue().encode("utf-8")
    if tracer:
        tracer.counts["cli.out_bytes"] = tracer.counts.get("cli.out_bytes", 0) + len(stdout)
    return code, stdout, err.getvalue().encode("utf-8"), seconds


def run_pass(workload, seed, size, mode, workdir):
    job_list = jobs_module.build(workload, seed, size, workdir)
    caches = tfsim_caches()
    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    outputs = []
    job_s = []
    cleared = False
    start = time.perf_counter()
    for index, job in enumerate(job_list):
        if tracer:
            tracer.job = job.id
        if job.kind == "cli":
            if mode == "subprocess":
                code, stdout, stderr, seconds = run_cli_subprocess(job.run, workdir, index)
            else:
                code, stdout, stderr, seconds = run_cli_inproc(job.run, caches, tracer)
            job_s.append(seconds)
            outputs.append((code, stdout, stderr))
            continue
        if not cleared:
            for cached in caches:
                cached.cache_clear()
            cleared = True
        job_start = time.perf_counter()
        try:
            value = job.run()
        except Exception as exc:  # a failing job is counted, not fatal
            value = exc
        job_s.append(time.perf_counter() - job_start)
        outputs.append(value)
    wall_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    digest = hashlib.sha256()
    failures = []
    checks_run = 0
    for job, output in zip(job_list, outputs):
        if job.kind == "cli":
            code, stdout, stderr = output[0], _take(output[1]), _take(output[2])
            digest.update(f"{code} {len(stdout)}\n".encode())
            digest.update(stdout)
            if code != 0:
                reason = f"exit code {code}: {stderr.decode(errors='replace').strip()[:300]}"
            else:
                reason = _checked(job, stdout.decode("utf-8"))
                checks_run += 1
        elif isinstance(output, Exception):
            reason = f"raised {type(output).__name__}: {output}"
        else:
            reason = _checked(job, output)
            checks_run += 1
        if reason is not None:
            failures.append({"job": job.id, "reason": reason,
                             "known": jobs_module.is_known(job, reason)})

    result = {
        "mode": mode,
        "wall_s": wall_s,
        "cli_s": sum(t for job, t in zip(job_list, job_s) if job.kind == "cli"),
        "lib_s": sum(t for job, t in zip(job_list, job_s) if job.kind == "lib"),
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": len(job_list),
        "cli_jobs": sum(1 for j in job_list if j.kind == "cli"),
        "checks_run": checks_run,
        "failures": failures,
        "digest": digest.hexdigest(),
        "job_s": {job.id: seconds for job, seconds in zip(job_list, job_s)},
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent + tracer.count_errors
        result["spans"] = tracer.span_records()
    return result


def _checked(job, output):
    try:
        return job.check(output)
    except Exception as exc:  # malformed output fails its check
        return f"check raised {type(exc).__name__}: {exc}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(jobs_module.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(jobs_module.SIZES), default="full")
    parser.add_argument("--mode", choices=("subprocess", "inproc", "traced"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workdir = pathlib.Path(args.workdir)
    result = run_pass(args.workload, args.seed, args.size, args.mode, workdir)
    spans = result.pop("spans", None)
    if spans is not None:
        trace_path = pathlib.Path(args.out).with_suffix(".spans.json")
        trace_path.write_text(json.dumps(spans) + "\n", encoding="utf-8")
        result["spans_file"] = str(trace_path)
    pathlib.Path(args.out).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
