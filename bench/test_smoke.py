"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with either of:

    python3 bench/test_smoke.py
    python3 -m pytest -q bench/test_smoke.py

It checks that every end-to-end and per-layer metric is printed with its
unit, that every workload's reference checks ran, that the last line keeps
the result format, that known seed defects excuse only tolerance misses where
the seed shows them, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

TINY = ["--seed", "1", "--seconds", "0.1", "--size", "tiny"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_every_metric_printed_with_unit_and_every_check_ran():
    proc = _run("--workload", "all", *TINY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    combined = json.loads(lines[-1])
    assert set(combined) == {"correct", "attempted", "failed", "metrics"}
    per_run = {**END_TO_END, **LAYER_METRICS, "trace.overhead_frac": "ratio"}
    expected = {f"{w}/{name}": unit for w in WORKLOADS for name, unit in per_run.items()}
    assert {k: v["unit"] for k, v in combined["metrics"].items()} == expected
    for name, unit in per_run.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name
    assert sum(line.split()[:1] == ["fail_frac"] for line in lines) == 2 * len(WORKLOADS)
    assert sum(line.startswith("cli digest sha256:") for line in lines) == 2 * len(WORKLOADS)

    for workload in WORKLOADS:
        for trace in (0, 1):
            name = f"result-{workload}-seed1-tiny-trace{trace}.json"
            record = json.loads((ROOT / ".bench_work" / name).read_text(encoding="utf-8"))
            for p in record["passes"]:
                early = sum(f["reason"].startswith(("exit code", "raised"))
                            for f in p["failures"])
                assert p["checks_run"] + early == p["attempted"] > 0, (workload, p["mode"])


def test_single_workload_result_line():
    proc = _run("--workload", "su2-sweep", "--trace", "0", *TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())

    # More passes in a longer run leave attempted and failed unchanged.
    longer = _run("--workload", "su2-sweep", "--trace", "0", "--seed", "1", "--seconds", "8",
                  "--size", "tiny")
    assert longer.returncode == 0, longer.stderr
    again = json.loads(longer.stdout.strip().splitlines()[-1])
    assert (again["attempted"], again["failed"]) == (result["attempted"], result["failed"])
    assert "passes 1:" not in longer.stdout


def test_known_defects_excuse_only_tolerance_misses():
    workdir = ROOT / ".bench_work" / "defects"
    workdir.mkdir(parents=True, exist_ok=True)
    tags = {}
    for workload in WORKLOADS:
        tags.update({j.id: j for j in jobs.build(workload, 1, "full", workdir)})
    shutil.rmtree(workdir)
    tagged = {name for name, job in tags.items() if job.defect}
    assert "lib-ladder3-10" not in tagged and "lib-ladder3-11" in tagged
    assert "lib-squeezed-16" not in tagged and "lib-squeezed-18" in tagged
    assert "cli-prob-tmsv3-30" in tagged and "cli-prob-tmsv1.5-1" not in tagged
    assert not any(name.startswith(("lib-build", "lib-hafnian", "cli-sample")) for name in tagged)

    ladder, wide = tags["lib-ladder3-30"], tags["lib-prob-wide-0"]
    for reason in ("exit code 1: Traceback", "raised ZeroDivisionError: division by zero",
                   "check raised KeyError: 'probability'"):
        assert not jobs.is_known(ladder, reason) and not jobs.is_known(wide, reason)
    assert jobs.is_known(ladder, jobs.Miss("P(30,30): negative", 5.5e-7))
    assert jobs.is_known(wide, jobs.Miss("pattern 0: 0.0 vs oracle", 1e-32))
    assert not jobs.is_known(wide, jobs.Miss("pattern 0: 0.0 vs oracle", 1e-5))
    decompose = tags["lib-decompose-90"]
    assert jobs.is_known(decompose, "raised ValueError: weights must be positive")
    assert not jobs.is_known(decompose, "coefficients differ from the trapezoid projection")


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "fgbs-ladder", "--trace", "0", *TINY, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for test in (test_every_metric_printed_with_unit_and_every_check_ran,
                 test_single_workload_result_line,
                 test_known_defects_excuse_only_tolerance_misses,
                 test_refuses_to_run_without_sources):
        test()
        print(f"ok {test.__name__}")
