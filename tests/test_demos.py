"""Smoke test: every script in demos/ runs and writes the files it announces."""

import importlib.util
import pathlib

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# Files each demo must write into the working directory (a PNG is optional:
# it is written only when matplotlib is installed, and announced if so).
EXPECTED = {
    "gaussian_phase_space": {"wigner_demo.csv"},
    "hafnian_bench": {"hafnian_bench.csv"},
    "heisenberg_scaling": {"precision_sweep.csv"},
    "hom_interference": set(),
    "mode_sampling": {"pattern_table.csv"},
}


def test_every_demo_is_listed():
    assert {p.stem for p in DEMOS.glob("*.py")} == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs_and_writes_what_it_announces(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    announced = {
        line.split()[1].rstrip(";") for line in out.splitlines() if line.startswith("wrote ")
    }
    assert EXPECTED[name] <= announced
    for filename in announced:
        assert (tmp_path / filename).stat().st_size > 0
