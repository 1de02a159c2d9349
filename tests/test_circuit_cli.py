"""Tests for the circuit JSON schema, its runner, and the command-line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfsim import cli, fgbs, metrology
from tfsim import circuit as ct
from tfsim import gaussian as g
from tfsim.exceptions import SchemaError, UnknownGateError

VACUUM_1 = {
    "modes": 1,
    "inputs": [{"type": "gaussian", "width": 1.0}],
    "ops": [],
}

MIXER_2 = {
    "schema": "tfsim/1",
    "modes": 2,
    "inputs": [
        {"type": "gaussian", "width": 1.5},
        {"type": "gaussian", "width": 1.0},
    ],
    "ops": [
        {"gate": "fbs", "targets": [0, 1]},
        {"gate": "frft", "targets": [1], "params": {"phi": 0.7}},
    ],
}


def write_circuit(tmp_path, doc, name="circuit.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def parse(doc):
    return ct.parse_circuit(json.dumps(doc))


def test_parse_minimal_vacuum_circuit():
    spec = parse(VACUUM_1)
    assert spec == ct.CircuitSpec(modes=1, inputs=(1.0,), ops=())


def test_parse_full_circuit():
    spec = parse(MIXER_2)
    assert spec.modes == 2
    assert spec.inputs == (1.5, 1.0)
    assert spec.ops[0] == ct.GateSpec(gate="fbs", targets=(0, 1), params={})
    assert spec.ops[1] == ct.GateSpec(gate="frft", targets=(1,), params={"phi": 0.7})


def test_schema_version_checked():
    doc = dict(VACUUM_1, schema="tfsim/2")
    with pytest.raises(SchemaError) as excinfo:
        parse(doc)
    assert "$.schema" in str(excinfo.value)


def test_invalid_json_reports_position():
    with pytest.raises(SchemaError) as excinfo:
        ct.parse_circuit("{not json")
    assert "line 1" in str(excinfo.value)


def test_unknown_and_missing_keys():
    with pytest.raises(SchemaError) as excinfo:
        parse(dict(VACUUM_1, extra=1))
    assert "unknown keys" in str(excinfo.value)

    with pytest.raises(SchemaError) as excinfo:
        parse({"modes": 1, "inputs": [{"type": "gaussian", "width": 1.0}]})
    assert "missing keys" in str(excinfo.value)

    doc = json.loads(json.dumps(VACUUM_1))
    doc["inputs"][0]["color"] = "red"
    with pytest.raises(SchemaError) as excinfo:
        parse(doc)
    assert "$.inputs[0]" in str(excinfo.value)


def test_input_validation():
    doc = json.loads(json.dumps(VACUUM_1))
    doc["inputs"][0]["width"] = 0.0
    with pytest.raises(SchemaError) as excinfo:
        parse(doc)
    assert "$.inputs[0].width" in str(excinfo.value)

    doc["inputs"][0]["width"] = 1e-310  # finite and positive, but 1/width overflows
    with pytest.raises(SchemaError, match="not finite") as excinfo:
        parse(doc)
    assert "$.inputs[0].width" in str(excinfo.value)

    doc["inputs"][0]["width"] = True
    with pytest.raises(SchemaError):
        parse(doc)

    doc["inputs"][0]["width"] = 1.0
    doc["inputs"][0]["type"] = "thermal"
    with pytest.raises(SchemaError):
        parse(doc)

    with pytest.raises(SchemaError) as excinfo:
        parse(dict(VACUUM_1, modes=2))  # inputs list too short
    assert "$.inputs" in str(excinfo.value)


def test_non_finite_numbers_rejected():
    text = json.dumps(VACUUM_1).replace("1.0", "Infinity")
    with pytest.raises(SchemaError) as excinfo:
        ct.parse_circuit(text)
    assert "finite" in str(excinfo.value)


def test_unknown_gate_names_the_field():
    doc = json.loads(json.dumps(MIXER_2))
    doc["ops"][0]["gate"] = "beamsplitter"
    with pytest.raises(UnknownGateError) as excinfo:
        parse(doc)
    message = str(excinfo.value)
    assert "$.ops[0].gate" in message
    assert "beamsplitter" in message


def test_op_target_validation():
    doc = json.loads(json.dumps(MIXER_2))
    doc["ops"][0]["targets"] = [0]
    with pytest.raises(SchemaError) as excinfo:
        parse(doc)
    assert "$.ops[0].targets" in str(excinfo.value)

    doc["ops"][0]["targets"] = [0, 0]
    with pytest.raises(SchemaError) as excinfo:
        parse(doc)
    assert "distinct" in str(excinfo.value)

    doc["ops"][0]["targets"] = [0, 2]
    with pytest.raises(SchemaError) as excinfo:
        parse(doc)
    assert "$.ops[0].targets[1]" in str(excinfo.value)

    doc["ops"][0]["targets"] = [0, True]
    with pytest.raises(SchemaError):
        parse(doc)

    # Every mode rule is gaussian.mode_indices': once per target, then distinctness.
    cases = [
        ([0, True], "$.ops[0].targets[1]: mode True is not an integer"),
        ([0.5, 1], "$.ops[0].targets[0]: mode 0.5 is not an integer"),
        (["0", 1], "$.ops[0].targets[0]: mode '0' is not an integer"),
        ([0, 2], "$.ops[0].targets[1]: mode 2 outside 0..1"),
        ([-1, 1], "$.ops[0].targets[0]: mode -1 outside 0..1"),
        ([1, 1], "$.ops[0].targets: modes (1, 1) must be distinct"),
    ]
    for targets, message in cases:
        doc["ops"][0]["targets"] = targets
        with pytest.raises(SchemaError) as excinfo:
            parse(doc)
        assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "$: expected a JSON object"),
        ({**VACUUM_1, "modes": 0}, "$.modes: modes must be an integer >= 1"),
        ({**VACUUM_1, "modes": True}, "$.modes: modes must be an integer >= 1"),
        ({**VACUUM_1, "modes": 1.0}, "$.modes: modes must be an integer >= 1"),
        ({**VACUUM_1, "inputs": []}, "$.inputs: inputs must list exactly 1 entries"),
        ({**VACUUM_1, "inputs": {}}, "$.inputs: inputs must list exactly 1 entries"),
        ({**VACUUM_1, "ops": {}}, "$.ops: ops must be a list"),
        ({**VACUUM_1, "inputs": [1.0]}, "$.inputs[0]: expected an object"),
        ({**VACUUM_1, "ops": [[]]}, "$.ops[0]: expected an object"),
        (
            {**VACUUM_1, "ops": [{"gate": "frft", "targets": [0], "params": [0.7]}]},
            "$.ops[0].params: expected an object",
        ),
        (
            {**VACUUM_1, "ops": [{"gate": "frft", "targets": 0, "params": {"phi": 0.7}}]},
            "$.ops[0].targets: gate 'frft' takes exactly 1 target(s)",
        ),
    ],
    ids=["not-an-object", "modes-0", "modes-true", "modes-float", "inputs-short",
         "inputs-object", "ops-object", "input", "op", "params", "targets-not-a-list"],
)
def test_json_shape_refusals(doc, message):
    with pytest.raises(SchemaError) as excinfo:
        parse(doc)
    assert str(excinfo.value) == message


def test_op_param_validation():
    doc = json.loads(json.dumps(MIXER_2))
    doc["ops"][1]["params"] = {"phi": 0.7, "chirp": 1.0}
    with pytest.raises(SchemaError) as excinfo:
        parse(doc)
    assert "$.ops[1].params" in str(excinfo.value)

    doc["ops"][1]["params"] = {}
    with pytest.raises(SchemaError) as excinfo:
        parse(doc)
    assert "missing keys" in str(excinfo.value)

    doc["ops"][1]["params"] = {"phi": "fast"}
    with pytest.raises(SchemaError) as excinfo:
        parse(doc)
    assert "$.ops[1].params.phi" in str(excinfo.value)

    scale_doc = {
        "modes": 1,
        "inputs": [{"type": "gaussian", "width": 1.0}],
        "ops": [{"gate": "scale", "targets": [0], "params": {"s": -2.0}}],
    }
    with pytest.raises(SchemaError) as excinfo:
        parse(scale_doc)
    assert "positive" in str(excinfo.value)

    scale_doc["ops"][0]["params"]["s"] = 1e-310
    with pytest.raises(SchemaError, match="not finite") as excinfo:
        parse(scale_doc)
    assert "$.ops[0].params" in str(excinfo.value)


def test_round_trip_identity():
    spec = parse(MIXER_2)
    text = ct.circuit_to_json(spec)
    again = ct.parse_circuit(text)
    assert again == spec
    assert ct.circuit_to_json(again) == text
    assert text.endswith("\n")
    # Canonical form is sorted and versioned.
    doc = json.loads(text)
    assert doc["schema"] == "tfsim/1"
    assert list(doc) == sorted(doc)


def dense_run(n, steps):
    """Independent reference: each step as a dense 2N x 2N symplectic S (the
    identity with the table block on the targets' rows), Sigma -> S Sigma S^T
    and mu -> S mu + shift."""
    mean, cov = np.zeros(2 * n), 0.5 * np.eye(2 * n)
    for step in steps:
        idx = g.mode_indices(step.targets, n)
        block, shift = g.gate_block(step.gate, step.params)
        S = np.eye(2 * n)
        S[np.ix_(idx, idx)] = block
        full_shift = np.zeros(2 * n)
        if shift is not None:
            full_shift[idx] = shift
        mean, cov = S @ mean + full_shift, S @ cov @ S.T
    return mean, cov


def test_gate_ops_and_run_circuit():
    spec = parse(MIXER_2)
    ops = ct.gate_ops(spec)
    # One width-1.5 input scaling plus the two explicit gates; unit widths
    # add nothing.
    assert len(ops) == 3

    state = ct.run_circuit(spec)
    manual = g.vacuum_state(2)
    manual = g.apply(manual, "scale", (0,), s=1.5)
    manual = g.apply(manual, "fbs", (0, 1))
    manual = g.apply(manual, "frft", (1,), phi=0.7)
    assert np.array_equal(state.cov, manual.cov) and np.array_equal(state.mean, manual.mean)
    mean, cov = dense_run(2, ops)
    assert np.max(np.abs(state.cov - cov)) < 1e-14
    assert np.max(np.abs(state.mean - mean)) < 1e-14

    # A seeded wide circuit with every gate kind and non-unit input widths:
    # the row/column updates of run_circuit match the dense reference.
    rng = np.random.default_rng(11)
    n = 24
    widths = [float(w) for w in rng.uniform(0.7, 1.4, size=n)]
    widths[0] = 1.0
    kinds = ["fbs", "frft", "scale", "displace"] * 25
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        if kind == "fbs":
            targets = [int(m) for m in rng.choice(n, size=2, replace=False)]
            ops.append({"gate": "fbs", "targets": targets})
            continue
        params = {
            "frft": lambda: {"phi": float(rng.uniform(0, 2 * np.pi))},
            "scale": lambda: {"s": float(rng.uniform(0.6, 1.6))},
            "displace": lambda: {"omega0": float(rng.normal()), "t0": float(rng.normal())},
        }[kind]()
        ops.append({"gate": kind, "targets": [int(rng.integers(n))], "params": params})
    spec = parse({"modes": n, "inputs": [{"type": "gaussian", "width": w} for w in widths],
                  "ops": ops})
    steps = ct.gate_ops(spec)
    assert len(steps) == (n - 1) + len(ops)
    assert steps[n - 1:] == spec.ops
    mean, cov = dense_run(n, steps)
    state = ct.run_circuit(spec)
    assert np.max(np.abs(state.cov - cov)) <= 1e-13
    assert np.max(np.abs(state.mean - mean)) <= 1e-13
    assert np.max(np.abs(mean)) > 0.1 and np.max(np.abs(cov)) > 1.0


def test_run_circuit_with_displacement():
    doc = {
        "modes": 1,
        "inputs": [{"type": "gaussian", "width": 1.0}],
        "ops": [
            {"gate": "displace", "targets": [0], "params": {"omega0": 0.5, "t0": -1.0}}
        ],
    }
    state = ct.run_circuit(parse(doc))
    assert state.mean[0] == pytest.approx(0.5)
    assert state.mean[1] == pytest.approx(-1.0)


def test_cli_hom_json(capsys):
    assert cli.main(["hom", "--n", "1"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["command"] == "hom"
    assert payload["coincidence"]["probability"] < 1e-12
    assert payload["marginal_a"] == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)
    assert payload["marginal_b"] == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)
    assert payload["cutoff"] == 2

    assert cli.main(["hom", "--n", "1"]) == 0
    assert capsys.readouterr().out == out  # byte-deterministic


def test_cli_out_file_matches_stdout(tmp_path, capsys):
    assert cli.main(["hom", "--n", "2"]) == 0
    stdout_text = capsys.readouterr().out
    target = tmp_path / "hom.json"
    assert cli.main(["hom", "--n", "2", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == stdout_text


def test_cli_unwritable_out_is_a_json_error(tmp_path, capsys):
    circuit = write_circuit(tmp_path, VACUUM_1)
    commands = (
        ["hom", "--n", "1"],
        ["wigner", "--circuit", circuit, "--grid=-2:2:5,-2:2:5"],
        ["fgbs", "sample", "--circuit", circuit, "--shots", "5"],
    )
    for argv in commands:
        for target in (tmp_path / "missing_dir" / "x.json", tmp_path):
            assert cli.main([*argv, "--out", str(target)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err)
            assert err["error"]["type"] == "error"
            assert err["error"]["exit_code"] == 1
    assert not (tmp_path / "missing_dir").exists()


def test_cli_table_errors_come_before_the_first_byte(tmp_path, capsys):
    # Tables are streamed, but every guard and check runs before the first chunk:
    # a refused table leaves stdout empty and creates no --out file.
    vacuum = write_circuit(tmp_path, VACUUM_1)
    extra_key = write_circuit(tmp_path, dict(VACUUM_1, extra=True), "extra.json")
    wide = write_circuit(tmp_path, {**VACUUM_1, "inputs": [
        {"type": "gaussian", "width": 1.5}]}, "wide.json")
    cases = [
        (["wigner", "--circuit", vacuum, "--grid=-1:1:100000,-1:1:100000"], 4),
        (["fgbs", "sample", "--circuit", vacuum, "--shots", "1000000000000"], 4),
        (["metrology", "--photons", "2..4000000"], 4),
        (["wigner", "--circuit", extra_key], 3),
        (["fgbs", "sample", "--circuit", extra_key], 3),
        (["fgbs", "sample", "--circuit", wide, "--shots", "10", "--cutoff", "1"], 5),
        (["wigner", "--circuit", vacuum, "--mode", "1"], 1),
    ]
    target = tmp_path / "table.out"
    for argv, code in cases:
        for out in ([], ["--out", str(target)]):
            assert cli.main([*argv, *out]) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["error"]["exit_code"] == code
            assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cli_write_that_fails_part_way_is_a_json_error(tmp_path, capsys):
    # /dev/full opens but refuses every write (ENOSPC), as a full disk would.
    path = write_circuit(tmp_path, VACUUM_1)
    argv = ["wigner", "--circuit", path, "--grid=-7:7:201,-7:7:201"]
    assert cli.main([*argv, "--out", "/dev/full"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["exit_code"] == 1
    src = str(Path(cli.__file__).resolve().parents[1])
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "tfsim.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr
    assert json.loads(result.stderr)["error"]["exit_code"] == 1


def test_cli_closed_pipe_is_a_json_error_without_a_traceback(tmp_path):
    # The reader stops after one line of a 2.4 MB table: tfsim stops writing and
    # exits 1 with the JSON error, and the interpreter's final flush is silent.
    path = write_circuit(tmp_path, VACUUM_1)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "tfsim.cli", "wigner", "--circuit", path,
         "--grid=-7:7:201,-7:7:201"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"omega,t,value\n"
    proc.stdout.close()
    err = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    error = json.loads(err)["error"]
    assert error["type"] == "error" and error["exit_code"] == 1


def test_cli_metrology_sweep(capsys):
    assert cli.main(["metrology", "--photons", "2..6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n_photons,phi,estimator,delta_phi"
    assert len(lines) == 4
    for line, n_expected in zip(lines[1:], (2, 4, 6)):
        n_s, phi_s, name, dphi_s = line.split(",")
        assert int(n_s) == n_expected
        assert name == "fisher"
        bound = metrology.quantum_fisher_information(n_expected) ** -0.5
        assert float(dphi_s) == pytest.approx(bound, rel=1e-9)
        assert 0.0 < float(phi_s) < math.pi


def test_cli_metrology_fixed_phase_degenerate(capsys):
    assert cli.main(
        ["metrology", "--photons", "2", "--estimator", "jz", "--phase", "0.8"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "2,0.80000000000000004,jz,inf"


def test_cli_metrology_invalid_photons(capsys):
    assert cli.main(["metrology", "--photons", "3"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "error"
    assert err["error"]["exit_code"] == 1
    assert cli.main(["metrology", "--photons", "6..2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "error" and err["exit_code"] == 1
    assert err["message"] == "empty photon range '6..2'"


def test_cli_fgbs_prob_vacuum(tmp_path, capsys):
    path = write_circuit(tmp_path, {"modes": 2, "inputs": [
        {"type": "gaussian", "width": 1.0}, {"type": "gaussian", "width": 1.0}],
        "ops": []})
    assert cli.main(["fgbs", "prob", "--circuit", path, "--pattern", "0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "fgbs-prob"
    assert payload["modes"] == 2
    assert payload["pattern"] == [0, 0]
    assert payload["probability"] == 1.0


def test_cli_fgbs_prob_matches_library(tmp_path, capsys):
    path = write_circuit(tmp_path, MIXER_2)
    assert cli.main(["fgbs", "prob", "--circuit", path, "--pattern", "2,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    dist = fgbs.build_distribution(ct.run_circuit(parse(MIXER_2)))
    assert payload["probability"] == pytest.approx(
        fgbs.probability(dist, (2, 0)), rel=1e-15
    )


def test_cli_fgbs_prob_refuses_a_negative_probability(tmp_path, capsys, monkeypatch):
    path = write_circuit(tmp_path, MIXER_2)
    monkeypatch.setattr(fgbs, "hafnian_corner", lambda a, sides: np.complex128(-1e-6))
    assert cli.main(["fgbs", "prob", "--circuit", path, "--pattern", "2,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "error" and error["exit_code"] == 1
    assert error["message"].startswith("negative probability")


def test_cli_missing_circuit_file(capsys):
    code = cli.main(["fgbs", "prob", "--circuit", "/no/such/file.json", "--pattern", "0"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "file-not-found"
    assert err["error"]["exit_code"] == 2


def test_cli_unreadable_circuit_is_a_json_error(tmp_path, capsys):
    # A directory as --circuit raises IsADirectoryError, not FileNotFoundError.
    for argv in (
        ["fgbs", "prob", "--pattern", "0"],
        ["fgbs", "sample", "--shots", "3"],
        ["wigner"],
    ):
        assert cli.main(argv + ["--circuit", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["type"] == "error"
        assert err["error"]["exit_code"] == 1


def test_cli_sector_cost_guard_exit_code(capsys):
    # Refused from the (k+1)^2 estimate alone, before any sector is built.
    for argv in (["hom", "--n", "1000000"], ["metrology", "--photons", "4000000"]):
        assert cli.main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["type"] == "cost-guard"
        assert err["error"]["exit_code"] == 4


def test_cli_photon_range_is_guarded_before_it_is_built(capsys):
    # The top of the range is charged first: a list of 5e11 photon numbers is never built.
    assert cli.main(["metrology", "--photons", "2..1000000000000"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "cost-guard"
    assert err["error"]["exit_code"] == 4
    assert "sector k=1000000000000" in err["error"]["message"]
    # A range below 2 holds no valid photon number; it is refused before it is built.
    assert cli.main(["metrology", "--photons=-1000000000000..2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must start at 2" in json.loads(captured.err)["error"]["message"]


def test_cli_fgbs_sample_shots_refused_from_the_estimate(tmp_path, capsys, monkeypatch):
    # One unit per shot, charged before any pattern is enumerated or drawn.
    def refuse(*args):
        raise AssertionError("the estimate alone must refuse this many shots")

    monkeypatch.setattr(fgbs, "_enumerate_probabilities", refuse)
    path = write_circuit(tmp_path, VACUUM_1)
    argv = ["fgbs", "sample", "--circuit", path, "--shots", "1000000000000"]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "cost-guard"
    assert "1000000000000 shots" in err["error"]["message"]


def test_cli_unknown_gate_exit_code(tmp_path, capsys):
    doc = json.loads(json.dumps(MIXER_2))
    doc["ops"][0]["gate"] = "beamsplitter"
    path = write_circuit(tmp_path, doc)
    assert cli.main(["fgbs", "prob", "--circuit", path, "--pattern", "0,0"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "unknown-gate"
    assert "$.ops[0].gate" in err["error"]["message"]


def test_cli_schema_violation_exit_code(tmp_path, capsys):
    doc = dict(VACUUM_1, extra=True)
    path = write_circuit(tmp_path, doc)
    assert cli.main(["fgbs", "prob", "--circuit", path, "--pattern", "0"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "schema-violation"


SUBNORMAL_SCALE = {"gate": "scale", "targets": [0], "params": {"s": 1e-310}}


@pytest.mark.parametrize(
    "doc, location",
    [
        ({**VACUUM_1, "ops": [SUBNORMAL_SCALE]}, "$.ops[0].params"),
        ({**VACUUM_1, "inputs": [{"type": "gaussian", "width": 1e-310}]}, "$.inputs[0].width"),
    ],
    ids=["op", "width"],
)
def test_cli_subnormal_scale_is_a_schema_violation(tmp_path, capsys, doc, location):
    # s = 1e-310 passes s > 0, but its block diag(s, 1/s) is not finite: exit 3 at parse.
    path = write_circuit(tmp_path, doc)
    assert cli.main(["wigner", "--circuit", path, "--grid=-1:1:2,-1:1:2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "schema-violation"
    assert location in err["message"] and "not finite" in err["message"]


def test_cli_cost_guard_exit_code(tmp_path, capsys, monkeypatch):
    path = write_circuit(tmp_path, MIXER_2)
    monkeypatch.setenv("TFSIM_MAX_COST", "1")
    assert cli.main(["fgbs", "prob", "--circuit", path, "--pattern", "2,2"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "cost-guard"


def test_cli_circuit_size_is_charged_before_allocation(tmp_path, capsys, monkeypatch):
    # A 2-mode circuit's 4 x 4 covariance costs (2N)^2 = 16 units.
    path = write_circuit(tmp_path, MIXER_2)
    monkeypatch.setenv("TFSIM_MAX_COST", "15")
    assert cli.main(["fgbs", "prob", "--circuit", path, "--pattern", "0,0"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "cost-guard" and "circuit of 2 modes costs 16" in err["message"]
    monkeypatch.setenv("TFSIM_MAX_COST", "16")
    assert cli.main(["fgbs", "prob", "--circuit", path, "--pattern", "0,0"]) == 0


def test_cli_fgbs_prob_thirty_photon_pairs(tmp_path, capsys):
    # TMSV of width 3: P(30, 30) = tanh(ln 3)^60 / cosh(ln 3)^2 = 5.516983947e-7.
    doc = {
        "modes": 2,
        "inputs": [{"type": "gaussian", "width": 3.0}, {"type": "gaussian", "width": 1.0 / 3.0}],
        "ops": [{"gate": "fbs", "targets": [0, 1]}],
    }
    path = write_circuit(tmp_path, doc)
    assert cli.main(["fgbs", "prob", "--circuit", path, "--pattern", "30,30"]) == 0
    value = json.loads(capsys.readouterr().out)["probability"]
    r = math.log(3.0)
    expected = math.tanh(r) ** 60 / math.cosh(r) ** 2
    assert expected == pytest.approx(5.516983947e-7, rel=1e-9)
    assert value > 0.0
    assert value == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("value", ["abc", "1e9", "-5", "1.5", "0x10"])
def test_cli_malformed_cost_limit_is_a_json_error(tmp_path, capsys, monkeypatch, value):
    # The one guard limit is shared by the pattern kernel and the sector guard.
    path = write_circuit(tmp_path, MIXER_2)
    monkeypatch.setenv("TFSIM_MAX_COST", value)
    for argv in (["fgbs", "prob", "--circuit", path, "--pattern", "2,2"], ["hom", "--n", "2"]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["type"] == "error"
        assert "TFSIM_MAX_COST" in err["error"]["message"]
        assert repr(value) in err["error"]["message"]


def test_cli_fgbs_sample_three_modes_at_default_cutoff(tmp_path, capsys, monkeypatch):
    # The (8 + 1)^6 = 531 441-entry box fits the default limit; four modes,
    # (8 + 1)^8 entries, are refused from the estimate before any box is built.
    doc = {
        "modes": 3,
        "inputs": [{"type": "gaussian", "width": w} for w in (1.2, 0.9, 1.1)],
        "ops": [
            {"gate": "fbs", "targets": [0, 1]},
            {"gate": "frft", "targets": [1], "params": {"phi": 0.4}},
            {"gate": "fbs", "targets": [1, 2]},
        ],
    }
    dist = fgbs.build_distribution(ct.run_circuit(parse(doc)))
    assert fgbs.total_probability(dist, cutoff=8) >= fgbs.MASS_REQUIREMENT
    path = write_circuit(tmp_path, doc)
    assert cli.main(["fgbs", "sample", "--circuit", path, "--shots", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 20
    assert all(len(json.loads(line)["pattern"]) == 3 for line in lines)

    def refuse(*args):
        raise AssertionError("the estimate alone must refuse this size")

    monkeypatch.setattr(fgbs, "hafnian_box", refuse)
    doc4 = dict(doc, modes=4, inputs=doc["inputs"] + [{"type": "gaussian", "width": 1.0}])
    path4 = write_circuit(tmp_path, doc4, name="four.json")
    assert cli.main(["fgbs", "sample", "--circuit", path4, "--shots", "20"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "cost-guard"
    assert str(9**8) in err["error"]["message"]


def test_cli_bad_pattern_exit_code(tmp_path, capsys):
    path = write_circuit(tmp_path, MIXER_2)
    assert cli.main(["fgbs", "prob", "--circuit", path, "--pattern", "1,x"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "error"


def test_cli_fgbs_sample(tmp_path, capsys):
    doc = {
        "modes": 1,
        "inputs": [{"type": "gaussian", "width": 1.5}],
        "ops": [],
    }
    path = write_circuit(tmp_path, doc)
    args = ["fgbs", "sample", "--circuit", path, "--shots", "50", "--seed", "9"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    lines = first.splitlines()
    assert len(lines) == 50
    for i, line in enumerate(lines):
        record = json.loads(line)
        assert record["shot"] == i
        assert record["pattern"][0] % 2 == 0

    assert cli.main(args) == 0
    assert capsys.readouterr().out == first  # seeded determinism


def test_cli_fgbs_sample_insufficient_mass(tmp_path, capsys):
    doc = {
        "modes": 1,
        "inputs": [{"type": "gaussian", "width": 1.5}],
        "ops": [],
    }
    path = write_circuit(tmp_path, doc)
    code = cli.main(
        ["fgbs", "sample", "--circuit", path, "--shots", "10", "--cutoff", "1"]
    )
    assert code == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "insufficient-mass"


def test_cli_fgbs_sample_negative_cutoff(tmp_path, capsys):
    path = write_circuit(tmp_path, VACUUM_1)
    code = cli.main(["fgbs", "sample", "--circuit", path, "--cutoff", "-1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "error"
    assert "cutoff must be an integer >= 0" in err["error"]["message"]


def test_cli_wigner(tmp_path, capsys):
    path = write_circuit(tmp_path, VACUUM_1)
    assert cli.main(
        ["wigner", "--circuit", path, "--grid=-2:2:5,-2:2:5"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "omega,t,value"
    assert len(lines) == 1 + 25
    # Center row of the 5x5 grid is (0, 0): the vacuum peak 1/pi.
    w_s, t_s, v_s = lines[13].split(",")
    assert float(w_s) == 0.0
    assert float(t_s) == 0.0
    assert float(v_s) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_cli_wigner_grid_origin(tmp_path, capsys):
    path = write_circuit(tmp_path, VACUUM_1)
    assert cli.main(
        ["wigner", "--circuit", path, "--grid=-0.5:1.5:5,-1:1:3,0.5"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    # Peak moves to the axis value equal to the origin.
    values = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in lines[1:]}
    assert values[("0.5", "0")] == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert values[("-0.5", "0")] < values[("0.5", "0")]


def test_cli_wigner_out_file_matches_stdout(tmp_path, capsys):
    # 101 x 103 rows span two chunks of the table writer.
    path = write_circuit(tmp_path, MIXER_2)
    args = ["wigner", "--circuit", path, "--mode", "1", "--grid=-3:4:101,-2.5:2.5:103,0.75"]
    assert cli.main(args) == 0
    stdout_text = capsys.readouterr().out
    assert stdout_text.count("\n") == 1 + 101 * 103
    target = tmp_path / "wigner.csv"
    assert cli.main([*args, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes().decode("utf-8") == stdout_text


def test_cli_wigner_cost_guard_refuses_from_the_estimate(tmp_path, capsys, monkeypatch):
    # One unit per grid cell: a 10^5 x 10^5 grid (about 80 GB of field) is refused
    # before anything is evaluated or allocated.
    def refuse(*args):
        raise AssertionError("the estimate alone must refuse this grid")

    monkeypatch.setattr(g, "_gaussian_field", refuse)
    path = write_circuit(tmp_path, VACUUM_1)
    assert cli.main(["wigner", "--circuit", path, "--grid=-1:1:100000,-1:1:100000"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "cost-guard"
    assert str(10**10) in err["error"]["message"]

    monkeypatch.setenv("TFSIM_MAX_COST", "24")
    assert cli.main(["wigner", "--circuit", path, "--grid=-2:2:5,-2:2:5"]) == 4
    capsys.readouterr()
    monkeypatch.undo()
    monkeypatch.setenv("TFSIM_MAX_COST", "25")
    assert cli.main(["wigner", "--circuit", path, "--grid=-2:2:5,-2:2:5"]) == 0
    assert capsys.readouterr().out.count("\n") == 26


def test_cli_bad_grid_spec(tmp_path, capsys):
    path = write_circuit(tmp_path, VACUUM_1)
    assert cli.main(["wigner", "--circuit", path, "--grid=-2:2:5"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "error"


@pytest.mark.parametrize("grid", ["-1:1,-1:1:3", "-1:1:3,-1:1:3:4", "-1:1:3,1"])
def test_cli_malformed_grid_axis_gets_the_usage_message(tmp_path, capsys, grid):
    path = write_circuit(tmp_path, VACUUM_1)
    assert cli.main(["wigner", "--circuit", path, f"--grid={grid}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = json.loads(captured.err)["error"]["message"]
    assert message == "grid must be 'wmin:wmax:count,tmin:tmax:count[,origin]'"


@pytest.mark.parametrize(
    "grid", ["-inf:inf:3,-1:1:2", "-1:1:2,-1:1:2,nan", "-1e308:1e308:3,-1:1:2"]
)
def test_cli_non_finite_grid_is_refused(tmp_path, capsys, grid):
    path = write_circuit(tmp_path, VACUUM_1)
    assert cli.main(["wigner", "--circuit", path, f"--grid={grid}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "error" and "must be finite" in err["message"]


def test_cli_overflowing_state_is_refused(tmp_path, capsys):
    # Two finite displacements whose sum overflows the mean: exit 1, not nan cells.
    shift = {"gate": "displace", "targets": [0], "params": {"omega0": 1e308, "t0": 0.0}}
    path = write_circuit(tmp_path, {**VACUUM_1, "ops": [shift, shift]})
    assert cli.main(["wigner", "--circuit", path, "--grid=-1:1:2,-1:1:2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "error" and "finite" in err["message"]


ILL_CONDITIONED_2 = {
    "modes": 2,
    "inputs": [
        {"type": "gaussian", "width": 1e150},
        {"type": "gaussian", "width": 1e-150},
    ],
    "ops": [{"gate": "fbs", "targets": [0, 1]}],
}


@pytest.mark.parametrize(
    "command, extra",
    [(["wigner"], ["--grid=-1:1:2,-1:1:2"]), (["fgbs", "prob"], ["--pattern", "0,0"])],
    ids=["wigner", "fgbs-prob"],
)
def test_cli_ill_conditioned_covariance_is_one_json_error(tmp_path, command, extra):
    # Mixing widths 1e150 and 1e-150 rounds the covariance to a singular matrix
    # whose mode-0 determinant overflows. A separate process shows everything
    # written to stderr, warnings included.
    path = write_circuit(tmp_path, ILL_CONDITIONED_2)
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "tfsim.cli", *command, "--circuit", path, *extra],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    err = json.loads(result.stderr)["error"]  # exactly one JSON object
    assert err["type"] == "error" and "ill-conditioned" in err["message"]


def test_cli_extreme_but_well_conditioned_state_is_evaluated(tmp_path, capsys):
    # Width 1e150 alone: a diagonal covariance whose condition number is 1e600 but
    # whose diagonally scaled one is 1, so the map is printed: exp(-w^2/s^2 - t^2 s^2)/pi.
    path = write_circuit(tmp_path, {**VACUUM_1, "inputs": [{"type": "gaussian", "width": 1e150}]})
    assert cli.main(["wigner", "--circuit", path, "--grid=-1e150:1e150:3,-1e-150:1e-150:3"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 9
    for omega, t, value in (map(float, row) for row in rows):
        expected = math.exp(-((omega / 1e150) ** 2) - (t * 1e150) ** 2) / math.pi
        assert value == pytest.approx(expected, rel=1e-12)


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "tfsim.cli", "hom", "--n", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["coincidence"]["probability"] == pytest.approx(1.0, rel=1e-12)


def test_cli_import_loads_no_scipy():
    # The package depends on NumPy only; importing SciPy was half of CLI start-up.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, tfsim.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_fgbs_prob_refuses_a_sigma_inside_the_uncertainty_tolerance(
        tmp_path, capsys, monkeypatch):
    # A covariance accepted only within UNCERTAINTY_TOL (Sigma has eigenvalue
    # -1e-11) has no normalizable FGBS kernel: a JSON error with exit code 1.
    path = write_circuit(tmp_path, {"modes": 1, "inputs": [
        {"type": "gaussian", "width": 1.0}], "ops": []})
    edge = g.GaussianTFState(np.zeros(2), np.diag([1e10, -1e-11]))
    monkeypatch.setattr(cli, "run_circuit", lambda spec: edge)
    assert cli.main(["fgbs", "prob", "--circuit", path, "--pattern", "0"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert "not normalizable" in error["message"]
