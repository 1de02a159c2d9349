"""The two scalar rules: every count and every real number the library takes passes one check.

``tfsim.exceptions._check_int`` refuses anything but a non-bool integer at or above a minimum
("<name> must be an integer >= <minimum>"); ``_check_real`` refuses anything but a finite
non-bool real number ("<name> must be a real number, got ..." or "<name> must be finite",
"... positive and finite" where the number must be > 0). Each refusal names its argument.
"""

import json
import re

import numpy as np
import pytest

from tfsim import cli, fgbs, hafnian, hg
from tfsim import gaussian as g
from tfsim import metrology as mt
from tfsim import twophoton as tp
from tfsim.circuit import CircuitSpec, GateSpec, run_circuit
from tfsim.exceptions import _check_int, _check_real

DIST = fgbs.build_distribution(g.vacuum_state(1))
JSA = tp.hom_output(1)
PHOTON = hg.SpectralState([1.0], 1.0)
A2 = np.zeros((2, 2))


def gauss(w):
    return np.exp(-w * w / 2.0) / np.pi**0.25


def run_op(gate, params):
    return run_circuit(CircuitSpec(1, (1.0,), (GateSpec(gate, (0,), params),)))


def grid(**fields):
    return g.PhaseSpaceGrid(**{"omega_min": -1.0, "omega_max": 1.0, "omega_count": 2,
                               "t_min": -1.0, "t_max": 1.0, "t_count": 2, **fields})


#: Entry point -> (call with one count, the count's name).
COUNTS = {
    "vacuum_state": (g.vacuum_state, "modes"),
    "run_circuit-modes": (lambda v: run_circuit(CircuitSpec(v, (1.0,), ())), "modes"),
    "grid-omega_count": (lambda v: grid(omega_count=v), "omega_count"),
    "grid-t_count": (lambda v: grid(t_count=v), "t_count"),
    "gauss_hermite": (hg.gauss_hermite, "order"),
    "hermite_functions": (lambda v: hg.hermite_functions(v, 0.0), "nmax"),
    "hg_value": (lambda v: hg.hg_value(v, 1.0, 0.0), "n"),
    "decompose": (lambda v: hg.decompose(gauss, cutoff=v), "cutoff"),
    "mode_probability": (lambda v: hg.mode_probability(PHOTON, v), "n"),
    "hom_output": (tp.hom_output, "n"),
    "sector_matrix": (tp.sector_matrix, "k"),
    "apply_fbs_grid": (lambda v: tp.apply_fbs_grid(JSA, cutoff=v), "cutoff"),
    "coincidence-n": (lambda v: tp.coincidence_probability(JSA, v, 0), "n"),
    "coincidence-m": (lambda v: tp.coincidence_probability(JSA, 0, v), "m"),
    "twin_state": (mt.twin_state, "n_total"),
    "quantum_fisher_information": (lambda v: mt.quantum_fisher_information(v, JSA), "n_total"),
    "total_probability": (lambda v: fgbs.total_probability(DIST, v), "cutoff"),
    "sample-cutoff": (lambda v: fgbs.sample(DIST, 1, 0, v), "cutoff"),
    "sample-shots": (lambda v: fgbs.sample(DIST, v, 0, 2), "shots"),
    "probability": (lambda v: fgbs.probability(DIST, (v,)), "pattern entry"),
    "reduce": (lambda v: hafnian.reduce(A2, (v,)), "pattern entry"),
    "hafnian_box": (lambda v: hafnian.hafnian_box(A2, (v, 2)), "box side"),
    "hafnian_corner": (lambda v: hafnian.hafnian_corner(A2, (2, v)), "box side"),
}

#: Entry point -> (call with one real number, the number's name).
REALS = {
    "apply-frft": (lambda v: g.apply(g.vacuum_state(1), "frft", (0,), phi=v), "phi"),
    "apply-displace": (lambda v: g.apply(g.vacuum_state(1), "displace", (0,),
                                         omega0=0.0, t0=v), "t0"),
    "gate_block-scale": (lambda v: g.gate_block("scale", {"s": v}), "s"),
    "run_circuit-width": (lambda v: run_circuit(CircuitSpec(1, (v,), ())), "width"),
    "run_circuit-param": (lambda v: run_op("frft", {"phi": v}), "phi"),
    "grid-omega_min": (lambda v: grid(omega_min=v), "omega_min"),
    "grid-t_max": (lambda v: grid(t_max=v), "t_max"),
    "grid-origin": (lambda v: grid(origin=v), "origin"),
    "hg_value": (lambda v: hg.hg_value(0, v, 0.0), "sigma"),
    "decompose": (lambda v: hg.decompose(gauss, cutoff=1, sigma=v), "sigma"),
    "SpectralState": (lambda v: hg.SpectralState([1.0], v), "sigma"),
    "JointSpectralAmplitude": (lambda v: tp.JointSpectralAmplitude([[1.0]], v), "sigma"),
    "phase_precision": (lambda v: mt.phase_precision(2, v, "fisher"), "phi"),
    "interferometer": (lambda v: mt.interferometer(JSA, v), "phi"),
}

BAD_COUNTS = (True, np.True_, 2.5, "1", -1, 1 + 2j)
BAD_REALS = (True, np.True_, "1", np.nan, np.inf, -np.inf, 1 + 2j)


def table(entries, values):
    return [pytest.param(call, name, value, id=f"{entry}-{value!r}")
            for entry, (call, name) in entries.items() for value in values]


@pytest.mark.parametrize("call, name, value", table(COUNTS, BAD_COUNTS))
def test_every_count_passes_the_one_count_rule(call, name, value):
    # No state, no warning, no NumPy TypeError: a ValueError naming the count.
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d$"):
        call(value)


@pytest.mark.parametrize("call, name, value", table(REALS, BAD_REALS))
def test_every_real_passes_the_one_real_rule(call, name, value):
    message = rf"^{name} must be (a real number, got .*|(positive and )?finite)$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: g.apply(g.vacuum_state(1), "frft", (0,), phi="0.5"),
         "phi must be a real number, got '0.5'"),
        (lambda: run_circuit(CircuitSpec(1, ("a",), ())), "width must be a real number, got 'a'"),
        (lambda: run_circuit(CircuitSpec(1, (True,), ())), "width must be a real number, got True"),
    ],
    ids=["apply-phi-string", "run-width-string", "run-width-bool"],
)
def test_hand_built_parameters_and_widths_are_refused_as_the_parser_refuses_them(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"inputs": [{"type": "gaussian", "width": True}]},
         "$.inputs[0].width: width must be a real number, got True"),
        ({"inputs": [{"type": "gaussian", "width": "1"}]},
         "$.inputs[0].width: width must be a real number, got '1'"),
        ({"inputs": [{"type": "gaussian", "width": float("nan")}]},
         "$.inputs[0].width: width must be finite"),
        ({"ops": [{"gate": "frft", "targets": [0], "params": {"phi": float("inf")}}]},
         "$.ops[0].params.phi: phi must be finite"),
        ({"ops": [{"gate": "displace", "targets": [0], "params": {"omega0": "0", "t0": 0}}]},
         "$.ops[0].params.omega0: omega0 must be a real number, got '0'"),
        ({"modes": 2.5}, "$.modes: modes must be an integer >= 1"),
        ({"modes": "1"}, "$.modes: modes must be an integer >= 1"),
    ],
    ids=["width-bool", "width-string", "width-nan", "phi-inf", "omega0-string", "modes-float",
         "modes-string"],
)
def test_the_parser_refuses_with_the_same_rules_and_exit_3(tmp_path, capsys, doc, message):
    doc = {"modes": 1, "inputs": [{"type": "gaussian", "width": 1.0}], "ops": [], **doc}
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["wigner", "--circuit", str(path), "--grid=-1:1:2,-1:1:2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert (error["type"], error["message"]) == ("schema-violation", message)


def test_numpy_scalars_pass_as_python_numbers():
    assert (_check_int(np.uint8(3), "k"), _check_real(np.float32(0.5), "phi")) == (3, 0.5)
    assert type(_check_int(np.int64(3), "k")) is int
    assert type(_check_real(np.float64(0.5), "phi")) is float
    assert np.array_equal(tp.sector_matrix(np.int64(3)), tp.sector_matrix(3))
    assert np.array_equal(hg.gauss_hermite(np.int32(9)).nodes, hg.gauss_hermite(9).nodes)
    assert np.array_equal(g.apply(g.vacuum_state(1), "frft", (0,), phi=np.float64(0.3)).cov,
                          g.apply(g.vacuum_state(1), "frft", (0,), phi=0.3).cov)
    assert fgbs.probability(DIST, np.array([0])) == 1.0
