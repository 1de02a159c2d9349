"""Circuit files: a strict versioned JSON schema and its execution.

A circuit document looks like::

    {
      "schema": "tfsim/1",
      "modes": 2,
      "inputs": [{"type": "gaussian", "width": 1.0},
                 {"type": "gaussian", "width": 1.5}],
      "ops": [{"gate": "fbs", "targets": [0, 1], "params": {}},
              {"gate": "frft", "targets": [0], "params": {"phi": 0.7}}]
    }

The "schema" key may be omitted and defaults to "tfsim/1". Parsing is strict: unknown keys,
unknown gates, wrong arities, and non-finite numbers are rejected with a
:class:`~tfsim.exceptions.SchemaError` that names the offending location.

The parser and :func:`run_circuit` share one rule each: for the mode count, one input per
mode and each op's target count; for each parameter and input width (the real rule of
:mod:`tfsim.exceptions`); for each target (:func:`tfsim.gaussian.mode_indices`); and for
each gate, an input width as a scale factor (:func:`tfsim.gaussian.gate_block`). Each input
mode starts as a Gaussian of the given spectral width (width 1 is the reference vacuum),
implemented as a bandwidth-scaling gate on the unit vacuum; the ops then run
in order. :func:`gate_ops` lists these steps as :class:`GateSpec` entries, the
input scalings first, and :func:`run_circuit` folds the gate step of
:func:`tfsim.gaussian.apply` over them: each updates only its targets' rows and
columns, so a gate costs O(N).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import SchemaError, UnknownGateError, _check_cost, _check_int, _check_real
from .gaussian import GATES, GaussianTFState, _check_target_count, _step, gate_block, mode_indices

__all__ = [
    "SCHEMA_VERSION",
    "GateSpec",
    "CircuitSpec",
    "parse_circuit",
    "gate_ops",
    "run_circuit",
]

SCHEMA_VERSION = "tfsim/1"

@dataclass(frozen=True)
class GateSpec:
    """One validated circuit operation."""

    gate: str
    targets: tuple
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CircuitSpec:
    """A validated circuit: mode count, input widths, ordered gates."""

    modes: int
    inputs: tuple
    ops: tuple


def _require_keys(obj, required, optional, location):
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", location=location)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise SchemaError(f"unknown keys {unknown}", location=location)
    missing = sorted(set(required) - set(obj))
    if missing:
        raise SchemaError(f"missing keys {missing}", location=location)


def _check(location, check, *args):
    """``check(*args)``, refusing at ``location`` what it refuses with ValueError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise SchemaError(str(exc), location=location) from exc


def _check_input_count(modes, inputs):
    """The one input-count rule: ValueError unless one input width per mode."""
    if not isinstance(inputs, (list, tuple)) or len(inputs) != modes:
        raise ValueError(f"inputs must list exactly {modes} entries")


def _parse_input(entry, mode):
    location = f"$.inputs[{mode}]"
    _require_keys(entry, ("type", "width"), (), location)
    if entry["type"] != "gaussian":
        raise SchemaError(
            f"unknown input type {entry['type']!r}; only 'gaussian' is supported",
            location=f"{location}.type",
        )
    width = _check(f"{location}.width", _check_real, entry["width"], "width")
    _check(f"{location}.width", gate_block, "scale", {"s": width})
    return width


def _parse_op(entry, index, modes):
    location = f"$.ops[{index}]"
    _require_keys(entry, ("gate", "targets"), ("params",), location)
    gate = entry["gate"]
    if not isinstance(gate, str) or gate not in GATES:
        raise UnknownGateError(f"unknown gate {gate!r}", location=f"{location}.gate")
    targets = entry["targets"]
    _check(f"{location}.targets", _check_target_count, gate, targets)
    for j, target in enumerate(targets):
        _check(f"{location}.targets[{j}]", mode_indices, (target,), modes)
    _check(f"{location}.targets", mode_indices, targets, modes)
    raw_params = entry.get("params", {})
    location = f"{location}.params"
    if not isinstance(raw_params, dict):
        raise SchemaError("expected an object", location=location)
    params = {k: _check(f"{location}.{k}", _check_real, v, k) for k, v in raw_params.items()}
    _check(location, gate_block, gate, params)
    return GateSpec(gate=gate, targets=tuple(targets), params=params)


def parse_circuit(text):
    """Parse and validate a circuit document from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"invalid JSON: {exc.msg}", location=f"line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object", location="$")
    _require_keys(doc, ("modes", "inputs", "ops"), ("schema",), "$")
    if doc.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema {doc['schema']!r}; expected {SCHEMA_VERSION!r}",
            location="$.schema",
        )
    modes, inputs = doc["modes"], doc["inputs"]
    modes = _check("$.modes", _check_int, modes, "modes", 1)
    _check("$.inputs", _check_input_count, modes, inputs)
    widths = tuple(_parse_input(entry, i) for i, entry in enumerate(inputs))
    ops_doc = doc["ops"]
    if not isinstance(ops_doc, list):
        raise SchemaError("ops must be a list", location="$.ops")
    ops = tuple(_parse_op(entry, i, modes) for i, entry in enumerate(ops_doc))
    return CircuitSpec(modes=modes, inputs=widths, ops=ops)


def gate_ops(spec):
    """The circuit's steps as GateSpecs: input-width scalings, then ``spec.ops``."""
    scalings = tuple(
        GateSpec(gate="scale", targets=(mode,), params={"s": width})
        for mode, width in enumerate(spec.inputs)
        if width != 1.0
    )
    return scalings + tuple(spec.ops)


def run_circuit(spec):
    """Execute the circuit on the vacuum and return the final Gaussian state.

    The (2N)^2 covariance entries are charged to the cost guard before anything is
    allocated. Each step updates only its targets' rows and columns; the state is
    validated once, at the end.
    """
    _check_int(spec.modes, "modes", 1)
    _check_input_count(spec.modes, spec.inputs)
    for width in spec.inputs:
        _check_real(width, "width")
    _check_cost((2 * spec.modes) ** 2, f"circuit of {spec.modes} modes")
    mean = np.zeros(2 * spec.modes)
    cov = 0.5 * np.eye(2 * spec.modes)
    for op in gate_ops(spec):
        _step(mean, cov, op.gate, op.targets, op.params)
    return GaussianTFState(mean, cov)
