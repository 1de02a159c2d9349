"""Command-line front end.

Subcommands
-----------
hom
    Two identical mode-n photons through the frequency beam splitter; emits
    a JSON report with the (n, n) coincidence probability and both arm
    marginals.
metrology
    Phase-precision sweep; emits CSV rows ``n_photons,phi,estimator,
    delta_phi``. ``--photons`` accepts a single even integer or a range
    ``A..B`` (step 2). Without ``--phase`` each row reports the least
    delta-phi over PHI_GRID_POINTS = 181 interior grid phases k pi / 182, so
    its phi is optimal only to that grid's spacing.
fgbs prob / fgbs sample
    Pattern probability, or seeded pattern samples as JSON lines, for the
    Gaussian state prepared by a circuit file.
wigner
    Single-mode Wigner field of a circuit's output state as CSV.

Outputs are byte-deterministic for identical inputs and seed: JSON is
emitted with sorted keys and CSV numbers with 17 significant digits. Every
computation, validation and cost guard finishes before the first byte is
written; :func:`_write`, the one output sink, then writes tables to stdout or
``--out`` a chunk of rows at a time, so peak memory is the computed values plus
one chunk. Errors are reported as a JSON object on stderr and a distinct exit code:
2 file-not-found, 3 schema violation, 4 cost guard, 5 insufficient sampling
mass, 1 anything else (including a usage error such as an unknown or missing
flag, a --circuit path that cannot be read, and a write that fails part-way,
such as a closed pipe, which stops the output and leaves a partial ``--out``
file); ``--help`` exits 0. The TFSIM_MAX_COST environment variable
relaxes or tightens the cost guards.

Each handler imports the library modules it runs, so importing this module loads
no NumPy and a subcommand loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exceptions import (
    CostGuardError,
    InsufficientMassError,
    SchemaError,
    TfsimError,
    UnknownGateError,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FILE_NOT_FOUND = 2
EXIT_SCHEMA = 3
EXIT_COST_GUARD = 4
EXIT_INSUFFICIENT_MASS = 5


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_state(path):
    from .circuit import parse_circuit, run_circuit

    with open(path, encoding="utf-8") as fh:
        return run_circuit(parse_circuit(fh.read()))


def _parse_pattern(text):
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"pattern must be comma-separated integers, got {text!r}") from exc
    return tuple(values)


def _parse_photons(text):
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo > hi:
            raise ValueError(f"empty photon range {text!r}")
        return range(lo, hi + 1, 2)
    return [int(text)]


def _parse_grid(text):
    from .gaussian import PhaseSpaceGrid

    parts = text.split(",")
    axes = [part.split(":") for part in parts[:2]]
    if len(parts) not in (2, 3) or any(len(axis) != 3 for axis in axes):
        raise ValueError("grid must be 'wmin:wmax:count,tmin:tmax:count[,origin]'")
    (wmin, wmax, wcount), (tmin, tmax, tcount) = axes
    return PhaseSpaceGrid(
        omega_min=float(wmin),
        omega_max=float(wmax),
        omega_count=int(wcount),
        t_min=float(tmin),
        t_max=float(tmax),
        t_count=int(tcount),
        origin=float(parts[2]) if len(parts) == 3 else 0.0,
    )


def _cmd_hom(args):
    from . import twophoton

    jsa = twophoton.hom_output(args.n)
    payload = {
        "command": "hom",
        "n": args.n,
        "coincidence": {
            "n": args.n,
            "m": args.n,
            "probability": twophoton.coincidence_probability(jsa, args.n, args.n),
        },
        "marginal_a": twophoton.mode_marginal(jsa, "a").tolist(),
        "marginal_b": twophoton.mode_marginal(jsa, "b").tolist(),
        "cutoff": jsa.cutoff,
    }
    return [_json_text(payload)]


def _cmd_metrology(args):
    from . import metrology
    from ._text import chunks

    values = _parse_photons(args.photons)
    rows = metrology.precision_sweep(values, args.estimator, phi=args.phase)
    return chunks(*metrology._sweep_table(rows))


def _cmd_fgbs_prob(args):
    from . import fgbs

    state = _load_state(args.circuit)
    dist = fgbs.build_distribution(state)
    pattern = _parse_pattern(args.pattern)
    payload = {
        "command": "fgbs-prob",
        "modes": state.n_modes,
        "pattern": list(pattern),
        "probability": fgbs.probability(dist, pattern),
    }
    return [_json_text(payload)]


def _cmd_fgbs_sample(args):
    from . import fgbs
    from ._text import chunks

    dist = fgbs.build_distribution(_load_state(args.circuit))
    patterns, codes = fgbs._draw(dist, args.shots, args.seed, args.cutoff)
    return chunks(*fgbs._samples_table(patterns, codes))


def _cmd_wigner(args):
    from ._text import chunks
    from .gaussian import _wigner_table

    state = _load_state(args.circuit)
    return chunks(*_wigner_table(state, _parse_grid(args.grid), args.mode))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors take main's one error path (exit 1)."""

    def error(self, message):
        raise ValueError(message)


def _build_parser():
    parser = _Parser(
        prog="tfsim",
        description="Time-frequency single-photon simulator: HOM interference, "
        "phase metrology, Gaussian boson sampling over spectral modes, and "
        "Wigner phase-space maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file (default stdout)")

    hom = sub.add_parser(
        "hom", parents=[out], help="two identical photons through the beam splitter"
    )
    hom.add_argument("--n", type=int, default=1, help="HG order of both input photons")
    hom.set_defaults(handler=_cmd_hom)

    met = sub.add_parser("metrology", parents=[out], help="phase-precision sweep as CSV")
    met.add_argument(
        "--photons", required=True, help="total index N, or an even range like 2..20"
    )
    met.add_argument(
        "--estimator",
        default="fisher",
        help="precision estimator: jz, jz_squared, fisher (default fisher)",
    )
    met.add_argument(
        "--phase",
        type=float,
        default=None,
        help="operating point in (0, pi); omit for the least delta-phi over 181 grid phases",
    )
    met.set_defaults(handler=_cmd_metrology)

    fgbs_parser = sub.add_parser("fgbs", help="Gaussian boson sampling over HG patterns")
    fgbs_sub = fgbs_parser.add_subparsers(dest="fgbs_command", required=True)

    prob = fgbs_sub.add_parser("prob", parents=[out], help="probability of one detection pattern")
    prob.add_argument("--circuit", required=True, help="circuit JSON file")
    prob.add_argument("--pattern", required=True, help="comma-separated mode orders")
    prob.set_defaults(handler=_cmd_fgbs_prob)

    samp = fgbs_sub.add_parser(
        "sample", parents=[out], help="draw seeded detection-pattern samples"
    )
    samp.add_argument("--circuit", required=True, help="circuit JSON file")
    samp.add_argument("--shots", type=int, default=1000, help="number of samples")
    samp.add_argument("--seed", type=int, default=0, help="RNG seed")
    samp.add_argument("--cutoff", type=int, default=8, help="per-mode index cutoff")
    samp.set_defaults(handler=_cmd_fgbs_sample)

    wig = sub.add_parser("wigner", parents=[out], help="single-mode Wigner field as CSV")
    wig.add_argument("--circuit", required=True, help="circuit JSON file")
    wig.add_argument("--mode", type=int, default=0, help="mode to reduce to")
    wig.add_argument(
        "--grid",
        default="-4:4:81,-4:4:81",
        help="grid spec wmin:wmax:count,tmin:tmax:count[,origin]",
    )
    wig.set_defaults(handler=_cmd_wigner)

    return parser


def _emit_error(kind, message, code):
    sys.stderr.write(
        _json_text({"error": {"type": kind, "message": message, "exit_code": code}})
    )
    return code


def _write(texts, path):
    """The one output sink: each text as it comes, to ``path`` (UTF-8, LF) or to stdout."""
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(texts)
        return
    try:
        sys.stdout.writelines(texts)
        sys.stdout.flush()
    except OSError:
        # Stop writing; what stdout still buffers goes to the null device at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        texts = args.handler(args)
    except FileNotFoundError as exc:
        return _emit_error("file-not-found", str(exc), EXIT_FILE_NOT_FOUND)
    except UnknownGateError as exc:
        return _emit_error("unknown-gate", str(exc), EXIT_SCHEMA)
    except SchemaError as exc:
        return _emit_error("schema-violation", str(exc), EXIT_SCHEMA)
    except CostGuardError as exc:
        return _emit_error("cost-guard", str(exc), EXIT_COST_GUARD)
    except InsufficientMassError as exc:
        return _emit_error("insufficient-mass", str(exc), EXIT_INSUFFICIENT_MASS)
    except (TfsimError, ValueError, ArithmeticError, OSError) as exc:
        return _emit_error("error", str(exc), EXIT_ERROR)
    try:
        _write(texts, args.out)
    except OSError as exc:
        return _emit_error("error", str(exc), EXIT_ERROR)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
