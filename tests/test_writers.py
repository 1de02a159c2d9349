"""Byte-for-byte pins of every CSV/JSONL/JSON text the package writes.

Each reference below is the plain per-row f-string or ``json.dumps`` loop
that defines the output format, so any writer that changes a single byte
(a digit, a sign of zero, ``inf``, a separator, the trailing newline) fails.
Several tables are larger than a few thousand rows, so a writer that works
in chunks has to cross chunk boundaries to pass.
"""

import io
import json
import sys
import tracemalloc

import numpy as np

from tfsim import circuit as ct
from tfsim import cli, fgbs
from tfsim._text import CHUNK_ROWS
from tfsim import gaussian as g
from tfsim import metrology as mt
from tfsim import twophoton as tp

WIDE_WIGNER = g.PhaseSpaceGrid(-3.0, 4.0, 101, -2.5, 2.5, 103, origin=0.75)

DISPLACED_2 = {
    "modes": 2,
    "inputs": [
        {"type": "gaussian", "width": 1.3},
        {"type": "gaussian", "width": 1.0},
    ],
    "ops": [
        {"gate": "fbs", "targets": [0, 1]},
        {"gate": "frft", "targets": [1], "params": {"phi": 0.4}},
        {"gate": "displace", "targets": [1], "params": {"omega0": 0.6, "t0": -0.3}},
    ],
}

SQUEEZED_2 = {
    "modes": 2,
    "inputs": [
        {"type": "gaussian", "width": 1.4},
        {"type": "gaussian", "width": 1.0},
    ],
    "ops": [{"gate": "fbs", "targets": [0, 1]}],
}


def ref_wigner_csv(grid, field):
    lines = ["omega,t,value"]
    for i, w in enumerate(grid.omega_axis):
        for j, t in enumerate(grid.t_axis):
            lines.append(f"{w:.17g},{t:.17g},{field[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def ref_sweep_csv(rows):
    lines = ["n_photons,phi,estimator,delta_phi"]
    for n_total, phi, estimator, value in rows:
        lines.append(f"{n_total},{phi:.17g},{estimator},{float(value):.17g}")
    return "\n".join(lines) + "\n"


def ref_jsa_csv(jsa):
    lines = ["n,m,re,im"]
    for n in range(jsa.cutoff + 1):
        for m in range(jsa.cutoff + 1):
            c = jsa.coeffs[n, m]
            lines.append(f"{n},{m},{c.real:.17g},{c.imag:.17g}")
    return "\n".join(lines) + "\n"


def ref_probability_csv(dist, cutoff):
    lines = ["pattern,probability"]
    for pat in np.ndindex(*(cutoff + 1,) * dist.n_modes):
        p = max(fgbs.probability(dist, pat), 0.0)
        lines.append(f"{';'.join(map(str, pat))},{p:.17g}")
    return "\n".join(lines) + "\n"


def ref_jsonl(samples):
    lines = [
        json.dumps({"shot": i, "pattern": list(map(int, p))}, sort_keys=True)
        for i, p in enumerate(samples)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_circuit(tmp_path, doc):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_doc(doc):
    return ct.run_circuit(ct.parse_circuit(json.dumps(doc)))


def test_wigner_csv_bytes_with_origin_across_chunks():
    state = run_doc(DISPLACED_2)
    for mode in (0, 1):
        field = g.wigner_eval(state, WIDE_WIGNER, mode=mode)
        assert field.size > 10_000
        assert g.wigner_csv_text(state, WIDE_WIGNER, mode=mode) == ref_wigner_csv(
            WIDE_WIGNER, field
        )


def test_wigner_csv_bytes_small_grid():
    state = g.apply(g.vacuum_state(1), "scale", (0,), s=1.2)
    grid = g.PhaseSpaceGrid(-2, 2, 5, -3, 3, 7, origin=-0.25)
    text = g.wigner_csv_text(state, grid)
    assert text == ref_wigner_csv(grid, g.wigner_eval(state, grid))


def test_sweep_csv_bytes_with_inf_row():
    rows = mt.precision_sweep((2, 4, 6), "fisher")
    rows += mt.precision_sweep((2, 4), "jz", phi=0.8)
    rows += mt.precision_sweep((4,), "jz_squared", phi=1.1)
    text = mt.sweep_csv_text(rows)
    assert ",jz,inf\n" in text
    assert text == ref_sweep_csv(rows)


def test_jsa_csv_bytes_signed_zero_and_negative_imaginary(tmp_path):
    coeffs = np.array(
        [
            [complex(0.6, -0.0), complex(-0.0, -0.3)],
            [complex(0.2, 0.0), complex(-0.1, -1e-300)],
        ]
    )
    small = tp.JointSpectralAmplitude(coeffs=coeffs)
    rng = np.random.default_rng(4)
    c = rng.standard_normal((71, 71)) + 1j * rng.standard_normal((71, 71))
    c /= np.sqrt(np.sum(np.abs(c) ** 2))
    c[::3, ::2] = c[::3, ::2].real - 0.0j  # signed-zero imaginary parts
    c[1::3, ::5] = complex(-0.0, -0.0)
    large = tp.JointSpectralAmplitude(coeffs=c)
    texts = {}
    for name, jsa in (("small", small), ("large", large)):
        path = tmp_path / f"{name}.csv"
        tp.jsa_to_csv(jsa, path)
        texts[name] = path.read_bytes().decode("utf-8")
        assert texts[name] == ref_jsa_csv(jsa)
    assert texts["small"] == (
        "n,m,re,im\n"
        "0,0,0.59999999999999998,-0\n"
        "0,1,-0,-0.29999999999999999\n"
        "1,0,0.20000000000000001,0\n"
        "1,1,-0.10000000000000001,-1e-300\n"
    )


def test_probability_table_csv_bytes(tmp_path):
    dist = fgbs.build_distribution(run_doc(SQUEEZED_2))
    path = tmp_path / "table.csv"
    text = fgbs.probability_table_csv(dist, cutoff=4, path=path)
    assert text == ref_probability_csv(dist, 4)
    assert path.read_bytes().decode("utf-8") == text


def test_samples_jsonl_bytes(tmp_path):
    assert fgbs.samples_to_jsonl([]) == ref_jsonl([]) == ""
    one_mode = [(3,), (0,), (12,), (0,)]
    assert fgbs.samples_to_jsonl(one_mode) == ref_jsonl(one_mode)
    numpy_ints = [(np.int64(2), np.int64(0)), (np.int32(1), np.int64(10))]
    assert fgbs.samples_to_jsonl(numpy_ints) == ref_jsonl(numpy_ints)

    dist = fgbs.build_distribution(run_doc(SQUEEZED_2))
    samples = fgbs.sample(dist, shots=10_000, rng_seed=3, cutoff=6)
    path = tmp_path / "samples.jsonl"
    text = fgbs.samples_to_jsonl(samples, path=path)
    assert text == ref_jsonl(samples)
    assert path.read_bytes().decode("utf-8") == text


def test_cli_hom_stdout_bytes(capsys):
    for n in (0, 3):
        assert cli.main(["hom", "--n", str(n)]) == 0
        jsa = tp.hom_output(n)
        payload = {
            "command": "hom",
            "n": n,
            "coincidence": {
                "n": n,
                "m": n,
                "probability": tp.coincidence_probability(jsa, n, n),
            },
            "marginal_a": tp.mode_marginal(jsa, "a").tolist(),
            "marginal_b": tp.mode_marginal(jsa, "b").tolist(),
            "cutoff": jsa.cutoff,
        }
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected


def test_cli_metrology_stdout_bytes(capsys):
    assert cli.main(["metrology", "--photons", "2..10"]) == 0
    expected = ref_sweep_csv(mt.precision_sweep(range(2, 11, 2), "fisher"))
    assert capsys.readouterr().out == expected

    assert cli.main(["metrology", "--photons", "4", "--estimator", "jz", "--phase", "0.8"]) == 0
    expected = ref_sweep_csv(mt.precision_sweep((4,), "jz", phi=0.8))
    assert capsys.readouterr().out == expected


def assert_streamed_bytes(argv, want, tmp_path, capsys):
    """The CLI's stdout and its --out file both hold exactly ``want``."""
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
    target = tmp_path / "table.out"
    assert cli.main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == want.encode("utf-8")


def test_cli_fgbs_sample_stdout_bytes(tmp_path, capsys):
    path = write_circuit(tmp_path, SQUEEZED_2)
    args = ["fgbs", "sample", "--circuit", path, "--shots", "5000", "--seed", "7", "--cutoff", "6"]
    assert cli.main(args) == 0
    dist = fgbs.build_distribution(run_doc(SQUEEZED_2))
    assert capsys.readouterr().out == ref_jsonl(fgbs.sample(dist, 5000, 7, 6))
    # Streamed over three chunks of the table writer.
    shots = 2 * CHUNK_ROWS + 1000
    args = ["fgbs", "sample", "--circuit", path, "--shots", str(shots), "--seed", "11",
            "--cutoff", "6"]
    assert_streamed_bytes(args, ref_jsonl(fgbs.sample(dist, shots, 11, 6)), tmp_path, capsys)


def test_cli_wigner_stdout_bytes(tmp_path, capsys):
    path = write_circuit(tmp_path, DISPLACED_2)
    assert cli.main(
        ["wigner", "--circuit", path, "--mode", "1", "--grid=-3:4:101,-2.5:2.5:103,0.75"]
    ) == 0
    field = g.wigner_eval(run_doc(DISPLACED_2), WIDE_WIGNER, mode=1)
    assert capsys.readouterr().out == ref_wigner_csv(WIDE_WIGNER, field)
    # Streamed over three chunks of the table writer.
    grid = g.PhaseSpaceGrid(-3.0, 4.0, 131, -2.5, 2.5, 137, origin=0.75)
    assert grid.omega_count * grid.t_count > 2 * CHUNK_ROWS
    field = g.wigner_eval(run_doc(DISPLACED_2), grid, mode=1)
    args = ["wigner", "--circuit", path, "--mode", "1", "--grid=-3:4:131,-2.5:2.5:137,0.75"]
    assert_streamed_bytes(args, ref_wigner_csv(grid, field), tmp_path, capsys)


class ByteCount(io.TextIOBase):
    """A text sink that keeps only the number of UTF-8 bytes written to it."""

    size = 0

    def write(self, text):
        self.size += len(text.encode("utf-8"))
        return len(text)


def test_cli_wigner_holds_one_chunk_not_the_table(tmp_path, monkeypatch):
    # 801 x 801 rows are 39 MB of CSV; streamed, the traced peak is the 5 MB
    # field plus one chunk, where a table held whole would pass 40 MB.
    path = write_circuit(tmp_path, DISPLACED_2)
    argv = ["wigner", "--circuit", path, "--mode", "1"]
    sink = ByteCount()
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main([*argv, "--grid=-1:1:3,-1:1:3"]) == 0  # formatter loaded and built
    sink.size = 0
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--grid=-7:7:801,-7:7:801"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 39_000_000
    assert peak < 24_000_000
