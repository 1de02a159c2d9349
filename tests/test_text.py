"""The NumPy float formatter and the table writer against Python's own ``%``.

Every float the package prints goes through :func:`tfsim._float_text.float_cells`,
which must give exactly the text of ``"%.17g" % v``: its fast path where it
can certify the rounding, Python's ``%`` for the rest.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from tfsim import _float_text, _text


def reference(values):
    return ("%.17g\n" * values.size) % tuple(values.tolist())


def formatted(values):
    return _text.table_text("", [_text.floats(values), "\n"], values.size)


def assert_same_text(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    got, want = formatted(values), reference(values)
    if got != want:
        pairs = zip(values.tolist(), got.splitlines(), want.splitlines())
        bad = [(v, a, b) for v, a, b in pairs if a != b]
        raise AssertionError(f"{len(bad)} values differ, first {bad[:5]}")


def powers_of_ten_and_neighbours():
    # 1e-330 underflows to 0 and 1e309 overflows to inf: both ends are covered.
    powers = np.array([float(f"1e{k}") for k in range(-330, 310)])
    up, down = [powers], [powers]
    for _ in range(2):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], 0.0))
    values = np.concatenate(up + down)
    return np.concatenate([values, -values])


def exact_ties(rng):
    # odd / 2^p with odd * 5^p of 18 digits ending in 5: 17-digit rounding is a tie.
    ties = []
    for p in range(2, 26):
        lo, hi = -(-(10**17) // 5**p), min(2**53, 10**18 // 5**p)
        odd = 2 * rng.integers(lo // 2, (hi - 1) // 2, size=20) + 1
        ties.append(odd / 2.0**p)
    ties = np.concatenate(ties)
    return np.concatenate([ties, -ties])


SPECIAL = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    1e-280, 1e280, np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf),
    0.1, 0.2, 0.3, 1 / 3, 2 / 3, 1e16, 1e17, 99999999999999984.0, 0.0001, 0.00001,
]


def test_random_bit_patterns_match_python():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    assert_same_text(bits.view(np.float64))


def test_edge_sets_match_python():
    rng = np.random.default_rng(7)
    integers = np.arange(-20_000, 20_000, dtype=np.float64)
    big = 2.0**53 + np.arange(-50, 50)
    dyadic = np.concatenate([np.arange(-4096, 4096) / 1024.0, np.arange(1, 3000) * 2.0**-60])
    wigner_like = np.exp(-rng.uniform(0.0, 700.0, 20_000)) / (2.0 * np.pi)
    subnormal = rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(np.float64)
    assert_same_text(
        np.concatenate([
            SPECIAL, powers_of_ten_and_neighbours(), integers, big, -big, dyadic,
            wigner_like, -wigner_like, subnormal, -subnormal, exact_ties(rng),
        ])
    )


def test_fallback_takes_every_value_the_fast_path_cannot_certify():
    rng = np.random.default_rng(3)
    ties = exact_ties(rng)
    misjudged = [99999999999999984.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]
    out_of_range = [np.inf, -np.inf, np.nan, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]
    hard = np.concatenate([ties, misjudged, out_of_range])
    certified, _, _ = _float_text._decimal(hard)
    assert not certified.any(), hard[certified]
    assert_same_text(hard)

    ordinary = np.concatenate([rng.uniform(-1e6, 1e6, 10_000), rng.standard_normal(10_000)])
    certified, _, _ = _float_text._decimal(ordinary)
    assert certified.mean() > 0.99


def test_int_and_text_columns():
    ints = np.array([0, 7, -7, 10, -10, 99, 100, 12345, -98765, 2**63 - 1, -(2**63)])
    texts = ["a", "", "ω", "fisher"]
    codes = [3, 1, 0, 2, 2]
    row = [_text.ints(ints[:5]), ",", _text.texts(texts, codes), ";"]
    assert _text.table_text("h\n", row, 5) == "h\n0,fisher;7,;-7,a;10,ω;-10,ω;"
    text = _text.table_text("", [_text.ints(ints), "\n"], ints.size)
    assert text == "".join(f"{v}\n" for v in ints.tolist())
    assert _text.table_text("only\n", [_text.floats([])], 0) == "only\n"


def test_table_crosses_chunk_boundaries():
    rng = np.random.default_rng(5)
    n = 2 * _text.CHUNK_ROWS + 17
    values = rng.standard_normal(n)
    axis = np.linspace(-1.0, 1.0, 7)
    row = [_text.ints(np.arange(n)), ",", _text.floats(axis, np.arange(n) % 7), ",",
           _text.floats(values), "\n"]
    want = "".join("%d,%.17g,%.17g\n" % (i, axis[i % 7], v) for i, v in enumerate(values))
    assert _text.table_text("", row, n) == want


def test_chunks_keep_every_character():
    # The header, then one string per CHUNK_ROWS rows; chunks and table_text hold
    # the same characters, multi-byte ones included.
    n = 2 * _text.CHUNK_ROWS + 5
    row = [_text.ints(np.arange(n)), ",", _text.texts(["ω"], np.zeros(n, dtype=int)), "\n"]
    want = "h\n" + "".join(f"{i},ω\n" for i in range(n))
    parts = list(_text.chunks("h\n", row, n))
    assert [part.count("\n") for part in parts] == [1, _text.CHUNK_ROWS, _text.CHUNK_ROWS, 5]
    assert "".join(parts) == want
    assert _text.table_text("h\n", row, n) == want


def test_importing_the_cli_loads_no_formatter():
    # Formatter tables are built on first use, and the formatter module itself is
    # imported then too, so CLI start-up neither compiles nor builds it.
    src = str(Path(_text.__file__).resolve().parents[1])
    code = (
        "import sys, tfsim.cli; from tfsim import _text; "
        "loaded = lambda: ('fractions' in sys.modules, 'tfsim._float_text' in sys.modules); "
        "at_start = loaded(); _text.table_text('', [_text.floats([1.5])], 1); "
        "print(*at_start, *loaded())"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False", "False", "True"]
