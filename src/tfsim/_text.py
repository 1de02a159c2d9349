"""The one table formatter behind every CSV/JSONL table; it writes nothing.

A table is a header plus rows, and each row is a sequence of pieces: literal
strings and columns (:func:`floats`, :func:`ints`, :func:`texts`). Each
column formats a chunk of rows into a block of bytes, one row of the block
per table row, each cell padded to the block's width with NUL bytes, so no
text may contain NUL. :func:`chunks` stacks the blocks of :data:`CHUNK_ROWS`
rows side by side and yields their bytes in row order, the NULs deleted, as
one string, so the CLI's one sink, which writes each chunk as it comes, holds
one chunk of the table at a time; :func:`table_text` grows the chunks into the
one string a library writer returns.

Floats are formatted by :mod:`tfsim._float_text`, imported on first use so
that importing the CLI does not compile it.
"""

from __future__ import annotations

import numpy as np

#: Rows per chunk: the byte blocks of one chunk cost memory in proportion to
#: the chunk, not to the table.
CHUNK_ROWS = 8192


def int_cells(values):
    """NUL-padded bytes of ``str(v)`` for each integer value, the sign in column 0."""
    v = np.asarray(values, dtype=np.int64).ravel()
    magnitude = np.abs(v).view(np.uint64)  # exact for -2^63 too
    digits = len(str(int(magnitude.max(initial=0))))
    chars = np.zeros((v.size, digits + 1), dtype=np.uint8)
    chars[:, 0] = (v < 0) * ord("-")
    q, units = np.divmod(magnitude, 10)
    chars[:, digits] = units + 48
    for col in range(digits - 1, 0, -1):
        shown = q > 0  # no leading zeros
        q, r = np.divmod(q, 10)
        chars[:, col] = (r + 48) * shown
    return chars


def text_cells(strings):
    """NUL-padded UTF-8 bytes of each string."""
    data = [s.encode("utf-8") for s in strings]
    width = max(map(len, data), default=0)
    cells = b"".join(d.ljust(width, b"\0") for d in data)
    return np.frombuffer(cells, dtype=np.uint8).reshape(len(data), width)


def _column(chars, codes):
    if codes is None:
        return lambda lo, hi: chars[lo:hi]
    pick = codes if callable(codes) else lambda lo, hi, codes=np.asarray(codes): codes[lo:hi]
    return lambda lo, hi: np.take(chars, pick(lo, hi), axis=0)


def floats(values, codes=None):
    """Column of float texts: row i shows values[i], or values[codes[i]] when
    ``codes`` is given, so each distinct value is formatted once. ``codes`` is an
    array, or a function of (lo, hi) giving the codes of rows lo..hi-1."""
    from ._float_text import float_cells  # on first use, see the module docstring

    if codes is not None:
        return _column(float_cells(values), codes)
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    return lambda lo, hi: float_cells(values[lo:hi])


def ints(values):
    """Column of ``str(int)`` texts, one per row."""
    values = np.asarray(values, dtype=np.int64).ravel()
    return lambda lo, hi: int_cells(values[lo:hi])


def texts(strings, codes=None):
    """Column of strings: row i shows strings[i], or strings[codes[i]] (as in :func:`floats`)."""
    return _column(text_cells(strings), codes)


def _literal(text):
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    return lambda lo, hi: np.broadcast_to(data, (hi - lo, data.size))


def chunks(header, row, n_rows):
    """Yield ``header``, then ``n_rows`` rows a chunk of :data:`CHUNK_ROWS` rows at a
    time, each row the concatenation of ``row``'s pieces: literal strings and
    columns from :func:`floats`, :func:`ints` and :func:`texts`."""
    pieces = [_literal(piece) if isinstance(piece, str) else piece for piece in row]
    yield header
    for lo in range(0, n_rows, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n_rows)
        chars = np.concatenate([piece(lo, hi) for piece in pieces], axis=1)
        yield chars.tobytes().translate(None, b"\0").decode("utf-8")


def table_text(header, row, n_rows):
    """The text of :func:`chunks` as one string."""
    text = ""
    for chunk in chunks(header, row, n_rows):
        # CPython grows a string that has one reference in place, so the table
        # is held once, never as chunks plus their join.
        text += chunk
    return text
