"""The one table formatter behind every CSV/JSONL table; it writes nothing.

A table is a header plus rows, and each row is a sequence of pieces: literal
strings and columns (:func:`floats`, :func:`ints`, :func:`texts`). Each
column formats a chunk of rows into a block of bytes, one row of the block
per table row, with a mask marking which bytes are text. :func:`chunks`
stacks the blocks of :data:`CHUNK_ROWS` rows side by side and yields the
masked bytes in row order as one string, so the CLI's one sink, which writes
each chunk as it comes, holds one chunk of the table at a time;
:func:`table_text` grows the chunks into the one string a library writer returns.

Floats are formatted by :mod:`tfsim._float_text`, imported on first use so
that importing the CLI does not compile it.
"""

from __future__ import annotations

import numpy as np

#: Rows per chunk: the byte blocks of one chunk cost memory in proportion to
#: the chunk, not to the table.
CHUNK_ROWS = 8192


def int_cells(values):
    """Right-aligned bytes and mask of ``str(v)`` for each integer value."""
    v = np.asarray(values, dtype=np.int64).ravel()
    negative = v < 0
    magnitude = np.abs(v).view(np.uint64)  # exact for -2^63 too
    digits = len(str(int(magnitude.max(initial=0))))
    chars = np.empty((v.size, digits + 1), dtype=np.uint8)
    count = np.ones(v.size, dtype=np.intp)
    q = magnitude
    for col in range(digits, 0, -1):
        q, r = np.divmod(q, 10)
        chars[:, col] = r + 48
        count += q > 0
    start = digits + 1 - count - negative
    chars[negative, start[negative]] = ord("-")
    return chars, np.arange(digits + 1) >= start[:, None]


def text_cells(strings):
    """Left-aligned UTF-8 bytes and mask of each string."""
    data = [s.encode("utf-8") for s in strings]
    sizes = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
    mask = np.arange(int(sizes.max(initial=0))) < sizes[:, None]
    chars = np.zeros(mask.shape, dtype=np.uint8)
    chars[mask] = np.frombuffer(b"".join(data), dtype=np.uint8)
    return chars, mask


def _column(cells, codes):
    chars, mask = cells
    if codes is None:
        return lambda lo, hi: (chars[lo:hi], mask[lo:hi])
    pick = codes if callable(codes) else lambda lo, hi, codes=np.asarray(codes): codes[lo:hi]

    def column(lo, hi):
        rows = pick(lo, hi)
        return np.take(chars, rows, axis=0), np.take(mask, rows, axis=0)

    return column


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
    return lambda lo, hi: (
        np.broadcast_to(data, (hi - lo, data.size)),
        np.broadcast_to(True, (hi - lo, data.size)),
    )


def chunks(header, row, n_rows):
    """Yield ``header``, then ``n_rows`` rows a chunk of :data:`CHUNK_ROWS` rows at a
    time, each row the concatenation of ``row``'s pieces: literal strings and
    columns from :func:`floats`, :func:`ints` and :func:`texts`."""
    pieces = [_literal(piece) if isinstance(piece, str) else piece for piece in row]
    yield header
    for lo in range(0, n_rows, CHUNK_ROWS):
        blocks = [piece(lo, min(lo + CHUNK_ROWS, n_rows)) for piece in pieces]
        chars = np.concatenate([b[0] for b in blocks], axis=1)
        mask = np.concatenate([b[1] for b in blocks], axis=1)
        yield chars[mask].tobytes().decode("utf-8")


def table_text(header, row, n_rows):
    """The text of :func:`chunks` as one string."""
    text = ""
    for chunk in chunks(header, row, n_rows):
        # CPython grows a string that has one reference in place, so the table
        # is held once, never as chunks plus their join.
        text += chunk
    return text
