"""The one text writer behind every CSV/JSONL table and every ``--out`` file."""

from __future__ import annotations

from itertools import chain, islice

#: Rows formatted per ``%`` call: one flat tuple of all values would cost
#: memory in proportion to the table, a chunk's tuple only to the chunk.
CHUNK_ROWS = 4096


def table_text(header, row_format, rows):
    """``header`` followed by ``row_format % row`` for each row in ``rows``."""
    rows = iter(rows)
    parts = [header]
    while chunk := tuple(islice(rows, CHUNK_ROWS)):
        parts.append((row_format * len(chunk)) % tuple(chain.from_iterable(chunk)))
    return "".join(parts)


def emit(text, path=None):
    """Write ``text`` to ``path`` (UTF-8, LF line ends) when one is given; return it."""
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text
