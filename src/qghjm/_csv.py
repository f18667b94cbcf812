"""The one CSV row format of the package's data files."""

from __future__ import annotations

from typing import TextIO

import numpy as np

CHUNK = 4096  # rows formatted at a time


def write_rows(fh: TextIO, header: str, rows) -> None:
    """Write the header line, then the rows as append_rows does."""
    fh.write(header + "\n")
    append_rows(fh, rows)


def append_rows(fh: TextIO, rows) -> None:
    """Write one line per row with every value as %.17g, which round-trips
    floats exactly and prints integers below 2**53 in full. Rows are
    formatted CHUNK at a time."""
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        return
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for i in range(0, len(rows), CHUNK):
        chunk = rows[i:i + CHUNK]
        fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
