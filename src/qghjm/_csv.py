"""The one CSV row format of the package's data files."""

from __future__ import annotations

from typing import TextIO

import numpy as np

_CHUNK = 4096


def write_rows(fh: TextIO, header: str, rows) -> None:
    """Write the header line, then one line per row with every value as
    %.17g, which round-trips floats exactly and prints integers below 2**53
    in full. Rows are formatted a chunk at a time."""
    fh.write(header + "\n")
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        return
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for i in range(0, len(rows), _CHUNK):
        chunk = rows[i:i + _CHUNK]
        fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
