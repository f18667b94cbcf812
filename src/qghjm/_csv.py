"""The one CSV row format of the package's data files."""

from __future__ import annotations

from typing import Iterable, TextIO


def write_rows(fh: TextIO, header: str, rows: Iterable) -> None:
    """Write the header line, then one line per row with every value as
    %.17g, which round-trips floats exactly and prints integers in full."""
    fh.write(header + "\n")
    for row in rows:
        fh.write(",".join(format(v, ".17g") for v in row) + "\n")
