"""The one CSV format every table of the package is written in.

A cell holds a float by ``repr`` (so it round-trips exactly), a bool as
``true``/``false``, ``None`` as an empty cell, a list as its cells
joined with ``;``, and anything else by ``str``. A table whose rows
are dataclasses takes its columns from the field names, in declaration
order.
"""
from __future__ import annotations

import csv
from dataclasses import fields


def columns(row_type) -> tuple:
    """Field names of a row dataclass, in declaration order."""
    return tuple(f.name for f in fields(row_type))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain float: numpy 2 scalars repr as np.float64(...)
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    return str(value)


def write_csv(path: str, header, rows) -> None:
    """Write a header line, then one line per row of cell values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
