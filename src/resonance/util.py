"""Shared helpers: CSV emission, quadrature nodes."""

from __future__ import annotations

import csv
import io

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached per order."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def fmt_float(v: float) -> str:
    """17 significant digits: round-trips any IEEE double."""
    return format(float(v), ".17g")


def _csv_line(row) -> str:
    """One row as csv.writer writes it."""
    buf = io.StringIO()
    csv.writer(buf).writerow(row)
    return buf.getvalue()


def write_csv(path, header, rows):
    """Write rows of numbers/strings, floats serialized via fmt_float, byte
    for byte as csv.writer writes them.  A row of Python floats alone is
    formatted by one '%.17g' line template ('%.17g' % v is fmt_float(v)
    for every double, and csv.writer quotes none of them); any other row
    goes through csv.writer.  Lines are written one by one."""
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(header))
        for row in rows:
            if all(type(v) is float for v in row):
                fh.write(",".join(["%.17g"] * len(row)) % tuple(row) + "\r\n")
            else:
                fh.write(_csv_line([fmt_float(v) if isinstance(v, float)
                                    else v for v in row]))
