"""Shared helpers: CSV emission, quadrature nodes."""

from __future__ import annotations

import csv

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


def write_csv(path, header, rows):
    """Write rows of numbers/strings; floats serialized via fmt_float."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt_float(v) if isinstance(v, float) else v for v in row])
