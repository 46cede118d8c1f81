"""Geometry of the asymmetric-oscillator spectrum.

The spectrum Sigma of x'' + mu x+ - nu x- = 0 with T-periodic boundary
conditions is the union of the coordinate semi-axes (curve index 0) and of
the curves C_j given by (pi/T)(1/sqrt(mu) + 1/sqrt(nu)) = 1/j, each with
vertical asymptote mu = mu_j = (j pi / T)^2 and horizontal asymptote
nu = nu_j = mu_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SpectrumPoint", "eigenvalue", "curve_residual", "sample_curve"]

CURVE_MU_SPAN = 1e6    # sample_curve samples C_j for mu in (mu_j, 1e6 mu_j]


@dataclass(frozen=True)
class SpectrumPoint:
    mu: float
    nu: float
    period: float

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.mu < 0 or self.nu < 0:
            raise ValueError("mu and nu must be nonnegative")


def eigenvalue(j: int, period: float) -> float:
    """mu_j = (j pi / T)^2."""
    if j < 1:
        raise ValueError("j must be a positive integer")
    if period <= 0:
        raise ValueError("period must be positive")
    return (j * math.pi / period) ** 2


def curve_residual(p: SpectrumPoint, j: int) -> float:
    """Signed distance function of C_j in the (mu, nu) quadrant.

    For j >= 1 returns (pi/T)(1/sqrt(mu) + 1/sqrt(nu)) - 1/j, which is
    strictly decreasing in both arguments (positive on the origin side of
    the curve).  For j = 0 returns mu*nu, zero exactly on the semi-axes.
    Infinite mu or nu contribute 0 to the corresponding reciprocal.
    """
    if j == 0:
        return p.mu * p.nu
    if p.mu <= 0 or p.nu <= 0:
        raise ValueError("curve_residual needs mu > 0 and nu > 0 when j >= 1")
    inv_mu = 0.0 if math.isinf(p.mu) else 1.0 / math.sqrt(p.mu)
    inv_nu = 0.0 if math.isinf(p.nu) else 1.0 / math.sqrt(p.nu)
    return (math.pi / p.period) * (inv_mu + inv_nu) - 1.0 / j


def sample_curve(j: int, period: float, n: int = 200):
    """Points (mu, nu) along C_j on a log grid in mu from mu_j out to
    CURVE_MU_SPAN * mu_j, for plotting/CSV."""
    if j == 0:
        return [(0.0, 0.0)]
    mu_j = eigenvalue(j, period)
    mu_max = mu_j * CURVE_MU_SPAN
    pts = []
    for k in range(n):
        mu = mu_j * (mu_max / mu_j) ** ((k + 1) / n)
        inv = period / (math.pi * j) - 1.0 / math.sqrt(mu)
        if inv <= 0:
            continue
        nu = 1.0 / inv ** 2
        pts.append((mu, nu))
    return pts
