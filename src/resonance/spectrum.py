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

__all__ = [
    "SpectrumPoint", "AsymptoticRectangle", "CurveContact",
    "eigenvalue", "curve_residual", "classify", "sample_curve",
    "NONRESONANT", "SIMPLE_RESONANCE", "DOUBLE_RESONANCE",
    "UNBOUNDED_DOUBLE_RESONANCE",
]

NONRESONANT = "nonresonant"
SIMPLE_RESONANCE = "simple_resonance"
DOUBLE_RESONANCE = "double_resonance"
UNBOUNDED_DOUBLE_RESONANCE = "unbounded_double_resonance"

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


@dataclass(frozen=True)
class AsymptoticRectangle:
    """[mu_down, mu_up] x [nu_down, nu_up]; bounds may be math.inf."""

    mu_down: float
    mu_up: float
    nu_down: float
    nu_up: float

    def __post_init__(self):
        if not (0 <= self.mu_down <= self.mu_up):
            raise ValueError("need 0 <= mu_down <= mu_up")
        if not (0 <= self.nu_down <= self.nu_up):
            raise ValueError("need 0 <= nu_down <= nu_up")


@dataclass(frozen=True)
class CurveContact:
    j: int
    kind: str  # "corner_lower" | "corner_upper" | "crossing" | "asymptote"


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
    Infinite mu or nu contribute 0 to the corresponding reciprocal, which
    makes corner tests at infinity exact.
    """
    if j == 0:
        return p.mu * p.nu
    if p.mu <= 0 or p.nu <= 0:
        raise ValueError("curve_residual needs mu > 0 and nu > 0 when j >= 1")
    inv_mu = 0.0 if math.isinf(p.mu) else 1.0 / math.sqrt(p.mu)
    inv_nu = 0.0 if math.isinf(p.nu) else 1.0 / math.sqrt(p.nu)
    return (math.pi / p.period) * (inv_mu + inv_nu) - 1.0 / j


def _max_curve_index(w: AsymptoticRectangle, period: float) -> int:
    """Largest j whose curve can meet the rectangle: the asymptote mu_j must
    sit at or below mu_up (and nu_j at or below nu_up)."""
    hi = min(w.mu_up, w.nu_up)
    if math.isinf(hi):
        hi = max(x for x in (w.mu_up, w.nu_up, w.mu_down, w.nu_down, 1.0)
                 if not math.isinf(x))
        # with an unbounded side the touching curves have index up to the
        # asymptote matching the finite bounds
        return max(1, int(math.ceil(period * math.sqrt(hi) / math.pi)) + 1)
    return max(1, int(math.floor(period * math.sqrt(hi) / math.pi)) + 1)


def classify(w: AsymptoticRectangle, period: float):
    """Contact report of the rectangle against the spectrum.

    Returns (classification, contacts).  The residual of each curve is
    monotone decreasing in (mu, nu), so the rectangle meets curve j exactly
    when the residual is >= 0 at the lower corner and <= 0 at the upper
    corner; equality at a corner is corner-only contact.  When nu_up is
    infinite and both mu bounds sit on consecutive vertical asymptotes the
    rectangle wraps the unbounded strip between them.
    """
    contacts: list[CurveContact] = []
    if w.mu_down == 0.0 or w.nu_down == 0.0:
        # a whole rectangle edge lies on a semi-axis
        contacts.append(CurveContact(0, "crossing"))

    if math.isinf(w.nu_up):
        asymptote_hits = []
        for j in range(1, _max_curve_index(w, period) + 2):
            mu_j = eigenvalue(j, period)
            if abs(w.mu_down - mu_j) <= 1e-12 * max(1.0, mu_j):
                asymptote_hits.append(("down", j))
            if abs(w.mu_up - mu_j) <= 1e-12 * max(1.0, mu_j):
                asymptote_hits.append(("up", j))
        down = [j for side, j in asymptote_hits if side == "down"]
        up = [j for side, j in asymptote_hits if side == "up"]
        if down and up and up[0] == down[0] + 1:
            n = down[0]
            contacts.append(CurveContact(n, "asymptote"))
            contacts.append(CurveContact(n + 1, "asymptote"))
            return UNBOUNDED_DOUBLE_RESONANCE, contacts

    for j in range(1, _max_curve_index(w, period) + 1):
        if w.mu_down <= 0 or w.nu_down <= 0:
            continue  # curve j >= 1 lives strictly inside the open quadrant
        r_low = curve_residual(SpectrumPoint(w.mu_down, w.nu_down, period), j)
        r_high = curve_residual(SpectrumPoint(w.mu_up, w.nu_up, period), j)
        if r_low < 0.0 or r_high > 0.0:
            continue
        if r_low == 0.0:
            contacts.append(CurveContact(j, "corner_lower"))
        elif r_high == 0.0:
            contacts.append(CurveContact(j, "corner_upper"))
        else:
            contacts.append(CurveContact(j, "crossing"))

    if not contacts:
        return NONRESONANT, contacts
    if len(contacts) == 1:
        return SIMPLE_RESONANCE, contacts
    return DOUBLE_RESONANCE, contacts


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
