"""Nonlinearity models f(t, x), each compiled from expression trees.

A model comes from one expression, from a piecewise pair glued at a
split point, or from a registered family: an expression template whose
parameters are substituted before parsing, so a family is written once and
its scalar and grid forms are generated from the same trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .spectrum import eigenvalue

FULL_LINE = "full_line"
SINGULAR = "singular"
ENVELOPE_T_POINTS = 96      # t samples per period of the envelope scans
GRID_CELLS = 2 ** 15        # cells of one grid call: 256 KiB of float64


@dataclass(frozen=True)
class NonlinearityModel:
    """A T-periodic nonlinearity f(t, x) with its working metadata.

    f is the scalar fast path used inside integrator loops; f_tarr is the
    grid form of f, used by every scan over t: f_tarr(t, x) takes an
    array of times t and an array of x, a number being a 0-d one, and
    gives one column of values over t per x in an array of shape
    x.shape + t.shape (expr.compile_grid: one generated body per tree).
    domain is "full_line" (x ranges over all reals) or "singular" (x > 0
    with a wall at 0).  n_mode is the declared integer N placing the
    linear band [mu_N, mu_N+1] at +infinity.  trees holds the expression
    trees f was compiled from: one, or a left/right pair glued at
    split_point(domain).
    A model built from callables alone, without f_tarr, serves the
    integrator only.
    """

    f: Callable[[float, float], float]
    period: float
    domain: str = FULL_LINE
    n_mode: int = 1
    f_tarr: Optional[Callable] = None
    trees: tuple = ()

    def f_over_t(self, t_grid: np.ndarray, x: float) -> np.ndarray:
        """f at each time of t_grid at one x: the grid at a 0-d x."""
        return self.f_tarr(t_grid, float(x))

    def grid_map(self, xs, t_grid: np.ndarray, fn) -> list:
        """fn of f on t_grid and each consecutive chunk of xs, one f_tarr
        call per chunk: n x of at most GRID_CELLS cells together, and one
        x at least.  Only fn's result outlives its chunk."""
        xs = np.asarray(xs, dtype=float)
        step = max(1, GRID_CELLS // np.size(t_grid))
        return [fn(self.f_tarr(t_grid, xs[start:start + step]))
                for start in range(0, xs.size, step)]

    def t_envelope(self, xs, t_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The t-envelopes f1 = min_t f and f2 = max_t f at each x of xs,
        one grid call per chunk of xs (grid_map).  A 2-D t_grid holds one
        time window per row, and f1[i], f2[i] then hold one value per
        window."""
        chunks = self.grid_map(xs, np.asarray(t_grid, dtype=float),
                               lambda fv: (fv.min(axis=-1), fv.max(axis=-1)))
        f1, f2 = (np.concatenate(part) for part in zip(*chunks))
        return f1, f2


def periodic_grid(period: float, n: int) -> np.ndarray:
    """n evenly spaced times on [0, period): the grid of every scan over t."""
    return np.linspace(0.0, period, n, endpoint=False)


def split_point(domain: str) -> float:
    """Where a piecewise pair is glued: 0 on the full line, 1 in singular mode."""
    return 0.0 if domain == FULL_LINE else 1.0


def from_trees(trees: tuple, period: float, domain: str = FULL_LINE,
               n_mode: int = 1) -> NonlinearityModel:
    """The model compiled from one expression tree, or from a left/right
    pair glued at split_point(domain), the left one strictly below it:
    its scalar and grid forms are generated from the same trees."""
    split = split_point(domain)
    return NonlinearityModel(
        f=ex.compile_scalar(*trees, split=split), period=period,
        domain=domain, n_mode=n_mode,
        f_tarr=ex.compile_grid(*trees, split=split), trees=tuple(trees))


def from_expression(source: str, period: float, domain: str = FULL_LINE,
                    n_mode: int = 1) -> NonlinearityModel:
    return from_trees((ex.parse(source),), period, domain, n_mode)


def from_piecewise(left_src: str, right_src: str, period: float,
                   domain: str = FULL_LINE,
                   n_mode: int = 1) -> NonlinearityModel:
    """Two expressions glued at split_point(domain), the left one strictly
    below it; continuity is the user's responsibility."""
    return from_trees((ex.parse(left_src), ex.parse(right_src)), period,
                      domain, n_mode)


def _fill(template: str, **values) -> str:
    """Substitute numbers into a template as parenthesised reprs, so every
    value, negative ones included, parses back to the same double."""
    return template.format(**{k: f"({float(v)!r})" for k, v in values.items()})


# Each template rounds exactly like the closed form it spells out, whose
# bits the integrator's golden records pin: x^3 is written x*x*x and s^2 is
# s*s, because pow rounds differently from products.
_CUBIC_LEFT = "x*x*x + {forcing}*cos({om}*t)"
# mu_N x + ramp(x) (lift + (dmu x - lift - drop) chi(x)): chi swings between
# 0 and 1 on a log scale, so f/x keeps visiting both band edges and the
# residues settle at +lift (lower edge) and -drop (upper edge)
_BAND_RIGHT = ("{mu_lo}*x + x*x/(1 + x*x)*({lift} + ({dmu}*x - {lift} - {drop})"
               "*(0.5*(1 - cos({pi}*log2(1 + x))))) + {forcing}*cos({om}*t)")
_MIDBAND_RIGHT = ("{mu_mid}*x + x*x/(1 + x*x)*0.5*({lift} - {drop})"
                  " + {forcing}*cos({om}*t)")
_EDGE_RIGHT = "{mu_hi}*x + x*x/(1 + x*x)*{offset} + {forcing}*cos({om}*t)"
_LINEAR = "{mu}*x + {forcing}*cos({mom}*t)"
_SINGULAR_WALL = ("{mu_mid}*x - (1 + {wobble}*sin({om}*t)*sin({om}*t))/x^5"
                  " - 1/x^3")


def make_cubic_band(period: float = 2 * math.pi, n_mode: int = 2,
                    forcing: float = 0.5, lift: float = 1.0, drop: float = 1.0,
                    oscillating: bool = True) -> NonlinearityModel:
    """Superlinear (cubic) left side, band-limited right side, bounded forcing.

    Right side stays between mu_N x - c and mu_N+1 x + c; with
    oscillating=True it keeps touching both edges so the residues at
    +infinity are exactly +lift / -drop.  With oscillating=False the right
    side is the midline slope (strictly inside the band).
    """
    mu_lo = eigenvalue(n_mode, period)
    mu_hi = eigenvalue(n_mode + 1, period)
    values = dict(forcing=forcing, lift=lift, drop=drop, om=2 * math.pi / period)
    if oscillating:
        right = _fill(_BAND_RIGHT, mu_lo=mu_lo, dmu=mu_hi - mu_lo, pi=math.pi,
                      **values)
    else:
        right = _fill(_MIDBAND_RIGHT, mu_mid=0.5 * (mu_lo + mu_hi), **values)
    return from_piecewise(_fill(_CUBIC_LEFT, **values), right, period,
                          FULL_LINE, n_mode)


def make_resonant_edge(period: float = 2 * math.pi, n_mode: int = 2,
                       offset: float = 1.0,
                       forcing: float = 0.5) -> NonlinearityModel:
    """Cubic left side, right side pinned to the upper band edge mu_N+1 with a
    positive residue: the sign condition against the (N+1)-profile fails."""
    values = dict(forcing=forcing, om=2 * math.pi / period)
    right = _fill(_EDGE_RIGHT, mu_hi=eigenvalue(n_mode + 1, period),
                  offset=offset, **values)
    return from_piecewise(_fill(_CUBIC_LEFT, **values), right, period,
                          FULL_LINE, n_mode)


def make_linear_resonant(period: float = 2 * math.pi, n_mode: int = 3,
                         forcing: float = 1.0) -> NonlinearityModel:
    """f = (2 pi m / T)^2 x + forcing cos(2 pi m t / T) with m = (N + 1)/2,
    so N is odd: the forcing pumps the eigenmode, so no T-periodic solution
    exists at all (the textbook obstruction case)."""
    if n_mode % 2 == 0:
        raise ValueError(f"linear_resonant pumps mode m = (N + 1)/2, so N must "
                         f"be odd; got N = {n_mode}")
    mom = (n_mode + 1) // 2 * (2 * math.pi / period)
    return from_expression(_fill(_LINEAR, mu=mom ** 2, forcing=forcing, mom=mom),
                           period, FULL_LINE, n_mode)


def make_singular_band(period: float = 2 * math.pi, n_mode: int = 2,
                       wobble: float = 1.0) -> NonlinearityModel:
    """Attractive wall -(1 + wobble sin^2 t) x^-5 - x^-3 plus a midband linear
    tail: repulsive strong singularity at 0, linear band growth at infinity."""
    mu_mid = 0.5 * (eigenvalue(n_mode, period) + eigenvalue(n_mode + 1, period))
    source = _fill(_SINGULAR_WALL, mu_mid=mu_mid, wobble=wobble,
                   om=2 * math.pi / period)
    return from_expression(source, period, SINGULAR, n_mode)


FAMILIES = {
    "cubic_band": make_cubic_band,
    "resonant_edge": make_resonant_edge,
    "linear_resonant": make_linear_resonant,
    "singular_band": make_singular_band,
}


def from_family(family: str, period: float, n_mode: int, params: dict | None = None,
                ) -> NonlinearityModel:
    if family not in FAMILIES:
        raise KeyError(f"unknown model family {family!r}; known: {sorted(FAMILIES)}")
    return FAMILIES[family](period=period, n_mode=n_mode, **(params or {}))
