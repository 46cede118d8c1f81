"""Hypothesis validation and resonance sign conditions.

Numerical stand-ins for the asymptotic hypotheses on f(t, x): the
one-sided superlinear growth / band confinement checks, the singular-wall
checks (negativity near 0, divergence of f and of its primitive), the two
sign conditions integrating the asymptotic residues f(t,x) - mu_j x
against translated eigenprofiles, and the window-envelope primitive-ratio
uniformity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import FULL_LINE, SINGULAR, NonlinearityModel
from .spectrum import eigenvalue
from .util import gauss_legendre

__all__ = [
    "AsymptoticEnvelope", "LLReport",
    "asymptotic_envelope", "validate_A", "validate_A0_Ainf",
    "phi_truncated", "phi_abs", "ll_integral", "ll_verdict", "check_H",
    "TRUNCATED_SINE", "ABS_SINE",
]

TRUNCATED_SINE = "truncated_sine"
ABS_SINE = "abs_sine"


# ---------------------------------------------------------------------------
# asymptotic envelopes


@dataclass
class AsymptoticEnvelope:
    """Per-t tail estimates of the residue f(t,x) - mu_ref*x (or of f/x)."""

    direction: str              # x_to_plus_inf | x_to_zero_plus | x_to_minus_inf
    mu_ref: float
    t_grid: np.ndarray
    lower: np.ndarray           # liminf estimates, may hold +-inf
    upper: np.ndarray           # limsup estimates
    lower_stabilized: bool
    upper_stabilized: bool
    detail: dict = field(default_factory=dict)

    def lower_fn(self) -> Callable:
        return _periodic_interp(self.t_grid, self.lower)

    def upper_fn(self) -> Callable:
        return _periodic_interp(self.t_grid, self.upper)


def _periodic_interp(t_grid, values):
    period = t_grid[-1] + (t_grid[1] - t_grid[0])
    tg = np.concatenate([t_grid, [period]])
    vg = np.concatenate([values, [values[0]]])

    def fn(t):
        return np.interp(np.mod(t, period), tg, vg)

    return fn


def _tail_estimate(vals: np.ndarray, mode: str):
    """Running inf/sup over the deep tail of a geometric sample ladder.

    The tail starts at a fixed ladder index so that enlarging the ladder
    can only sharpen the estimate (inf never increases, sup never
    decreases).  Returns (estimate, stabilized, diverging) where diverging
    is -1, 0 or +1.
    """
    k = len(vals)
    start = min(8, max(0, k - 4))
    tail = vals[start:]
    agg = np.minimum.accumulate if mode == "inf" else np.maximum.accumulate
    running = agg(tail)
    est = float(running[-1])
    if len(running) >= 4:
        ref = float(running[-4])
        stab = abs(est - ref) <= 1e-4 * (1.0 + abs(est))
    else:
        stab = False
    diverging = 0
    if abs(est) > 1e8:
        half = float(running[len(running) // 2])
        if abs(est) > 1.5 * abs(half):
            diverging = 1 if est > 0 else -1
    # monotone runaway on the side the running extreme cannot see
    if diverging == 0 and len(tail) >= 4:
        if mode == "inf" and np.all(np.diff(tail) > 0) and tail[-1] > 1e6:
            diverging = 1
        if mode == "sup" and np.all(np.diff(tail) < 0) and tail[-1] < -1e6:
            diverging = -1
    return est, stab, diverging


def asymptotic_envelope(model: NonlinearityModel, mu_ref: float,
                        direction: str = "x_to_plus_inf",
                        t_points: int = 128, x0: float = 1.0,
                        k_max: int = 20) -> AsymptoticEnvelope:
    """Estimate per-t liminf/limsup of f(t,x) - mu_ref*x along a 2^k ladder."""
    t_grid = np.linspace(0.0, model.period, t_points, endpoint=False)
    xs = x0 * 2.0 ** np.arange(k_max + 1)
    if direction == "x_to_zero_plus":
        xs = 1.0 / xs
    elif direction == "x_to_minus_inf":
        xs = -xs
    lower = np.empty(t_points)
    upper = np.empty(t_points)
    stab_lo = stab_hi = True
    table = np.empty((len(xs), t_points))
    for i, x in enumerate(xs):
        fv = np.asarray(model.f_over_t(t_grid, float(x)), dtype=float)
        if direction == "x_to_minus_inf":
            table[i] = fv / x          # growth ratio f/x for the superlinear side
        else:
            table[i] = fv - mu_ref * x
    for jt in range(t_points):
        lo, s1, d1 = _tail_estimate(table[:, jt], "inf")
        hi, s2, d2 = _tail_estimate(table[:, jt], "sup")
        lower[jt] = math.inf if d1 > 0 else (-math.inf if d1 < 0 else lo)
        upper[jt] = math.inf if d2 > 0 else (-math.inf if d2 < 0 else hi)
        stab_lo = stab_lo and (s1 or d1 != 0)
        stab_hi = stab_hi and (s2 or d2 != 0)
    return AsymptoticEnvelope(direction, mu_ref, t_grid, lower, upper,
                              stab_lo, stab_hi, detail=dict(x_ladder=xs))


# ---------------------------------------------------------------------------
# hypothesis (A) and its singular counterpart


def _band_constant(model, x_grid, t_grid):
    """Smallest c with mu_N x - c <= f <= mu_N+1 x + c on the sampled grid,
    together with its stability along the grid tail."""
    mu_lo = eigenvalue(model.n_mode, model.period)
    mu_hi = eigenvalue(model.n_mode + 1, model.period)
    c_run = 0.0
    c_prefix = np.empty(len(x_grid))
    for i, x in enumerate(x_grid):
        fv = np.asarray(model.f_over_t(t_grid, float(x)), dtype=float)
        under = float(np.max(mu_lo * x - fv))
        over = float(np.max(fv - mu_hi * x))
        c_run = max(c_run, under, over, 0.0)
        c_prefix[i] = c_run
    c = float(c_prefix[-1])
    ref = float(c_prefix[int(len(x_grid) * 0.75)])
    stable = c <= 1.05 * ref + 1e-9
    return c, stable, c_prefix


def validate_A(model: NonlinearityModel, k_max: int = 6,
               x_max: float = 1e6, t_points: int = 96) -> dict:
    """One-sided superlinear growth at -infinity plus band confinement at
    +infinity: f(t,x)/x must blow up on the left while mu_N x - c <= f(t,x)
    <= mu_N+1 x + c holds on the right with a stable finite c."""
    if model.domain != FULL_LINE:
        raise ValueError("validate_A applies to full-line models")
    t_grid = np.linspace(0.0, model.period, t_points, endpoint=False)
    ratios = []
    for k in range(1, k_max + 1):
        x = -(10.0 ** k)
        fv = np.asarray(model.f_over_t(t_grid, x), dtype=float)
        ratios.append(float(np.min(fv / x)))
    ratios = np.array(ratios)
    increasing = bool(np.all(np.diff(ratios) > 0))
    growth = float(ratios[-1] / max(abs(ratios[len(ratios) // 2]), 1e-300))
    superlinear = increasing and ratios[-1] > 0 and growth >= 2.0

    x_grid = np.geomspace(1e-2, x_max, 240)
    c, stable, c_prefix = _band_constant(model, x_grid, t_grid)

    passed = superlinear and stable
    return dict(passed=passed, superlinear_left=superlinear,
                left_ratios=ratios, band_constant=c, band_stable=stable,
                band_constant_prefix=c_prefix, x_grid=x_grid)


def validate_A0_Ainf(model: NonlinearityModel, delta: float = 1.0,
                     t_points: int = 96, m_max: int = 12) -> dict:
    """Singular-wall checks: f2 < 0 near 0+, f_i -> -inf, primitive integral
    divergent at 0 (strong force), and band confinement for x > 1."""
    if model.domain != SINGULAR:
        raise ValueError("validate_A0_Ainf applies to singular models")
    t_grid = np.linspace(0.0, model.period, t_points, endpoint=False)

    x_small = np.geomspace(1e-6, delta, 160)
    f2_small = np.array([float(np.max(model.f_over_t(t_grid, float(x))))
                         for x in x_small])
    neg_mask = f2_small < 0
    delta_found = 0.0
    for x, ok in zip(x_small, neg_mask):
        if not ok:
            break
        delta_found = float(x)
    negativity = delta_found >= 1e-3

    wall_vals = np.array([float(np.max(model.f_over_t(t_grid, float(2.0 ** -k))))
                          for k in range(0, 16)])
    w = -wall_vals
    wall_divergent = bool(np.all(np.diff(w) > 0) and w[-1] >= 2.0 * w[len(w) // 2]
                          and w[-1] > 0)

    # nested quadrature of the wall primitive on shrinking lower limits
    eps = delta * 4.0 ** -np.arange(1, m_max + 1)
    edges = np.concatenate([eps[::-1], [delta]])
    xs_gl, ws_gl = gauss_legendre(12)
    integrals = {1: [], 2: []}
    cum1 = cum2 = 0.0
    for a, b in zip(edges[-2::-1], edges[:0:-1]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid + half * xs_gl
        p1 = p2 = 0.0
        for xn, wn in zip(nodes, ws_gl):
            fv = np.asarray(model.f_over_t(t_grid, float(xn)), dtype=float)
            p1 += wn * float(np.min(fv))
            p2 += wn * float(np.max(fv))
        cum1 += half * p1
        cum2 += half * p2
        integrals[1].append(cum1)
        integrals[2].append(cum2)
    strong = []
    for i in (1, 2):
        vals = np.abs(np.array(integrals[i]))
        growing = vals[-1] > vals[-3] and (vals[-1] - vals[-3]) > 0.02 * vals[-1]
        strong.append(bool(growing))
    strong_force = all(strong)

    x_grid = np.geomspace(1.0 + 1e-9, 1e6, 240)
    c, stable, _ = _band_constant(model, x_grid, t_grid)

    passed = negativity and wall_divergent and strong_force and stable
    return dict(passed=passed, negativity_near_zero=negativity,
                delta_found=delta_found, wall_divergent=wall_divergent,
                strong_force=strong_force, wall_integrals=integrals,
                band_constant=c, band_stable=stable)


# ---------------------------------------------------------------------------
# sign-condition integrals


def phi_truncated(j: int, period: float):
    """One sine hump on [0, T/j], zero on the rest, extended T-periodically."""
    om = j * math.pi / period

    def phi(s):
        s = np.mod(s, period)
        return np.where(s <= period / j, np.sin(om * s), 0.0)

    return phi


def phi_abs(j: int, period: float):
    om = j * math.pi / period

    def phi(s):
        return np.abs(np.sin(om * np.asarray(s, dtype=float)))

    return phi


def _phi_kinks(j: int, period: float, variant: str, tau: float):
    if variant == TRUNCATED_SINE:
        raw = [(-tau) % period, (period / j - tau) % period]
    else:
        raw = [((m * period / j) - tau) % period for m in range(j)]
    pts = sorted(set([0.0, period] + [r for r in raw if 0.0 < r < period]))
    return pts


def ll_integral(residue: Callable, j: int, period: float, variant: str,
                tau: float, n_panels: int = 64, order: int = 10) -> float:
    """Quadrature of residue(t) * phi_j(t + tau) over one period.

    residue may return +-inf (diverging tails); an infinite residue under
    positive weight makes the whole integral infinite of that sign, and
    conflicting infinities return nan.  The quadrature splits [0, T] at the
    kinks of the translated profile so each panel sees a smooth integrand.
    All panels go into one (panels, order) node array: residue and the
    profile are each evaluated once, and the panel sums are added from left
    to right.
    """
    phi = (phi_truncated if variant == TRUNCATED_SINE else phi_abs)(j, period)
    kinks = _phi_kinks(j, period, variant, tau)
    xs_gl, ws_gl = gauss_legendre(order)
    edges = []
    for a, b in zip(kinks[:-1], kinks[1:]):
        m = max(2, int(round(n_panels * (b - a) / period)))
        edges.append(np.linspace(a, b, m + 1))
    pa = np.concatenate([e[:-1] for e in edges])
    pb = np.concatenate([e[1:] for e in edges])
    mid, half = 0.5 * (pa + pb), 0.5 * (pb - pa)
    nodes = mid[:, None] + half[:, None] * xs_gl
    rv = np.asarray(residue(nodes), dtype=float)
    wv = np.asarray(phi(nodes + tau), dtype=float)
    inf_mask = np.isinf(rv)
    if np.any(inf_mask):
        active = inf_mask & (np.abs(wv) > 1e-12)
        pos, neg = np.any(active & (rv > 0)), np.any(active & (rv < 0))
        if pos and neg:
            return math.nan
        if pos or neg:
            return math.inf if pos else -math.inf
        rv = np.where(inf_mask, 0.0, rv)
    total = 0.0
    for h, s in zip(half.tolist(), np.sum(ws_gl * rv * wv, axis=1).tolist()):
        total += h * s
    return total


@dataclass
class LLReport:
    variant: str
    side: str                   # "lower" (liminf, j=N) | "upper" (limsup, j=N+1)
    j: int
    tau_grid: np.ndarray
    integrals: np.ndarray
    verdict: str                # pass | fail | inconclusive | unreliable
    margin: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _verdict_from(values: np.ndarray, side: str, stabilized: bool,
                  margin_floor: float = 1e-8):
    if np.any(np.isnan(values)):
        return "unreliable", math.nan
    if side == "lower":
        worst = float(np.min(values))
        margin = worst
        ok = worst > 0
    else:
        worst = float(np.max(values))
        margin = -worst
        ok = worst < 0
    if not stabilized:
        return "unreliable", margin
    if not ok:
        return "fail", margin
    if margin < margin_floor:
        return "inconclusive", margin
    return "pass", margin


def ll_verdict(model: NonlinearityModel, n_mode: int | None = None,
               variant: str = TRUNCATED_SINE, tau_points: int = 256,
               t_points: int = 128) -> tuple[LLReport, LLReport]:
    """Evaluate both sign conditions over a tau grid.

    Lower: integrals of the liminf residue against the N-profile must stay
    positive; upper: integrals of the limsup residue against the
    (N+1)-profile must stay negative.  Each tau is one ll_integral call,
    which evaluates the residue envelope once.
    """
    n = model.n_mode if n_mode is None else n_mode
    period = model.period
    env_lo = asymptotic_envelope(model, eigenvalue(n, period),
                                 t_points=t_points)
    env_hi = asymptotic_envelope(model, eigenvalue(n + 1, period),
                                 t_points=t_points)
    tau_grid = np.linspace(0.0, period, tau_points, endpoint=False)
    lo_fn = env_lo.lower_fn()
    hi_fn = env_hi.upper_fn()
    lo_vals = np.array([ll_integral(lo_fn, n, period, variant, float(tau))
                        for tau in tau_grid])
    hi_vals = np.array([ll_integral(hi_fn, n + 1, period, variant, float(tau))
                        for tau in tau_grid])
    v_lo, m_lo = _verdict_from(lo_vals, "lower", env_lo.lower_stabilized)
    v_hi, m_hi = _verdict_from(hi_vals, "upper", env_hi.upper_stabilized)
    return (LLReport(variant, "lower", n, tau_grid, lo_vals, v_lo, m_lo),
            LLReport(variant, "upper", n + 1, tau_grid, hi_vals, v_hi, m_hi))


# ---------------------------------------------------------------------------
# window-envelope primitive ratios (uniform-order-of-infinity checks)


def _window_primitive_checkpoints(model, taus, zetas, x_checks, base, side,
                                  t_samples=33, order=12):
    """F_i at the checkpoints for every cell, integrating the windowed
    envelopes from base.

    Cell c is the time window [taus[c] - zetas[c], taus[c] + zetas[c]].
    The quadrature nodes depend only on the checkpoints, so f is evaluated
    once per node on the windows of all cells together.  side "left": base
    0, checkpoints negative, geometric ladder toward -inf.  side "wall":
    base delta, checkpoints in (0, delta), ladder toward 0+.  Returns
    {checkpoint: (F1, F2)} with one entry per cell in each array.
    """
    t_win = np.linspace(taus - zetas, taus + zetas, t_samples, axis=1).ravel()
    # geometric fill between consecutive checkpoints, ratio <= 2
    full_edges = [base]
    for xc in x_checks:
        prev = full_edges[-1]
        a, b = abs(prev), abs(xc)
        if side == "left":
            a = max(a, 1e-3)
            n_fill = max(2, int(math.ceil(math.log2(b / a))) if b > a else 2)
            fill = np.geomspace(a, b, n_fill + 1)[1:]
            full_edges.extend([-v for v in fill])
        else:
            n_fill = max(2, int(math.ceil(math.log2(a / b))) if a > b else 2)
            fill = np.geomspace(a, b, n_fill + 1)[1:]
            full_edges.extend([v for v in fill])
    xs_gl, ws_gl = gauss_legendre(order)
    f1_acc = f2_acc = np.zeros(len(taus))
    out = {}
    check_iter = iter(x_checks)
    next_check = next(check_iter)
    for a, b in zip(full_edges[:-1], full_edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid + half * xs_gl
        p1 = p2 = 0.0
        for xn, wn in zip(nodes, ws_gl):
            fv = np.asarray(model.f_over_t(t_win, float(xn)),
                            dtype=float).reshape(len(taus), t_samples)
            p1 = p1 + wn * np.min(fv, axis=1)
            p2 = p2 + wn * np.max(fv, axis=1)
        f1_acc = f1_acc + half * p1
        f2_acc = f2_acc + half * p2
        if next_check is not None and math.isclose(b, next_check, rel_tol=1e-12):
            out[next_check] = (f1_acc, f2_acc)
            next_check = next(check_iter, None)
    return out


def check_H(model: NonlinearityModel, direction: str = "x_to_minus_inf",
            zetas=(0.2, 0.1, 0.05), x_scales=(1e2, 1e3, 1e4),
            tau_points: int = 24, pass_tol: float = 0.2) -> dict:
    """Uniformity of the one-sided blow-up order across t.

    For shrinking time windows around each tau the primitives of the
    window envelopes must agree to leading order: their ratio at deep
    checkpoints tends to 1 uniformly in tau exactly when the superlinear
    (or singular) part has the same order for every t.  Verdict: the worst
    deviation at the smallest window must be below pass_tol, must improve
    as the window shrinks, and must not explode along the checkpoints.
    f is evaluated once per quadrature node, on the windows of all
    (zeta, tau) cells at once.
    """
    if direction == "x_to_minus_inf":
        side, base = "left", 0.0
        x_checks = [-float(s) for s in x_scales]
    elif direction == "x_to_zero_plus":
        side, base = "wall", 1.0
        x_checks = [1.0 / float(s) for s in x_scales]
    else:
        raise ValueError("direction must be x_to_minus_inf or x_to_zero_plus")

    period = model.period
    tau_grid = np.linspace(0.0, period, tau_points, endpoint=False)
    zetas = sorted(zetas, reverse=True)

    # cells in (zeta, tau) order, tau varying fastest
    cell_zetas = np.repeat(np.array(zetas, dtype=float), len(tau_grid))
    cell_taus = np.tile(tau_grid, len(zetas))
    prim = _window_primitive_checkpoints(model, cell_taus, cell_zetas,
                                         x_checks, base, side)
    ratios = np.empty((len(cell_taus), len(x_checks)))
    for k, xc in enumerate(x_checks):
        f1v, f2v = prim[xc]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios[:, k] = np.where(f1v != 0.0, f2v / f1v, math.nan)
    ratios = ratios.reshape(len(zetas), len(tau_grid), len(x_checks))
    dev = np.nanmax(np.abs(ratios - 1.0), axis=1)    # (zeta, X)
    if np.any(np.isnan(ratios)):
        dev = np.where(np.isnan(dev), math.inf, dev)

    d_final = float(dev[-1, -1])
    d_first = float(dev[0, -1])
    shrink_ok = d_final <= 0.75 * d_first + 1e-9
    x_stable = d_final <= 1.25 * float(dev[-1, -2]) + 1e-9 if len(x_checks) > 1 else True
    passed = (d_final <= pass_tol) and shrink_ok and x_stable
    return dict(passed=passed, direction=direction, zetas=list(zetas),
                x_checks=x_checks, tau_grid=tau_grid, ratios=ratios,
                deviation_table=dev, worst_final=d_final,
                shrink_ok=shrink_ok, x_stable=x_stable)
