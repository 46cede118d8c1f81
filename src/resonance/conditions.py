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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (ENVELOPE_T_POINTS, FULL_LINE, SINGULAR, NonlinearityModel,
                    periodic_grid)
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

RESIDUE_T_POINTS = 128      # t samples of the liminf/limsup residue tables
A_LEFT_DECADES = 6          # validate_A: f/x at x = -10^k, k = 1..6
BAND_X_MAX = 1e6            # band-constant scans end here ...
BAND_X_POINTS = 240         # ... after this many geometric samples
WALL_DELTA = 1.0            # validate_A0_Ainf: the wall region is (0, delta]
WALL_PANELS = 12            # wall primitive panels [delta 4^-m, delta 4^-m+1]
ENVELOPE_GL_ORDER = 12      # Gauss-Legendre nodes per envelope-primitive panel
LL_PANELS = 64              # ll_integral: panels per period ...
LL_ORDER = 10               # ... and Gauss-Legendre nodes per panel
LL_MARGIN_FLOOR = 1e-8      # a smaller sign-condition margin is inconclusive
H_ZETAS = (0.2, 0.1, 0.05)  # check_H: window half-widths, widest first
H_X_SCALES = (1e2, 1e3, 1e4)  # check_H: checkpoint distances from the base
H_TAU_POINTS = 24           # check_H: window centres per period
H_WINDOW_T_POINTS = 33      # check_H: t samples per window
H_PASS_TOL = 0.2            # check_H: largest passing final ratio deviation


# ---------------------------------------------------------------------------
# asymptotic envelopes


@dataclass
class AsymptoticEnvelope:
    """Per-t tail estimates of the residue f(t,x) - mu_ref*x as x -> +inf."""

    mu_ref: float
    t_grid: np.ndarray
    lower: np.ndarray           # liminf estimates, may hold +-inf
    upper: np.ndarray           # limsup estimates
    lower_stabilized: bool
    upper_stabilized: bool


def _periodic_interp(t_grid, values):
    """t -> values interpolated linearly on the periodic grid t_grid."""
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
    decreases).  Returns (estimate, settled): a diverging tail estimates
    +-inf and counts as settled.
    """
    start = min(8, max(0, len(vals) - 4))
    tail = vals[start:]
    agg = np.minimum.accumulate if mode == "inf" else np.maximum.accumulate
    running = agg(tail)
    est = float(running[-1])
    stab = (len(running) >= 4
            and abs(est - float(running[-4])) <= 1e-4 * (1.0 + abs(est)))
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
    if diverging:
        return math.copysign(math.inf, diverging), True
    return est, stab


def asymptotic_envelope(model: NonlinearityModel, mu_ref: float,
                        k_max: int = 20) -> AsymptoticEnvelope:
    """Estimate per-t liminf/limsup of f(t,x) - mu_ref*x along the ladder
    x = 2^k, k = 0..k_max, at RESIDUE_T_POINTS times per period."""
    t_grid = periodic_grid(model.period, RESIDUE_T_POINTS)
    xs = 2.0 ** np.arange(k_max + 1)
    table = np.array([model.f_over_t(t_grid, float(x)) for x in xs],
                     dtype=float) - mu_ref * xs[:, None]
    lower, upper = np.empty(RESIDUE_T_POINTS), np.empty(RESIDUE_T_POINTS)
    stab_lo = stab_hi = True
    for jt in range(RESIDUE_T_POINTS):
        lower[jt], s1 = _tail_estimate(table[:, jt], "inf")
        upper[jt], s2 = _tail_estimate(table[:, jt], "sup")
        stab_lo = stab_lo and s1
        stab_hi = stab_hi and s2
    return AsymptoticEnvelope(mu_ref, t_grid, lower, upper, stab_lo, stab_hi)


# ---------------------------------------------------------------------------
# hypothesis (A) and its singular counterpart


def _band_constant(model, x_lo, t_grid):
    """Smallest c with mu_N x - c <= f <= mu_N+1 x + c on BAND_X_POINTS
    geometric samples of [x_lo, BAND_X_MAX], together with its stability
    along the grid tail and its running prefix."""
    mu_lo = eigenvalue(model.n_mode, model.period)
    mu_hi = eigenvalue(model.n_mode + 1, model.period)
    x_grid = np.geomspace(x_lo, BAND_X_MAX, BAND_X_POINTS)
    f1, f2 = model.t_envelope(x_grid, t_grid)
    # max_t (mu_lo x - f) = mu_lo x - f1 and max_t (f - mu_hi x) = f2 - mu_hi x
    # exactly, since rounding is monotone; fmax skips a nan sample
    c_prefix = np.maximum.accumulate(
        np.fmax(np.fmax(mu_lo * x_grid - f1, f2 - mu_hi * x_grid), 0.0))
    c = float(c_prefix[-1])
    ref = float(c_prefix[int(BAND_X_POINTS * 0.75)])
    stable = c <= 1.05 * ref + 1e-9
    return c, stable, c_prefix


def _envelope_panels(model, lo, hi, t_grid):
    """Running Gauss-Legendre integrals (F1, F2) of f1 and f2 over the
    panels [lo[k], hi[k]]: row k sums panels 0..k.

    Each panel maps its ENVELOPE_GL_ORDER nodes as given (hi < lo runs
    backwards); the nodes are summed in order, then the panels from the
    first on.  A 2-D t_grid gives one column per time window.
    """
    xs_gl, ws_gl = gauss_legendre(ENVELOPE_GL_ORDER)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * xs_gl
    f1, f2 = model.t_envelope(nodes.ravel(), t_grid)
    f = np.stack([f1, f2]).reshape((2,) + nodes.shape + f1.shape[1:])
    p = 0.0
    for k, wn in enumerate(ws_gl):
        p = p + wn * f[:, :, k]
    F, acc = np.empty_like(p), 0.0
    for k, h in enumerate(half):
        acc = acc + h * p[:, k]
        F[:, k] = acc
    return F[0], F[1]


def validate_A(model: NonlinearityModel) -> dict:
    """One-sided superlinear growth at -infinity plus band confinement at
    +infinity: f(t,x)/x must blow up on the left while mu_N x - c <= f(t,x)
    <= mu_N+1 x + c holds on the right with a stable finite c.  min_t f/x
    is read at x = -10^k, k = 1..A_LEFT_DECADES, and c on [1e-2, BAND_X_MAX],
    each over ENVELOPE_T_POINTS times per period.
    """
    if model.domain != FULL_LINE:
        raise ValueError("validate_A applies to full-line models")
    t_grid = periodic_grid(model.period, ENVELOPE_T_POINTS)
    x_left = np.array([-(10.0 ** k) for k in range(1, A_LEFT_DECADES + 1)])
    # min_t f/x = f2/x exactly for x < 0
    ratios = model.t_envelope(x_left, t_grid)[1] / x_left
    increasing = bool(np.all(np.diff(ratios) > 0))
    growth = float(ratios[-1] / max(abs(ratios[len(ratios) // 2]), 1e-300))
    superlinear = increasing and ratios[-1] > 0 and growth >= 2.0

    c, stable, c_prefix = _band_constant(model, 1e-2, t_grid)

    passed = superlinear and stable
    return dict(passed=passed, superlinear_left=superlinear,
                left_ratios=ratios, band_constant=c, band_stable=stable,
                band_constant_prefix=c_prefix)


def validate_A0_Ainf(model: NonlinearityModel) -> dict:
    """Singular-wall checks: f2 < 0 near 0+, f_i -> -inf, primitive integral
    divergent at 0 (strong force), and band confinement for x > 1.  The
    wall region is (0, WALL_DELTA]; its primitives are nested Gauss-Legendre
    sums over WALL_PANELS panels, each 4 times nearer 0 than the last;
    every scan takes ENVELOPE_T_POINTS times per period.
    """
    if model.domain != SINGULAR:
        raise ValueError("validate_A0_Ainf applies to singular models")
    t_grid = periodic_grid(model.period, ENVELOPE_T_POINTS)

    x_small = np.geomspace(1e-6, WALL_DELTA, 160)
    # the last x of the stretch (0, x] on which f2 < 0
    lead = np.logical_and.accumulate(model.t_envelope(x_small, t_grid)[1] < 0)
    delta_found = float(x_small[lead][-1]) if lead[0] else 0.0
    negativity = delta_found >= 1e-3

    w = -model.t_envelope([2.0 ** -k for k in range(16)], t_grid)[1]
    wall_divergent = bool(np.all(np.diff(w) > 0) and w[-1] >= 2.0 * w[len(w) // 2]
                          and w[-1] > 0)

    # nested quadrature of the wall primitive on shrinking lower limits:
    # panel m spans [delta 4^-m, delta 4^-(m-1)]
    eps = WALL_DELTA * 4.0 ** -np.arange(1, WALL_PANELS + 1)
    F1, F2 = _envelope_panels(
        model, eps, np.concatenate([[WALL_DELTA], eps[:-1]]), t_grid)
    strong_force = all(bool(v[-1] > v[-3] and v[-1] - v[-3] > 0.02 * v[-1])
                       for v in (np.abs(F1), np.abs(F2)))

    c, stable, _ = _band_constant(model, 1.0 + 1e-9, t_grid)

    passed = negativity and wall_divergent and strong_force and stable
    return dict(passed=passed, negativity_near_zero=negativity,
                delta_found=delta_found, wall_divergent=wall_divergent,
                strong_force=strong_force, wall_integrals={1: F1, 2: F2},
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
    return sorted(set([0.0, period] + [r for r in raw if 0.0 < r < period]))


def ll_integral(residue: Callable, j: int, period: float, variant: str,
                tau: float) -> float:
    """Quadrature of residue(t) * phi_j(t + tau) over one period.

    residue may return +-inf (diverging tails); an infinite residue under
    positive weight makes the whole integral infinite of that sign, and
    conflicting infinities return nan.  The quadrature splits [0, T] at the
    kinks of the translated profile so each panel sees a smooth integrand:
    about LL_PANELS panels per period, of LL_ORDER Gauss nodes each, all in
    one (panels, order) node array, so residue and the profile are each
    evaluated once; the panel sums are added from left to right.
    """
    phi = (phi_truncated if variant == TRUNCATED_SINE else phi_abs)(j, period)
    kinks = _phi_kinks(j, period, variant, tau)
    xs_gl, ws_gl = gauss_legendre(LL_ORDER)
    edges = []
    for a, b in zip(kinks[:-1], kinks[1:]):
        m = max(2, int(round(LL_PANELS * (b - a) / period)))
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


def _verdict_from(values: np.ndarray, side: str, stabilized: bool):
    if np.any(np.isnan(values)):
        return "unreliable", math.nan
    # lower: every integral > 0; upper: every integral < 0
    margin = (float(np.min(values)) if side == "lower"
              else -float(np.max(values)))
    if not stabilized:
        return "unreliable", margin
    if not margin > 0:
        return "fail", margin
    if margin < LL_MARGIN_FLOOR:
        return "inconclusive", margin
    return "pass", margin


def ll_verdict(model: NonlinearityModel, variant: str = TRUNCATED_SINE,
               tau_points: int = 256) -> tuple[LLReport, LLReport]:
    """Evaluate both sign conditions over a tau grid, N = model.n_mode.

    Lower: integrals of the liminf residue against the N-profile must stay
    positive; upper: integrals of the limsup residue against the
    (N+1)-profile must stay negative.  Each tau is one ll_integral call,
    which evaluates the residue envelope once.  A margin below
    LL_MARGIN_FLOOR is inconclusive.
    """
    n, period = model.n_mode, model.period
    env_lo = asymptotic_envelope(model, eigenvalue(n, period))
    env_hi = asymptotic_envelope(model, eigenvalue(n + 1, period))
    tau_grid = periodic_grid(period, tau_points)
    reports = []
    for side, j, env, values, stabilized in (
            ("lower", n, env_lo, env_lo.lower, env_lo.lower_stabilized),
            ("upper", n + 1, env_hi, env_hi.upper, env_hi.upper_stabilized)):
        fn = _periodic_interp(env.t_grid, values)
        vals = np.array([ll_integral(fn, j, period, variant, float(tau))
                         for tau in tau_grid])
        reports.append(LLReport(variant, side, j, tau_grid, vals,
                                *_verdict_from(vals, side, stabilized)))
    return tuple(reports)


# ---------------------------------------------------------------------------
# window-envelope primitive ratios (uniform-order-of-infinity checks)


def _window_primitive_checkpoints(model, taus, zetas, x_checks, base, side):
    """F_i at the checkpoints for every cell, integrating the windowed
    envelopes from base.

    Cell c is the time window [taus[c] - zetas[c], taus[c] + zetas[c]],
    sampled at H_WINDOW_T_POINTS times.  The quadrature nodes depend only
    on the checkpoints, so f is evaluated once per node on the windows of
    all cells together.  side "left": base 0, checkpoints negative,
    geometric ladder toward -inf.  side "wall": base delta, checkpoints in
    (0, delta), ladder toward 0+.  Returns (F1, F2), each of shape
    (cells, checkpoints).
    """
    t_win = np.linspace(taus - zetas, taus + zetas, H_WINDOW_T_POINTS, axis=1)
    full_edges = [base]
    ends = []                   # index of the panel ending at each checkpoint
    for xc in x_checks:
        a, b = abs(full_edges[-1]), abs(xc)
        if side == "left":
            a = max(a, 1e-3)
        # geometric fill toward the checkpoint: ratio <= 2, at least 2 panels
        n_fill = max(2, math.ceil(math.log2(b / a if side == "left" else a / b)))
        fill = np.geomspace(a, b, n_fill + 1)[1:]
        full_edges.extend(-fill if side == "left" else fill)
        ends.append(len(full_edges) - 2)
    F1, F2 = _envelope_panels(model, full_edges[:-1], full_edges[1:], t_win)
    return F1[ends].T, F2[ends].T


def check_H(model: NonlinearityModel, direction: str = "x_to_minus_inf") -> dict:
    """Uniformity of the one-sided blow-up order across t.

    For shrinking time windows around each tau the primitives of the
    window envelopes must agree to leading order: their ratio at deep
    checkpoints tends to 1 uniformly in tau exactly when the superlinear
    (or singular) part has the same order for every t.  The windows have
    the half-widths H_ZETAS around H_TAU_POINTS centres, the checkpoints
    lie H_X_SCALES away from the base (as 1/scale toward the wall).
    Verdict: the worst deviation at the smallest window must be below
    H_PASS_TOL, must improve as the window shrinks, and must not explode
    along the checkpoints.  f is evaluated once per quadrature node, on
    the windows of all (zeta, tau) cells at once.
    """
    if direction == "x_to_minus_inf":
        side, base = "left", 0.0
        x_checks = [-float(s) for s in H_X_SCALES]
    elif direction == "x_to_zero_plus":
        side, base = "wall", 1.0
        x_checks = [1.0 / float(s) for s in H_X_SCALES]
    else:
        raise ValueError("direction must be x_to_minus_inf or x_to_zero_plus")

    tau_grid = periodic_grid(model.period, H_TAU_POINTS)
    # cells in (zeta, tau) order, tau varying fastest
    cell_zetas = np.repeat(np.array(H_ZETAS, dtype=float), len(tau_grid))
    cell_taus = np.tile(tau_grid, len(H_ZETAS))
    f1v, f2v = _window_primitive_checkpoints(model, cell_taus, cell_zetas,
                                             x_checks, base, side)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(f1v != 0.0, f2v / f1v, math.nan)
    ratios = ratios.reshape(len(H_ZETAS), len(tau_grid), len(x_checks))
    dev = np.nanmax(np.abs(ratios - 1.0), axis=1)    # (zeta, X)
    if np.any(np.isnan(ratios)):
        dev = np.where(np.isnan(dev), math.inf, dev)

    d_final = float(dev[-1, -1])
    d_first = float(dev[0, -1])
    shrink_ok = d_final <= 0.75 * d_first + 1e-9
    x_stable = d_final <= 1.25 * float(dev[-1, -2]) + 1e-9
    passed = (d_final <= H_PASS_TOL) and shrink_ok and x_stable
    return dict(passed=passed, direction=direction, zetas=list(H_ZETAS),
                x_checks=x_checks, tau_grid=tau_grid, ratios=ratios,
                deviation_table=dev, worst_final=d_final,
                shrink_ok=shrink_ok, x_stable=x_stable)
