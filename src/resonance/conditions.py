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
RESIDUE_K_MAX = 20          # ... on the ladder x = 2^k, k = 0..RESIDUE_K_MAX
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
    """Per-t tail estimates of one residue as x -> +inf: the liminf of
    f(t,x) - mu_N x (side "lower") or the limsup of f(t,x) - mu_N+1 x
    (side "upper")."""

    t_grid: np.ndarray
    values: np.ndarray          # may hold +-inf
    stabilized: bool


def _tail_estimate(table: np.ndarray, mode: str):
    """Running inf/sup over the deep tail of a geometric sample ladder, for
    each column of table (one row per rung).

    The tail starts at a fixed ladder index so that enlarging the ladder
    can only sharpen the estimate (inf never increases, sup never
    decreases).  Returns (estimates, settled) per column: a diverging tail
    estimates +-inf and counts as settled.
    """
    start = min(8, max(0, len(table) - 4))
    tail = table[start:]
    agg = np.minimum.accumulate if mode == "inf" else np.maximum.accumulate
    running = agg(tail, axis=0)
    est = running[-1]
    long_tail = len(tail) >= 4
    with np.errstate(invalid="ignore"):      # inf - inf is nan: unsettled
        stab = long_tail & (np.abs(est - running[-min(4, len(running))])
                            <= 1e-4 * (1.0 + np.abs(est)))
        half = running[len(running) // 2]
        diverging = np.where((np.abs(est) > 1e8)
                             & (np.abs(est) > 1.5 * np.abs(half)),
                             np.where(est > 0, 1, -1), 0)
        # monotone runaway on the side the running extreme cannot see
        if long_tail:
            steps = np.diff(tail, axis=0)
            if mode == "inf":
                runaway = np.all(steps > 0, axis=0) & (tail[-1] > 1e6)
            else:
                runaway = np.all(steps < 0, axis=0) & (tail[-1] < -1e6)
            diverging = np.where((diverging == 0) & runaway,
                                 1 if mode == "inf" else -1, diverging)
    return (np.where(diverging != 0, np.copysign(np.inf, diverging), est),
            stab | (diverging != 0))


def _f_ladder(model: NonlinearityModel, k_max: int):
    """f along the ladder x = 2^k, k = 0..k_max, at RESIDUE_T_POINTS times
    per period: (t_grid, xs, table), one table row per rung, from one grid
    call per chunk of the ladder."""
    t_grid = periodic_grid(model.period, RESIDUE_T_POINTS)
    xs = 2.0 ** np.arange(k_max + 1)
    return t_grid, xs, np.concatenate(model.grid_map(xs, t_grid,
                                                     lambda fv: fv))


def asymptotic_envelope(model: NonlinearityModel, side: str,
                        k_max: int = RESIDUE_K_MAX,
                        ladder=None) -> AsymptoticEnvelope:
    """Estimate the per-t liminf of f(t,x) - mu_N x (side "lower") or the
    limsup of f(t,x) - mu_N+1 x (side "upper") along the ladder x = 2^k,
    k = 0..k_max, at RESIDUE_T_POINTS times per period.  `ladder` is the
    f table _f_ladder(model, k_max) when the caller holds it already: both
    sides of ll_verdict read the same one."""
    n = model.n_mode if side == "lower" else model.n_mode + 1
    mode = "inf" if side == "lower" else "sup"
    t_grid, xs, f = ladder if ladder is not None else _f_ladder(model, k_max)
    table = f - eigenvalue(n, model.period) * xs[:, None]
    values, settled = _tail_estimate(table, mode)
    return AsymptoticEnvelope(t_grid, values, bool(np.all(settled)))


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
    """Quadrature of residue(t) * phi_j(t + tau) over one period, for an
    arbitrary residue callable: the reference that ll_verdict's kernel
    correlation is checked against.

    residue may return +-inf (diverging tails); an infinite residue under
    positive weight makes the whole integral infinite of that sign, and
    conflicting infinities return nan.  The quadrature splits [0, T] at the
    kinks of the translated profile so each panel sees a smooth integrand:
    about LL_PANELS panels per period, of LL_ORDER Gauss nodes each, all in
    one (panels, order) node array, so residue and the profile are each
    evaluated once; the panel sums are added from left to right.  The
    panels do not split at a tabulated residue's knots.
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


def _ll_kernel(j: int, period: float, variant: str, n: int) -> np.ndarray:
    """K(s) = integral over |u| < D of (1 - |u|/D) phi_j(s + u), with
    D = period / RESIDUE_T_POINTS, at the n offsets s = k period / n (n a
    multiple of RESIDUE_T_POINTS): the weight that one residue knot, the
    hat of half-width D, gives the integral at each offset.

    Where phi_j is one piece of +-sin(omega s), omega = j pi / period,
    across the whole window, K(s) = D sinc^2(omega D / 2) phi_j(s)
    exactly: the Fourier transform of the triangle.  A window with a kink
    of phi_j inside is split at the kinks and at the apex u = 0 into
    LL_ORDER-node Gauss-Legendre pieces.
    Offsets and kinks are whole multiples of period / (j n), so which
    windows hold a kink, and where, is exact.
    """
    half = period / RESIDUE_T_POINTS
    # positions count units of period / (j n): offset k at j k, kink m at
    # m n, one period and the window's half-width D in units
    unit, span = period / (j * n), j * n
    width = span // RESIDUE_T_POINTS
    kern = np.arange(n, dtype=float)
    kern *= j * math.pi / n
    np.sin(kern, out=kern)
    if variant == TRUNCATED_SINE:
        kern[n // j + 1:] = 0.0             # s > T/j: past the hump
        kink_ms = sorted({0, 1 % j})
    else:
        np.abs(kern, out=kern)
        kink_ms = range(j)
    theta = j * math.pi / (2 * RESIDUE_T_POINTS)      # omega D / 2
    kern *= half * (math.sin(theta) / theta) ** 2

    # the offsets k with a kink strictly inside (jk - width, jk + width)
    inside = np.zeros(n, dtype=bool)
    for m in kink_ms:
        inside[np.arange((m * n - width) // j + 1,
                         -((-m * n - width) // j)) % n] = True
    near = np.arange(n)[inside]
    if near.size == 0:
        return kern
    # cuts at the lattice points m n in each window, ascending (at most
    # ceil(j / 64) of them); one that is no kink, or lies past the window,
    # repeats its neighbour or the window's end: a piece of length 0
    pos = (near * j)[:, None]
    m = np.floor((pos - width) / n) + 1.0 + np.arange(-(-2 * width // n))
    cuts = m * n - pos
    if variant == TRUNCATED_SINE:
        cuts[(m % j != 0) & (m % j != 1 % j)] = -width
        np.maximum.accumulate(cuts, axis=1, out=cuts)
    np.minimum(cuts, width, out=cuts)
    # the pieces between -D, the cuts and D, each split at the apex u = 0
    lo = np.concatenate([np.full((near.size, 1), -width), cuts], axis=1)
    hi = np.concatenate([cuts, np.full((near.size, 1), width)], axis=1)
    apex = np.clip(0, lo, hi)
    lo = np.concatenate([lo, apex], axis=1)
    hi = np.concatenate([apex, hi], axis=1)
    mid, hw = (lo + hi) * (0.5 * unit), (hi - lo) * (0.5 * unit)
    phi = (phi_truncated if variant == TRUNCATED_SINE else phi_abs)(j, period)
    s = (near * (period / n))[:, None]
    xs_gl, ws_gl = gauss_legendre(LL_ORDER)
    acc = 0.0
    for x, w in zip(xs_gl.tolist(), ws_gl.tolist()):
        u = mid + hw * x
        acc = acc + w * (1.0 - np.abs(u) / half) * phi(s + u)
    kern[near] = np.sum(hw * acc, axis=1)
    return kern


def _ll_correlate(values: np.ndarray, kern: np.ndarray,
                  tau_points: int) -> np.ndarray:
    """I(tau_k) = sum_i values[i] K(t_i + tau_k) for the residue knots t_i
    and tau_k = k period / tau_points, one gather of the kernel table per
    knot.  An infinite knot counts only where its K > 0, the profile
    positive on its hat: one sign gives +-inf, both signs nan."""
    n = kern.size
    idx = np.arange(tau_points) * (n // tau_points)
    total = np.zeros(tau_points)
    pos, neg = np.zeros(tau_points, bool), np.zeros(tau_points, bool)
    for v in values.tolist():
        w = kern.take(idx, mode="wrap")
        if v == math.inf:
            pos |= w > 0
        elif v == -math.inf:
            neg |= w > 0
        else:
            total += v * w
        idx += n // values.size
    total[pos] = math.inf
    total[neg] = -math.inf
    total[pos & neg] = math.nan
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
    (N+1)-profile must stay negative.  A margin below LL_MARGIN_FLOOR is
    inconclusive.

    The residue table is linear between its RESIDUE_T_POINTS knots, so
    every integral is a sum of knot values times one kernel, tabulated
    per side at the lcm(RESIDUE_T_POINTS, tau_points) offsets on which
    every knot + tau lands (_ll_kernel); all tau come from one
    correlation (_ll_correlate), exact up to rounding.  Both sides read
    their residues off one f table on the ladder.
    """
    n, period = model.n_mode, model.period
    tau_grid = periodic_grid(period, tau_points)
    offsets = math.lcm(RESIDUE_T_POINTS, tau_points)
    ladder = _f_ladder(model, RESIDUE_K_MAX)
    reports = []
    for side, j in (("lower", n), ("upper", n + 1)):
        env = asymptotic_envelope(model, side, ladder=ladder)
        vals = _ll_correlate(env.values,
                             _ll_kernel(j, period, variant, offsets),
                             tau_points)
        reports.append(LLReport(variant, side, j, tau_grid, vals,
                                *_verdict_from(vals, side, env.stabilized)))
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


def check_H(model: NonlinearityModel) -> dict:
    """Uniformity of the one-sided blow-up order across t.

    For shrinking time windows around each tau the primitives of the
    window envelopes must agree to leading order: their ratio at deep
    checkpoints tends to 1 uniformly in tau exactly when the superlinear
    (or singular) part has the same order for every t: toward -inf on the
    full line, toward the wall at 0+ in singular mode.  The windows have
    the half-widths H_ZETAS around H_TAU_POINTS centres, the checkpoints
    lie H_X_SCALES away from the base (as 1/scale toward the wall).
    Verdict: the worst deviation at the smallest window must be below
    H_PASS_TOL, must improve as the window shrinks, and must not explode
    along the checkpoints.  f is evaluated once per quadrature node, on
    the windows of all (zeta, tau) cells at once.
    """
    if model.domain == FULL_LINE:
        side, base = "left", 0.0
        x_checks = [-float(s) for s in H_X_SCALES]
    else:
        side, base = "wall", 1.0
        x_checks = [1.0 / float(s) for s in H_X_SCALES]

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
    return dict(passed=passed, zetas=list(H_ZETAS),
                x_checks=x_checks, tau_grid=tau_grid, ratios=ratios,
                deviation_table=dev, worst_final=d_final,
                shrink_ok=shrink_ok, x_stable=x_stable)
