"""Quantitative phase-plane machinery: envelopes, energy maps, radii.

Everything here makes the qualitative largeness arguments measurable: the
t-envelopes of f and their primitives, the measured polar constants
(omega0, ell0, kappa), the lap-expansion maps T, L, M built from the
primitives, the base radius R0 (clockwise rotation + energy-level
confinement) and the escape radius R_elastic = L^(N+2)(y_hat) beyond which
a periodic orbit must stay R0-large for a whole period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .integrate import (HomotopyField, IntegrateOpts, PhaseState, Trajectory,
                        crossing_times, integrate)
from .model import (ENVELOPE_T_POINTS, SINGULAR, NonlinearityModel,
                    periodic_grid)

__all__ = [
    "EnvelopePair", "AprioriKit", "TableRangeError",
    "build_envelopes", "map_T", "map_L", "map_M", "probe_R0", "build_kit",
    "lap_report", "check_elastic", "N_measure", "probe_N0",
]


ENVELOPE_X_POINTS = 4096        # geometric nodes of the envelope table ...
ENVELOPE_X_FAR = 1e6            # ... reaching out to |x| = 1e6
R0_PROBES = 8                   # probe orbits per radius (4x at a candidate)
N0_LEVELS = np.geomspace(32.0, 1e6, 17)   # start levels of the probe_N0 scan
N0_PROBES = 8                   # probe orbits per level
ELASTIC_AMPLITUDES = (1e2, 1e3, 1e4)      # check_elastic's amplitude ladder


class TableRangeError(ValueError):
    """Requested value lies outside the tabulated envelope range."""


@dataclass
class EnvelopePair:
    """Tabulated t-envelopes f1 <= f <= f2 with primitives from the base.

    Full line: grid ascends from far-left to the threshold d < 0 and
    F_i(x) = int_d^x f_i, so F1 > F2 > 0 and both decrease toward d.
    Singular: grid spans (0, delta] and F_i(x) = int_delta^x f_i.
    """

    x: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    base: float
    domain: str

    def F(self, i: int, x) -> float:
        tab = self.F1 if i == 1 else self.F2
        x = float(x)
        if x < self.x[0] or x > self.x[-1] + 1e-12:
            raise TableRangeError(f"x={x:.6g} outside table "
                                  f"[{self.x[0]:.6g}, {self.x[-1]:.6g}]")
        return float(np.interp(x, self.x, tab))

    def F2_inv(self, energy: float) -> float:
        """x with F2(x) = energy, by bracketed bisection on the table."""
        tab = self.F2[::-1]          # ascending as x moves away from the base
        xs = self.x[::-1]
        if energy < tab[0] - 1e-12:
            raise TableRangeError(f"energy {energy:.6g} below table range")
        if energy > tab[-1]:
            raise TableRangeError(f"energy {energy:.6g} beyond table range "
                                  f"(max {tab[-1]:.6g}); enlarge the x grid")
        k = int(np.searchsorted(tab, energy))
        if k == 0:
            return float(xs[0])
        t0, t1 = tab[k - 1], tab[k]
        w = 0.0 if t1 == t0 else (energy - t0) / (t1 - t0)
        return float(xs[k - 1] + w * (xs[k] - xs[k - 1]))


def build_envelopes(model: NonlinearityModel) -> EnvelopePair:
    """Tabulate f1 = min_t f, f2 = max_t f (model.t_envelope at
    ENVELOPE_T_POINTS times) on ENVELOPE_X_POINTS nodes out to
    ENVELOPE_X_FAR (down to 1e-6 in singular mode), with cumulative
    primitives.

    The threshold (d on the full line, delta in singular mode) is detected
    as the widest range next to the relevant end on which f2 < 0; on the
    full line d is clamped to <= -1 so the interpolation zone of the
    comparison field stays out of the envelope region.
    """
    t_grid = periodic_grid(model.period, ENVELOPE_T_POINTS)
    singular = model.domain == SINGULAR
    scan = np.geomspace(1e-3, ENVELOPE_X_FAR, 200)

    base = None
    if singular:
        # the last x <= 1 of the stretch (0, x] on which f2 < 0
        scan = scan[scan <= 1.0]
        f2 = model.t_envelope(scan, t_grid)[1]
        lead = np.logical_and.accumulate(~(f2 >= 0.0))
        if lead[0]:
            base = float(scan[lead][-1])
    else:
        # the largest |x| end of the sign change: scan walks toward -infinity
        for x, f2v in zip(-scan, model.t_envelope(-scan, t_grid)[1]):
            if f2v < 0.0 and base is None:
                base = float(x)
            elif f2v >= 0.0:
                base = None
        if base is not None:
            base = min(base * 1.0001, -1.0)
    if base is None:
        raise ValueError("no threshold with f2 < 0 found in scan range")

    if singular:
        grid = np.geomspace(1e-6, base, ENVELOPE_X_POINTS)
    else:
        # ascending toward d < 0
        grid = -np.geomspace(ENVELOPE_X_FAR, -base, ENVELOPE_X_POINTS)

    f1, f2 = model.t_envelope(grid, t_grid)
    if np.any(f2 >= 0.0):
        raise ValueError("f2 is not negative on the whole envelope range")

    # F_i(x) = int_base^x f_i with the base at the grid's right end:
    # cumulative trapezoid accumulated from the right
    def primitive(f_tab):
        df = 0.5 * (f_tab[1:] + f_tab[:-1]) * np.diff(grid)
        out = np.zeros(ENVELOPE_X_POINTS)
        out[:-1] = -np.cumsum(df[::-1])[::-1]
        return out

    return EnvelopePair(grid, f1, f2, primitive(f1), primitive(f2),
                        float(grid[-1]), model.domain)


@dataclass
class AprioriKit:
    env: EnvelopePair
    d: float
    omega0: float
    ell0: float
    kappa: float
    a: float
    R0: float
    y_hat: float
    R_elastic: float
    n_mode: int
    period: float
    diagnostics: dict = field(default_factory=dict)


def map_T(kit: AprioriKit, v: float) -> float:
    """Left-excursion energy transfer: sqrt(2 F1(F2^-1(v^2/2))) >= v."""
    w = kit.env.F2_inv(0.5 * v * v)
    return math.sqrt(2.0 * kit.env.F(1, w))


def map_L(kit: AprioriKit, v: float) -> float:
    """One-lap expansion bound from one upward x=0 crossing to the next."""
    inner_sq = math.exp(2.0 * (kit.kappa * math.pi + kit.a)) * v * v - kit.d ** 2
    if inner_sq <= 0.0:
        raise TableRangeError("lap map undefined: starting level too small")
    tv = map_T(kit, math.sqrt(inner_sq))
    return math.exp(kit.a) * math.sqrt(tv * tv + kit.d ** 2)


def map_M(kit: AprioriKit, r: float) -> float:
    """Bound on the leftmost excursion reached from a right apex at r."""
    energy = 0.5 * (math.exp(kit.kappa * math.pi + 2.0 * kit.a) * r * r - kit.d ** 2)
    return kit.env.F2_inv(energy)


def _polar_rates(fld: HomotopyField, traj: Trajectory):
    """Angular and radial velocity along samples, from the field formulas."""
    cx = traj.center[0]
    x, y = traj.x, traj.y
    g = np.array([fld.g(float(t), float(xx)) for t, xx in zip(traj.t, x)])
    rho2 = (x - cx) ** 2 + y ** 2
    minus_theta_dot = (y ** 2 + (x - cx) * g) / rho2
    rho_dot = y * ((x - cx) - g) / np.sqrt(rho2)
    return minus_theta_dot, rho_dot


def _measure_kappa(fld: HomotopyField, d: float, radius: float, n_probes: int,
                   opts: IntegrateOpts):
    """omega0 = min(-theta'), ell0 = max|rho'|/rho over samples with x > d."""
    period = fld.model.period
    omega0 = math.inf
    ell0 = 0.0
    clockwise = True
    for k in range(n_probes):
        ang = 2.0 * math.pi * (k + 0.5) / n_probes
        z0 = PhaseState(0.0, radius * math.cos(ang), radius * math.sin(ang))
        traj = integrate(fld, z0, period, opts)
        mtd, rd = _polar_rates(fld, traj)
        mask = traj.x > d
        if np.any(mask):
            omega0 = min(omega0, float(np.min(mtd[mask])))
            ell0 = max(ell0, float(np.max(np.abs(rd[mask]) / traj.rho[mask])))
        out = traj.rho >= 0.5 * radius
        if np.any(mtd[out] <= 0.0):
            clockwise = False
    return omega0, ell0, clockwise


def _inout_holds(env: EnvelopePair, r: float, r_top: float) -> bool:
    """2F_i(-r') - r'^2 > max_{x in (-r', d)} (2F_i(x) - x^2) for sampled
    r' in [r, r_top], both envelopes."""
    xs = env.x
    for tab in (env.F1, env.F2):
        G = 2.0 * tab - xs ** 2
        peak = np.maximum.accumulate(G[::-1])[::-1]   # max over grid points >= x
        for rp in np.geomspace(r, r_top, 9):
            if -rp < xs[0]:
                return False
            k = int(np.searchsorted(xs, -rp))
            if k >= len(xs) - 1:
                return False
            lhs = 2.0 * float(np.interp(-rp, xs, tab)) - rp * rp
            if lhs <= float(peak[k]):
                return False
    return True


def _en1_holds(env: EnvelopePair, r: float, kappa: float) -> bool:
    a = kappa * math.asin(env.base / r)
    try:
        f2v = env.F(2, -r)
    except TableRangeError:
        return False
    return 2.0 * f2v > r * r * math.exp(2.0 * (kappa * math.pi + a))


def probe_R0(fld: HomotopyField, env: Optional[EnvelopePair] = None,
             r_grid: Optional[np.ndarray] = None,
             opts: IntegrateOpts = IntegrateOpts()) -> tuple[float, dict]:
    """Smallest grid radius with clockwise probe rotation plus the energy
    confinement inequalities; diagnostics record which constraint binds.
    Each radius is probed by R0_PROBES orbits, a candidate by 4x as many."""
    if env is None:
        env = build_envelopes(fld.model)
    d = env.base
    if r_grid is None:
        r_grid = np.geomspace(max(4.0 * abs(d), 4.0), 1e4, 41)
    kappa_pre = None
    diagnostics = {"failures": {}}
    r_top = float(r_grid[-1]) * 2.0
    for r in r_grid:
        if abs(d) >= r:
            diagnostics["failures"][float(r)] = "threshold inside radius"
            continue
        if kappa_pre is None:
            om, el, cw = _measure_kappa(fld, d, 2.0 * r, R0_PROBES, opts)
            if not cw or om <= 0.0:
                diagnostics["failures"][float(r)] = "not clockwise"
                continue
            kappa_pre = 1.1 * el / om
        if not _en1_holds(env, float(r), kappa_pre):
            diagnostics["failures"][float(r)] = "energy level inequality"
            continue
        if not _inout_holds(env, float(r), r_top):
            diagnostics["failures"][float(r)] = "in-out confinement"
            continue
        # final measurement at the candidate radius
        om, el, cw = _measure_kappa(fld, d, 2.0 * float(r), 4 * R0_PROBES, opts)
        if not cw or om <= 0.0:
            diagnostics["failures"][float(r)] = "not clockwise at candidate"
            kappa_pre = None
            continue
        kappa = 1.1 * el / om
        if not (_en1_holds(env, float(r), kappa)
                and _inout_holds(env, float(r), r_top)):
            diagnostics["failures"][float(r)] = "re-measured constants failed"
            kappa_pre = max(kappa_pre, kappa)
            continue
        diagnostics.update(omega0=om, ell0=el, kappa=kappa,
                           binding=_binding_constraint(diagnostics))
        return float(r), diagnostics
    raise ValueError(f"no radius in scan range satisfies the constraints: "
                     f"{_binding_constraint(diagnostics)}")


def _binding_constraint(diag: dict) -> str:
    fails = diag.get("failures", {})
    if not fails:
        return "none"
    return fails[max(fails)]


def build_kit(fld: HomotopyField, env: Optional[EnvelopePair] = None,
              opts: IntegrateOpts = IntegrateOpts()) -> AprioriKit:
    """Assemble the full kit: R0, measured constants, maps, escape radius.

    The shift a = kappa*arcsin(d/R0) is applied exactly as defined (d < 0
    makes it negative); the kit also records the |a| variant so lap checks
    can flag when the sign convention is load-bearing.
    """
    if env is None:
        env = build_envelopes(fld.model)
    r0, diag = probe_R0(fld, env, opts=opts)
    kappa = diag["kappa"]
    d = env.base
    a = kappa * math.asin(d / r0)
    kit = AprioriKit(env=env, d=d, omega0=diag["omega0"], ell0=diag["ell0"],
                     kappa=kappa, a=a, R0=r0, y_hat=0.0, R_elastic=0.0,
                     n_mode=fld.model.n_mode, period=fld.model.period,
                     diagnostics=diag)
    kit.y_hat = math.exp(a) * math.sqrt(2.0 * env.F(1, -r0) + d * d)
    v = kit.y_hat
    for _ in range(fld.model.n_mode + 2):
        v = map_L(kit, v)
    kit.R_elastic = v
    kit.diagnostics["abs_a_variant"] = abs(a)
    return kit


def lap_report(fld: HomotopyField, kit: AprioriKit, y0: float,
               opts: IntegrateOpts = IntegrateOpts()) -> dict:
    """Integrate one large lap from (0, y0) and test every bound on it.

    Checks, per lap: the energy-transfer bound y(t7) < T(y(t5)), the lap
    bound y(t8) <= L(y(t2)), the excursion bound x(t6) > M(x(t3)), the
    quarter-turn sandwich around the right apex, and the polar inequality
    |rho'| <= kappa * rho * (-theta') for x > d.
    """
    period = fld.model.period
    traj = integrate(fld, PhaseState(0.0, 1e-9, y0), 2.0 * period, opts,
                     d=kit.d)
    lap = crossing_times(traj, kit.d)
    state = {ev.t: ev for ev in traj.events}
    y2 = state[lap.t2].y
    x3 = state[lap.t3].x
    y5 = abs(state[lap.t5].y)
    x6 = state[lap.t6].x
    y7 = state[lap.t7].y
    y8 = state[lap.t8].y

    t_of = map_T(kit, y5)
    l_of = map_L(kit, y2)
    m_of = map_M(kit, x3)
    c = math.exp(kit.kappa * math.pi / 2.0)

    mtd, rd = _polar_rates(fld, traj)
    mask = traj.x > kit.d
    polar_ok = bool(np.all(np.abs(rd[mask]) <= kit.kappa * traj.rho[mask]
                           * mtd[mask] * (1.0 + 1e-9) + 1e-12))

    report = dict(
        lap=lap, y2=y2, x3=x3, y5=y5, x6=x6, y7=y7, y8=y8,
        T_bound=t_of, L_bound=l_of, M_bound=m_of,
        T_ok=y7 < t_of, L_ok=y8 <= l_of, M_ok=x6 > m_of,
        sandwich_ok=(x3 / c <= abs(y2) <= c * x3
                     and x3 / c <= abs(state[lap.t4].y) <= c * x3),
        polar_ok=polar_ok,
        rotation_ok=mtd.min() > 0.0 if np.all(traj.rho > kit.R0) else None,
    )
    report["all_ok"] = all(v for k, v in report.items()
                           if k.endswith("_ok") and v is not None)
    if not (report["L_ok"] and report["M_ok"]):
        # the shift a = kappa*arcsin(d/R0) is negative as defined; flag
        # whether flipping its sign would have rescued the failed bounds
        alt = replace(kit, a=abs(kit.a))
        report["abs_shift_would_pass"] = bool(
            y8 <= map_L(alt, y2) and x6 > map_M(alt, x3))
    return report


def check_elastic(fld: HomotopyField, kit: AprioriKit,
                  n_orbits: int = 8) -> dict:
    """Empirical escape-radius validation plus the vanishing-minimum trend.

    Orbits started beyond R_elastic must stay R0-large for a full period;
    orbits started at the ELASTIC_AMPLITUDES must show |min x| / sup|x|
    decreasing toward zero (the left excursion is of lower order).
    """
    period = fld.model.period
    start = 1.05 * kit.R_elastic
    stays_large = []
    for k in range(n_orbits):
        ang = 2.0 * math.pi * (k + 0.5) / n_orbits
        z0 = PhaseState(0.0, start * math.cos(ang), start * math.sin(ang))
        traj = integrate(fld, z0, period)
        stays_large.append(bool(traj.min_rho() > kit.R0))
    ratios = []
    for amp in ELASTIC_AMPLITUDES:
        traj = integrate(fld, PhaseState(0.0, 0.0, float(amp)), period)
        ratios.append(float(-np.min(traj.x) / np.max(np.abs(traj.x))))
    decreasing = bool(np.all(np.diff(ratios) < 0))
    return dict(stays_large=stays_large, all_large=all(stays_large),
                min_ratio=ratios, min_ratio_decreasing=decreasing)


def N_measure(x: float, y: float) -> float:
    """Singular-mode largeness functional 1/x^2 + x^2 + y^2 (x > 0)."""
    if x <= 0.0:
        raise ValueError("N_measure needs x > 0")
    return 1.0 / (x * x) + x * x + y * y


def n_level_point(level: float, phi: float) -> tuple[float, float]:
    """The point at angle parameter phi on the level set N(x, y) = level, an
    oval around (1, 0): log x sweeps from the inner to the outer x-root and
    back as phi runs over [0, 2 pi), with y taking the sign of sin(phi)."""
    disc = math.sqrt(max(level * level - 4.0, 0.0))
    x_lo = math.sqrt((level - disc) / 2.0)
    x_hi = math.sqrt((level + disc) / 2.0)
    lx = math.log(x_lo) + (math.log(x_hi) - math.log(x_lo)) * 0.5 * (1.0 - math.cos(phi))
    x = math.exp(lx)
    y2 = level - x * x - 1.0 / (x * x)
    return x, math.copysign(math.sqrt(max(y2, 0.0)), math.sin(phi))


def _n_level_states(level: float, n_points: int):
    """n_points states spaced evenly in phi on the level set N = level."""
    return [n_level_point(level, 2.0 * math.pi * k / n_points)
            for k in range(n_points)]


def probe_N0(fld: HomotopyField,
             opts: IntegrateOpts = IntegrateOpts()) -> tuple[float, dict]:
    """Empirical largeness threshold for the singular phase portrait.

    Scans the start levels N0_LEVELS of 1/x^2 + x^2 + y^2: a level passes
    when all its N0_PROBES probe orbits rotate clockwise about (1, 0) with
    between n and n+1 laps over one period.  Orbits trade the functional
    down by a bounded factor while they rotate, so the returned threshold
    is the worst value the passing probes actually reach (with a small
    safety margin), together with the start level that realizes it.
    """
    if fld.regime != SINGULAR:
        raise ValueError("probe_N0 applies to singular fields")
    period = fld.model.period
    n = fld.model.n_mode
    diag = {"failures": {}, "level_floor": {}}
    for level in N0_LEVELS:
        ok = True
        reached = math.inf
        for (x0, y0) in _n_level_states(float(level), N0_PROBES):
            try:
                traj = integrate(fld, PhaseState(0.0, x0, y0), period, opts)
            except (ValueError, RuntimeError, ArithmeticError) as e:
                # a wall hit, a blow-up or a domain error disqualifies
                diag["failures"][float(level)] = f"integration: {e}"
                ok = False
                break
            if np.any(np.diff(traj.theta) > 1e-9):
                diag["failures"][float(level)] = "not clockwise"
                ok = False
                break
            nm = 1.0 / traj.x ** 2 + traj.x ** 2 + traj.y ** 2
            reached = min(reached, float(np.min(nm)))
            laps = (traj.theta[0] - traj.theta[-1]) / (2.0 * math.pi)
            if not (n - 0.45 <= laps <= n + 1.45):
                diag["failures"][float(level)] = f"lap count {laps:.2f}"
                ok = False
                break
        if ok:
            diag["level_floor"][float(level)] = reached
            diag["start_level"] = float(level)
            return 0.9 * reached, diag
    raise ValueError("no largeness level passed the probe checks")
