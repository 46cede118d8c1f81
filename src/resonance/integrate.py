"""Planar integration of x' = y, -y' = g_lambda(t, x) with event detection.

The stepper is an embedded Dormand-Prince 5(4) pair with the standard
quartic dense output.  Events (crossings of x = d, x = 0, y = 0 and, in
singular mode, x = 1) are located by bisection on the dense output.  The
polar angle about the rotation center ((0,0) on the full line, (1,0) in
singular mode) is lifted continuously along the samples, subdividing steps
through the dense output whenever the swept angle would jump.  A step builds
its dense output only when an event flips sign or the angle is subdivided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .model import FULL_LINE, SINGULAR, NonlinearityModel
from .spectrum import eigenvalue

__all__ = [
    "IntegrateOpts", "PhaseState", "Event", "Trajectory", "HomotopyField",
    "BlowUpError", "DomainExitError", "CenterHitError", "LapPatternError",
    "g_lambda", "integrate", "integrate_system", "rotation_count",
    "crossing_times", "measure_halfturn", "LapInstants",
]


class BlowUpError(RuntimeError):
    """Step size underflow while the state grows: finite-time escape."""

    def __init__(self, t, x, y, message="step size underflow"):
        self.t, self.x, self.y = t, x, y
        super().__init__(f"{message} at t={t:.6g}, x={x:.6g}, y={y:.6g}")


class DomainExitError(RuntimeError):
    """Singular mode only: the solution reached the wall x = 0."""

    def __init__(self, t, x, y):
        self.t, self.x, self.y = t, x, y
        super().__init__(f"domain exit (x -> 0+) at t={t:.6g}, x={x:.6g}")


class CenterHitError(RuntimeError):
    """Trajectory passed too close to the rotation center for a lift."""


class LapPatternError(RuntimeError):
    """Crossing pattern of a large lap not found in the event stream."""


class _StageDomain(Exception):
    pass


@dataclass(frozen=True)
class IntegrateOpts:
    rtol: float = 1e-10
    atol: float = 1e-10
    event_tol: float = 1e-10       # bisection width for event times
    max_step: Optional[float] = None  # default: span / 64


_FIRST_STEP = 1e-4
_STEP_FLOOR = 1e-14
_BLOWUP_BOUND = 1e100      # escaping orbits hit this fast; bounded dynamics
                           # never do
_CENTER_TOL = 1e-8         # closest approach to the center for an angle lift
_THETA_STEP = math.pi / 4  # max swept angle between samples
_MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class PhaseState:
    t: float
    x: float
    y: float


@dataclass(frozen=True)
class Event:
    kind: str   # cross_x_eq_d | cross_x_eq_0 | cross_y_eq_0 | cross_x_eq_1
    t: float
    x: float
    y: float


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    rho: np.ndarray
    theta: np.ndarray
    events: list
    center: tuple
    meta: dict = field(default_factory=dict)

    def state_at_end(self) -> PhaseState:
        return PhaseState(float(self.t[-1]), float(self.x[-1]), float(self.y[-1]))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.x)))

    def min_rho(self) -> float:
        return float(np.min(self.rho))


@dataclass(frozen=True)
class HomotopyField:
    """Interpolated field g_lam = lam*f + (1-lam)*h.

    On the full line h replaces f with the midband slope mu for x > 0 and
    interpolates on [-1, 0]; in singular mode it does the same above x = 1,
    interpolating on [1/2, 1].  mu defaults to the midpoint of the declared
    band and may be overridden (comparison fields pinned to one edge).

    The field is compiled once per instance: on first use g and h build
    closures with lam, mu and f bound, so an evaluation does no attribute
    lookups and never recomputes mu.
    """

    model: NonlinearityModel
    lam: float = 1.0
    mu: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")

    @property
    def regime(self) -> str:
        return self.model.domain

    @cached_property
    def mu_mid(self) -> float:
        if self.mu is not None:
            return self.mu
        t_ = self.model.period
        n = self.model.n_mode
        return 0.5 * (eigenvalue(n, t_) + eigenvalue(n + 1, t_))

    def g(self, t: float, x: float) -> float:
        return self._g(t, x)

    @cached_property
    def _h(self) -> Callable[[float, float], float]:
        mu = self.mu_mid
        f = self.model.f
        if self.regime == FULL_LINE:
            def h(t, x):
                if x < -1.0:
                    return f(t, x)
                if x <= 0.0:
                    return mu * x + x * (mu * x - f(t, x))
                return mu * x
        else:
            def h(t, x):
                if x < 0.5:
                    return f(t, x)
                if x <= 1.0:
                    return (2.0 * x - 1.0) * mu * x + (2.0 - 2.0 * x) * f(t, x)
                return mu * x
        return h

    @cached_property
    def _g(self) -> Callable[[float, float], float]:
        lam = self.lam
        f = self.model.f
        if lam == 1.0:
            return f
        h = self._h
        if lam == 0.0:
            return h
        lam_h = 1.0 - lam
        mu = self.mu_mid
        # the blend of h, written out so that f is evaluated once per call
        if self.regime == FULL_LINE:
            def g(t, x):
                fx = f(t, x)
                if x < -1.0:
                    return lam * fx + lam_h * fx
                if x <= 0.0:
                    return lam * fx + lam_h * (mu * x + x * (mu * x - fx))
                return lam * fx + lam_h * (mu * x)
        else:
            def g(t, x):
                fx = f(t, x)
                if x < 0.5:
                    return lam * fx + lam_h * fx
                if x <= 1.0:
                    return lam * fx + lam_h * ((2.0 * x - 1.0) * mu * x
                                               + (2.0 - 2.0 * x) * fx)
                return lam * fx + lam_h * (mu * x)
        return g


def g_lambda(fld: HomotopyField, t: float, x: float) -> float:
    """Value of the interpolated nonlinearity; exact endpoints at lam 0/1."""
    if fld.regime == SINGULAR and x <= 0.0:
        raise DomainExitError(t, x, 0.0)
    return fld.g(t, x)


# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_A71, _A73, _A74, _A75, _A76 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                                -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
_D1 = -12715105075.0 / 11282082432.0
_D3 = 87487479700.0 / 32700410799.0
_D4 = -10690763975.0 / 1880347072.0
_D5 = 701980252875.0 / 199316789632.0
_D6 = -1453857185.0 / 822651844.0
_D7 = 69997945.0 / 29380423.0

_EVENT_KINDS = ("cross_x_eq_d", "cross_x_eq_0", "cross_y_eq_0", "cross_x_eq_1")


class _Dense:
    """Quartic interpolant over one accepted step."""

    __slots__ = ("t0", "h", "cx", "cy")

    def __init__(self, t0, h, x0, y0, x1, y1, kx, ky):
        self.t0, self.h = t0, h
        dx, dy = x1 - x0, y1 - y0
        bx = h * kx[0] - dx
        by = h * ky[0] - dy
        cx4 = dx - h * kx[6] - bx
        cy4 = dy - h * ky[6] - by
        cx5 = h * (_D1 * kx[0] + _D3 * kx[2] + _D4 * kx[3] + _D5 * kx[4]
                   + _D6 * kx[5] + _D7 * kx[6])
        cy5 = h * (_D1 * ky[0] + _D3 * ky[2] + _D4 * ky[3] + _D5 * ky[4]
                   + _D6 * ky[5] + _D7 * ky[6])
        self.cx = (x0, dx, bx, cx4, cx5)
        self.cy = (y0, dy, by, cy4, cy5)

    def eval(self, t):
        s = (t - self.t0) / self.h
        s1 = 1.0 - s
        c = self.cx
        x = c[0] + s * (c[1] + s1 * (c[2] + s * (c[3] + s1 * c[4])))
        c = self.cy
        y = c[0] + s * (c[1] + s1 * (c[2] + s * (c[3] + s1 * c[4])))
        return x, y


def _bisect_event(dense, phi, t_lo, t_hi, tol):
    f_lo = phi(*dense.eval(t_lo))
    for _ in range(200):
        if t_hi - t_lo <= tol:
            break
        t_mid = 0.5 * (t_lo + t_hi)
        f_mid = phi(*dense.eval(t_mid))
        if f_lo * f_mid <= 0.0:
            t_hi = t_mid
        else:
            t_lo, f_lo = t_mid, f_mid
    t_ev = 0.5 * (t_lo + t_hi)
    x_ev, y_ev = dense.eval(t_ev)
    return t_ev, x_ev, y_ev


def integrate(fld: HomotopyField, z0: PhaseState, t_end: float,
              opts: IntegrateOpts = IntegrateOpts(),
              d: Optional[float] = None,
              rider: Optional[Callable] = None) -> Trajectory:
    """Integrate the planar system from z0 to t_end with dense events.

    d, when given, adds crossing events for the left threshold x = d.
    rider, when given, is a scalar quadrature channel r' = rider(t, x, y, r)
    carried along as a passenger: it starts at r = 0, is stepped once per
    accepted step with the same tableau on that step's stage states, and
    its final value is returned in meta["rider"].  It stays out of the
    error norm, the events, the dense output and the samples, so the
    trajectory is bit-identical to the run without it; in singular mode
    it sees only stage states with x > 0.
    Raises BlowUpError on step underflow with a growing state and
    DomainExitError when a singular-mode solution reaches the wall.
    """
    singular = fld.regime == SINGULAR
    if singular and z0.x <= 0.0:
        raise DomainExitError(z0.t, z0.x, z0.y)
    if not (math.isfinite(z0.x) and math.isfinite(z0.y)):
        raise ValueError("initial state must be finite")

    # The stage slopes of x' = y, y' = -g(t, x) are written out below: the
    # x-slope is the stage's y, the y-slope -g(t, x).  In singular mode a
    # stage at x <= 0 is rejected before g sees it.
    g = fld.g
    cx = 1.0 if singular else 0.0
    span = t_end - z0.t
    if span <= 0:
        raise ValueError("t_end must exceed z0.t")
    max_step = opts.max_step if opts.max_step is not None else span / 64.0
    t_stop = t_end - 1e-14 * max(1.0, abs(t_end))
    rtol, atol, theta_step = opts.rtol, opts.atol, _THETA_STEP
    step_floor, blowup_bound = _STEP_FLOOR, _BLOWUP_BOUND

    # event functions on (x, y); the step loop tests their sign flips inline
    events_def = [("cross_x_eq_0", lambda x, y: x),
                  ("cross_y_eq_0", lambda x, y: y)]
    if d is not None:
        events_def.append(("cross_x_eq_d", lambda x, y, _d=d: x - _d))
    if singular:
        events_def.append(("cross_x_eq_1", lambda x, y: x - 1.0))
    d_event = d is not None

    t, x, y = z0.t, z0.x, z0.y
    ts = [t]; xs = [x]; ys = [y]
    theta_prev = math.atan2(y, x - cx)
    thetas = [theta_prev]
    rhos = [math.hypot(x - cx, y)]
    events: list[Event] = []

    kx1, ky1 = y, -g(t, x)
    r = 0.0
    h = min(_FIRST_STEP, max_step, span)
    n_steps = 0

    while t < t_stop:
        n_steps += 1
        if n_steps > _MAX_STEPS:
            raise RuntimeError("step budget exceeded")
        h = min(h, t_end - t, max_step)
        if singular and y < 0.0:
            # predictive wall cap: one step cannot carry x across 0
            cap = 0.8 * x / (-y)
            h = min(h, max(cap, step_floor))
        if h < step_floor:
            if singular and x < 1e-6:
                raise DomainExitError(t, x, y)
            raise BlowUpError(t, x, y)

        try:
            x2 = x + h * _A21 * kx1
            kx2 = y + h * _A21 * ky1
            if singular and x2 <= 0.0:
                raise _StageDomain()
            ky2 = -g(t + _C2 * h, x2)
            x3 = x + h * (_A31 * kx1 + _A32 * kx2)
            kx3 = y + h * (_A31 * ky1 + _A32 * ky2)
            if singular and x3 <= 0.0:
                raise _StageDomain()
            ky3 = -g(t + _C3 * h, x3)
            x4 = x + h * (_A41 * kx1 + _A42 * kx2 + _A43 * kx3)
            kx4 = y + h * (_A41 * ky1 + _A42 * ky2 + _A43 * ky3)
            if singular and x4 <= 0.0:
                raise _StageDomain()
            ky4 = -g(t + _C4 * h, x4)
            x5 = x + h * (_A51 * kx1 + _A52 * kx2 + _A53 * kx3 + _A54 * kx4)
            kx5 = y + h * (_A51 * ky1 + _A52 * ky2 + _A53 * ky3 + _A54 * ky4)
            if singular and x5 <= 0.0:
                raise _StageDomain()
            ky5 = -g(t + _C5 * h, x5)
            x6 = x + h * (_A61 * kx1 + _A62 * kx2 + _A63 * kx3
                          + _A64 * kx4 + _A65 * kx5)
            kx6 = y + h * (_A61 * ky1 + _A62 * ky2 + _A63 * ky3
                           + _A64 * ky4 + _A65 * ky5)
            if singular and x6 <= 0.0:
                raise _StageDomain()
            ky6 = -g(t + h, x6)
            x1 = x + h * (_A71 * kx1 + _A73 * kx3 + _A74 * kx4 + _A75 * kx5
                          + _A76 * kx6)
            y1 = y + h * (_A71 * ky1 + _A73 * ky3 + _A74 * ky4 + _A75 * ky5
                          + _A76 * ky6)
            if singular and x1 <= 0.0:
                raise _StageDomain()
            kx7, ky7 = y1, -g(t + h, x1)
        except (_StageDomain, ValueError, ZeroDivisionError, OverflowError):
            h *= 0.5
            continue

        err_x = h * (_E1 * kx1 + _E3 * kx3 + _E4 * kx4 + _E5 * kx5
                     + _E6 * kx6 + _E7 * kx7)
        err_y = h * (_E1 * ky1 + _E3 * ky3 + _E4 * ky4 + _E5 * ky5
                     + _E6 * ky6 + _E7 * ky7)
        sc_x = atol + rtol * max(abs(x), abs(x1))
        sc_y = atol + rtol * max(abs(y), abs(y1))
        # hypot stays finite even when a trial step is wildly too large
        err = math.hypot(err_x / sc_x, err_y / sc_y) / math.sqrt(2.0)

        if err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            continue

        # the dense output is built only for an event or an angle subdivision
        flips = (x * x1 < 0.0 or y * y1 < 0.0
                 or (d_event and (x - d) * (x1 - d) < 0.0)
                 or (singular and (x - 1.0) * (x1 - 1.0) < 0.0))
        th_new_raw = math.atan2(y1, x1 - cx)
        delta = th_new_raw - theta_prev
        if not -math.pi < delta <= math.pi:
            delta = _wrap_pi(delta)
        subdivide = abs(delta) > theta_step
        if flips or subdivide:
            dense = _Dense(t, h, x, y, x1, y1,
                           (kx1, kx2, kx3, kx4, kx5, kx6, kx7),
                           (ky1, ky2, ky3, ky4, ky5, ky6, ky7))

        if flips:
            # events: bisection on the dense output where the sign flips
            step_events = []
            for kind, phi in events_def:
                f_a, f_b = phi(x, y), phi(x1, y1)
                if f_a * f_b < 0.0:
                    t_ev, x_ev, y_ev = _bisect_event(dense, phi, t, t + h,
                                                     opts.event_tol)
                    step_events.append(Event(kind, t_ev, x_ev, y_ev))
            step_events.sort(key=lambda e: e.t)
            events.extend(step_events)

        # continuous angle lift, subdividing through the dense output
        if subdivide:
            m = int(abs(delta) / theta_step) + 1
            for i in range(1, m):
                ti = t + h * i / m
                xi, yi = dense.eval(ti)
                thi_raw = math.atan2(yi, xi - cx)
                di = _wrap_pi(thi_raw - theta_prev)
                theta_prev = theta_prev + di
                ts.append(ti); xs.append(xi); ys.append(yi)
                thetas.append(theta_prev)
                rhos.append(math.hypot(xi - cx, yi))
            delta = _wrap_pi(th_new_raw - theta_prev)
        theta_prev = theta_prev + delta

        if rider is not None:
            # the stage states (t + c_i h, x_i, kx_i) of the accepted step
            kr1 = rider(t, x, y, r)
            kr2 = rider(t + _C2 * h, x2, kx2, r + h * _A21 * kr1)
            kr3 = rider(t + _C3 * h, x3, kx3,
                        r + h * (_A31 * kr1 + _A32 * kr2))
            kr4 = rider(t + _C4 * h, x4, kx4,
                        r + h * (_A41 * kr1 + _A42 * kr2 + _A43 * kr3))
            kr5 = rider(t + _C5 * h, x5, kx5,
                        r + h * (_A51 * kr1 + _A52 * kr2 + _A53 * kr3
                                 + _A54 * kr4))
            kr6 = rider(t + h, x6, kx6,
                        r + h * (_A61 * kr1 + _A62 * kr2 + _A63 * kr3
                                 + _A64 * kr4 + _A65 * kr5))
            r += h * (_A71 * kr1 + _A73 * kr3 + _A74 * kr4 + _A75 * kr5
                      + _A76 * kr6)

        t, x, y = t + h, x1, y1
        kx1, ky1 = kx7, ky7
        ts.append(t); xs.append(x); ys.append(y)
        thetas.append(theta_prev)
        rhos.append(math.hypot(x - cx, y))

        if abs(x) > blowup_bound or abs(y) > blowup_bound:
            raise BlowUpError(t, x, y, "state bound exceeded")

        h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))

    meta = dict(rtol=opts.rtol, atol=opts.atol, event_tol=opts.event_tol,
                d=d, lam=fld.lam, regime=fld.regime)
    if rider is not None:
        meta["rider"] = r
    return Trajectory(np.array(ts), np.array(xs), np.array(ys),
                      np.array(rhos), np.array(thetas), events,
                      (cx, 0.0), meta=meta)


def _wrap_pi(a: float) -> float:
    while a > math.pi:
        a -= 2.0 * math.pi
    while a <= -math.pi:
        a += 2.0 * math.pi
    return a


def integrate_system(rhs: Callable, y0, t0: float, t_end: float,
                     opts: IntegrateOpts = IntegrateOpts(),
                     guard: Optional[Callable] = None,
                     t_stops=None):
    """General-dimension variant of the same pair (numpy states, no events).

    rhs(t, y) -> array; guard(t, y) may raise to abort a stage; steps are
    clamped to land exactly on any times in t_stops.  Returns (ts, ys)
    sample arrays.
    """
    y = np.asarray(y0, dtype=float)
    t = t0
    span = t_end - t0
    max_step = opts.max_step if opts.max_step is not None else span / 64.0
    stops = None
    if t_stops is not None:
        stops = np.asarray(sorted(set(float(s) for s in t_stops
                                      if t0 < s <= t_end)))
    a = [None,
         (_A21,),
         (_A31, _A32),
         (_A41, _A42, _A43),
         (_A51, _A52, _A53, _A54),
         (_A61, _A62, _A63, _A64, _A65)]
    c = (0.0, _C2, _C3, _C4, _C5, 1.0)
    b = (_A71, 0.0, _A73, _A74, _A75, _A76)
    e = (_E1, 0.0, _E3, _E4, _E5, _E6, _E7)

    ts = [t]
    ys = [y.copy()]
    rtol, atol, step_floor = opts.rtol, opts.atol, _STEP_FLOOR
    k1 = np.asarray(rhs(t, y))
    h = min(_FIRST_STEP, max_step, span)
    n = 0
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        n += 1
        if n > _MAX_STEPS:
            raise RuntimeError("step budget exceeded")
        h = min(h, t_end - t, max_step)
        if stops is not None:
            k_next = int(np.searchsorted(stops, t + 1e-14 * max(1.0, abs(t))))
            if k_next < len(stops):
                h = min(h, stops[k_next] - t)
        if h < step_floor:
            raise BlowUpError(t, float(y[0]), float(y[-1]))
        try:
            ks = [k1]
            for s in range(1, 6):
                ys_stage = y + h * sum(aa * kk for aa, kk in zip(a[s], ks))
                if guard is not None:
                    guard(t + c[s] * h, ys_stage)
                ks.append(np.asarray(rhs(t + c[s] * h, ys_stage)))
            y1 = y + h * sum(bb * kk for bb, kk in zip(b, ks))
            if guard is not None:
                guard(t + h, y1)
            k7 = np.asarray(rhs(t + h, y1))
            ks.append(k7)
        except (_StageDomain, ValueError, ZeroDivisionError, OverflowError):
            h *= 0.5
            continue
        err_vec = h * sum(ee * kk for ee, kk in zip(e, ks))
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y1))
        ratios = np.abs(err_vec / sc)
        peak = float(np.max(ratios))
        err = (peak * math.sqrt(float(np.mean((ratios / peak) ** 2)))
               if peak > 0.0 else 0.0)
        if err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.2)
            continue
        t, y, k1 = t + h, y1, k7
        ts.append(t)
        ys.append(y.copy())
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
    return np.array(ts), np.array(ys)


def rotation_count(traj: Trajectory) -> float:
    """Clockwise turns about the rotation center over the whole trajectory."""
    if traj.min_rho() < _CENTER_TOL:
        raise CenterHitError(
            f"trajectory reached rho={traj.min_rho():.3g}; angle lift is unreliable")
    return float((traj.theta[0] - traj.theta[-1]) / (2.0 * math.pi))


@dataclass(frozen=True)
class LapInstants:
    t1: float; t2: float; t3: float; t4: float
    t5: float; t6: float; t7: float; t8: float


def _classify_event(ev: Event, d: float) -> Optional[str]:
    if ev.kind == "cross_x_eq_d":
        return "A" if ev.y > 0 else "E"
    if ev.kind == "cross_x_eq_0":
        return "B" if ev.y > 0 else "D"
    if ev.kind == "cross_y_eq_0":
        if ev.x > 0:
            return "C"
        if ev.x < d:
            return "F"
        return "turn_in_band"   # turning point between d and 0: small lap
    return None


def crossing_times(traj: Trajectory, d: float) -> LapInstants:
    """Extract the eight labelled instants of one large clockwise lap.

    Pattern (clockwise, starting on x=d moving right with y>0):
    x=d up (t1), x=0 up (t2), y=0 right (t3), x=0 down (t4), x=d down (t5),
    y=0 left (t6), x=d up (t7), x=0 up (t8).
    """
    if d >= 0:
        raise ValueError("threshold d must be negative")
    labels = [(ev.t, _classify_event(ev, d)) for ev in sorted(traj.events, key=lambda e: e.t)]
    labels = [(t, lab) for t, lab in labels if lab is not None]
    want = ["A", "B", "C", "D", "E", "F", "A", "B"]
    for start in range(len(labels)):
        if labels[start][1] != "A":
            continue
        seq = labels[start:start + 8]
        if len(seq) < 8:
            raise LapPatternError("lap incomplete: event stream ends mid-lap")
        if [lab for _, lab in seq] == want:
            return LapInstants(*(t for t, _ in seq))
        raise LapPatternError(
            "crossing pattern mismatch (trajectory not large enough): "
            + "".join(lab for _, lab in seq))
    raise LapPatternError("no x=d upward crossing found")


def measure_halfturn(fld: HomotopyField, y0: float, opts: IntegrateOpts = IntegrateOpts(),
                     horizon: Optional[float] = None) -> tuple[float, float]:
    """Durations (right half-turn, left half-turn) from the start (0, y0).

    Starting on the positive y-axis, the right half-turn ends at the x=0
    downward crossing and the left half-turn at the next upward one.
    """
    if y0 <= 0:
        raise ValueError("y0 must be positive")
    if horizon is None:
        horizon = 2.0 * fld.model.period
    traj = integrate(fld, PhaseState(0.0, 0.0, y0), horizon, opts)
    seq = [ev for ev in sorted(traj.events, key=lambda e: e.t)
           if ev.kind in ("cross_x_eq_0", "cross_y_eq_0")]
    t4 = t8 = None
    stage = 0   # 0: expect y=0 (x>0); 1: expect x=0 down; 2: expect x=0 up
    for ev in seq:
        if stage == 0 and ev.kind == "cross_y_eq_0" and ev.x > 0:
            stage = 1
        elif stage == 1 and ev.kind == "cross_x_eq_0" and ev.y < 0:
            t4 = ev.t
            stage = 2
        elif stage == 2 and ev.kind == "cross_x_eq_0" and ev.y > 0:
            t8 = ev.t
            break
    if t4 is None or t8 is None:
        raise LapPatternError("half-turn pattern not completed within the horizon")
    return t4, t8 - t4
