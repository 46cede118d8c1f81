"""Planar integration of x' = y, -y' = g(t, x) with event detection.

The stepper is the Dormand-Prince 8(5,3) pair DOP853 (12 field evaluations
per step, the last one reused as the next step's first) with its
7th-order dense output; as in Hairer's dop853, the step after a rejected
one does not grow.  Events (crossings of x = d, x = 0, y = 0 and, in
singular mode, x = 1) are located by Illinois regula falsi on the dense
output.  The polar angle about the rotation center ((0,0) on the full line,
(1,0) in singular mode) is lifted continuously along the samples,
subdividing steps through the dense output whenever the swept angle would
jump.  A step builds its dense output (three more field evaluations) only
when an event flips sign, a kink is near or the angle is subdivided.  A
stage at which the field raises is thrown away.  In singular mode that
holds the wall: the model's f raises at x <= 0, and a predictive cap
keeps each step short of it.

A kink is a point where g's x-derivative jumps (HomotopyField.kinks).  A
step across one loses accuracy, and the error estimate sees that only
through a run of rejected steps creeping up on it.  So each accepted step
predicts, from the second-order Taylor model at its end, when the next
crossing comes, and the next step stops 1% short of it.  A step that ends
within 5% of its length short of a kink, or crosses one, is taken again,
ending just past the crossing located on its dense output, so that the
step after starts on the kink's far side (stop at the switching point,
then restart: Gear & Osterby, ACM TOMS 10, 1984).

integrate_system, a general-dimension Dormand-Prince 5(4) integrator, is
kept as the tests' independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .expr import DomainError, WallError, evaluate
from .model import FULL_LINE, SINGULAR, NonlinearityModel, split_point
from .spectrum import eigenvalue

__all__ = [
    "PhaseState", "Event", "Trajectory", "HomotopyField",
    "BlowUpError", "DomainExitError", "CenterHitError", "LapPatternError",
    "INTEGRATION_FAILURES", "TOL",
    "integrate", "integrate_system", "rotation_count", "crossing_times",
    "LapInstants",
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


# what an integration of a sound field raises when its orbit cannot be
# followed: a blow-up, the singular wall or a subexpression off its domain
INTEGRATION_FAILURES = (BlowUpError, DomainExitError, DomainError)


class CenterHitError(RuntimeError):
    """Trajectory passed too close to the rotation center for a lift."""


class LapPatternError(RuntimeError):
    """Crossing pattern of a large lap not found in the event stream."""


# what a field evaluation at a trial stage may raise; a stage error
# rejects the step.  WallError (a singular-mode stage at x <= 0) carries no
# state: the wall is no subexpression to name at step underflow
_FIELD_ERRORS = (DomainError, ValueError, ZeroDivisionError, OverflowError)
_STAGE_ERRORS = (WallError,) + _FIELD_ERRORS


# the program's integration tolerance: shooting needs the return map
# resolved below Newton's target, the residual that certifies a fixed point
TOL = 1e-11

_FIRST_STEP = 1e-4
_STEP_FLOOR = 1e-14
_BLOWUP_BOUND = 1e100      # escaping orbits hit this fast; bounded dynamics
                           # never do
_CENTER_TOL = 1e-8         # closest approach to the center for an angle lift
_THETA_STEP = math.pi / 4  # max swept angle between samples
_MAX_STEPS = 5_000_000
_EVENT_TOL = 1e-10         # bracket width for event and kink times


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
    interpolating on [1/2, 1].  mu is the midpoint of the declared band.

    The field is compiled once per instance: on first use g builds one
    closure with lam, mu and f bound, so an evaluation does no attribute
    lookups and never recomputes mu.  f for lam = 1, else the blend
    written out once, lam = 0 included: there f is still evaluated at
    every x and weighted by 0, so g is h wherever f is finite and nan
    where f overflows.
    """

    model: NonlinearityModel
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")

    @cached_property
    def kinks(self) -> tuple:
        """The x where g's x-derivative may jump, ascending: the split
        point of a piecewise model and, for lam < 1, the knots of h's
        blend.  A single expression declares none."""
        pts = set()
        if len(self.model.trees) == 2:
            pts.add(split_point(self.model.domain))
        if self.lam < 1.0:
            pts.update((-1.0, 0.0) if self.model.domain == FULL_LINE
                       else (0.5, 1.0))
        return tuple(sorted(pts))

    @cached_property
    def mu_mid(self) -> float:
        t_ = self.model.period
        n = self.model.n_mode
        return 0.5 * (eigenvalue(n, t_) + eigenvalue(n + 1, t_))

    def g(self, t: float, x: float) -> float:
        try:
            return self._g(t, x)
        except _FIELD_ERRORS as e:
            e.state = (t, x)    # for integrate's report at step underflow
            raise

    @cached_property
    def _g(self) -> Callable[[float, float], float]:
        lam = self.lam
        f = self.model.f
        if lam == 1.0:
            return f
        lam_h = 1.0 - lam
        mu = self.mu_mid
        # the blend of h, written out so that f is evaluated once per call
        if self.model.domain == FULL_LINE:
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


# The Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett & Wanner, Solving
# ODEs I, section II.10): _A<i>_<j> is the weight of stage j's slope in
# stage i, _C<i> the time fraction of stage i (c12 = c13 = 1; stage 13 is
# the step's end, first-same-as-last).  Stages 14-16 and _D<p>_<j> build
# the 7th-order dense output.
(_C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11) = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571)
_C14, _C15, _C16 = (0.1, 0.2, 0.7777777777777778)
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = (0.0197250569845379, 0.0591751709536137)
_A4_1, _A4_3 = (0.02958758547680685, 0.08876275643042054)
(_A5_1, _A5_3, _A5_4) = (
    0.2413651341592667, -0.8845494793282861, 0.924834003261792)
(_A6_1, _A6_4, _A6_5) = (
    0.037037037037037035, 0.17082860872947386, 0.12546768756682242)
(_A7_1, _A7_4, _A7_5, _A7_6) = (
    0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125)
(_A8_1, _A8_4, _A8_5, _A8_6, _A8_7) = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023)
(_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8) = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996)
(_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9) = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627)
(_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10) = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196)
(_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11) = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636)
# weights of the 8th-order solution
(_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12) = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259)
# 5th-order error weights
(_E1, _E6, _E7, _E8, _E9, _E10, _E11, _E12) = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294)
# the 3rd-order solution's weights differ from B only at stages 1, 9 and 12
(_BH1, _BH9, _BH12) = (
    0.2440944881889764, 0.7338466882816118, 0.022058823529411766)
# the three extra stages of the dense output
(_A14_1, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13) = (
    0.056167502283047954, 0.25350021021662483, -0.2462390374708025,
    -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
    0.007567897660545699, -0.008298)
(_A15_1, _A15_6, _A15_7, _A15_8, _A15_11, _A15_12, _A15_13, _A15_14) = (
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566,
    -0.05492374857139099, -0.00010834732869724932, 0.0003825710908356584,
    -0.00034046500868740456, 0.1413124436746325)
(_A16_1, _A16_6, _A16_7, _A16_8, _A16_9, _A16_13, _A16_14, _A16_15) = (
    -0.42889630158379194, -4.697621415361164, 7.683421196062599,
    4.06898981839711, 0.3567271874552811, -0.0013990241651590145,
    2.9475147891527724, -9.15095847217987)
# dense-output coefficients of the powers 4 to 7
(_D4_1, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14,
 _D4_15, _D4_16) = (
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917,
    2.38466765651207, 2.117034582445028, -0.871391583777973,
    2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
    18.148505520854727, -9.194632392478356, -4.436036387594894)
(_D5_1, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14,
 _D5_15, _D5_16) = (
    10.427508642579134, 242.28349177525817, 165.20045171727028,
    -374.5467547226902, -22.113666853125306, 7.733432668472264,
    -30.674084731089398, -9.332130526430229, 15.697238121770845,
    -31.139403219565178, -9.35292435884448, 35.81684148639408)
(_D6_1, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14,
 _D6_15, _D6_16) = (
    19.985053242002433, -387.0373087493518, -189.17813819516758,
    527.8081592054236, -11.57390253995963, 6.8812326946963,
    -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
    -60.19669523126412, 84.32040550667716, 11.99229113618279)
(_D7_1, _D7_6, _D7_7, _D7_8, _D7_9, _D7_10, _D7_11, _D7_12, _D7_13, _D7_14,
 _D7_15, _D7_16) = (
    -25.69393346270375, -154.18974869023643, -231.5293791760455,
    357.6391179106141, 93.40532418362432, -37.45832313645163,
    104.0996495089623, 29.8402934266605, -43.53345659001114, 96.32455395918828,
    -39.17726167561544, -149.72683625798564)

_LAND_AFTER = 0.01   # a kink crossed in a step's first 1% is not landed on
_APPROACH = 0.01     # a step toward a kink stops 1% short of its predicted
                     # crossing ...
_NEAR = 0.05         # ... and one that ends within 5% of a step's length
                     # of it is taken again, ending on it


def _dense_coeffs(h, p0, p1, k):
    """(p0, F0, ..., F6) of one component's interpolant; k holds its
    slopes at stages 1 and 6-16."""
    k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16 = k
    dp = p1 - p0
    return (p0, dp, h * k1 - dp, 2.0 * dp - h * (k13 + k1),
            h * (_D4_1 * k1 + _D4_6 * k6 + _D4_7 * k7 + _D4_8 * k8
                 + _D4_9 * k9 + _D4_10 * k10 + _D4_11 * k11 + _D4_12 * k12
                 + _D4_13 * k13 + _D4_14 * k14 + _D4_15 * k15 + _D4_16 * k16),
            h * (_D5_1 * k1 + _D5_6 * k6 + _D5_7 * k7 + _D5_8 * k8
                 + _D5_9 * k9 + _D5_10 * k10 + _D5_11 * k11 + _D5_12 * k12
                 + _D5_13 * k13 + _D5_14 * k14 + _D5_15 * k15 + _D5_16 * k16),
            h * (_D6_1 * k1 + _D6_6 * k6 + _D6_7 * k7 + _D6_8 * k8
                 + _D6_9 * k9 + _D6_10 * k10 + _D6_11 * k11 + _D6_12 * k12
                 + _D6_13 * k13 + _D6_14 * k14 + _D6_15 * k15 + _D6_16 * k16),
            h * (_D7_1 * k1 + _D7_6 * k6 + _D7_7 * k7 + _D7_8 * k8
                 + _D7_9 * k9 + _D7_10 * k10 + _D7_11 * k11 + _D7_12 * k12
                 + _D7_13 * k13 + _D7_14 * k14 + _D7_15 * k15 + _D7_16 * k16))


def _interp(c, s):
    """The interpolant with coefficients c (from _dense_coeffs) at the
    fraction s of its step."""
    s1 = 1.0 - s
    return c[0] + s * (c[1] + s1 * (c[2] + s * (c[3] + s1 * (
        c[4] + s * (c[5] + s1 * (c[6] + s * c[7]))))))


class _Dense:
    """7th-order interpolant over one accepted step.  Its three extra
    stages are its only field evaluations; kx and ky hold the slopes of
    stages 1 and 6-13 (the others have no weight in it), and extra keeps
    the states (x_i, kx_i) of stages 14-16 for the rider's interpolant."""

    __slots__ = ("t0", "h", "cx", "cy", "extra")

    def __init__(self, g, t, h, x, y, x1, y1, kx, ky):
        kx1, kx6, kx7, kx8, kx9, kx10, kx11, kx12, kx13 = kx
        ky1, ky6, ky7, ky8, ky9, ky10, ky11, ky12, ky13 = ky
        x14 = x + h * (_A14_1 * kx1 + _A14_7 * kx7 + _A14_8 * kx8
                       + _A14_9 * kx9 + _A14_10 * kx10 + _A14_11 * kx11
                       + _A14_12 * kx12 + _A14_13 * kx13)
        kx14 = y + h * (_A14_1 * ky1 + _A14_7 * ky7 + _A14_8 * ky8
                        + _A14_9 * ky9 + _A14_10 * ky10 + _A14_11 * ky11
                        + _A14_12 * ky12 + _A14_13 * ky13)
        ky14 = -g(t + _C14 * h, x14)
        x15 = x + h * (_A15_1 * kx1 + _A15_6 * kx6 + _A15_7 * kx7
                       + _A15_8 * kx8 + _A15_11 * kx11 + _A15_12 * kx12
                       + _A15_13 * kx13 + _A15_14 * kx14)
        kx15 = y + h * (_A15_1 * ky1 + _A15_6 * ky6 + _A15_7 * ky7
                        + _A15_8 * ky8 + _A15_11 * ky11 + _A15_12 * ky12
                        + _A15_13 * ky13 + _A15_14 * ky14)
        ky15 = -g(t + _C15 * h, x15)
        x16 = x + h * (_A16_1 * kx1 + _A16_6 * kx6 + _A16_7 * kx7
                       + _A16_8 * kx8 + _A16_9 * kx9 + _A16_13 * kx13
                       + _A16_14 * kx14 + _A16_15 * kx15)
        kx16 = y + h * (_A16_1 * ky1 + _A16_6 * ky6 + _A16_7 * ky7
                        + _A16_8 * ky8 + _A16_9 * ky9 + _A16_13 * ky13
                        + _A16_14 * ky14 + _A16_15 * ky15)
        ky16 = -g(t + _C16 * h, x16)
        self.t0, self.h = t, h
        self.extra = (x14, kx14, x15, kx15, x16, kx16)
        self.cx = _dense_coeffs(h, x, x1, (kx1, kx6, kx7, kx8, kx9, kx10, kx11,
                                           kx12, kx13, kx14, kx15, kx16))
        self.cy = _dense_coeffs(h, y, y1, (ky1, ky6, ky7, ky8, ky9, ky10, ky11,
                                           ky12, ky13, ky14, ky15, ky16))

    def eval(self, t):
        s = (t - self.t0) / self.h
        return _interp(self.cx, s), _interp(self.cy, s)


def _bracket_root(dense, phi, t_a, f_a, t_b, f_b, tol):
    """A bracket (t_a, t_b), at most tol wide, of a root of phi along the
    interpolant, from its values f_a and f_b of opposite signs at t_a and
    t_b.  Illinois regula falsi: a secant step that keeps the bracket,
    halving the value kept at an end that survives twice in a row, and that
    stays tol/2 inside it, so that a secant converging on one end steps
    across the root instead of creeping."""
    kept = 0     # +1: t_b survived the last step, -1: t_a did
    for _ in range(200):
        if t_b - t_a <= tol or f_a == 0.0 or f_b == 0.0:
            break
        t_c = min(max(t_b - f_b * (t_b - t_a) / (f_b - f_a), t_a + 0.5 * tol),
                  t_b - 0.5 * tol)
        if not t_a < t_c < t_b:
            t_c = 0.5 * (t_a + t_b)
            if not t_a < t_c < t_b:
                break
        f_c = phi(*dense.eval(t_c))
        if (f_c < 0.0) == (f_a < 0.0):
            t_a, f_a = t_c, f_c
            if kept == 1:
                f_b *= 0.5
            kept = 1
        else:
            t_b, f_b = t_c, f_c
            if kept == -1:
                f_a *= 0.5
            kept = -1
    if f_a == 0.0:
        t_b = t_a
    elif f_b == 0.0:
        t_a = t_b
    return t_a, t_b


def _time_to_kink(c, y, g):
    """Smallest s > 0 with c + y*s - g*s^2/2 = 0, the second-order Taylor
    model of x(t + s) - k from x - k = c, x' = y, x'' = -g; inf if none."""
    a = -0.5 * g
    if a == 0.0:
        return -c / y if c * y < 0.0 else math.inf
    disc = y * y - 4.0 * a * c
    if disc < 0.0:
        return math.inf
    q = -0.5 * (y + math.copysign(math.sqrt(disc), y))
    if q == 0.0:
        return math.inf
    r1, r2 = sorted((q / a, c / q))
    return r1 if r1 > 0.0 else r2 if r2 > 0.0 else math.inf


def integrate(fld: HomotopyField, z0: PhaseState, t_end: float,
              tol: float = 1e-10,
              d: Optional[float] = None,
              rider: Optional[Callable] = None) -> Trajectory:
    """Integrate the planar system from z0 to t_end with dense events.

    tol is both the relative and the absolute error tolerance of a step
    (its error scale is tol * (1 + |state|)); no step is longer than 1/64
    of the span.
    d, when given, adds crossing events for the left threshold x = d.
    Steps land on the crossings of fld.kinks (see the module docstring);
    meta["steps"] counts the steps kept and meta["rejected"] the ones
    thrown away, by the error test or to land on a kink.
    rider, when given, is a quadrature r' = rider(t, x, y) carried as a
    passenger: r starts at 0, advances by the tableau's weights over the
    stage states of each accepted step (8 rider calls per step), ends in
    meta["rider"] and is sampled in meta["rider_samples"] (at an angle
    subdivision by its own 7th-order interpolant, three more rider calls).
    Outside the error norm, the events and the dense output, it leaves the
    trajectory bit-identical to the run without it; in singular mode it
    sees only stage states with x > 0.
    A stage at which the field raises is rejected like one that fails the
    error test; in singular mode that includes every stage at or past the
    wall, where the model's compiled f raises expr.WallError.  Raises
    BlowUpError on step underflow with a growing state and
    DomainExitError when a singular-mode solution reaches the wall.
    When the last rejection before an underflow was a field evaluation
    that raised and the model has expression trees, the tree is evaluated
    at that stage's (t, x) instead: the DomainError naming the
    subexpression is raised, with (t, x, y, lambda).
    """
    singular = fld.model.domain == SINGULAR
    if singular and z0.x <= 0.0:
        raise DomainExitError(z0.t, z0.x, z0.y)
    if not (math.isfinite(z0.x) and math.isfinite(z0.y)):
        raise ValueError("initial state must be finite")

    # The stage slopes of x' = y, y' = -g(t, x) are written out below: the
    # x-slope is the stage's y, the y-slope -g(t, x).  In singular mode g
    # raises at a stage at x <= 0, and the stage is rejected.
    g = fld.g
    kinks = fld.kinks
    cx = 1.0 if singular else 0.0
    span = t_end - z0.t
    if not (span > 0.0 and math.isfinite(span)):
        raise ValueError("t_end must be finite and exceed z0.t")
    h_max = span / 64.0
    t_stop = t_end - 1e-14 * max(1.0, abs(t_end))
    theta_step = _THETA_STEP
    step_floor, blowup_bound = _STEP_FLOOR, _BLOWUP_BOUND
    sqrt2 = math.sqrt(2.0)

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
    r, rs = 0.0, [0.0]
    kr1 = rider(t, x, y) if rider is not None else None
    h = min(_FIRST_STEP, h_max, span)
    n_steps = n_rejected = 0
    landing = False     # the step under way ends on a kink crossing
    grow = True         # no rejection since the last accepted step
    failed = None       # (t, x) of a field error, the last rejection

    while t < t_stop:
        n_steps += 1
        if n_steps > _MAX_STEPS:
            raise RuntimeError("step budget exceeded")
        h = min(h, t_end - t, h_max)
        if singular and y < 0.0:
            # predictive wall cap: one step cannot carry x across 0
            cap = 0.8 * x / (-y)
            h = min(h, max(cap, step_floor))
        if h < step_floor:
            if singular and x < 1e-6:
                raise DomainExitError(t, x, y)
            if failed is not None and fld.model.trees:
                _raise_domain_error(fld, *failed, y)
            raise BlowUpError(t, x, y)

        try:
            x2 = x + h * (_A2_1 * kx1)
            kx2 = y + h * (_A2_1 * ky1)
            ky2 = -g(t + _C2 * h, x2)
            x3 = x + h * (_A3_1 * kx1 + _A3_2 * kx2)
            kx3 = y + h * (_A3_1 * ky1 + _A3_2 * ky2)
            ky3 = -g(t + _C3 * h, x3)
            x4 = x + h * (_A4_1 * kx1 + _A4_3 * kx3)
            kx4 = y + h * (_A4_1 * ky1 + _A4_3 * ky3)
            ky4 = -g(t + _C4 * h, x4)
            x5 = x + h * (_A5_1 * kx1 + _A5_3 * kx3 + _A5_4 * kx4)
            kx5 = y + h * (_A5_1 * ky1 + _A5_3 * ky3 + _A5_4 * ky4)
            ky5 = -g(t + _C5 * h, x5)
            x6 = x + h * (_A6_1 * kx1 + _A6_4 * kx4 + _A6_5 * kx5)
            kx6 = y + h * (_A6_1 * ky1 + _A6_4 * ky4 + _A6_5 * ky5)
            ky6 = -g(t + _C6 * h, x6)
            x7 = x + h * (_A7_1 * kx1 + _A7_4 * kx4 + _A7_5 * kx5
                          + _A7_6 * kx6)
            kx7 = y + h * (_A7_1 * ky1 + _A7_4 * ky4 + _A7_5 * ky5
                           + _A7_6 * ky6)
            ky7 = -g(t + _C7 * h, x7)
            x8 = x + h * (_A8_1 * kx1 + _A8_4 * kx4 + _A8_5 * kx5
                          + _A8_6 * kx6 + _A8_7 * kx7)
            kx8 = y + h * (_A8_1 * ky1 + _A8_4 * ky4 + _A8_5 * ky5
                           + _A8_6 * ky6 + _A8_7 * ky7)
            ky8 = -g(t + _C8 * h, x8)
            x9 = x + h * (_A9_1 * kx1 + _A9_4 * kx4 + _A9_5 * kx5
                          + _A9_6 * kx6 + _A9_7 * kx7 + _A9_8 * kx8)
            kx9 = y + h * (_A9_1 * ky1 + _A9_4 * ky4 + _A9_5 * ky5
                           + _A9_6 * ky6 + _A9_7 * ky7 + _A9_8 * ky8)
            ky9 = -g(t + _C9 * h, x9)
            x10 = x + h * (_A10_1 * kx1 + _A10_4 * kx4 + _A10_5 * kx5
                           + _A10_6 * kx6 + _A10_7 * kx7 + _A10_8 * kx8
                           + _A10_9 * kx9)
            kx10 = y + h * (_A10_1 * ky1 + _A10_4 * ky4 + _A10_5 * ky5
                            + _A10_6 * ky6 + _A10_7 * ky7 + _A10_8 * ky8
                            + _A10_9 * ky9)
            ky10 = -g(t + _C10 * h, x10)
            x11 = x + h * (_A11_1 * kx1 + _A11_4 * kx4 + _A11_5 * kx5
                           + _A11_6 * kx6 + _A11_7 * kx7 + _A11_8 * kx8
                           + _A11_9 * kx9 + _A11_10 * kx10)
            kx11 = y + h * (_A11_1 * ky1 + _A11_4 * ky4 + _A11_5 * ky5
                            + _A11_6 * ky6 + _A11_7 * ky7 + _A11_8 * ky8
                            + _A11_9 * ky9 + _A11_10 * ky10)
            ky11 = -g(t + _C11 * h, x11)
            x12 = x + h * (_A12_1 * kx1 + _A12_4 * kx4 + _A12_5 * kx5
                           + _A12_6 * kx6 + _A12_7 * kx7 + _A12_8 * kx8
                           + _A12_9 * kx9 + _A12_10 * kx10 + _A12_11 * kx11)
            kx12 = y + h * (_A12_1 * ky1 + _A12_4 * ky4 + _A12_5 * ky5
                            + _A12_6 * ky6 + _A12_7 * ky7 + _A12_8 * ky8
                            + _A12_9 * ky9 + _A12_10 * ky10 + _A12_11 * ky11)
            ky12 = -g(t + h, x12)
            sx = (_B1 * kx1 + _B6 * kx6 + _B7 * kx7 + _B8 * kx8 + _B9 * kx9
                  + _B10 * kx10 + _B11 * kx11 + _B12 * kx12)
            sy = (_B1 * ky1 + _B6 * ky6 + _B7 * ky7 + _B8 * ky8 + _B9 * ky9
                  + _B10 * ky10 + _B11 * ky11 + _B12 * ky12)
            x1 = x + h * sx
            y1 = y + h * sy
            # error norm of the 5th- and 3rd-order estimates (ex, ey and
            # sx - bh.k); hypot stays finite for a wildly too large trial
            # step, and a NaN error rejects the step
            ex = (_E1 * kx1 + _E6 * kx6 + _E7 * kx7 + _E8 * kx8 + _E9 * kx9
                  + _E10 * kx10 + _E11 * kx11 + _E12 * kx12)
            ey = (_E1 * ky1 + _E6 * ky6 + _E7 * ky7 + _E8 * ky8 + _E9 * ky9
                  + _E10 * ky10 + _E11 * ky11 + _E12 * ky12)
            sc_x = tol + tol * max(abs(x), abs(x1))
            sc_y = tol + tol * max(abs(y), abs(y1))
            n5 = math.hypot(ex / sc_x, ey / sc_y)
            n3 = math.hypot(
                (sx - _BH1 * kx1 - _BH9 * kx9 - _BH12 * kx12) / sc_x,
                (sy - _BH1 * ky1 - _BH9 * ky9 - _BH12 * ky12) / sc_y)
            den = math.hypot(n5, 0.1 * n3)
            err = h * n5 * (n5 / den) / sqrt2 if den != 0.0 else 0.0
            if not err <= 1.0:
                failed = None
                n_rejected += 1
                landing = grow = False
                h *= max(0.2, 0.9 * err ** -0.125)
                continue
            kx13, ky13 = y1, -g(t + h, x1)
        except _STAGE_ERRORS as e:
            failed = getattr(e, "state", None)
            n_rejected += 1
            landing = grow = False
            h *= 0.5
            continue

        # Kinks.  A step that crosses one after its first 1%, or ends just
        # short of one, is taken again, ending on the crossing's far side
        # (lengthened only when no step was rejected since the last one
        # kept, so that a landing step rejected is not tried again);
        # otherwise s_kink is the Taylor prediction of the time from the
        # step's end to the next crossing, at which the next step stops
        lands = []
        s_kink = math.inf
        if kinks:
            # a kink farther than the Taylor model reaches within the
            # longest next step cannot stop that step
            s_max = min(5.0 * h, h_max) / (1.0 - _APPROACH)
            reach = s_max * (abs(y1) + 0.5 * s_max * abs(ky13))
        for k in kinks:
            if (x - k) * (x1 - k) < 0.0:
                if not landing:
                    lands.append((k, t, x - k, t + h, x1 - k))
                continue
            if abs(x1 - k) > reach:
                continue
            s_k = _time_to_kink(x1 - k, y1, -ky13)
            if not landing and grow and _EVENT_TOL < s_k <= _NEAR * h:
                lands.append((k, t + h, x1 - k, t + h + 2.0 * s_k, None))
            elif s_k < s_kink:
                s_kink = s_k

        # the dense output is built only for an event, a kink to land on
        # or an angle subdivision.  A step ending exactly on a threshold
        # crosses it; one starting there does not (the last step counted it)
        flips = (x * x1 < 0.0 or y * y1 < 0.0 or x1 == 0.0 != x
                 or y1 == 0.0 != y
                 or (d_event and ((x - d) * (x1 - d) < 0.0 or x1 == d != x))
                 or (singular and ((x - 1.0) * (x1 - 1.0) < 0.0
                                   or x1 == 1.0 != x)))
        th_new_raw = math.atan2(y1, x1 - cx)
        delta = th_new_raw - theta_prev
        if not -math.pi < delta <= math.pi:
            delta = _wrap_pi(delta)
        subdivide = abs(delta) > theta_step
        if flips or lands or subdivide:
            try:
                dense = _Dense(g, t, h, x, y, x1, y1,
                               (kx1, kx6, kx7, kx8, kx9, kx10, kx11, kx12,
                                kx13),
                               (ky1, ky6, ky7, ky8, ky9, ky10, ky11, ky12,
                                ky13))
            except _STAGE_ERRORS as e:
                failed = getattr(e, "state", None)
                n_rejected += 1
                landing = grow = False
                h *= 0.5
                continue

        if lands:
            # the error estimate sees g's x-derivative jump only through a
            # flood of rejections: land on the crossing, located on the
            # dense output (past the step's end by extrapolation), half an
            # _EVENT_TOL beyond its bracket, so that the next step starts on
            # the far side even where the step's end rounds.  A step that
            # already ends that close past a crossing is kept
            ends = []
            for k, t_a, f_a, t_b, f_b in lands:
                ahead = f_b is None     # on the interpolant, extrapolated
                if ahead:
                    f_b = dense.eval(t_b)[0] - k
                if f_a * f_b < 0.0:
                    t_k = _bracket_root(dense, lambda x, y, _k=k: x - _k,
                                        t_a, f_a, t_b, f_b, _EVENT_TOL)[1]
                    t_k += 0.5 * _EVENT_TOL
                    if t + _LAND_AFTER * h < t_k and (ahead or t_k < t + h):
                        ends.append(t_k)
            if ends:
                failed = None
                n_rejected += 1
                h = min(ends) - t
                landing = True
                continue

        if flips:
            # events: located on the dense output where the sign flips
            step_events = []
            for kind, phi in events_def:
                f_a, f_b = phi(x, y), phi(x1, y1)
                if f_a * f_b < 0.0 or f_b == 0.0 != f_a:
                    t_a, t_b = _bracket_root(dense, phi, t, f_a, t + h, f_b,
                                             _EVENT_TOL)
                    t_ev = 0.5 * (t_a + t_b)
                    step_events.append(Event(kind, t_ev, *dense.eval(t_ev)))
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
            # quadrature over the stage states (t + c_i h, x_i, kx_i) of
            # nonzero weight, 1 and 6-12; kr1 is carried first-same-as-last
            kr6 = rider(t + _C6 * h, x6, kx6)
            kr7 = rider(t + _C7 * h, x7, kx7)
            kr8 = rider(t + _C8 * h, x8, kx8)
            kr9 = rider(t + _C9 * h, x9, kx9)
            kr10 = rider(t + _C10 * h, x10, kx10)
            kr11 = rider(t + _C11 * h, x11, kx11)
            kr12 = rider(t + h, x12, kx12)
            r0, r = r, r + h * (_B1 * kr1 + _B6 * kr6 + _B7 * kr7 + _B8 * kr8
                                + _B9 * kr9 + _B10 * kr10 + _B11 * kr11
                                + _B12 * kr12)
            kr13 = rider(t + h, x1, y1)
            if subdivide:
                # the rider's own 7th-order interpolant at the subdivision
                # samples, on the dense output's extra stage states
                x14, kx14, x15, kx15, x16, kx16 = dense.extra
                kr14 = rider(t + _C14 * h, x14, kx14)
                kr15 = rider(t + _C15 * h, x15, kx15)
                kr16 = rider(t + _C16 * h, x16, kx16)
                cr = _dense_coeffs(h, r0, r, (kr1, kr6, kr7, kr8, kr9, kr10,
                                              kr11, kr12, kr13, kr14, kr15,
                                              kr16))
                rs.extend(_interp(cr, (ti - t) / h) for ti in ts[len(rs):])
            rs.append(r)
            kr1 = kr13

        t, x, y = t + h, x1, y1
        kx1, ky1 = kx13, ky13
        ts.append(t); xs.append(x); ys.append(y)
        thetas.append(theta_prev)
        rhos.append(math.hypot(x - cx, y))

        if abs(x) > blowup_bound or abs(y) > blowup_bound:
            raise BlowUpError(t, x, y, "state bound exceeded")

        fac = min(5.0, max(0.2, 0.9 * err ** -0.125 if err > 0 else 5.0))
        h *= fac if grow else min(fac, 1.0)
        if s_kink > _LAND_AFTER * h:
            h = min(h, (1.0 - _APPROACH) * s_kink)
        landing = False
        grow = True

    meta = {"steps": n_steps - n_rejected,
            "rejected": n_rejected}
    if rider is not None:
        meta.update(rider=r, rider_samples=np.array(rs))
    return Trajectory(np.array(ts), np.array(xs), np.array(ys),
                      np.array(rhos), np.array(thetas), events,
                      (cx, 0.0), meta=meta)


def _raise_domain_error(fld, t, x, y):
    """Raise the DomainError that the model's expression tree (the piece
    that applies at x) raises at (t, x), naming the subexpression, with the
    state and lambda appended; return if the tree evaluates."""
    trees = fld.model.trees
    tree = trees[0] if x < split_point(fld.model.domain) else trees[-1]
    try:
        evaluate(tree, t, x)
    except DomainError as e:
        e.args = (f"{e} at t={t:.6g}, x={x:.6g}, y={y:.6g}, "
                  f"lambda={fld.lam:.6g}",)
        raise


def _wrap_pi(a: float) -> float:
    while a > math.pi:
        a -= 2.0 * math.pi
    while a <= -math.pi:
        a += 2.0 * math.pi
    return a


# Dormand-Prince 5(4), the pair of integrate_system: the rows of A, the
# time fractions c, the 5th-order weights b and the error weights b - b*
_DP5_A = ((),
          (0.2,),
          (3.0 / 40.0, 9.0 / 40.0),
          (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
          (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
           -212.0 / 729.0),
          (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
           -5103.0 / 18656.0))
_DP5_C = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
_DP5_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
          -2187.0 / 6784.0, 11.0 / 84.0)
_DP5_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
          -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)


def integrate_system(rhs: Callable, y0, t0: float, t_end: float,
                     tol: float = 1e-10,
                     guard: Optional[Callable] = None,
                     t_stops=None):
    """General-dimension Dormand-Prince 5(4) integrator (numpy states, no
    events), kept as the tests' independent reference for integrate: no
    program path calls it.  tol and the longest step are integrate's.

    rhs(t, y) -> array; guard(t, y) may raise to abort a stage; steps land
    exactly on any times in t_stops.  Returns (ts, ys) sample arrays.
    """
    y = np.asarray(y0, dtype=float)
    t = t0
    span = t_end - t0
    h_max = span / 64.0
    stops = None
    if t_stops is not None:
        stops = np.asarray(sorted(set(float(s) for s in t_stops
                                      if t0 < s <= t_end)))
    a, c, b, e = _DP5_A, _DP5_C, _DP5_B, _DP5_E

    ts = [t]
    ys = [y.copy()]
    step_floor = _STEP_FLOOR
    k1 = np.asarray(rhs(t, y))
    h = min(_FIRST_STEP, h_max, span)
    n = 0
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        n += 1
        if n > _MAX_STEPS:
            raise RuntimeError("step budget exceeded")
        h = min(h, t_end - t, h_max)
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
        except _STAGE_ERRORS:
            h *= 0.5
            continue
        err_vec = h * sum(ee * kk for ee, kk in zip(e, ks))
        sc = tol + tol * np.maximum(np.abs(y), np.abs(y1))
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
