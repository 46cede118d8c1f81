"""Rotating solutions of radially symmetric second-order systems.

A plane-valued solution of x'' + f(t, |x|) x/|x| = 0 reduces, at fixed
angular momentum L = x1 x2' - x2 x1', to the scalar radial equation
rho'' - L^2/rho^3 + f(t, rho) = 0 coupled with rho^2 theta' = L.  Solutions
that are T-periodic in rho and advance theta by 2 pi nu over k periods
close up into kT-periodic orbits making exactly nu revolutions.

find_rotating keeps its own record of the L values it evaluates, and the
profile solve takes the reduced field it works on as an argument: no call
depends on state outside it.  The angle rides on the profile solve's
return maps, so Delta_theta(L) is read off the converged map's orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .expr import Bin, DomainError, Num, Var
from .integrate import HomotopyField, PhaseState, Trajectory, integrate
from .model import SINGULAR, NonlinearityModel, from_trees, periodic_grid
from .solver import NEWTON_FAILURES, TOL, newton_fixed_point

__all__ = [
    "RotatingSolution", "effective_field", "circular_orbit",
    "angular_progress", "solve_radial_profile", "find_rotating",
    "cartesian_samples", "NoBracketError",
]


MEAN_F_T_POINTS = 64       # t samples of the t-average of f
CIRCULAR_TOL = 1e-12       # relative bracket width of the circular balance
DTHETA_TOL = 1e-6          # |Delta_theta(L) - 2 pi nu / k| that ends a search
MAX_STEPS = 12             # steps in L from the circular orbit to a bracket


class NoBracketError(ValueError):
    pass


def effective_field(model: NonlinearityModel, L: float) -> NonlinearityModel:
    """Radial reduction: rho'' + [f(t, rho) - L^2/rho^3] = 0, compiled from
    model's expression trees, each less the centrifugal term, so that a
    piecewise model keeps its glue point rho = 1 as a kink the integrator
    lands on (ValueError for a model built from callables: it has no
    trees).  The term only strengthens the repulsive wall, so the reduced
    nonlinearity is handled by the singular-mode machinery.  Each call
    compiles a new field.
    """
    if not model.trees:
        raise ValueError("the radial reduction needs the model's expression "
                         "trees; a model built from callables has none")
    centrifugal = Bin("/", Num(L * L), Bin("^", Var("x"), Num(3.0)))
    trees = tuple(Bin("-", tree, centrifugal) for tree in model.trees)
    return from_trees(trees, model.period, SINGULAR, model.n_mode)


def _mean_f(model: NonlinearityModel):
    """rho -> the mean of f(t, rho) over MEAN_F_T_POINTS times per period."""
    t_grid = periodic_grid(model.period, MEAN_F_T_POINTS)

    def fbar(rho: float) -> float:
        return float(np.mean(model.f_over_t(t_grid, rho)))

    return fbar


def _first_crossing(model: NonlinearityModel, balance) -> float:
    """Root of r -> balance(r, fbar(r)), fbar the t-average of f
    (_mean_f), inside the first sign change from below to above zero of a
    geometric scan over [1e-2, 1e3], which stops there, bisected to a
    relative bracket width of CIRCULAR_TOL.  fbar at every rung of the
    scan comes from one grid call, its means taken row by row; each
    midpoint of the bisection costs one call of fbar.  NoBracketError
    when the scan finds none."""
    t_grid = periodic_grid(model.period, MEAN_F_T_POINTS)
    grid = np.geomspace(1e-2, 1e3, 120)
    rungs = zip(grid.tolist(), model.f_tarr(t_grid, grid).mean(axis=-1).tolist())
    lo, fbar_lo = next(rungs)
    below = balance(lo, fbar_lo) < 0.0
    for hi, fbar_hi in rungs:
        val = balance(hi, fbar_hi)
        if below and val > 0.0:
            break
        below = val < 0.0
        lo = hi
    else:
        raise NoBracketError("no sign change in the scan range")
    fbar = _mean_f(model)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < CIRCULAR_TOL * max(1.0, mid):
            break
        if balance(mid, fbar(mid)) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def circular_orbit(model: NonlinearityModel, L: float) -> float:
    """Radius of the circular balance fbar(rho) = L^2/rho^3 of the t-average
    fbar of f (_first_crossing): the start of a profile solve.
    NoBracketError when the scan finds no balance.
    """
    return _first_crossing(model, lambda r, fbar_r: fbar_r - L * L / r ** 3)


def _circular_momentum(model: NonlinearityModel, target: float) -> float:
    """L of the circular orbit of fbar that advances by `target` over a
    period: rho solves T sqrt(fbar(rho)/rho) = target (_first_crossing)
    and L = rho^2 sqrt(fbar(rho)/rho).  NoBracketError when no circular
    orbit advances by the target."""
    def rate(r, fbar_r):
        return math.sqrt(max(fbar_r, 0.0) / r)

    rho = _first_crossing(
        model, lambda r, fbar_r: model.period * rate(r, fbar_r) - target)
    return rho * rho * rate(rho, _mean_f(model)(rho))


def _angle_rate(L: float):
    """The angle's rate theta' = L / rho^2 as an integration rider."""
    return lambda t, rho, v: L / rho ** 2


def angular_progress(reduced: NonlinearityModel, z0: PhaseState, L: float,
                     tol: float = TOL) -> Trajectory:
    """One period of the reduced field (effective_field at L) from z0, in
    one planar integration at tol with the angle's rate L / rho^2 as its
    rider: meta["rider"] is the angle swept over the period, Delta_theta.
    The wall check keeps rho > 0.  The L-search does not call it: its
    profile solve carries the same rider (solve_radial_profile), whose
    orbit is bit for bit this one from the solved profile."""
    return integrate(HomotopyField(reduced, 1.0), z0, z0.t + reduced.period,
                     tol, rider=_angle_rate(L))


@dataclass
class RotatingSolution:
    """A rotating solution as the L-search recorded it at L: reduced is
    effective_field at L, and orbit is the profile solve's converged
    return map of it over a period with the angle as its rider
    (orbit.meta["rider"] is exactly delta_theta_period);
    cartesian_samples post-processes both."""
    k: int
    nu: int
    L: float
    z0: PhaseState               # (rho, rho') at t = 0
    residual: float
    delta_theta_period: float    # angle advance over one rho-period
    orbit: Trajectory = field(repr=False, compare=False)
    reduced: NonlinearityModel = field(repr=False, compare=False)
    rho_min = property(lambda self: float(np.min(self.orbit.x)))
    rho_max = property(lambda self: float(np.max(self.orbit.x)))

    @property
    def delta_theta_total(self) -> float:
        return self.k * self.delta_theta_period

    @property
    def revolutions(self) -> float:
        return self.delta_theta_total / (2.0 * math.pi)


def solve_radial_profile(reduced: NonlinearityModel, L: float,
                         guess: tuple[float, float],
                         tol: float = TOL, jac=None):
    """T-periodic solution of the reduced radial equation (effective_field
    at L), shot at tol: (z, residual, Jacobian of P(z) - z at z, orbit).
    Each residual map carries the angle's rate L / rho^2 as its rider, so
    the orbit, the converged map from z, holds Delta_theta in
    meta["rider"]: angular_progress from z, bit for bit, at no further
    integration.  Newton starts from the caller's guess and Jacobian (see
    _delta_theta_of_L).  A failed solve raises one of
    solver.NEWTON_FAILURES, and the L-search skips that L."""
    z, res, _, orbit, jac = newton_fixed_point(
        HomotopyField(reduced, 1.0), guess, tol, jac=jac,
        rider=_angle_rate(L))
    return z, res, jac, orbit


def _delta_theta_of_L(model, L, known, tol):
    """Delta_theta at L, from one reduced field compiled for the profile
    solve; known[L] records (Delta_theta, profile, residual, Jacobian,
    reduced field, orbit).  The solve starts from a secant predictor, the
    line in L through the profiles of the two nearest known L (Allgower &
    Georg, Numerical Continuation Methods, 1990), with the nearest one's
    Jacobian; from that profile alone when only one L is known; and from
    the circular orbit when none is (NoBracketError when it has no
    balance radius)."""
    near = sorted(known, key=lambda Lc: abs(Lc - L))[:2]
    if not near:
        guess, jac = (circular_orbit(model, L), 0.0), None
    else:
        guess, jac = known[near[0]][1], known[near[0]][3]
    if len(near) == 2:
        (ax, ay), (bx, by) = guess, known[near[1]][1]
        s = (L - near[0]) / (near[1] - near[0])
        guess = (ax + s * (bx - ax), ay + s * (by - ay))
    reduced = effective_field(model, L)
    z, res, jac, orbit = solve_radial_profile(reduced, L, guess, tol, jac)
    known[L] = (orbit.meta["rider"], z, res, jac, reduced, orbit)
    return known[L][0]


def _known_bracket(known, target):
    """The adjacent pair of known L values, smallest L first, whose
    advances straddle the target, as ((L, dth) below, (L, dth) at or
    above the target); None when there is none."""
    pts = sorted((L, v[0]) for L, v in known.items())
    for p, q in zip(pts, pts[1:]):
        if (p[1] < target) != (q[1] < target):
            return (p, q) if p[1] < target else (q, p)
    return None


def _illinois(model, target, bracket, known, tol):
    """Illinois regula falsi for Delta_theta(L) = target inside `bracket`
    (Dowell & Jarratt 1971): the secant root of the two ends, with the
    value at an end halved when that end is kept twice in a row.  Returns
    the first L whose advance is within DTHETA_TOL of the target, or
    None."""
    (a, fa), (b, fb) = ((L, dth - target) for L, dth in bracket)
    kept = None              # the end kept at the last step: "a" or "b"
    for _ in range(60):
        if abs(b - a) < 1e-12 * max(1.0, a, b):
            return None
        m = (a * fb - b * fa) / (fb - fa)
        try:
            d = _delta_theta_of_L(model, m, known, tol)
        except NEWTON_FAILURES:
            a = m
            continue
        if abs(d - target) < DTHETA_TOL:
            return m
        if d < target:
            a, fa = m, d - target
            if kept == "b":
                fb *= 0.5
            kept = "b"
        else:
            b, fb = m, d - target
            if kept == "a":
                fa *= 0.5
            kept = "a"
    return None


# what a k's search can legitimately raise: the package's RuntimeError
# subclasses and the step-budget RuntimeError, a DomainError from the
# circular-orbit scan's grid call, and a missing balance radius
_SOLVE_ERRORS = (RuntimeError, DomainError, NoBracketError)


def find_rotating(model: NonlinearityModel, nu: int, k_max: int,
                  tol: float = TOL, k_min: int = 1
                  ) -> tuple[list[RotatingSolution], Optional[int]]:
    """Rotating solutions for each k: solve Delta_theta(L) = 2 pi nu / k,
    the angular advance over one rho-period.

    Delta_theta(L) does not depend on k, so every value computed is kept
    for all k in the search's record, local to this call.  The bracket for
    k is the adjacent pair of known L values that straddles the target.
    Without one, the search steps from the circular orbit's L toward the
    target until a pair straddles it (_step_to_bracket); inside it, L is
    refined by Illinois steps (_illinois).  Profile solves start from the
    secant predictor through the two nearest known L and the shooting
    Jacobian at the nearest (_delta_theta_of_L).  Returns the solutions
    found and the smallest succeeding k; a solution's reduced field and
    orbit are those its L's profile solve recorded, so each L's field is
    compiled once and no profile is integrated twice.
    """
    results: list[RotatingSolution] = []
    k_nu: Optional[int] = None
    # L -> (Delta_theta, profile, residual, Jacobian, reduced field, orbit)
    known: dict[float, tuple] = {}
    for k in range(k_min, k_max + 1):
        target = 2.0 * math.pi * nu / k
        try:
            L_star = None
            bracket = _known_bracket(known, target)
            if bracket is None:
                L_star = _step_to_bracket(model, target, known, tol)
                bracket = _known_bracket(known, target)
            if L_star is None and bracket is not None:
                L_star = _illinois(model, target, bracket, known, tol)
        except _SOLVE_ERRORS:       # this k has no solution; try the next
            continue
        if L_star is None:
            continue
        dth, z, res, _, reduced, orbit = known[L_star]
        results.append(RotatingSolution(
            k=k, nu=nu, L=L_star, z0=PhaseState(0.0, z[0], z[1]),
            residual=res, delta_theta_period=dth, orbit=orbit,
            reduced=reduced))
        if k_nu is None:
            k_nu = k
    return results, k_nu


def _step_to_bracket(model, target, known, tol):
    """Evaluate advances from the circular orbit's L toward the target
    until two known L values straddle it.  L is multiplied by q when the
    last advance is below the target and divided by q when above (the
    advance grows with L), q starting at 1.02 and squared after each of at
    most MAX_STEPS steps; a step whose profile solve fails is skipped.
    Returns the L whose advance lands within DTHETA_TOL of the target, else
    None."""
    L = _circular_momentum(model, target)
    # before the first advance, step from the side of the earlier k's ones
    below = next((v[0] < target for v in known.values()), None)
    q = 1.02
    for _ in range(MAX_STEPS + 1):
        try:
            dth = _delta_theta_of_L(model, L, known, tol)
        except NEWTON_FAILURES:
            pass
        else:
            if abs(dth - target) < DTHETA_TOL:
                return L
            if _known_bracket(known, target) is not None:
                return None
            below = dth < target
        if below is None:           # no advance known: no direction
            return None
        L = L * q if below else L / q
        q *= q
    return None


def cartesian_samples(sol: RotatingSolution, n: int = 720):
    """(t, x1, x2) samples of the plane orbit over the full kT window.

    No integration: on n // k uniform times per period (sol.orbit spans
    one), rho and theta are quintic Hermite values through the neighbouring
    samples of sol.orbit, whose first and second derivatives the radial
    equation gives (rho' = v, rho'' = L^2 / rho^3 - f(t, rho),
    theta' = L / rho^2, theta'' = -2 L v / rho^3), and period m adds m
    advances.
    """
    orb = sol.orbit
    L = sol.L
    period = float(orb.t[-1])
    stops = np.linspace(0.0, period, max(2, n // max(sol.k, 1)) + 1)[:-1]
    i = np.searchsorted(orb.t, stops, side="right") - 1
    h = orb.t[i + 1] - orb.t[i]
    s = (stops - orb.t[i]) / h
    rho, v = orb.x, orb.y
    acc = -np.array([sol.reduced.f(tt, r)
                     for tt, r in zip(orb.t.tolist(), rho.tolist())])
    rho_p = _hermite5(s, h, rho[i], rho[i + 1], v[i], v[i + 1], acc[i],
                      acc[i + 1])
    theta, dtheta = orb.meta["rider_samples"], L / rho ** 2
    ddtheta = -2.0 * L * v / rho ** 3
    th_p = _hermite5(s, h, theta[i], theta[i + 1], dtheta[i], dtheta[i + 1],
                     ddtheta[i], ddtheta[i + 1])
    out = []
    for m in range(sol.k):
        for tt, r, th in zip(stops, rho_p, th_p):
            ang = th + m * sol.delta_theta_period
            out.append((float(m * period + tt), float(r * math.cos(ang)),
                        float(r * math.sin(ang))))
    return out


def _hermite5(s, h, p0, p1, m0, m1, a0, a1):
    """Quintic Hermite at fraction s of a step h through the values p, the
    slopes m and the second derivatives a at its two ends."""
    u = 1.0 - s
    return (u ** 3 * ((1.0 + 3.0 * s + 6.0 * s * s) * p0
                      + s * (1.0 + 3.0 * s) * h * m0 + 0.5 * s * s * h * h * a0)
            + s ** 3 * ((10.0 - 15.0 * s + 6.0 * s * s) * p1
                        + u * (3.0 * s - 4.0) * h * m1
                        + 0.5 * u * u * h * h * a1))
