"""Rotating solutions of radially symmetric second-order systems.

A plane-valued solution of x'' + f(t, |x|) x/|x| = 0 reduces, at fixed
angular momentum L = x1 x2' - x2 x1', to the scalar radial equation
rho'' - L^2/rho^3 + f(t, rho) = 0 coupled with rho^2 theta' = L.  Solutions
that are T-periodic in rho and advance theta by 2 pi nu over k periods
close up into kT-periodic orbits making exactly nu revolutions.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .expr import Bin, Num, Var
from .integrate import (BlowUpError, DomainExitError, HomotopyField,
                        IntegrateOpts, PhaseState, Trajectory, integrate)
from .model import SINGULAR, NonlinearityModel, from_trees, periodic_grid
from .solver import (NewtonError, SingularJacobianError, SolveOpts,
                     homotopy_solve, newton_fixed_point)

__all__ = [
    "RotatingSolution", "effective_field", "circular_orbit",
    "angular_progress", "solve_radial_profile", "find_rotating",
    "cartesian_samples", "NoBracketError",
]


MEAN_F_T_POINTS = 64       # t samples of the t-average of f
CIRCULAR_TOL = 1e-12       # relative bracket width of the circular balance
DTHETA_TOL = 1e-6          # |Delta_theta(L) - 2 pi nu / k| that ends a search


class NoBracketError(ValueError):
    pass


# (model, {L: reduced field}) while a find_rotating search runs, else None:
# the profile solve, the advance and the solution's orbit at one L share
# one compiled field, and nothing outlives the search
_SEARCH_FIELDS: ContextVar[Optional[tuple]] = ContextVar("_SEARCH_FIELDS",
                                                         default=None)


def effective_field(model: NonlinearityModel, L: float) -> NonlinearityModel:
    """Radial reduction: rho'' + [f(t, rho) - L^2/rho^3] = 0, compiled from
    model's expression trees, each less the centrifugal term, so that a
    piecewise model keeps its glue point rho = 1 as a kink the integrator
    lands on (ValueError for a model built from callables: it has no
    trees).  The term only strengthens the repulsive wall, so the reduced
    nonlinearity is handled by the singular-mode machinery.  Inside
    find_rotating the field of each L is compiled once and reused for the
    rest of that search.
    """
    scope = _SEARCH_FIELDS.get()
    fields = scope[1] if scope is not None and scope[0] is model else {}
    if L in fields:
        return fields[L]
    if not model.trees:
        raise ValueError("the radial reduction needs the model's expression "
                         "trees; a model built from callables has none")
    centrifugal = Bin("/", Num(L * L), Bin("^", Var("x"), Num(3.0)))
    trees = tuple(Bin("-", tree, centrifugal) for tree in model.trees)
    fields[L] = from_trees(trees, model.period, SINGULAR, model.n_mode)
    return fields[L]


def _mean_f(model: NonlinearityModel):
    """rho -> the mean of f(t, rho) over MEAN_F_T_POINTS times per period."""
    t_grid = periodic_grid(model.period, MEAN_F_T_POINTS)

    def fbar(rho: float) -> float:
        return float(np.mean(model.f_over_t(t_grid, rho)))

    return fbar


def circular_orbit(model: NonlinearityModel, L: float) -> float:
    """Radius of the circular balance fbar(rho) = L^2/rho^3 of the t-average
    fbar of f, by bisection inside the first sign change of a geometric
    scan over [1e-2, 1e3] to a relative bracket width of CIRCULAR_TOL: the
    start of a profile solve.  NoBracketError when the scan finds none.
    """
    fbar = _mean_f(model)

    def balance(r):
        return fbar(r) - L * L / r ** 3

    grid = np.geomspace(1e-2, 1e3, 120)
    vals = [balance(float(r)) for r in grid]
    for i in range(len(grid) - 1):
        if vals[i] < 0.0 < vals[i + 1]:
            lo, hi = float(grid[i]), float(grid[i + 1])
            break
    else:
        raise NoBracketError("no sign change of f(r) - L^2/r^3 in scan range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < CIRCULAR_TOL * max(1.0, mid):
            break
        if balance(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def angular_progress(model: NonlinearityModel, z0: PhaseState, L: float,
                     horizon: float, opts: IntegrateOpts = IntegrateOpts()
                     ) -> float:
    """Angle swept by the full orbit: integral of L / rho(t)^2."""
    return _profile_orbit(model, z0, L, horizon, opts).meta["rider"]


def _profile_orbit(model, z0, L, horizon, opts) -> Trajectory:
    """One planar integration of the radial profile with the angle as its
    rider, at the integrator's tolerance; the wall check keeps rho > 0."""
    return integrate(HomotopyField(effective_field(model, L), 1.0), z0,
                     z0.t + horizon, opts,
                     rider=lambda t, rho, v: L / rho ** 2)


@dataclass
class RotatingSolution:
    """A rotating solution of model.  orbit is the profile's one
    integration over a period with the angle as its rider, so
    orbit.meta["rider"] is exactly delta_theta_period; cartesian_samples
    post-processes it."""
    k: int
    nu: int
    L: float
    z0: PhaseState               # (rho, rho') at t = 0
    residual: float
    delta_theta_period: float    # angle advance over one rho-period
    orbit: Trajectory = field(repr=False, compare=False)
    model: NonlinearityModel = field(repr=False, compare=False)
    rho_min = property(lambda self: float(np.min(self.orbit.x)))
    rho_max = property(lambda self: float(np.max(self.orbit.x)))

    @property
    def delta_theta_total(self) -> float:
        return self.k * self.delta_theta_period

    @property
    def revolutions(self) -> float:
        return self.delta_theta_total / (2.0 * math.pi)


def solve_radial_profile(model: NonlinearityModel, L: float,
                         guess: Optional[tuple[float, float]] = None,
                         opts: SolveOpts = SolveOpts(), jac=None):
    """T-periodic solution of the reduced radial equation at fixed L:
    (z, residual, Jacobian of P(z) - z at z, or None).

    Newton starts from the warm guess and Jacobian (a neighbouring L's
    profile and final Jacobian during sweeps) or, without a guess, from
    the circular orbit of the t-averaged field, (rho_c, 0).  Only when
    that start has no balance radius or Newton fails from it does the
    full interpolation homotopy bootstrap the orbit; its Jacobian is not
    kept, so the result carries None.
    """
    eff = effective_field(model, L)
    try:
        if guess is None:
            guess = (circular_orbit(model, L), 0.0)
        z, res, _, _, jac = newton_fixed_point(
            HomotopyField(eff, 1.0), guess, opts.newton_tol, opts, jac=jac,
            full_output=True)
        return z, res, jac
    except (NoBracketError, NewtonError, SingularJacobianError, BlowUpError,
            DomainExitError):
        pass
    cert = homotopy_solve(eff, opts=opts)
    if not cert.converged:
        raise NewtonError(f"radial profile solve failed at L={L:.6g}")
    return (cert.z_star.x, cert.z_star.y), cert.residual, None


def _delta_theta_of_L(model, L, known, opts):
    """(Delta_theta, z, residual) at L, recorded in `known` with the
    profile solve's final Jacobian; the solve starts from the profile and
    the Jacobian at the nearest known L."""
    guess = jac = None
    if known:
        _, guess, _, jac = known[min(known, key=lambda Lc: abs(Lc - L))]
    z, res, jac = solve_radial_profile(model, L, guess, opts, jac)
    dth = angular_progress(model, PhaseState(0.0, z[0], z[1]), L,
                           model.period, opts.integrate)
    known[L] = (dth, z, res, jac)
    return dth, z, res


def _known_bracket(known, target):
    """The adjacent pair of known L values, smallest L first, whose
    advances straddle the target, as ((L, dth) below, (L, dth) at or
    above the target); None when there is none."""
    pts = sorted((L, v[0]) for L, v in known.items())
    for p, q in zip(pts, pts[1:]):
        if (p[1] < target) != (q[1] < target):
            return (p, q) if p[1] < target else (q, p)
    return None


def _estimate_L_max(model, target_dtheta):
    """Circular-balance estimate: find rho with T sqrt(fbar/rho) = target/T
    scale, then L = sqrt(fbar(rho) rho^3); generous factor 4 on top."""
    fbar = _mean_f(model)
    period = model.period

    def omega_gap(r):
        v = fbar(r)
        if v <= 0.0:
            return -1.0
        return period * math.sqrt(v / r) - target_dtheta

    grid = np.geomspace(1e-2, 1e4, 160)
    vals = [omega_gap(float(r)) for r in grid]
    rho_star = None
    for (r1, v1), (r2, v2) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
        if v1 < 0.0 <= v2 or v1 >= 0.0 > v2:
            rho_star = 0.5 * (r1 + r2)
            break
    if rho_star is None:
        finite = [r for r, v in zip(grid, vals) if v > -1.0]
        rho_star = float(finite[-1]) if finite else 1.0
    L_est = math.sqrt(max(fbar(rho_star), 1e-12) * rho_star ** 3)
    return 4.0 * L_est


def _illinois(model, target, bracket, known, opts):
    """Illinois regula falsi for Delta_theta(L) = target inside `bracket`
    (Dowell & Jarratt 1971): the secant root of the two ends, with the
    value at an end halved when that end is kept twice in a row.  Returns
    (L, Delta_theta, z, residual) at the first L within DTHETA_TOL of the
    target, or None."""
    (a, fa), (b, fb) = ((L, dth - target) for L, dth in bracket)
    kept = None              # the end kept at the last step: "a" or "b"
    for _ in range(60):
        if abs(b - a) < 1e-12 * max(1.0, a, b):
            return None
        m = (a * fb - b * fa) / (fb - fa)
        try:
            d, z, r = _delta_theta_of_L(model, m, known, opts)
        except (NewtonError, SingularJacobianError):
            a = m
            continue
        if abs(d - target) < DTHETA_TOL:
            return m, d, z, r
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


# what a profile solve or an advance integration can legitimately raise:
# the package's RuntimeError subclasses (NewtonError, SingularJacobianError,
# BlowUpError, DomainExitError) and the step-budget RuntimeError, floating
# point trouble, and a missing balance radius
_SOLVE_ERRORS = (RuntimeError, ArithmeticError, NoBracketError)


def find_rotating(model: NonlinearityModel, nu: int, k_max: int,
                  opts: SolveOpts = SolveOpts(), k_min: int = 1
                  ) -> tuple[list[RotatingSolution], Optional[int]]:
    """Rotating solutions for each k: solve Delta_theta(L) = 2 pi nu / k.

    For each k the angular advance over one rho-period must equal
    2 pi nu / k.  Delta_theta(L) does not depend on k, so every value
    computed is kept for all k.  The bracket for k is the adjacent pair
    of known L values, smallest L first, that straddles the target; a
    12-point geometric scan in L runs only when there is none.  Inside
    the bracket L is refined by Illinois steps (regula falsi that halves
    the stale end's value when the same end is kept twice) until the
    advance is within DTHETA_TOL of the target.  Profile solves start
    from the profile and the shooting Jacobian at the nearest known L, so
    Newton along the L-search rarely pays for a finite-difference
    Jacobian.  Returns the solutions found and the smallest succeeding k.
    Each L's reduced field is compiled once for the whole search.
    """
    token = _SEARCH_FIELDS.set((model, {}))
    try:
        return _find_rotating(model, nu, k_max, opts, k_min)
    finally:
        _SEARCH_FIELDS.reset(token)


def _find_rotating(model, nu, k_max, opts, k_min):
    results: list[RotatingSolution] = []
    k_nu: Optional[int] = None
    # L -> (Delta_theta, profile, residual, Jacobian); local to this call
    known: dict[float, tuple] = {}
    for k in range(k_min, k_max + 1):
        target = 2.0 * math.pi * nu / k
        try:
            bracket = _known_bracket(known, target)
            if bracket is None:
                L_hi = _estimate_L_max(model, target)
                for L in np.geomspace(L_hi / 256.0, L_hi, 12):
                    try:
                        dth, _, _ = _delta_theta_of_L(model, float(L), known,
                                                      opts)
                    except (NewtonError, SingularJacobianError):
                        continue
                    if dth >= target:
                        break
                bracket = _known_bracket(known, target)
            if bracket is None:
                continue
            best = _illinois(model, target, bracket, known, opts)
            if best is None:
                continue
            L_star, dth, z, res = best
            z0 = PhaseState(0.0, z[0], z[1])
            results.append(RotatingSolution(
                k=k, nu=nu, L=L_star, z0=z0, residual=res,
                delta_theta_period=dth,
                orbit=_profile_orbit(model, z0, L_star, model.period,
                                     opts.integrate), model=model))
            if k_nu is None:
                k_nu = k
        except _SOLVE_ERRORS:       # this k has no solution; try the next
            continue
    return results, k_nu


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
    f_eff = effective_field(sol.model, L).f
    acc = -np.array([f_eff(tt, r) for tt, r in zip(orb.t.tolist(),
                                                   rho.tolist())])
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
