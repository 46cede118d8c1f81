"""Periodic-solution search: return map, shooting, boundary degree, homotopy.

A T-periodic solution is a fixed point of the time-T return map of the
planar system.  Fixed points are found by damped quasi-Newton shooting,
certified by the winding number of z - P(z) along a closed curve that the
caller places beyond the a-priori bound (nonzero winding = the curve
encloses a fixed point), and transported from the solvable comparison
field (lam = 0) to the target field (lam = 1) along an adaptive
interpolation schedule; a path that stalls below the smallest step is
lost.  One winding routine serves the certifying curve and the rectangles
of the standalone degree_search.  The shooting Jacobian is carried from
one continuation step to the next and kept current by Broyden's secant
update, so a finite-difference Jacobian (two return maps) is taken only
when the carried one is missing, singular or making poor progress (the
predictor-corrector practice of Allgower & Georg, Numerical Continuation
Methods, 1990).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .apriori import n_level_point
from .integrate import (BlowUpError, CenterHitError, DomainExitError,
                        HomotopyField, IntegrateOpts, PhaseState, Trajectory,
                        _wrap_pi, integrate, rotation_count)
from .model import FULL_LINE, SINGULAR, NonlinearityModel

__all__ = [
    "SolveOpts", "PathPoint", "PeriodicCertificate", "SingularJacobianError",
    "NewtonError", "poincare", "newton_fixed_point",
    "boundary_degree", "degree_search", "homotopy_solve",
    "normalized_profile", "circle_curve", "n_level_curve",
]


class SingularJacobianError(RuntimeError):
    pass


class NewtonError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveOpts:
    newton_tol: float = 1e-9
    lambda_points: int = 33
    # shooting needs the return map resolved below the Newton tolerance
    integrate: IntegrateOpts = IntegrateOpts(rtol=1e-11, atol=1e-11)


_NEWTON_MAX_ITER = 25
_FD_STEP = 1e-6          # relative Jacobian step, scaled by ||z||
_LAMBDA_FLOOR = 1e-6     # smallest allowed continuation step
_MAX_SUP_NORM = 1e6      # growth cap: beyond it the branch is lost
_DEGREE_SAMPLES = 48     # starting samples of a boundary winding
_DEGREE_BUDGET = 2048    # most samples a winding may refine to
_BOUNDARY_TOL = 1e-7     # relative: fixed point on the curve
_SEARCH_CELLS = 96       # most cells degree_search visits


@dataclass(frozen=True)
class PathPoint:
    lam: float
    x: float
    y: float
    residual: float
    sup_norm: float
    min_x: float


@dataclass
class PeriodicCertificate:
    status: str                    # converged | lost
    z_star: Optional[PhaseState]
    residual: float
    rotation: Optional[float]
    degree: Optional[int]
    radius_used: Optional[float]
    path: list[PathPoint]
    diagnostics: dict = field(default_factory=dict)
    # converged only: z_star's trajectory over one period at the last grid
    # lambda, integrated once and reused for the certificate's artifacts
    orbit: Optional[Trajectory] = field(default=None, repr=False,
                                        compare=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def poincare(fld: HomotopyField, z: tuple[float, float],
             opts: IntegrateOpts = IntegrateOpts(), *,
             with_orbit: bool = False):
    """Return-map image (x, y) of z = (x, y) after one period; with
    `with_orbit`, (x, y, trajectory)."""
    traj = integrate(fld, PhaseState(0.0, z[0], z[1]), fld.model.period, opts)
    end = traj.state_at_end()
    return (end.x, end.y, traj) if with_orbit else (end.x, end.y)


def _return_residual(fld, z, opts):
    px, py, orbit = poincare(fld, z, opts, with_orbit=True)
    return px - z[0], py - z[1], orbit


def _fd_jacobian(fld, z, g, opts):
    """Forward-difference Jacobian ((j11, j12), (j21, j22)) of P(z) - z at
    z, whose residual g is known, with step _FD_STEP * max(1, ||z||): two
    return maps."""
    h = _FD_STEP * max(1.0, math.hypot(*z))
    g1x, g1y, _ = _return_residual(fld, (z[0] + h, z[1]), opts.integrate)
    g2x, g2y, _ = _return_residual(fld, (z[0], z[1] + h), opts.integrate)
    return (((g1x - g[0]) / h, (g2x - g[0]) / h),
            ((g1y - g[1]) / h, (g2y - g[1]) / h))


def _looks_singular(jac):
    """Whether a Jacobian of P(z) - z looks singular: its scale is below
    finite-difference noise (the return map is numerically the identity, a
    resonant linearization) or its determinant is negligible against its
    scale."""
    (j11, j12), (j21, j22) = jac
    scale = max(abs(j11), abs(j12), abs(j21), abs(j22), 1e-300)
    return (scale < 1e-3
            or abs(j11 * j22 - j12 * j21) < 1e-10 * scale * scale)


def _broyden(jac, s, dg):
    """Broyden's "good" rank-one update of jac along the accepted step s,
    which changed the residual by dg: the least change to jac that maps s
    to dg (Broyden, Math. Comp. 19, 1965)."""
    (j11, j12), (j21, j22) = jac
    rx = dg[0] - (j11 * s[0] + j12 * s[1])
    ry = dg[1] - (j21 * s[0] + j22 * s[1])
    ss = s[0] * s[0] + s[1] * s[1]
    return ((j11 + rx * s[0] / ss, j12 + rx * s[1] / ss),
            (j21 + ry * s[0] / ss, j22 + ry * s[1] / ss))


def newton_fixed_point(fld: HomotopyField, z_guess: tuple[float, float],
                       tol: float = 1e-9, opts: SolveOpts = SolveOpts(), *,
                       jac=None, full_output: bool = False):
    """Quasi-Newton on P(z) - z; returns (z, residual, iterations).

    The iteration starts from `jac`, a Jacobian ((j11, j12), (j21, j22))
    of P(z) - z carried over from a neighbouring solve, and updates it
    after each accepted step by Broyden's rank-one secant rule, which
    costs no return map.  A forward-difference Jacobian (two return maps,
    step _FD_STEP * max(1, ||z||)) replaces it when none was given, when
    it looks singular, when the last accepted step cut the residual by
    less than half, or when all 8 damping trials (each halving the
    update until the residual decreases) failed.  Only a fresh
    finite-difference Jacobian can raise SingularJacobianError or end the
    solve by the stall rule (a residual at the integration noise floor
    that no damped step lowers).  With `full_output`, the trajectory of
    the returned z over one period comes fourth (it is the one the last
    accepted residual integrated) and the final Jacobian fifth, ready to
    start the next solve of a continuation.
    """
    z = (float(z_guess[0]), float(z_guess[1]))
    io = opts.integrate
    gx, gy, orbit = _return_residual(fld, z, io)
    res = math.hypot(gx, gy)
    refresh = jac is None
    it = 0
    while not res < tol:
        # integration noise bounds how far the residual can be polished
        stall_tol = max(tol, 100.0 * io.rtol * (1.0 + math.hypot(*z)))
        if it == _NEWTON_MAX_ITER:
            if res < stall_tol:
                break
            raise NewtonError(f"no convergence in {_NEWTON_MAX_ITER} "
                              f"iterations; residual {res:.3g}")
        fresh = refresh or _looks_singular(jac)
        if fresh:
            jac = _fd_jacobian(fld, z, (gx, gy), opts)
        (j11, j12), (j21, j22) = jac
        det = j11 * j22 - j12 * j21
        if fresh and _looks_singular(jac):
            raise SingularJacobianError(
                f"return-map linearization is singular near {z} (det={det:.3g})")
        dx = -(j22 * gx - j12 * gy) / det
        dy = -(-j21 * gx + j11 * gy) / det
        step = 1.0
        for _ in range(8):
            zn = (z[0] + step * dx, z[1] + step * dy)
            try:
                gnx, gny, orbitn = _return_residual(fld, zn, io)
            except (BlowUpError, DomainExitError):
                step *= 0.5
                continue
            rn = math.hypot(gnx, gny)
            if rn < res or rn < tol:
                jac = _broyden(jac, (zn[0] - z[0], zn[1] - z[1]),
                               (gnx - gx, gny - gy))
                refresh = not rn < 0.5 * res
                z, gx, gy, res, orbit = zn, gnx, gny, rn, orbitn
                break
            step *= 0.5
        else:
            if not fresh:
                refresh = True
            elif res <= stall_tol:
                break
            else:
                raise NewtonError(f"damping failed near {z}; "
                                  f"residual {res:.3g}")
        it += 1
    return (z, res, it, orbit, jac) if full_output else (z, res, it)


def circle_curve(radius: float) -> Callable[[float], tuple[float, float]]:
    def curve(s: float):
        a = 2.0 * math.pi * s
        return radius * math.cos(a), radius * math.sin(a)
    return curve


def n_level_curve(level: float) -> Callable[[float], tuple[float, float]]:
    """Closed level set of 1/x^2 + x^2 + y^2 around (1, 0), for x > 0, run
    counterclockwise like circle_curve (n_level_point runs clockwise)."""
    return lambda s: n_level_point(level, -2.0 * math.pi * s)


def _rect_curve(x0: float, x1: float, y0: float, y1: float
                ) -> Callable[[float], tuple[float, float]]:
    """Boundary of [x0, x1] x [y0, y1], counterclockwise from (x0, y0)."""
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))

    def curve(s: float):
        side, u = divmod(4.0 * s, 1.0)
        (ax, ay), (bx, by) = corners[int(side)], corners[int(side) + 1]
        return ax + (bx - ax) * u, ay + (by - ay) * u
    return curve


def _winding(fld: HomotopyField, curve: Callable[[float], tuple[float, float]],
             opts: SolveOpts) -> int:
    """Winding number of z - P(z) along the closed curve s -> curve(s),
    s in [0, 1).

    Samples are refined until adjacent angular increments stay below pi/2;
    a fixed point on the curve is a ValueError, and a winding that exceeds
    the sample budget or does not close up a RuntimeError.
    """
    io = opts.integrate
    cache: dict[float, tuple[float, float, float]] = {}

    def w_of(s: float):
        if s not in cache:
            zx, zy = curve(s)
            px, py = poincare(fld, (zx, zy), io)
            wx, wy = zx - px, zy - py
            norm = math.hypot(wx, wy)
            ref = math.hypot(zx, zy) or 1.0
            if norm < _BOUNDARY_TOL * ref:
                raise ValueError(f"fixed point on the boundary curve at s={s}")
            cache[s] = (math.atan2(wy, wx), wx, wy)
        return cache[s]

    ss = [k / _DEGREE_SAMPLES for k in range(_DEGREE_SAMPLES)] + [1.0]
    angles = {}
    for s in ss:
        angles[s] = w_of(s % 1.0)[0]

    work = True
    while work:
        work = False
        if len(ss) > _DEGREE_BUDGET:
            raise RuntimeError("refinement budget exceeded in winding computation")
        new_ss = [ss[0]]
        for s1, s2 in zip(ss[:-1], ss[1:]):
            if abs(_wrap_pi(angles[s2] - angles[s1])) > 0.5 * math.pi:
                sm = 0.5 * (s1 + s2)
                angles[sm] = w_of(sm % 1.0)[0]
                new_ss.extend([sm, s2])
                work = True
            else:
                new_ss.append(s2)
        ss = new_ss

    total = sum(_wrap_pi(angles[s2] - angles[s1])
                for s1, s2 in zip(ss[:-1], ss[1:]))
    deg = round(total / (2.0 * math.pi))
    if abs(total - 2.0 * math.pi * deg) > 0.5:
        raise RuntimeError(f"winding did not close up: {total / (2*math.pi):.4f}")
    return int(deg)


def boundary_degree(fld: HomotopyField, radius: float,
                    opts: SolveOpts = SolveOpts()) -> int:
    """Winding number of z - P(z) along a closed curve of initial states.

    The model's domain picks the curve: on the full line the centered
    circle of the given radius, in singular mode the level set
    1/x^2 + x^2 + y^2 = radius.  The winding is _winding's, so a fixed
    point on the curve is an error.
    """
    curve = (n_level_curve(radius) if fld.model.domain == SINGULAR
             else circle_curve(radius))
    return _winding(fld, curve, opts)


def degree_search(fld: HomotopyField, radius: float,
                  opts: SolveOpts = SolveOpts(), stop_after: int = 2
                  ) -> list[tuple[tuple[float, float], float]]:
    """Locate return-map fixed points by recursive winding bisection.

    A standalone tool: no solve path calls it.  Splits the bounding box
    into four sub-cells at a jittered point (so a fixed point almost never
    sits on a subdivision line), recursing depth-first into cells whose
    boundary winding (_winding on the cell's rectangle) is nonzero or
    unresolved; small cells seed Newton.  At most _SEARCH_CELLS cells are
    visited.  Returns converged fixed points (z, residual) sorted by
    residual.
    """
    if fld.model.domain == SINGULAR:
        box = (1e-3, max(2.0, radius), -radius, radius)
    else:
        box = (-radius, radius, -radius, radius)
    stack = [box]
    found: list[tuple[tuple[float, float], float]] = []
    visited = 0
    small = max(1e-6, 1e-3 * radius)
    while stack and visited < _SEARCH_CELLS and len(found) < stop_after:
        x0, x1, y0, y1 = stack.pop()
        visited += 1
        if min(x1 - x0, y1 - y0) < small:
            try:
                z, res, _ = newton_fixed_point(
                    fld, (0.5 * (x0 + x1), 0.5 * (y0 + y1)),
                    opts.newton_tol, opts)
                if not any(math.hypot(z[0] - f[0][0], z[1] - f[0][1])
                           < 1e-5 * max(1.0, radius) for f in found):
                    found.append((z, res))
            except (NewtonError, SingularJacobianError, BlowUpError,
                    DomainExitError, CenterHitError):
                pass
            continue
        try:
            w = _winding(fld, _rect_curve(x0, x1, y0, y1), opts)
        except (ValueError, RuntimeError):
            w = None    # unresolved: subdivide
        if w == 0:
            continue
        # jittered split keeps zeros off the subdivision lines
        px = x0 + (x1 - x0) * 0.5310
        py = y0 + (y1 - y0) * 0.4729
        for cell in ((x0, px, y0, py), (px, x1, y0, py),
                     (x0, px, py, y1), (px, x1, py, y1)):
            stack.append(cell)
    found.sort(key=lambda zr: zr[1])
    return found


def _initial_guesses(fld: HomotopyField):
    if fld.model.domain == FULL_LINE:
        yield (0.0, 0.0)
        for r in (0.5, 1.0, 2.0, 4.0):
            yield (r, 0.0)
            yield (0.0, r)
    else:
        for x0 in (1.0, 0.7, 1.5, 0.4, 2.5, 4.0):
            yield (x0, 0.0)
        yield (1.0, 1.0)
        yield (1.0, -1.0)


def _solve_at_lambda(model, lam, tol, opts):
    """First initial guess from which Newton converges:
    (guess, z, residual, orbit, Jacobian)."""
    fld = HomotopyField(model, lam)
    last_err = None
    for g in _initial_guesses(fld):
        try:
            z, res, _, orbit, jac = newton_fixed_point(fld, g, tol, opts,
                                                       full_output=True)
            return g, z, res, orbit, jac
        except (NewtonError, SingularJacobianError, BlowUpError,
                DomainExitError, CenterHitError) as e:
            last_err = e
    raise NewtonError(f"no fixed point found at lambda={lam}: {last_err}")


def homotopy_solve(model: NonlinearityModel,
                   opts: SolveOpts = SolveOpts(),
                   radius: Optional[float] = None) -> PeriodicCertificate:
    """Transport a fixed point from the comparison field to the target one.

    Continuation runs Newton correctors over opts.lambda_points evenly
    spaced lambdas in [0, 1], halving a step whose corrector fails; a
    failure at a step of _LAMBDA_FLOOR or less loses the path there, and
    so does an orbit whose sup norm passes _MAX_SUP_NORM.  Each corrector
    starts from the final Jacobian of the last accepted point (the fold
    re-polish included), so most corrector steps cost one return map; a
    failed corrector's Jacobian is dropped with it.  Checking the
    hypotheses (conditions.validate_A or validate_A0_Ainf) and choosing
    the certifying curve beyond the a-priori bound are the caller's part.
    On success the fixed point at the last grid lambda is certified by its
    residual and rotation count.  With a `radius`, the size of the
    certifying curve (boundary_degree's circle radius or N-level), it also
    gets the boundary winding on that curve and the local index sign
    det D(P - I) at the fixed point, from its own fresh finite-difference
    Jacobian (a certificate quantity never rests on a carried one);
    diagnostics notes "other fixed points inside R" when the two differ.
    Without one, no winding and no index are computed.  A waypoint below
    the last grid lambda only seeds the next predictor, so its corrector
    stops at sqrt(newton_tol); only the certified point is polished to
    newton_tol.  A waypoint whose orbit amplitude more than quadruples over
    a secant step has jumped across a fold: it must also meet newton_tol,
    and the predictor restarts from it.  Each path point's residual is the
    one its corrector reached.  A lost continuation returns the surviving
    path (status "lost") so blow-up families remain inspectable.
    diagnostics names the initial guess that converged at the first lambda
    and counts the lambda-step halvings.  lambda_points below 2 raise
    ValueError.
    """
    if opts.lambda_points < 2:
        raise ValueError(f"opts.lambda_points must be at least 2, "
                         f"got {opts.lambda_points}")

    lambda_grid = list(map(float, np.linspace(0.0, 1.0, opts.lambda_points)))
    lam_end = lambda_grid[-1]
    waypoint_tol = math.sqrt(opts.newton_tol)
    halvings = 0

    def corrector_tol(lam):
        return opts.newton_tol if lam >= lam_end else waypoint_tol

    def next_grid(lam):
        return next((lv for lv in lambda_grid if lv > lam + 1e-15), lam_end)

    def path_point(lam, z, res, orbit):
        return PathPoint(lam, z[0], z[1], res, orbit.sup_norm(),
                         float(np.min(orbit.x)))

    def lost(lam, error):
        return PeriodicCertificate(
            status="lost", z_star=PhaseState(0.0, z[0], z[1]),
            residual=res, rotation=None, degree=None, radius_used=None,
            path=path, diagnostics=dict(lost_at=lam, error=error,
                                        initial_guess=initial_guess,
                                        halvings=halvings))

    path = []
    initial_guess, z, res, orbit, jac = _solve_at_lambda(
        model, lambda_grid[0], corrector_tol(lambda_grid[0]), opts)
    path.append(path_point(lambda_grid[0], z, res, orbit))

    lam_prev = lambda_grid[0]
    z_prev2 = None
    lam_target = next_grid(lam_prev)
    while lam_prev < lam_end - 1e-15:
        dlam = lam_target - lam_prev
        # secant predictor
        secant = z_prev2 is not None and lam_prev != z_prev2[0]
        if secant:
            f = dlam / (lam_prev - z_prev2[0])
            guess = (z[0] + f * (z[0] - z_prev2[1]), z[1] + f * (z[1] - z_prev2[2]))
        else:
            guess = z
        try:
            fldn = HomotopyField(model, lam_target)
            zn, resn, _, orbitn, jacn = newton_fixed_point(
                fldn, guess, corrector_tol(lam_target), opts, jac=jac,
                full_output=True)
            # an amplitude that more than quadruples over one secant step is
            # a jump across a fold; the point must also meet newton_tol,
            # which a far branch whose noise floor lies above the waypoint
            # tolerance fails, and a secant across the jump points nowhere
            jumped = secant and orbitn.sup_norm() > 4.0 * path[-1].sup_norm
            if jumped and resn >= opts.newton_tol:
                zn, resn, _, orbitn, jacn = newton_fixed_point(
                    fldn, zn, opts.newton_tol, opts, jac=jacn,
                    full_output=True)
            z_prev2 = None if jumped else (lam_prev, z[0], z[1])
            z, res, orbit, jac, lam_prev = zn, resn, orbitn, jacn, lam_target
            path.append(path_point(lam_prev, z, res, orbit))
            if path[-1].sup_norm > _MAX_SUP_NORM:
                return lost(lam_prev, "amplitude grew past the cap")
            lam_target = next_grid(lam_prev)
        except (NewtonError, SingularJacobianError, BlowUpError,
                DomainExitError) as err:
            if dlam <= _LAMBDA_FLOOR:
                return lost(lam_target, str(err))
            lam_target = lam_prev + 0.5 * dlam
            halvings += 1

    try:
        rot = rotation_count(orbit)
    except CenterHitError:
        rot = None

    degree = index = index_note = None
    if radius is not None:
        fld_end = HomotopyField(model, lam_end)
        degree = boundary_degree(fld_end, radius, opts=opts)
        # local index sign det D(P - I) at z*; the boundary degree is the
        # sum of the indices of all fixed points inside the curve
        end = orbit.state_at_end()
        (j11, j12), (j21, j22) = _fd_jacobian(
            fld_end, z, (end.x - z[0], end.y - z[1]), opts)
        index = int(np.sign(j11 * j22 - j12 * j21))
        if index != degree:
            index_note = "other fixed points inside R"

    diagnostics = dict(min_x=float(np.min(orbit.x)),
                       min_rho=orbit.min_rho(), sup_norm=orbit.sup_norm(),
                       path_min_x=min(p.min_x for p in path),
                       index=index, index_note=index_note,
                       initial_guess=initial_guess, halvings=halvings)
    return PeriodicCertificate(status="converged",
                               z_star=PhaseState(0.0, z[0], z[1]),
                               residual=res, rotation=rot, degree=degree,
                               radius_used=radius, path=path,
                               diagnostics=diagnostics, orbit=orbit)


def normalized_profile(trajs: list[Trajectory]) -> dict:
    """Arc diagnostics of a family of periodic orbits with growing norms.

    Rescales each orbit by its sup norm, slices it at its zeros into
    positive arcs, and fits each arc with amplitude (peak of the rescaled
    arc) and frequency pi / duration; the fitted frequencies of a family
    blowing up against a band edge settle on the square root of that
    eigenvalue.
    """
    if len(trajs) < 3:
        raise ValueError("need at least 3 orbits of increasing sup norm")
    sups = [tr.sup_norm() for tr in trajs]
    if not all(s2 > s1 for s1, s2 in zip(sups[:-1], sups[1:])):
        raise ValueError("orbits must come with increasing sup norms")
    out = []
    for tr, sup in zip(trajs, sups):
        crossings = [ev for ev in sorted(tr.events, key=lambda e: e.t)
                     if ev.kind == "cross_x_eq_0"]
        zeros = [ev.t for ev in crossings]
        arcs = []
        for e1, e2 in zip(crossings[:-1], crossings[1:]):
            if e1.y > 0 > e2.y:     # positive arc between up and down crossing
                t_mask = (tr.t >= e1.t) & (tr.t <= e2.t)
                if not np.any(t_mask):
                    continue
                peak = float(np.max(tr.x[t_mask])) / sup
                duration = e2.t - e1.t
                arcs.append(dict(start=e1.t, duration=duration,
                                 amplitude=peak,
                                 omega=math.pi / duration))
        out.append(dict(sup_norm=sup, zeros=zeros, arcs=arcs,
                        omega_fit=(float(np.median([a["omega"] for a in arcs]))
                                   if arcs else math.nan),
                        min_ratio=float(np.min(tr.x)) / sup))
    return dict(per_orbit=out,
                omega_trend=[o["omega_fit"] for o in out],
                sup_norms=sups)
