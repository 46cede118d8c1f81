"""Periodic-solution search: return map, shooting, boundary degree, homotopy.

A T-periodic solution is a fixed point of the time-T return map of the
planar system.  Fixed points are found by damped quasi-Newton shooting,
certified by the winding number of z - P(z) along a closed curve that the
caller places beyond the a-priori bound (nonzero winding = the curve
encloses a fixed point), and transported from the solvable comparison
field (lam = 0) to the target field (lam = 1): the path starts on an
index +1 fixed point, the sign of the comparison field's degree, and
each corrector's iteration count sets the next lam step; a path that
stalls below the smallest step is lost.  One winding routine serves the
certifying curve and the rectangles of the standalone degree_search; it
reads only the angle of z - P(z), so it samples at the on-curve tolerance
and checks that map error against its margin.  Every other return map
integrates at TOL.  The shooting Jacobian is carried from one
continuation step to the next and kept current by Broyden's secant
update, so a finite-difference Jacobian (two return maps) is taken only
when the carried one is missing, singular or making poor progress (the
predictor-corrector practice of Allgower & Georg, Numerical Continuation
Methods, 1990).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .apriori import n_level_point
from .integrate import (INTEGRATION_FAILURES, TOL, CenterHitError,
                        HomotopyField, PhaseState, Trajectory, _wrap_pi,
                        integrate, rotation_count)
from .model import FULL_LINE, SINGULAR, NonlinearityModel

__all__ = [
    "TOL", "PathPoint", "PeriodicCertificate", "SingularJacobianError",
    "NewtonError", "Winding", "poincare", "newton_fixed_point",
    "boundary_degree", "degree_search", "homotopy_solve",
    "circle_curve", "n_level_curve",
]


class SingularJacobianError(RuntimeError):
    pass


class NewtonError(RuntimeError):
    pass


# a failed return map raises one of INTEGRATION_FAILURES; the damping loop
# counts it as a failed trial, and a failed Newton solve raises it or one of
# Newton's own errors
NEWTON_FAILURES = (NewtonError, SingularJacobianError) + INTEGRATION_FAILURES


_NEWTON_TOL = 1e-9
_NEWTON_MAX_ITER = 25
_FD_STEP = 1e-6          # relative Jacobian step, scaled by ||z||
_FIRST_LAMBDA_STEP = 1.0 / 32    # the continuation's first step
_LAMBDA_FLOOR = 1e-6     # smallest allowed continuation step
_MAX_SUP_NORM = 1e6      # growth cap: beyond it the branch is lost
_DEGREE_SAMPLES = 48     # starting samples of a boundary winding
_DEGREE_BUDGET = 2048    # most samples a winding may refine to
_BOUNDARY_TOL = 1e-7     # relative: fixed point on the curve, and the
                         # tol of a winding's sampled maps
_MARGIN_FACTOR = 10.0    # a winding's map error stays this far below margin
_SEARCH_CELLS = 96       # most cells degree_search visits


@dataclass(frozen=True)
class PathPoint:
    lam: float
    x: float
    y: float
    residual: float
    sup_norm: float
    min_x: float


class Winding(NamedTuple):
    """A boundary winding and the evidence that its degree is the exact
    map's: margin and map_error are relative to |z| at the sample with
    the smallest |z - P(z)|/|z|."""
    degree: int
    samples: int          # starting samples plus refinements
    margin: float         # min |z - P(z)|/|z| over the samples
    map_error: float      # |P~(z) - P(z)|/|z| at that sample


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
    # converged only: z_star's trajectory over one period at lambda = 1,
    # integrated once and reused for the certificate's artifacts
    orbit: Optional[Trajectory] = field(default=None, repr=False,
                                        compare=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def poincare(fld: HomotopyField, z: tuple[float, float], tol: float = TOL,
             rider: Optional[Callable] = None):
    """Return-map image of z = (x, y) after one period, integrated at tol,
    with the orbit that reached it: (x, y, trajectory).  A rider, when
    given, is integrate's quadrature passenger: the orbit carries it in
    meta["rider"], and x, y and the orbit are those of the map without
    it."""
    traj = integrate(fld, PhaseState(0.0, z[0], z[1]), fld.model.period, tol,
                     rider=rider)
    end = traj.state_at_end()
    return end.x, end.y, traj


def _return_residual(fld, z, rider=None):
    px, py, orbit = poincare(fld, z, TOL, rider)
    return px - z[0], py - z[1], orbit


def _fd_jacobian(fld, z, g):
    """Forward-difference Jacobian ((j11, j12), (j21, j22)) of P(z) - z at
    z, whose residual g is known, with step _FD_STEP * max(1, ||z||): two
    return maps."""
    h = _FD_STEP * max(1.0, math.hypot(*z))
    g1x, g1y, _ = _return_residual(fld, (z[0] + h, z[1]))
    g2x, g2y, _ = _return_residual(fld, (z[0], z[1] + h))
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


def newton_fixed_point(fld: HomotopyField, z_guess: tuple[float, float], *,
                       target: float = _NEWTON_TOL, jac=None,
                       rider: Optional[Callable] = None):
    """Quasi-Newton on P(z) - z, with return maps integrated at TOL, until
    the residual is below target; returns (z, residual, iterations, orbit,
    jacobian).

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
    that no damped step lowers).  The orbit is the trajectory of the
    returned z over one period (the one the last accepted residual
    integrated); the final Jacobian is ready to start the next solve of a
    continuation.  A rider (poincare's) rides on the residual maps, the
    first and every damped trial, but not on the finite-difference
    columns, so the orbit carries it; it leaves every iterate unchanged.
    """
    z = (float(z_guess[0]), float(z_guess[1]))
    gx, gy, orbit = _return_residual(fld, z, rider)
    res = math.hypot(gx, gy)
    refresh = jac is None
    it = 0
    while not res < target:
        # integration noise bounds how far the residual can be polished
        stall_tol = max(target, 100.0 * TOL * (1.0 + math.hypot(*z)))
        if it == _NEWTON_MAX_ITER:
            if res < stall_tol:
                break
            raise NewtonError(f"no convergence in {_NEWTON_MAX_ITER} "
                              f"iterations; residual {res:.3g}")
        fresh = refresh or _looks_singular(jac)
        if fresh:
            jac = _fd_jacobian(fld, z, (gx, gy))
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
                gnx, gny, orbitn = _return_residual(fld, zn, rider)
            except INTEGRATION_FAILURES:
                step *= 0.5
                continue
            rn = math.hypot(gnx, gny)
            if rn < res or rn < target:
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
    return z, res, it, orbit, jac


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


def _winding(fld: HomotopyField,
             curve: Callable[[float], tuple[float, float]]) -> Winding:
    """Winding number of z - P(z) along the closed curve s -> curve(s),
    s in [0, 1), with the evidence for it.

    Only the angle of w = z - P(z) counts, and any map within |w| of P on
    the curve has the same degree (homotopy invariance of the Brouwer
    degree; Deimling, Nonlinear Functional Analysis, 1985, ch. 1).  So
    the samples integrate at _BOUNDARY_TOL, and the sample with the
    smallest |w|/|z| is mapped once more at TOL: a map error that is not
    below that margin by _MARGIN_FACTOR is a RuntimeError.  Samples
    are refined until adjacent angular increments stay below pi/2; a fixed
    point on the curve is a ValueError, and a winding that exceeds the
    sample budget or does not close up a RuntimeError.
    """
    # s -> (angle of w, |w|/|z|, P~(z)), for s in [0, 1)
    cache: dict[float, tuple[float, float, float, float]] = {}

    def angle(s: float) -> float:
        if s not in cache:
            zx, zy = curve(s)
            px, py, _ = poincare(fld, (zx, zy), _BOUNDARY_TOL)
            wx, wy = zx - px, zy - py
            margin = math.hypot(wx, wy) / (math.hypot(zx, zy) or 1.0)
            if margin < _BOUNDARY_TOL:
                raise ValueError(f"fixed point on the boundary curve at s={s}")
            cache[s] = (math.atan2(wy, wx), margin, px, py)
        return cache[s][0]

    ss = [k / _DEGREE_SAMPLES for k in range(_DEGREE_SAMPLES)] + [1.0]
    for s in ss:
        angle(s % 1.0)

    work = True
    while work:
        work = False
        if len(ss) > _DEGREE_BUDGET:
            raise RuntimeError("refinement budget exceeded in winding computation")
        new_ss = [ss[0]]
        for s1, s2 in zip(ss[:-1], ss[1:]):
            if abs(_wrap_pi(angle(s2 % 1.0) - angle(s1))) > 0.5 * math.pi:
                sm = 0.5 * (s1 + s2)
                angle(sm)
                new_ss.extend([sm, s2])
                work = True
            else:
                new_ss.append(s2)
        ss = new_ss

    total = sum(_wrap_pi(angle(s2 % 1.0) - angle(s1))
                for s1, s2 in zip(ss[:-1], ss[1:]))
    deg = round(total / (2.0 * math.pi))
    if abs(total - 2.0 * math.pi * deg) > 0.5:
        raise RuntimeError(f"winding did not close up: {total / (2*math.pi):.4f}")

    s_min = min(cache, key=lambda s: cache[s][1])
    _, margin, cx, cy = cache[s_min]
    zx, zy = curve(s_min)
    px, py, _ = poincare(fld, (zx, zy), TOL)
    map_error = math.hypot(cx - px, cy - py) / (math.hypot(zx, zy) or 1.0)
    if not _MARGIN_FACTOR * map_error < margin:
        raise RuntimeError(
            f"winding not certified at s={s_min}: map error {map_error:.3g} "
            f"(tol {_BOUNDARY_TOL:.3g}) is not below the boundary margin "
            f"{margin:.3g} by a factor {_MARGIN_FACTOR:g}")
    return Winding(int(deg), len(cache), margin, map_error)


def boundary_degree(fld: HomotopyField, radius: float) -> Winding:
    """Winding number of z - P(z) along a closed curve of initial states,
    with its evidence.

    The model's domain picks the curve: on the full line the centered
    circle of the given radius, in singular mode the level set
    1/x^2 + x^2 + y^2 = radius.  The winding is _winding's, so a fixed
    point on the curve, or a map error not well below the margin, is an
    error.
    """
    curve = (n_level_curve(radius) if fld.model.domain == SINGULAR
             else circle_curve(radius))
    return _winding(fld, curve)


def degree_search(fld: HomotopyField, radius: float, stop_after: int = 2
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
                z, res, *_ = newton_fixed_point(
                    fld, (0.5 * (x0 + x1), 0.5 * (y0 + y1)))
                if not any(math.hypot(z[0] - f[0][0], z[1] - f[0][1])
                           < 1e-5 * max(1.0, radius) for f in found):
                    found.append((z, res))
            except NEWTON_FAILURES:
                pass
            continue
        try:
            w = _winding(fld, _rect_curve(x0, x1, y0, y1)).degree
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
    """Newton's starting points: on the full line from the outside in,
    in singular mode outward from x = 1."""
    if fld.model.domain == FULL_LINE:
        for r in (4.0, 2.0, 1.0, 0.5):
            yield (0.0, r)
            yield (r, 0.0)
        yield (0.0, 0.0)
    else:
        for x0 in (1.0, 0.7, 1.5, 0.4, 2.5, 4.0):
            yield (x0, 0.0)
        yield (1.0, 1.0)
        yield (1.0, -1.0)


def _index(fld, z, orbit):
    """Local index sign det D(P - I) of the fixed point z, whose orbit is
    known, from its own fresh finite-difference Jacobian (2 return maps)."""
    end = orbit.state_at_end()
    (j11, j12), (j21, j22) = _fd_jacobian(fld, z,
                                          (end.x - z[0], end.y - z[1]))
    return int(np.sign(j11 * j22 - j12 * j21))


def _solve_at_lambda(model, lam, target):
    """The first fixed point of index +1 (_index) that Newton, to target,
    reaches from _initial_guesses: (guess, z, residual, orbit,
    Jacobian).

    At lam = 0 this is the continuation's start.  +1 is the sign of the
    comparison field's degree: on the full line its trivial solution has
    index sign(2 - 2 cos(sqrt(mu_mid) T)) > 0.  On cubic_band the branch
    through that trivial point folds back to an index -1 point, and the
    outer +1 point's branch reaches lam = 1.
    """
    fld = HomotopyField(model, lam)
    last_err = None
    for g in _initial_guesses(fld):
        try:
            z, res, _, orbit, jac = newton_fixed_point(fld, g, target=target)
        except NEWTON_FAILURES as e:
            last_err = e
            continue
        if _index(fld, z, orbit) == 1:
            return g, z, res, orbit, jac
        last_err = f"the one at {z} has index -1"
    raise NewtonError(f"no fixed point found at lambda={lam}: {last_err}")


def homotopy_solve(model: NonlinearityModel,
                   radius: Optional[float] = None) -> PeriodicCertificate:
    """Transport a fixed point from the comparison field to the target one.

    The path starts at lam = 0 on the fixed point _solve_at_lambda picks.
    Its first step is _FIRST_LAMBDA_STEP, 1/32; after an accepted corrector
    the step doubles if the corrector took at most 2 iterations, stays
    after 3 or 4 and halves after more (Deuflhard, Newton Methods for
    Nonlinear Problems, 2004, ch. 5).  A failed corrector halves the step
    and counts as a halving; a failure at a step of _LAMBDA_FLOOR or less
    loses the path there, and so does an orbit whose sup norm passes
    _MAX_SUP_NORM.  The last step lands on lam = 1 exactly.  Each corrector
    starts from a secant predictor and the final Jacobian of the last
    accepted point, so most corrector steps cost one return map.  A waypoint
    below lam = 1 only seeds the next predictor, so its corrector stops at
    sqrt(_NEWTON_TOL); only the certified point is polished to _NEWTON_TOL,
    and each path point's residual is the one its corrector reached.
    Checking the hypotheses (conditions.validate_A or validate_A0_Ainf) and
    choosing the certifying curve beyond the a-priori bound are the caller's
    part.  On success the fixed point at lam = 1 is certified by its
    residual and rotation count.  With a `radius`, the size of the
    certifying curve (boundary_degree's circle radius or N-level), it also
    gets the boundary winding on that curve and the local index sign
    det D(P - I) at the fixed point (_index: a certificate quantity never
    rests on a carried Jacobian); diagnostics notes "other fixed points
    inside R" when the two differ, and carries the winding's evidence:
    winding_samples, boundary_margin and boundary_map_error (see
    Winding).  Without one, no winding and no index are computed.  A
    lost continuation returns the surviving path (status "lost") so blow-up
    families remain inspectable.  diagnostics names the initial guess of
    the start and counts the halvings.
    """
    waypoint_tol = math.sqrt(_NEWTON_TOL)
    step = _FIRST_LAMBDA_STEP
    halvings = 0

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

    initial_guess, z, res, orbit, jac = _solve_at_lambda(model, 0.0,
                                                         waypoint_tol)
    path = [path_point(0.0, z, res, orbit)]
    # secant predictor from (lam_prev, z_prev); constant on the first step
    lam, lam_prev, z_prev = 0.0, -1.0, z
    while lam < 1.0:
        lam_target = min(lam + step, 1.0)
        f = (lam_target - lam) / (lam - lam_prev)
        guess = (z[0] + f * (z[0] - z_prev[0]), z[1] + f * (z[1] - z_prev[1]))
        try:
            zn, resn, its, orbitn, jacn = newton_fixed_point(
                HomotopyField(model, lam_target), guess,
                target=_NEWTON_TOL if lam_target == 1.0 else waypoint_tol,
                jac=jac)
        except NEWTON_FAILURES as err:
            if lam_target - lam <= _LAMBDA_FLOOR:
                return lost(lam_target, str(err))
            step = 0.5 * (lam_target - lam)
            halvings += 1
            continue
        lam_prev, z_prev = lam, z
        z, res, orbit, jac, lam = zn, resn, orbitn, jacn, lam_target
        path.append(path_point(lam, z, res, orbit))
        if path[-1].sup_norm > _MAX_SUP_NORM:
            return lost(lam, "amplitude grew past the cap")
        step *= 2.0 if its <= 2 else 1.0 if its <= 4 else 0.5

    try:
        rot = rotation_count(orbit)
    except CenterHitError:
        rot = None

    degree = index = index_note = None
    evidence = {}
    if radius is not None:
        fld_end = HomotopyField(model, 1.0)
        wind = boundary_degree(fld_end, radius)
        degree = wind.degree
        evidence = dict(winding_samples=wind.samples,
                        boundary_margin=wind.margin,
                        boundary_map_error=wind.map_error)
        # the boundary degree is the sum of the indices of all fixed
        # points inside the curve
        index = _index(fld_end, z, orbit)
        if index != degree:
            index_note = "other fixed points inside R"

    diagnostics = dict(min_x=float(np.min(orbit.x)),
                       min_rho=orbit.min_rho(), sup_norm=orbit.sup_norm(),
                       path_min_x=min(p.min_x for p in path),
                       index=index, index_note=index_note,
                       initial_guess=initial_guess, halvings=halvings,
                       **evidence)
    return PeriodicCertificate(status="converged",
                               z_star=PhaseState(0.0, z[0], z[1]),
                               residual=res, rotation=rot, degree=degree,
                               radius_used=radius, path=path,
                               diagnostics=diagnostics, orbit=orbit)
