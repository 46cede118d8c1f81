import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import resonance.model as rm
from resonance import radial as rd
from resonance import solver as sv
from resonance.expr import DomainError, Var
from resonance.integrate import (BlowUpError, HomotopyField, PhaseState,
                                 integrate, integrate_system)
from resonance.solver import homotopy_solve
from oracles import flat_grid


T2PI = 2 * math.pi


def _autonomous(f_of_r):
    return rm.NonlinearityModel(
        f=lambda t, r: f_of_r(r), period=T2PI, domain=rm.SINGULAR, n_mode=2,
        f_tarr=flat_grid(f_of_r))


@pytest.fixture(scope="module")
def rotating_run():
    model = rm.make_singular_band()
    sols, k_nu = rd.find_rotating(model, nu=1, k_max=4)
    return model, sols, k_nu


# --------------------------------------------------------------------------
# reduction pieces


def test_effective_field_without_momentum_is_identity():
    model = rm.make_singular_band()
    eff = rd.effective_field(model, 0.0)
    for (t, r) in ((0.0, 0.5), (1.1, 2.0), (3.0, 10.0)):
        assert eff.f(t, r) == model.f(t, r)


def test_effective_field_centrifugal_balance():
    model = rm.from_expression("x", T2PI, rm.SINGULAR, 2)
    eff = rd.effective_field(model, 1.0)
    assert eff.f(0.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_effective_field_is_compiled_from_the_model_trees():
    # one reduced tree per tree of the model, glue point kept; the values
    # are those of f(t, rho) - L^2/rho^3, bit for bit, on both sides
    model = rm.from_piecewise("6.5*x - 2/x^3 - 1/x^5 + 0.5*cos(t)",
                              "2*x + 1.5 + 0.5*cos(t)", T2PI, rm.SINGULAR, 2)
    L = 0.7
    eff = rd.effective_field(model, L)
    assert len(eff.trees) == len(model.trees) == 2
    assert eff.domain == rm.SINGULAR and eff.period == model.period
    t_grid = np.linspace(0.0, T2PI, 7)
    for r in (0.4, 0.999, 1.0, 1.3, 5.0):
        for t in t_grid.tolist():
            assert eff.f(t, r) == model.f(t, r) - L * L / r ** 3
        np.testing.assert_array_equal(
            eff.f_over_t(t_grid, r), model.f_over_t(t_grid, r) - L * L / r ** 3)


def test_effective_field_needs_expression_trees():
    with pytest.raises(ValueError, match="trees"):
        rd.effective_field(_autonomous(lambda r: r), 1.0)


def test_effective_field_keeps_strong_wall():
    from resonance import conditions as cd
    model = rm.make_singular_band()
    eff = rd.effective_field(model, 0.7)
    rep = cd.validate_A0_Ainf(eff)
    assert rep["passed"]


def test_circular_orbit_unit_balance():
    model = _autonomous(lambda r: r)
    assert rd.circular_orbit(model, 1.0) == pytest.approx(1.0, rel=1e-10)


def test_circular_orbit_general_balance_identity():
    model = _autonomous(lambda r: r)
    for rho0 in (0.5, 2.0, 7.0):
        L = rho0 ** 2            # balance r = L^2/r^3 at r = rho0
        assert rd.circular_orbit(model, L) == pytest.approx(rho0, rel=1e-10)


def test_circular_orbit_missing_bracket():
    model = _autonomous(lambda r: -1.0)
    with pytest.raises(rd.NoBracketError):
        rd.circular_orbit(model, 1.0)


def test_angular_progress_circular():
    model = rm.from_expression("x", T2PI, rm.SINGULAR, 2)
    orbit = rd.angular_progress(rd.effective_field(model, 1.0),
                                PhaseState(0.0, 1.0, 0.0), 1.0)
    assert orbit.t[-1] == T2PI
    assert orbit.meta["rider"] == pytest.approx(T2PI, abs=1e-10)
    # constant integrand: the angle at every sample is t * L / rho0^2
    np.testing.assert_allclose(orbit.meta["rider_samples"], orbit.t,
                               rtol=0.0, atol=1e-10)


def _advance_by_integrate_system(model, z0, L, horizon):
    # the numpy three-state integration of (rho, rho', theta) that
    # angular_progress used before the angle became a rider
    g = HomotopyField(rd.effective_field(model, L), 1.0).g

    def rhs(t, y):
        rho, v, _ = y
        return np.array([v, -g(t, rho), L / rho ** 2])

    def guard(t, y):
        if y[0] <= 0.0:
            raise ValueError("rho reached the wall")

    _, ys = integrate_system(rhs, np.array([z0.x, z0.y, 0.0]), z0.t,
                             z0.t + horizon, guard=guard)
    return float(ys[-1, 2])


@pytest.mark.parametrize("L", [0.03, 0.373, 1.72])
def test_angular_progress_matches_integrate_system(L):
    model = rm.make_singular_band()
    reduced = rd.effective_field(model, L)
    z, _, _, orbit = rd.solve_radial_profile(
        reduced, L, (rd.circular_orbit(model, L), 0.0))
    z0 = PhaseState(0.0, *z)
    dth = rd.angular_progress(reduced, z0, L).meta["rider"]
    # the profile solve's converged map carries the same angle, bit for bit
    assert orbit.meta["rider"] == dth
    assert dth == pytest.approx(
        _advance_by_integrate_system(model, z0, L, model.period), abs=1e-9)


def test_angular_progress_monotone_in_momentum_at_fixed_profile():
    # freezing the radial profile, the advance integral scales with L;
    # the full L-dependence (profile moves too) is only probed elsewhere
    model = rm.make_singular_band()
    eff = rd.effective_field(model, 0.6)
    traj = integrate(HomotopyField(eff, 1.0), PhaseState(0.0, 1.2, 0.0), T2PI)
    base = np.trapezoid(1.0 / traj.x ** 2, traj.t)
    vals = [L * base for L in (0.2, 0.5, 0.9)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[1] == pytest.approx(0.5 * base, rel=1e-14)


# --------------------------------------------------------------------------
# radial profile solves


@functools.lru_cache(maxsize=None)
def _homotopy_profile(L):
    cert = homotopy_solve(rd.effective_field(rm.make_singular_band(), L))
    assert cert.converged
    return cert.z_star.x, cert.z_star.y


# L values spanning the k = 1 scan on singular_band
@pytest.mark.parametrize("L", [0.03, 0.373, 1.7])
def test_profile_seeded_from_circular_orbit_matches_homotopy(L, monkeypatch):
    homotopies = _count_calls(monkeypatch, "homotopy_solve", sv)
    model = rm.make_singular_band()
    z, res, _, _ = rd.solve_radial_profile(
        rd.effective_field(model, L), L, (rd.circular_orbit(model, L), 0.0))
    assert not homotopies and res < 1e-8
    assert z == pytest.approx(_homotopy_profile(L), abs=1e-9)


def test_profile_without_balance_radius_raises_and_runs_no_homotopy(
        monkeypatch):
    # the circular orbit is the search's one start before any L is known:
    # without a balance radius the first L fails before its field is
    # compiled, no homotopy bootstraps the orbit, and the k is skipped
    def no_balance(*args, **kwargs):
        raise rd.NoBracketError("no balance radius")

    monkeypatch.setattr(rd, "circular_orbit", no_balance)
    homotopies = _count_calls(monkeypatch, "homotopy_solve", sv)
    maps = _count_calls(monkeypatch, "poincare", sv)
    compiles = _count_calls(monkeypatch, "from_trees")
    with pytest.raises(rd.NoBracketError, match="no balance radius"):
        rd._delta_theta_of_L(rm.make_singular_band(), 0.373, {})
    assert rd.find_rotating(rm.make_singular_band(), nu=1, k_max=1) == (
        [], None)
    assert not homotopies and not maps and not compiles


# --------------------------------------------------------------------------
# rotating solutions


def test_rotating_solutions_found_from_smallest_k(rotating_run):
    model, sols, k_nu = rotating_run
    assert k_nu == 1
    ks = [s.k for s in sols]
    assert ks == list(range(k_nu, 5))
    for s in sols:
        assert s.residual < 1e-8
        assert s.revolutions == pytest.approx(s.nu, abs=1e-6)
        assert s.rho_min > 0


def test_momentum_decreases_toward_zero_with_k(rotating_run):
    _, sols, k_nu = rotating_run
    Ls = [s.L for s in sols]
    assert all(b < a for a, b in zip(Ls, Ls[1:]))
    assert Ls[3] < 0.5 * Ls[0]


def test_radius_window_stable_across_revolution_counts():
    model = rm.make_singular_band()
    windows = []
    for nu in (1, 2):
        sols, _ = rd.find_rotating(model, nu=nu, k_max=2)
        assert sols
        windows.append((min(s.rho_min for s in sols),
                        max(s.rho_max for s in sols)))
    r_lo = min(w[0] for w in windows)
    r_hi = max(w[1] for w in windows)
    assert r_lo > 1.0 / 20.0 and r_hi < 20.0


def test_angular_momentum_conserved_in_cartesian_integration(rotating_run):
    model, sols, _ = rotating_run
    sol = sols[1]
    fld = HomotopyField(rd.effective_field(model, sol.L), 1.0)
    f = model.f

    def rhs(t, y):
        x1, x2, v1, v2 = y
        r = math.hypot(x1, x2)
        a = -f(t, r) / r
        return np.array([v1, v2, a * x1, a * x2])

    y0 = np.array([sol.z0.x, 0.0, sol.z0.y, sol.L / sol.z0.x])
    ts, ys = integrate_system(rhs, y0, 0.0, sol.k * T2PI, 1e-11)
    L_t = ys[:, 0] * ys[:, 3] - ys[:, 1] * ys[:, 2]
    assert np.max(np.abs(L_t - sol.L)) < 1e-8


def test_reduced_solution_satisfies_cartesian_equation(rotating_run):
    # map (rho, theta) back to the plane and check x'' + f(t,|x|) x/|x| = 0
    # by five-point finite differences on exact-time samples
    model, sols, _ = rotating_run
    sol = sols[0]
    eff = rd.effective_field(model, sol.L)
    fld = HomotopyField(eff, 1.0)
    g = fld.g
    L = sol.L

    def rhs(t, y):
        rho, v, _ = y
        return np.array([v, -g(t, rho), L / rho ** 2])

    h = T2PI / 500.0
    checks = np.linspace(0.12 * T2PI, 0.88 * T2PI, 25)
    stencil = np.concatenate([checks + m * h for m in range(-2, 3)])
    ts, ys = integrate_system(rhs, np.array([sol.z0.x, sol.z0.y, 0.0]),
                              0.0, T2PI, 1e-12, t_stops=stencil)
    lookup = {round(float(t), 12): (float(r), float(th))
              for t, r, th in zip(ts, ys[:, 0], ys[:, 2])}

    def x1x2(t):
        r, th = lookup[round(float(t), 12)]
        return r * math.cos(th), r * math.sin(th)

    worst = 0.0
    for tc in checks:
        xs = [x1x2(tc + m * h) for m in range(-2, 3)]
        for comp in (0, 1):
            vals = [p[comp] for p in xs]
            acc = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
                   - vals[4]) / (12 * h * h)
            r, th = lookup[round(float(tc), 12)]
            force = model.f(float(tc), r) * (vals[2] / r)
            worst = max(worst, abs(acc + force))
    assert worst < 1e-6


def _cartesian_samples_by_integrate_system(model, sol, n=720):
    # the numpy three-state integration of (rho, rho', theta), landing on
    # the sample times, that cartesian_samples ran before it
    # post-processed the search's own orbit
    g = HomotopyField(rd.effective_field(model, sol.L), 1.0).g
    L = sol.L

    def rhs(t, y):
        rho, v, _ = y
        return np.array([v, -g(t, rho), L / rho ** 2])

    period = model.period
    stops = np.linspace(0.0, period, max(2, n // max(sol.k, 1)) + 1)
    ts, ys = integrate_system(rhs, np.array([sol.z0.x, sol.z0.y, 0.0]),
                              0.0, period, sv.TOL, t_stops=stops)
    idx = np.searchsorted(ts, stops[:-1])
    out = []
    for m in range(sol.k):
        for tt, rho, th in zip(stops[:-1], ys[idx, 0], ys[idx, 2]):
            ang = th + m * sol.delta_theta_period
            out.append((m * period + tt, rho * math.cos(ang),
                        rho * math.sin(ang)))
    return out


def test_cartesian_samples_post_process_the_search_orbit(rotating_run):
    # the orbit is the profile integration whose rider gave the advance,
    # and the Hermite rows through its samples match a fresh integration
    # that lands on every row's time
    model, sols, _ = rotating_run
    assert len(sols) > 1
    for sol in sols:
        assert sol.orbit.meta["rider"] == sol.delta_theta_period
        got = np.array(rd.cartesian_samples(sol))
        want = np.array(_cartesian_samples_by_integrate_system(model, sol))
        assert got.shape == want.shape == (720 // sol.k * sol.k, 3)
        assert np.max(np.abs(got - want)) < 1e-8


def test_cartesian_samples_close_up(rotating_run):
    model, sols, _ = rotating_run
    sol = sols[2]
    pts = rd.cartesian_samples(sol, n=360)
    assert len(pts) > 0
    t0, x0, y0 = pts[0]
    # the kT-periodic orbit returns to its start after k periods
    r_first = math.hypot(x0, y0)
    assert r_first == pytest.approx(sol.z0.x, rel=1e-9)
    angles = np.unwrap([math.atan2(p[2], p[1]) for p in pts])
    total = angles[-1] - angles[0]
    expected = sol.delta_theta_total * (len(pts) - 1) / (len(pts))
    assert total == pytest.approx(expected, rel=5e-3)


def _count_calls(monkeypatch, name, module=rd):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_find_rotating_pinned_work(monkeypatch):
    # Delta_theta(L) values are shared across k, the first profile is
    # seeded from the circular orbit, Illinois steps refine the bracket,
    # and each profile solve starts from the secant predictor of the two
    # nearest known L with the Jacobian of the nearest, and carries the
    # angle on its return maps: the exact numbers of separate advances and
    # return maps pin that work (a finite-difference Jacobian on every
    # Newton iteration took 153 maps; a 12-point bracket scan in L took 18
    # advances and 95 maps before the search started at the circular
    # orbit; the nearest profile as the start and a separate advance per
    # L took 49 maps and 10 advances)
    advances = _count_calls(monkeypatch, "angular_progress")
    homotopies = _count_calls(monkeypatch, "homotopy_solve", sv)
    maps = _count_calls(monkeypatch, "poincare", sv)
    runs = []
    for _ in range(2):
        runs.append((rd.find_rotating(rm.make_singular_band(), nu=1,
                                      k_max=2), len(advances), len(maps)))
        advances.clear()
        maps.clear()
    (sols, k_nu), n_advances, n_maps = runs[0]
    assert k_nu == 1 and [s.k for s in sols] == [1, 2]
    assert n_advances == 0
    assert n_maps == 38
    assert len(homotopies) == 0
    # no state survives a call: a second search repeats the first exactly
    assert runs[1] == runs[0]


def test_find_rotating_compiles_each_reduced_field_once(monkeypatch):
    # the profile solve and the solution's orbit at one L share one
    # compiled field: 10 compiles for the 10 distinct L, where compiling
    # per call took 38 (for the 18 L of a bracket scan).  Each solution
    # holds the orbit its L's profile solve returned and the field that
    # solve integrated, so cartesian_samples compiles none (it compiled
    # one per solution)
    compiles = _count_calls(monkeypatch, "from_trees")
    advanced = {}
    original = rd.solve_radial_profile

    def solve(reduced, L, guess, jac):
        out = original(reduced, L, guess, jac)
        advanced[L] = (reduced, out[3])
        return out

    monkeypatch.setattr(rd, "solve_radial_profile", solve)
    model = rm.make_singular_band()
    sols, _ = rd.find_rotating(model, nu=1, k_max=2)
    assert [s.k for s in sols] == [1, 2]
    assert len(compiles) == len(advanced) == 10
    for s in sols:
        reduced, orbit = advanced[s.L]
        assert s.orbit is orbit and s.reduced is reduced
        rd.cartesian_samples(s)
    assert len(compiles) == 10
    # nothing is kept past the search: a call outside it compiles anew
    rd.effective_field(model, sols[0].L)
    assert len(compiles) == 11


def test_solution_orbit_is_the_last_advance_integration(monkeypatch):
    # the search integrates nothing but return maps: each profile's angle
    # rides on its solve's maps, and the solution keeps the converged map,
    # bit for bit a fresh advance of its profile
    map_integrations = _count_calls(monkeypatch, "integrate", sv)
    integrations = _count_calls(monkeypatch, "integrate")
    advances = _count_calls(monkeypatch, "angular_progress")
    maps = _count_calls(monkeypatch, "poincare", sv)
    model = rm.make_singular_band()
    sols, _ = rd.find_rotating(model, nu=1, k_max=2)
    assert len(map_integrations) == len(maps) == 38
    assert not integrations and not advances
    for s in sols:
        fresh = rd.angular_progress(rd.effective_field(model, s.L), s.z0,
                                    s.L)
        assert fresh is not s.orbit
        for name in ("t", "x", "y"):
            assert np.array_equal(getattr(fresh, name), getattr(s.orbit, name))
        assert np.array_equal(fresh.meta["rider_samples"],
                              s.orbit.meta["rider_samples"])
        assert fresh.meta["rider"] == s.orbit.meta["rider"] == (
            s.delta_theta_period)
    assert len(integrations) == len(sols)


def _autonomous_band_momentum(k):
    # at wobble 0 the singular band is f = 1.625 x - x^-5 - x^-3 (N = 2,
    # T = 2 pi): the circular orbit with f(rho)/rho = 1/k^2 advances by
    # 2 pi / k over a period at L = rho^2 sqrt(f(rho)/rho) = rho^2 / k
    brentq = pytest.importorskip("scipy.optimize").brentq
    rho = brentq(lambda r: 1.625 - r ** -6 - r ** -4 - 1.0 / k ** 2,
                 0.5, 5.0, xtol=1e-15, rtol=1e-15)
    return rho * rho / k


def test_autonomous_band_solved_at_the_circular_orbit(monkeypatch):
    # the circular orbit of an autonomous field is an exact T-periodic
    # profile, so its advance meets the target at once: one profile solve
    # per k and no Illinois step (a bracket scan took 8 or more)
    advances = []
    original = rd.solve_radial_profile

    def solve(reduced, L, guess, jac):
        advances.append(L)
        return original(reduced, L, guess, jac)

    monkeypatch.setattr(rd, "solve_radial_profile", solve)
    sols, k_nu = rd.find_rotating(rm.make_singular_band(wobble=0.0), nu=1,
                                  k_max=3)
    assert k_nu == 1 and [s.k for s in sols] == [1, 2, 3]
    assert len(advances) == 3
    for s in sols:
        assert s.L == pytest.approx(_autonomous_band_momentum(s.k), rel=1e-9)
        assert s.residual < 1e-9


def test_search_steps_past_a_failed_profile_solve(monkeypatch):
    # the first step away from the circular orbit's L fails to solve, by
    # Newton's own error or by a return map's (which a Newton solve raises
    # as it is); the search skips it, as the bracket scan skipped its
    # failures, and still finds the k = 1 solution of the unpatched search
    reference, _ = rd.find_rotating(rm.make_singular_band(), nu=1, k_max=1)
    solves, solved = [], []
    original = rd.solve_radial_profile
    # each solve's L is that of the field compiled just before it
    momenta = []
    compile_field = rd.effective_field

    def counted_field(model, L):
        momenta.append(L)
        return compile_field(model, L)

    monkeypatch.setattr(rd, "effective_field", counted_field)
    for failure in (sv.NewtonError("patched failure"),
                    BlowUpError(0.0, 0.2, -1.0)):
        def second_fails(reduced, L, guess, jac=None):
            solves.append(momenta[-1])
            assert L == momenta[-1]
            if len(solves) == 2:
                raise failure
            out = original(reduced, L, guess, jac)
            solved.append(L)
            return out

        monkeypatch.setattr(rd, "solve_radial_profile", second_fails)
        solves.clear()
        solved.clear()
        momenta.clear()
        sols, k_nu = rd.find_rotating(rm.make_singular_band(), nu=1, k_max=1)
        assert k_nu == 1 and [s.k for s in sols] == [1]
        assert solves == momenta
        assert solves[1] == pytest.approx(solves[0] / 1.02, rel=1e-12)
        assert len(solved) == len(solves) - 1 and solves[1] not in solved
        assert abs(sols[0].delta_theta_period - 2 * math.pi) < rd.DTHETA_TOL
        assert sols[0].L == pytest.approx(reference[0].L, rel=1e-6)
        assert sols[0].residual < 1e-9


def test_find_rotating_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken advance")

    monkeypatch.setattr(rd, "solve_radial_profile", broken)
    with pytest.raises(TypeError, match="broken advance"):
        rd.find_rotating(rm.make_singular_band(), nu=1, k_max=1)


def test_find_rotating_propagates_arithmetic_errors_but_a_domain_error(
        monkeypatch):
    # the one arithmetic failure a k's search may raise is a DomainError
    # from the circular-orbit scan's grid call, and that k is skipped; any
    # other ArithmeticError is a fault and leaves the search (a catch of
    # every ArithmeticError skipped the k)
    def broken(*args, **kwargs):
        raise ZeroDivisionError("broken advance")

    monkeypatch.setattr(rd, "solve_radial_profile", broken)
    with pytest.raises(ZeroDivisionError, match="broken advance"):
        rd.find_rotating(rm.make_singular_band(), nu=1, k_max=1)

    def scan_leaves_domain(*args, **kwargs):
        raise DomainError("log of a non-positive value", Var("x"),
                          (0.0, -1.0))

    monkeypatch.setattr(rd, "_circular_momentum", scan_leaves_domain)
    assert rd.find_rotating(rm.make_singular_band(), nu=1, k_max=2) == (
        [], None)


def test_illinois_refinement_converges_on_steep_convex_advance(monkeypatch):
    # on Delta_theta = 2 pi (L / L_root)^12 plain regula falsi keeps the
    # upper end fixed and runs out of its 60 steps; halving the value of an
    # end kept twice (the Illinois step) reaches the target within a few
    L_root = 0.7
    advances = []

    def fake_solve(reduced, L, guess, jac=None):
        advances.append(L)
        return ((1.2, 0.0), 0.0, None,
                SimpleNamespace(meta={"rider": 2 * math.pi * (L / L_root) ** 12}))

    monkeypatch.setattr(rd, "solve_radial_profile", fake_solve)
    sols, k_nu = rd.find_rotating(rm.make_singular_band(), nu=1, k_max=1)
    assert k_nu == 1
    assert sols[0].L == pytest.approx(L_root, rel=1e-6)
    assert len(advances) <= 20
