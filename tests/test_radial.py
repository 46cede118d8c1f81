import functools
import math

import numpy as np
import pytest

import resonance.model as rm
from resonance import radial as rd
from resonance import solver as sv
from resonance.integrate import (HomotopyField, IntegrateOpts, PhaseState,
                                 integrate, integrate_system)
from resonance.solver import homotopy_solve


T2PI = 2 * math.pi


def _autonomous(f_of_r):
    return rm.NonlinearityModel(
        f=lambda t, r: f_of_r(r), period=T2PI, domain=rm.SINGULAR, n_mode=2,
        f_tarr=lambda t, r: np.full(np.shape(t), float(f_of_r(r))))


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
    model = _autonomous(lambda r: r)
    eff = rd.effective_field(model, 1.0)
    assert eff.f(0.0, 1.0) == pytest.approx(0.0, abs=1e-14)


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
    model = _autonomous(lambda r: r - 2.0)
    with pytest.raises(rd.NoBracketError):
        rd.circular_orbit(model, 1.0, bracket=(0.01, 1.99))


def test_angular_progress_circular():
    model = _autonomous(lambda r: r)
    dth = rd.angular_progress(model, PhaseState(0.0, 1.0, 0.0), 1.0, T2PI)
    assert dth == pytest.approx(T2PI, abs=1e-10)
    # constant integrand: h * L / rho0^2
    dth2 = rd.angular_progress(model, PhaseState(0.0, 1.0, 0.0), 1.0, 1.7)
    assert dth2 == pytest.approx(1.7, abs=1e-10)


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
    z, _, _ = rd.solve_radial_profile(model, L)
    z0 = PhaseState(0.0, *z)
    dth = rd.angular_progress(model, z0, L, model.period)
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
    homotopies = _count_calls(monkeypatch, "homotopy_solve")
    z, res, _ = rd.solve_radial_profile(rm.make_singular_band(), L)
    assert not homotopies and res < 1e-8
    assert z == pytest.approx(_homotopy_profile(L), abs=1e-9)


def test_profile_falls_back_to_homotopy_without_balance_radius(monkeypatch):
    def no_balance(*args, **kwargs):
        raise rd.NoBracketError("no balance radius")

    monkeypatch.setattr(rd, "circular_orbit", no_balance)
    homotopies = _count_calls(monkeypatch, "homotopy_solve")
    z, _, _ = rd.solve_radial_profile(rm.make_singular_band(), 0.373)
    assert len(homotopies) == 1
    assert z == pytest.approx(_homotopy_profile(0.373), abs=1e-9)


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
        sols, _ = rd.find_rotating(model, nu=nu, k_max=2, k_min=2)
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
    opts = IntegrateOpts(rtol=1e-11, atol=1e-11)
    f = model.f

    def rhs(t, y):
        x1, x2, v1, v2 = y
        r = math.hypot(x1, x2)
        a = -f(t, r) / r
        return np.array([v1, v2, a * x1, a * x2])

    y0 = np.array([sol.z0.x, 0.0, sol.z0.y, sol.L / sol.z0.x])
    ts, ys = integrate_system(rhs, y0, 0.0, sol.k * T2PI, opts)
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
                              0.0, T2PI, IntegrateOpts(rtol=1e-12, atol=1e-12),
                              t_stops=stencil)
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
                              0.0, period, sv.SolveOpts().integrate,
                              t_stops=stops)
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
    # and each profile solve starts from the Jacobian of the nearest known
    # L: the exact numbers of advance evaluations and return maps pin that
    # work (a finite-difference Jacobian on every Newton iteration took
    # 153 maps)
    advances = _count_calls(monkeypatch, "angular_progress")
    homotopies = _count_calls(monkeypatch, "homotopy_solve")
    maps = _count_calls(monkeypatch, "poincare", sv)
    runs = []
    for _ in range(2):
        runs.append((rd.find_rotating(rm.make_singular_band(), nu=1,
                                      k_max=2), len(advances), len(maps)))
        advances.clear()
        maps.clear()
    (sols, k_nu), n_advances, n_maps = runs[0]
    assert k_nu == 1 and [s.k for s in sols] == [1, 2]
    assert n_advances == 18
    assert n_maps == 95
    assert len(homotopies) == 0
    # no state survives a call: a second search repeats the first exactly
    assert runs[1] == runs[0]


def test_find_rotating_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken advance")

    monkeypatch.setattr(rd, "angular_progress", broken)
    with pytest.raises(TypeError, match="broken advance"):
        rd.find_rotating(rm.make_singular_band(), nu=1, k_max=1)


def test_illinois_refinement_converges_on_steep_convex_advance(monkeypatch):
    # on Delta_theta = 2 pi (L / L_root)^12 plain regula falsi keeps the
    # upper end fixed and runs out of its 60 steps; halving the value of an
    # end kept twice (the Illinois step) reaches the target within a few
    L_root = 0.7
    advances = []

    def fake_advance(model, z0, L, horizon, opts=None):
        advances.append(L)
        return 2 * math.pi * (L / L_root) ** 12

    monkeypatch.setattr(rd, "solve_radial_profile",
                        lambda model, L, guess=None, opts=None, jac=None:
                        ((1.2, 0.0), 0.0, None))
    monkeypatch.setattr(rd, "angular_progress", fake_advance)
    sols, k_nu = rd.find_rotating(rm.make_singular_band(), nu=1, k_max=1)
    assert k_nu == 1
    assert sols[0].L == pytest.approx(L_root, rel=1e-6)
    assert len(advances) <= 20
