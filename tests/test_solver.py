import math

import numpy as np
import pytest

import resonance.model as rm
from resonance.spectrum import eigenvalue
from resonance import cli
from resonance import conditions as cd
from resonance import solver as sv
from resonance.integrate import (HomotopyField, PhaseState,
                                 integrate)

T2PI = 2 * math.pi


def _model(f, n_mode=1, domain=rm.FULL_LINE):
    return rm.NonlinearityModel(f=f, period=T2PI, domain=domain, n_mode=n_mode)


# --------------------------------------------------------------------------
# return map


def test_return_map_forced_resonant_closed_form():
    # x = cos(t)/3 solves x'' + 4x = cos t; its initial state is fixed
    fld = HomotopyField(_model(lambda t, x: 4 * x - math.cos(t)), 1.0)
    px, py = sv.poincare(fld, (1.0 / 3.0, 0.0))
    assert abs(px - 1.0 / 3.0) < 1e-7 and abs(py) < 1e-7


def test_return_map_identity_at_resonance():
    fld = HomotopyField(_model(lambda t, x: x), 1.0)
    for z in ((1.0, 0.0), (0.3, -0.7), (2.0, 2.0)):
        px, py = sv.poincare(fld, z)
        assert math.hypot(px - z[0], py - z[1]) < 1e-8


def test_return_map_linear_fundamental_matrix():
    # x'' + 2x = 0: closed-form rotation with frequency sqrt(2)
    fld = HomotopyField(_model(lambda t, x: 2 * x), 1.0)
    s2 = math.sqrt(2.0)
    px, py = sv.poincare(fld, (1.0, 0.0))
    assert px == pytest.approx(math.cos(T2PI * s2), abs=1e-9)
    assert py == pytest.approx(-s2 * math.sin(T2PI * s2), abs=1e-9)


# --------------------------------------------------------------------------
# shooting


def test_newton_recovers_nonresonant_forced_solution():
    # x = cos t solves x'' + 2x = cos t uniquely among periodic solutions
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    z, res, _ = sv.newton_fixed_point(fld, (0.0, 0.0))
    assert math.hypot(z[0] - 1.0, z[1]) < 1e-8
    assert res < 1e-9


def test_newton_converges_from_origin_on_degenerate_forced_field():
    # mu = 4 sits on an eigenvalue for this period: the return map is the
    # identity and the start state is itself a fixed point
    fld = HomotopyField(_model(lambda t, x: 4 * x - math.cos(t)), 1.0)
    z, res, _ = sv.newton_fixed_point(fld, (0.0, 0.0), tol=1e-7)
    assert res < 1e-7
    px, py = sv.poincare(fld, z)
    assert math.hypot(px - z[0], py - z[1]) < 1e-7


def test_newton_flags_singular_linearization():
    fld = HomotopyField(_model(lambda t, x: x), 1.0)
    with pytest.raises(sv.SingularJacobianError):
        sv.newton_fixed_point(fld, (0.5, 0.2), tol=1e-13)


def _forced_linear(mu, forcing=1.0):
    # x'' + mu x = forcing cos t: the return map P is affine, and for
    # mu != 1 its fixed point is (forcing / (mu - 1), 0)
    return HomotopyField(_model(lambda t, x: mu * x - forcing * math.cos(t)),
                         1.0)


def _count_fd_jacobians(monkeypatch):
    calls = []
    original = sv._fd_jacobian

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sv, "_fd_jacobian", counted)
    return calls


def test_newton_from_a_neighbouring_jacobian_reaches_the_closed_form(
        monkeypatch):
    *_, jac = sv.newton_fixed_point(_forced_linear(2.1), (0.0, 0.0),
                                    full_output=True)
    fds = _count_fd_jacobians(monkeypatch)
    z, res, _ = sv.newton_fixed_point(_forced_linear(2.0), (0.5, 0.1),
                                      jac=jac)
    assert res < 1e-9
    assert math.hypot(z[0] - 1.0, z[1]) < 1e-8
    # the carried Jacobian is enough: no finite-difference one is taken
    assert not fds


@pytest.mark.parametrize("bad", ["singular", "wrong-signed"])
def test_newton_refreshes_a_bad_carried_jacobian(bad, monkeypatch):
    fld = _forced_linear(2.0)
    *_, jac = sv.newton_fixed_point(fld, (0.0, 0.0), full_output=True)
    carried = (((0.0, 0.0), (0.0, 0.0)) if bad == "singular" else
               tuple(tuple(-v for v in row) for row in jac))
    fds = _count_fd_jacobians(monkeypatch)
    z, res, _ = sv.newton_fixed_point(fld, (0.5, 0.1), jac=carried)
    assert res < 1e-9
    assert math.hypot(z[0] - 1.0, z[1]) < 1e-8
    assert len(fds) >= 1


def test_newton_with_a_carried_jacobian_still_flags_resonance():
    # x'' + x = cos t: P(z) = z + const, so no fixed point; the Jacobian
    # carried from mu = 1.21 is regular, the fresh one vanishes
    *_, jac = sv.newton_fixed_point(_forced_linear(1.21), (0.0, 0.0),
                                    full_output=True)
    with pytest.raises(sv.SingularJacobianError):
        sv.newton_fixed_point(_forced_linear(1.0), (0.5, 0.2), jac=jac)


def test_newton_result_is_guess_independent():
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    z1, _, _ = sv.newton_fixed_point(fld, (0.0, 0.0))
    z2, _, _ = sv.newton_fixed_point(fld, (1.4, -0.8))
    assert math.hypot(z1[0] - z2[0], z1[1] - z2[1]) < 1e-7


# --------------------------------------------------------------------------
# boundary winding


def test_degree_one_for_nonresonant_linear_field():
    fld = HomotopyField(_model(lambda t, x: 2 * x), 1.0)
    for radius in (0.5, 5.0, 50.0):
        assert sv.boundary_degree(fld, radius) == 1


def test_degree_one_around_unique_forced_fixed_point():
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    assert sv.boundary_degree(fld, 8.0) == 1


def test_degree_invariant_between_certified_radii():
    model = rm.make_cubic_band()
    fld = HomotopyField(model, 1.0)
    degs = {sv.boundary_degree(fld, r) for r in (2e4, 1e5, 4e5)}
    assert len(degs) == 1
    assert degs.pop() != 0


def test_boundary_curves_run_counterclockwise():
    # a winding counts turns with the curve's orientation, so a clockwise
    # N-level oval would report minus the degree in singular mode
    def signed_area(curve, n=400):
        pts = [curve(k / n) for k in range(n)]
        return 0.5 * sum(x1 * y2 - x2 * y1
                         for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))

    assert signed_area(sv.circle_curve(2.0)) > 0.0
    assert signed_area(sv.n_level_curve(64.0)) > 0.0


def test_degree_rejects_boundary_fixed_point():
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    with pytest.raises(ValueError):
        sv.boundary_degree(fld, 1.0)    # the fixed point (1, 0) sits on it


def test_boundary_degree_at_the_certifying_radius_costs_62_maps(monkeypatch):
    # R_elastic of the band model: 48 starting samples and 14 refinements
    calls = []
    original = sv.poincare

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sv, "poincare", counted)
    fld = HomotopyField(rm.make_cubic_band(), 1.0)
    assert sv.boundary_degree(fld, 351851.0706289556) == 1
    assert len(calls) == 62


@pytest.mark.parametrize("box, winding", [
    ((0.5, 1.7, -0.4, 0.6), 1),     # holds the fixed point (1, 0)
    ((1.5, 2.5, -0.5, 0.5), 0),     # holds none
])
def test_winding_around_a_rectangle_counts_the_fixed_point(box, winding):
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    assert sv._winding(fld, sv._rect_curve(*box), sv.SolveOpts()) == winding


def test_degree_search_locates_fixed_point():
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    hits = sv.degree_search(fld, 3.0, stop_after=1)
    assert hits
    (zx, zy), res = hits[0]
    assert math.hypot(zx - 1.0, zy) < 1e-6
    assert res < 1e-9


# --------------------------------------------------------------------------
# homotopy transport


def test_homotopy_full_line_certificate():
    model = rm.make_cubic_band()
    cert = sv.homotopy_solve(model)
    assert cert.converged
    assert cert.residual < 1e-8
    assert cert.rotation is not None
    assert abs(cert.rotation - round(cert.rotation)) < 0.01

    # certified point re-returns under the map over two periods
    fld = HomotopyField(model, 1.0)
    io = sv.SolveOpts().integrate
    traj = integrate(fld, PhaseState(0.0, cert.z_star.x, cert.z_star.y),
                     2 * T2PI, io)
    err = math.hypot(traj.x[-1] - cert.z_star.x, traj.y[-1] - cert.z_star.y)
    assert err < max(2 * cert.residual, 5e-9)

    lams = [p.lam for p in cert.path]
    assert lams[0] == 0.0 and lams[-1] == 1.0
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_homotopy_singular_certificate_positive():
    model = rm.make_singular_band()
    assert cd.validate_A0_Ainf(model)["passed"]
    cert = sv.homotopy_solve(model, radius=64.0)
    assert cert.converged
    # the winding on the N-level oval counts the lone fixed point once
    assert cert.degree == cert.diagnostics["index"] == 1
    assert cert.diagnostics["index_note"] is None
    assert cert.residual < 1e-8
    assert cert.diagnostics["min_x"] > 0
    assert cert.diagnostics["path_min_x"] > 0.05


def test_violating_model_may_still_have_small_solutions():
    # the sign conditions are sufficient, not necessary: this violator
    # keeps a small-amplitude solution reachable by continuation
    model = rm.make_resonant_edge()
    lo, hi = cd.ll_verdict(model, tau_points=32)
    assert hi.verdict == "fail"
    cert = sv.homotopy_solve(model)
    assert cert.converged and cert.residual < 1e-8


def test_lost_continuation_reports_growing_family(monkeypatch):
    # pumping the eigenmode directly leaves no periodic solution at the
    # target field, so the branch must blow up before lambda reaches 1
    model = rm.make_linear_resonant()
    monkeypatch.setattr(sv, "_MAX_SUP_NORM", 2e3)
    cert = sv.homotopy_solve(model)
    assert cert.status == "lost"
    sups = [p.sup_norm for p in cert.path]
    assert sups[-1] > 1e3
    assert sups[-1] > 4 * sups[len(sups) // 2]
    assert cert.diagnostics["lost_at"] <= 1.0


@pytest.fixture(scope="module")
def band_certificate():
    """The band model's certificate, with the return maps it took."""
    calls = []
    original = sv.poincare

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "poincare", counted)
        cert = sv.homotopy_solve(rm.make_cubic_band())
    return cert, len(calls)


def test_homotopy_return_map_count_is_pinned(band_certificate):
    # a deterministic work count: a corrector that polishes waypoints again
    # (735 maps), or one that takes a finite-difference Jacobian on every
    # iteration instead of carrying one along the path (183), fails here
    # without any wall-clock noise
    cert, maps = band_certificate
    assert cert.converged
    assert maps == 93


def test_homotopy_halving_recovers_a_failed_corrector(band_certificate,
                                                      monkeypatch):
    # one corrector fails at lambda = 1/2: the step is halved once, and the
    # continuation reaches the same certified point
    base, _ = band_certificate
    original = sv.newton_fixed_point
    failed = []

    def fail_once_at_half(fld, *args, **kwargs):
        if fld.lam == 0.5 and not failed:
            failed.append(fld.lam)
            raise sv.NewtonError("forced failure")
        return original(fld, *args, **kwargs)

    monkeypatch.setattr(sv, "newton_fixed_point", fail_once_at_half)
    cert = sv.homotopy_solve(rm.make_cubic_band())
    assert failed == [0.5]
    assert cert.converged and cert.residual < sv.SolveOpts().newton_tol
    assert cert.diagnostics["halvings"] == 1
    assert 0.484375 in [p.lam for p in cert.path]
    assert cert.z_star.x == pytest.approx(base.z_star.x, abs=1e-9)


def test_homotopy_polishes_only_the_certified_point(band_certificate):
    cert, _ = band_certificate
    tol = sv.SolveOpts().newton_tol
    assert all(p.residual < math.sqrt(tol) for p in cert.path)
    assert cert.path[-1].residual == cert.residual < tol
    # the waypoints stop well above the certificate's tolerance
    assert max(p.residual for p in cert.path[:-1]) > 10 * tol


def test_homotopy_reports_halvings(band_certificate):
    cert, _ = band_certificate
    assert cert.diagnostics["halvings"] == 0
    assert len(cert.path) == sv.SolveOpts().lambda_points


@pytest.mark.parametrize("points", [1, 0])
def test_homotopy_rejects_a_grid_without_the_model(points):
    # one lambda point is lambda = 0 alone: the comparison field, never the
    # model whose fixed point the certificate would claim
    with pytest.raises(ValueError, match="lambda_points must be at least 2"):
        sv.homotopy_solve(rm.make_cubic_band(),
                          opts=sv.SolveOpts(lambda_points=points))


def test_homotopy_orbit_is_the_certified_trajectory(band_certificate):
    # the corrector's last integration is reused, not repeated: it must be
    # bit-identical to a fresh one
    cert, _ = band_certificate
    model = rm.make_cubic_band()
    fresh = integrate(HomotopyField(model, 1.0),
                      PhaseState(0.0, cert.z_star.x, cert.z_star.y),
                      model.period, sv.SolveOpts().integrate)
    for name in ("t", "x", "y", "rho", "theta"):
        assert np.array_equal(getattr(cert.orbit, name), getattr(fresh, name))
    assert [(e.kind, e.t, e.x, e.y) for e in cert.orbit.events] == \
        [(e.kind, e.t, e.x, e.y) for e in fresh.events]
    assert cert.path[-1].sup_norm == fresh.sup_norm()
    assert cert.path[-1].min_x == float(np.min(fresh.x))


def test_certificate_report_says_how_the_path_went(band_certificate,
                                                   tmp_path):
    cert, _ = band_certificate
    report = cli.Report()
    cli._write_certificate(cert, rm.make_cubic_band(), sv.SolveOpts(),
                           str(tmp_path), report)
    lines = dict(report.lines)
    assert lines["certificate.initial_guess"] == "(0.0, 0.0)"
    assert lines["certificate.halvings"] == "0"
    rows = (tmp_path / "solution.csv").read_text().splitlines()
    assert len(rows) == len(cert.orbit.t) + 1
    assert (tmp_path / "path.csv").read_text().count("\n") == \
        len(cert.path) + 1


def test_newton_orbit_is_the_returned_points_trajectory():
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    io = sv.SolveOpts().integrate
    # the three exits: the start is converged, a trial converges, and (with
    # a tolerance no residual meets) the stall rule on a fresh Jacobian
    for guess, tol, exit_it in (((1.0, 0.0), 1e-9, 0), ((0.0, 0.0), 1e-9, 2),
                                ((0.0, 0.0), 0.0, 8)):
        z, res, it, orbit, _ = sv.newton_fixed_point(fld, guess, tol,
                                                     full_output=True)
        assert (z, res, it) == sv.newton_fixed_point(fld, guess, tol)
        assert it == exit_it
        end = integrate(fld, PhaseState(0.0, z[0], z[1]), T2PI, io)
        assert np.array_equal(orbit.x, end.x) and np.array_equal(orbit.y, end.y)
        assert math.hypot(orbit.x[-1] - z[0], orbit.y[-1] - z[1]) == res


@pytest.mark.parametrize("forcing", [
    0.5000528931982315,     # stalled on the noise floor at lambda = 0.25
    0.5000567850356834,     # limped along a far branch for 56 s
    0.5001799998928425,     # lost on a far branch after 78 s
], ids=["noise-floor-stall", "far-branch-slow", "far-branch-lost"])
def test_homotopy_stays_on_the_certified_branch(forcing, monkeypatch):
    # the small-amplitude branch folds near lambda = 0.1; these inputs once
    # ended on the noise floor or on a large-amplitude branch (amplitude
    # ~18) whose residual cannot be polished below ~3e-5
    failures = []
    original = sv.newton_fixed_point

    def counted(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except Exception:
            failures.append(1)
            raise

    monkeypatch.setattr(sv, "newton_fixed_point", counted)
    cert = sv.homotopy_solve(rm.make_cubic_band(forcing=forcing))
    assert cert.converged
    assert cert.residual < 1e-8
    assert max(p.sup_norm for p in cert.path) < 2.0
    # each failed continuation step halves the next one
    assert cert.diagnostics["halvings"] == len(failures)


def test_homotopy_stall_at_the_lambda_floor_loses_the_path(monkeypatch):
    # every corrector at lambda >= 1/2 fails: the step to 1/2 halves from
    # 1/32 down to the floor, and the failure there ends the path with no
    # search for a fixed point
    original = sv.newton_fixed_point
    failures, searches = [], []

    def fail_from_half(fld, *args, **kwargs):
        if fld.lam >= 0.5:
            failures.append(fld.lam)
            raise sv.NewtonError("forced failure")
        return original(fld, *args, **kwargs)

    monkeypatch.setattr(sv, "newton_fixed_point", fail_from_half)
    monkeypatch.setattr(sv, "degree_search",
                        lambda *args, **kwargs: searches.append(1) or [])
    cert = sv.homotopy_solve(rm.make_cubic_band())
    assert cert.status == "lost"
    assert cert.diagnostics["lost_at"] == 0.5
    assert len(failures) == 16
    assert cert.diagnostics["halvings"] == 15
    assert searches == []
    assert cert.path[-1].lam < 0.5


# --------------------------------------------------------------------------
# local index of the certified fixed point


@pytest.mark.parametrize("source, sign", [
    ("1.5*x - 0.5*cos(t)", 1),    # x'' + 1.5x = 0.5 cos t: det(I - M) > 0
    ("-x - 0.5*cos(t)", -1),      # x'' - x = 0.5 cos t: det(I - M) < 0
])
def test_local_index_equals_the_degree_of_a_lone_fixed_point(source, sign):
    # a linear equation has one fixed point, so its index
    # sign det(I - M) is the boundary winding
    cert = sv.homotopy_solve(rm.from_expression(source, T2PI), radius=64.0)
    assert cert.converged
    assert cert.degree == cert.diagnostics["index"] == sign
    assert cert.diagnostics["index_note"] is None


def test_index_mismatch_is_noted_and_costs_two_return_maps(monkeypatch,
                                                           tmp_path):
    model = rm.from_expression("-x - 0.5*cos(t)", T2PI)
    calls = []
    original = sv.poincare

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sv, "poincare", counted)
    sv.homotopy_solve(model)
    plain = len(calls)
    calls.clear()
    # a winding of +1 around an index -1 point: more fixed points inside
    monkeypatch.setattr(sv, "boundary_degree", lambda *args, **kwargs: 1)
    cert = sv.homotopy_solve(model, radius=64.0)
    assert len(calls) == plain + 2
    assert cert.converged and cert.degree == 1
    assert cert.diagnostics["index"] == -1
    assert cert.diagnostics["index_note"] == "other fixed points inside R"
    report = cli.Report()
    cli._write_certificate(cert, model, sv.SolveOpts(), str(tmp_path),
                           report)
    lines = dict(report.lines)
    assert lines["certificate.index"] == "-1"
    assert lines["certificate.index_note"] == "other fixed points inside R"


# --------------------------------------------------------------------------
# normalized profiles


def test_profile_of_scaled_resonant_family():
    # x'' + x = 0: orbits A sin(t - 0.1) at growing amplitude; the small
    # phase shift keeps the zero crossings inside the window
    model = _model(lambda t, x: x)
    fld = HomotopyField(model, 1.0)
    trajs = [integrate(fld, PhaseState(0.0, -amp * math.sin(0.1),
                                       amp * math.cos(0.1)), T2PI)
             for amp in (10.0, 100.0, 1000.0)]
    prof = sv.normalized_profile(trajs)
    for orb in prof["per_orbit"]:
        assert orb["arcs"]
        for arc in orb["arcs"]:
            assert arc["amplitude"] == pytest.approx(1.0, abs=1e-6)
            assert arc["omega"] == pytest.approx(1.0, abs=1e-6)


def _edge_period_orbit(model, lap_target, y_lo, y_hi, opts):
    """Start level y0 on the positive y-axis whose lap takes lap_target."""
    fld = HomotopyField(model, 1.0)

    def lap_time(y0):
        traj = integrate(fld, PhaseState(0.0, 0.0, y0), 3.0 * lap_target,
                         opts.integrate)
        ups = [e.t for e in traj.events
               if e.kind == "cross_x_eq_0" and e.y > 0]
        return ups[0]

    for _ in range(60):
        mid = 0.5 * (y_lo + y_hi)
        if lap_time(mid) > lap_target:   # lap period shrinks with amplitude
            y_lo = mid
        else:
            y_hi = mid
    return 0.5 * (y_lo + y_hi)


def test_profile_of_blowup_family_fits_band_edge_frequency():
    # autonomous cubic-left models with right slope approaching the band
    # edge from above carry (N+1)-lap periodic orbits whose amplitude
    # diverges: the family the sign conditions are built to exclude
    n = 3
    mu_edge = eigenvalue(n + 1, T2PI)
    opts = sv.SolveOpts()
    trajs = []
    for delta in (0.16, 0.04, 0.01):
        mu = mu_edge * (1.0 + delta)

        def f(t, x, mu=mu):
            return x ** 3 if x < 0 else mu * x

        model = _model(f, n_mode=n)
        y0 = _edge_period_orbit(model, T2PI / (n + 1), 1e2, 1e7, opts)
        fld = HomotopyField(model, 1.0)
        traj = integrate(fld, PhaseState(0.0, 0.0, y0), T2PI, opts.integrate)
        # genuine periodic solution: the return residual is tiny
        res = math.hypot(traj.x[-1], traj.y[-1] - y0)
        assert res < 1e-5 * y0
        trajs.append(traj)
    prof = sv.normalized_profile(trajs)
    assert prof["sup_norms"][-1] > 4 * prof["sup_norms"][0]
    omega = prof["omega_trend"][-1]
    assert omega == pytest.approx(math.sqrt(mu_edge), rel=0.01)
    ratios = [abs(o["min_ratio"]) for o in prof["per_orbit"]]
    assert ratios[-1] < ratios[0]
    assert ratios[-1] < 0.05


def test_no_growing_family_when_sign_conditions_hold():
    # shooting from states of growing size keeps falling back to the small
    # solution: no large periodic orbits show up below amplitude 1e6
    model = rm.make_cubic_band()
    fld = HomotopyField(model, 1.0)
    found_norms = []
    for amp in (1e2, 1e4, 1e6):
        try:
            z, res, _ = sv.newton_fixed_point(fld, (0.0, amp), tol=1e-8)
        except (sv.NewtonError, sv.SingularJacobianError):
            continue
        traj = integrate(fld, PhaseState(0.0, z[0], z[1]), T2PI,
                         sv.SolveOpts().integrate)
        found_norms.append(traj.sup_norm())
    assert all(n < 100.0 for n in found_norms)


def test_modified_polar_angle_integral_of_pure_arc():
    # for v = sin(sqrt(mu_K) t) on one arc the angular integrand is
    # identically 1, so sqrt(mu_K) * arc duration = pi
    mu_k = eigenvalue(3, T2PI)
    root = math.sqrt(mu_k)
    ts = np.linspace(0.0, math.pi / root, 20001)
    v = np.sin(root * ts)
    vp = root * np.cos(root * ts)
    integrand = (mu_k * v ** 2 + vp ** 2) / (mu_k * v ** 2 + vp ** 2)
    val = root * np.trapezoid(integrand, ts)
    assert val == pytest.approx(math.pi, abs=1e-10)

    # same check through the fitted-arc route with p(t) from the equation
    p = np.full_like(ts, mu_k)
    integrand2 = (p * v ** 2 + vp ** 2) / (mu_k * v ** 2 + vp ** 2)
    val2 = root * np.trapezoid(integrand2, ts)
    assert val2 == pytest.approx(math.pi, abs=1e-10)
