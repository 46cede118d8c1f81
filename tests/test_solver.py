import json
import math
import re

import numpy as np
import pytest

import resonance.model as rm
from resonance.spectrum import eigenvalue
from resonance import apriori as ap
from resonance import cli
from resonance import conditions as cd
from resonance import solver as sv
from resonance.integrate import (HomotopyField, PhaseState,
                                 integrate)
from oracles import normalized_profile

T2PI = 2 * math.pi


def _model(f, n_mode=1, domain=rm.FULL_LINE):
    return rm.NonlinearityModel(f=f, period=T2PI, domain=domain, n_mode=n_mode)


# --------------------------------------------------------------------------
# return map


def test_return_map_forced_resonant_closed_form():
    # x = cos(t)/3 solves x'' + 4x = cos t; its initial state is fixed
    fld = HomotopyField(_model(lambda t, x: 4 * x - math.cos(t)), 1.0)
    px, py, _ = sv.poincare(fld, (1.0 / 3.0, 0.0))
    assert abs(px - 1.0 / 3.0) < 1e-7 and abs(py) < 1e-7


def test_return_map_identity_at_resonance():
    fld = HomotopyField(_model(lambda t, x: x), 1.0)
    for z in ((1.0, 0.0), (0.3, -0.7), (2.0, 2.0)):
        px, py, _ = sv.poincare(fld, z)
        assert math.hypot(px - z[0], py - z[1]) < 1e-8


def test_return_map_linear_fundamental_matrix():
    # x'' + 2x = 0: closed-form rotation with frequency sqrt(2)
    fld = HomotopyField(_model(lambda t, x: 2 * x), 1.0)
    s2 = math.sqrt(2.0)
    px, py, _ = sv.poincare(fld, (1.0, 0.0))
    assert px == pytest.approx(math.cos(T2PI * s2), abs=1e-9)
    assert py == pytest.approx(-s2 * math.sin(T2PI * s2), abs=1e-9)


# --------------------------------------------------------------------------
# shooting


def test_newton_recovers_nonresonant_forced_solution():
    # x = cos t solves x'' + 2x = cos t uniquely among periodic solutions
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    z, res, *_ = sv.newton_fixed_point(fld, (0.0, 0.0))
    assert math.hypot(z[0] - 1.0, z[1]) < 1e-8
    assert res < 1e-9


def test_newton_converges_from_origin_on_degenerate_forced_field():
    # mu = 4 sits on an eigenvalue for this period: the return map is the
    # identity and the start state is itself a fixed point
    fld = HomotopyField(_model(lambda t, x: 4 * x - math.cos(t)), 1.0)
    z, res, *_ = sv.newton_fixed_point(fld, (0.0, 0.0), target=1e-7)
    assert res < 1e-7
    px, py, _ = sv.poincare(fld, z)
    assert math.hypot(px - z[0], py - z[1]) < 1e-7


def test_newton_flags_singular_linearization():
    # the harmonic return map is the identity: every start is a fixed point
    # up to integration noise (about 1e-15), so only a tolerance no residual
    # meets makes Newton build the singular Jacobian
    fld = HomotopyField(_model(lambda t, x: x), 1.0)
    with pytest.raises(sv.SingularJacobianError):
        sv.newton_fixed_point(fld, (0.5, 0.2), target=0.0)


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
    *_, jac = sv.newton_fixed_point(_forced_linear(2.1), (0.0, 0.0))
    fds = _count_fd_jacobians(monkeypatch)
    z, res, *_ = sv.newton_fixed_point(_forced_linear(2.0), (0.5, 0.1),
                                       jac=jac)
    assert res < 1e-9
    assert math.hypot(z[0] - 1.0, z[1]) < 1e-8
    # the carried Jacobian is enough: no finite-difference one is taken
    assert not fds


@pytest.mark.parametrize("bad", ["singular", "wrong-signed"])
def test_newton_refreshes_a_bad_carried_jacobian(bad, monkeypatch):
    fld = _forced_linear(2.0)
    *_, jac = sv.newton_fixed_point(fld, (0.0, 0.0))
    carried = (((0.0, 0.0), (0.0, 0.0)) if bad == "singular" else
               tuple(tuple(-v for v in row) for row in jac))
    fds = _count_fd_jacobians(monkeypatch)
    z, res, *_ = sv.newton_fixed_point(fld, (0.5, 0.1), jac=carried)
    assert res < 1e-9
    assert math.hypot(z[0] - 1.0, z[1]) < 1e-8
    assert len(fds) >= 1


def test_newton_with_a_carried_jacobian_still_flags_resonance():
    # x'' + x = cos t: P(z) = z + const, so no fixed point; the Jacobian
    # carried from mu = 1.21 is regular, the fresh one vanishes
    *_, jac = sv.newton_fixed_point(_forced_linear(1.21), (0.0, 0.0))
    with pytest.raises(sv.SingularJacobianError):
        sv.newton_fixed_point(_forced_linear(1.0), (0.5, 0.2), jac=jac)


def test_newton_result_is_guess_independent():
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    z1, *_ = sv.newton_fixed_point(fld, (0.0, 0.0))
    z2, *_ = sv.newton_fixed_point(fld, (1.4, -0.8))
    assert math.hypot(z1[0] - z2[0], z1[1] - z2[1]) < 1e-7


def _record_maps(monkeypatch):
    """The points of every return map, each with the name of the error it
    raised or None."""
    calls = []
    original = sv.poincare

    def recorded(fld, z, tol=sv.TOL, rider=None):
        try:
            out = original(fld, z, tol, rider)
        except Exception as e:
            calls.append((z, type(e).__name__))
            raise
        calls.append((z, None))
        return out

    monkeypatch.setattr(sv, "poincare", recorded)
    return calls


def test_newton_damping_counts_a_failed_trial_map(monkeypatch):
    # a carried Jacobian scaled by 0.02 makes the full step from x = 1.05
    # land past the wall of singular_band; that trial's integration raises
    # DomainExitError at its start, and the damping halves the step past it
    fld = HomotopyField(rm.make_singular_band(), 1.0)
    z_star, *_, jac = sv.newton_fixed_point(fld, (1.0, 0.0))
    carried = tuple(tuple(0.02 * v for v in row) for row in jac)
    maps = _record_maps(monkeypatch)
    z, res, *_ = sv.newton_fixed_point(fld, (1.05, 0.0), jac=carried)
    assert maps[1][0][0] <= 0.0 and maps[1][1] == "DomainExitError"
    assert maps[2][1] is None and maps[2][0][0] > 0.0
    assert res < sv._NEWTON_TOL
    assert math.hypot(z[0] - z_star[0], z[1] - z_star[1]) < 1e-9


def test_first_guess_that_converges_seeds_the_continuation(monkeypatch):
    # at lambda = 0 on cubic_band the outermost guess, (0, 4), reaches the
    # outer index +1 fixed point, whose branch reaches lambda = 1: 23
    # Newton maps and 2 for the index
    maps = _record_maps(monkeypatch)
    guess, z, res, orbit, _ = sv._solve_at_lambda(
        rm.make_cubic_band(), 0.0, sv._NEWTON_TOL, sv.TOL)
    assert guess == (0.0, 4.0)
    assert z[0] == pytest.approx(-1.12430, abs=1e-5) and abs(z[1]) < 1e-9
    assert res < sv._NEWTON_TOL
    assert orbit.x[0] == z[0]
    assert len(maps) == 25


def test_start_passes_over_a_fixed_point_of_index_minus_one(monkeypatch):
    # at the waypoint tolerance (4, 0) reaches an index -1 point at
    # (-4.95, -12.4) on cubic_band's comparison field, and (1, 0) the one at
    # -0.441; the start is the first index +1 point, and without one the
    # start fails
    target = math.sqrt(sv._NEWTON_TOL)
    monkeypatch.setattr(sv, "_initial_guesses",
                        lambda fld: iter([(4.0, 0.0), (0.0, 4.0)]))
    guess, z, *_ = sv._solve_at_lambda(rm.make_cubic_band(), 0.0, target,
                                       sv.TOL)
    assert guess == (0.0, 4.0)
    assert z[0] == pytest.approx(-1.12430, abs=1e-4)
    monkeypatch.setattr(sv, "_initial_guesses", lambda fld: iter([(1.0, 0.0)]))
    with pytest.raises(sv.NewtonError, match=r"no fixed point found at "
                       r"lambda=0\.0: the one at \(-0\.441\d*, .* has "
                       r"index -1"):
        sv._solve_at_lambda(rm.make_cubic_band(), 0.0, target, sv.TOL)


def test_no_fixed_point_at_lambda_names_the_last_failure(monkeypatch):
    # linear_resonant with N = 1 at lambda = 1: its return map is a
    # translation, so every fresh Jacobian of P - I is singular
    maps = _record_maps(monkeypatch)
    with pytest.raises(sv.NewtonError,
                       match=r"no fixed point found at lambda=1\.0: "
                             r"return-map linearization is singular"):
        sv._solve_at_lambda(rm.make_linear_resonant(n_mode=1), 1.0,
                            sv._NEWTON_TOL, sv.TOL)
    assert len(maps) == 27


# --------------------------------------------------------------------------
# boundary winding


def test_degree_one_for_nonresonant_linear_field():
    fld = HomotopyField(_model(lambda t, x: 2 * x), 1.0)
    for radius in (0.5, 5.0, 50.0):
        assert sv.boundary_degree(fld, radius).degree == 1


def test_degree_one_around_unique_forced_fixed_point():
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    assert sv.boundary_degree(fld, 8.0).degree == 1


def test_degree_invariant_between_certified_radii():
    model = rm.make_cubic_band()
    fld = HomotopyField(model, 1.0)
    degs = {sv.boundary_degree(fld, r).degree for r in (2e4, 1e5, 4e5)}
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


def test_boundary_degree_at_the_certifying_radius_costs_63_maps(monkeypatch):
    # a fixed radius on the scale of the band model's R_elastic: 48 starting
    # samples, 14 refinements and the map that checks the margin
    calls = []
    original = sv.poincare

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sv, "poincare", counted)
    fld = HomotopyField(rm.make_cubic_band(), 1.0)
    assert sv.boundary_degree(fld, 351851.0706289556).degree == 1
    assert len(calls) == 63


def _defaults_circle():
    # find --defaults: cubic_band at forcing 0.5, on the circle of its
    # R_elastic (about 4.2e5)
    model = rm.make_cubic_band()
    return HomotopyField(model, 1.0), ap.build_kit(model).R_elastic


def test_defaults_winding_costs_54_maps(monkeypatch):
    # 48 starting samples and 5 refinements at the winding tolerance, then
    # the smallest-margin sample once more at the shooting tolerance
    fld, radius = _defaults_circle()
    tols = []
    original = sv.poincare

    def counted(fld, z, tol, rider=None):
        tols.append(tol)
        return original(fld, z, tol, rider)

    monkeypatch.setattr(sv, "poincare", counted)
    wind = sv.boundary_degree(fld, radius)
    assert wind.degree == 1 and wind.samples == 53
    assert tols == [1e-7] * 53 + [1e-11]
    assert wind.tol == 1e-7
    assert 10.0 * wind.map_error < wind.margin


@pytest.mark.parametrize("curve_name", ["defaults_circle", "singular_oval_32"])
def test_winding_tolerance_moves_each_start_far_less_than_its_margin(
        curve_name):
    # the degree of z - P~(z) is that of z - P(z) while |P~ - P| < |z - P|
    # on the curve; at the winding's 1e-7 the error is below 1e-3 of it
    if curve_name == "defaults_circle":
        fld, radius = _defaults_circle()
        curve = sv.circle_curve(radius)
    else:
        fld = HomotopyField(rm.make_singular_band(), 1.0)
        curve = sv.n_level_curve(32.0)
    exact, coarse = sv.TOL, 1e-7
    for k in range(sv._DEGREE_SAMPLES):
        zx, zy = curve(k / sv._DEGREE_SAMPLES)
        px, py, _ = sv.poincare(fld, (zx, zy), exact)
        qx, qy, _ = sv.poincare(fld, (zx, zy), coarse)
        assert math.hypot(qx - px, qy - py) <= 1e-3 * math.hypot(zx - px,
                                                                 zy - py)


def _halve_coarse_maps(monkeypatch):
    """Patch poincare so that each map at the winding tolerance lands half
    way back to its start: the angle of z - P~(z), and so the degree, is
    kept, but |P~ - P| is as large as |z - P~|."""
    original = sv.poincare
    coarse = max(sv.TOL, sv._BOUNDARY_TOL)

    def halved(fld, z, tol, rider=None):
        px, py, orbit = original(fld, z, tol, rider)
        if tol == coarse:
            px, py = 0.5 * (px + z[0]), 0.5 * (py + z[1])
        return px, py, orbit

    monkeypatch.setattr(sv, "poincare", halved)


def test_winding_raises_when_its_map_error_reaches_the_margin(monkeypatch):
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    _halve_coarse_maps(monkeypatch)
    with pytest.raises(RuntimeError, match="map error") as info:
        sv.boundary_degree(fld, 8.0)
    error, margin = map(float, re.search(
        r"map error (\S+) .* margin (\S+)", str(info.value)).groups())
    assert 10.0 * error >= margin > 0.0


def test_find_exits_6_when_the_winding_map_error_reaches_the_margin(
        monkeypatch, tmp_path, capsys):
    _halve_coarse_maps(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"family": "cubic_band", "T": T2PI, "N": 2,
                  "params": {"forcing": 0.5}},
        "theorem": "main",
        "grids": {"tau_points": 32},
    }))
    code = cli.main(["find", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_SOLVER == 6
    err = capsys.readouterr().err
    assert err.startswith("find: solve=fail: winding not certified")
    assert re.search(r"map error \S+ .* margin \S+", err)
    # the reason is in the artifacts too, not on stderr alone
    report = (tmp_path / "out" / "report.txt").read_text()
    assert re.search(r"^solve\.error = winding not certified .* map error "
                     r"\S+ .* margin \S+", report, re.M)
    assert report.index("solve.error") < report.index("stage.solve.verdict")


@pytest.mark.parametrize("box, winding", [
    ((0.5, 1.7, -0.4, 0.6), 1),     # holds the fixed point (1, 0)
    ((1.5, 2.5, -0.5, 0.5), 0),     # holds none
])
def test_winding_around_a_rectangle_counts_the_fixed_point(box, winding):
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    assert sv._winding(fld, sv._rect_curve(*box), sv.TOL).degree == winding


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
    traj = integrate(fld, PhaseState(0.0, cert.z_star.x, cert.z_star.y),
                     2 * T2PI, sv.TOL)
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
    # a deterministic work count: 24 maps for the start at lambda = 0 (22
    # Newton, 2 for the index) and 25 for 7 correctors.  A corrector that
    # polishes waypoints again, one that takes a finite-difference Jacobian
    # on every iteration instead of carrying one, or a step that stops
    # growing fails here without any wall-clock noise
    cert, maps = band_certificate
    assert cert.converged
    assert maps == 49


def test_homotopy_halving_recovers_a_failed_corrector(band_certificate,
                                                      monkeypatch):
    # the corrector of the step from 7/32 to 15/32 fails once: the step is
    # halved to 11/32, and the continuation reaches the same certified point
    base, _ = band_certificate
    original = sv.newton_fixed_point
    failed = []

    def fail_once_at_15_32(fld, *args, **kwargs):
        if fld.lam == 15 / 32 and not failed:
            failed.append(fld.lam)
            raise sv.NewtonError("forced failure")
        return original(fld, *args, **kwargs)

    monkeypatch.setattr(sv, "newton_fixed_point", fail_once_at_15_32)
    cert = sv.homotopy_solve(rm.make_cubic_band())
    assert failed == [15 / 32]
    assert cert.converged and cert.residual < sv._NEWTON_TOL
    assert cert.diagnostics["halvings"] == 1
    assert 11 / 32 in [p.lam for p in cert.path]
    assert cert.z_star.x == pytest.approx(base.z_star.x, abs=1e-9)


def test_homotopy_polishes_only_the_certified_point(band_certificate):
    cert, _ = band_certificate
    tol = sv._NEWTON_TOL
    assert all(p.residual < math.sqrt(tol) for p in cert.path)
    assert cert.path[-1].residual == cert.residual < tol
    # the waypoints stop well above the certificate's tolerance
    assert max(p.residual for p in cert.path[:-1]) > 10 * tol


def test_homotopy_reports_halvings(band_certificate):
    # the first step is 1/32; it doubles after correctors of at most 2
    # iterations and stays after 3 or 4, and the last one lands on 1
    cert, _ = band_certificate
    assert cert.diagnostics["halvings"] == 0
    assert [p.lam * 32 for p in cert.path] == [0, 1, 3, 7, 15, 23, 31, 32]


def test_homotopy_orbit_is_the_certified_trajectory(band_certificate):
    # the corrector's last integration is reused, not repeated: it must be
    # bit-identical to a fresh one
    cert, _ = band_certificate
    model = rm.make_cubic_band()
    fresh = integrate(HomotopyField(model, 1.0),
                      PhaseState(0.0, cert.z_star.x, cert.z_star.y),
                      model.period, sv.TOL)
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
    cli._write_certificate(cert, rm.make_cubic_band(), sv.TOL,
                           str(tmp_path), report)
    lines = dict(report.lines)
    assert lines["certificate.initial_guess"] == "(0.0, 4.0)"
    assert lines["certificate.halvings"] == "0"
    rows = (tmp_path / "solution.csv").read_text().splitlines()
    assert len(rows) == len(cert.orbit.t) + 1
    assert (tmp_path / "path.csv").read_text().count("\n") == \
        len(cert.path) + 1


def test_newton_orbit_is_the_returned_points_trajectory():
    fld = HomotopyField(_model(lambda t, x: 2 * x - math.cos(t)), 1.0)
    # the three exits: the start is converged, a trial converges, and (with
    # a tolerance no residual meets) the stall rule on a fresh Jacobian
    for guess, target, exit_it in (((1.0, 0.0), 1e-9, 0),
                                   ((0.0, 0.0), 1e-9, 2),
                                   ((0.0, 0.0), 0.0, 5)):
        z, res, it, orbit, _ = sv.newton_fixed_point(fld, guess,
                                                     target=target)
        assert (z, res, it) == sv.newton_fixed_point(fld, guess,
                                                     target=target)[:3]
        assert it == exit_it
        end = integrate(fld, PhaseState(0.0, z[0], z[1]), T2PI, sv.TOL)
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


@pytest.mark.parametrize("forcing, x_star", [
    (0.49985374569764496, -1.4772954847088564),
    (0.49989518585083675, -1.477316703550989),
    (0.4998412664136923, -1.4772890947819832),
    (0.49986033966956983, -1.4772988610881705),
    (0.49989068234375245, -1.4773143976155503),
    (0.4, -1.424740224161171),
])
def test_homotopy_starts_on_the_branch_that_reaches_lambda_one(forcing,
                                                               x_star):
    # started at (0, 0), these paths met the fold near lambda = 0.063 and
    # halved their step 6 times (the first five) or lost the path after
    # 46 halvings (forcing 0.4); the outer index +1 start meets no fold
    cert = sv.homotopy_solve(rm.make_cubic_band(forcing=forcing))
    assert cert.converged
    assert cert.diagnostics["halvings"] == 0
    assert max(p.sup_norm for p in cert.path) < 2.0
    assert cert.z_star.x == pytest.approx(x_star,
                                          abs=sv._NEWTON_TOL)


def test_homotopy_stall_at_the_lambda_floor_loses_the_path(monkeypatch):
    # every corrector at lambda >= 1/2 fails: each failure halves the step,
    # each accepted corrector doubles it again, so the path creeps up to
    # 1/2 until a failed step to 1/2 is at the floor; that failure ends
    # the path with no search for a fixed point
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
    assert len(failures) == 34
    assert cert.diagnostics["halvings"] == 33
    assert searches == []
    assert cert.path[-1].lam < 0.5


def test_comparison_field_of_cubic_band_has_three_fixed_points(monkeypatch):
    # at lambda = 0 and forcing 0.5 Newton finds three fixed points on
    # y = 0, with index signs +, - and +: the branch through (0, 0) folds
    # back to the middle one, so it does not reach lambda = 1 by itself
    maps = _record_maps(monkeypatch)
    fld = HomotopyField(rm.make_cubic_band(forcing=0.5), 0.0)
    found = []
    for guess, x_star, det_star in (((0.0, 0.0), 0.0, 2.99),
                                    ((-0.44, 0.0), -0.44122, -0.731),
                                    ((-1.12, 0.0), -1.12430, 1.48)):
        z, res, _, orbit, _ = sv.newton_fixed_point(fld, guess)
        assert res < sv._NEWTON_TOL
        assert z[0] == pytest.approx(x_star, abs=1e-5) and abs(z[1]) < 1e-9
        end = orbit.state_at_end()
        (j11, j12), (j21, j22) = sv._fd_jacobian(
            fld, z, (end.x - z[0], end.y - z[1]), sv.TOL)
        det = j11 * j22 - j12 * j21
        assert det == pytest.approx(det_star, rel=5e-3)
        found.append(int(np.sign(det)))
    assert found == [1, -1, 1]
    assert len(maps) == 20


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
    monkeypatch.setattr(sv, "boundary_degree", lambda *args, **kwargs:
                        sv.Winding(1, 48, 1.0, 0.0, 1e-7))
    cert = sv.homotopy_solve(model, radius=64.0)
    assert len(calls) == plain + 2
    assert cert.converged and cert.degree == 1
    assert cert.diagnostics["index"] == -1
    assert cert.diagnostics["index_note"] == "other fixed points inside R"
    report = cli.Report()
    cli._write_certificate(cert, model, sv.TOL, str(tmp_path), report)
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
    prof = normalized_profile(trajs)
    for orb in prof["per_orbit"]:
        assert orb["arcs"]
        for arc in orb["arcs"]:
            assert arc["amplitude"] == pytest.approx(1.0, abs=1e-6)
            assert arc["omega"] == pytest.approx(1.0, abs=1e-6)


def _edge_period_orbit(model, lap_target, y_lo, y_hi, tol):
    """Start level y0 on the positive y-axis whose lap takes lap_target."""
    fld = HomotopyField(model, 1.0)

    def lap_time(y0):
        traj = integrate(fld, PhaseState(0.0, 0.0, y0), 3.0 * lap_target,
                         tol)
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
    trajs = []
    for delta in (0.16, 0.04, 0.01):
        mu = mu_edge * (1.0 + delta)

        def f(t, x, mu=mu):
            return x ** 3 if x < 0 else mu * x

        model = _model(f, n_mode=n)
        y0 = _edge_period_orbit(model, T2PI / (n + 1), 1e2, 1e7, sv.TOL)
        fld = HomotopyField(model, 1.0)
        traj = integrate(fld, PhaseState(0.0, 0.0, y0), T2PI, sv.TOL)
        # genuine periodic solution: the return residual is tiny
        res = math.hypot(traj.x[-1], traj.y[-1] - y0)
        assert res < 1e-5 * y0
        trajs.append(traj)
    prof = normalized_profile(trajs)
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
            z, res, *_ = sv.newton_fixed_point(fld, (0.0, amp), target=1e-8)
        except (sv.NewtonError, sv.SingularJacobianError):
            continue
        traj = integrate(fld, PhaseState(0.0, z[0], z[1]), T2PI, sv.TOL)
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
