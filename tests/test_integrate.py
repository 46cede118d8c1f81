import dataclasses
import math
import re
import sys

import numpy as np
import pytest

import resonance
import resonance.model as rm
from resonance import integrate as ig
from resonance import radial as rd
from oracles import measure_halfturn

T2PI = 2 * math.pi


def _model(f, domain=rm.FULL_LINE, n_mode=1, period=T2PI):
    return rm.NonlinearityModel(f=f, period=period, domain=domain, n_mode=n_mode)


def _field(f, **kw):
    return ig.HomotopyField(_model(f, **kw), 1.0)


def test_package_binds_integrate_to_the_submodule():
    assert resonance.integrate is sys.modules["resonance.integrate"], (
        "resonance.integrate must be the integrator submodule; a top-level "
        "re-export of the function integrate() in resonance/__init__.py "
        "shadows it")
    assert callable(resonance.integrate.integrate)


# --------------------------------------------------------------------------
# interpolated field values


def test_g_lambda_endpoints_and_interpolation():
    model = rm.make_cubic_band()
    f_val = model.f(0.3, 2.0)
    fld1 = ig.HomotopyField(model, 1.0)
    assert fld1.g(0.3, 2.0) == f_val

    # at lam = 0 the blend 0*f + 1*h is h's closed form on every branch,
    # float for float, the knots included
    fld0 = ig.HomotopyField(model, 0.0)
    mu = fld0.mu_mid
    for x in (-2.3, -1.0):
        assert fld0.g(0.7, x) == model.f(0.7, x)
    for x in (-0.7, -0.5, -0.3, 0.0):
        fx = model.f(0.7, x)
        assert fld0.g(0.7, x) == mu * x + x * (mu * x - fx)
    for x in (0.3, 2.7):
        assert fld0.g(0.7, x) == mu * x

    # hand substitution at x = -1/2: mu x + x(mu x - f) = -mu/4 + q/2
    q = model.f(0.7, -0.5)
    want = -0.25 * mu + 0.5 * q
    assert fld0.g(0.7, -0.5) == pytest.approx(want, rel=1e-14)

    # interpolated field is the convex combination
    fld_mid = ig.HomotopyField(model, 0.4)
    g_mid = fld_mid.g(0.7, -0.5)
    h_val = fld0.g(0.7, -0.5)
    assert g_mid == pytest.approx(0.4 * q + 0.6 * h_val, rel=1e-13)


def test_g_lambda_continuity_at_junctions():
    model = rm.make_cubic_band()
    fld0 = ig.HomotopyField(model, 0.0)
    for x0 in (-1.0, 0.0):
        lo = fld0.g(0.3, x0 - 1e-9)
        hi = fld0.g(0.3, x0 + 1e-9)
        assert lo == pytest.approx(hi, abs=1e-7)


def test_g_lambda_singular_pieces():
    model = rm.make_singular_band()
    fld0 = ig.HomotopyField(model, 0.0)
    mu = fld0.mu_mid
    # lam = 0: h's closed form on every branch, float for float
    assert fld0.g(0.1, 0.3) == model.f(0.1, 0.3)
    for x in (0.5, 0.6, 0.83, 1.0):
        fx = model.f(0.1, x)
        assert fld0.g(0.1, x) == (2.0 * x - 1.0) * mu * x + (2.0 - 2.0 * x) * fx
    for x in (1.3, 2.7):
        assert fld0.g(0.1, x) == mu * x
    for x0 in (0.5, 1.0):
        lo = fld0.g(0.1, x0 - 1e-9)
        hi = fld0.g(0.1, x0 + 1e-9)
        assert lo == pytest.approx(hi, abs=1e-6)


# --------------------------------------------------------------------------
# the DOP853 tableau


_COEFF = re.compile(r"_(A|B|BH|C|D|E)[0-9]+(_[0-9]+)?")


def _module_coefficients():
    return {name: value for name, value in vars(ig).items()
            if _COEFF.fullmatch(name)}


def test_tableau_matches_the_reference_coefficients():
    # every constant of the pair, its error estimate and its dense output
    # against scipy's DOP853 tables (0-based there, 1-based stages here);
    # c12 = 1 is written as t + h, so it has no constant
    dc = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    want = {}
    for i in [*range(1, 12), 13, 14, 15]:
        if i != 11:
            want[f"_C{i + 1}"] = dc.C[i]
        for j in np.nonzero(dc.A[i])[0]:
            want[f"_A{i + 1}_{j + 1}"] = dc.A[i, j]
    for j in np.nonzero(dc.B)[0]:
        want[f"_B{j + 1}"] = dc.B[j]
    for j in np.nonzero(dc.E5)[0]:
        want[f"_E{j + 1}"] = dc.E5[j]
    for r in range(len(dc.D)):
        for j in np.nonzero(dc.D[r])[0]:
            want[f"_D{r + 4}_{j + 1}"] = dc.D[r, j]
    # the 3rd-order weights: E3 is B minus them
    bh = dc.B - dc.E3[:-1]
    got = _module_coefficients()
    for j in np.nonzero(bh)[0]:
        assert got.pop(f"_BH{j + 1}") == pytest.approx(bh[j], abs=1e-16)
    assert got == want


def test_tableau_order_conditions():
    coeff = _module_coefficients()
    b = [v for name, v in coeff.items() if re.fullmatch(r"_B[0-9]+", name)]
    assert math.fsum(b) == pytest.approx(1.0, abs=1e-14)
    for i in [*range(2, 13), 14, 15, 16]:
        row = [v for name, v in coeff.items() if name.startswith(f"_A{i}_")]
        assert math.fsum(row) == pytest.approx(coeff.get(f"_C{i}", 1.0),
                                               abs=1e-14)


# --------------------------------------------------------------------------
# kinks: points where the field's x-derivative jumps


def test_kinks_of_piecewise_models_and_blends():
    band, sing = rm.make_cubic_band(), rm.make_singular_band()
    assert ig.HomotopyField(band, 1.0).kinks == (0.0,)
    assert ig.HomotopyField(band, 0.5).kinks == (-1.0, 0.0)
    assert ig.HomotopyField(sing, 0.3).kinks == (0.5, 1.0)
    # a single expression, and the radial reduction of one, declare none
    assert ig.HomotopyField(sing, 1.0).kinks == ()
    assert ig.HomotopyField(rm.make_linear_resonant(), 1.0).kinks == ()
    assert ig.HomotopyField(rd.effective_field(sing, 0.7), 1.0).kinks == ()


def test_steps_land_on_the_kink():
    # the certified point for this forcing: one period crosses cubic_band's
    # glue point x = 0 twice, where f' jumps from 0 to mu_2 = 1.  A step
    # across it made a local error of 1.7e-8 that its error estimate did
    # not see, and the 1e-11 endpoint was 5e-8 off
    model = rm.make_cubic_band(forcing=0.5000477123561152)
    fld = ig.HomotopyField(model, 1.0)
    z = ig.PhaseState(0.0, -1.4773947988092504, 2.863380218599238e-11)
    trajs = [ig.integrate(fld, z, model.period, tol)
             for tol in (1e-11, 1e-13)]
    (x11, y11), (x13, y13) = ((tr.x[-1], tr.y[-1]) for tr in trajs)
    assert math.hypot(x11 - x13, y11 - y13) < 1e-10
    # two step ends sit on the kink, one per crossing
    assert np.sum(np.abs(trajs[0].x) < 1e-9) == 2


def _piecewise_radial(L):
    # a piecewise singular model glued at rho = 1, where f' jumps from
    # 6.5 + 6 + 5 = 17.5 to 2, and its radial reduction at momentum L
    model = rm.from_piecewise("6.5*x - 2/x^3 - 1/x^5 + 0.5*cos(t)",
                              "2*x + 1.5 + 0.5*cos(t)", T2PI, rm.SINGULAR, 2)
    return ig.HomotopyField(rd.effective_field(model, L), 1.0)


def test_radial_reduction_lands_on_the_glue_point():
    fld = _piecewise_radial(0.7)
    assert fld.kinks == (1.0,)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 1.3, 0.0), T2PI, 1e-11)
    # stepping blindly across the glue point keeps 276 and throws 158 away
    assert traj.meta == {"steps": 169, "rejected": 65}
    # endpoints at 8 instants per period against a 1e-14 solution: blind
    # steps are up to 1.2e-7 off, landed ones within 3.4e-9
    worst = 0.0
    for L in (0.3, 0.7, 1.1):
        fld = _piecewise_radial(L)
        for x0 in (0.8, 1.3, 2.0):
            z = ig.PhaseState(0.0, x0, 0.0)
            for j in range(1, 9):
                a, b = (ig.integrate(fld, z, T2PI * j / 8, tol).state_at_end()
                        for tol in (1e-11, 1e-14))
                worst = max(worst, abs(a.x - b.x) / max(1.0, abs(b.x)),
                            abs(a.y - b.y) / max(1.0, abs(b.y)))
    assert worst < 1e-8


# --------------------------------------------------------------------------
# integrator oracles


def test_harmonic_oscillator_full_period_return():
    fld = _field(lambda t, x: x)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 1.0, 0.0), T2PI)
    assert abs(traj.x[-1] - 1.0) < 1e-8
    assert abs(traj.y[-1]) < 1e-8


def test_harmonic_oscillator_quarter_period():
    fld = _field(lambda t, x: x)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 1.0, 0.0), math.pi / 2)
    assert abs(traj.x[-1]) < 1e-8
    assert abs(traj.y[-1] + 1.0) < 1e-8


def test_forced_linear_known_periodic_solution():
    # x = cos(t)/3 solves x'' + 4x = cos t; the state (1/3, 0) returns
    fld = _field(lambda t, x: 4.0 * x - math.cos(t))
    traj = ig.integrate(fld, ig.PhaseState(0.0, 1.0 / 3.0, 0.0), T2PI)
    assert abs(traj.x[-1] - 1.0 / 3.0) < 1e-7
    assert abs(traj.y[-1]) < 1e-7


def test_tolerance_halving_shifts_endpoint_maringally():
    fld = _field(lambda t, x: x)
    ends = []
    for tol in (1e-8, 5e-9):
        traj = ig.integrate(fld, ig.PhaseState(0.0, 1.0, 0.0), T2PI, tol)
        ends.append((traj.x[-1], traj.y[-1]))
    shift = math.hypot(ends[0][0] - ends[1][0], ends[0][1] - ends[1][1])
    assert shift < 10 * 1e-8


def test_trajectory_time_and_angle_continuity():
    fld = _field(lambda t, x: 4.0 * x)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 3.0, 0.0), T2PI)
    assert np.all(np.diff(traj.t) > 0)
    assert np.max(np.abs(np.diff(traj.theta))) < math.pi / 2


def test_dense_output_accuracy_against_fine_solution():
    # cap the steps and compare the samples with the analytic circle: no
    # step is longer than the span / 64, here 0.05
    fld = _field(lambda t, x: x)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 1.0, 0.0), 3.2, 1e-9)
    xs = np.cos(traj.t)
    ys = -np.sin(traj.t)
    assert np.max(np.abs(traj.x - xs)) < 1e-8
    assert np.max(np.abs(traj.y - ys)) < 1e-8


def test_event_times_on_circle():
    fld = _field(lambda t, x: x)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 0.0, 1.0), T2PI)
    t3 = [e.t for e in traj.events if e.kind == "cross_y_eq_0" and e.x > 0]
    t4 = [e.t for e in traj.events if e.kind == "cross_x_eq_0" and e.y < 0]
    assert abs(t3[0] - math.pi / 2) < 1e-9
    assert abs(t4[0] - math.pi) < 1e-9


def test_events_bracket_sign_changes():
    fld = _field(lambda t, x: x)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 0.3, 0.9), T2PI, d=-0.5)
    for ev in traj.events:
        if ev.kind == "cross_x_eq_0":
            assert abs(ev.x) < 1e-8
        elif ev.kind == "cross_y_eq_0":
            assert abs(ev.y) < 1e-8
        elif ev.kind == "cross_x_eq_d":
            assert abs(ev.x + 0.5) < 1e-8


def test_a_step_ending_on_a_threshold_crosses_it():
    # x = cos t: with d set to a step end's x, that step ends exactly on the
    # threshold.  Its crossing is found at that step end's time, and the
    # step after, which starts on the threshold, does not count it again.
    # Step ends far from the turning points x = +-1 keep the orbit from
    # crossing d twice inside one step
    fld = _field(lambda t, x: x)
    z = ig.PhaseState(0.0, 1.0, 0.0)
    plain = ig.integrate(fld, z, T2PI)
    ends = [i for i in range(1, len(plain.t) - 1) if abs(plain.y[i]) > 0.3]
    for i in ends[::len(ends) // 7]:
        d = float(plain.x[i])
        traj = ig.integrate(fld, z, T2PI, d=d)
        assert traj.t.tolist() == plain.t.tolist()
        at_d = [ev.t for ev in traj.events if ev.kind == "cross_x_eq_d"]
        assert len(at_d) == 2 and plain.t[i] in at_d
    # a start on a threshold (here y = 0) counts no crossing
    assert all(ev.t > 0.0 for ev in plain.events)


@pytest.mark.parametrize("t0, t_end", [(0.0, math.nan), (0.0, math.inf),
                                       (math.nan, 1.0)])
def test_integrate_rejects_a_non_finite_span(t0, t_end):
    fld = _field(lambda t, x: x)
    with pytest.raises(ValueError, match="finite"):
        ig.integrate(fld, ig.PhaseState(t0, 1.0, 0.0), t_end)


# --------------------------------------------------------------------------
# rotation counting


def test_rotation_count_harmonic():
    fld = _field(lambda t, x: x)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 1.0, 0.0), T2PI)
    assert ig.rotation_count(traj) == pytest.approx(1.0, abs=1e-9)


def test_rotation_count_two_laps():
    # rotation time 2*pi/sqrt(4) = pi: two clockwise laps over one period
    fld = _field(lambda t, x: 4.0 * x)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 1.0, 0.0), T2PI)
    assert ig.rotation_count(traj) == pytest.approx(2.0, abs=1e-9)


def test_rotation_count_center_hit_rejected():
    fld = _field(lambda t, x: x)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 1e-12, 1e-12), 1.0)
    with pytest.raises(ig.CenterHitError):
        ig.rotation_count(traj)


def test_band_model_large_probe_rotation_window():
    model = rm.make_cubic_band()
    fld = ig.HomotopyField(model, 1.0)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 0.0, 1000.0), T2PI)
    count = ig.rotation_count(traj)
    assert round(count) in (2, 3)
    assert abs(count - round(count)) < 0.35


# --------------------------------------------------------------------------
# labelled lap instants


def test_crossing_times_circle_oracle():
    # circular motion: all eight instants in closed form
    fld = _field(lambda t, x: x)
    d = -0.5
    th0 = math.acos(d)          # angle of the (d, y>0) ray on the unit circle
    z0 = ig.PhaseState(0.0, math.cos(th0 + 0.2), math.sin(th0 + 0.2))
    traj = ig.integrate(fld, z0, 3 * T2PI, d=d)
    lap = ig.crossing_times(traj, d)
    assert lap.t5 - lap.t1 == pytest.approx(2 * th0, abs=1e-8)
    assert lap.t5 - lap.t1 == pytest.approx(2 * (math.pi - math.acos(0.5)), abs=1e-8)
    assert lap.t4 - lap.t2 == pytest.approx(math.pi, abs=1e-8)
    assert lap.t8 - lap.t4 == pytest.approx(math.pi, abs=1e-8)
    assert lap.t3 - lap.t2 == pytest.approx(math.pi / 2, abs=1e-8)
    # symmetric equation: right transit = d-to-d time around the right side
    assert lap.t5 - lap.t1 == pytest.approx((lap.t4 - lap.t2) + 2 * (lap.t2 - lap.t1),
                                            abs=1e-8)


def test_crossing_times_requires_large_lap():
    fld = _field(lambda t, x: x)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 0.3, 0.0), T2PI, d=-0.5)
    with pytest.raises(ig.LapPatternError):
        ig.crossing_times(traj, -0.5)   # radius 0.3 never reaches x = d


def test_left_transit_shrinks_with_amplitude():
    model = rm.make_cubic_band()
    fld = ig.HomotopyField(model, 1.0)
    transits = []
    for y0 in (1e2, 1e3, 1e4):
        traj = ig.integrate(fld, ig.PhaseState(0.0, 1e-9, y0), 2 * T2PI, d=-1.0)
        lap = ig.crossing_times(traj, -1.0)
        transits.append(lap.t7 - lap.t5)
    assert transits[0] > transits[1] > transits[2]
    assert transits[-1] < 0.05 * T2PI


# --------------------------------------------------------------------------
# half-turn measurement


def test_half_turn_midband_sits_inside_band_window():
    model = rm.make_cubic_band()
    fld = ig.HomotopyField(model, 0.0)   # midband comparison slope
    mu = fld.mu_mid
    right, _ = measure_halfturn(fld, 300.0)
    assert right == pytest.approx(math.pi / math.sqrt(mu), abs=1e-6)
    assert T2PI / 3 < right < T2PI / 2


def test_left_half_turn_shrinks_with_amplitude():
    model = rm.make_cubic_band()
    fld = ig.HomotopyField(model, 1.0)
    lefts = []
    for y0 in (1e2, 1e3, 1e4, 1e5):
        _, left = measure_halfturn(fld, y0)
        lefts.append(left)
    assert all(b < a for a, b in zip(lefts, lefts[1:]))


# --------------------------------------------------------------------------
# polar identities and energy monotonicity


def _central_diff(t, v):
    """Second-order first derivative on a nonuniform grid (interior points)."""
    h2 = t[1:-1] - t[:-2]
    h1 = t[2:] - t[1:-1]
    return (h2 * h2 * v[2:] + (h1 * h1 - h2 * h2) * v[1:-1]
            - h1 * h1 * v[:-2]) / (h1 * h2 * (h1 + h2))


def test_polar_velocity_identities_against_finite_differences():
    model = rm.make_cubic_band()
    fld = ig.HomotopyField(model, 1.0)
    # fine samples for the differences: no step is longer than the span / 64,
    # here 5e-4
    traj = ig.integrate(fld, ig.PhaseState(0.0, 5.0, 7.0), 0.032)
    t, x, y, th, rho = traj.t, traj.x, traj.y, traj.theta, traj.rho
    g = np.array([fld.g(float(tt), float(xx)) for tt, xx in zip(t, x)])
    minus_th_formula = (y ** 2 + x * g) / (x ** 2 + y ** 2)
    rho_formula = y * (x - g) / np.sqrt(x ** 2 + y ** 2)
    dth = -_central_diff(t, th)
    drho = _central_diff(t, rho)
    scale = np.max(np.abs(minus_th_formula))
    assert np.max(np.abs(dth - minus_th_formula[1:-1])) < 1e-6 * scale
    assert np.max(np.abs(drho - rho_formula[1:-1])) < 1e-6 * np.max(np.abs(rho_formula))


def test_large_orbits_rotate_clockwise():
    model = rm.make_cubic_band()
    fld = ig.HomotopyField(model, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        ang = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(100, 2000)
        z0 = ig.PhaseState(0.0, r * math.cos(ang), r * math.sin(ang))
        traj = ig.integrate(fld, z0, T2PI)
        assert np.all(np.diff(traj.theta) < 1e-12)


def test_energy_monotone_in_far_left_region():
    # dH_i/dt = y * (f_i(x) - g(t,x)) and f1 <= g <= f2 for x < d, so H1
    # drops while y > 0 and rises while y < 0 (H2 the other way round);
    # checked pointwise along samples and across one descending excursion
    model = rm.make_cubic_band()
    fld = ig.HomotopyField(model, 1.0)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 0.0, 300.0), T2PI)
    t_grid = np.linspace(0.0, T2PI, 1024, endpoint=False)
    d = -1.0
    xs, ys, ts = traj.x, traj.y, traj.t
    mask = xs < d

    g = np.array([fld.g(float(tt), float(xx))
                  for tt, xx in zip(ts[mask], xs[mask])])
    f1 = np.array([float(np.min(model.f_over_t(t_grid, float(x))))
                   for x in xs[mask]])
    f2 = np.array([float(np.max(model.f_over_t(t_grid, float(x))))
                   for x in xs[mask]])
    yv = ys[mask]
    dh1 = yv * (f1 - g)
    dh2 = yv * (f2 - g)
    # slack covers the t-grid resolution of the sampled envelopes
    tol = 1e-4 * np.max(np.abs(dh1))
    assert np.all(dh1[yv > 0] <= tol) and np.all(dh1[yv < 0] >= -tol)
    assert np.all(dh2[yv > 0] >= -tol) and np.all(dh2[yv < 0] <= tol)

    # shared cumulative primitive tables keep the sampled energies smooth
    grid = np.linspace(np.min(xs) * 1.05, d, 3000)
    f1_tab = np.array([float(np.min(model.f_over_t(t_grid, float(x)))) for x in grid])
    f2_tab = np.array([float(np.max(model.f_over_t(t_grid, float(x)))) for x in grid])

    def cum_from_d(tab):
        seg = 0.5 * (tab[1:] + tab[:-1]) * np.diff(grid)
        out = np.zeros(len(grid))
        out[:-1] = -np.cumsum(seg[::-1])[::-1]
        return out

    h1v = 0.5 * yv ** 2 + np.interp(xs[mask], grid, cum_from_d(f1_tab))
    h2v = 0.5 * yv ** 2 + np.interp(xs[mask], grid, cum_from_d(f2_tab))
    blocks = np.where(np.diff(ts[mask]) > 0.5)[0]
    first = slice(0, blocks[0] + 1 if len(blocks) else len(yv))
    slack = 1e-4 * np.max(h1v)
    for arr, sign in ((h1v, +1), (h2v, -1)):
        down = arr[first][yv[first] < -1.0]       # entering excursion
        up = arr[first][yv[first] > 1.0]          # leaving it
        assert sign * (down[-1] - down[0]) > -slack
        assert sign * (up[0] - up[-1]) > -slack


# --------------------------------------------------------------------------
# singular mode


def test_singular_probe_stays_positive_and_counts_laps():
    model = rm.make_singular_band()
    fld = ig.HomotopyField(model, 1.0)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 0.05, 0.0), T2PI)
    assert np.all(traj.x > 0)
    count = ig.rotation_count(traj)     # center (1, 0) in singular mode
    assert round(count) in (2, 3)
    assert traj.center == (1.0, 0.0)


def test_singular_wall_events_present():
    model = rm.make_singular_band()
    fld = ig.HomotopyField(model, 1.0)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 1.0, 30.0), T2PI)
    kinds = {e.kind for e in traj.events}
    assert "cross_x_eq_1" in kinds
    assert np.min(traj.x) > 0


def test_singular_non_strong_force_exits_domain():
    # weak attraction (integrable wall) lets orbits reach x = 0
    def f(t, x):
        return 1.625 * x - 0.3 / math.sqrt(x)

    model = rm.NonlinearityModel(f=f, period=T2PI, domain=rm.SINGULAR, n_mode=2)
    fld = ig.HomotopyField(model, 1.0)
    with pytest.raises(ig.DomainExitError):
        ig.integrate(fld, ig.PhaseState(0.0, 1.0, -40.0), T2PI)


def test_stages_past_the_wall_are_thrown_away():
    # from x = 0.02 moving into the wall at speed 5, stages of the first
    # steps land at x <= 0; the compiled field raises there, each such
    # stage is thrown away, and the run is bit for bit the one that tested
    # the wall at every stage in the integrator
    model = rm.make_singular_band()
    walls = []

    def f(t, x):
        try:
            return model.f(t, x)
        except resonance.expr.WallError:
            walls.append(x)
            raise

    fld = ig.HomotopyField(dataclasses.replace(model, f=f), 1.0)
    traj = ig.integrate(fld, ig.PhaseState(0.0, 0.02, -5.0), T2PI)
    assert walls and max(walls) <= 0.0
    end = traj.state_at_end()
    assert (end.x.hex(), end.y.hex()) == ("0x1.56a2c7f773b56p+10",
                                          "-0x1.120ade0f35d28p+8")
    assert traj.meta == {"steps": 251, "rejected": 62}
    assert float(np.min(traj.x)) == 0.02


def test_blowup_reported_with_state():
    # repulsive cubic: x'' = x^3 escapes in finite time
    fld = _field(lambda t, x: -x ** 3)
    with pytest.raises(ig.BlowUpError) as err:
        ig.integrate(fld, ig.PhaseState(0.0, 2.0, 0.0), 10.0)
    assert err.value.x > 100.0


def test_compiled_domain_error_names_the_subexpression():
    # x^1.5 at x < 0 once returned a complex number and died in the loop
    # with a TypeError; it is a domain error, not a step to halve away
    model = rm.from_expression("1.5*x + 0.1*x^1.5 + 0.5*cos(t)", T2PI)
    with pytest.raises(resonance.expr.DomainError, match="'x\\^1.5'"):
        ig.integrate(ig.HomotopyField(model, 1.0),
                     ig.PhaseState(0.0, -1.0, 0.0), T2PI)


@pytest.mark.parametrize("source, z0, subtree", [
    # math's ValueError from log was halved away until the step underflowed
    ("x + log(x + 2)", (-1.5, -3.0), "'log(x + 2.0)'"),
    # a trial stage past x = -1 once ended the integration outright
    ("x - (x + 1)^0.5", (-0.5, -3.0), "'(x + 1.0)^0.5'"),
], ids=["log", "pow"])
@pytest.mark.parametrize("lam", [1.0, 0.5])
def test_domain_edge_underflow_names_the_subexpression(source, z0, subtree,
                                                       lam):
    model = rm.from_expression(source, T2PI)
    with pytest.raises(resonance.expr.DomainError, match=re.escape(subtree)
                       ) as err:
        ig.integrate(ig.HomotopyField(model, lam), ig.PhaseState(0.0, *z0),
                     T2PI)
    msg = str(err.value)
    assert re.search(r"at t=0\.1\d+, x=-[12], y=-\d", msg)
    assert msg.endswith(f"lambda={lam:g}")


def test_domain_edge_underflow_of_a_callable_stays_a_blowup():
    # no expression tree to name a cause: the underflow is reported as is
    model = _model(lambda t, x: x + math.log(x + 2.0))
    with pytest.raises(ig.BlowUpError, match="step size underflow"):
        ig.integrate(ig.HomotopyField(model, 1.0),
                     ig.PhaseState(0.0, -1.5, -3.0), T2PI)


def test_integrate_system_matches_planar_on_harmonic():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    ts, ys = ig.integrate_system(rhs, np.array([1.0, 0.0]), 0.0, T2PI)
    assert abs(ys[-1, 0] - 1.0) < 1e-8
    assert abs(ys[-1, 1]) < 1e-8


def test_integrate_system_t_stops_land_exactly():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    stops = np.linspace(0.3, 5.9, 7)
    ts, ys = ig.integrate_system(rhs, np.array([1.0, 0.0]), 0.0, T2PI,
                                 t_stops=stops)
    for s in stops:
        assert np.min(np.abs(ts - s)) < 1e-13


# --------------------------------------------------------------------------
# golden records: the integrator's output pinned bit for bit
#
# Each case is one period of a family from rm.FAMILIES (default parameters)
# under HomotopyField(model, lam).  The floats are float.hex literals of
# the end state (t, x, y) and final theta, the fsum of the x samples and the
# fsum of the event times; kinds spells the event stream, one character per
# event ("0": x = 0, "y": y = 0, "d": x = d, "1": x = 1).  A change to the
# tableau arithmetic, the step controller, the event location, the landing
# on kinks or the angle lift moves at least one of them.

_KIND_CHAR = {"cross_x_eq_0": "0", "cross_y_eq_0": "y", "cross_x_eq_d": "d",
              "cross_x_eq_1": "1"}


@pytest.mark.parametrize("family, lam, z0, d, end, samples, x_sum, "
                         "event_t_sum, kinds", [
    pytest.param("cubic_band", 0.0, (-1.5, 0.0), -0.5,
                 ("0x1.921fb54442d18p+2", "-0x1.0190a34df3919p-1",
                  "0x1.13385897147f6p+0", "-0x1.1195276363702p+2"),
                 73, "-0x1.9b356a6fdfd35p+4", "0x1.230356594b5c9p+4",
                 "d0y0dy", id="band-lam0-small"),
    pytest.param("cubic_band", 0.0, (64.0, 0.0), None,
                 ("0x1.921fb54442d18p+2", "0x1.535e9e3a9478bp+5",
                  "-0x1.e8b77e1b3b303p+5", "-0x1.b0f76bdedb35dp+3"),
                 114, "0x1.309c5e2339984p+11", "0x1.94980d2943b15p+4",
                 "0y0y0y0y", id="band-lam0-large"),
    pytest.param("cubic_band", 0.5, (-1.5, 0.0), -0.5,
                 ("0x1.921fb54442d18p+2", "-0x1.19ce4a1bb9b2ep+0",
                  "0x1.9605deae57a6ap-1", "-0x1.e208371ed2e39p+1"),
                 71, "-0x1.0f52838b872e3p+4", "0x1.3ebfdb7fad501p+4",
                 "d0y0dy", id="band-lam0.5-small"),
    pytest.param("cubic_band", 0.5, (64.0, 0.0), None,
                 ("0x1.921fb54442d18p+2", "0x1.dcf59eee9fa86p+5",
                  "-0x1.ad28090411af0p+4", "-0x1.9fa6f65e4fd8ap+3"),
                 165, "0x1.706f309ffa869p+11", "0x1.ad11d8da94d2ap+4",
                 "0y0y0y0y", id="band-lam0.5-large"),
    pytest.param("cubic_band", 1.0, (-1.5, 0.0), -0.5,
                 ("0x1.921fb54442d18p+2", "-0x1.76ace8379ef4ep+0",
                  "0x1.1d3b52cdfc231p-3", "-0x1.9e4489701c50dp+1"),
                 71, "-0x1.5a47b78c8fe21p+2", "0x1.5b870f362018cp+4",
                 "d0y0dy", id="band-lam1-small"),
    pytest.param("cubic_band", 1.0, (64.0, 0.0), None,
                 ("0x1.921fb54442d18p+2", "0x1.fb676789f3ac1p+5",
                  "0x1.15f140eef4602p+3", "-0x1.8dc4cd90852ffp+3"),
                 171, "0x1.808098744c456p+11", "0x1.675197915b28ep+4",
                 "0y0y0y0", id="band-lam1-large"),
    pytest.param("singular_band", 0.0, (1.2, 0.0), None,
                 ("0x1.921fb54442d18p+2", "0x1.61d7f55db0e4ap-1",
                  "0x1.6c4aa498b7ed0p-1", "-0x1.72700822a9e9ep+4"),
                 121, "0x1.b86b7e16fb38ep+6", "0x1.7258bed7d7203p+5",
                 "1y1y1y1y1y1y1y", id="singular-lam0"),
    pytest.param("singular_band", 1.0, (1.2, 0.0), None,
                 ("0x1.921fb54442d18p+2", "0x1.27cdaa825518ap+0",
                  "0x1.4975da9d92ad3p-2", "-0x1.1ba9aa3572c46p+4"),
                 82, "0x1.6639d03bb8f29p+6", "0x1.204b4e3442294p+5",
                 "1y1y1y1y1y1", id="singular-lam1"),
])
def test_integrate_golden_bits(family, lam, z0, d, end, samples, x_sum,
                               event_t_sum, kinds):
    model = rm.FAMILIES[family]()
    fld = ig.HomotopyField(model, lam)
    traj = ig.integrate(fld, ig.PhaseState(0.0, *z0), model.period, d=d)
    last = traj.state_at_end()
    assert (last.t.hex(), last.x.hex(), last.y.hex(),
            float(traj.theta[-1]).hex()) == end
    assert len(traj.t) == samples
    assert math.fsum(traj.x).hex() == x_sum
    assert "".join(_KIND_CHAR[ev.kind] for ev in traj.events) == kinds
    assert math.fsum(ev.t for ev in traj.events).hex() == event_t_sum


class _CountingF:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, t, x):
        self.calls += 1
        return self.f(t, x)


@pytest.mark.parametrize("lam, f_calls", [(0.5, 924), (1.0, 1312)])
def test_integrate_f_evaluation_count(lam, f_calls):
    # one period of cubic_band from (-1.5, 0): the exact number of f calls
    # pins the step count and the evaluations per step.  The model here has
    # no trees, so only the blend's knots -1 and 0 at lambda 0.5 are kinks
    # to land on; each landing costs the dense output's three extra stages
    # and the step taken again.  Creeping up on the knots by rejected steps
    # cost 1959 and 1376 calls, and DOPRI5 1699 and 1573
    base = rm.make_cubic_band()
    counting = _CountingF(base.f)
    model = rm.NonlinearityModel(f=counting, period=base.period,
                                 domain=base.domain, n_mode=base.n_mode)
    ig.integrate(ig.HomotopyField(model, lam), ig.PhaseState(0.0, -1.5, 0.0),
                 model.period)
    assert counting.calls == f_calls


@pytest.mark.parametrize("lam, steps, rejected", [(0.5, 70, 5), (1.0, 70, 3)])
def test_kinks_are_approached_not_crept_up_on(lam, steps, rejected):
    # one period of cubic_band from (-1.5, 0) crosses the glue point x = 0
    # twice and, at lambda 0.5, the blend's knot -1 twice.  Each crossing
    # costs one step taken again to land on it.  Creeping up on a kink took
    # 98 steps kept, 64 rejected by the error test and 4 taken again at
    # lambda 0.5, and 86, 32 and 1 at lambda 1
    model = rm.make_cubic_band()
    traj = ig.integrate(ig.HomotopyField(model, lam),
                        ig.PhaseState(0.0, -1.5, 0.0), model.period)
    assert (traj.meta["steps"], traj.meta["rejected"]) == (steps, rejected)
    assert len(traj.t) == steps + 1


def _worst_period_error(lam, starts):
    # largest relative period-endpoint error at tol = 1e-11 against
    # the same integrator at 1e-13
    model = rm.make_cubic_band()
    fld = ig.HomotopyField(model, lam)
    worst = 0.0
    for z in starts:
        coarse, fine = (ig.integrate(fld, ig.PhaseState(0.0, *z), model.period,
                                     tol)
                        for tol in (1e-11, 1e-13))
        worst = max(worst, math.hypot(coarse.x[-1] - fine.x[-1],
                                      coarse.y[-1] - fine.y[-1])
                    / math.hypot(fine.x[-1], fine.y[-1]))
    return worst


_ELASTIC_CIRCLE = [(351851.0 * math.cos(T2PI * k / 48),
                    351851.0 * math.sin(T2PI * k / 48)) for k in range(48)]
_ORIGIN_GRID = [(x, y if (x, y) != (0.0, 0.0) else 0.5)
                for x in (-1.5, 0.0, 1.5) for y in (-1.5, 0.0, 1.5)]


@pytest.mark.parametrize("lams, starts", [
    ((1.0,), _ELASTIC_CIRCLE),
    ((1.0,), _ORIGIN_GRID),
    ((0.0, 0.25, 0.5, 0.75), [(1.0, 0.0), (0.0, 2.0), (-1.2, 0.7)]),
], ids=["elastic-circle", "origin-grid", "blends"])
def test_period_endpoint_accuracy_across_kinks(lams, starts):
    # cubic_band's glue point x = 0 and the blend's knots -1 and 0: landing
    # on them keeps the endpoint error at the order of the tolerance (about
    # 1e-10 to 3e-10 here); stepping across them unlanded gave up to 3.6e-9
    # on the circle and 3.1e-8 on the blends
    assert max(_worst_period_error(lam, starts) for lam in lams) < 5e-10


class _Curve:
    """A stand-in for a step's dense output: eval(t) = (phi(t), 0)."""

    def __init__(self, phi):
        self.phi, self.calls = phi, 0

    def eval(self, t):
        self.calls += 1
        return self.phi(t), 0.0


@pytest.mark.parametrize("phi, root, t_a, t_b, calls", [
    (lambda t: math.cos(t) - 0.3, math.acos(0.3), 0.0, 2.0, 8),
    (lambda t: math.sin(3.0 * t) - 0.2, math.asin(0.2) / 3.0, -0.3, 0.5, 7),
    # a flat inflection at the root, and a value 1e7 times larger at one
    # end than at the other, which Illinois halves again and again
    (lambda t: (t - 0.7) ** 3 + 0.01 * (t - 0.7), 0.7, 0.0, 2.0, 13),
    (lambda t: math.exp(8.0 * t) - 2.0, math.log(2.0) / 8.0, 0.0, 2.0, 27),
])
def test_crossings_are_bracketed_to_event_tol(phi, root, t_a, t_b, calls):
    # Illinois regula falsi: a bracket at most _EVENT_TOL wide around the
    # root; bisection takes 35 evaluations on a bracket of width 2
    curve = _Curve(phi)
    lo, hi = ig._bracket_root(curve, lambda x, y: x, t_a, phi(t_a),
                              t_b, phi(t_b), 1e-10)
    assert lo <= root <= hi and hi - lo <= 1e-10
    assert curve.calls == calls


# --------------------------------------------------------------------------
# rider: a scalar quadrature channel carried along as a passenger


def _bits(traj):
    return ([v.hex() for arr in (traj.t, traj.x, traj.y, traj.theta)
             for v in arr.tolist()],
            [(ev.kind, ev.t.hex(), ev.x.hex(), ev.y.hex())
             for ev in traj.events])


@pytest.mark.parametrize("family, lam, z0, d", [
    ("cubic_band", 0.5, (-1.5, 0.0), -0.5),
    ("singular_band", 1.0, (1.2, 0.0), None),
])
def test_rider_leaves_the_trajectory_bit_identical(family, lam, z0, d):
    model = rm.FAMILIES[family]()
    fld = ig.HomotopyField(model, lam)
    z = ig.PhaseState(0.0, *z0)
    plain = ig.integrate(fld, z, model.period, d=d)
    ridden = ig.integrate(fld, z, model.period, d=d,
                          rider=lambda t, x, y: x * x + y * y)
    assert _bits(ridden) == _bits(plain)
    assert "rider" not in plain.meta
    assert math.isfinite(ridden.meta["rider"]) and ridden.meta["rider"] > 0.0
    # one rider value per sample, the last one its final value
    samples = ridden.meta["rider_samples"]
    assert len(samples) == len(ridden.t)
    assert samples[-1] == ridden.meta["rider"]


def test_rider_quadrature_closed_forms():
    # x'' + x = 0 over a period, then x'' + 2500 x = 0 over a unit time:
    # its fast phase rotation makes the angle lift subdivide steps, and
    # the rider's samples there are Hermite values between step ends
    z = ig.PhaseState(0.3, 1.0, 0.0)
    for w2, span in ((1.0, T2PI), (2500.0, 1.0)):
        fld = _field(lambda t, x: w2 * x)
        calls = []

        def unit(t, x, y):
            calls.append(1)
            return 1.0

        one = ig.integrate(fld, z, 0.3 + span, rider=unit)
        assert one.meta["rider"] == pytest.approx(span, abs=1e-12)
        np.testing.assert_allclose(one.meta["rider_samples"], one.t - 0.3,
                                   rtol=0.0, atol=1e-12)
        if w2 > 1.0:
            # a step's first stage is the last step's end slope, and the
            # quadrature skips stages 2-5, whose weights are zero, so the
            # rider costs 8 calls per accepted step plus the starting
            # slope, and 3 more on each subdivided step: more samples than
            # accepted steps are subdivisions
            assert len(one.t) - 1 > (len(calls) - 1) // 8
        # r' = x along x = cos(w (t - t0)) gives sin(w (t - t0)) / w: the
        # rider reads the stage states
        w = math.sqrt(w2)
        area = ig.integrate(fld, z, 0.3 + span, rider=lambda t, x, y: x)
        assert area.meta["rider"] == pytest.approx(math.sin(w * span) / w,
                                                   abs=1e-9)
        np.testing.assert_allclose(area.meta["rider_samples"],
                                   np.sin(w * (area.t - 0.3)) / w,
                                   rtol=0.0, atol=1e-9)
