import math

import numpy as np
import pytest

import resonance.model as rm
from resonance import apriori as ap
from resonance.integrate import HomotopyField, PhaseState, integrate

T2PI = 2 * math.pi


def _flat_model(f_of_x, domain=rm.FULL_LINE, n_mode=2):
    return rm.NonlinearityModel(
        f=lambda t, x: f_of_x(x), period=T2PI, domain=domain, n_mode=n_mode,
        f_tarr=lambda t, x: np.full(np.shape(t), float(f_of_x(x))))


@pytest.fixture(scope="module")
def band_kit():
    model = rm.make_cubic_band()
    fld = HomotopyField(model, 1.0)
    env = ap.build_envelopes(model)
    kit = ap.build_kit(fld, env)
    return model, fld, kit


# --------------------------------------------------------------------------
# envelopes


def test_envelopes_collapse_for_time_independent_cubic():
    model = _flat_model(lambda x: x ** 3 if x < 0 else 1.625 * x)
    env = ap.build_envelopes(model)
    assert np.allclose(env.f1, env.f2)
    d = env.base
    # F_i(x) = (x^4 - d^4)/4 by the power rule, at table resolution
    for x in (-2.0, -5.0, -20.0):
        want = (x ** 4 - d ** 4) / 4.0
        assert env.F(1, x) == pytest.approx(want, rel=1e-4)


def test_envelopes_of_quintic_left_model():
    # for x < 0 the x^5 term flips min and max across the sin^2 range
    model = rm.from_expression("(1+sin(t)^2)*x^5 + x^3", T2PI)
    env = ap.build_envelopes(model)
    xs = env.x[:: len(env.x) // 17]
    for x, f1v, f2v in zip(xs, env.f1[:: len(env.x) // 17],
                           env.f2[:: len(env.x) // 17]):
        assert f1v == pytest.approx(2 * x ** 5 + x ** 3, rel=1e-6)
        assert f2v == pytest.approx(x ** 5 + x ** 3, rel=1e-6)


def test_envelopes_singular_wall_model():
    model = rm.from_expression("-(1+sin(t)^2)*x^-5 - x^-3", T2PI,
                               domain=rm.SINGULAR)
    env = ap.build_envelopes(model)
    k = len(env.x) // 8
    for x, f1v, f2v in zip(env.x[:k], env.f1[:k], env.f2[:k]):
        assert f1v == pytest.approx(-2 * x ** -5 - x ** -3, rel=1e-6)
        assert f2v == pytest.approx(-x ** -5 - x ** -3, rel=1e-6)


def test_envelope_ordering_and_monotonicity(band_kit):
    _, _, kit = band_kit
    env = kit.env
    # strictness only where the forcing offset is representable next to x^3
    window = env.x > -1e4
    assert np.all(env.f1[window][:-1] < env.f2[window][:-1])
    assert np.all(env.F1[window][:-1] > env.F2[window][:-1])
    assert np.all(np.diff(env.F1) < 0) and np.all(np.diff(env.F2) < 0)
    assert np.all(env.f2 < 0)


@pytest.mark.parametrize("model, calls", [
    (rm.make_cubic_band(), 200 + 4096),
    (rm.make_singular_band(), 67 + 4096),
], ids=["full-line", "singular"])
def test_envelopes_scan_for_the_threshold_once(monkeypatch, model, calls):
    # one threshold scan (200 points toward -1e6 on the full line, up to the
    # first f2 >= 0 below x = 1 in singular mode), then one t-sweep per node
    counted = []
    original = rm.NonlinearityModel.f_over_t

    def f_over_t(self, t_grid, x):
        counted.append(x)
        return original(self, t_grid, x)

    monkeypatch.setattr(rm.NonlinearityModel, "f_over_t", f_over_t)
    ap.build_envelopes(model)
    assert len(counted) == calls


def test_no_threshold_for_everywhere_positive_model():
    model = _flat_model(lambda x: 1.0 + x * x)
    with pytest.raises(ValueError):
        ap.build_envelopes(model)


# --------------------------------------------------------------------------
# maps


def test_transfer_map_is_identity_without_time_dependence():
    model = _flat_model(lambda x: x ** 3 if x < 0 else 1.625 * x)
    env = ap.build_envelopes(model)
    kit = ap.AprioriKit(env=env, d=env.base, omega0=1.0, ell0=0.5, kappa=0.55,
                        a=-0.01, R0=10.0, y_hat=0.0, R_elastic=0.0,
                        n_mode=2, period=T2PI)
    for v in np.geomspace(5.0, 1e4, 60):
        assert abs(ap.map_T(kit, float(v)) - v) < 1e-10 * max(1.0, v)


def test_transfer_map_dominates_identity(band_kit):
    _, _, kit = band_kit
    rng = np.random.default_rng(2)
    for v in rng.uniform(5.0, 1e4, 100):
        assert ap.map_T(kit, float(v)) >= float(v) * (1.0 - 1e-12)


def test_excursion_map_sublinear(band_kit):
    _, _, kit = band_kit
    ratios = [abs(ap.map_M(kit, r)) / r for r in (1e2, 1e3, 1e4)]
    assert ratios[0] > ratios[1] > ratios[2]


def test_lap_map_monotone_so_escape_radius_grows(band_kit):
    _, _, kit = band_kit
    vs = np.geomspace(kit.y_hat * 0.5, kit.y_hat * 50, 40)
    lv = [ap.map_L(kit, float(v)) for v in vs]
    assert all(b > a for a, b in zip(lv, lv[1:]))

    def elastic_radius(y0):
        v = y0
        for _ in range(kit.n_mode + 2):
            v = ap.map_L(kit, v)
        return v

    r1 = elastic_radius(kit.y_hat)
    r2 = elastic_radius(kit.y_hat * 1.3)
    assert r2 > r1 > kit.R0


def test_map_domain_errors(band_kit):
    _, _, kit = band_kit
    with pytest.raises(ap.TableRangeError):
        ap.map_T(kit, 1e300)
    with pytest.raises(ap.TableRangeError):
        ap.map_L(kit, 1e-8)


# --------------------------------------------------------------------------
# radius probing


def test_probe_radius_on_cubic_band(band_kit):
    _, _, kit = band_kit
    assert kit.R0 > 0 and math.isfinite(kit.R0)
    assert kit.kappa > 0 and kit.omega0 > 0
    assert kit.a < 0                       # arcsin of a negative threshold
    assert kit.R_elastic > kit.R0
    assert kit.y_hat == pytest.approx(
        math.exp(kit.a) * math.sqrt(2 * kit.env.F(1, -kit.R0) + kit.d ** 2),
        rel=1e-12)
    # the energy-level inequality (directly or through the re-measured
    # constants it depends on) is the constraint that binds below R0
    assert kit.diagnostics["binding"] in ("energy level inequality",
                                          "re-measured constants failed")
    fails = kit.diagnostics["failures"]
    assert any(v == "energy level inequality" for v in fails.values())


def test_probe_radius_rejects_linear_field():
    model = _flat_model(lambda x: 1.3 * x, n_mode=1)
    fld = HomotopyField(model, 1.0)
    env = ap.build_envelopes(model)
    with pytest.raises(ValueError):
        ap.probe_R0(fld, env, r_grid=np.geomspace(5, 200, 9))


def test_scaling_the_force_up_does_not_raise_the_radius():
    def make(c):
        model = _flat_model(lambda x, c=c: c * (x ** 3) if x < 0 else 1.625 * x)
        fld = HomotopyField(model, 1.0)
        return ap.probe_R0(fld, ap.build_envelopes(model))[0]

    assert make(4.0) <= make(1.0) * 1.05


# --------------------------------------------------------------------------
# lap reports and escape checks


def test_lap_bounds_hold_on_sampled_laps(band_kit):
    _, fld, kit = band_kit
    for y0 in np.geomspace(200, 2000, 6):
        rep = ap.lap_report(fld, kit, float(y0))
        assert rep["T_ok"] and rep["L_ok"] and rep["M_ok"]
        assert rep["sandwich_ok"] and rep["polar_ok"]
        assert rep["all_ok"]


def test_escape_orbits_stay_large_and_left_share_shrinks(band_kit):
    _, fld, kit = band_kit
    rep = ap.check_elastic(fld, kit, n_orbits=6)
    assert rep["all_large"]
    assert rep["min_ratio_decreasing"]
    assert rep["min_ratio"][-1] < rep["min_ratio"][0]


# --------------------------------------------------------------------------
# singular largeness functional


def test_largeness_functional_values():
    assert ap.N_measure(1.0, 0.0) == 2.0
    assert ap.N_measure(0.1, 0.0) == pytest.approx(100.01)
    with pytest.raises(ValueError):
        ap.N_measure(0.0, 1.0)
    # level sets escape both toward the wall and toward infinity
    assert ap.N_measure(1e-4, 0.0) > 1e7
    assert ap.N_measure(1e4, 0.0) > 1e7


def test_singular_probe_levels_and_lap_window():
    model = rm.make_singular_band()
    fld = HomotopyField(model, 1.0)
    n0, diag = ap.probe_N0(fld)
    assert n0 > 2.0
    start = diag["start_level"]
    for (x0, y0) in ap._n_level_states(4.0 * start, 6):
        traj = integrate(fld, PhaseState(0.0, x0, y0), T2PI)
        nm = 1.0 / traj.x ** 2 + traj.x ** 2 + traj.y ** 2
        assert np.min(nm) > n0 / 0.9 * 0.5 or np.min(nm) > n0
        laps = (traj.theta[0] - traj.theta[-1]) / T2PI
        assert round(laps) in (2, 3)


def test_probe_N0_propagates_programming_errors(monkeypatch):
    # only integration failures disqualify a level; a bug propagates
    def broken(*args, **kwargs):
        raise TypeError("broken integrate")

    monkeypatch.setattr(ap, "integrate", broken)
    with pytest.raises(TypeError, match="broken integrate"):
        ap.probe_N0(HomotopyField(rm.make_singular_band(), 1.0))


def test_singular_lap_timing_split_at_unit_crossing():
    # one full rotation about (1, 0): the outer stretch takes between
    # T/(n+1) and T/n (up to the probe margin), the inner one collapses
    model = rm.make_singular_band()
    fld = HomotopyField(model, 1.0)
    eps_seen = []
    for y0 in (50.0, 200.0, 800.0):
        traj = integrate(fld, PhaseState(0.0, 1.0 + 1e-9, y0), T2PI)
        crossings = [e for e in traj.events if e.kind == "cross_x_eq_1"]
        t0 = 0.0
        t1 = next(e.t for e in crossings if e.y < 0)
        t2 = next(e.t for e in crossings if e.y > 0)
        assert t0 < t1 < t2
        margin = 0.05 * T2PI
        assert T2PI / 3 - margin < t1 - t0 < T2PI / 2 + margin
        eps_seen.append(t2 - t1)
    assert all(b < a for a, b in zip(eps_seen, eps_seen[1:]))
    assert eps_seen[-1] < 0.05 * T2PI
