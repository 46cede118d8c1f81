"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each criterion measures its own wall clock against the stated budget; the
terminal summary prints a verdict line per criterion (see conftest).
"""

import filecmp
import json
import math
import os
import time

import numpy as np
import pytest

import resonance.model as rm
from resonance import apriori as ap
from resonance import cli
from resonance import conditions as cd
from resonance import radial as rd
from resonance import solver as sv
from resonance import spectrum as sp
from resonance.integrate import (HomotopyField, PhaseState, integrate,
                                 integrate_system, rotation_count)
from conftest import register_criterion
from oracles import flat_grid, measure_halfturn

T2PI = 2 * math.pi


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.1f}s exceeded the {self.seconds}s budget")
        return False


@pytest.fixture(scope="module")
def band_model():
    return rm.make_cubic_band()


@pytest.fixture(scope="module")
def band_kit(band_model):
    return ap.build_kit(band_model)


@pytest.fixture(scope="module")
def singular_model():
    return rm.make_singular_band()


register_criterion(1, "spectrum geometry: on-curve residuals and asymptote recovery")


def test_criterion_1_spectrum_geometry():
    with _Budget(1.0):
        for T in (T2PI, 5.0):
            for j in range(1, 7):
                mu = sp.eigenvalue(2 * j, T)
                r = sp.curve_residual(sp.SpectrumPoint(mu, mu, T), j)
                assert abs(r) < 1e-12

        # residual root in mu at nu = 1e10 recovers the vertical asymptote
        for j, T in ((1, 100.0), (2, 300.0)):
            mu_j = sp.eigenvalue(j, T)
            lo, hi = mu_j, 4 * mu_j
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if sp.curve_residual(sp.SpectrumPoint(mid, 1e10, T), j) > 0:
                    lo = mid
                else:
                    hi = mid
            assert abs(0.5 * (lo + hi) - mu_j) / mu_j < 1e-6


register_criterion(2, "integrator oracles: harmonic return and forced fixed point")


def test_criterion_2_integrator_oracles():
    with _Budget(1.0):
        harm = rm.NonlinearityModel(f=lambda t, x: x, period=T2PI)
        traj = integrate(HomotopyField(harm, 1.0), PhaseState(0.0, 1.0, 0.0),
                         T2PI)
        assert math.hypot(traj.x[-1] - 1.0, traj.y[-1]) < 1e-8

        forced = rm.NonlinearityModel(f=lambda t, x: 4 * x - math.cos(t),
                                      period=T2PI)
        fld = HomotopyField(forced, 1.0)
        px, py, _ = sv.poincare(fld, (1.0 / 3.0, 0.0))
        assert math.hypot(px - 1.0 / 3.0, py) < 1e-7

        # mu = 4 is an eigenvalue at this period, so the return map is the
        # identity: Newton from the origin converges on the spot and its
        # result is a genuine fixed point within the stated residual
        z, res, *_ = sv.newton_fixed_point(fld, (0.0, 0.0), target=1e-7)
        assert res < 1e-7
        qx, qy, _ = sv.poincare(fld, z)
        assert math.hypot(qx - z[0], qy - z[1]) < 1e-7


register_criterion(3, "rotation window and half-turn timing on 20 large laps")


def test_criterion_3_rotation_lemmas(band_model):
    with _Budget(30.0):
        fld = HomotopyField(band_model, 1.0)
        eps = 0.05 * T2PI
        # probe laps are not closed orbits, so their counts sweep the
        # whole window [N, N+1] (closed ones pin an integer, below)
        for y0 in np.linspace(800.0, 1200.0, 20):
            traj = integrate(fld, PhaseState(0.0, 0.0, float(y0)), T2PI)
            count = rotation_count(traj)
            assert 2.0 - 0.25 <= count <= 3.0 + 0.25
            assert round(count) in (2, 3)

        right, left = measure_halfturn(fld, 1000.0)
        assert T2PI / 3 - eps < right < T2PI / 2 + eps
        assert left < eps

        # a certified large periodic orbit of an in-band model performs an
        # exact integer count inside {2, 3}: cubic left, slope 1.1 right
        def f(t, x):
            return x ** 3 if x < 0 else 1.1 * x

        flat = rm.NonlinearityModel(f=f, period=T2PI, n_mode=2)
        fldf = HomotopyField(flat, 1.0)
        lo, hi = 50.0, 5e4
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            traj = integrate(fldf, PhaseState(0.0, 0.0, mid), 0.8 * T2PI)
            ups = [e.t for e in traj.events
                   if e.kind == "cross_x_eq_0" and e.y > 0]
            if ups[0] > T2PI / 2:
                lo = mid
            else:
                hi = mid
        z, res, *_ = sv.newton_fixed_point(fldf, (0.0, 0.5 * (lo + hi)),
                                           target=1e-9)
        assert res < 1e-9 * (1.0 + math.hypot(*z))   # noise floor scales with size
        traj = integrate(fldf, PhaseState(0.0, z[0], z[1]), T2PI)
        count = rotation_count(traj)
        assert abs(count - 2.0) < 0.01
        assert traj.min_rho() > 10.0   # stays well clear of the origin


register_criterion(4, "transfer/lap/excursion map bounds on 20 sampled laps")


def test_criterion_4_energy_guiding_maps(band_model, band_kit):
    with _Budget(30.0):
        kit = band_kit
        for y0 in np.geomspace(100.0, 5000.0, 20):
            rep = ap.lap_report(band_model, kit, float(y0), 1e-10)
            assert rep["T_ok"], f"transfer bound failed at {y0}"
            assert rep["L_ok"], f"lap bound failed at {y0}"
            assert rep["M_ok"], f"excursion bound failed at {y0}"

        flat = rm.NonlinearityModel(
            f=lambda t, x: x ** 3 if x < 0 else 1.625 * x, period=T2PI,
            n_mode=2,
            f_tarr=flat_grid(lambda x: x ** 3 if x < 0 else 1.625 * x))
        env = ap.build_envelopes(flat)
        kit_flat = ap.AprioriKit(env=env, d=env.base, omega0=1.0, ell0=0.5,
                                 kappa=0.55, a=-0.01, R0=10.0, y_hat=0.0,
                                 R_elastic=0.0)
        for v in np.geomspace(5.0, 1e4, 40):
            assert abs(ap.map_T(kit_flat, float(v)) - v) <= 1e-10 * max(1.0, v)


register_criterion(5, "sign-condition closed forms and hump decomposition")


def test_criterion_5_ll_closed_forms():
    with _Budget(5.0):
        one = lambda t: np.ones_like(np.asarray(t, dtype=float))
        assert cd.ll_integral(one, 1, T2PI, cd.TRUNCATED_SINE, 0.0) == \
            pytest.approx(4.0, abs=1e-8)
        assert cd.ll_integral(one, 2, T2PI, cd.TRUNCATED_SINE, 0.0) == \
            pytest.approx(2.0, abs=1e-8)
        assert cd.ll_integral(one, 2, T2PI, cd.ABS_SINE, 0.0) == \
            pytest.approx(4.0, abs=1e-8)

        residue = lambda t: 1.0 + 0.5 * np.cos(np.asarray(t, dtype=float))
        j = 3
        for tau in np.linspace(0.0, T2PI, 256, endpoint=False):
            whole = cd.ll_integral(residue, j, T2PI, cd.ABS_SINE, float(tau))
            parts = sum(
                cd.ll_integral(residue, j, T2PI, cd.TRUNCATED_SINE,
                               float(tau + r * T2PI / j)) for r in range(j))
            assert whole == pytest.approx(parts, abs=1e-8)


register_criterion(6, "uniform-order discrimination of the worked example pairs")


def test_criterion_6_window_ratio_discrimination():
    with _Budget(10.0):
        good = rm.from_expression("(1+sin(t)^2)*x^5 + x^3", T2PI)
        bad = rm.from_expression("x^3 + sin(t)^2*x^5", T2PI)
        rep_good = cd.check_H(good)
        rep_bad = cd.check_H(bad)
        assert rep_good["passed"]
        dev = rep_good["deviation_table"]
        assert dev.shape == (3, 3)
        # convergence toward 1 as the window shrinks, at every checkpoint
        assert np.all(dev[-1] < dev[0])
        assert rep_good["worst_final"] < 0.2
        assert not rep_bad["passed"]
        assert rep_bad["worst_final"] > 0.5

        # mirror pair at the wall
        wall_good = rm.from_expression("-(1+sin(t)^2)*x^-5 - x^-3", T2PI,
                                       domain=rm.SINGULAR)
        wall_bad = rm.from_expression("-x^-3 - sin(t)^2*x^-5", T2PI,
                                      domain=rm.SINGULAR)
        assert cd.check_H(wall_good)["passed"]
        assert not cd.check_H(wall_bad)["passed"]


register_criterion(7, "end-to-end certified solution of the band model")


def test_criterion_7_end_to_end_existence(band_model, band_kit):
    with _Budget(120.0):
        kit = band_kit
        lo, hi = cd.ll_verdict(band_model, tau_points=64)
        assert lo.passed and hi.passed

        assert cd.validate_A(band_model)["passed"]
        cert = sv.homotopy_solve(band_model, radius=kit.R_elastic)
        assert cert.converged
        assert cert.path[-1].lam == 1.0
        assert cert.residual < 1e-8
        assert cert.rotation is not None
        assert abs(cert.rotation - round(cert.rotation)) < 0.01
        assert cert.degree is not None and cert.degree != 0
        assert cert.radius_used == pytest.approx(kit.R_elastic)


register_criterion(8, "positive solution and rotation window in singular mode")


def test_criterion_8_singular_mode(singular_model):
    with _Budget(120.0):
        rep = cd.validate_A0_Ainf(singular_model)
        assert rep["passed"]
        lo, hi = cd.ll_verdict(singular_model, tau_points=64)
        assert lo.passed and hi.passed

        cert = sv.homotopy_solve(singular_model)
        assert cert.converged
        assert cert.residual < 1e-8
        assert cert.diagnostics["min_x"] > 0.0
        assert cert.diagnostics["path_min_x"] > 0.05

        fld = HomotopyField(singular_model, 1.0)
        n0, diag = ap.probe_N0(singular_model, 1e-10)
        start = diag["start_level"]
        for level in (start, 4.0 * start, 16.0 * start):
            for (x0, y0) in ap._n_level_states(level, 6):
                traj = integrate(fld, PhaseState(0.0, x0, y0), T2PI)
                nm = 1.0 / traj.x ** 2 + traj.x ** 2 + traj.y ** 2
                assert np.min(nm) > n0
                laps = rotation_count(traj)
                assert round(laps) in (2, 3)


register_criterion(9, "radial rotating solutions with vanishing momentum trend")


def test_criterion_9_radial_application(singular_model):
    with _Budget(300.0):
        sols, k_nu = rd.find_rotating(singular_model, nu=1, k_max=4)
        assert k_nu is not None
        ks = [s.k for s in sols]
        assert ks == list(range(k_nu, k_nu + 4))
        Ls = [s.L for s in sols]
        assert all(b < a for a, b in zip(Ls, Ls[1:]))
        assert Ls[3] < 0.5 * Ls[0]

        # angular momentum conservation in the plane over the full window
        sol = sols[1]
        f = singular_model.f

        def rhs4(t, y):
            x1, x2, v1, v2 = y
            r = math.hypot(x1, x2)
            a = -f(t, r) / r
            return np.array([v1, v2, a * x1, a * x2])

        y0 = np.array([sol.z0.x, 0.0, sol.z0.y, sol.L / sol.z0.x])
        ts, ys = integrate_system(rhs4, y0, 0.0, sol.k * T2PI, 1e-11)
        L_t = ys[:, 0] * ys[:, 3] - ys[:, 1] * ys[:, 2]
        assert np.max(np.abs(L_t - sol.L)) < 1e-8

        # back-substitution into the plane equation, five-point stencil
        sol0 = sols[0]
        eff = rd.effective_field(singular_model, sol0.L)
        g = HomotopyField(eff, 1.0).g
        L = sol0.L

        def rhs3(t, y):
            rho, v, _ = y
            return np.array([v, -g(t, rho), L / rho ** 2])

        h = T2PI / 500.0
        checks = np.linspace(0.1 * T2PI, 0.9 * T2PI, 20)
        stencil = np.concatenate([checks + m * h for m in range(-2, 3)])
        ts, ys = integrate_system(rhs3, np.array([sol0.z0.x, sol0.z0.y, 0.0]),
                                  0.0, T2PI, 1e-12, t_stops=stencil)
        lookup = {round(float(t), 12): (float(r), float(th))
                  for t, r, th in zip(ts, ys[:, 0], ys[:, 2])}
        worst = 0.0
        for tc in checks:
            pts = []
            for m in range(-2, 3):
                r, th = lookup[round(float(tc + m * h), 12)]
                pts.append((r * math.cos(th), r * math.sin(th)))
            r0, th0 = lookup[round(float(tc), 12)]
            for comp in (0, 1):
                vals = [p[comp] for p in pts]
                acc = (-vals[0] + 16 * vals[1] - 30 * vals[2]
                       + 16 * vals[3] - vals[4]) / (12 * h * h)
                force = singular_model.f(float(tc), r0) * vals[2] / r0
                worst = max(worst, abs(acc + force))
        assert worst < 1e-6


register_criterion(10, "byte-identical CSV artifacts on repeated runs")


def _compare_csv_trees(d1, d2):
    names1 = sorted(p for p in os.listdir(d1) if p.endswith(".csv"))
    names2 = sorted(p for p in os.listdir(d2) if p.endswith(".csv"))
    assert names1 == names2 and names1
    for name in names1:
        assert filecmp.cmp(os.path.join(d1, name), os.path.join(d2, name),
                           shallow=False), f"{name} differs between runs"


def test_criterion_10_determinism(tmp_path):
    band_cfg = {
        "model": {"family": "cubic_band", "T": T2PI, "N": 2,
                  "params": {"forcing": 0.5}},
        "theorem": "main",
        "grids": {"tau_points": 64},
    }
    radial_cfg = {
        "model": {"family": "singular_band", "T": T2PI, "N": 2},
        "theorem": "radial",
        "grids": {"tau_points": 64},
        "radial": {"nu": 1, "k_max": 2},
    }

    def run_twice(runner, label):
        d1 = tmp_path / f"{label}_a"
        d2 = tmp_path / f"{label}_b"
        runner(str(d1))
        runner(str(d2))
        _compare_csv_trees(str(d1), str(d2))

    # lap-table artifacts (rotation/lap measurement config)
    cfg_path = tmp_path / "band.json"
    cfg_path.write_text(json.dumps(band_cfg))

    def run_apriori(out):
        assert cli.main(["apriori", "--config", str(cfg_path),
                         "--out", out]) == 0

    run_twice(run_apriori, "apriori")

    def run_find(out):
        assert cli.main(["find", "--config", str(cfg_path),
                         "--out", out]) == 0

    run_twice(run_find, "find")

    radial_path = tmp_path / "radial.json"
    radial_path.write_text(json.dumps(radial_cfg))

    def run_radial(out):
        assert cli.main(["radial", "--config", str(radial_path),
                         "--out", out]) == 0

    run_twice(run_radial, "radial")
