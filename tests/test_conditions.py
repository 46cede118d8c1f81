import dataclasses
import hashlib
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

import resonance.model as rm
from resonance.spectrum import eigenvalue
from resonance import apriori as ap
from resonance import conditions as cd
from oracles import flat_grid

T2PI = 2 * math.pi
ONES = lambda t: np.ones_like(np.asarray(t, dtype=float))


# --------------------------------------------------------------------------
# sign-condition integrals: closed forms


def test_truncated_integral_constant_residue_one_hump():
    # int_0^{2pi} sin(t/2) dt = 4
    for tau in (0.0, 0.9, 4.4):
        v = cd.ll_integral(ONES, 1, T2PI, cd.TRUNCATED_SINE, tau)
        assert v == pytest.approx(4.0, abs=1e-8)


def test_truncated_integral_constant_residue_second_mode():
    # int_0^pi sin t dt = 2
    for tau in (0.0, 1.3, 5.0):
        v = cd.ll_integral(ONES, 2, T2PI, cd.TRUNCATED_SINE, tau)
        assert v == pytest.approx(2.0, abs=1e-8)


def test_abs_integral_constant_residue():
    # int_0^{2pi} |sin t| dt = 4
    for tau in (0.0, 0.7):
        v = cd.ll_integral(ONES, 2, T2PI, cd.ABS_SINE, tau)
        assert v == pytest.approx(4.0, abs=1e-8)


def test_abs_integral_decomposes_into_translated_humps():
    rng = np.random.default_rng(11)
    residue = lambda t: 0.7 + np.sin(np.asarray(t)) ** 2
    for j in (2, 3):
        for tau in rng.uniform(0, T2PI, 8):
            whole = cd.ll_integral(residue, j, T2PI, cd.ABS_SINE, float(tau))
            parts = sum(cd.ll_integral(residue, j, T2PI, cd.TRUNCATED_SINE,
                                       float(tau + r * T2PI / j))
                        for r in range(j))
            assert whole == pytest.approx(parts, abs=1e-8)


def test_integral_periodic_in_tau():
    residue = lambda t: 1.0 + 0.3 * np.cos(np.asarray(t))
    for variant in (cd.TRUNCATED_SINE, cd.ABS_SINE):
        a = cd.ll_integral(residue, 2, T2PI, variant, 0.37)
        b = cd.ll_integral(residue, 2, T2PI, variant, 0.37 + T2PI)
        assert a == pytest.approx(b, abs=1e-10)


def test_integral_against_dense_trapezoid_oracle():
    residue = lambda t: np.cos(np.asarray(t)) + 1.2
    phi = cd.phi_truncated(3, T2PI)
    tau = 2.1
    ts = np.linspace(0, T2PI, 400001)
    oracle = np.trapezoid(residue(ts) * phi(ts + tau), ts)
    got = cd.ll_integral(residue, 3, T2PI, cd.TRUNCATED_SINE, tau)
    assert got == pytest.approx(float(oracle), abs=1e-7)


def test_negative_dip_can_kill_the_lower_integral():
    # residue -3 on [0, T/(2N)], +1 elsewhere: for some tau the hump sits
    # over the dip and the integral goes negative
    n = 2
    dip_end = T2PI / (2 * n)

    def residue(t):
        tt = np.mod(np.asarray(t, dtype=float), T2PI)
        return np.where(tt <= dip_end, -3.0, 1.0)

    taus = np.linspace(0, T2PI, 64, endpoint=False)
    vals = [cd.ll_integral(residue, n, T2PI, cd.TRUNCATED_SINE, float(tau))
            for tau in taus]
    assert min(vals) < 0 < max(vals)


def test_infinite_residue_propagates_sign():
    inf_neg = lambda t: np.full(np.shape(t), -math.inf)
    v = cd.ll_integral(inf_neg, 2, T2PI, cd.TRUNCATED_SINE, 0.5)
    assert v == -math.inf


def _residue_on(t, pieces, default=1.0):
    """default, overridden by value on each [lo, hi) of t mod T2PI."""
    tt = np.mod(np.asarray(t, dtype=float), T2PI)
    out = np.full(tt.shape, default)
    for lo, hi, value in pieces:
        out[(tt >= lo) & (tt < hi)] = value
    return out


def test_conflicting_infinities_under_the_profile_give_nan():
    residue = lambda t: _residue_on(t, [(0.2, 1.0, math.inf),
                                        (2.0, 2.8, -math.inf)])
    for variant in (cd.TRUNCATED_SINE, cd.ABS_SINE):
        v = cd.ll_integral(residue, 2, T2PI, variant, 0.0)
        assert math.isnan(v)


def test_infinite_residue_where_the_profile_vanishes_is_ignored():
    # the truncated 2-profile at tau = 0 is sin t on [0, pi] and 0 after:
    # infinities of both signs on (pi, 2 pi) carry no weight
    residue = lambda t: _residue_on(t, [(3.5, 4.5, math.inf),
                                        (5.0, 6.0, -math.inf)])
    v = cd.ll_integral(residue, 2, T2PI, cd.TRUNCATED_SINE, 0.0)
    assert v == pytest.approx(2.0, abs=1e-8)


def test_one_signed_infinity_on_part_of_the_support_gives_its_sign():
    for sign in (1.0, -1.0):
        residue = lambda t: _residue_on(t, [(1.0, 1.5, sign * math.inf)],
                                        default=-sign)
        for variant in (cd.TRUNCATED_SINE, cd.ABS_SINE):
            v = cd.ll_integral(residue, 2, T2PI, variant, 0.3)
            assert v == sign * math.inf


@pytest.mark.parametrize("variant", [cd.TRUNCATED_SINE, cd.ABS_SINE])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_ll_integral_evaluates_the_residue_once(variant, j):
    # a deterministic work count: one array evaluation per tau, however
    # many kink intervals and panels the profile needs
    calls = []

    def residue(t):
        calls.append(np.size(t))
        return 1.0 + 0.3 * np.cos(t)

    cd.ll_integral(residue, j, T2PI, variant, 0.7)
    assert len(calls) == 1


# --------------------------------------------------------------------------
# asymptotic envelopes


def test_envelope_monotone_under_tail_enlargement():
    model = rm.make_cubic_band()
    lo18 = cd.asymptotic_envelope(model, "lower", k_max=18)
    lo20 = cd.asymptotic_envelope(model, "lower", k_max=20)
    hi18 = cd.asymptotic_envelope(model, "upper", k_max=18)
    hi20 = cd.asymptotic_envelope(model, "upper", k_max=20)
    assert np.all(lo20.values <= lo18.values + 1e-12)
    assert np.all(hi20.values >= hi18.values - 1e-12)


def test_envelope_finds_band_residues():
    model = rm.make_cubic_band(lift=1.0, drop=1.0, forcing=0.5)
    lo = cd.asymptotic_envelope(model, "lower")
    hi = cd.asymptotic_envelope(model, "upper")
    om = 2 * math.pi / T2PI
    e = 0.5 * np.cos(om * lo.t_grid)
    # liminf(f - mu_N x) = lift + forcing(t); limsup(f - mu_N+1 x) = -drop + forcing(t)
    assert np.allclose(lo.values, 1.0 + e, atol=2e-2)
    assert np.allclose(hi.values, -1.0 + e, atol=2e-2)
    assert lo.stabilized and hi.stabilized


def test_ll_verdict_estimates_each_tail_it_reads_once(monkeypatch):
    # the liminf against mu_N and the limsup against mu_N+1: one tail
    # estimate for each of the two sides, over every residue-table time
    # at once (it was one call per time, 256 per verdict)
    calls = []
    original = cd._tail_estimate

    def counted(table, mode):
        calls.append((mode, table.shape))
        return original(table, mode)

    monkeypatch.setattr(cd, "_tail_estimate", counted)
    cd.ll_verdict(rm.make_cubic_band(), tau_points=4)
    assert calls == [("inf", (21, cd.RESIDUE_T_POINTS)),
                     ("sup", (21, cd.RESIDUE_T_POINTS))]


def test_ll_verdict_tabulates_f_once_for_both_sides():
    # both residues come off one f table on the ladder x = 2^k, k = 0..20:
    # one grid call of 21 x at RESIDUE_T_POINTS times
    model = rm.make_cubic_band()
    calls = []

    def counted(t, x):
        calls.append((np.shape(t), np.size(x)))
        return model.f_tarr(t, x)

    cd.ll_verdict(dataclasses.replace(model, f_tarr=counted), tau_points=4)
    assert calls == [((cd.RESIDUE_T_POINTS,), cd.RESIDUE_K_MAX + 1)]


def _tail_estimate_of_one_column(vals, mode):
    # the per-column form that the table-wide _tail_estimate replaced
    start = min(8, max(0, len(vals) - 4))
    tail = vals[start:]
    agg = np.minimum.accumulate if mode == "inf" else np.maximum.accumulate
    running = agg(tail)
    est = float(running[-1])
    stab = (len(running) >= 4
            and abs(est - float(running[-4])) <= 1e-4 * (1.0 + abs(est)))
    diverging = 0
    if abs(est) > 1e8:
        half = float(running[len(running) // 2])
        if abs(est) > 1.5 * abs(half):
            diverging = 1 if est > 0 else -1
    if diverging == 0 and len(tail) >= 4:
        with np.errstate(invalid="ignore"):
            steps = np.diff(tail)
        if mode == "inf" and np.all(steps > 0) and tail[-1] > 1e6:
            diverging = 1
        if mode == "sup" and np.all(steps < 0) and tail[-1] < -1e6:
            diverging = -1
    if diverging:
        return math.copysign(math.inf, diverging), True
    return est, stab


def _residue_tables(monkeypatch):
    # the (table, mode) pairs asymptotic_envelope hands to _tail_estimate
    # on the three models, both sides
    seen = []
    original = cd._tail_estimate

    def spy(table, mode):
        seen.append((table.copy(), mode))
        return original(table, mode)

    monkeypatch.setattr(cd, "_tail_estimate", spy)
    for model in (rm.make_cubic_band(), rm.make_singular_band(),
                  rm.make_resonant_edge()):
        for side in ("lower", "upper"):
            cd.asymptotic_envelope(model, side)
    monkeypatch.setattr(cd, "_tail_estimate", original)
    return seen


def _with_infinities(table):
    # columns that are +-inf, nan, a monotone runaway either way, a
    # diverging running extreme, constant, or constant but for a late
    # drop, laid over a model's table
    table = table.copy()
    rungs = np.arange(len(table), dtype=float)
    table[:, 0] = np.inf
    table[:, 1] = -np.inf
    table[:, 2] = np.nan
    table[5:, 3] = np.inf
    table[12, 4] = -np.inf
    table[15, 5] = np.nan
    table[:, 6] = 10.0 ** rungs                     # runaway up
    table[:, 7] = -(10.0 ** rungs)                  # runaway down
    table[:, 8] = 3.0 * 4.0 ** rungs * (-1) ** rungs  # diverging both ways
    table[:, 9] = 1e9 * (1.0 + rungs)
    table[:, 10] = -7.5
    table[:, 11] = 5.0
    table[-3, 11] = 4.0                             # a late drop: unsettled
    return table


def _hex(values):
    return [float(v).hex() for v in values]


def test_tail_estimate_over_the_table_matches_one_column_at_a_time(
        monkeypatch):
    cases = []
    for table, mode in _residue_tables(monkeypatch):
        cases.append((table, mode))
        cases.append((_with_infinities(table), mode))
        cases.append((_with_infinities(table), "sup" if mode == "inf"
                      else "inf"))
        cases.append((_with_infinities(table)[:3], mode))   # short ladder
    assert len(cases) == 24
    for table, mode in cases:
        est, settled = cd._tail_estimate(table, mode)
        ref = [_tail_estimate_of_one_column(table[:, j], mode)
               for j in range(table.shape[1])]
        assert _hex(est) == _hex([r[0] for r in ref])
        assert settled.tolist() == [bool(r[1]) for r in ref]
    # the synthetic columns reach every branch: +-inf by divergence or
    # runaway, nan, unsettled and settled finite values
    est, settled = cd._tail_estimate(_with_infinities(cases[0][0]), "inf")
    assert _hex(est[[6, 8, 9]]) == _hex([math.inf, -math.inf, math.inf])
    assert math.isnan(est[2]) and not settled[2]
    assert est[10] == -7.5 and settled[10]
    assert est[11] == 4.0 and not settled[11]


# --------------------------------------------------------------------------
# verdicts


def test_band_model_passes_both_conditions_both_variants():
    model = rm.make_cubic_band()
    for variant in (cd.TRUNCATED_SINE, cd.ABS_SINE):
        lo, hi = cd.ll_verdict(model, variant=variant, tau_points=64)
        assert lo.passed and hi.passed
        assert lo.margin > 0 and hi.margin > 0


def test_truncated_pass_implies_abs_pass():
    # the abs profile is the sum of translated truncated humps, so
    # positivity for all tau transfers
    model = rm.make_cubic_band()
    lo_t, hi_t = cd.ll_verdict(model, variant=cd.TRUNCATED_SINE, tau_points=64)
    lo_a, hi_a = cd.ll_verdict(model, variant=cd.ABS_SINE, tau_points=64)
    assert lo_t.passed and lo_a.passed
    assert hi_t.passed and hi_a.passed


def test_edge_pinned_model_fails_upper_condition():
    model = rm.make_resonant_edge()
    lo, hi = cd.ll_verdict(model, tau_points=64)
    assert lo.passed            # liminf against mu_N diverges upward
    assert hi.verdict == "fail"


@pytest.mark.parametrize("lift, verdict", [
    (math.pi / 8 - 0.01, "fail"), (math.pi / 8 + 0.01, "pass"),
    (1.0, "pass")])
def test_cubic_band_lower_margin_crosses_zero_at_its_closed_form(lift,
                                                                 verdict):
    # cubic_band's lower margin is 2 lift - pi forcing / 2 in closed form,
    # so at forcing 0.5 the verdict flips across lift = pi forcing / 4
    forcing = 0.5
    lo, _ = cd.ll_verdict(rm.make_cubic_band(forcing=forcing, lift=lift),
                          tau_points=256)
    assert lo.verdict == verdict
    assert lo.margin == pytest.approx(2 * lift - math.pi * forcing / 2,
                                      abs=5e-4)


def test_bounded_above_residue_with_lower_shift_passes():
    # f = mu_N x + 1 for x > 0: lower integral is 2T/(N pi); the residue
    # against mu_N+1 drifts to -inf so the upper condition holds too
    n = 2
    mu_n = eigenvalue(n, T2PI)

    def f(t, x):
        if x <= 0:
            return x ** 3
        return mu_n * x + x * x / (1 + x * x)

    model = rm.NonlinearityModel(
        f=f, period=T2PI, n_mode=n,
        f_tarr=flat_grid(lambda x: f(0.0, x)))
    lo, hi = cd.ll_verdict(model, tau_points=32)
    assert lo.passed
    expected = 2 * T2PI / (n * math.pi)
    assert np.allclose(lo.integrals, expected, rtol=1e-2)
    assert hi.passed
    assert np.all(hi.integrals == -math.inf)


# --------------------------------------------------------------------------
# ll_verdict against an adaptive reference: the residue table interpolated
# linearly between its knots, times the translated profile, by
# scipy.integrate.quad on every interval between consecutive knots and
# profile kinks, where the integrand is a line times a sine


def _quad_reference(values, j, variant, tau, period=T2PI):
    quad = pytest.importorskip("scipy.integrate").quad
    n = len(values)
    knots = np.append(rm.periodic_grid(period, n), period)
    table = np.append(values, values[0])
    phi = (cd.phi_truncated if variant == cd.TRUNCATED_SINE
           else cd.phi_abs)(j, period)
    edges = sorted(set(knots.tolist())
                   | set(cd._phi_kinks(j, period, variant, tau)))

    def integrand(t):
        return float(np.interp(t, knots, table)) * float(phi(t + tau))

    return math.fsum(quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13)[0]
                     for a, b in zip(edges[:-1], edges[1:]) if b > a)


def _assert_matches_reference(model, variant, tau_points, picks):
    for rep in cd.ll_verdict(model, variant=variant, tau_points=tau_points):
        env = cd.asymptotic_envelope(model, rep.side)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(rep.integrals))))
        for k in picks:
            ref = _quad_reference(env.values, rep.j, variant,
                                  float(rep.tau_grid[k]), model.period)
            assert abs(rep.integrals[k] - ref) <= tol, (rep.side, k)


@pytest.mark.parametrize("tau_points", [64, 97])
@pytest.mark.parametrize("variant", [cd.TRUNCATED_SINE, cd.ABS_SINE])
def test_sign_integrals_match_adaptive_quadrature(variant, tau_points):
    # the residue is piecewise linear on its knots, so the integrals are
    # exact up to rounding; panels that ignore the knots miss by ~3.5e-6
    _assert_matches_reference(rm.make_cubic_band(), variant, tau_points,
                              (0, 1, tau_points // 3, tau_points - 1))


@pytest.mark.parametrize("variant", [cd.TRUNCATED_SINE, cd.ABS_SINE])
def test_kernel_table_matches_adaptive_quadrature(variant):
    # one knot's weight at every offset, closed form and near-kink pieces
    # alike; from j = 65 on a window can hold two kinks
    quad = pytest.importorskip("scipy.integrate").quad
    n, half = 128, T2PI / cd.RESIDUE_T_POINTS
    for j in (1, 2, 3, 65, 100):
        phi = (cd.phi_truncated if variant == cd.TRUNCATED_SINE
               else cd.phi_abs)(j, T2PI)
        kinks = cd._phi_kinks(j, T2PI, variant, 0.0)[:-1]
        kern = cd._ll_kernel(j, T2PI, variant, n)
        for k in range(n):
            s = k * T2PI / n
            near = [(c - s + math.pi) % T2PI - math.pi for c in kinks]
            edges = sorted({-half, 0.0, half}
                           | {u for u in near if abs(u) < half})
            ref = math.fsum(
                quad(lambda u: (1 - abs(u) / half) * float(phi(s + u)),
                     a, b, epsabs=1e-15, epsrel=1e-13)[0]
                for a, b in zip(edges[:-1], edges[1:]) if b - a > 1e-12)
            assert kern[k] == pytest.approx(ref, rel=1e-12, abs=1e-15), \
                (j, k)


@pytest.mark.parametrize("tau_points", [1, 4, 97, 1000])
def test_sign_integrals_on_any_tau_grid_match_the_reference(tau_points):
    # the kernel is tabulated on lcm(128, tau_points) offsets: 128, 128,
    # 12416 and 16000 here
    picks = sorted({0, tau_points // 2, tau_points - 1})
    for variant in (cd.TRUNCATED_SINE, cd.ABS_SINE):
        _assert_matches_reference(rm.make_cubic_band(), variant, tau_points,
                                  picks)


def _periodic_interp(t_grid, values, period=T2PI):
    tg, vg = np.append(t_grid, period), np.append(values, values[0])
    return lambda t: np.interp(np.mod(t, period), tg, vg)


def _pattern(values):
    return ["nan" if math.isnan(v) else "+inf" if v == math.inf
            else "-inf" if v == -math.inf else "finite" for v in values]


_INFINITE_KNOTS = {
    # knot index -> value, laid into cubic_band's finite residue tables
    "one_plus_inf": {10: math.inf},
    "plus_and_minus_inf": {10: math.inf, 40: -math.inf},
}


@pytest.mark.parametrize("variant", [cd.TRUNCATED_SINE, cd.ABS_SINE])
@pytest.mark.parametrize("case", sorted(_INFINITE_KNOTS))
def test_infinite_knots_give_the_reference_pattern(monkeypatch, case,
                                                   variant):
    # per tau, an infinite knot counts where the translated profile is
    # positive on its hat: the truncated profile's zero part leaves the
    # integral finite, its hump gives the knot's sign, both signs nan
    model = rm.make_cubic_band()
    original = cd.asymptotic_envelope
    tables = {}

    def with_infinities(model, side, **kwargs):
        env = original(model, side, **kwargs)
        values = env.values.copy()
        for i, v in _INFINITE_KNOTS[case].items():
            values[i] = v
        tables[side] = values
        return cd.AsymptoticEnvelope(env.t_grid, values, env.stabilized)

    monkeypatch.setattr(cd, "asymptotic_envelope", with_infinities)
    seen = set()
    for rep in cd.ll_verdict(model, variant=variant, tau_points=64):
        residue = _periodic_interp(rm.periodic_grid(T2PI, 128),
                                   tables[rep.side])
        ref = [cd.ll_integral(residue, rep.j, T2PI, variant, float(tau))
               for tau in rep.tau_grid]
        assert _pattern(rep.integrals) == _pattern(ref)
        finite = np.isfinite(ref)
        assert np.allclose(rep.integrals[finite], np.array(ref)[finite],
                           rtol=1e-5, atol=0.0)
        seen.update(_pattern(ref))
    if variant == cd.ABS_SINE:
        # the abs profile is positive on every hat
        assert seen == ({"+inf"} if case == "one_plus_inf" else {"nan"})
    elif case == "one_plus_inf":
        assert seen == {"finite", "+inf"}
    else:
        assert seen == {"finite", "+inf", "-inf", "nan"}


@pytest.mark.parametrize("tau_points", [256, 97])
def test_ll_verdict_needs_no_quadrature_and_little_memory(monkeypatch,
                                                         tau_points):
    # a deterministic work and memory guard: no ll_integral call, and the
    # kernel tables (12416 offsets at 97) stay far below a tau x knot matrix
    def refuse(*args, **kwargs):
        raise AssertionError("ll_verdict called ll_integral")

    monkeypatch.setattr(cd, "ll_integral", refuse)
    for name in ("cubic_band", "screen_expr_seed1_0"):
        model = _golden_model(name)
        for variant in (cd.TRUNCATED_SINE, cd.ABS_SINE):
            cd.ll_verdict(model, variant=variant, tau_points=tau_points)
            tracemalloc.start()
            try:
                lo, hi = cd.ll_verdict(model, variant=variant,
                                       tau_points=tau_points)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert lo.passed and hi.passed
            assert peak <= 1 << 20, (name, variant, peak)


# --------------------------------------------------------------------------
# growth/band validators


def test_validate_A_midband_linear_right():
    mu_mid = 0.5 * (eigenvalue(2, T2PI) + eigenvalue(3, T2PI))

    def f(t, x):
        return x ** 3 if x < 0 else mu_mid * x

    model = rm.NonlinearityModel(f=f, period=T2PI, n_mode=2,
                                 f_tarr=flat_grid(lambda x: f(0.0, x)))
    rep = cd.validate_A(model)
    assert rep["passed"]
    assert rep["band_constant"] == pytest.approx(0.0, abs=1e-12)


def test_validate_A_reports_oscillation_amplitude_as_band_constant():
    n = 2
    mu_n1 = eigenvalue(n + 1, T2PI)
    c0 = 0.8

    def f(t, x):
        if x < 0:
            return x ** 3
        return mu_n1 * x + 2.0 * c0 * math.sin(x) * x / (1.0 + x)

    model = rm.NonlinearityModel(
        f=f, period=T2PI, n_mode=n,
        f_tarr=flat_grid(lambda x: f(0.0, x)))
    rep = cd.validate_A(model)
    assert rep["passed"]
    assert rep["band_constant"] == pytest.approx(2.0 * c0, rel=0.05)


def test_validate_A_rejects_linear_left():
    model = rm.NonlinearityModel(
        f=lambda t, x: x, period=T2PI, n_mode=1,
        f_tarr=flat_grid(lambda x: x))
    rep = cd.validate_A(model)
    assert not rep["superlinear_left"]
    assert not rep["passed"]


def test_validate_A0_strong_force_pass_and_fail():
    mu = 1.625

    def strong(t, x):
        return mu * x - x ** -3

    def weak(t, x):
        return mu * x - x ** -0.5

    m_strong = rm.NonlinearityModel(
        f=strong, period=T2PI, domain=rm.SINGULAR, n_mode=2,
        f_tarr=flat_grid(lambda x: strong(0.0, x)))
    m_weak = rm.NonlinearityModel(
        f=weak, period=T2PI, domain=rm.SINGULAR, n_mode=2,
        f_tarr=flat_grid(lambda x: weak(0.0, x)))
    assert cd.validate_A0_Ainf(m_strong)["passed"]
    rep = cd.validate_A0_Ainf(m_weak)
    assert not rep["strong_force"] and not rep["passed"]


def test_validate_A0_on_quintic_wall_model():
    model = rm.from_expression("-(1+sin(t)^2)*x^-5 - x^-3 + 1.625*x", T2PI,
                               domain=rm.SINGULAR, n_mode=2)
    rep = cd.validate_A0_Ainf(model)
    assert rep["passed"]


# --------------------------------------------------------------------------
# window-envelope ratio checks


def test_window_ratio_passes_on_uniform_order_quintic():
    model = rm.from_expression("(1+sin(t)^2)*x^5 + x^3", T2PI)
    rep = cd.check_H(model)
    assert rep["passed"]
    dev = rep["deviation_table"][:, -1]
    assert dev[-1] < dev[0]          # shrinking window improves the worst ratio


def test_window_ratio_fails_when_orders_mix():
    model = rm.from_expression("x^3 + sin(t)^2*x^5", T2PI)
    rep = cd.check_H(model)
    assert not rep["passed"]
    assert rep["worst_final"] > 0.5


def test_window_ratio_exact_for_time_independent_left():
    model = rm.from_expression("x^3 + cos(t)*max(x, 0)", T2PI)
    rep = cd.check_H(model)
    assert rep["passed"]
    assert rep["worst_final"] < 1e-9  # F1 = F2 for x < 0


def test_window_ratio_wall_direction_pair():
    good = rm.from_expression("-(1+sin(t)^2)*x^-5 - x^-3", T2PI, domain=rm.SINGULAR)
    bad = rm.from_expression("-x^-3 - sin(t)^2*x^-5", T2PI, domain=rm.SINGULAR)
    assert cd.check_H(good)["passed"]
    rep = cd.check_H(bad)
    assert not rep["passed"]


def test_check_H_evaluates_f_once_per_node():
    # a deterministic work count: 25 panels x 12 Gauss nodes between 0 and
    # -1e4, each evaluated once on the windows of all 3 x 24 cells, in grid
    # calls of at most GRID_CELLS cells: 13 nodes of 2,376 times each
    model = rm.from_expression("(1+sin(t)^2)*x^5 + x^3", T2PI)
    calls = []

    def counted(t, x):
        calls.append((np.shape(t), np.size(x)))
        return model.f_tarr(t, x)

    cd.check_H(dataclasses.replace(model, f_tarr=counted))
    assert len(calls) == 24
    assert {shape for shape, _ in calls} == {(3 * 24, 33)}
    assert sum(n for _, n in calls) == 300
    assert max(n for _, n in calls) == 13


# --------------------------------------------------------------------------
# golden records: ll_verdict and check_H pinned bit for bit
#
# tests/data/conditions_golden.json holds float.hex literals.  The tau = 64
# integrals and margins of both variants and sides were recorded with the
# kernel correlation, which agrees with the adaptive reference above to
# within 1e-12 max(1, max|I|); the check_H ratio tables (wall direction for
# singular_band) with the cell-by-cell quadrature that the array form
# replaced.

_GOLDEN = json.loads((pathlib.Path(__file__).parent / "data"
                      / "conditions_golden.json").read_text())


def _golden_model(name):
    if name == "cubic_band":
        return rm.make_cubic_band()
    if name == "singular_band":
        return rm.make_singular_band()
    src = _GOLDEN["screen_expr_input"]
    return rm.from_piecewise(src["f_left"], src["f_right"], T2PI, n_mode=2)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("name", sorted(_GOLDEN["models"]))
def test_sign_conditions_pinned_in_float_hex(name):
    model = _golden_model(name)
    table = _GOLDEN["models"][name]
    for variant in (cd.TRUNCATED_SINE, cd.ABS_SINE):
        for rep in cd.ll_verdict(model, variant=variant, tau_points=64):
            want = table[f"{variant}/{rep.side}"]
            assert _hex(rep.integrals) == want["integrals"]
            assert float(rep.margin).hex() == want["margin"]


@pytest.mark.parametrize("name", sorted(_GOLDEN["models"]))
def test_window_ratios_pinned_in_float_hex(name):
    rep = cd.check_H(_golden_model(name))
    assert _hex(rep["ratios"]) == _GOLDEN["models"][name]["check_H_ratios"]


# the hypothesis validators and the a-priori envelope table, pinned the same
# way: validate_A (full line) or validate_A0_Ainf (singular) in float.hex,
# and build_envelopes by a sha256 of the hex of x, f1, f2, F1, F2 and base


@pytest.mark.parametrize("name", sorted(_GOLDEN["models"]))
def test_hypothesis_validators_pinned_in_float_hex(name):
    model = _golden_model(name)
    table = _GOLDEN["models"][name]
    if model.domain == rm.SINGULAR:
        rep, want = cd.validate_A0_Ainf(model), table["validate_A0_Ainf"]
        assert float(rep["delta_found"]).hex() == want["delta_found"]
        for i in (1, 2):
            assert _hex(rep["wall_integrals"][i]) == want["wall_integrals"][str(i)]
    else:
        rep, want = cd.validate_A(model), table["validate_A"]
        assert _hex(rep["left_ratios"]) == want["left_ratios"]
        assert _hex(rep["band_constant_prefix"]) == want["band_constant_prefix"]
    assert float(rep["band_constant"]).hex() == want["band_constant"]


@pytest.mark.parametrize("name", sorted(_GOLDEN["models"]))
def test_envelope_table_pinned_by_digest(name):
    env = ap.build_envelopes(_golden_model(name))
    blob = " ".join(_hex(env.x) + _hex(env.f1) + _hex(env.f2) + _hex(env.F1)
                    + _hex(env.F2) + [float(env.base).hex()])
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == _GOLDEN["models"][name]["build_envelopes_sha256"]


# --------------------------------------------------------------------------
# the grid form's work and memory budget


def test_grid_calls_stay_within_the_cell_budget():
    # every scan over t calls the grid form on at most GRID_CELLS cells
    # (256 KiB of float64): the envelopes of validate_A and
    # validate_A0_Ainf, the windows of check_H, and the residue ladder
    assert rm.GRID_CELLS == 2 ** 15
    for name in ("screen_expr_seed1_0", "singular_band"):
        model = _golden_model(name)
        cells = []

        def counted(t, x):
            cells.append(np.size(t) * np.size(x))
            return model.f_tarr(t, x)

        counting = dataclasses.replace(model, f_tarr=counted)
        if model.domain == rm.SINGULAR:
            cd.validate_A0_Ainf(counting)
        else:
            cd.validate_A(counting)
        cd.check_H(counting)
        cd.ll_verdict(counting, tau_points=64)
        assert len(cells) > 10 and max(cells) <= rm.GRID_CELLS, name


def test_check_H_and_validate_A_peak_memory():
    # one grid call's arrays are up to 256 KiB and two live at once: 0.87
    # MiB measured on the screen golden model (0.77 MiB with one call per
    # x); twice the cells per call would peak near 1.36 MiB
    model = _golden_model("screen_expr_seed1_0")
    cd.check_H(model)
    cd.validate_A(model)
    tracemalloc.start()
    try:
        cd.check_H(model)
        cd.validate_A(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2 ** 20, peak
