import math

import numpy as np
import pytest

import resonance.model as rm
from resonance.spectrum import eigenvalue
from resonance import conditions as cd

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


# --------------------------------------------------------------------------
# asymptotic envelopes


def test_envelope_monotone_under_tail_enlargement():
    model = rm.make_cubic_band()
    mu_n = eigenvalue(2, T2PI)
    e18 = cd.asymptotic_envelope(model, mu_n, k_max=18)
    e20 = cd.asymptotic_envelope(model, mu_n, k_max=20)
    assert np.all(e20.lower <= e18.lower + 1e-12)
    assert np.all(e20.upper >= e18.upper - 1e-12)


def test_envelope_finds_band_residues():
    model = rm.make_cubic_band(lift=1.0, drop=1.0, forcing=0.5)
    mu_n = eigenvalue(2, T2PI)
    mu_n1 = eigenvalue(3, T2PI)
    lo = cd.asymptotic_envelope(model, mu_n)
    hi = cd.asymptotic_envelope(model, mu_n1)
    om = 2 * math.pi / T2PI
    e = 0.5 * np.cos(om * lo.t_grid)
    # liminf(f - mu_N x) = lift + forcing(t); limsup(f - mu_N+1 x) = -drop + forcing(t)
    assert np.allclose(lo.lower, 1.0 + e, atol=2e-2)
    assert np.allclose(hi.upper, -1.0 + e, atol=2e-2)
    assert lo.lower_stabilized and hi.upper_stabilized


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
        f_tarr=lambda t, x: np.full(np.shape(t), f(0.0, x)))
    lo, hi = cd.ll_verdict(model, tau_points=32)
    assert lo.passed
    expected = 2 * T2PI / (n * math.pi)
    assert np.allclose(lo.integrals, expected, rtol=1e-2)
    assert hi.passed
    assert np.all(hi.integrals == -math.inf)


# --------------------------------------------------------------------------
# growth/band validators


def test_validate_A_midband_linear_right():
    mu_mid = 0.5 * (eigenvalue(2, T2PI) + eigenvalue(3, T2PI))

    def f(t, x):
        return x ** 3 if x < 0 else mu_mid * x

    model = rm.NonlinearityModel(f=f, period=T2PI, n_mode=2,
                                 f_tarr=lambda t, x: np.full(np.shape(t), f(0.0, x)))
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
        f_tarr=lambda t, x: np.full(np.shape(t), f(0.0, x)))
    rep = cd.validate_A(model)
    assert rep["passed"]
    assert rep["band_constant"] == pytest.approx(2.0 * c0, rel=0.05)


def test_validate_A_rejects_linear_left():
    model = rm.NonlinearityModel(
        f=lambda t, x: x, period=T2PI, n_mode=1,
        f_tarr=lambda t, x: np.full(np.shape(t), float(x)))
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
        f_tarr=lambda t, x: np.full(np.shape(t), strong(0.0, x)))
    m_weak = rm.NonlinearityModel(
        f=weak, period=T2PI, domain=rm.SINGULAR, n_mode=2,
        f_tarr=lambda t, x: np.full(np.shape(t), weak(0.0, x)))
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
    assert cd.check_H(good, direction="x_to_zero_plus")["passed"]
    rep = cd.check_H(bad, direction="x_to_zero_plus")
    assert not rep["passed"]
