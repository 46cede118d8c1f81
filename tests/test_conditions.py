import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

import resonance.model as rm
from resonance.spectrum import eigenvalue
from resonance import apriori as ap
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


def test_check_H_evaluates_f_once_per_node(monkeypatch):
    # a deterministic work count: 25 panels x 12 Gauss nodes between 0 and
    # -1e4, each evaluated once on the windows of all 3 x 24 cells
    calls = []
    original = rm.NonlinearityModel.f_over_t

    def counted(self, t_grid, x):
        calls.append(np.size(t_grid))
        return original(self, t_grid, x)

    monkeypatch.setattr(rm.NonlinearityModel, "f_over_t", counted)
    cd.check_H(rm.from_expression("(1+sin(t)^2)*x^5 + x^3", T2PI))
    assert len(calls) == 300
    assert set(calls) == {3 * 24 * 33}


# --------------------------------------------------------------------------
# golden records: ll_verdict and check_H pinned bit for bit
#
# tests/data/conditions_golden.json holds float.hex literals recorded with
# the panel-by-panel and cell-by-cell quadratures that the array forms
# replaced: the tau = 64 integrals and margins of both variants and sides,
# and the check_H ratio tables (wall direction for singular_band).

_GOLDEN = json.loads((pathlib.Path(__file__).parent / "data"
                      / "conditions_golden.json").read_text())


def _golden_model(name):
    if name == "cubic_band":
        return rm.make_cubic_band(), "x_to_minus_inf"
    if name == "singular_band":
        return rm.make_singular_band(), "x_to_zero_plus"
    src = _GOLDEN["screen_expr_input"]
    return (rm.from_piecewise(src["f_left"], src["f_right"], T2PI, n_mode=2),
            "x_to_minus_inf")


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("name", sorted(_GOLDEN["models"]))
def test_sign_conditions_pinned_in_float_hex(name):
    model, _ = _golden_model(name)
    table = _GOLDEN["models"][name]
    for variant in (cd.TRUNCATED_SINE, cd.ABS_SINE):
        for rep in cd.ll_verdict(model, variant=variant, tau_points=64):
            want = table[f"{variant}/{rep.side}"]
            assert _hex(rep.integrals) == want["integrals"]
            assert float(rep.margin).hex() == want["margin"]


@pytest.mark.parametrize("name", sorted(_GOLDEN["models"]))
def test_window_ratios_pinned_in_float_hex(name):
    model, direction = _golden_model(name)
    rep = cd.check_H(model, direction)
    assert _hex(rep["ratios"]) == _GOLDEN["models"][name]["check_H_ratios"]


# the hypothesis validators and the a-priori envelope table, pinned the same
# way: validate_A (full line) or validate_A0_Ainf (singular) in float.hex,
# and build_envelopes by a sha256 of the hex of x, f1, f2, F1, F2 and base


@pytest.mark.parametrize("name", sorted(_GOLDEN["models"]))
def test_hypothesis_validators_pinned_in_float_hex(name):
    model, _ = _golden_model(name)
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
    model, _ = _golden_model(name)
    env = ap.build_envelopes(model)
    blob = " ".join(_hex(env.x) + _hex(env.f1) + _hex(env.f2) + _hex(env.F1)
                    + _hex(env.F2) + [float(env.base).hex()])
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == _GOLDEN["models"][name]["build_envelopes_sha256"]
