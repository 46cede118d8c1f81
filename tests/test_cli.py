import json
import math

import dataclasses

import pytest

from resonance import cli
from resonance import model as rm
from resonance import solver as sv
from resonance.integrate import IntegrateOpts


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "model": {"family": "cubic_band", "T": 2 * math.pi, "N": 2,
                  "params": {"forcing": 0.5}},
        "theorem": "main",
        "grids": {"tau_points": 32},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# --------------------------------------------------------------------------
# config validation


def test_config_requires_period():
    with pytest.raises(cli.ConfigError, match="model.T"):
        cli.validate_config({"model": {"N": 2, "family": "cubic_band"}})


def test_config_rejects_unknown_keys():
    with pytest.raises(cli.ConfigError, match="unknown keys"):
        cli.validate_config({"model": {"T": 1.0, "N": 1, "family": "cubic_band",
                                       "bogus": 1}})
    with pytest.raises(cli.ConfigError, match="unknown keys"):
        cli.validate_config({"model": {"T": 1.0, "N": 1, "family": "cubic_band"},
                             "extra_section": {}})


def test_config_requires_exactly_one_model_source():
    base = {"T": 1.0, "N": 1}
    with pytest.raises(cli.ConfigError, match="exactly one"):
        cli.validate_config({"model": dict(base)})
    with pytest.raises(cli.ConfigError, match="exactly one"):
        cli.validate_config({"model": dict(base, f="x", family="cubic_band")})


def test_config_rejects_unknown_theorem():
    with pytest.raises(cli.ConfigError, match="theorem"):
        cli.validate_config({"model": {"T": 1.0, "N": 1, "f": "x"},
                             "theorem": "nope"})


def test_missing_period_exits_with_config_code(tmp_path):
    cfg = {"model": {"family": "cubic_band", "N": 2}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["verify", "--config", str(path)])
    assert code == cli.EXIT_CONFIG


_BAND = {"family": "cubic_band", "T": 2 * math.pi, "N": 2}


@pytest.mark.parametrize("cfg, names", [
    ({"model": dict(_BAND, params={"bogus": 1.0})}, ["model.params", "bogus"]),
    ({"model": dict(_BAND, family="no_such_band")}, ["model.family"]),
    ({"model": dict(_BAND, params={"name": "band"})},
     ["model.params", "name"]),
    ({"model": _BAND, "grids": {"tau_points": "abc"}}, ["grids.tau_points"]),
    ({"model": _BAND, "grids": {"lambda_points": 0}}, ["grids.lambda_points"]),
    ({"model": _BAND, "tolerances": {"rtol": "tight"}}, ["tolerances.rtol"]),
    ({"model": {"f": "x^3 + bogus*x", "T": 2 * math.pi, "N": 2}},
     ["model.f", "bogus"]),
    ({"model": {"f_left": "x^3", "f_right": "2*x +", "T": 2 * math.pi,
                "N": 2}}, ["model.f_right"]),
    ({"model": dict(_BAND, params={"forcing": "x"})},
     ["model.params.forcing"]),
    ({"model": dict(_BAND, family="linear_resonant")}, ["model.N", "odd"]),
    ({"model": _BAND, "radial": {"nu": "one"}}, ["radial.nu"]),
    ({"model": _BAND, "radial": {"k_max": 0}}, ["radial.k_max"]),
    ({"model": _BAND, "radial": {"k_min": 3, "k_max": 2}},
     ["radial.k_min", "radial.k_max"]),
    ({"model": _BAND, "mu": 0.5}, ["unknown keys", "mu"]),
    ({"model": _BAND, "seed": 1}, ["unknown keys", "seed"]),
    ({"model": _BAND, "radial": 2}, ["radial", "object"]),
    ({"model": _BAND, "tolerances": {"rtol": -1}},
     ["tolerances.rtol", "positive"]),
    ({"model": _BAND, "tolerances": {"max_step": 0}},
     ["tolerances.max_step", "positive"]),
    ({"model": _BAND, "tolerances": {"newton_tol": math.nan}},
     ["tolerances.newton_tol", "finite"]),
    ({"model": _BAND, "tolerances": {"atol": math.inf}},
     ["tolerances.atol", "finite"]),
    ({"model": dict(_BAND, T=math.nan)}, ["model.T", "finite"]),
    ({"model": dict(_BAND, T=math.inf)}, ["model.T", "finite"]),
    ({"model": dict(_BAND, T=True)}, ["model.T"]),
    ({"model": dict(_BAND, N=True)}, ["model.N", "positive integer"]),
    ({"model": _BAND, "grids": {"t_points": 96}}, ["unknown keys", "t_points"]),
    ({"model": _BAND, "grids": {"x_points": 4096}},
     ["unknown keys", "x_points"]),
    ({"model": _BAND, "grids": {"lambda_points": 1}},
     ["grids.lambda_points", "at least 2"]),
    ({"model": 3}, ["model", "object"]),
    ({"model": None}, ["model", "object"]),
    ({"model": "abc"}, ["model", "object"]),
    ({"model": dict(_BAND, params=0)}, ["model.params", "object"]),
    ({"model": dict(_BAND, params=[])}, ["model.params", "object"]),
    ({"model": dict(_BAND, params="")}, ["model.params", "object"]),
    ({"model": {"f": "x^3", "T": 2 * math.pi, "N": 2,
                "params": {"forcing": 0.5}}},
     ["model.params", "model.family"]),
    ({"model": dict(_BAND, family=["cubic_band"])}, ["model.family"]),
], ids=["family-param", "family", "family-param-name", "grid-type",
        "grid-range", "tolerance", "unknown-identifier", "parse-error",
        "family-param-type", "linear-resonant-even-N", "radial-nu-type",
        "radial-k-range", "radial-k-order", "mu-unknown", "seed-unknown",
        "section-type", "tolerance-negative", "tolerance-zero",
        "tolerance-nan", "tolerance-inf", "period-nan", "period-inf",
        "period-bool", "band-index-bool", "grid-t-points", "grid-x-points",
        "grid-one-lambda", "model-number", "model-null", "model-string",
        "params-number", "params-list", "params-string",
        "params-without-family", "family-list"])
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, cfg,
                                                 names):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for name in names:
        assert name in err


# the theorem fixes the domain: an expression model without model.domain
# takes it, a family brings its own, and any disagreement exits 2
_WALL = "1.625*x - (1+sin(t)^2)*x^-5 - x^-3"


@pytest.mark.parametrize("theorem", sorted(cli.THEOREMS))
@pytest.mark.parametrize("source", ["f"] + sorted(rm.FAMILIES))
@pytest.mark.parametrize("domain", [None, rm.FULL_LINE, rm.SINGULAR])
def test_theorem_and_model_domain_must_agree(tmp_path, capsys, theorem,
                                             source, domain):
    mc = {"T": 2 * math.pi, "N": 3}
    if source == "f":
        mc["f"], own = _WALL, None
    else:
        mc["family"], own = source, rm.FAMILIES[source]().domain
    if domain is not None:
        mc["domain"] = domain
    cfg = {"model": mc, "theorem": theorem}
    want = cli.THEOREMS[theorem][0]
    if {domain, own} <= {None, want}:
        assert cli.build_model(cli.validate_config(cfg)).domain == want
        return
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"theorem {theorem!r}" in err and "model.domain" in err
    assert not (tmp_path / "out").exists()


def test_singular_theorem_runs_an_expression_in_singular_mode(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"f": _WALL, "T": 2 * math.pi,
                                          "N": 2},
                                "grids": {"tau_points": 32}}))
    out = tmp_path / "out"
    code = cli.main(["verify", "--config", str(path), "--out", str(out),
                     "--theorem", "singular-weak"])
    assert code == cli.EXIT_OK
    report = (out / "report.txt").read_text()
    assert "stage.hypotheses.verdict = pass" in report
    assert "stage.sign_conditions.verdict = pass" in report
    # the filled-in domain is not echoed: the config is reported as given
    assert "config.model.domain" not in report


@pytest.mark.parametrize("command", ["verify", "find"])
def test_model_undefined_on_its_domain_exits_2_naming_the_subtree(
        tmp_path, capsys, command):
    # a non-integer power and a log, each of a negative value somewhere
    for f, N, cause, subtree in (
            ("1.5*x + 0.1*x^1.5 + 0.5*cos(t)", 1, "negative base", "'x^1.5'"),
            ("x^3 + x*log(x) + cos(t)", 2, "log of a non-positive value",
             "'log(x)'")):
        path = tmp_path / "undefined.json"
        path.write_text(json.dumps({"model": {
            "f": f, "T": 2 * math.pi, "N": N}, "grids": {"tau_points": 32}}))
        code = cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert cause in err and subtree in err


def test_tol_override_parsing(tmp_path):
    cfg = cli.validate_config({"model": {"T": 1.0, "N": 1, "f": "x"}})
    out = cli.apply_tol_overrides(cfg, ["rtol=1e-9"])
    assert out["tolerances"]["rtol"] == 1e-9
    with pytest.raises(cli.ConfigError):
        cli.apply_tol_overrides(cfg, ["nonsense=1"])
    # every tolerance is a finite positive number, from the command line too
    for bad in ("rtol=abc", "rtol=nan", "atol=inf", "rtol=-1", "max_step=0"):
        key = bad.split("=")[0]
        with pytest.raises(cli.ConfigError, match=key):
            cli.validate_config(cli.apply_tol_overrides(cfg, [bad]))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": _BAND}))
    assert cli.main(["verify", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--tol-override",
                     "rtol=abc"]) == cli.EXIT_CONFIG


def test_build_opts_fills_only_the_keys_the_config_gives():
    # SolveOpts holds the defaults; the config overrides field by field
    default = sv.SolveOpts()
    assert cli.build_opts(cli.validate_config({"model": _BAND})) == default
    assert cli.build_opts(cli.validate_config(
        {"model": _BAND, "tolerances": {}, "grids": {"tau_points": 16}})) \
        == default
    given = {"rtol": 1e-9, "atol": 2e-9, "event_tol": 3e-9, "max_step": 0.5}
    for key, val in given.items():
        opts = cli.build_opts(cli.validate_config(
            {"model": _BAND, "tolerances": {key: val}}))
        assert opts == dataclasses.replace(default, integrate=dataclasses
                                           .replace(default.integrate,
                                                    **{key: val}))
    opts = cli.build_opts(cli.validate_config(
        {"model": _BAND, "tolerances": {"newton_tol": 4e-9}}))
    assert opts == dataclasses.replace(default, newton_tol=4e-9)
    opts = cli.build_opts(cli.validate_config(
        {"model": _BAND, "grids": {"lambda_points": 9}}))
    assert opts == dataclasses.replace(default, lambda_points=9)


def test_expression_model_roundtrip():
    cfg = cli.validate_config({
        "model": {"f": "(1+sin(t)^2)*x^5 + x^3", "T": 2 * math.pi, "N": 2}})
    model = cli.build_model(cfg)
    assert model.f(0.0, -2.0) == pytest.approx(-40.0)


def test_piecewise_model_split():
    cfg = cli.validate_config({
        "model": {"f_left": "x^3", "f_right": "2*x", "T": 2 * math.pi, "N": 1}})
    model = cli.build_model(cfg)
    assert model.f(0.0, -2.0) == -8.0
    assert model.f(0.0, 3.0) == 6.0


# --------------------------------------------------------------------------
# subcommands


def test_spectrum_command_writes_curves(tmp_path):
    code = cli.main(["spectrum", "--T", "6.283185307179586", "--jmax", "3",
                     "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "j,mu,nu"
    assert len(lines) > 100


def test_verify_command_passes_band_model(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["verify", "--config", cfg, "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "sign.lower.verdict = pass" in report
    assert "sign.upper.verdict = pass" in report
    assert (out / "ll_lower.csv").exists()
    assert (out / "ll_upper.csv").exists()


def test_verify_linear_resonant_family_fails_hypotheses(tmp_path):
    # the pumped mode m = (N + 1)/2 = 2 puts the slope on mu_4, and the
    # linear left side is not superlinear: hypothesis (A) fails
    cfg_path = tmp_path / "lin.json"
    cfg_path.write_text(json.dumps({
        "model": {"family": "linear_resonant", "T": 2 * math.pi, "N": 3}}))
    code = cli.main(["verify", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_HYPOTHESIS


def test_verify_gate_failure_names_window_check(tmp_path):
    # this nonlinearity mixes orders across t, so the window-ratio check
    # must fail under the abs-profile pipeline
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"f_left": "x^3 + sin(t)^2*x^5",
                  "f_right": "1.625*x + x^2/(1+x^2)",
                  "T": 2 * math.pi, "N": 2},
        "theorem": "main2",
        "grids": {"tau_points": 32},
    }))
    out = tmp_path / "out"
    code = cli.main(["verify", "--config", str(cfg_path), "--out", str(out)])
    report = (out / "report.txt").read_text()
    assert "window_ratio.passed = False" in report


def test_verify_and_find_agree_on_the_window_ratio_gate(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"f_left": "x^3 + sin(t)^2*x^5",
                  "f_right": "1.625*x + x^2/(1+x^2)",
                  "T": 2 * math.pi, "N": 2},
        "theorem": "main2",
        "grids": {"tau_points": 32},
    }))
    codes, verdicts = [], []
    for command in ("verify", "find"):
        out = tmp_path / command
        codes.append(cli.main([command, "--config", str(cfg_path),
                               "--out", str(out)]))
        report = (out / "report.txt").read_text().splitlines()
        verdicts.append([ln for ln in report
                         if ln.startswith("stage.hypotheses.verdict")])
        assert "window_ratio.passed = False" in report
        # the sign conditions are not evaluated past a failed gate
        assert not (out / "ll_lower.csv").exists()
    assert codes == [cli.EXIT_HYPOTHESIS] * 2
    assert verdicts[0] == verdicts[1] == ["stage.hypotheses.verdict = fail"]
    assert "verify: hypotheses=fail" in capsys.readouterr().err


def test_apriori_and_find_report_the_same_N0(tmp_path):
    cfg_path = tmp_path / "sing.json"
    cfg_path.write_text(json.dumps({
        "model": {"family": "singular_band", "T": 2 * math.pi, "N": 2,
                  "domain": "singular"},
        "theorem": "singular-weak",
        "grids": {"tau_points": 32},
    }))
    n0 = []
    for command in ("apriori", "find"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(out)]) == cli.EXIT_OK
        report = (out / "report.txt").read_text().splitlines()
        n0 += [ln for ln in report if ln.startswith("apriori.N0 = ")]
    assert len(n0) == 2 and n0[0] == n0[1]
    # find certifies on the N-level whose probe orbits passed, and the
    # oval there winds once around the lone fixed point
    lines = dict(ln.split(" = ", 1) for ln in report)
    assert lines["certificate.radius"] == lines["apriori.start_level"]
    assert lines["certificate.degree"] == lines["certificate.index"] == "1"
    assert "certificate.index_note" not in lines
    # apriori runs the sign conditions before the a-priori stage
    assert (tmp_path / "apriori" / "ll_lower.csv").exists()
    assert not (tmp_path / "apriori" / "path.csv").exists()


def test_report_names_the_tolerances_the_kit_used(tmp_path):
    # the full-line kit runs at the integrator's defaults, not at the
    # configured tolerances, and the report says so next to the echo
    with open(_write_config(tmp_path)) as fh:
        cfg = cli.apply_tol_overrides(json.load(fh), ["rtol=1e-12"])
    res = cli.run(cfg, str(tmp_path / "out"), last="apriori")
    lines = dict(res.report.lines)
    assert lines["config.tolerances.rtol"] == cli.fmt_float(1e-12)
    assert lines["apriori.rtol"] == cli.fmt_float(IntegrateOpts().rtol)
    assert lines["apriori.atol"] == cli.fmt_float(IntegrateOpts().atol)


def test_apriori_stops_at_the_hypothesis_gate(tmp_path):
    cfg_path = tmp_path / "lin.json"
    cfg_path.write_text(json.dumps({
        "model": {"family": "linear_resonant", "T": 2 * math.pi, "N": 3}}))
    out = tmp_path / "out"
    code = cli.main(["apriori", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_HYPOTHESIS
    assert not (out / "envelopes.csv").exists()
    assert "stage.apriori" not in (out / "report.txt").read_text()


def test_apriori_lap_table_failure_exits_5(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise RuntimeError("lap did not close")

    monkeypatch.setattr(cli.ap, "lap_report", failing)
    out = tmp_path / "out"
    code = cli.main(["apriori", "--config", _write_config(tmp_path),
                     "--out", str(out)])
    assert code == cli.EXIT_APRIORI
    assert "lap did not close" in capsys.readouterr().err
    assert (out / "envelopes.csv").exists()
    assert not (out / "laps.csv").exists()
    assert "apriori.laps_error = lap did not close" in \
        (out / "report.txt").read_text()


def test_find_pipeline_stops_at_hypothesis_gate(tmp_path):
    cfg_path = tmp_path / "lin.json"
    cfg_path.write_text(json.dumps({
        "model": {"f": "x", "T": 2 * math.pi, "N": 1},
        "theorem": "main",
    }))
    out = tmp_path / "out"
    code = cli.main(["find", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_HYPOTHESIS
    report = (out / "report.txt").read_text()
    assert "stage.hypotheses.verdict = fail" in report
    # no later stage ran
    assert "stage.solve" not in report


def test_sign_gate_failure_exit_code(tmp_path):
    cfg_path = tmp_path / "edge.json"
    cfg_path.write_text(json.dumps({
        "model": {"family": "resonant_edge", "T": 2 * math.pi, "N": 2},
        "theorem": "main",
        "grids": {"tau_points": 32},
    }))
    out = tmp_path / "out"
    code = cli.main(["find", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_SIGN_CONDITION
    report = (out / "report.txt").read_text()
    assert "stage.sign_conditions.verdict = fail" in report
    assert "stage.solve" not in report


def test_full_pipeline_on_quintic_expression_model(tmp_path):
    # the uniform-order quintic left side with a midband linear tail walks
    # through every stage of the rectified-profile pipeline
    cfg_path = tmp_path / "quintic.json"
    cfg_path.write_text(json.dumps({
        "model": {"f_left": "(1+sin(t)^2)*x^5 + x^3",
                  "f_right": "1.625*x + x^2/(1+x^2)",
                  "T": 2 * math.pi, "N": 2},
        "theorem": "main2",
        "grids": {"tau_points": 32, "lambda_points": 17},
    }))
    out = tmp_path / "out"
    code = cli.main(["find", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "stage.hypotheses.verdict = pass" in report
    assert "stage.sign_conditions.verdict = pass" in report
    assert "stage.apriori.verdict = pass" in report
    assert "stage.solve.verdict = pass" in report
    assert "certificate.status = converged" in report
    for name in ("solution.csv", "events.csv", "path.csv",
                 "envelopes.csv", "maps.csv"):
        assert (out / name).exists()
    header = (out / "solution.csv").read_text().splitlines()[0]
    assert header == "t,x,y,rho,theta"
    assert (out / "events.csv").read_text().splitlines()[0] == "kind,t,x,y"


def test_programming_error_in_a_stage_propagates(tmp_path, monkeypatch):
    # a bug is not an a-priori failure: it must not exit 5
    def broken(*args, **kwargs):
        raise TypeError("broken kit")

    monkeypatch.setattr(cli.ap, "build_kit", broken)
    with pytest.raises(TypeError, match="broken kit"):
        cli.main(["find", "--config", _write_config(tmp_path),
                  "--out", str(tmp_path / "out")])


def test_sweep_aggregates_pass_and_fail_cells(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "model": {"family": "cubic_band", "T": 2 * math.pi, "N": 2,
                  "params": {"forcing": 0.5}},
        "theorem": "main",
        "grids": {"tau_points": 32, "lambda_points": 17},
        "sweep": {"param": "model.params.forcing", "values": [0.5, 6.0]},
    }))
    out = tmp_path / "atlas_out"
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    rows = (out / "atlas.csv").read_text().splitlines()
    assert rows[0].startswith("model.params.forcing")
    verdicts = [r.split(",")[1] for r in rows[1:]]
    assert verdicts[0] == "pass"
    assert verdicts[1].startswith("fail")


@pytest.mark.parametrize("sweep, names", [
    ({"param": "model.params.forcing", "values": 5}, ["sweep.values"]),
    ({"param": "model.params.forcing", "values": []}, ["sweep.values"]),
    ({"param": "model.params.forcing", "values": [0.5, math.nan]},
     ["sweep.values"]),
    ({"param": 5, "values": [0.5]}, ["sweep.param"]),
    ({"param": "tolerances.rtol", "values": [1e-11, -1]},
     ["sweep.values[1]", "tolerances.rtol", "positive"]),
    ({"param": "model.N", "values": [2, 2.5]},
     ["sweep.values[1]", "model.N", "positive integer"]),
], ids=["values-scalar", "values-empty", "values-nan", "param-type",
        "cell-tolerance", "cell-band-index"])
def test_sweep_checks_every_cell_before_running_one(tmp_path, capsys, sweep,
                                                    names):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "model": {"family": "cubic_band", "T": 2 * math.pi, "N": 2,
                  "params": {"forcing": 0.5}},
        "sweep": sweep,
    }))
    out = tmp_path / "atlas_out"
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for name in names:
        assert name in err
    assert not list(tmp_path.glob("**/cell_*"))


def test_floats_serialized_with_17_digits(tmp_path):
    from resonance.util import fmt_float
    v = 1.0 / 3.0
    assert fmt_float(v) == format(v, ".17g")
    assert float(fmt_float(v)) == v
