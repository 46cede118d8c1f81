import json
import math

import pytest

from resonance import cli
from resonance import model as rm
from resonance import solver as sv
from resonance.integrate import HomotopyField, PhaseState, integrate


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
# every integration runs at the constant TOL: the retired section is unknown
_NO_TOLERANCES = ["unknown keys in config root", "tolerances"]


@pytest.mark.parametrize("cfg, names", [
    ({"model": dict(_BAND, params={"bogus": 1.0})}, ["model.params", "bogus"]),
    ({"model": dict(_BAND, family="no_such_band")}, ["model.family"]),
    ({"model": dict(_BAND, params={"name": "band"})},
     ["model.params", "name"]),
    ({"model": _BAND, "grids": {"tau_points": "abc"}}, ["grids.tau_points"]),
    ({"model": _BAND, "tolerances": {"tol": "tight"}}, _NO_TOLERANCES),
    ({"model": {"f": "x^3 + bogus*x", "T": 2 * math.pi, "N": 2}},
     ["model.f", "bogus"]),
    ({"model": {"f_left": "x^3", "f_right": "2*x +", "T": 2 * math.pi,
                "N": 2}}, ["model.f_right"]),
    ({"model": {"f": "x^3 + 1e999*cos(t)", "T": 2 * math.pi, "N": 2}},
     ["model.f", "1e999"]),
    ({"model": {"f_left": "x^3 + 1e999*cos(t)", "f_right": "2*x",
                "T": 2 * math.pi, "N": 2}}, ["model.f_left", "1e999"]),
    ({"model": {"f_left": "x^3", "f_right": "2*x - 1e999",
                "T": 2 * math.pi, "N": 2}}, ["model.f_right", "1e999"]),
    ({"model": dict(_BAND, params={"forcing": "x"})},
     ["model.params.forcing"]),
    # a parameter is typed by its default: a switch takes true or false
    # only, and no other parameter takes either
    ({"model": dict(_BAND, params={"forcing": True})},
     ["model.params.forcing", "finite number"]),
    ({"model": dict(_BAND, params={"lift": False})},
     ["model.params.lift", "finite number"]),
    ({"model": dict(_BAND, params={"oscillating": 2.5})},
     ["model.params.oscillating", "true or false"]),
    ({"model": dict(_BAND, params={"oscillating": 1})},
     ["model.params.oscillating", "true or false"]),
    ({"model": dict(_BAND, family="linear_resonant")}, ["model.N", "odd"]),
    ({"model": _BAND, "radial": {"nu": "one"}}, ["radial.nu"]),
    ({"model": _BAND, "radial": {"k_max": 0}}, ["radial.k_max"]),
    # every search starts at k = 1: the retired key is unknown
    ({"model": _BAND, "radial": {"k_min": 3, "k_max": 2}},
     ["unknown keys in radial", "k_min"]),
    ({"model": _BAND, "mu": 0.5}, ["unknown keys", "mu"]),
    ({"model": _BAND, "seed": 1}, ["unknown keys", "seed"]),
    ({"model": _BAND, "radial": 2}, ["radial", "object"]),
    ({"model": _BAND, "tolerances": {"tol": -1}}, _NO_TOLERANCES),
    ({"model": _BAND, "tolerances": {"tol": 0}}, _NO_TOLERANCES),
    ({"model": _BAND, "tolerances": {"tol": math.nan}}, _NO_TOLERANCES),
    ({"model": _BAND, "tolerances": {"tol": math.inf}}, _NO_TOLERANCES),
    ({"model": dict(_BAND, T=math.nan)}, ["model.T", "finite"]),
    ({"model": dict(_BAND, T=math.inf)}, ["model.T", "finite"]),
    ({"model": dict(_BAND, T=True)}, ["model.T"]),
    ({"model": dict(_BAND, N=True)}, ["model.N", "positive integer"]),
    ({"model": _BAND, "grids": {"t_points": 96}}, ["unknown keys", "t_points"]),
    ({"model": _BAND, "grids": {"x_points": 4096}},
     ["unknown keys", "x_points"]),
    # the continuation's first step is fixed; the retired key is unknown
    ({"model": _BAND, "grids": {"lambda_points": 1}},
     ["unknown keys in grids", "lambda_points"]),
    # the integrator and shooting keys retired before the section
    ({"model": _BAND, "tolerances": {"rtol": 1e-9}}, _NO_TOLERANCES),
    ({"model": _BAND, "tolerances": {"atol": 1e-9}}, _NO_TOLERANCES),
    ({"model": _BAND, "tolerances": {"event_tol": 1e-10}}, _NO_TOLERANCES),
    ({"model": _BAND, "tolerances": {"max_step": 0.05}}, _NO_TOLERANCES),
    ({"model": _BAND, "tolerances": {"newton_tol": 1e-9}}, _NO_TOLERANCES),
    ({"model": 3}, ["model", "object"]),
    ({"model": None}, ["model", "object"]),
    ({"model": "abc"}, ["model", "object"]),
    ({"model": dict(_BAND, params=0)}, ["model.params", "object"]),
    ({"model": dict(_BAND, params=[])}, ["model.params", "object"]),
    ({"model": dict(_BAND, params="")}, ["model.params", "object"]),
    ({"model": {"f": "x^3", "T": 2 * math.pi, "N": 2,
                "params": {"forcing": 0.5}}},
     ["model.params", "model.family"]),
    # a lone piece next to f or a family would be ignored by the build
    ({"model": {"f": "2*x - cos(t)", "f_left": "x^3", "T": 2 * math.pi,
                "N": 2}}, ["model.f_left"]),
    ({"model": dict(_BAND, f_right="x")}, ["model.f_right"]),
    ({"model": dict(_BAND, family=["cubic_band"])}, ["model.family"]),
    ({"model": _BAND, "theorem": []}, ["theorem"]),
    ({"model": _BAND, "out_dir": 5}, ["out_dir"]),
], ids=["family-param", "family", "family-param-name", "grid-type",
        "tolerance", "unknown-identifier", "parse-error",
        "literal-overflow-f", "literal-overflow-f_left",
        "literal-overflow-f_right",
        "family-param-type", "family-param-bool", "family-param-bool-lift",
        "family-switch-float", "family-switch-int",
        "linear-resonant-even-N", "radial-nu-type",
        "radial-k-range", "radial-k-order", "mu-unknown", "seed-unknown",
        "section-type", "tolerance-negative", "tolerance-zero",
        "tolerance-nan", "tolerance-inf", "period-nan", "period-inf",
        "period-bool", "band-index-bool", "grid-t-points", "grid-x-points",
        "grid-one-lambda", "retired-rtol", "retired-atol",
        "retired-event_tol", "retired-max_step", "retired-newton_tol",
        "model-number",
        "model-null", "model-string",
        "params-number", "params-list", "params-string",
        "params-without-family", "lone-f_left-with-f",
        "lone-f_right-with-family", "family-list", "theorem-list",
        "out-dir-number"])
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


def test_tau_points_are_capped_before_any_stage_runs(tmp_path, capsys):
    # ll_verdict tabulates lcm(128, tau_points) kernel offsets per side, so
    # an odd tau_points costs 128 times its value
    for tau in (4096, 4093):
        cli.validate_config({"model": _BAND, "grids": {"tau_points": tau}})
    path = tmp_path / "big_tau.json"
    path.write_text(json.dumps({"model": _BAND,
                                "grids": {"tau_points": 4097}}))
    out = tmp_path / "out"
    code = cli.main(["verify", "--config", str(path), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "at most 4096" in err
    assert not out.exists()


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


def test_domain_error_names_the_first_offending_point(tmp_path, capsys):
    # the right piece's log is undefined on [0, 0.5]: the band scan from
    # x = 0.01 meets it first, at the first time of the grid
    path = tmp_path / "undefined.json"
    path.write_text(json.dumps({"model": {
        "f_left": "x^3", "f_right": "1.6*x + log(x - 0.5)",
        "T": 2 * math.pi, "N": 2}, "grids": {"tau_points": 32}}))
    code = cli.main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: model: log of a non-positive value in subexpression "
        "'log(x - 0.5)' at t=0, x=0.01\n")


def test_tol_override_parsing(tmp_path, capsys):
    # tolerances come from the config alone: the parser rejects the retired
    # --tol-override flag with exit 2 before any stage runs
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": _BAND}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", str(path), "--out",
                  str(tmp_path / "out"), "--tol-override", "rtol=1e-9"])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "--tol-override" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_winding_samples_at_the_boundary_tolerance_and_checks_at_TOL(
        tmp_path, monkeypatch):
    # the winding reads only angles, so its samples integrate at the
    # on-curve tolerance; its check map runs at the program's TOL
    tols, in_winding = [], []
    boundary_degree, poincare = sv.boundary_degree, sv.poincare

    def traced_degree(*args, **kwargs):
        in_winding.append(True)
        try:
            return boundary_degree(*args, **kwargs)
        finally:
            in_winding.clear()

    def traced_map(fld, z, tol, rider=None):
        if in_winding:
            tols.append(tol)
        return poincare(fld, z, tol, rider)

    monkeypatch.setattr(sv, "boundary_degree", traced_degree)
    monkeypatch.setattr(sv, "poincare", traced_map)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, grids={"tau_points": 32})
    assert cli.main(["find", "--config", cfg, "--out", str(out)]) == 0
    report = dict(line.split(" = ", 1)
                  for line in (out / "report.txt").read_text().splitlines())
    samples = int(report["certificate.winding_samples"])
    assert tols == [sv._BOUNDARY_TOL] * samples + [sv.TOL]
    assert "certificate.winding_tol" not in report
    assert report["certificate.degree"] == "1"


def test_midband_switch_builds_the_midline_model():
    # oscillating = false is a switch, not a number: it picks the midband
    # right side
    cfg = cli.validate_config({"model": dict(_BAND, params={
        "oscillating": False})})
    model = cli.build_model(cfg)
    assert model.f(0.0, 7.0) == rm.make_cubic_band(oscillating=False).f(
        0.0, 7.0)
    assert model.f(0.0, 7.0) != rm.make_cubic_band().f(0.0, 7.0)


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


@pytest.mark.parametrize("flag, value", [
    ("--T", "-1"), ("--T", "0"), ("--T", "inf"), ("--T", "nan"),
    ("--jmax", "0"), ("--points", "-3")])
def test_spectrum_rejects_bad_arguments(tmp_path, capsys, flag, value):
    args = {"--T": "6.283185307179586", "--jmax": "3", "--points": "50"}
    args[flag] = value
    out = tmp_path / "out"
    code = cli.main(["spectrum", *(a for kv in args.items() for a in kv),
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--config", "missing.json"),
                                         ("--theorem", "radial")])
def test_spectrum_takes_no_run_flags(tmp_path, capsys, flag, value):
    # spectrum reads no config and runs no pipeline: a run command's flag
    # is an argparse error, not silently ignored
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--T", "6.28", flag, value, "--out", str(out)])
    assert exc.value.code == cli.EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("theorem", ["main", "radial"])
def test_radial_takes_no_theorem_flag(tmp_path, capsys, theorem):
    # radial runs the radial theorem: another variant is an argparse
    # error, not silently replaced
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["radial", "--config", _write_config(tmp_path),
                  "--theorem", theorem, "--out", str(out)])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "--theorem" in capsys.readouterr().err
    assert not out.exists()


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


def test_apriori_report_names_what_fixed_R0(tmp_path):
    # the kit integrates nothing, so it names no tolerance of its own; it
    # names the constraint that fixed R0 and where the polar constants are
    # attained
    with open(_write_config(tmp_path)) as fh:
        cfg = cli.validate_config(json.load(fh))
    res = cli.run(cfg, cli.build_model(cfg), str(tmp_path / "out"),
                  last="apriori")
    lines = dict(res.report.lines)
    assert not any(k.startswith("apriori.") and "tol" in k for k in lines)
    diag = res.kit.diagnostics
    assert lines["apriori.binding"] == diag["binding"] == (
        "energy level inequality")
    for key in ("omega0_x", "ell0_x"):
        assert lines[f"apriori.{key}"] == cli.fmt_float(diag[key])
    assert res.kit.d < diag["omega0_x"] and diag["ell0_x"] > 0.0


def test_apriori_stops_at_the_hypothesis_gate(tmp_path):
    cfg_path = tmp_path / "lin.json"
    cfg_path.write_text(json.dumps({
        "model": {"family": "linear_resonant", "T": 2 * math.pi, "N": 3}}))
    out = tmp_path / "out"
    code = cli.main(["apriori", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_HYPOTHESIS
    assert not (out / "envelopes.csv").exists()
    assert "stage.apriori" not in (out / "report.txt").read_text()


def test_apriori_lap_table_integrates_at_TOL(tmp_path, monkeypatch):
    # the lap table is the a-priori stage's one integration: it runs at the
    # program's TOL, not at integrate's default
    tols, integrate = [], cli.ap.integrate

    def traced(fld, z0, t_end, *args, **kwargs):
        tols.append(args[0] if args else kwargs.get("tol"))
        return integrate(fld, z0, t_end, *args, **kwargs)

    monkeypatch.setattr(cli.ap, "integrate", traced)
    out = tmp_path / "out"
    assert cli.main(["apriori", "--config", _write_config(tmp_path),
                     "--out", str(out)]) == 0
    assert tols == [sv.TOL] * 8
    rows = (out / "laps.csv").read_text().splitlines()[1:]
    assert len(rows) == 8 and all(r.endswith(",1") for r in rows)


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


def test_lost_path_artifacts_integrate_the_last_point_at_TOL(
        tmp_path, monkeypatch, capsys):
    # a lost certificate carries no orbit: solution.csv is the target
    # field's period from the last path point, integrated at TOL
    z_star = PhaseState(0.0, -1.2, 0.3)
    lost = sv.PeriodicCertificate(
        status="lost", z_star=z_star, residual=0.25, rotation=None,
        degree=None, radius_used=None,
        path=[sv.PathPoint(0.0, -1.12, 0.0, 1e-6, 1.5, -1.12)],
        diagnostics=dict(lost_at=0.5, error="patched",
                         initial_guess=(0.0, 4.0), halvings=3))
    monkeypatch.setattr(cli.sv, "homotopy_solve",
                        lambda model, radius=None: lost)
    out = tmp_path / "out"
    code = cli.main(["find", "--config", _write_config(tmp_path),
                     "--out", str(out)])
    assert code == cli.EXIT_SOLVER
    assert "continuation lost at 0.5" in capsys.readouterr().err
    model = rm.make_cubic_band()
    fresh = integrate(HomotopyField(model, 1.0), z_star, model.period, sv.TOL)
    rows = [tuple(map(float, line.split(","))) for line in
            (out / "solution.csv").read_text().splitlines()[1:]]
    assert rows == list(zip(fresh.t.tolist(), fresh.x.tolist(),
                            fresh.y.tolist(), fresh.rho.tolist(),
                            fresh.theta.tolist()))
    report = dict(line.split(" = ", 1)
                  for line in (out / "report.txt").read_text().splitlines())
    assert {k for k in report if k.startswith("certificate.")} == {
        f"certificate.{k}" for k in ("status", "x0", "y0", "residual",
                                     "initial_guess", "halvings")}
    assert report["certificate.status"] == "lost"


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
        "grids": {"tau_points": 32},
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
        "grids": {"tau_points": 32},
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
    ({"param": "tolerances.tol", "values": [1e-11, -1]},
     ["sweep.values[0]", *_NO_TOLERANCES]),
    ({"param": "model.N", "values": [2, 2.5]},
     ["sweep.values[1]", "model.N", "positive integer"]),
    ({"param": "grids.tau_points", "values": [256, 4097]},
     ["sweep.values[1]", "grids.tau_points", "at most 4096"]),
], ids=["values-scalar", "values-empty", "values-nan", "param-type",
        "cell-tolerance", "cell-band-index", "cell-tau-cap"])
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
