"""Command-line interface: config ingestion, pipeline dispatch, reporting.

Subcommands: spectrum, verify, apriori, find, radial, sweep.  Runs are
driven by a JSON config; every tolerance and grid size is echoed into the
report so a run is reproducible from its artifacts alone.  Exit codes:
0 success, 2 config error, 3 hypothesis gate failed, 4 sign-condition gate
failed, 5 a-priori construction failed, 6 solver failed, 7 radial search
failed.
"""

from __future__ import annotations

import argparse
import copy
import inspect
import json
import math
import os
import sys
import time

import numpy as np

from . import apriori as ap
from . import conditions as cd
from . import expr as ex
from . import model as rm
from . import radial as rd
from . import solver as sv
from . import spectrum as sp
from .integrate import HomotopyField, IntegrateOpts, PhaseState, integrate
from .util import fmt_float, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_SIGN_CONDITION = 4
EXIT_APRIORI = 5
EXIT_SOLVER = 6
EXIT_RADIAL = 7

THEOREMS = ("main", "main2", "singular-weak", "singular-strong", "radial")


class ConfigError(ValueError):
    pass


class StageFailure(RuntimeError):
    def __init__(self, stage: str, code: int, reason: str):
        self.stage = stage
        self.code = code
        self.reason = reason
        super().__init__(f"stage {stage} failed: {reason}")


_MODEL_KEYS = {"f", "f_left", "f_right", "family", "params", "T", "N", "domain"}
_TOP_KEYS = {"model", "theorem", "tolerances", "grids", "radial", "sweep",
             "out_dir", "seed", "mu"}
_TOL_KEYS = {"rtol", "atol", "event_tol", "newton_tol", "max_step"}
_GRID_KEYS = {"tau_points", "t_points", "lambda_points", "x_points"}
_RADIAL_KEYS = {"nu", "k_max", "k_min"}
_SWEEP_KEYS = {"param", "values"}

# what a pipeline stage can legitimately raise: the package's errors
# (TableRangeError, NewtonError, BlowUpError, DomainExitError, expr's
# DomainError) all subclass one of these; anything else is a bug and
# propagates instead of becoming a stage exit code
_STAGE_ERRORS = (ValueError, RuntimeError, ArithmeticError)


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _check_family(family, params):
    if family not in rm.FAMILIES:
        raise ConfigError(f"model.family must be one of {sorted(rm.FAMILIES)}, "
                          f"got {family!r}")
    if not isinstance(params, dict):
        raise ConfigError("model.params must be an object")
    # period and n_mode come from model.T and model.N
    known = set(inspect.signature(rm.FAMILIES[family]).parameters)
    _reject_unknown(params, known - {"period", "n_mode"},
                    f"model.params of family {family!r}")
    for key, val in params.items():
        # the family substitutes its parameters into an expression template
        if key != "name" and not (isinstance(val, (int, float))
                                  and math.isfinite(val)):
            raise ConfigError(f"model.params.{key} must be a finite number, "
                              f"got {val!r}")


def validate_config(cfg: dict) -> dict:
    """Schema check; returns the config with defaults filled in."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(cfg, _TOP_KEYS, "config root")
    if "model" not in cfg:
        raise ConfigError("config requires a 'model' section")
    mc = cfg["model"]
    _reject_unknown(mc, _MODEL_KEYS, "model")
    if "T" not in mc:
        raise ConfigError("model.T (the period) is required")
    if not isinstance(mc["T"], (int, float)) or mc["T"] <= 0:
        raise ConfigError("model.T must be a positive number")
    if "N" not in mc:
        raise ConfigError("model.N (the band index) is required")
    if not isinstance(mc["N"], int) or mc["N"] < 1:
        raise ConfigError("model.N must be a positive integer")
    domain = mc.get("domain", rm.FULL_LINE)
    if domain not in (rm.FULL_LINE, rm.SINGULAR):
        raise ConfigError("model.domain must be 'full_line' or 'singular'")
    has_expr = "f" in mc
    has_piece = "f_left" in mc and "f_right" in mc
    has_family = "family" in mc
    if sum([has_expr, has_piece, has_family]) != 1:
        raise ConfigError("model needs exactly one of: f, (f_left, f_right), family")
    if has_family:
        _check_family(mc["family"], mc.get("params") or {})
    theorem = cfg.get("theorem", "main")
    if theorem not in THEOREMS:
        raise ConfigError(f"theorem must be one of {THEOREMS}")
    for section, keys in (("tolerances", _TOL_KEYS), ("grids", _GRID_KEYS),
                          ("radial", _RADIAL_KEYS), ("sweep", _SWEEP_KEYS)):
        if section in cfg:
            _reject_unknown(cfg[section], keys, section)
    # JSON true/false arrive as bool, a subclass of int
    for key, val in cfg.get("grids", {}).items():
        if isinstance(val, bool) or not isinstance(val, int) or val < 1:
            raise ConfigError(f"grids.{key} must be a positive integer, "
                              f"got {val!r}")
    for key, val in cfg.get("tolerances", {}).items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"tolerances.{key} must be a number, got {val!r}")
    out = copy.deepcopy(cfg)
    out.setdefault("theorem", theorem)
    out.setdefault("tolerances", {})
    out.setdefault("grids", {})
    return out


def build_model(cfg: dict) -> rm.NonlinearityModel:
    mc = cfg["model"]
    period = float(mc["T"])
    n_mode = int(mc["N"])
    domain = mc.get("domain", rm.FULL_LINE)
    if "family" in mc:
        try:
            return rm.from_family(mc["family"], period, n_mode, mc.get("params"))
        except ValueError as e:
            # parameters are numbers by now; what is left is a bad N
            raise ConfigError(f"model.N: {e}") from e
    for key in ("f", "f_left", "f_right"):
        if key not in mc:
            continue
        if not isinstance(mc[key], str):
            raise ConfigError(f"model.{key} must be an expression string")
        try:
            ex.parse(mc[key])
        except (ex.ParseError, ex.UnknownIdentifierError) as e:
            raise ConfigError(f"model.{key}: {e}") from e
    if "f" in mc:
        return rm.from_expression(mc["f"], period, domain, n_mode)
    return rm.from_piecewise(mc["f_left"], mc["f_right"], period, domain, n_mode)


def build_opts(cfg: dict) -> sv.SolveOpts:
    tol = cfg.get("tolerances", {})
    grids = cfg.get("grids", {})
    io = IntegrateOpts(
        rtol=float(tol.get("rtol", 1e-11)),
        atol=float(tol.get("atol", 1e-11)),
        event_tol=float(tol.get("event_tol", 1e-10)),
        max_step=tol.get("max_step"),
    )
    return sv.SolveOpts(
        newton_tol=float(tol.get("newton_tol", 1e-9)),
        lambda_points=int(grids.get("lambda_points", 33)),
        integrate=io,
    )


def apply_tol_overrides(cfg: dict, overrides: list[str]) -> dict:
    cfg = copy.deepcopy(cfg)
    for ov in overrides or []:
        if "=" not in ov:
            raise ConfigError(f"--tol-override expects K=V, got {ov!r}")
        key, val = ov.split("=", 1)
        key = key.strip()
        if key not in _TOL_KEYS:
            raise ConfigError(f"unknown tolerance {key!r}; known: {sorted(_TOL_KEYS)}")
        cfg.setdefault("tolerances", {})[key] = float(val)
    return cfg


class Report:
    """Ordered key-value report with per-stage wall clock."""

    def __init__(self):
        self.lines: list[tuple[str, str]] = []
        self._t0 = None
        self._stage = None

    def put(self, key: str, value):
        if isinstance(value, float):
            value = fmt_float(value)
        self.lines.append((key, str(value)))

    def start(self, stage: str):
        self._stage = stage
        self._t0 = time.perf_counter()

    def stop(self, verdict: str):
        dt = time.perf_counter() - self._t0
        self.put(f"stage.{self._stage}.verdict", verdict)
        self.put(f"stage.{self._stage}.seconds", dt)

    def write(self, path: str):
        with open(path, "w") as fh:
            for k, v in self.lines:
                fh.write(f"{k} = {v}\n")


def _echo_config(report: Report, cfg: dict):
    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in obj:
                walk(f"{prefix}.{k}" if prefix else k, obj[k])
        elif isinstance(obj, list):
            report.put(f"config.{prefix}", json.dumps(obj))
        else:
            report.put(f"config.{prefix}",
                       fmt_float(obj) if isinstance(obj, float) else obj)
    walk("", cfg)


# ---------------------------------------------------------------------------
# pipeline


def run(cfg: dict, out_dir: str) -> Report:
    """Gated pipeline for the configured theorem variant.

    Stops at the first failed gate with a StageFailure carrying the exit
    code; artifacts produced so far stay on disk.
    """
    cfg = validate_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    report = Report()
    _echo_config(report, cfg)
    model = build_model(cfg)
    opts = build_opts(cfg)
    theorem = cfg["theorem"]
    grids = cfg.get("grids", {})
    tau_points = int(grids.get("tau_points", 256))
    singular = theorem in ("singular-weak", "singular-strong", "radial")

    report.start("hypotheses")
    if singular:
        rep = cd.validate_A0_Ainf(model)
    else:
        rep = cd.validate_A(model)
    if theorem == "main2":
        hrep = cd.check_H(model, "x_to_minus_inf")
        rep["passed"] = rep["passed"] and hrep["passed"]
        report.put("hypotheses.window_ratio_worst", hrep["worst_final"])
    if theorem == "singular-strong":
        hrep = cd.check_H(model, "x_to_zero_plus")
        rep["passed"] = rep["passed"] and hrep["passed"]
        report.put("hypotheses.window_ratio_worst", hrep["worst_final"])
    report.put("hypotheses.band_constant", rep.get("band_constant", math.nan))
    report.stop("pass" if rep["passed"] else "fail")
    if not rep["passed"]:
        report.write(os.path.join(out_dir, "report.txt"))
        raise StageFailure("hypotheses", EXIT_HYPOTHESIS,
                           "asymptotic hypotheses not satisfied")

    report.start("sign_conditions")
    variant = cd.ABS_SINE if theorem in ("main2", "singular-strong") else cd.TRUNCATED_SINE
    lo, hi = cd.ll_verdict(model, variant=variant, tau_points=tau_points)
    write_csv(os.path.join(out_dir, "ll_lower.csv"), ["tau", "integral"],
              list(zip(map(float, lo.tau_grid), map(float, lo.integrals))))
    write_csv(os.path.join(out_dir, "ll_upper.csv"), ["tau", "integral"],
              list(zip(map(float, hi.tau_grid), map(float, hi.integrals))))
    report.put("sign.lower.verdict", lo.verdict)
    report.put("sign.lower.margin", lo.margin)
    report.put("sign.upper.verdict", hi.verdict)
    report.put("sign.upper.margin", hi.margin)
    report.stop("pass" if lo.passed and hi.passed else "fail")
    if not (lo.passed and hi.passed):
        report.write(os.path.join(out_dir, "report.txt"))
        raise StageFailure("sign_conditions", EXIT_SIGN_CONDITION,
                           f"lower={lo.verdict} upper={hi.verdict}")

    if theorem == "radial":
        _radial_stage(cfg, model, opts, out_dir, report)
        report.write(os.path.join(out_dir, "report.txt"))
        return report

    kit = None
    if not singular:
        report.start("apriori")
        try:
            fld = HomotopyField(model, 1.0, mu=cfg.get("mu"))
            kit = ap.build_kit(fld, opts=IntegrateOpts())
            _write_kit(kit, out_dir)
            report.put("apriori.R0", kit.R0)
            report.put("apriori.kappa", kit.kappa)
            report.put("apriori.a", kit.a)
            report.put("apriori.y_hat", kit.y_hat)
            report.put("apriori.R_elastic", kit.R_elastic)
            report.stop("pass")
        except _STAGE_ERRORS as e:
            report.stop("fail")
            report.write(os.path.join(out_dir, "report.txt"))
            raise StageFailure("apriori", EXIT_APRIORI, str(e))
    else:
        report.start("apriori")
        try:
            n0, diag = ap.probe_N0(HomotopyField(model, 1.0), opts=opts.integrate)
            report.put("apriori.N0", n0)
            report.put("apriori.start_level", diag["start_level"])
            report.stop("pass")
        except _STAGE_ERRORS as e:
            report.stop("fail")
            report.write(os.path.join(out_dir, "report.txt"))
            raise StageFailure("apriori", EXIT_APRIORI, str(e))

    report.start("solve")
    try:
        cert = sv.homotopy_solve(model, opts=opts, kit=kit,
                                 mu=cfg.get("mu"))
    except _STAGE_ERRORS as e:
        report.stop("fail")
        report.write(os.path.join(out_dir, "report.txt"))
        raise StageFailure("solve", EXIT_SOLVER, str(e))
    _write_certificate(cert, model, opts, out_dir, report, cfg.get("mu"))
    report.stop("pass" if cert.converged else "fail")
    report.write(os.path.join(out_dir, "report.txt"))
    if not cert.converged:
        raise StageFailure("solve", EXIT_SOLVER,
                           f"continuation lost at {cert.diagnostics.get('lost_at')}")
    return report


def _write_kit(kit: ap.AprioriKit, out_dir: str):
    env = kit.env
    write_csv(os.path.join(out_dir, "envelopes.csv"),
              ["x", "f1", "f2", "F1", "F2"],
              list(zip(map(float, env.x), map(float, env.f1),
                       map(float, env.f2), map(float, env.F1),
                       map(float, env.F2))))
    vs = np.geomspace(max(kit.y_hat / 4.0, 1.0), kit.R_elastic, 64)
    rows = []
    for v in vs:
        try:
            rows.append((float(v), ap.map_T(kit, float(v)),
                         ap.map_L(kit, float(v)), ap.map_M(kit, float(v))))
        except ap.TableRangeError:
            break
    write_csv(os.path.join(out_dir, "maps.csv"),
              ["v", "T_of_v", "L_of_v", "M_of_v"], rows)


def _write_certificate(cert, model, opts, out_dir, report, mu=None):
    report.put("certificate.status", cert.status)
    if cert.z_star is not None:
        report.put("certificate.x0", cert.z_star.x)
        report.put("certificate.y0", cert.z_star.y)
    report.put("certificate.residual", cert.residual)
    if cert.rotation is not None:
        report.put("certificate.rotation", cert.rotation)
    if cert.degree is not None:
        report.put("certificate.degree", cert.degree)
    if cert.radius_used is not None:
        report.put("certificate.radius", cert.radius_used)
    for key in ("min_x", "min_rho", "sup_norm", "path_min_x",
                "comparison_degree", "halvings", "winding_search"):
        if cert.diagnostics.get(key) is not None:
            report.put(f"certificate.{key}", cert.diagnostics[key])
    write_csv(os.path.join(out_dir, "path.csv"),
              ["lambda", "x", "y", "residual", "sup_norm", "min_x"],
              [(p.lam, p.x, p.y, p.residual, p.sup_norm, p.min_x)
               for p in cert.path])
    if cert.z_star is not None:
        traj = cert.orbit
        if traj is None:    # lost: the target field from the last path point
            traj = integrate(HomotopyField(model, 1.0, mu=mu),
                             PhaseState(0.0, cert.z_star.x, cert.z_star.y),
                             model.period, opts.integrate)
        write_csv(os.path.join(out_dir, "solution.csv"),
                  ["t", "x", "y", "rho", "theta"],
                  list(zip(map(float, traj.t), map(float, traj.x),
                           map(float, traj.y), map(float, traj.rho),
                           map(float, traj.theta))))
        write_csv(os.path.join(out_dir, "events.csv"), ["kind", "t", "x", "y"],
                  [(e.kind, e.t, e.x, e.y) for e in traj.events])


def _radial_stage(cfg, model, opts, out_dir, report):
    rc = cfg.get("radial", {})
    nu = int(rc.get("nu", 1))
    k_max = int(rc.get("k_max", 4))
    k_min = int(rc.get("k_min", 1))
    report.start("radial")
    sols, k_nu = rd.find_rotating(model, nu, k_max, opts, k_min=k_min)
    report.put("radial.k_nu", k_nu if k_nu is not None else "none")
    rows = []
    for s in sols:
        rows.append((s.k, s.nu, s.L, s.residual, s.delta_theta_total))
        pts = rd.cartesian_samples(model, s, opts=opts.integrate)
        write_csv(os.path.join(out_dir, f"orbit_k{s.k}.csv"),
                  ["t", "x1", "x2"], pts)
    write_csv(os.path.join(out_dir, "radial.csv"),
              ["k", "nu", "L", "residual", "delta_theta"], rows)
    report.stop("pass" if sols else "fail")
    if not sols:
        report.write(os.path.join(out_dir, "report.txt"))
        raise StageFailure("radial", EXIT_RADIAL, "no rotating solutions found")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args) -> int:
    rows = []
    for j in range(1, args.jmax + 1):
        for mu, nu in sp.sample_curve(j, args.T, n=args.points):
            rows.append((j, mu, nu))
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "spectrum.csv"), ["j", "mu", "nu"], rows)
    print(f"wrote {os.path.join(args.out, 'spectrum.csv')} "
          f"({args.jmax} curves, T={args.T})")
    return EXIT_OK


def _load_config(args) -> dict:
    if not args.config:
        raise ConfigError("--config PATH is required for this command")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    cfg = apply_tol_overrides(cfg, args.tol_override)
    if args.theorem:
        cfg["theorem"] = args.theorem
    return validate_config(cfg)


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    model = build_model(cfg)
    out = args.out or cfg.get("out_dir", "out")
    os.makedirs(out, exist_ok=True)
    report = Report()
    _echo_config(report, cfg)
    theorem = cfg["theorem"]
    singular = theorem in ("singular-weak", "singular-strong", "radial")
    rep = cd.validate_A0_Ainf(model) if singular else cd.validate_A(model)
    report.put("hypotheses.passed", rep["passed"])
    report.put("hypotheses.band_constant", rep.get("band_constant", math.nan))
    variant = cd.ABS_SINE if theorem in ("main2", "singular-strong") else cd.TRUNCATED_SINE
    tau_points = int(cfg.get("grids", {}).get("tau_points", 256))
    lo, hi = cd.ll_verdict(model, variant=variant, tau_points=tau_points)
    write_csv(os.path.join(out, "ll_lower.csv"), ["tau", "integral"],
              list(zip(map(float, lo.tau_grid), map(float, lo.integrals))))
    write_csv(os.path.join(out, "ll_upper.csv"), ["tau", "integral"],
              list(zip(map(float, hi.tau_grid), map(float, hi.integrals))))
    report.put("sign.lower.verdict", lo.verdict)
    report.put("sign.lower.margin", lo.margin)
    report.put("sign.upper.verdict", hi.verdict)
    report.put("sign.upper.margin", hi.margin)
    if theorem in ("main2", "singular-strong"):
        direction = "x_to_zero_plus" if singular else "x_to_minus_inf"
        hrep = cd.check_H(model, direction)
        report.put("window_ratio.passed", hrep["passed"])
        report.put("window_ratio.worst", hrep["worst_final"])
    report.write(os.path.join(out, "report.txt"))
    ok = rep["passed"] and lo.passed and hi.passed
    print(f"verify: hypotheses={'pass' if rep['passed'] else 'fail'} "
          f"lower={lo.verdict} upper={hi.verdict} -> {out}/report.txt")
    return EXIT_OK if ok else (EXIT_HYPOTHESIS if not rep["passed"]
                               else EXIT_SIGN_CONDITION)


def _cmd_apriori(args) -> int:
    cfg = _load_config(args)
    model = build_model(cfg)
    out = args.out or cfg.get("out_dir", "out")
    os.makedirs(out, exist_ok=True)
    report = Report()
    _echo_config(report, cfg)
    fld = HomotopyField(model, 1.0, mu=cfg.get("mu"))
    try:
        if model.domain == rm.SINGULAR:
            n0, diag = ap.probe_N0(fld)
            report.put("apriori.N0", n0)
            report.put("apriori.start_level", diag["start_level"])
        else:
            kit = ap.build_kit(fld)
            _write_kit(kit, out)
            for key, val in (("R0", kit.R0), ("kappa", kit.kappa),
                             ("omega0", kit.omega0), ("ell0", kit.ell0),
                             ("a", kit.a), ("y_hat", kit.y_hat),
                             ("R_elastic", kit.R_elastic)):
                report.put(f"apriori.{key}", val)
            rows = []
            for amp in np.geomspace(max(4.0 * kit.R0, 100.0), 1e3, 8):
                lap = ap.lap_report(fld, kit, float(amp))
                li = lap["lap"]
                rows.append((float(amp), li.t1, li.t2, li.t3, li.t4, li.t5,
                             li.t6, li.t7, li.t8, lap["y2"], lap["x3"],
                             lap["y5"], lap["x6"], lap["y7"], lap["y8"],
                             int(lap["all_ok"])))
            write_csv(os.path.join(out, "laps.csv"),
                      ["amplitude", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
                       "t8", "y2", "x3", "y5", "x6", "y7", "y8", "bounds_ok"],
                      rows)
    except _STAGE_ERRORS as e:
        report.put("apriori.error", str(e))
        report.write(os.path.join(out, "report.txt"))
        print(f"apriori failed: {e}", file=sys.stderr)
        return EXIT_APRIORI
    report.write(os.path.join(out, "report.txt"))
    for k, v in report.lines:
        if k.startswith("apriori."):
            print(f"{k} = {v}")
    print(f"apriori artifacts -> {out}")
    return EXIT_OK


def _cmd_find(args) -> int:
    cfg = _load_config(args)
    out = args.out or cfg.get("out_dir", "out")
    try:
        run(cfg, out)
    except StageFailure as e:
        print(f"find: {e}", file=sys.stderr)
        return e.code
    print(f"find artifacts -> {out}")
    return EXIT_OK


def _cmd_radial(args) -> int:
    cfg = _load_config(args)
    cfg["theorem"] = "radial"
    out = args.out or cfg.get("out_dir", "out")
    try:
        run(cfg, out)
    except StageFailure as e:
        print(f"radial: {e}", file=sys.stderr)
        return e.code
    print(f"radial artifacts -> {out}")
    return EXIT_OK


def _set_by_path(cfg: dict, dotted: str, value):
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            node[p] = {}
        node = node[p]
    node[parts[-1]] = value


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    swc = cfg.get("sweep")
    if not swc or "param" not in swc or "values" not in swc:
        raise ConfigError("sweep requires config section {'sweep': {'param', 'values'}}")
    out = args.out or cfg.get("out_dir", "out")
    os.makedirs(out, exist_ok=True)

    rows = []
    for i, val in enumerate(swc["values"]):
        sub = copy.deepcopy(cfg)
        sub.pop("sweep")
        _set_by_path(sub, swc["param"], val)
        try:
            report = run(sub, os.path.join(out, f"cell_{i:03d}"))
        except StageFailure as e:
            rows.append((float(val), f"fail:{e.stage}", math.nan))
            continue
        residual = dict(report.lines).get("certificate.residual", "nan")
        rows.append((float(val), "pass", float(residual)))
    write_csv(os.path.join(out, "atlas.csv"),
              [swc["param"], "verdict", "residual"], rows)
    print(f"sweep atlas -> {os.path.join(out, 'atlas.csv')}")
    return EXIT_OK


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--theorem", choices=THEOREMS,
                        help="pipeline variant (overrides config)")
    common.add_argument("--tol-override", action="append", metavar="K=V",
                        help="override a tolerance, e.g. rtol=1e-12")

    parser = argparse.ArgumentParser(
        prog="resonance",
        description="Periodic solutions of x'' + f(t,x) = 0 near resonance: "
                    "hypothesis checks, phase-plane estimates, shooting and "
                    "degree certification, radial systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", parents=[common],
                            help="sample the resonance curves as CSV")
    p_spec.add_argument("--T", type=float, required=True)
    p_spec.add_argument("--jmax", type=int, default=4)
    p_spec.add_argument("--points", type=int, default=200)

    for name, help_text in (("verify", "hypothesis + sign-condition report"),
                            ("apriori", "envelopes, maps, radii, lap table"),
                            ("find", "full pipeline to a certified solution"),
                            ("radial", "rotating solutions of the radial system"),
                            ("sweep", "map find over a parameter grid")):
        sub.add_parser(name, parents=[common], help=help_text)

    args = parser.parse_args(argv)
    try:
        if args.command == "spectrum":
            if args.out is None:
                args.out = "out"
            return _cmd_spectrum(args)
        return {"verify": _cmd_verify, "apriori": _cmd_apriori,
                "find": _cmd_find, "radial": _cmd_radial,
                "sweep": _cmd_sweep}[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ex.DomainError as e:
        # f is undefined somewhere on the domain the config declares
        print(f"config error: model: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
