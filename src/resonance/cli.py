"""Command-line interface: config ingestion, pipeline dispatch, reporting.

Subcommands: spectrum, verify, apriori, find, radial, sweep.  Runs are
driven by a JSON config, echoed into the report so a run is reproducible
from its artifacts alone.  Each run command is `run`, the one gated
pipeline, up to its last stage.  Exit codes: 0 success, 2 config error, 3
hypothesis gate failed, 4 sign-condition gate failed, 5 a-priori
construction failed, 6 solver failed, 7 radial search failed.
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
from dataclasses import dataclass

import numpy as np

from . import apriori as ap
from . import conditions as cd
from . import expr as ex
from . import model as rm
from . import radial as rd
from . import solver as sv
from . import spectrum as sp
from .integrate import TOL, HomotopyField, PhaseState, integrate
from .util import fmt_float, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_SIGN_CONDITION = 4
EXIT_APRIORI = 5
EXIT_SOLVER = 6
EXIT_RADIAL = 7

# theorem -> (the model's domain, the sign-condition profile); the
# window-ratio check (H) runs exactly under the ABS_SINE profile
THEOREMS = {
    "main": (rm.FULL_LINE, cd.TRUNCATED_SINE),
    "main2": (rm.FULL_LINE, cd.ABS_SINE),
    "singular-weak": (rm.SINGULAR, cd.TRUNCATED_SINE),
    "singular-strong": (rm.SINGULAR, cd.ABS_SINE),
    "radial": (rm.SINGULAR, cd.TRUNCATED_SINE),
}


class ConfigError(ValueError):
    pass


class StageFailure(RuntimeError):
    def __init__(self, stage: str, code: int, reason: str):
        self.stage = stage
        self.code = code
        self.reason = reason
        super().__init__(f"{stage}=fail: {reason}")


# pipeline stages in run order; the radial theorem runs "radial" in place
# of "apriori" and "solve"
STAGES = ("hypotheses", "sign_conditions", "apriori", "solve", "radial")
_RADIAL_DEFAULTS = {"nu": 1, "k_max": 4}

_MODEL_KEYS = {"f", "f_left", "f_right", "family", "params", "T", "N", "domain"}
_TOP_KEYS = {"model", "theorem", "grids", "radial", "sweep", "out_dir"}
_GRID_KEYS = {"tau_points"}
# ll_verdict tabulates lcm(128, tau_points) kernel offsets per side, 128
# times tau_points for an odd one
_TAU_POINTS_MAX = 4096
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


# JSON true/false arrive as bool, a subclass of int
def _is_positive_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= 1


def _is_finite_number(val) -> bool:
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


def _check_family(family, params):
    if not (isinstance(family, str) and family in rm.FAMILIES):
        raise ConfigError(f"model.family must be one of {sorted(rm.FAMILIES)}, "
                          f"got {family!r}")
    if not isinstance(params, dict):
        raise ConfigError(f"model.params must be an object, got {params!r}")
    # period and n_mode come from model.T and model.N
    known = inspect.signature(rm.FAMILIES[family]).parameters
    _reject_unknown(params, set(known) - {"period", "n_mode"},
                    f"model.params of family {family!r}")
    for key, val in params.items():
        # a parameter with a bool default is a switch; the family
        # substitutes every other one into an expression template
        if isinstance(known[key].default, bool):
            if not isinstance(val, bool):
                raise ConfigError(f"model.params.{key} must be true or "
                                  f"false, got {val!r}")
        elif not _is_finite_number(val):
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
    if not isinstance(mc, dict):
        raise ConfigError(f"model must be an object, got {mc!r}")
    _reject_unknown(mc, _MODEL_KEYS, "model")
    if "T" not in mc:
        raise ConfigError("model.T (the period) is required")
    if not (_is_finite_number(mc["T"]) and mc["T"] > 0):
        raise ConfigError(f"model.T must be a finite positive number, "
                          f"got {mc['T']!r}")
    if "N" not in mc:
        raise ConfigError("model.N (the band index) is required")
    if not _is_positive_int(mc["N"]):
        raise ConfigError(f"model.N must be a positive integer, "
                          f"got {mc['N']!r}")
    if mc.get("domain", rm.FULL_LINE) not in (rm.FULL_LINE, rm.SINGULAR):
        raise ConfigError("model.domain must be 'full_line' or 'singular'")
    has_expr = "f" in mc
    has_piece = "f_left" in mc and "f_right" in mc
    has_family = "family" in mc
    lone = [k for k in ("f_left", "f_right") if k in mc and not has_piece]
    if lone and (has_expr or has_family):
        raise ConfigError(f"model.{lone[0]} is one piece of a piecewise "
                          f"model: it needs both f_left and f_right and "
                          f"no f or family")
    if sum([has_expr, has_piece, has_family]) != 1:
        raise ConfigError("model needs exactly one of: f, (f_left, f_right), family")
    if has_family:
        _check_family(mc["family"], mc.get("params", {}))
    elif "params" in mc:
        raise ConfigError("model.params needs model.family; an expression "
                          "model takes no parameters")
    theorem = cfg.get("theorem", "main")
    if not isinstance(theorem, str) or theorem not in THEOREMS:
        raise ConfigError(f"theorem must be one of {tuple(THEOREMS)}, "
                          f"got {theorem!r}")
    out_dir = cfg.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"out_dir must be a non-empty string, "
                          f"got {out_dir!r}")
    for section, keys in (("grids", _GRID_KEYS),
                          ("radial", set(_RADIAL_DEFAULTS)),
                          ("sweep", _SWEEP_KEYS)):
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise ConfigError(f"{section} must be an object")
            _reject_unknown(cfg[section], keys, section)
    for key, val in cfg.get("grids", {}).items():
        if not _is_positive_int(val):
            raise ConfigError(f"grids.{key} must be a positive integer, "
                              f"got {val!r}")
    tau_points = cfg.get("grids", {}).get("tau_points", 1)
    if tau_points > _TAU_POINTS_MAX:
        raise ConfigError(f"grids.tau_points must be at most "
                          f"{_TAU_POINTS_MAX}, got {tau_points}")
    # the pipeline reads these only after its gates, so check them first
    radial = {**_RADIAL_DEFAULTS, **cfg.get("radial", {})}
    for key, val in radial.items():
        if not _is_positive_int(val):
            raise ConfigError(f"radial.{key} must be a positive integer, "
                              f"got {val!r}")
    out = copy.deepcopy(cfg)
    out.setdefault("theorem", theorem)
    out.setdefault("grids", {})
    return out


def build_model(cfg: dict) -> rm.NonlinearityModel:
    """The configured model on its theorem's domain.

    An expression model without model.domain takes the theorem's domain; a
    family brings its own.  A model.domain or a family's domain other than
    the theorem's is a config error.
    """
    mc = cfg["model"]
    theorem = cfg.get("theorem", "main")
    domain = THEOREMS[theorem][0]
    period = float(mc["T"])
    n_mode = int(mc["N"])
    if mc.get("domain", domain) != domain:
        raise ConfigError(f"theorem {theorem!r} needs model.domain "
                          f"{domain!r}, got {mc['domain']!r}")
    if "family" in mc:
        try:
            model = rm.from_family(mc["family"], period, n_mode,
                                   mc.get("params"))
        except ValueError as e:
            # parameters are numbers by now; what is left is a bad N
            raise ConfigError(f"model.N: {e}") from e
        if model.domain != domain:
            raise ConfigError(f"theorem {theorem!r} needs model.domain "
                              f"{domain!r}, but family {mc['family']!r} is "
                              f"{model.domain!r}")
        return model
    trees = {}
    for key in ("f", "f_left", "f_right"):
        if key not in mc:
            continue
        if not isinstance(mc[key], str):
            raise ConfigError(f"model.{key} must be an expression string")
        try:
            trees[key] = ex.parse(mc[key])
        except (ex.ParseError, ex.UnknownIdentifierError) as e:
            raise ConfigError(f"model.{key}: {e}") from e
    pieces = ("f",) if "f" in mc else ("f_left", "f_right")
    return rm.from_trees(tuple(trees[k] for k in pieces), period, domain,
                         n_mode)


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

    def fail(self, code: int, reason: str):
        """Stop the stage as failed and end the run with its exit code."""
        self.stop("fail")
        raise StageFailure(self._stage, code, reason)

    def gate(self, passed: bool, code: int, reason: str):
        """Stop the stage with its verdict; a failed gate ends the run."""
        if not passed:
            self.fail(code, reason)
        self.stop("pass")

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


@dataclass
class RunResult:
    """What the stages of one run produced."""
    report: Report
    kit: ap.AprioriKit | None = None
    cert: sv.PeriodicCertificate | None = None


def run(cfg: dict, model: rm.NonlinearityModel, out_dir: str,
        last: str | None = None) -> RunResult:
    """Gated pipeline for the configured theorem variant.

    `cfg` is validate_config's output and `model` is build_model's of it.
    Runs the STAGES up to `last` (all of them when None).  Each stage is a
    gate: the first that fails raises a StageFailure carrying its exit
    code.  However the run ends, report.txt is written, and the artifacts
    produced so far stay on disk.
    """
    os.makedirs(out_dir, exist_ok=True)
    report = Report()
    _echo_config(report, cfg)
    res = RunResult(report)
    theorem = cfg["theorem"]
    singular = model.domain == rm.SINGULAR
    variant = THEOREMS[theorem][1]

    def beyond(stage):
        return last is not None and STAGES.index(stage) > STAGES.index(last)

    try:
        report.start("hypotheses")
        rep = cd.validate_A0_Ainf(model) if singular else cd.validate_A(model)
        passed = rep["passed"]
        if variant == cd.ABS_SINE:
            hrep = cd.check_H(model)
            passed = passed and hrep["passed"]
            report.put("window_ratio.passed", hrep["passed"])
            report.put("window_ratio.worst", hrep["worst_final"])
        report.put("hypotheses.band_constant",
                   rep.get("band_constant", math.nan))
        report.gate(passed, EXIT_HYPOTHESIS,
                    "asymptotic hypotheses not satisfied")

        if beyond("sign_conditions"):
            return res
        report.start("sign_conditions")
        lo, hi = cd.ll_verdict(model, variant=variant,
                               tau_points=cfg["grids"].get("tau_points", 256))
        for side, v in (("lower", lo), ("upper", hi)):
            write_csv(os.path.join(out_dir, f"ll_{side}.csv"),
                      ["tau", "integral"],
                      list(zip(map(float, v.tau_grid), map(float, v.integrals))))
            report.put(f"sign.{side}.verdict", v.verdict)
            report.put(f"sign.{side}.margin", v.margin)
        report.gate(lo.passed and hi.passed, EXIT_SIGN_CONDITION,
                    f"lower={lo.verdict} upper={hi.verdict}")

        if theorem == "radial":
            if not beyond("radial"):
                report.start("radial")
                _radial_stage(cfg, model, out_dir, report)
            return res

        if beyond("apriori"):
            return res
        report.start("apriori")
        # the certifying curve lies beyond the a-priori bound: the N-level
        # whose probe orbits passed, or the circle at the escape radius
        try:
            if singular:
                n0, diag = ap.probe_N0(model)
                radius = diag["start_level"]
                report.put("apriori.N0", n0)
                report.put("apriori.start_level", radius)
            else:
                res.kit = ap.build_kit(model)
                _write_kit(res.kit, out_dir)
                for key in ("R0", "kappa", "omega0", "ell0", "a", "y_hat",
                            "R_elastic"):
                    report.put(f"apriori.{key}", getattr(res.kit, key))
                for key in ("binding", "omega0_x", "ell0_x"):
                    report.put(f"apriori.{key}", res.kit.diagnostics[key])
                radius = res.kit.R_elastic
        except _STAGE_ERRORS as e:
            report.fail(EXIT_APRIORI, str(e))
        report.stop("pass")

        if beyond("solve"):
            return res
        report.start("solve")
        try:
            res.cert = sv.homotopy_solve(model, radius=radius)
        except _STAGE_ERRORS as e:
            report.put("solve.error", str(e))
            report.fail(EXIT_SOLVER, str(e))
        _write_certificate(res.cert, model, out_dir, report)
        report.gate(res.cert.converged, EXIT_SOLVER, "continuation lost at "
                    f"{res.cert.diagnostics.get('lost_at')}")
        return res
    finally:
        report.write(os.path.join(out_dir, "report.txt"))


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


def _write_certificate(cert, model, out_dir, report):
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
                "index", "index_note", "initial_guess", "halvings",
                "winding_samples", "boundary_margin", "boundary_map_error"):
        if cert.diagnostics.get(key) is not None:
            report.put(f"certificate.{key}", cert.diagnostics[key])
    write_csv(os.path.join(out_dir, "path.csv"),
              ["lambda", "x", "y", "residual", "sup_norm", "min_x"],
              [(p.lam, p.x, p.y, p.residual, p.sup_norm, p.min_x)
               for p in cert.path])
    if cert.z_star is not None:
        traj = cert.orbit
        if traj is None:    # lost: the target field from the last path point
            traj = integrate(HomotopyField(model, 1.0),
                             PhaseState(0.0, cert.z_star.x, cert.z_star.y),
                             model.period, TOL)
        write_csv(os.path.join(out_dir, "solution.csv"),
                  ["t", "x", "y", "rho", "theta"],
                  list(zip(map(float, traj.t), map(float, traj.x),
                           map(float, traj.y), map(float, traj.rho),
                           map(float, traj.theta))))
        write_csv(os.path.join(out_dir, "events.csv"), ["kind", "t", "x", "y"],
                  [(e.kind, e.t, e.x, e.y) for e in traj.events])


def _radial_stage(cfg, model, out_dir, report):
    rc = {**_RADIAL_DEFAULTS, **cfg.get("radial", {})}
    sols, k_nu = rd.find_rotating(model, rc["nu"], rc["k_max"])
    report.put("radial.k_nu", k_nu if k_nu is not None else "none")
    rows = []
    for s in sols:
        rows.append((s.k, s.nu, s.L, s.residual, s.delta_theta_total))
        pts = rd.cartesian_samples(s)
        write_csv(os.path.join(out_dir, f"orbit_k{s.k}.csv"),
                  ["t", "x1", "x2"], pts)
    write_csv(os.path.join(out_dir, "radial.csv"),
              ["k", "nu", "L", "residual", "delta_theta"], rows)
    report.gate(bool(sols), EXIT_RADIAL, "no rotating solutions found")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args) -> int:
    if not (math.isfinite(args.T) and args.T > 0):
        raise ConfigError(f"--T must be a finite positive number, "
                          f"got {args.T!r}")
    for flag, value in (("--jmax", args.jmax), ("--points", args.points)):
        if value < 1:
            raise ConfigError(f"{flag} must be a positive integer, got {value}")
    rows = []
    for j in range(1, args.jmax + 1):
        for mu, nu in sp.sample_curve(j, args.T, n=args.points):
            rows.append((j, mu, nu))
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "spectrum.csv"), ["j", "mu", "nu"], rows)
    print(f"wrote {os.path.join(args.out, 'spectrum.csv')} "
          f"({args.jmax} curves, T={args.T})")
    return EXIT_OK


def _load_config(args) -> tuple[dict, rm.NonlinearityModel | None, str]:
    """The validated config, its model and the output directory of a run
    command; a sweep runs only its cells' models, so its own is None."""
    if not args.config:
        raise ConfigError("--config PATH is required for this command")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if args.command == "radial":
        cfg["theorem"] = "radial"
    elif args.theorem:
        cfg["theorem"] = args.theorem
    cfg = validate_config(cfg)
    model = None if args.command == "sweep" else build_model(cfg)
    return cfg, model, args.out or cfg.get("out_dir", "out")


def _cmd_verify(args) -> int:
    cfg, model, out = _load_config(args)
    lines = dict(run(cfg, model, out, last="sign_conditions").report.lines)
    print(f"verify: hypotheses=pass lower={lines['sign.lower.verdict']} "
          f"upper={lines['sign.upper.verdict']} -> {out}/report.txt")
    return EXIT_OK


def _cmd_apriori(args) -> int:
    cfg, model, out = _load_config(args)
    res = run(cfg, model, out, last="apriori")
    if res.kit is not None:
        kit = res.kit
        rows = []
        try:
            for amp in np.geomspace(max(4.0 * kit.R0, 100.0), 1e3, 8):
                lap = ap.lap_report(model, kit, float(amp))
                li = lap["lap"]
                rows.append((float(amp), li.t1, li.t2, li.t3, li.t4, li.t5,
                             li.t6, li.t7, li.t8, lap["y2"], lap["x3"],
                             lap["y5"], lap["x6"], lap["y7"], lap["y8"],
                             int(lap["all_ok"])))
        except _STAGE_ERRORS as e:
            res.report.put("apriori.laps_error", str(e))
            res.report.write(os.path.join(out, "report.txt"))
            raise StageFailure("apriori", EXIT_APRIORI, f"lap table: {e}")
        write_csv(os.path.join(out, "laps.csv"),
                  ["amplitude", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
                   "t8", "y2", "x3", "y5", "x6", "y7", "y8", "bounds_ok"],
                  rows)
    for k, v in res.report.lines:
        if k.startswith("apriori."):
            print(f"{k} = {v}")
    print(f"apriori artifacts -> {out}")
    return EXIT_OK


def _cmd_find(args) -> int:
    """find and radial: every stage of the pipeline."""
    cfg, model, out = _load_config(args)
    run(cfg, model, out)
    print(f"{args.command} artifacts -> {out}")
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
    cfg, _, out = _load_config(args)
    swc = cfg.get("sweep", {})
    param, values = swc.get("param"), swc.get("values")
    if not (isinstance(param, str) and param):
        raise ConfigError(f"sweep.param must be a dotted config key, "
                          f"got {param!r}")
    if not (isinstance(values, list) and values
            and all(map(_is_finite_number, values))):
        raise ConfigError(f"sweep.values must be a non-empty list of finite "
                          f"numbers, got {values!r}")
    cells = []      # every cell's config is checked before the first runs
    for i, val in enumerate(values):
        sub = copy.deepcopy(cfg)
        del sub["sweep"]
        _set_by_path(sub, param, val)
        try:
            sub = validate_config(sub)
            cells.append((sub, build_model(sub)))
        except ConfigError as e:
            raise ConfigError(f"sweep.values[{i}] = {val!r}: {e}") from None
    os.makedirs(out, exist_ok=True)

    rows = []
    for i, (val, (sub, model)) in enumerate(zip(values, cells)):
        try:
            cert = run(sub, model, os.path.join(out, f"cell_{i:03d}")).cert
        except StageFailure as e:
            rows.append((float(val), f"fail:{e.stage}", math.nan))
            continue
        rows.append((float(val), "pass",
                     math.nan if cert is None else float(cert.residual)))
    write_csv(os.path.join(out, "atlas.csv"),
              [param, "verdict", "residual"], rows)
    print(f"sweep atlas -> {os.path.join(out, 'atlas.csv')}")
    return EXIT_OK


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--out", help="output directory (overrides config)")

    parser = argparse.ArgumentParser(
        prog="resonance",
        description="Periodic solutions of x'' + f(t,x) = 0 near resonance: "
                    "hypothesis checks, phase-plane estimates, shooting and "
                    "degree certification, radial systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum",
                            help="sample the resonance curves as CSV")
    p_spec.add_argument("--out", default="out", help="output directory")
    p_spec.add_argument("--T", type=float, required=True)
    p_spec.add_argument("--jmax", type=int, default=4)
    p_spec.add_argument("--points", type=int, default=200)

    for name, help_text in (("verify", "hypothesis + sign-condition report"),
                            ("apriori", "envelopes, maps, radii, lap table"),
                            ("find", "full pipeline to a certified solution"),
                            ("radial", "rotating solutions of the radial system"),
                            ("sweep", "map find over a parameter grid")):
        p_run = sub.add_parser(name, parents=[common], help=help_text)
        # radial runs its own theorem: a --theorem there is an error
        if name != "radial":
            p_run.add_argument("--theorem", choices=THEOREMS,
                               help="pipeline variant (overrides config)")

    args = parser.parse_args(argv)
    try:
        return {"spectrum": _cmd_spectrum, "verify": _cmd_verify,
                "apriori": _cmd_apriori, "find": _cmd_find,
                "radial": _cmd_find, "sweep": _cmd_sweep}[args.command](args)
    except StageFailure as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return e.code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ex.DomainError as e:
        # f is undefined somewhere on the domain the config declares
        print(f"config error: model: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
