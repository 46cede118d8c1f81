"""The benchmark's workloads: seeded inputs and the checks on their outputs.

Each workload turns a seed into a list of `Case`s.  A case is one CLI
invocation: the config the program reads, the subcommand and flags, the
exit code it must return, and a check of the artifacts it writes.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

PERIOD = 2.0 * math.pi

# Parameter ranges drawn from by the seed; `--defaults` takes the midpoint.
# The solver's work jumps between nearby inputs (see README.md), so each
# run of the two solving workloads averages over a batch of draws.
SOLVE_BATCH = 2
FORCING = (0.4998, 0.5002)
WOBBLE = (0.999, 1.001)
SCREEN_A = (0.8, 1.2)
SCREEN_B = (0.3, 0.7)
SCREEN_C_PASS = (1.3, 1.9)       # inside the band (mu_2, mu_3) = (1, 2.25)
SCREEN_C_FAIL = (2.6, 3.0)       # above mu_3: the band hypothesis fails
SCREEN_BATCH = 8
SCREEN_FAILING = 2               # inputs per batch that must exit 3

EXIT_OK = 0
EXIT_HYPOTHESIS = 3


@dataclass
class Case:
    label: str
    config: dict
    argv: list[str]              # subcommand and flags, without --config/--out
    expected_exit: int
    check: Callable[[str, str], list[str]]   # (out_dir, stdout) -> problems
    k_values: int = 0            # rotating-solution k values searched


def read_report(out_dir: str) -> dict[str, str]:
    with open(os.path.join(out_dir, "report.txt")) as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh
                    if " = " in line)


def _check_certificate(out_dir: str, stdout: str) -> list[str]:
    rep = read_report(out_dir)
    problems = []
    if rep.get("certificate.status") != "converged":
        problems.append(f"status {rep.get('certificate.status')}")
    if not float(rep.get("certificate.residual", "nan")) < 1e-8:
        problems.append(f"residual {rep.get('certificate.residual')}")
    rot = float(rep.get("certificate.rotation", "nan"))
    if not (math.isfinite(rot) and abs(rot - round(rot)) <= 0.01):
        problems.append(f"rotation {rot} is not an integer count")
    if int(rep.get("certificate.degree", "0")) == 0:
        problems.append("boundary degree is 0 or missing")
    if rep.get("certificate.radius") != rep.get("apriori.R_elastic"):
        problems.append(f"certified on radius {rep.get('certificate.radius')}"
                        f", not R_elastic {rep.get('apriori.R_elastic')}")
    return problems


def _radial_checker(k_values: int):
    def check(out_dir: str, stdout: str) -> list[str]:
        rep = read_report(out_dir)
        problems = []
        if rep.get("radial.k_nu", "none") == "none":
            problems.append("no k_nu")
        with open(os.path.join(out_dir, "radial.csv")) as fh:
            rows = sorted(csv.DictReader(fh), key=lambda r: int(r["k"]))
        if len(rows) != k_values:
            problems.append(f"{len(rows)} rotating solutions, "
                            f"expected one for each of {k_values} k values")
        ls = [float(r["L"]) for r in rows]
        if any(b >= a for a, b in zip(ls, ls[1:])):
            problems.append(f"L is not strictly decreasing in k: {ls}")
        bad = [r["residual"] for r in rows if not float(r["residual"]) < 1e-8]
        if bad:
            problems.append(f"residuals {bad}")
        return problems
    return check


def _check_verdict_pass(out_dir: str, stdout: str) -> list[str]:
    if "lower=pass upper=pass" not in stdout:
        return [f"sign conditions did not both pass: {stdout.strip()!r}"]
    return []


def _check_hypotheses_fail(out_dir: str, stdout: str) -> list[str]:
    if "hypotheses=fail" not in stdout:
        return [f"band hypothesis did not fail: {stdout.strip()!r}"]
    return []


def _drawer(seed: int, defaults: bool):
    rng = random.Random(seed)

    def draw(bounds):
        lo, hi = bounds
        return 0.5 * (lo + hi) if defaults else rng.uniform(lo, hi)

    return rng, draw


def find_band(seed: int, defaults: bool = False) -> list[Case]:
    _, draw = _drawer(seed, defaults)
    cases = []
    for _ in range(SOLVE_BATCH):
        forcing = draw(FORCING)
        cfg = {"model": {"family": "cubic_band",
                         "params": {"forcing": forcing}, "T": PERIOD, "N": 2},
               "theorem": "main", "grids": {"tau_points": 64}}
        cases.append(Case(f"forcing={forcing!r}", cfg, ["find"], EXIT_OK,
                          _check_certificate))
    return cases


def radial_singular(seed: int, defaults: bool = False) -> list[Case]:
    _, draw = _drawer(seed, defaults)
    k_max = 2
    cases = []
    for _ in range(SOLVE_BATCH):
        wobble = draw(WOBBLE)
        cfg = {"model": {"family": "singular_band",
                         "params": {"wobble": wobble}, "T": PERIOD, "N": 2,
                         "domain": "singular"},
               "grids": {"tau_points": 64}, "radial": {"nu": 1, "k_max": k_max}}
        cases.append(Case(f"wobble={wobble!r}", cfg, ["radial"], EXIT_OK,
                          _radial_checker(k_max), k_values=k_max))
    return cases


def screen_expr(seed: int, defaults: bool = False) -> list[Case]:
    rng, draw = _drawer(seed, defaults)
    failing = set(rng.sample(range(SCREEN_BATCH), SCREEN_FAILING))
    cases = []
    for i in range(SCREEN_BATCH):
        a, b = draw(SCREEN_A), draw(SCREEN_B)
        fails = i in failing
        c = draw(SCREEN_C_FAIL if fails else SCREEN_C_PASS)
        cfg = {"model": {"f_left": f"({a:.6f}+{b:.6f}*sin(t)^2)*x^5 + x^3",
                         "f_right": f"{c:.6f}*x + x^2/(1+x^2)",
                         "T": PERIOD, "N": 2},
               "grids": {"tau_points": 256}}
        cases.append(Case(
            f"a={a:.6f} b={b:.6f} c={c:.6f}", cfg,
            ["verify", "--theorem", "main2"],
            EXIT_HYPOTHESIS if fails else EXIT_OK,
            _check_hypotheses_fail if fails else _check_verdict_pass))
    return cases


WORKLOADS = {
    "find_band": find_band,
    "radial_singular": radial_singular,
    "screen_expr": screen_expr,
}
