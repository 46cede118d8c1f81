"""The benchmark's inputs still meet its checks through `cli.main`.

perfbench/workloads.py reads the exit code, the standard output
(`hypotheses=fail`, `lower=pass upper=pass`) and the artifacts (report.txt,
radial.csv) of each invocation.  A change to the commands' output or exit
codes that the benchmark has not caught up with fails here first, on one
failing and one passing `screen_expr` input, on the first `--defaults`
input of each solving workload, `radial_singular` and `find_band`, and on
every `radial_singular` input drawn for seeds 1-3.  The CSVs of the first
passing `--defaults` input of each workload match the digests in
tests/data/artifacts_golden.json byte for byte.
"""

import csv
import hashlib
import json
import sys
from pathlib import Path

import pytest

from resonance import cli
from resonance.solver import _NEWTON_TOL

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True      # leave the benchmark's directory clean
try:
    import workloads
finally:
    sys.dont_write_bytecode = _write_bytecode


def _screen_case(expected_exit):
    cases = workloads.screen_expr(seed=1, defaults=True)
    return next(c for c in cases if c.expected_exit == expected_exit)


def _meets_its_check(case, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(case.config))
    out = str(tmp_path / "out")
    code = cli.main(case.argv + ["--config", str(config), "--out", out])
    # the benchmark hands its checks stdout and stderr as one stream
    captured = capsys.readouterr()
    assert code == case.expected_exit
    assert case.check(out, captured.out + captured.err) == []


@pytest.mark.parametrize("expected_exit", [workloads.EXIT_HYPOTHESIS,
                                           workloads.EXIT_OK],
                         ids=["hypotheses-fail", "sign-pass"])
def test_screen_expr_case_meets_its_check(tmp_path, capsys, expected_exit):
    _meets_its_check(_screen_case(expected_exit), tmp_path, capsys)


@pytest.mark.parametrize("workload", ["radial_singular", "find_band"])
def test_solving_workload_case_meets_its_check(tmp_path, capsys, workload):
    case = workloads.WORKLOADS[workload](seed=1, defaults=True)[0]
    _meets_its_check(case, tmp_path, capsys)


@pytest.mark.parametrize("draw", range(workloads.SOLVE_BATCH))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_radial_draw_meets_its_check(tmp_path, capsys, seed, draw):
    # the benchmark's timed runs draw wobbles in the workload's range, not
    # its midpoint: each drawn case meets its own check, and every profile
    # is polished below Newton's tolerance
    case = workloads.radial_singular(seed=seed)[draw]
    _meets_its_check(case, tmp_path, capsys)
    with open(tmp_path / "out" / "radial.csv") as fh:
        residuals = [float(row["residual"]) for row in csv.DictReader(fh)]
    assert len(residuals) == case.k_values
    assert max(residuals) < _NEWTON_TOL


_GOLDEN = Path(__file__).parent / "data" / "artifacts_golden.json"


@pytest.mark.parametrize("workload", ["find_band", "radial_singular",
                                      "screen_expr"])
def test_defaults_artifacts_match_their_golden_digests(tmp_path, capsys,
                                                       workload):
    # a change that moves any CSV byte of these runs updates the golden
    # file and declares the change
    case = next(c for c in workloads.WORKLOADS[workload](seed=1, defaults=True)
                if c.expected_exit == workloads.EXIT_OK)
    _meets_its_check(case, tmp_path, capsys)
    out = tmp_path / "out"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.glob("*.csv"))}
    assert digests == json.loads(_GOLDEN.read_text())["runs"][workload]
