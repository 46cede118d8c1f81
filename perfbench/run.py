"""Benchmark: time to a certificate or verdict through `resonance.cli.main`.

    python3 perfbench/run.py --workload find_band --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  The
loop is closed: one CLI invocation at a time, in this process.  Every
invocation's exit code and artifacts are checked.  Each input runs twice in
a row, and the second run must write byte-identical CSV files; with
`--trace 1` the second run is traced and gives the per-layer metrics (see
README.md).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

sys.dont_write_bytecode = True    # keep the benchmark's directory clean
import spans       # noqa: E402
import workloads   # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
SETUP_REPS = 9
# A run must end well inside 180 s.  Past this many seconds it stops with
# an error on stderr instead of a result, even inside an invocation.
DEADLINE_S = 150.0
STAGES = ("hypotheses", "sign_conditions", "apriori", "solve", "radial")


class Overrun(BaseException):
    """Raised in the main thread when the run passes DEADLINE_S; not an
    `Exception`, so neither the program nor `invoke` takes it for a
    failed invocation."""


def _overrun(signum, frame):
    raise Overrun(f"the run passed its {DEADLINE_S:.0f} s deadline")


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing the CLI module."""
    cmd = [sys.executable, "-c", "import resonance.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)   # writes bytecode
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(numpy_version: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "seed": seed}


def csv_digests(out_dir: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def invoke(cli, case, config_path, out_dir, tracer=None) -> dict:
    """One CLI invocation with its checks; the wall time covers only the
    `cli.main` call."""
    argv = case.argv + ["--config", config_path, "--out", out_dir]
    buf = io.StringIO()
    rc, problems = None, []
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(argv)
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
    except Exception:        # a crash is a failed invocation, not the end
        problems.append(traceback.format_exc(limit=3).strip())
    finally:
        if tracer is not None:
            tracer.uninstall()
    stdout = buf.getvalue()
    stages, digests = {}, {}
    if rc is not None:
        if rc != case.expected_exit:
            problems.append(f"exit {rc}, expected {case.expected_exit}: "
                            f"{stdout.strip()[-300:]!r}")
        else:
            try:
                problems += case.check(out_dir, stdout)
                report = workloads.read_report(out_dir)
            except (OSError, KeyError, ValueError) as e:
                problems.append(f"artifacts unreadable: {e!r}")
                report = {}
            stages = {s: float(report[f"stage.{s}.seconds"]) for s in STAGES
                      if f"stage.{s}.seconds" in report}
            digests = csv_digests(out_dir)
    return {"wall": wall, "cpu": cpu, "exit": rc, "problems": problems,
            "stages": stages, "digests": digests}


def schedule(n_cases: int, traced: bool):
    """(case index, traced) for each invocation: every case runs twice in a
    row, cases in turn.  The second run checks the first's artifacts; with
    tracing it is the traced one."""
    i = 0
    while True:
        yield i % n_cases, False
        yield i % n_cases, traced
        i += 1


def run(cli, cases, seconds, traced, run_dir):
    """Closed loop until the next invocation, taken to be as slow as the
    slowest so far, would overrun `seconds`; the first two, one input run
    twice, always run."""
    for i, case in enumerate(cases):
        with open(os.path.join(run_dir, f"input{i}.json"), "w") as fh:
            json.dump(case.config, fh, indent=1)
    results, span_log = [], []
    digests: dict[int, dict] = {}     # case -> CSV digests of its first run
    counts: dict[int, dict] = {}      # case -> per-layer counts, first trace
    start = time.perf_counter()
    for ci, traced_now in schedule(len(cases), traced):
        if len(results) >= 2 and time.perf_counter() - start + \
                max(r["wall"] for r in results) > seconds:
            break
        n = len(results)
        tracer = spans.Tracer() if traced_now else None
        res = invoke(cli, cases[ci],
                     os.path.join(run_dir, f"input{ci}.json"),
                     os.path.join(run_dir, f"inv{n:03d}"), tracer)
        res.update(case=ci, traced=traced_now)
        if res["digests"] and \
                digests.setdefault(ci, res["digests"]) != res["digests"]:
            res["problems"].append("CSV artifacts differ from the first "
                                   "run of this input")
        if tracer is not None:
            tree = spans.SpanTree(tracer.spans)
            res["problems"] += spans.reconcile(tree, tracer.counts)
            res["layer"] = spans.layer_metrics(tree, tracer.counts,
                                               cases[ci].k_values)
            res["integrate_by_parent"] = tree.integrate_by_parent()
            found = {k: v for k, v in res["layer"].items()
                     if isinstance(v, int)}
            if counts.setdefault(ci, found) != found:
                res["problems"].append("per-layer counts differ between "
                                       "traced runs of the same input")
            span_log += [[n] + s for s in tracer.spans]
        results.append(res)
        print(f"perfbench: inv {n} {cases[ci].label} traced={traced_now} "
              f"exit={res['exit']} {res['wall']:.3f} s", file=sys.stderr,
              flush=True)
    return results, span_log


def end_to_end(results, setup_s):
    return {
        "wall_s": (statistics.median(r["wall"] for r in results), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }


def per_layer(results):
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    metrics = {}
    for name in traced[0]["layer"]:
        values = [r["layer"][name] for r in traced]
        unit = ("s" if name.endswith("_s") else
                "count" if isinstance(values[0], int) else "ratio")
        metrics[name] = (statistics.median_low(values), unit)
    for stage in STAGES:
        metrics[f"cli.stage.{stage}_s"] = (statistics.median_low(
            [r["stages"].get(stage, 0.0) for r in plain]), "s")
    metrics["trace.overhead"] = (
        statistics.median(r["wall"] for r in traced)
        / statistics.median(r["wall"] for r in plain), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defaults", action="store_true",
                        help="use the midpoint of every parameter range "
                             "instead of seeded draws (baseline counts)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        return _main(args)
    except Overrun as e:
        print(f"perfbench: {args.workload} seed {args.seed}: {e}; no result",
              file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _main(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "resonance", "cli.py")):
        print(f"perfbench: no program sources at {SRC}/resonance; run from "
              f"the root of a checkout of the repository", file=sys.stderr)
        return 2
    # the per-translation thread pool would change the screened work
    os.environ.pop("RESONANCE_THREADS", None)
    setup_s = (None if args.trace else
               measure_setup(dict(os.environ, PYTHONPATH=SRC)))
    sys.path.insert(0, SRC)
    from resonance import cli
    import numpy
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {cli.__file__}, not the checkout's "
              f"sources", file=sys.stderr)
        return 2

    cases = workloads.WORKLOADS[args.workload](args.seed, args.defaults)
    run_dir = os.path.join(RUNS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    results, span_log = run(cli, cases, args.seconds, bool(args.trace),
                            run_dir)

    env = environment(numpy.__version__, args.seed)
    failed = sum(bool(r["problems"]) for r in results)
    metrics = (per_layer(results) if args.trace
               else end_to_end(results, setup_s))
    for r in results:
        for p in r["problems"]:
            print(f"FAILED inv case {r['case']} ({cases[r['case']].label}): "
                  f"{p}", file=sys.stderr)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "env": env,
                   "cases": [c.label for c in cases],
                   "metrics": metrics, "invocations": results}, fh, indent=1)
    if span_log:
        with open(os.path.join(run_dir, "spans.jsonl"), "w") as fh:
            for s in span_log:
                fh.write(json.dumps(dict(zip(
                    ("inv", "id", "parent", "name", "start", "end", "ok"),
                    s))) + "\n")

    print(f"perfbench {args.workload} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:40s} {shown} {unit}")
    print(f"  {'fail_frac':40s} {failed / len(results):.6g} ratio "
          f"({failed} of {len(results)} invocations)")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
