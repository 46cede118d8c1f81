"""The benchmark tracer (perfbench/spans.py) still fits the program.

The tracer wraps module-level functions and counts `HomotopyField.g` and
`Trajectory.__init__` calls at class level.  A change that routes a return
map around `integrate`, or evaluates the field without calling
`HomotopyField.g`, breaks its per-layer counts; this test fails first.
"""

import sys
from pathlib import Path

import resonance.cli  # noqa: F401  (the tracer wraps every submodule)
import resonance.model as rm
from resonance import radial, solver
from resonance.integrate import HomotopyField

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True      # leave the benchmark's directory clean
try:
    import spans
finally:
    sys.dont_write_bytecode = _write_bytecode


class _CountingF:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, t, x):
        self.calls += 1
        return self.f(t, x)


def test_tracer_reconciles_return_maps_and_newton():
    base = rm.make_cubic_band()
    counting = _CountingF(base.f)
    model = rm.NonlinearityModel(f=counting, period=base.period,
                                 domain=base.domain, n_mode=base.n_mode)
    # at lambda = 1 every g evaluation is one f evaluation
    fld = HomotopyField(model, 1.0)
    starts = [(-1.5, 0.0), (0.5, 0.5), (64.0, 0.0)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for z in starts:
            solver.poincare(fld, z)
        _, _, iters, *_ = solver.newton_fixed_point(fld, (-1.48, 0.0))
    finally:
        tracer.uninstall()

    tree = spans.SpanTree(tracer.spans)
    assert spans.reconcile(tree, tracer.counts) == []
    assert tracer.counts["newton_iters"] == iters >= 1
    assert tree.calls("newton_fixed_point") == 1
    assert tree.calls("integrate") == tree.calls("poincare") > len(starts)
    assert tracer.counts["trajectories"] == tree.calls("integrate")
    assert tracer.counts["g_evals"] == counting.calls > 0


def test_tracer_sees_the_radial_search(monkeypatch):
    solves = []
    original = radial.solve_radial_profile

    def counted(*args, **kwargs):
        solves.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(radial, "solve_radial_profile", counted)
    tracer = spans.Tracer()
    tracer.install()
    try:
        sols, _ = radial.find_rotating(rm.make_singular_band(), nu=1, k_max=1)
    finally:
        tracer.uninstall()

    tree = spans.SpanTree(tracer.spans)
    assert [s.k for s in sols] == [1]
    assert spans.reconcile(tree, tracer.counts) == []
    assert tree.calls("solve_radial_profile") == len(solves) > 0
    assert tree.under("homotopy_solve", {"solve_radial_profile"}) == 0
    # the angle rides on the profile solves' return maps: no separate
    # advance, and every integration is one planar return map
    assert tree.calls("angular_progress") == 0
    assert tree.under("integrate_system", {"solve_radial_profile"}) == 0
    assert tree.calls("integrate") == tree.under(
        "integrate", {"solve_radial_profile"}) == tree.calls("poincare") > 0
