"""Spans and counts recorded around the program's public functions.

The program is not edited.  `Tracer.install` replaces each traced function
at every module attribute of the `resonance` package that binds it:
several modules import functions by name, and the package attribute
`resonance.integrate` is the function, not the submodule, so each module
is taken from `sys.modules`.  Three methods are patched at class level to
count calls.  `uninstall` puts every original back.

A span is `[id, parent_id, name, start, end, ok]`, kept in memory until the
run ends; a span's id is its index in `Tracer.spans`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (submodule, function) pairs wrapped in spans named after the function.
TRACED = (
    ("resonance.cli", "main"),
    ("resonance.integrate", "integrate"),
    ("resonance.integrate", "integrate_system"),
    ("resonance.solver", "poincare"),
    ("resonance.solver", "newton_fixed_point"),
    ("resonance.solver", "boundary_degree"),
    ("resonance.solver", "degree_search"),
    ("resonance.solver", "homotopy_solve"),
    ("resonance.apriori", "build_kit"),
    ("resonance.apriori", "probe_R0"),
    ("resonance.apriori", "probe_N0"),
    ("resonance.radial", "find_rotating"),
    ("resonance.radial", "solve_radial_profile"),
    ("resonance.radial", "angular_progress"),
    ("resonance.conditions", "validate_A"),
    ("resonance.conditions", "validate_A0_Ainf"),
    ("resonance.conditions", "ll_verdict"),
    ("resonance.conditions", "ll_integral"),
    ("resonance.conditions", "check_H"),
    ("resonance.util", "write_csv"),
)

ID, PARENT, NAME, START, END, OK = range(6)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "resonance"
                                  or name.startswith("resonance."))]


class Tracer:
    """Records the spans and counts of one traced invocation."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self):
        on_return = {"integrate": self._on_trajectory,
                     "newton_fixed_point": self._on_newton,
                     "homotopy_solve": self._on_homotopy}
        modules = _package_modules()
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._span(fn_name, original, on_return.get(fn_name))
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    self._patch(mod, attr, wrapper)
        integ = sys.modules["resonance.integrate"]
        self._count_calls(integ.HomotopyField, "g", "g_evals")
        self._count_calls(integ.Trajectory, "__init__", "trajectories")
        self._count_calls(sys.modules["resonance.model"].NonlinearityModel,
                          "f_over_t", "f_tarr_calls")

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _span(self, name, fn, on_return):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0,
                   False]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                rec[OK] = True
            finally:
                rec[END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count_calls(self, cls, attr, key):
        original, counts = getattr(cls, attr), self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._patch(cls, attr, counted)

    def _on_trajectory(self, traj):
        self.counts["samples"] += len(traj.t)

    def _on_newton(self, result):
        self.counts["newton_iters"] += result[2]

    def _on_homotopy(self, cert):
        self.counts["lambda_steps"] += len(cert.path)


class SpanTree:
    """Queries over the spans of one invocation."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s[NAME]].append(s)
            self.children[s[PARENT]].append(s)

    def ancestors(self, span):
        pid = span[PARENT]
        while pid is not None:
            parent = self.spans[pid]
            yield parent
            pid = parent[PARENT]

    def nearest(self, span, names):
        """The closest ancestor whose name is in `names`, or None."""
        return next((a for a in self.ancestors(span) if a[NAME] in names),
                    None)

    def calls(self, name):
        return len(self.by_name[name])

    def under(self, name, names):
        """Calls of `name` with an ancestor in `names`."""
        return sum(self.nearest(s, names) is not None
                   for s in self.by_name[name])

    def total_s(self, *names):
        """Inclusive time of the outermost spans of `names`."""
        return sum((s[END] - s[START] for n in names for s in self.by_name[n]
                    if self.nearest(s, {n}) is None), 0.0)

    def self_s(self, name):
        return sum((s[END] - s[START]
                    - sum(c[END] - c[START] for c in self.children[s[ID]])
                    for s in self.by_name[name]), 0.0)

    def integrate_by_parent(self):
        groups = Counter()
        for s in self.by_name["integrate"]:
            pid = s[PARENT]
            groups[self.spans[pid][NAME] if pid is not None else "<root>"] += 1
        return groups


def reconcile(tree: SpanTree, counts: Counter) -> list[str]:
    """Problems found when the recorded counts are checked against each
    other; an empty list means the trace is consistent."""
    problems = []
    for s in tree.by_name["poincare"]:
        n = sum(c[NAME] == "integrate" for c in tree.children[s[ID]])
        if n != 1:
            problems.append(f"poincare span {s[ID]} has {n} integrate children")
    n_integrate = tree.calls("integrate")
    grouped = sum(tree.integrate_by_parent().values())
    if grouped != n_integrate:
        problems.append(f"integrate calls by parent sum to {grouped}, "
                        f"total is {n_integrate}")
    n_ok = sum(s[OK] for s in tree.by_name["integrate"])
    if n_ok != counts["trajectories"]:
        problems.append(f"{counts['trajectories']} trajectories built but "
                        f"{n_ok} integrate spans returned one")
    return problems


def layer_metrics(tree: SpanTree, counts: Counter,
                  k_values: int) -> dict[str, float]:
    """Per-layer counts (whole numbers), times (s) and ratios of one
    invocation; `k_values` is the number of rotation counts k searched."""
    newton = tree.by_name["newton_fixed_point"]
    # each return map is charged to its closest Newton or degree caller
    owners = [tree.nearest(s, {"newton_fixed_point", "boundary_degree",
                               "degree_search"})
              for s in tree.by_name["poincare"]]
    maps_owner = Counter(o[NAME] for o in owners if o is not None)
    maps_newton = maps_owner["newton_fixed_point"]
    # iterations are known only for converged solves (a failure raises)
    maps_converged = sum(o is not None and o[NAME] == "newton_fixed_point"
                         and o[OK] for o in owners)
    newton_iters = counts["newton_iters"]
    newton_failures = sum(not s[OK] for s in newton)
    return {
        "integrate.calls": tree.calls("integrate"),
        "integrate.self_s": tree.self_s("integrate"),
        "integrate.g_evals": counts["g_evals"],
        "integrate.samples": counts["samples"],
        "integrate_system.calls": tree.calls("integrate_system"),
        "integrate_system.self_s": tree.self_s("integrate_system"),
        "solver.return_maps": tree.calls("poincare"),
        "solver.return_maps.newton": maps_newton,
        "solver.return_maps.degree": (maps_owner["boundary_degree"]
                                      + maps_owner["degree_search"]),
        "solver.newton_solves": len(newton),
        "solver.newton_iters": newton_iters,
        "solver.newton_failures": newton_failures,
        "solver.newton_s": tree.total_s("newton_fixed_point"),
        "solver.degree_s": tree.total_s("boundary_degree"),
        "solver.degree_search_calls": tree.calls("degree_search"),
        "solver.homotopy_s": tree.total_s("homotopy_solve"),
        "solver.lambda_steps": counts["lambda_steps"],
        "solver.return_maps_per_newton_iter": (
            maps_converged / newton_iters if newton_iters else 0.0),
        "solver.newton_success_ratio": (
            (len(newton) - newton_failures) / len(newton) if newton else 0.0),
        "apriori.build_kit_s": tree.total_s("build_kit"),
        "apriori.probe_R0_s": tree.total_s("probe_R0"),
        "apriori.probe_N0_s": tree.total_s("probe_N0"),
        "apriori.integrations": tree.under(
            "integrate", {"build_kit", "probe_R0", "probe_N0"}),
        "radial.find_rotating_s": tree.total_s("find_rotating"),
        "radial.dtheta_evals": tree.calls("angular_progress"),
        "radial.profile_solves": tree.calls("solve_radial_profile"),
        "radial.bootstrap_homotopies": tree.under(
            "homotopy_solve", {"solve_radial_profile"}),
        "radial.k_searched": k_values,
        "radial.dtheta_evals_per_k": (
            tree.calls("angular_progress") / k_values if k_values else 0.0),
        "conditions.validate_s": tree.total_s("validate_A",
                                              "validate_A0_Ainf"),
        "conditions.ll_verdict_s": tree.total_s("ll_verdict"),
        "conditions.ll_integral_calls": tree.calls("ll_integral"),
        "conditions.check_H_s": tree.total_s("check_H"),
        "model.f_tarr_calls": counts["f_tarr_calls"],
        "util.write_csv_s": tree.total_s("write_csv"),
    }
