"""Every module-level function and class of the package has a caller.

A definition counts as used when its name is loaded (as a name or as an
attribute) somewhere in src/ outside its own body, so recursion alone does
not count.  Test instruments belong in tests/oracles.py, not in the
package.
"""

import ast
import pathlib
from collections import Counter

import resonance

_SRC = pathlib.Path(__file__).parent.parent / "src" / "resonance"

# name -> why it stays without a caller in the package
ALLOWED = {
    "integrate_system": "the tests' reference integrator; the benchmark "
                        "tracer looks it up by name",
    "degree_search": "the benchmark tracer looks it up by name; goes with "
                     "the next benchmark change",
    "ll_integral": "the benchmark tracer looks it up by name; goes with "
                   "the next benchmark change",
    "classify": "the hypotheses stage has only the declared rectangle, "
                "which classifies the same on every run",
}
EXEMPT = set(resonance.__all__) | set(ALLOWED)


def _definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def _loads(node) -> Counter:
    """Names loaded under node, as names or attributes."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
        and isinstance(n.ctx, ast.Load))


def _uncalled():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(_SRC.glob("*.py"))}
    everywhere = sum(map(_loads, trees.values()), Counter())
    missing = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            if node.name in EXEMPT or (module, node.name) == ("cli", "main"):
                continue
            if everywhere[node.name] == _loads(node)[node.name]:
                missing.append(f"{module}.{node.name}")
    return missing


def test_every_definition_has_a_caller_in_the_package():
    missing = _uncalled()
    assert not missing, f"no caller in src/resonance: {missing}"


def test_the_allowlist_names_existing_definitions():
    names = {node.name for path in _SRC.glob("*.py")
             for node in _definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= names
