"""Every module-level function and class of the package has a caller,
and every module-level constant a reader.

A definition counts as used when its name is loaded (as a name or as an
attribute) somewhere in src/ outside its own body, so recursion alone does
not count; a constant, when its name is loaded anywhere in src/.  Test
instruments belong in tests/oracles.py, not in the package.
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
    "angular_progress": "the benchmark tracer looks it up by name; the "
                        "tests' fresh advance of a solved profile",
}
EXEMPT = set(resonance.__all__) | set(ALLOWED)
DUNDER = {"__all__", "__version__"}     # module metadata, read from outside


def _definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def _constants(tree):
    """Names bound by a plain assignment at module level."""
    return [target.id for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)]


def _loads(node) -> Counter:
    """Names loaded under node, as names or attributes."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
        and isinstance(n.ctx, ast.Load))


def _parsed():
    """Each module's tree, and the names loaded anywhere in src/."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(_SRC.glob("*.py"))}
    return trees, sum(map(_loads, trees.values()), Counter())


def _uncalled():
    trees, everywhere = _parsed()
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


def test_every_constant_is_read_in_the_package():
    trees, everywhere = _parsed()
    unread = [f"{module}.{name}" for module, tree in trees.items()
              for name in _constants(tree)
              if name not in DUNDER and not everywhere[name]]
    assert not unread, f"never read in src/resonance: {unread}"


def test_the_allowlist_names_existing_definitions():
    names = {node.name for path in _SRC.glob("*.py")
             for node in _definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= names
