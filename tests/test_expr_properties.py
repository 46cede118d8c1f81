"""Property tests of the expression trees: printing round-trips through the
parser, the compiled scalar and grid forms agree with evaluate(), and every
column of the grid form is the scalar form's, bit for bit."""

import math

import numpy as np
import pytest

from resonance import expr as ex

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# a fixed example sequence and no example database: the same examples on
# every run, few enough to keep the suite fast
_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)

_VARS = st.sampled_from(("t", "x")).map(ex.Var)


def _calls(funcs, *args):
    return st.builds(lambda f, *a: ex.Call(f, a), st.sampled_from(funcs),
                     *args)


def _any_tree(children):
    return st.one_of(
        st.builds(ex.Neg, children),
        st.builds(ex.Bin, st.sampled_from("+-*/^"), children, children),
        _calls(("sin", "cos", "abs", "exp", "log", "log2"), children),
        _calls(("min", "max"), children, children))


# the whole grammar; a literal is non-negative, since a minus sign parses
# as Neg
_TREES = st.recursive(
    st.one_of(st.floats(min_value=0.0, allow_nan=False,
                        allow_infinity=False).map(ex.Num), _VARS),
    _any_tree, max_leaves=12)


@_SETTINGS
@given(_TREES)
def test_to_source_round_trips_through_parse(tree):
    assert ex.parse(ex.to_source(tree)) == tree


# Exact trees use only operations that numpy and Python round alike, so
# both compiled forms see bit-identical log arguments and raise together.
_SMALL = st.integers(0, 16).map(lambda k: ex.Num(k / 2))


def _exact_tree(children):
    return st.one_of(
        st.builds(ex.Neg, children),
        st.builds(ex.Bin, st.sampled_from("+-*"), children, children),
        _calls(("abs",), children),
        _calls(("min", "max"), children, children))


_EXACT = st.recursive(st.one_of(_SMALL, _VARS), _exact_tree, max_leaves=6)


def _total_tree(children):
    # total but for log of a non-positive value: no division, no exp, and
    # only the powers 0, 1 and 2, so nothing overflows
    return st.one_of(
        _exact_tree(children),
        st.builds(lambda b, k: ex.Bin("^", b, ex.Num(float(k))), children,
                  st.integers(0, 2)),
        _calls(("sin", "cos"), children),
        _calls(("log", "log2"), _EXACT))


_TOTAL = st.recursive(st.one_of(_SMALL, _VARS, _calls(("log", "log2"),
                                                        _EXACT)),
                      _total_tree, max_leaves=10)


def _scale(node, t, x):
    """A bound on |node| that also bounds how far a last-bit difference in
    sin, cos or log can carry through node (as a multiple of it)."""
    if isinstance(node, ex.Num):
        return abs(node.value)
    if isinstance(node, ex.Var):
        return abs(t if node.name == "t" else x)
    if isinstance(node, ex.Neg):
        return _scale(node.operand, t, x)
    if isinstance(node, ex.Call):
        if node.func in ("log", "log2"):
            return 1.0 + abs(ex.evaluate(node, t, x))
        parts = [_scale(a, t, x) for a in node.args]
        return 1.0 + parts[0] if node.func in ("sin", "cos") else max(parts)
    left, right = _scale(node.left, t, x), _scale(node.right, t, x)
    if node.op == "^":
        return (1.0 + left) ** node.right.value
    return left + right if node.op in "+-" else left * right


_POINTS = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


@_SETTINGS
@given(_TOTAL, st.lists(_POINTS, min_size=1, max_size=3), _POINTS)
def test_compiled_forms_agree_with_evaluate_or_all_raise(tree, ts, x):
    fast, vec = ex.compile_scalar(tree), ex.compile_grid(tree)
    want = []
    for t in ts:
        try:
            want.append(ex.evaluate(tree, t, x))
        except ex.DomainError:
            with pytest.raises((ArithmeticError, ValueError)):
                fast(t, x)
            want.append(None)
            continue
        assert float.hex(fast(t, x)) == float.hex(want[-1])
    if None in want:
        with pytest.raises(ex.DomainError):
            vec(np.array(ts), x)
        return
    got = vec(np.array(ts), x)
    for t, g, w in zip(ts, got, want):
        assert math.isclose(g, w, rel_tol=0.0,
                            abs_tol=1e-12 * (1.0 + _scale(tree, t, x)))


# Grid trees: a subtree without t may use the whole grammar, since the grid
# form evaluates it through math.* and Python's pow, as compile_scalar
# does.  Where t enters, numpy's arrays do the arithmetic, and numpy's
# array power, exp and log differ from libm's in the last bit on some
# arguments, so those parts keep to sin, cos and operations that round
# alike; a subtree without t enters them through sin or cos, or as a
# power of x, so they stay finite.
_X = st.just(ex.Var("x"))
_EXPONENTS = st.integers(-4, 8).map(lambda k: ex.Num(k / 2) if k >= 0
                                    else ex.Neg(ex.Num(-k / 2)))
_X_POWERS = st.builds(lambda b, e: ex.Bin("^", b, e),
                      st.one_of(_X, st.builds(lambda k: ex.Bin(
                          "-", ex.Var("x"), k), _SMALL)), _EXPONENTS)


def _x_tree(children):
    return st.one_of(
        st.builds(ex.Neg, children),
        st.builds(ex.Bin, st.sampled_from("+-*/^"), children, children),
        st.builds(lambda b, e: ex.Bin("^", b, e), children, _EXPONENTS),
        _calls(("sin", "cos", "abs", "exp", "log", "log2"), children),
        _calls(("min", "max"), children, children))


_WITHOUT_T = st.recursive(st.one_of(_SMALL, _X, _X_POWERS), _x_tree,
                          max_leaves=8)


def _t_tree(children):
    return st.one_of(
        st.builds(ex.Neg, children),
        st.builds(ex.Bin, st.sampled_from("+-*"), children, children),
        _calls(("sin", "cos", "abs"), children),
        _calls(("min", "max"), children, children))


_T_TERMS = st.one_of(st.just(ex.Var("t")), _calls(("sin", "cos"), st.builds(
    lambda k: ex.Bin("*", k, ex.Var("t")), _SMALL)))
_WITH_T = st.builds(
    lambda a, op, b: ex.Bin(op, a, b),
    st.recursive(st.one_of(_SMALL, _X, _T_TERMS, _X_POWERS,
                           _calls(("sin", "cos"), _WITHOUT_T)),
                 _t_tree, max_leaves=8),
    st.sampled_from("+-*"), _T_TERMS)
_GRID_TREES = st.one_of(_WITHOUT_T, _WITH_T)


def _scalar_column(fast, ts, x):
    """The scalar form's values at (t, x) for each t, or None if it
    raises at any of them."""
    try:
        return [fast(t, x) for t in ts]
    except (ValueError, ArithmeticError):
        return None


@_SETTINGS
@given(_GRID_TREES, _GRID_TREES, st.sampled_from((0.0, 1.0)),
       st.lists(_POINTS, min_size=1, max_size=3),
       st.lists(_POINTS, min_size=1, max_size=5))
def test_grid_columns_equal_the_scalar_form(left, right, split, ts, xs):
    # each piece of the glued pair has a log that is undefined across the
    # split: the grid evaluates a piece on its own side's x only
    left = ex.Bin("+", left, ex.Call("log", (ex.Bin(
        "-", ex.Num(split), ex.Var("x")),)))
    right = ex.Bin("+", right, ex.Call("log", (ex.Bin(
        "-", ex.Var("x"), ex.Num(split - 0.5)),)))
    # a number x runs the same body as an x row, as a 0-d one
    ts = np.array(ts)
    for trees in ((left,), (right,), (left, right)):
        fast = ex.compile_scalar(*trees, split=split)
        grid = ex.compile_grid(*trees, split=split)
        want = [_scalar_column(fast, ts.tolist(), x) for x in xs]
        for x, col in zip(xs, want):
            if col is None:
                with pytest.raises((ValueError, ArithmeticError)):
                    grid(ts, x)
            else:
                assert [v.hex() for v in grid(ts, x).tolist()] == \
                    [v.hex() for v in col]
        if None in want:
            with pytest.raises((ValueError, ArithmeticError)):
                grid(ts, np.array(xs))
            continue
        table = grid(ts, np.array(xs))
        assert table.shape == (len(xs), len(ts))
        assert [[v.hex() for v in row] for row in table.tolist()] == \
            [[v.hex() for v in col] for col in want]
