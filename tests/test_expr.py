import math
import random

import numpy as np
import pytest

from resonance import expr as ex


def test_single_variable_parses_to_var():
    tree = ex.parse("x")
    assert tree == ex.Var("x")


def test_worked_quintic_example_structure():
    tree = ex.parse("(1+sin(t)^2)*x^5 + x^3")
    assert isinstance(tree, ex.Bin) and tree.op == "+"
    assert isinstance(tree.left, ex.Bin) and tree.left.op == "*"
    # 1 + sin(t)^2 on the left of the product
    inner = tree.left.left
    assert inner == ex.Bin("+", ex.Num(1.0),
                           ex.Bin("^", ex.Call("sin", (ex.Var("t"),)), ex.Num(2.0)))
    assert tree.right == ex.Bin("^", ex.Var("x"), ex.Num(3.0))


def test_power_is_right_associative():
    # oracle: explicit parenthesization
    implicit = ex.parse("2^3^2")
    explicit = ex.parse("2^(3^2)")
    assert ex.evaluate(implicit, 0.0, 0.0) == ex.evaluate(explicit, 0.0, 0.0) == 512.0


def test_unary_minus_binds_looser_than_power():
    assert ex.evaluate(ex.parse("-2^2"), 0.0, 0.0) == -4.0
    assert ex.evaluate(ex.parse("(-2)^2"), 0.0, 0.0) == 4.0


def test_eval_cubic_plus_sine_squared_at_origin_time():
    # hand evaluation with sin(0) = 0
    v = ex.evaluate(ex.parse("x^3 + sin(t)^2 * x^2"), 0.0, -2.0)
    assert v == -8.0


def test_eval_identity():
    assert ex.evaluate(ex.parse("x"), 123.0, 5.0) == 5.0


def test_eval_singular_powers():
    # hand evaluation: -(1)(1) - 1 = -2 at (t, x) = (0, 1)
    v = ex.evaluate(ex.parse("-(1+sin(t)^2)*x^-5 - x^-3"), 0.0, 1.0)
    assert v == -2.0


def test_negative_integer_powers_of_negative_base_allowed():
    assert ex.evaluate(ex.parse("x^3"), 0.0, -2.0) == -8.0
    assert ex.evaluate(ex.parse("x^-2"), 0.0, -2.0) == 0.25


def test_syntax_error_carries_offset_and_expectations():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x + * 2")
    assert err.value.offset == 4
    assert err.value.expected


def test_unknown_identifier_error():
    with pytest.raises(ex.UnknownIdentifierError) as err:
        ex.parse("x + foo(t)")
    assert err.value.name == "foo"
    assert err.value.offset == 4


def test_domain_error_names_offending_subtree():
    tree = ex.parse("1 + log(x)")
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(tree, 0.0, -1.0)
    assert "log(x)" in str(err.value)

    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("1/x"), 0.0, 0.0)

    # fractional power of a negative base is rejected by design
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("x^0.5"), 0.0, -2.0)


def test_log2_rounds_like_math_log2():
    tree = ex.parse("log2(1 + x)")
    fast = ex.compile_scalar(tree)
    vec = ex.compile_vector_t(tree)
    for x in (0.5, 3.0, 7.0, 1e6, 123.456):
        assert ex.evaluate(tree, 0.0, x) == fast(0.0, x) == math.log2(1 + x)
        assert float(vec(np.zeros(1), x)[0]) == pytest.approx(math.log2(1 + x),
                                                              rel=1e-15)
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(tree, 0.0, -1.0)
    assert "log2(1.0 + x)" in str(err.value)


def test_compiled_glued_pair_switches_pieces_at_the_split():
    left, right = ex.parse("x*x*x"), ex.parse("2*x + t")
    fast = ex.compile_scalar(left, right, 1.0)
    vec = ex.compile_vector_t(left, right, 1.0)
    ts = np.array([0.0, 0.5])
    for x in (-2.0, 0.0, 0.999, 1.0, 3.0):
        piece = left if x < 1.0 else right
        assert fast(0.5, x) == ex.evaluate(piece, 0.5, x)
        assert list(vec(ts, x)) == [ex.evaluate(piece, t, x) for t in ts]


def _random_ast(rng: random.Random, depth: int) -> ex.Expr:
    if depth <= 0 or rng.random() < 0.25:
        pick = rng.random()
        if pick < 0.4:
            return ex.Num(round(rng.uniform(0.0, 10.0), 3))
        return ex.Var(rng.choice(("t", "x")))
    roll = rng.random()
    if roll < 0.55:
        op = rng.choice("+-*/^")
        return ex.Bin(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if roll < 0.75:
        return ex.Neg(_random_ast(rng, depth - 1))
    fn = rng.choice(("sin", "cos", "abs", "exp", "log", "min", "max"))
    n_args = 2 if fn in ("min", "max") else 1
    return ex.Call(fn, tuple(_random_ast(rng, depth - 1) for _ in range(n_args)))


def test_print_parse_roundtrip_on_random_trees():
    # each tree also runs its compiled forms against evaluate at 10 points:
    # the scalar form bit for bit, the vector form to 1e-12, and where
    # evaluate raises DomainError the scalar form must raise as well
    rng = random.Random(20240817)
    pts = random.Random(7)
    for _ in range(1000):
        tree = _random_ast(rng, rng.randint(1, 5))
        printed = ex.to_source(tree)
        assert ex.parse(printed) == tree, printed
        fast, vec = ex.compile_scalar(tree), ex.compile_vector_t(tree)
        for _ in range(10):
            t, x = pts.uniform(-4.0, 4.0), pts.uniform(-4.0, 4.0)
            try:
                want = ex.evaluate(tree, t, x)
            except ex.DomainError:
                with pytest.raises((ArithmeticError, ValueError)):
                    fast(t, x)
                continue
            assert float.hex(fast(t, x)) == float.hex(want), (printed, t, x)
            with np.errstate(all="ignore"):
                got = float(vec(np.array([t]), x)[0])
            assert np.isclose(got, want, rtol=1e-12, atol=1e-12,
                              equal_nan=True), (printed, t, x)


# table-driven oracle corpus: 20 expressions x 20 points, independent lambdas
_CORPUS = [
    ("x", lambda t, x: x),
    ("t", lambda t, x: t),
    ("x + t", lambda t, x: x + t),
    ("x*t - 2", lambda t, x: x * t - 2),
    ("x^2", lambda t, x: x ** 2),
    ("x^3 + sin(t)^2*x^2", lambda t, x: x ** 3 + math.sin(t) ** 2 * x ** 2),
    ("(1+sin(t)^2)*x^5 + x^3", lambda t, x: (1 + math.sin(t) ** 2) * x ** 5 + x ** 3),
    ("cos(t)*x", lambda t, x: math.cos(t) * x),
    ("exp(x/10)", lambda t, x: math.exp(x / 10)),
    ("log(abs(x) + 1)", lambda t, x: math.log(abs(x) + 1)),
    ("min(x, t)", lambda t, x: min(x, t)),
    ("max(x, 2*t)", lambda t, x: max(x, 2 * t)),
    ("-x", lambda t, x: -x),
    ("2^x", lambda t, x: 2.0 ** x),
    ("x/2 + t/3", lambda t, x: x / 2 + t / 3),
    ("x - t - 1", lambda t, x: x - t - 1),
    ("sin(t)*cos(x)", lambda t, x: math.sin(t) * math.cos(x)),
    ("abs(x - t)", lambda t, x: abs(x - t)),
    ("(x + 1)*(x - 1)", lambda t, x: (x + 1) * (x - 1)),
    ("1 + 2*x + 3*x^2", lambda t, x: 1 + 2 * x + 3 * x ** 2),
]


def test_eval_matches_oracle_corpus():
    rng = np.random.default_rng(7)
    pts = [(float(t), float(x))
           for t, x in zip(rng.uniform(-3, 3, 20), rng.uniform(-4, 4, 20))]
    for src, oracle in _CORPUS:
        tree = ex.parse(src)
        fast = ex.compile_scalar(tree)
        for (t, x) in pts:
            want = oracle(t, x)
            got = ex.evaluate(tree, t, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert fast(t, x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_vectorized_compile_matches_scalar():
    tree = ex.parse("(1+sin(t)^2)*x^5 + x^3")
    fv = ex.compile_vector_t(tree)
    fs = ex.compile_scalar(tree)
    ts = np.linspace(0, 7, 11)
    got = fv(ts, -2.5)
    want = np.array([fs(float(t), -2.5) for t in ts])
    assert np.allclose(got, want, rtol=1e-14)


def test_compiled_power_rejects_negative_base_naming_the_subtree():
    tree = ex.parse("1.5*x + 0.1*x^1.5 + 0.5*cos(t)")
    fast = ex.compile_scalar(tree)
    vec = ex.compile_vector_t(tree)
    ts = np.linspace(0.0, 1.0, 5)
    for f, t in ((fast, 0.0), (vec, ts)):
        with pytest.raises(ex.DomainError) as err:
            f(t, -1.0)
        assert "x^1.5" in str(err.value)
    # a non-integer exponent computed from a subexpression is checked too
    with pytest.raises(ex.DomainError, match=r"\(x - 2.0\)\^\(1.0/2.0\)"):
        ex.compile_scalar(ex.parse("(x-2)^(1/2)"))(0.0, 1.0)
    # on a non-negative base the checked power agrees with evaluate
    for x in (0.0, 0.25, 4.0):
        assert fast(0.3, x) == ex.evaluate(tree, 0.3, x)
        assert list(vec(ts, x)) == [ex.evaluate(tree, t, x) for t in ts]


def test_integer_literal_powers_compile_to_plain_pow():
    tree = ex.parse("(1+sin(t)^2)*x^5 + x^3 - 1/x^-2")
    for compiled in (ex.compile_scalar(tree), ex.compile_vector_t(tree)):
        assert "_pow" not in compiled.__code__.co_names
    # an integer-valued exponent from a subexpression takes any base
    fast = ex.compile_scalar(ex.parse("x^(1+1)"))
    assert "_pow" in fast.__code__.co_names
    assert fast(0.0, -3.0) == 9.0
