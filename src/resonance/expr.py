"""Parse and evaluate nonlinearity expressions f(t, x).

Grammar (precedence low to high; ^ binds tightest and is right-associative,
unary minus sits between * and ^):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 't' | 'x' | func '(' expr (',' expr)* ')' | '(' expr ')'

Known functions: sin, cos, abs, exp, log, log2 (one argument), min, max
(two).  Parsed trees are immutable; evaluation is reentrant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Neg", "Bin", "Call",
    "ParseError", "UnknownIdentifierError", "DomainError",
    "parse", "to_source", "evaluate", "compile_scalar", "compile_vector_t",
]

_FUNCS = {"sin": 1, "cos": 1, "abs": 1, "exp": 1, "log": 1, "log2": 1,
          "min": 2, "max": 2}
_VARS = ("t", "x")


class ParseError(ValueError):
    """Malformed expression; carries the byte offset and the expected tokens."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected {' or '.join(expected)}, "
            f"found {found!r}"
        )


class UnknownIdentifierError(ValueError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier {name!r} at offset {offset}")


class DomainError(ArithmeticError):
    """Evaluation left the domain; names the offending subtree."""

    def __init__(self, message: str, node: "Expr"):
        self.node = node
        super().__init__(f"{message} in subexpression {to_source(node)!r}")


@dataclass(frozen=True)
class Expr:
    span: tuple[int, int] = field(default=(0, 0), compare=False, kw_only=True)


@dataclass(frozen=True)
class Num(Expr):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Expr):
    name: str = "x"


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr = None


@dataclass(frozen=True)
class Bin(Expr):
    op: str = "+"
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Call(Expr):
    func: str = "sin"
    args: tuple[Expr, ...] = ()


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            off = n - len(stripped)
            raise ParseError(off, ("number", "identifier", "operator"), stripped[0])
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, off = self.peek()
        if kind == "op" and text == symbol:
            return self.advance()
        raise ParseError(off, (repr(symbol),), text or "<end>")

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(off, ("operator", "<end>"), text)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Bin(text, node, rhs, span=(node.span[0], rhs.span[1]))
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                node = Bin(text, node, rhs, span=(node.span[0], rhs.span[1]))
            else:
                return node

    def unary(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            operand = self.unary()
            return Neg(operand, span=(off, operand.span[1]))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.unary()
            return Bin("^", base, exponent, span=(base.span[0], exponent.span[1]))
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text), span=(off, off + len(text)))
        if kind == "ident":
            if text in _VARS:
                return Var(text, span=(off, off + len(text)))
            if text in _FUNCS:
                self.expect_op("(")
                args = [self.expr()]
                while True:
                    k2, t2, o2 = self.peek()
                    if k2 == "op" and t2 == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                closing = self.expect_op(")")
                if len(args) != _FUNCS[text]:
                    raise ParseError(
                        off, (f"{_FUNCS[text]} argument(s) to {text}",),
                        f"{len(args)} argument(s)")
                return Call(text, tuple(args), span=(off, closing[2] + 1))
            raise UnknownIdentifierError(text, off)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(off, ("number", "variable", "function", "'('"), text or "<end>")


def parse(source: str) -> Expr:
    """Parse a nonlinearity expression into an immutable tree."""
    return _Parser(source).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: Expr) -> int:
    if isinstance(node, (Num, Var, Call)):
        return _PREC["atom"]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC[node.op]


def to_source(node: Expr) -> str:
    """Pretty-print with minimal parentheses; parse(to_source(e)) == e."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_source(a) for a in node.args)})"
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    lhs, rhs = to_source(node.left), to_source(node.right)
    p = _PREC[node.op]
    if node.op == "^":
        # base must be an atom; exponent may be unary-or-tighter
        if _prec(node.left) < _PREC["atom"]:
            lhs = f"({lhs})"
        if _prec(node.right) < _PREC["neg"]:
            rhs = f"({rhs})"
    else:
        if _prec(node.left) < p:
            lhs = f"({lhs})"
        # left-associative chains: the right operand must bind strictly tighter
        if _prec(node.right) <= p:
            rhs = f"({rhs})"
    return f"{lhs} {node.op} {rhs}" if node.op in "+-" else f"{lhs}{node.op}{rhs}"


def _pow(base: float, exponent: float, node: Expr) -> float:
    if base < 0.0 and exponent != math.floor(exponent):
        raise DomainError("negative base with non-integer exponent", node)
    if base == 0.0 and exponent < 0.0:
        raise DomainError("zero raised to a negative power", node)
    try:
        return base ** exponent
    except OverflowError:
        raise DomainError("overflow", node) from None


def evaluate(node: Expr, t: float, x: float) -> float:
    """Tree-walking evaluation with domain checks naming the failing subtree."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t if node.name == "t" else x
    if isinstance(node, Neg):
        return -evaluate(node.operand, t, x)
    if isinstance(node, Call):
        args = [evaluate(a, t, x) for a in node.args]
        if node.func in ("log", "log2"):
            if args[0] <= 0.0:
                raise DomainError(f"{node.func} of a non-positive value", node)
            return math.log(args[0]) if node.func == "log" else math.log2(args[0])
        if node.func == "exp":
            try:
                return math.exp(args[0])
            except OverflowError:
                raise DomainError("overflow in exp", node) from None
        if node.func == "sin":
            return math.sin(args[0])
        if node.func == "cos":
            return math.cos(args[0])
        if node.func == "abs":
            return abs(args[0])
        if node.func == "min":
            return min(args)
        return max(args)
    left = evaluate(node.left, t, x)
    if node.op == "^":
        return _pow(left, evaluate(node.right, t, x), node)
    right = evaluate(node.right, t, x)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right == 0.0:
        raise DomainError("division by zero", node)
    return left / right


def _integer_literal(node: Expr) -> bool:
    if isinstance(node, Neg):
        node = node.operand
    return isinstance(node, Num) and node.value.is_integer()


def _pow_array(base, exponent, node: Expr):
    """Compiled vector ^ whose exponent is not an integer literal; numpy
    would give nan for a negative base."""
    if np.any((np.asarray(base) < 0.0)
              & (np.asarray(exponent) != np.floor(exponent))):
        raise DomainError("negative base with non-integer exponent", node)
    return base ** exponent


def _log_array(arg, node: Call):
    """Compiled vector log or log2; numpy would give nan or -inf for a
    non-positive argument."""
    if np.any(np.asarray(arg) <= 0.0):
        raise DomainError(f"{node.func} of a non-positive value", node)
    return np.log(arg) if node.func == "log" else np.log2(arg)


def _codegen(node: Expr, ns: str, checked: list) -> str:
    """Source of `node` over namespace `ns` ("math" or "np"); each ^ (and,
    over numpy, each log) that needs a domain check is appended to
    `checked` and named by index."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_codegen(node.operand, ns, checked)})"
    if isinstance(node, Call):
        args = ", ".join(_codegen(a, ns, checked) for a in node.args)
        if node.func in ("min", "max"):
            fn = {"min": "minimum", "max": "maximum"}[node.func] if ns == "np" else node.func
            return f"{fn}({args})" if ns != "np" else f"np.{fn}({args})"
        if node.func == "abs":
            return f"np.abs({args})" if ns == "np" else f"abs({args})"
        if ns == "np" and node.func in ("log", "log2"):
            checked.append(node)
            return f"_log({args}, _checked[{len(checked) - 1}])"
        return f"{ns}.{node.func}({args})"
    left = _codegen(node.left, ns, checked)
    right = _codegen(node.right, ns, checked)
    if node.op == "^":
        if _integer_literal(node.right):
            return f"({left})**({right})"
        checked.append(node)
        return f"_pow({left}, {right}, _checked[{len(checked) - 1}])"
    return f"({left} {node.op} {right})"


def _body(node: Expr, right: Expr | None, split: float, ns: str,
          checked: list) -> str:
    code = _codegen(node, ns, checked)
    if right is None:
        return code
    return f"({code}) if x < {split!r} else ({_codegen(right, ns, checked)})"


def compile_scalar(node: Expr, right: Expr | None = None, split: float = 0.0):
    """Compile to a fast scalar callable f(t, x) -> float.

    With `right`, the glued pair `node if x < split else right` becomes
    one callable.  Uses math.* so domain violations surface as
    ValueError / ZeroDivisionError / OverflowError, except that a ^ whose
    exponent is not an integer literal runs evaluate()'s checked power
    (Python would return a complex number for a negative base) and raises
    DomainError naming the subexpression.  The slower evaluate() names
    the offending subtree of the other violations when a diagnostic is
    needed.
    """
    checked: list = []
    src = f"lambda t, x: {_body(node, right, split, 'math', checked)}"
    return eval(src, {"math": math, "abs": abs, "min": min, "max": max,
                      "_pow": _pow, "_checked": tuple(checked)})


def compile_vector_t(node: Expr, right: Expr | None = None, split: float = 0.0):
    """Compile to f(t_array, x_scalar) -> array, vectorized over t; `right`
    and `split` glue a pair as in compile_scalar.  A ^ whose exponent is
    not an integer literal raises DomainError on a negative base, and log
    or log2 on a non-positive argument, as evaluate() does."""
    checked: list = []
    body = _body(node, right, split, "np", checked)
    src = f"lambda t, x: np.broadcast_to(({body}), np.shape(t)).astype(float)"
    return eval(src, {"np": np, "_pow": _pow_array, "_log": _log_array,
                      "_checked": tuple(checked)})
