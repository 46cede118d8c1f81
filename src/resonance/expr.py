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

A tree compiles to two forms, each generated once: compile_scalar, f(t, x)
on two numbers, which the integrator calls, and compile_grid, f at every
pair of an array of times and an array of x (a number being a 0-d one),
which every scan over t calls.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Neg", "Bin", "Call",
    "ParseError", "UnknownIdentifierError", "DomainError", "WallError",
    "parse", "to_source", "evaluate", "compile_scalar", "compile_grid",
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
    """Evaluation left the domain; names the offending subtree and, from
    the grid form, the point (t, x) at which it left."""

    def __init__(self, message: str, node: "Expr",
                 point: tuple[float, float] | None = None):
        self.reason, self.node, self.point = message, node, point
        text = f"{message} in subexpression {to_source(node)!r}"
        if point is not None:
            text += f" at t={point[0]:.6g}, x={point[1]:.6g}"
        super().__init__(text)


class WallError(ArithmeticError):
    """A field compiled with a wall (compile_scalar's `wall`) was
    evaluated at x <= 0: a singular-mode model is defined on x > 0 only."""


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
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(off, ("a finite number",), text)
            return Num(value, span=(off, off + len(text)))
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


def _codegen(node: Expr, checked: list) -> str:
    """Source of `node` over math.*; each ^ whose exponent is not an
    integer literal runs the checked _pow, its node appended to `checked`
    and named by index."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_codegen(node.operand, checked)})"
    if isinstance(node, Call):
        args = ", ".join(_codegen(a, checked) for a in node.args)
        if node.func in ("min", "max", "abs"):
            return f"{node.func}({args})"
        return f"math.{node.func}({args})"
    left = _codegen(node.left, checked)
    right = _codegen(node.right, checked)
    if node.op == "^":
        if _integer_literal(node.right):
            return f"({left})**({right})"
        checked.append(node)
        return f"_pow({left}, {right}, _checked[{len(checked) - 1}])"
    return f"({left} {node.op} {right})"


_SCALAR_NS = {"math": math, "abs": abs, "min": min, "max": max, "_pow": _pow,
              "WallError": WallError}


def compile_scalar(node: Expr, right: Expr | None = None, split: float = 0.0,
                   wall: bool = False):
    """Compile to a fast scalar callable f(t, x) -> float.

    With `right`, the glued pair `node if x < split else right` becomes
    one callable.  With `wall`, the callable tests x <= 0 before anything
    else and raises WallError there, the one comparison that keeps a
    singular-mode model on x > 0.  Uses math.* so domain violations
    surface as ValueError / ZeroDivisionError / OverflowError, except that
    a ^ whose exponent is not an integer literal runs evaluate()'s checked
    power (Python would return a complex number for a negative base) and
    raises DomainError naming the subexpression.  The slower evaluate()
    names the offending subtree of the other violations when a diagnostic
    is needed.
    """
    checked: list = []
    code = _codegen(node, checked)
    if right is not None:
        code = f"({code}) if x < {split!r} else ({_codegen(right, checked)})"
    guard = "    if x <= 0.0:\n        raise WallError\n" if wall else ""
    ns = dict(_SCALAR_NS, _checked=tuple(checked))
    exec(f"def f(t, x):\n{guard}    return {code}\n", ns)
    return ns.pop("f")      # not kept in its own globals: no reference cycle


# ---------------------------------------------------------------------------
# the (t, x) grid form
#
# The grid holds one column of values over t per x, stored x-major: over a
# row of x, the body sees x with one axis per axis of t appended, so the
# columns come out as result[k] and a reduction over t runs along memory.
# A subtree without t runs compile_scalar's own code once per x, so it
# rounds exactly as the scalar form (numpy's array power, exp and log
# differ from math.* and Python's pow in the last bit on some arguments).
# Only the subtrees with t run through numpy, broadcast against the x row.


def _first_point(bad, t, x) -> tuple[float, float]:
    """(t, x) of the first True cell of `bad` over the cells of t and x:
    the first x, then the first t."""
    bad, t, x = np.broadcast_arrays(bad, t, x)
    k = np.unravel_index(np.argmax(bad), bad.shape)
    return float(t[k]), float(x[k])


def _check(bad, message: str, node: Expr, t, x):
    """Raise DomainError at the first True cell of `bad`, a comparison's
    result (a bool where the operands are numbers)."""
    if bad is True or (bad is not False and bad.any()):
        raise DomainError(message, node, _first_point(bad, t, x))


def _tpow(base, exponent, node: Expr, t, x):
    """Array ^ with t whose exponent is not an integer literal; numpy
    would give nan or inf where evaluate() raises."""
    _check((base < 0.0) & (exponent != np.floor(exponent)),
           "negative base with non-integer exponent", node, t, x)
    _check((base == 0.0) & (exponent < 0.0),
           "zero raised to a negative power", node, t, x)
    return base ** exponent


def _tlog(arg, node: Call, t, x):
    _check(arg <= 0.0, f"{node.func} of a non-positive value", node, t, x)
    return np.log(arg) if node.func == "log" else np.log2(arg)


def _tdiv(num, den, node: Expr, t, x):
    _check(den == 0.0, "division by zero", node, t, x)
    return num / den


def _min(a, b):
    """Python's min(a, b), cell by cell: b only where b < a."""
    return np.where(b < a, b, a)


def _max(a, b):
    return np.where(b > a, b, a)


def _children(node: Expr) -> tuple:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Call):
        return node.args
    if isinstance(node, Bin):
        return (node.left, node.right)
    return ()


def _mark_t(node: Expr, with_t: set) -> bool:
    """Whether node depends on t; adds the id of every such subtree."""
    if isinstance(node, Var):
        has = node.name == "t"
    else:
        has = any([_mark_t(c, with_t) for c in _children(node)])
    if has:
        with_t.add(id(node))
    return has


class _GridCode:
    """The body of one tree over a t array and an x row.  A subtree
    without t is compile_scalar's code, and the k-th is the name _vk,
    computed first once per x."""

    def __init__(self, tree: Expr):
        self.with_t: set = set()
        _mark_t(tree, self.with_t)
        self.checked: list = []
        self.rows: list[str] = []

    def code(self, node: Expr) -> str:
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, Var):
            return node.name
        if id(node) not in self.with_t:
            self.rows.append(_codegen(node, self.checked))
            return f"_v{len(self.rows) - 1}"
        parts = [self.code(c) for c in _children(node)]
        if isinstance(node, Neg):
            form = "(-{0})"
        elif isinstance(node, Call) and node.func in ("log", "log2"):
            form = f"_tlog({{0}}, _checked[{self._check(node)}], t, x)"
        elif isinstance(node, Call):
            fn = {"min": "_min", "max": "_max"}.get(node.func,
                                                     f"np.{node.func}")
            args = ", ".join(f"{{{i}}}" for i in range(len(parts)))
            form = f"{fn}({args})"
        elif node.op == "^" and _integer_literal(node.right):
            form = "({0})**({1})"
        elif node.op in "^/":
            fn = "_tpow" if node.op == "^" else "_tdiv"
            form = f"{fn}({{0}}, {{1}}, _checked[{self._check(node)}], t, x)"
        else:
            form = f"({{0}} {node.op} {{1}})"
        return form.format(*parts)

    def _check(self, node: Expr) -> int:
        self.checked.append(node)
        return len(self.checked) - 1


_GRID_NS = dict(_SCALAR_NS, np=np, _tpow=_tpow, _tlog=_tlog, _tdiv=_tdiv,
                _min=_min, _max=_max)


def _grid_piece(tree: Expr) -> tuple:
    """(tree, body): the compiled body of a tree."""
    gen = _GridCode(tree)
    body = gen.code(tree)
    ns = dict(_GRID_NS, _checked=tuple(gen.checked))
    lines = "".join(f"    _v{i} = np.array([{src} for x in xs])"
                    ".reshape(x.shape)\n" for i, src in enumerate(gen.rows))
    exec(f"def body(t, x):\n    xs = x.ravel().tolist()\n{lines}"
         f"    return {body}\n", ns)
    return tree, ns["body"]


def _located(tree: Expr, err: Exception, t, xs) -> Exception:
    """The error to raise for err, which a grid body of `tree` raised at
    one of xs: the DomainError that evaluate() raises at the first time
    of t and the first x of xs where it raises one, with that point; err
    itself when it carries its point already or evaluate() raises none."""
    if isinstance(err, DomainError) and err.point is not None:
        return err
    t0 = float(t.flat[0]) if t.size else 0.0
    for x in np.ravel(xs).tolist():
        try:
            evaluate(tree, t0, x)
        except DomainError as e:
            return DomainError(e.reason, e.node, (t0, x))
    return err


def compile_grid(node: Expr, right: Expr | None = None, split: float = 0.0):
    """Compile to the grid form f(t, x) over every pair of a time and an x.

    t is an array of times and x an array of x, a number being a 0-d one:
    the result holds one column of values over t per x, an array of shape
    x.shape + t.shape whose k-th entry is the column at x[k] (the shape of
    t at a number x).  Each tree has one generated body, and every call
    runs it.  `right` and `split` glue a pair as in compile_scalar, and
    each piece is evaluated only on the x of its own side.

    Every value is float.hex-equal to compile_scalar's wherever numpy's
    array functions round as math.* does on the subtrees with t (see the
    comment above).  A domain violation raises DomainError naming the
    subexpression and the first offending point (t, x), taken x by x:
    log and log2 of a non-positive value, a ^ of a negative base with a
    non-integer exponent or of zero with a negative one, a division by
    zero, and on the subtrees without t, whatever compile_scalar raises.
    The result may be a read-only broadcast view.
    """
    trees = (node,) if right is None else (node, right)
    pieces: list = []       # compiled on the first call: many models never
                            # scan over t (the radial search's reduced fields)

    def row(piece, t, x):
        tree, body = piece
        try:
            out = body(t, x.reshape(x.shape + (1,) * t.ndim))
        except (ValueError, ArithmeticError) as err:
            raise _located(tree, err, t, x) from None
        shape = x.shape + t.shape
        return out if np.shape(out) == shape else np.broadcast_to(out, shape)

    def grid(t, x):
        if not pieces:
            pieces[:] = [_grid_piece(tree) for tree in trees]
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        left = x < split
        if right is None or left.all():
            return row(pieces[0], t, x)
        if not left.any():
            return row(pieces[-1], t, x)
        out = np.empty(x.shape + t.shape)
        out[left] = row(pieces[0], t, x[left])
        out[~left] = row(pieces[-1], t, x[~left])
        return out

    return grid
