"""A tiny expression language for functions of one variable ``t``.

Grammar (no implicit multiplication, ``^`` binds tighter than unary minus
and is right-associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 't' | 'i' | NAME '(' expr ')' | '(' expr ')'

Exponents must evaluate to real constants at parse time.  Supported calls:
exp, log, sin, cos, sqrt (all principal branch).  Inputs are limited to
4096 characters, a tree depth of 64 and a nesting of 128 (parentheses,
calls, unary minus and exponents each open one level; bare parentheses add
no tree depth).  The parser is the only place that checks a tree: each rule
returns its node with that node's depth, and it counts the reads of ``t``
so that an exponent depending on t is refused as it is read.

``compile_expr`` is the one evaluator: ``evaluate`` compiles the tree and
checks that the value is finite, and every value of p comes from a
compiled closure.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Union

from .errors import (
    DepthExceeded,
    EvalDomain,
    ExprSyntaxError,
    LogOfZero,
    NonFiniteValue,
    UnknownFunction,
)
from .multivalue import principal_log

MAX_SOURCE_LEN = 4096
MAX_DEPTH = 64

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float  # real constant by construction


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Expr"


Expr = Union[Const, Var, Add, Sub, Mul, Div, Pow, Neg, Call]

_DIGITS = "0123456789"
_NAME_START = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_NAME_CONT = _NAME_START + _DIGITS


class _Parser:
    """Recursive descent; each rule returns ``(node, depth of node)``."""

    # nesting guard: generous bound that still keeps Python recursion safe;
    # the tree depth limit is checked by ``parse`` once the text is read
    MAX_NEST = 128

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nest = 0
        self.reads = 0  # occurrences of t read so far

    def fail(self, message: str, offset: int | None = None):
        raise ExprSyntaxError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def enter(self):
        self.nest += 1
        if self.nest > self.MAX_NEST:
            raise DepthExceeded(f"expression nesting exceeds {self.MAX_NEST}")

    def leave(self):
        self.nest -= 1

    def parse(self) -> tuple[Expr, int]:
        node, d = self.additive()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail(f"unexpected character {self.text[self.pos]!r}")
        return node, d

    def additive(self) -> tuple[Expr, int]:
        node, d = self.term()
        while True:
            op = Add if self.take("+") else Sub if self.take("-") else None
            if op is None:
                return node, d
            right, rd = self.term()
            node, d = op(node, right), 1 + max(d, rd)

    def term(self) -> tuple[Expr, int]:
        node, d = self.unary()
        while True:
            op = Mul if self.take("*") else Div if self.take("/") else None
            if op is None:
                return node, d
            right, rd = self.unary()
            node, d = op(node, right), 1 + max(d, rd)

    def unary(self) -> tuple[Expr, int]:
        if self.take("-"):
            self.enter()
            try:
                node, d = self.unary()
            finally:
                self.leave()
            return Neg(node), 1 + d
        return self.power()

    def power(self) -> tuple[Expr, int]:
        node, d = self.atom()
        self.skip_ws()
        caret = self.pos
        if self.take("^"):
            reads = self.reads
            self.enter()
            try:
                exponent_tree, _ = self.unary()
            finally:
                self.leave()
            if self.reads != reads:
                self.fail("exponent must be a real constant, not a function of t", caret)
            # the exponent folds to a constant, so only the base adds depth
            return Pow(node, self._constant_exponent(exponent_tree, caret)), 1 + d
        return node, d

    def _constant_exponent(self, tree: Expr, offset: int) -> float:
        try:
            value = evaluate(tree, 0j)
        except Exception:  # a domain error, or an exponent too deep to compile
            self.fail("exponent must evaluate to a real constant", offset)
        if value.imag != 0.0:
            self.fail("exponent must be real", offset)
        return float(value.real)

    def atom(self) -> tuple[Expr, int]:
        ch = self.peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            return self.group()  # bare parentheses add no tree depth
        if ch in _DIGITS or ch == ".":
            return Const(complex(self._number())), 1
        if ch in _NAME_START:
            name = self._name()
            if name == "t":
                self.reads += 1
                return Var(), 1
            if name == "i":
                return Const(1j), 1
            if self.take("("):
                if name not in FUNCTIONS:
                    raise UnknownFunction(f"unknown function {name!r}", start)
                arg, d = self.group()
                return Call(name, arg), 1 + d
            if name in FUNCTIONS:
                self.fail(f"expected '(' after function name {name!r}", start)
            self.fail(f"unknown identifier {name!r}", start)
        self.fail("expected a number, name, or '('")

    def group(self) -> tuple[Expr, int]:
        # the expression after an opening '(' and its ')', one level deeper
        self.enter()
        try:
            inner = self.additive()
        finally:
            self.leave()
        if not self.take(")"):
            self.fail("expected ')'")
        return inner

    def _name(self) -> str:
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos] in _NAME_CONT:
            self.pos += 1
        return text[start : self.pos]

    def _number(self) -> float:
        start = self.pos
        text = self.text
        n = len(text)
        while self.pos < n and text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos < n and text[self.pos] == ".":
            self.pos += 1
            while self.pos < n and text[self.pos] in _DIGITS:
                self.pos += 1
        if self.pos < n and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and text[self.pos] in _DIGITS:
                while self.pos < n and text[self.pos] in _DIGITS:
                    self.pos += 1
            else:
                self.pos = mark  # 'e' belonged to something else; not ours
        lexeme = text[start : self.pos]
        try:
            return float(lexeme)
        except ValueError:
            self.fail(f"bad number literal {lexeme!r}", start)


def parse(text: str) -> Expr:
    """Parse expression text into a tree, enforcing size and depth limits."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    if len(text) > MAX_SOURCE_LEN:
        raise ExprSyntaxError(f"expression longer than {MAX_SOURCE_LEN} characters", MAX_SOURCE_LEN)
    tree, d = _Parser(text).parse()
    if d > MAX_DEPTH:
        raise DepthExceeded(f"expression tree deeper than {MAX_DEPTH}")
    return tree


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _pow_value(z: complex, a: float) -> complex:
    if z == 0:
        if a < 0:
            raise EvalDomain("0 raised to a negative power")
        return 1 + 0j if a == 0 else 0j
    # native complex pow multiplies exactly for small integer exponents;
    # beyond that it switches to polar form, same as the principal formula
    if a == int(a) and abs(a) <= 100:
        a = int(a)
    elif z.imag == 0.0:
        z = complex(z.real, 0.0)  # keep -0.0 off the branch cut
    try:
        return z ** a
    except OverflowError as e:
        raise NonFiniteValue(f"overflow in {z!r} ** {a}") from e
    except ZeroDivisionError as e:
        raise EvalDomain(f"division by zero in {z!r} ** {a}") from e


def _call_value(name: str, v: complex) -> complex:
    try:
        if name == "exp":
            return cmath.exp(v)
        if name == "log":
            try:
                return principal_log(v)
            except LogOfZero as e:
                raise EvalDomain("log of zero") from e
        if name == "sin":
            return cmath.sin(v)
        if name == "cos":
            return cmath.cos(v)
        if name == "sqrt":
            if v.imag == 0.0:
                v = complex(v.real, 0.0)
            return cmath.sqrt(v)
    except OverflowError as e:
        raise NonFiniteValue(f"overflow in {name}({v!r})") from e
    except ValueError as e:
        raise EvalDomain(f"{name} undefined at {v!r}") from e
    raise ValueError(f"no such function {name!r}")


def evaluate(e: Expr, t: complex) -> complex:
    """Evaluate the tree at t; non-finite results raise NonFiniteValue."""
    v = compile_expr(e)(complex(t))
    if not cmath.isfinite(v):
        raise NonFiniteValue(f"expression not finite at t={t}")
    return v


def compile_expr(e: Expr) -> Callable[[complex], complex]:
    """Build a closure computing the value of the tree at a complex t.

    This is the only evaluator.  The caller is responsible for finiteness
    checks on the result (``evaluate`` is compile plus that check).
    """
    if isinstance(e, Const):
        v = e.value
        return lambda t: v
    if isinstance(e, Var):
        return lambda t: t
    if isinstance(e, (Add, Sub, Mul, Div)):
        f = compile_expr(e.left)
        g = compile_expr(e.right)
        if isinstance(e, Add):
            return lambda t: f(t) + g(t)
        if isinstance(e, Sub):
            return lambda t: f(t) - g(t)
        if isinstance(e, Mul):
            return lambda t: f(t) * g(t)

        def _div(t):
            try:
                return f(t) / g(t)
            except ZeroDivisionError as exc:
                raise EvalDomain(f"division by zero at t={t}") from exc

        return _div
    if isinstance(e, Pow):
        f = compile_expr(e.base)
        a = e.exponent
        return lambda t: _pow_value(f(t), a)
    if isinstance(e, Neg):
        f = compile_expr(e.operand)
        return lambda t: -f(t)
    f = compile_expr(e.arg)
    name = e.name
    return lambda t: _call_value(name, f(t))


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative with respect to t (classical calculus rules)."""
    if isinstance(e, Const):
        return Const(0j)
    if isinstance(e, Var):
        return Const(1 + 0j)
    if isinstance(e, Add):
        return Add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return Sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return Add(
            Mul(differentiate(e.left), e.right),
            Mul(e.left, differentiate(e.right)),
        )
    if isinstance(e, Div):
        num = Sub(
            Mul(differentiate(e.left), e.right),
            Mul(e.left, differentiate(e.right)),
        )
        return Div(num, Pow(e.right, 2.0))
    if isinstance(e, Pow):
        if e.exponent == 0.0:
            return Const(0j)
        du = differentiate(e.base)
        scaled = Mul(Const(complex(e.exponent)), Pow(e.base, e.exponent - 1.0))
        return Mul(scaled, du)
    if isinstance(e, Neg):
        return Neg(differentiate(e.operand))
    du = differentiate(e.arg)
    if e.name == "exp":
        return Mul(Call("exp", e.arg), du)
    if e.name == "log":
        return Div(du, e.arg)
    if e.name == "sin":
        return Mul(Call("cos", e.arg), du)
    if e.name == "cos":
        return Neg(Mul(Call("sin", e.arg), du))
    if e.name == "sqrt":
        return Div(du, Mul(Const(2 + 0j), Call("sqrt", e.arg)))
    raise ValueError(f"no derivative rule for {e.name!r}")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _const_text(c: complex) -> tuple[str, int]:
    if c.imag == 0.0:
        re = c.real
        text = repr(re)
        return text, (_PREC_ATOM if re >= 0 else _PREC_NEG)
    if c.real == 0.0:
        if c.imag == 1.0:
            return "i", _PREC_ATOM
        return f"{c.imag!r}*i", _PREC_MUL
    op = "+" if c.imag >= 0 else "-"
    return f"({c.real!r}{op}{abs(c.imag)!r}*i)", _PREC_ATOM


def _fmt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        return _const_text(e.value)
    if isinstance(e, Var):
        return "t", _PREC_ATOM
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        lt, lp = _fmt(e.left)
        rt, rp = _fmt(e.right)
        left = lt if lp >= _PREC_ADD else f"({lt})"
        right = rt if rp > _PREC_ADD else f"({rt})"
        return f"{left}{op}{right}", _PREC_ADD
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        lt, lp = _fmt(e.left)
        rt, rp = _fmt(e.right)
        left = lt if lp >= _PREC_MUL else f"({lt})"
        right = rt if rp > _PREC_MUL else f"({rt})"
        return f"{left}{op}{right}", _PREC_MUL
    if isinstance(e, Pow):
        bt, bp = _fmt(e.base)
        base = bt if bp >= _PREC_ATOM else f"({bt})"
        etext = repr(e.exponent)
        if e.exponent < 0:
            etext = f"({etext})"
        return f"{base}^{etext}", _PREC_POW
    if isinstance(e, Neg):
        ot, op_ = _fmt(e.operand)
        inner = ot if op_ >= _PREC_NEG else f"({ot})"
        return f"-{inner}", _PREC_NEG
    at, _ = _fmt(e.arg)
    return f"{e.name}({at})", _PREC_ATOM


def to_text(e: Expr) -> str:
    """Render the tree as parseable text (round-trips to an equal value)."""
    return _fmt(e)[0]
