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

Trees are evaluated by generated code: ``compile_expr`` and
``ScaleFunction`` write Python source with one assignment per distinct
node, fold the subtrees that read no t, and compile it once per shape of
tree (constants reach the code through its namespace, never as text).
``ScaleFunction``, a p with its derivative, gets four functions from one
program: p, p' and both at once, computing what the two trees share once,
and ``box``, a box (x_lo, x_hi, y_lo, y_hi) that holds p at every float of
a real segment of t (complex interval arithmetic in rectangular form, one
rule per op in ``_BOX``, next to ``_APPLY``, each widened past its own
rounding and p's), and checks that its values are finite.  ``evaluate``
compiles the tree and checks that the value is finite.
The generated code raises the typed errors that a walk of the tree would,
with the same messages, and returns the same bits.  It calls no Python
helper for an integer power or for exp, sin and cos, so it raises bare
Python errors; when it does, its own steps are replayed at the same
argument through ``_APPLY``, the table that also folds constants, which
raises the typed error.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache, partial
from types import CodeType
from typing import Callable, Union

from ._record import Record
from .errors import (
    ChronologError,
    DepthExceeded,
    EvalDomain,
    ExprSyntaxError,
    LogOfZero,
    NonFiniteValue,
    UnknownFunction,
    ValidationError,
)
from .multivalue import principal_log

MAX_SOURCE_LEN = 4096
MAX_DEPTH = 64

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


class Const(Record):
    __slots__ = ("value",)  # complex


class Var(Record):
    __slots__ = ()


class Add(Record):
    __slots__ = ("left", "right")


class Sub(Record):
    __slots__ = ("left", "right")


class Mul(Record):
    __slots__ = ("left", "right")


class Div(Record):
    __slots__ = ("left", "right")


class Pow(Record):
    __slots__ = ("base", "exponent")  # the exponent a real constant by construction

    def __post_init__(self):
        if not cmath.isfinite(self.exponent):
            raise ValidationError(f"exponent must be finite, got {self.exponent!r}")


class Neg(Record):
    __slots__ = ("operand",)


class Call(Record):
    __slots__ = ("name", "arg")


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
                exponent_tree, depth = self.unary()
            finally:
                self.leave()
            if self.reads != reads:
                self.fail("exponent must be a real constant, not a function of t", caret)
            # the exponent folds to a constant, so only the base adds depth
            return Pow(node, self._constant_exponent(exponent_tree, depth, caret)), 1 + d
        return node, d

    def _constant_exponent(self, tree: Expr, depth: int, offset: int) -> float:
        # the tree reads no t, so the constant folder computes it whole; a
        # node left unfolded is one that raised
        prog = _Program()
        try:
            value = prog.consts.get(prog.node(tree))
        except RecursionError:
            raise DepthExceeded(f"exponent tree of depth {depth} is too deep to fold") from None
        if value is None or not cmath.isfinite(value):
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


# a step's calls and powers, with the typed errors and messages they raise:
# generated code calls _pow (for a non-integer exponent or a zero base), _log
# and _sqrt from here, and the replay of a failure calls all of them
_HELPERS = {"_pow": _pow_value, **{"_" + name: partial(_call_value, name) for name in FUNCTIONS}}
# the cmath functions that generated code calls directly: they have no branch
# cut or zero of their own to keep, only failures for the replay to type
_DIRECT = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos}
_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_BINARY_OPS = frozenset(_BINARY.values())
# what a step computes, for constant folding and for the replay of a failure
_APPLY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "neg": operator.neg,
    "**": _pow_value,
    **_HELPERS,
}

# The box of each step's value over boxes of its operands, for ``box``: a box
# (x_lo, x_hi, y_lo, y_hi) holds every x + iy with x and y in those ranges.
# A rule takes its operands' boxes (an exponent as it is) and holds the exact
# op over them; ``_out`` then widens each endpoint outward by 2^-40 of the
# largest magnitude m that entered it (not of the result: X^2 - Y^2 can
# cancel), plus 1e-300 for underflow.  That bounds the rounding of the rule's
# own endpoints and of ``value``'s line, a few ulps of m in each comment
# below, so ``value`` at every float t of the segment lies in every box.  A
# rule raises where it meets a singularity, as does an endpoint not finite.
_WIDTH = 2.0**-40
_ONE = (1.0, 1.0, 0.0, 0.0)


def _out(xl: float, xh: float, yl: float, yh: float, m: float) -> tuple:
    w = m * _WIDTH + 1e-300
    box = xl - w, xh + w, yl - w, yh + w
    if math.isfinite(sum(box)):  # an inf or a nan anywhere makes the sum one
        return box
    raise OverflowError("a box endpoint is not finite")


def _mul(al: float, ah: float, bl: float, bh: float) -> tuple[float, float]:
    # the interval product [al, ah] * [bl, bh]; by a point, two products
    if al == ah:
        return (al * bl, al * bh) if al >= 0.0 else (al * bh, al * bl)
    if bl == bh:
        return (al * bl, ah * bl) if bl >= 0.0 else (ah * bl, al * bl)
    p, q, r, s = al * bl, al * bh, ah * bl, ah * bh
    return min(p, q, r, s), max(p, q, r, s)


def _sq(lo: float, hi: float) -> tuple[float, float]:
    # the interval square, from 0 where [lo, hi] holds it
    return (lo * lo, hi * hi) if lo >= 0.0 else (hi * hi, lo * lo) if hi <= 0.0 else (0.0, max(lo * lo, hi * hi))


def _wave(f: Callable, lo: float, hi: float, top: int) -> tuple[float, float]:
    # the range of f = cos (top 0) or sin (top 1) over [lo, hi]: f at the
    # ends, and 1 (-1) at each multiple k pi/2 in [lo, hi] with k = top
    # (top + 2) mod 4.  k's range is widened by 2^-40 (|lo| + |hi|), so that
    # the rounding of x 2/pi can add an extremum but never drop one
    w = (abs(lo) + abs(hi)) * _WIDTH
    k0, k1 = math.ceil(lo * (2.0 / math.pi) - w), math.floor(hi * (2.0 / math.pi) + w)
    if k1 - k0 >= 3:
        return -1.0, 1.0
    fl, fh = f(lo), f(hi)
    if fh < fl:
        fl, fh = fh, fl
    for k in range(k0, k1 + 1):
        fl, fh = -1.0 if k % 4 == top + 2 else fl, 1.0 if k % 4 == top else fh
    return fl, fh


def _polar(rl: float, rh: float, pl: float, ph: float, m: float) -> tuple:
    # r (cos p + i sin p) for r in [rl, rh] >= 0 and p in [pl, ph]
    return _out(*_mul(rl, rh, *_wave(math.cos, pl, ph, 0)), *_mul(rl, rh, *_wave(math.sin, pl, ph, 1)), m)


def _box_add(a: tuple, b: tuple) -> tuple:
    # interval sums; value rounds by 1 ulp of m
    (xl, xh, yl, yh), (ul, uh, vl, vh) = a, b
    return _out(xl + ul, xh + uh, yl + vl, yh + vh, max(-xl, xh, -yl, yh, -ul, uh, -vl, vh))


def _box_mul(a: tuple, b: tuple) -> tuple:
    # (x + iy)(u + iv) = (xu - yv) + i(xv + yu) from interval products; a
    # step times itself from interval squares, (x^2 - y^2) + 2ixy, so that a
    # box about 0 squares to x^2 >= 0.  Each part of a complex product
    # rounds by < 3 ulps of m, the largest product
    (xl, xh, yl, yh), (ul, uh, vl, vh) = a, b
    if a is b:
        (xul, xuh), (yvl, yvh) = _sq(xl, xh), _sq(yl, yh)
        xvl, xvh = yul, yuh = _mul(xl, xh, yl, yh)
    else:
        (xul, xuh), (yvl, yvh) = _mul(xl, xh, ul, uh), _mul(yl, yh, vl, vh)
        (xvl, xvh), (yul, yuh) = _mul(xl, xh, vl, vh), _mul(yl, yh, ul, uh)
    m = max(-xul, xuh, -yvl, yvh, -xvl, xvh, -yul, yuh)
    return _out(xul - yvh, xuh - yvl, xvl + yul, xvh + yuh, m)


def _box_div(a: tuple, b: tuple) -> tuple:
    # a conj(b)/|b|^2, refused where b's box holds 0 (or |b|^2 nears the
    # subnormals); 1/|b|^2 rounds by < 4 ulps, a complex quotient by < 6
    # ulps of |a/b| < 4 m
    (x2l, x2h), (y2l, y2h) = _sq(*b[:2]), _sq(*b[2:])
    if not x2l + y2l > 1e-290:
        raise ZeroDivisionError("the divisor's box holds 0")
    u, v = 1.0 / (x2h + y2h), 1.0 / (x2l + y2l)
    (rl, rh), (il, ih) = _mul(*b[:2], u, v), _mul(*b[2:], u, v)
    return _box_mul(a, _out(rl, rh, -ih, -il, max(-rl, rh, -il, ih)))


def _box_ipow(a: tuple, n: int) -> tuple:
    # x^n by squares and products, 1/x^|n| for n < 0; value's powering
    # rounds by < 8n ulps of m in all, whatever the order of its products
    if n < 0:
        return _box_div(_ONE, _box_ipow(a, -n))
    if n < 2:
        return a if n else _ONE
    r = _box_ipow(_box_mul(a, a), n // 2)
    return _box_mul(a, r) if n % 2 else r


def _off_cut(a: tuple) -> tuple[float, float, float, float]:
    # the modulus range and the Arg range of a box off the cut (-inf, 0]
    # (and off 0 by 1e-290, where log raises): its nearest and farthest
    # points, and Arg at the corners, where it has its extremes
    xl, xh, yl, yh = a
    near = math.hypot(xl if xl > 0.0 else xh if xh < 0.0 else 0.0, yl if yl > 0.0 else yh if yh < 0.0 else 0.0)
    if xl <= 0.0 and yl <= 0.0 <= yh or not near > 1e-290:
        raise ValueError("the box meets the cut")
    args = [math.atan2(y, x) for x in (xl, xh) for y in (yl, yh)]
    return near, math.hypot(max(-xl, xh), max(-yl, yh)), min(args), max(args)


def _box_pow(a: tuple, n: float) -> tuple:
    # the principal x^n = |x|^n e^(i n Arg x); CPython's polar power rounds
    # by < (8|n| + 4) ulps of |x^n|, under 2^12 ulps of m = max|x^n| max(1, |n|)
    near, far, lo, hi = _off_cut(a)
    (rl, rh), (pl, ph) = sorted((near**n, far**n)), sorted((n * lo, n * hi))
    return _polar(rl, rh, pl, ph, rh * max(1.0, abs(n)))


def _box_log(a: tuple) -> tuple:
    # ln|x| + i Arg x; the ln of a modulus that rounds by an ulp is off by an
    # ulp of 1, so 1 enters m too; cmath.log rounds by < 3 ulps
    near, far, lo, hi = _off_cut(a)
    rl, rh = math.log(near), math.log(far)
    return _out(rl, rh, lo, hi, max(1.0, -rl, rh, -lo, hi))


def _box_sin(a: tuple, cos: bool = False) -> tuple:
    # sin(x + iy) = sin x cosh y + i cos x sinh y, and cos(x + iy) =
    # cos x cosh y - i sin x sinh y; cmath rounds by < 4 ulps of cosh y_hi
    yl, yh = a[2:]
    ch = (1.0 if yl <= 0.0 <= yh else math.cosh(min(-yl, yh))), math.cosh(max(-yl, yh))
    re = _mul(*_wave(math.cos if cos else math.sin, *a[:2], 1 - cos), *ch)
    il, ih = _mul(*_wave(math.sin if cos else math.cos, *a[:2], cos), math.sinh(yl), math.sinh(yh))
    return _out(*re, *((-ih, -il) if cos else (il, ih)), ch[1])


_BOX = {
    "+": _box_add,
    "-": lambda a, b: _box_add(a, (-b[1], -b[0], -b[3], -b[2])),
    "neg": lambda a: (-a[1], -a[0], -a[3], -a[2]),  # exact
    "*": _box_mul,
    "/": _box_div,
    "**": _box_ipow,
    "_pow": _box_pow,
    "_sqrt": partial(_box_pow, n=0.5),
    "_log": _box_log,
    # e^x (cos y + i sin y); cmath.exp rounds by < 4 ulps of e^x_hi
    "_exp": lambda a: _polar(math.exp(a[0]), math.exp(a[1]), *a[2:], math.exp(a[1])),
    "_sin": _box_sin,
    "_cos": partial(_box_sin, cos=True),
}

# compiled sources kept for reuse: a source depends only on a tree's shape,
# so every p of one shape shares its code objects
_CODE_MEMO_SIZE = 64


class _Program:
    """Straight-line code for some trees: one assignment per distinct node.

    A name is ``t``, ``cK`` for a constant or ``vK`` for the K-th computed
    node.  Constants reach the code through its namespace (``consts``) and
    are never written into the source, so the source depends only on the
    trees' shape.  A node whose operands are all constants is computed here,
    by the operation the code would run on the same values; one that raises
    is left in the code, to raise at run time with its usual message.
    Nothing else is simplified: ``x*0`` or ``x+0`` can change the sign of a
    zero, or an inf into a nan.

    Steps are made in the post-order of the trees passed to ``node``, one
    tree after the other, each step at its first use: the order in which
    evaluating those trees reaches them, so that the first step to raise is
    the one that evaluating the trees would raise first.

    The code calls no Python helper for an integer power or for exp, sin
    and cos: an exponent that ``_pow_value`` would turn into an int
    (integral, at most 100 in size) is made one here and the power written
    ``b ** n``, and the three calls go to cmath directly.  A zero base, of
    either sign, still goes to ``_pow_value``, which gives 0j or 1 where
    ``**`` can give a zero of another sign.  When anything in the code
    raises a bare ``ArithmeticError`` or ``ValueError``, ``_rerun`` replays
    its steps at the same argument through ``_APPLY``: the steps before the
    failure compute the same bits both ways, so the replay raises the typed
    error, with its message, that a walk of the tree would raise first.
    """

    def __init__(self):
        self.consts: dict[str, object] = {}
        self.steps: dict[str, tuple[str, tuple[str, ...]]] = {}  # name -> (op, operands)
        self._names: dict[tuple, str] = {}

    def const(self, value) -> str:
        # keyed by repr, which tells -0.0 from 0.0 where == does not
        key = (type(value), repr(value))
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"c{len(self.consts)}"
            self.consts[name] = value
        return name

    def node(self, e: Expr) -> str:
        """The name that holds the value of e."""
        if isinstance(e, Var):
            return "t"
        if isinstance(e, Const):
            return self.const(e.value)
        if isinstance(e, Pow):
            a = e.exponent
            if float(a).is_integer() and abs(a) <= 100:
                # the exponent that _pow_value would make an int, made one here
                op, args = "**", (self.node(e.base), self.const(int(a)))
            else:
                op, args = "_pow", (self.node(e.base), self.const(a))
        elif isinstance(e, Neg):
            op, args = "neg", (self.node(e.operand),)
        elif isinstance(e, Call):
            if e.name not in FUNCTIONS:
                raise ValueError(f"no such function {e.name!r}")
            op, args = "_" + e.name, (self.node(e.arg),)
        else:
            op, args = _BINARY[type(e)], (self.node(e.left), self.node(e.right))
        key = (op, args)
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = self._fold(op, args) or self._step(op, args)
        return name

    def _fold(self, op: str, args: tuple[str, ...]) -> str | None:
        consts = self.consts
        if args[0] in consts and args[-1] in consts:
            try:
                return self.const(_APPLY[op](*[consts[a] for a in args]))
            except (ArithmeticError, ChronologError):
                pass
        return None

    def _step(self, op: str, args: tuple[str, ...]) -> str:
        name = f"v{len(self.steps)}"
        self.steps[name] = (op, args)
        return name

    def post_order(self, root: str) -> list[str]:
        """The steps that the value of ``root`` needs, in the order its
        tree's own evaluation reaches them."""
        order: list[str] = []

        def visit(name: str) -> None:
            if name in self.steps and name not in seen:
                seen.add(name)
                for a in self.steps[name][1]:
                    visit(a)
                order.append(name)

        seen: set[str] = set()
        visit(root)
        return order

    def _line(self, name: str) -> str:
        op, args = self.steps[name]
        if op in _BINARY_OPS:
            text = f"{args[0]} {op} {args[1]}"
        elif op == "neg":
            text = f"-{args[0]}"
        elif op == "**":
            # a zero base, of either sign, goes to _pow_value for its 0j or 1
            base, n = args
            text = f"{base} ** {n} if {base} else _pow({base}, {n})"
        elif op[1:] in _DIRECT:
            text = f"{op[1:]}({args[0]})"
        else:
            text = f"{op}({', '.join(args)})"
        return f"        {name} = {text}"

    def source(self, fname: str, results: tuple[str, ...], steps) -> tuple[str, tuple]:
        """The source of ``def fname(t)``, which runs the named steps in
        turn and returns ``results``, with the replay that ``_rerun`` runs
        when anything in it raises: the steps as ``(name, op, args)`` and a
        getter of the results."""
        lines = [f"def {fname}(t):", "    try:", *[self._line(s) for s in steps], f"        return {', '.join(results)}"]
        lines += ["    except (ArithmeticError, ValueError):", "        pass", "    return _rerun(globals(), t)"]
        return "\n".join(lines) + "\n", (tuple((s, *self.steps[s]) for s in steps), operator.itemgetter(*results))

    def box_source(self, root: str) -> tuple[str, None]:
        """The source of ``def box(a, b)``: from t's box [a, b] x [0, 0],
        one line per step of ``value`` for root, the op's rule in ``_BOX``
        on its operands' boxes, returning root's box (checked by ``_out``
        where root is t or a constant), or None where a line raises, an
        endpoint is not finite or an op has no rule."""
        lines = ["def box(a, b):", "    t = a, b, 0.0, 0.0", "    try:"]
        for name in self.post_order(root):
            op, args = self.steps[name]
            lines.append(f"        {name} = _BOX[{op!r}]({', '.join(args)})")
        lines.append(f"        return {root if root in self.steps else f'_out(*{root}, 0.0)'}")
        lines += ["    except (ArithmeticError, LookupError, ValueError):", "        return None"]
        return "\n".join(lines) + "\n", None


@lru_cache(maxsize=_CODE_MEMO_SIZE)
def _code(source: str) -> CodeType:
    return compile(source, "<chronolog.expr>", "exec")


def _function(source: str, replay: tuple, fname: str, consts: dict) -> Callable:
    # the function fname of the source, in a namespace of the constants, the
    # helpers and its replay
    namespace = {**_HELPERS, **_DIRECT, **consts, "_rerun": _rerun, "_replay": replay}
    exec(_code(source), namespace)
    return namespace[fname]


def _rerun(namespace: dict, t: complex):
    # the steps of a generated function that failed at t, replayed one by
    # one through _APPLY, which types what the code raised bare; a division
    # by zero is the one failure that no step types itself
    steps, results = namespace["_replay"]
    env = {**namespace, "t": t}
    try:
        for name, op, args in steps:
            env[name] = _APPLY[op](*[env[a] for a in args])
    except ZeroDivisionError as e:
        raise EvalDomain(f"division by zero at t={t}") from e
    return results(env)


def evaluate(e: Expr, t: complex) -> complex:
    """Evaluate the tree at t; non-finite results raise NonFiniteValue."""
    v = compile_expr(e)(complex(t))
    if not cmath.isfinite(v):
        raise NonFiniteValue(f"expression not finite at t={t}")
    return v


def compile_expr(e: Expr) -> Callable[[complex], complex]:
    """Build a function computing the value of the tree at a complex t.

    The caller is responsible for finiteness checks on the result
    (``evaluate`` is compile plus that check).
    """
    prog = _Program()
    root = prog.node(e)
    return _function(*prog.source("value", (root,), prog.steps), "value", prog.consts)


class ScaleFunction:
    """A function p of t given by an expression tree, with its derivative.

    The symbolic derivative supplies the classical derivative wherever the
    scale is dense; difference quotients take over at scattered points.
    ``p(t)`` and ``prime(t)`` give p and p', ``pair`` both from one
    evaluation, and ``box`` a box that holds p over a real segment.  Values
    must stay finite; callers that take logarithms additionally check the
    nonvanishing floor.

    The four come from generated functions of one program for the tree and
    its derivative, so ``pair`` computes each subexpression the two trees
    share once, and ``box`` runs one rule of ``_BOX`` per step of p.  The
    first use of any of them builds the program and writes the four sources
    with their replays (see ``_Program``), keeping only those and the
    constants; each function is compiled into its slot on its first use
    (``_compiled``), from its own source, which is then dropped: compiling
    costs more than writing, and most p use one or two of the four.  The generated pair runs the
    derivative's steps first, so it raises what p' would raise before what
    p would.  At a complex t every value is complex, a constant tree's too.
    """

    __slots__ = ("body", "derivative", "label", "_consts", "_sources", "_value", "_prime", "_pair", "_box")

    def __init__(self, body: Expr, derivative: Expr | None = None, label: str = ""):
        self.body = body
        self.derivative = differentiate(body) if derivative is None else derivative
        self.label = label or to_text(body)
        self._sources: dict[str, tuple[str, tuple]] | None = None
        self._value = self._prime = self._pair = self._box = None

    @classmethod
    def from_text(cls, text: str) -> "ScaleFunction":
        return cls(parse(text), label=text.strip())

    def _compiled(self, fname: str) -> Callable:
        """The generated function ``fname`` (value, prime, pair or box),
        unchecked, compiled into its slot on its first use."""
        fn = getattr(self, "_" + fname)
        if fn is not None:
            return fn
        if self._sources is None:
            prog = _Program()
            d = prog.node(self.derivative)
            prime_steps = list(prog.steps)
            p = prog.node(self.body)
            # a constant tree's value is returned complex, like every other
            p, d = (prog.const(complex(prog.consts[r])) if r in prog.consts else r for r in (p, d))
            self._consts = prog.consts
            self._sources = {
                "value": prog.source("value", (p,), prog.post_order(p)),
                "prime": prog.source("prime", (d,), prime_steps),
                "pair": prog.source("pair", (p, d), prog.steps),
                "box": prog.box_source(p),
            }
        consts = self._consts
        if fname == "box":  # a complex constant's box is its point
            consts = {k: (v.real, v.real, v.imag, v.imag) if type(v) is complex else v for k, v in consts.items()}
            consts.update(_BOX=_BOX, _out=_out)
        fn = _function(*self._sources.pop(fname), fname, consts)
        setattr(self, "_" + fname, fn)
        return fn

    def __call__(self, t: complex) -> complex:
        v = (self._value or self._compiled("value"))(complex(t))
        if not cmath.isfinite(v):
            raise NonFiniteValue(f"{self.label} is not finite at t={t}")
        return v

    def prime(self, t: complex) -> complex:
        v = (self._prime or self._compiled("prime"))(complex(t))
        if not cmath.isfinite(v):
            raise NonFiniteValue(f"derivative of {self.label} is not finite at t={t}")
        return v

    def pair(self, t: complex) -> tuple[complex, complex]:
        """(p(t), p'(t)) from one evaluation, raising what ``prime(t)`` and
        then ``self(t)`` would raise."""
        try:
            v, d = (self._pair or self._compiled("pair"))(complex(t))
        except ChronologError:
            self.prime(t)  # a failure of p' comes first, even a non-finite value
            raise
        if not cmath.isfinite(d):
            raise NonFiniteValue(f"derivative of {self.label} is not finite at t={t}")
        if not cmath.isfinite(v):
            raise NonFiniteValue(f"{self.label} is not finite at t={t}")
        return v, d

    def box(self, a: float, b: float) -> tuple[float, float, float, float] | None:
        """(x_lo, x_hi, y_lo, y_hi) with ``self(x)`` in the box [x_lo, x_hi]
        x [y_lo, y_hi] at every float x of [a, b] (complex interval
        arithmetic in rectangular form, each endpoint widened past its own
        rounding and p's), or None where the enclosure is refused: a
        divisor's box holds 0, a log, sqrt or fractional power's box meets
        the cut, a rule raises or an endpoint is not finite.  Where it is
        not refused, ``self`` raises at no such x."""
        return (self._box or self._compiled("box"))(a, b)

    def __mul__(self, other: "ScaleFunction") -> "ScaleFunction":
        return ScaleFunction(Mul(self.body, other.body), label=f"({self.label})*({other.label})")

    def __truediv__(self, other: "ScaleFunction") -> "ScaleFunction":
        return ScaleFunction(Div(self.body, other.body), label=f"({self.label})/({other.label})")

    def pow(self, alpha: float) -> "ScaleFunction":
        exponent = float(alpha)
        if not math.isfinite(exponent):
            raise ValidationError(f"alpha must be finite, got {alpha}")
        return ScaleFunction(Pow(self.body, exponent), label=f"({self.label})^{alpha}")

    def __repr__(self) -> str:
        return f"ScaleFunction({self.label!r})"


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative with respect to t (classical calculus rules)."""
    if isinstance(e, Const):
        return Const(0j)
    if isinstance(e, Var):
        return Const(1 + 0j)
    if isinstance(e, (Add, Sub)):
        return type(e)(differentiate(e.left), differentiate(e.right))
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
    if type(e) in _BINARY:
        prec = _PREC_ADD if isinstance(e, (Add, Sub)) else _PREC_MUL
        lt, lp = _fmt(e.left)
        rt, rp = _fmt(e.right)
        left = lt if lp >= prec else f"({lt})"
        right = rt if rp > prec else f"({rt})"
        return f"{left}{_BINARY[type(e)]}{right}", prec
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
