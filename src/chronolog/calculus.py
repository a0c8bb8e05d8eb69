"""Delta and nabla derivatives and definite integrals on time scales.

Integrals, exponentials and window logarithms are computed by one walk,
``_walk``, which streams the scale's pieces by index from the start of a
window, keeping nothing per jump, and hands each continuous stretch and
each jump to a sum object.  The sum is either ``Terms``, the definition, in
which a stretch adds its integral to ``quad_tol`` and a jump adds ``gap *
f`` (integrals, exponentials, the older logarithms and the cylinder-map
definition of the logarithm), or the window logarithm's theorem
(``logexp._Winding``), which adds one closed form Log(p(x_n)/p(x_0)) +
2*pi*i*K for the whole walk and integrates only to find the integer K.
On the point families a long run of jumps goes to the sum in blocks, its
``run`` taking a block's points at once; a block whose run fails is
walked again jump by jump, so that every error is the one a single jump
raises, at the same gap.
Both integrate with one globally adaptive Gauss-Kronrod (G7K15)
integrator, ``adaptive_simpson``.  It keeps its panels in a heap ordered
by the error estimate |K15 - G7| and bisects the worst until the
estimates sum to at most its tolerance; a piece that needs more than
``timescale.MAX_QUAD_SAMPLES`` samples raises QuadratureFailure rather
than return an unconverged value.  An integral is additive over windows,
so the walk returns its running total at each of a list of stops; one
pass from a base serves every window that starts there, and a single
window is the one-stop case.  Public integrands receive ``(tau, mu)``,
with mu = 0.0 on continuous pieces; the walk's own jump terms also
receive the stored successor sigma, which tau + mu may round off.
"""

from __future__ import annotations

import cmath
import heapq
import math
import operator
from typing import Callable, Sequence

from ._record import Record
from .errors import (
    ChronologError,
    NonFiniteIntegrand,
    NonFiniteValue,
    PointNotInScale,
    QuadratureFailure,
    ValidationError,
)
from .expr import CompiledPair, Expr, differentiate, parse, to_text
from .expr import Mul as _Mul
from .expr import Div as _Div
from .expr import Pow as _Pow
from . import timescale
from .timescale import TimeScale

Integrand = Callable[[float, float], complex]
JumpTerm = Callable[[float, float, float], complex]  # (tau, mu, sigma)


class ToleranceConfig(Record):
    """Numerical knobs shared by the integration and comparison layers.

    quad_tol  absolute tolerance per continuous piece of integrals,
              exponentials, the older logarithms and the logarithm's
              definition: the bound on the sum of the piece's G7K15 error
              estimates |K15 - G7|; and the floor of the window
              logarithm's search for its winding K, which starts at the
              loose ``timescale._WINDING_TOL`` and tightens 100-fold only
              while K lacks a witness
    eps_min   minimum admissible |p(t)| for logarithm arguments
    cmp_tol   residual threshold for identity comparisons

    The quadrature's work is capped by ``timescale.MAX_QUAD_SAMPLES`` per
    piece, not by a knob here: a quad_tol that the cap cannot reach raises
    QuadratureFailure instead of returning an unconverged value, except
    in a window logarithm whose winding is witnessed at a looser tolerance.

    The eps_min floor is absolute and stays at 1e-10 by default: a p that
    never vanishes but dips below it where it is sampled raises
    NonvanishingViolation, e.g. exp(600*sin(t)) on the reals over [0, 10],
    where |p(10)| = 1.7e-142.  Callers who need such a p pass a smaller
    eps_min.
    """

    __slots__ = ("quad_tol", "eps_min", "cmp_tol")
    _defaults = {"quad_tol": 1e-10, "eps_min": 1e-10, "cmp_tol": 1e-8}

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.quad_tol, self.eps_min, self.cmp_tol)):
            raise ValidationError("tolerances must be positive and finite")


DEFAULT_TOLERANCES = ToleranceConfig()


class ScaleFunction:
    """A function of t given by an expression tree, with its derivative.

    The symbolic derivative supplies the classical derivative wherever the
    scale is dense; difference quotients take over at scattered points.
    The tree and its derivative are compiled into straight-line code that
    computes each shared subexpression once (``expr.CompiledPair``), each
    of p, p', the pair and the list on its first use; ``pair`` returns p and
    p' from one evaluation, and ``values`` p at each point of a list from
    one call.  Values must stay finite; callers that take logarithms
    additionally check the nonvanishing floor.
    """

    __slots__ = ("body", "derivative", "label", "_code")

    def __init__(self, body: Expr, derivative: Expr | None = None, label: str = ""):
        self.body = body
        self.derivative = differentiate(body) if derivative is None else derivative
        self.label = label or to_text(body)
        self._code = CompiledPair(self.body, self.derivative)

    @classmethod
    def from_text(cls, text: str) -> "ScaleFunction":
        return cls(parse(text), label=text.strip())

    def __call__(self, t: complex) -> complex:
        v = self._code.value(complex(t))
        if not cmath.isfinite(v):
            raise NonFiniteValue(f"{self.label} is not finite at t={t}")
        return v

    def prime(self, t: complex) -> complex:
        v = self._code.prime(complex(t))
        if not cmath.isfinite(v):
            raise NonFiniteValue(f"derivative of {self.label} is not finite at t={t}")
        return v

    def pair(self, t: complex) -> tuple[complex, complex]:
        """(p(t), p'(t)) from one evaluation, raising what ``prime(t)`` and
        then ``self(t)`` would raise."""
        try:
            v, d = self._code.pair(complex(t))
        except ChronologError:
            self.prime(t)  # a failure of p' comes first, even a non-finite value
            raise
        if not cmath.isfinite(d):
            raise NonFiniteValue(f"derivative of {self.label} is not finite at t={t}")
        if not cmath.isfinite(v):
            raise NonFiniteValue(f"{self.label} is not finite at t={t}")
        return v, d

    def values(self, xs: Sequence[float]) -> list[complex]:
        """``[self(x) for x in xs]``, the same bits from one generated loop,
        raising what that list would raise."""
        try:
            vs = self._code.values(xs)
            if all(map(cmath.isfinite, vs)):
                return vs
        except ChronologError:
            pass
        return [self(x) for x in xs]  # raises at the first point that fails

    def __mul__(self, other: "ScaleFunction") -> "ScaleFunction":
        return ScaleFunction(_Mul(self.body, other.body), label=f"({self.label})*({other.label})")

    def __truediv__(self, other: "ScaleFunction") -> "ScaleFunction":
        return ScaleFunction(_Div(self.body, other.body), label=f"({self.label})/({other.label})")

    def pow(self, alpha: float) -> "ScaleFunction":
        exponent = float(alpha)
        if not math.isfinite(exponent):
            raise ValidationError(f"alpha must be finite, got {alpha}")
        return ScaleFunction(_Pow(self.body, exponent), label=f"({self.label})^{alpha}")

    def __repr__(self) -> str:
        return f"ScaleFunction({self.label!r})"


def delta_derivative(p: ScaleFunction, ts: TimeScale, t: float) -> complex:
    """Forward difference quotient at scattered t, classical p' at dense t."""
    t, sigma = ts.delta_point(t)
    if sigma > t:
        return (p(sigma) - p(t)) / (sigma - t)
    return p.prime(t)


def nabla_derivative(p: ScaleFunction, ts: TimeScale, t: float) -> complex:
    """Backward difference quotient at scattered t, classical p' at dense t."""
    t, rho = ts.nabla_point(t)
    if rho < t:
        return (p(t) - p(rho)) / (t - rho)
    return p.prime(t)


def _sample(f: Callable[[float], complex], x: float) -> complex:
    v = complex(f(x))
    if not cmath.isfinite(v):
        raise NonFiniteIntegrand(f"integrand is not finite at tau={x}")
    return v


# G7K15 from QUADPACK's qk15: the positive Kronrod nodes on [-1, 1], outermost
# first, with the Gauss nodes at the odd indices, and the weights of both
# rules; the centre node 0 carries _WK0 and _WG0
_XK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WK0 = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG0 = 0.417959183673469387755102040816327


def _panel(f: Callable[[float], complex], a: float, b: float) -> tuple[float, float, float, complex]:
    """The G7K15 rule on [a, b]: (-error, a, b, K15), a heap entry.

    The error estimate is |K15 - G7|; one non-finite sample makes the sums
    non-finite, and only then are the nodes sampled one by one to name it.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    pairs = [f(c - h * x) + f(c + h * x) for x in _XK]
    fc = f(c)
    kronrod = h * (_WK0 * fc + sum(w * v for w, v in zip(_WK, pairs)))
    gauss = h * (_WG0 * fc + sum(w * v for w, v in zip(_WG, pairs[1::2])))
    err = abs(kronrod - gauss)
    if not math.isfinite(err):
        for node in [c] + [c + side * h * x for x in _XK for side in (-1.0, 1.0)]:
            _sample(f, node)
        raise NonFiniteIntegrand(f"quadrature sum is not finite on [{a}, {b}]")
    return -err, a, b, complex(kronrod)


def adaptive_simpson(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float = DEFAULT_TOLERANCES.quad_tol,
) -> complex:
    """Integrate a complex-valued function over [a, b], globally adaptively.

    The name predates the rule and stays because callers, the benchmark's
    tracer among them, look the integrator up by it.  Each panel is
    integrated by the Gauss-Kronrod G7K15 rule with error estimate
    |K15 - G7|; starting from the two halves of [a, b], the panel with the
    largest estimate is bisected until the estimates sum to at most ``tol``
    (QUADPACK's QAG).  The Gauss nodes are open, so f is first sampled at a
    and b, where a log's integrand checks p.  Raises QuadratureFailure when
    another bisection would pass ``timescale.MAX_QUAD_SAMPLES`` samples or
    the worst panel is too narrow to bisect, and NonFiniteIntegrand on bad
    samples.
    """
    if a == b:
        return 0j
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    _sample(f, a)
    _sample(f, b)
    m = 0.5 * (a + b)
    heap = [_panel(f, a, m), _panel(f, m, b)]
    heapq.heapify(heap)
    samples = 32  # the two ends and two panels of 15
    err = -(heap[0][0] + heap[1][0])
    while True:
        if err <= tol:
            # the running sum drifts by rounding; settle on the exact one
            err = math.fsum(-e for e, *_ in heap)
            if err <= tol:
                break
        if samples + 30 > timescale.MAX_QUAD_SAMPLES:
            raise QuadratureFailure(f"error estimate {err:.3g} above tol {tol:.3g} after {samples} samples")
        neg, lo, hi, _ = heap[0]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # one float wide: halving it would repeat it
            raise QuadratureFailure(
                f"error estimate {err:.3g} above tol {tol:.3g} on a panel at tau={lo} too narrow to bisect"
            )
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        heapq.heapreplace(heap, left)
        heapq.heappush(heap, right)
        samples += 30
        err += neg - left[0] - right[0]
    re = math.fsum(v.real for *_, v in heap)
    im = math.fsum(v.imag for *_, v in heap)
    return sign * complex(re, im)


class Terms:
    """A walk's pieces and jumps summed by the definition, one term at a time.

    A continuous piece [lo, hi] adds the integral of ``dense`` over it, to
    ``tol``; a jump from tau to its stored successor sigma, a gap mu = sigma
    - tau, adds ``mu * term(tau, mu, sigma)``.  This sums integrals,
    exponentials, the older logarithms and the cylinder-map definition of
    the window logarithm.  The other sum ``_walk`` takes is the window
    logarithm's theorem (``logexp._Winding``).  Both answer the same five
    calls: ``start(up)`` opens the walk up or down, ``piece(total, lo, hi)``
    takes a continuous piece, ``step(total, tau, mu, sigma)`` a jump and
    ``run(total, xs)`` a block of jumps through the points xs in walk
    order, each returning the running total, and ``close(total)`` gives the
    total at the walk's current point, leaving the walk open.  Here ``run``
    is a loop of ``step``; the exponentials' subclass (``logexp._Exponent``)
    takes a block as the product of its factors.  ``_walk`` re-walks a block
    whose run fails by ``step``, which names the gap.
    """

    __slots__ = ("dense", "term", "tol", "up")

    def __init__(self, dense: Callable[[float], complex], term: JumpTerm, tol: float):
        self.dense = dense
        self.term = term
        self.tol = tol

    def start(self, up: bool) -> None:
        self.up = up

    def piece(self, total: complex, lo: float, hi: float) -> complex:
        return total + adaptive_simpson(self.dense, lo, hi, self.tol)

    def step(self, total: complex, tau: float, mu: float, sigma: float) -> complex:
        v = self.term(tau, mu, sigma)
        if not cmath.isfinite(v):
            raise NonFiniteIntegrand("jump term is not finite")
        return total + mu * v

    def run(self, total: complex, xs: Sequence[float]) -> complex:
        for tau, sigma in zip(xs, xs[1:]) if self.up else zip(xs[1:], xs):
            total = self.step(total, tau, sigma - tau, sigma)
        return total

    def close(self, total: complex) -> complex:
        return total


def _name(exc: ChronologError, where: str) -> None:
    # name the piece or gap where a term failed, keeping the error's class
    exc.args = (f"{exc} on the {where}",) + exc.args[1:]


# the jumps towards each stop that the walk takes one at a time before it
# looks up how far the stop is; the fewest jumps to a stop that it takes in
# blocks, since the first block of a p compiles p's evaluation loop
# (``ScaleFunction.values``), which costs about as much as 250 single jumps;
# and the most jumps in one block, which bounds the memory a block holds
_HANDFUL = 8
_LONG_RUN = 256
_BLOCK = 512


def _walk(sums, ts: TimeScale, s: float, stops: list[float], sign: float = 1.0) -> list[complex]:
    """The one walk behind every integral, exponential and window logarithm.

    ``s`` and ``stops`` are scale points, the stops moving away from s.  The
    walk streams the scale's pieces by index from s, keeping nothing per jump,
    and returns ``sign`` times the running total at each stop.  It opens
    ``sums`` (``Terms`` or ``logexp._Winding``) once, hands it each
    continuous stretch as [lo, hi] whichever way it walks, so that a walk
    down sums the terms of the walk up in reverse order, and each jump from
    tau to its stored successor sigma, a gap mu = sigma - tau, and closes it
    at each stop.  A ChronologError in a term names its piece or gap.
    MAX_WINDOW_JUMPS caps the whole span, before any term.

    On the point families, a stop at least ``_HANDFUL + _LONG_RUN`` jumps
    away is reached in blocks: after ``_HANDFUL`` single jumps, the walk
    lists up to ``_BLOCK`` jumps' points at once (``TimeScale._points``)
    and hands them to ``sums.run``, so that a run of jumps costs one call;
    a nearer stop is reached jump by jump.  A block is taken only where
    every gap in it is a distinct finite float and it passes no stop; a
    run that fails (returns None, or raises) leaves ``sums`` as it was, and
    the walk re-walks that block once, jump by jump, so that the same
    error is raised at the same gap.
    """
    if not stops:
        return []
    up = s <= stops[-1]
    ks, kt, _, _, _ = ts._span(s, stops[-1]) if up else ts._span(stops[-1], s)
    k = ks if up else kt
    dk = 1 if up else -1
    blocks = ts._points(k, k) is not None
    a, b = ts._piece(k)
    x = s  # the current point, in piece k = [a, b]
    total = 0j
    totals: list[complex] = []
    sums.start(up)
    for stop in stops:
        single = _HANDFUL  # jumps to take one at a time before the next block
        kstop = None
        while True:
            end = b if up else a  # the end of piece k the walk moves towards
            if (stop <= end) if up else (stop >= end):
                end = stop
            if end != x:
                lo, hi = (x, end) if up else (end, x)
                try:
                    total = sums.piece(total, lo, hi)
                except ChronologError as exc:
                    _name(exc, f"piece [{lo}, {hi}]")
                    raise
                x = end
            if x == stop:
                break
            if single <= 0 and blocks and kstop is None:
                kstop = min(ts._nearest(stop), kt) if up else max(ts._nearest(stop), ks)
                if (kstop - k) * dk < _LONG_RUN:
                    single = (kstop - k) * dk  # the rest of a short run, jump by jump
            if single <= 0 and blocks:
                m = k + dk * min((kstop - k) * dk, _BLOCK)
                xs = _block(ts, k, m, stop, up)
                ran = None
                if xs is not None:
                    try:
                        ran = sums.run(total, xs)
                    except (ChronologError, ArithmeticError):
                        pass
                if ran is not None:
                    total, k, x = ran, m, xs[-1]
                    a = b = x
                    continue
                single = max(1, (m - k) * dk)  # the block again, jump by jump
            na, nb = ts._piece(k + dk)
            tau, sigma = (b, na) if up else (nb, a)
            mu = sigma - tau
            if not 0.0 < mu < math.inf:
                raise PointNotInScale(f"the neighbour of {tau} is not a distinct finite float")
            try:
                total = sums.step(total, tau, mu, sigma)
            except ChronologError as exc:
                _name(exc, f"gap after tau={tau}")
                raise
            k += dk
            a, b = na, nb
            x = sigma if up else tau
            single -= 1
        totals.append(sign * sums.close(total))
    return totals


def _block(ts: TimeScale, k: int, m: int, stop: float, up: bool) -> Sequence[float] | None:
    # the points x_k, ..., x_m in walk order, if single jumps through them
    # would each pass the walk's gap check and none would pass the stop
    inc = ts._points(k, m) if up else ts._points(m, k)
    if not (len(inc) > 1 and all(map(operator.lt, inc, inc[1:])) and inc[-1] - inc[0] < math.inf):
        return None
    if up:
        return inc if inc[-1] <= stop else None
    return inc[::-1] if inc[0] >= stop else None


def _window(sums, ts: TimeScale, s: float, t: float) -> complex:
    """The walk over one window [s, t], the one-stop case.

    Swapped endpoints walk up from t and negate, so reversing a window
    negates its value exactly.
    """
    s = ts.snap(s)
    t = ts.snap(t)
    if s <= t:
        return _walk(sums, ts, s, [t])[0]
    return _walk(sums, ts, t, [s], -1.0)[0]


def delta_integral(
    f: Integrand, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Definite forward integral of f over [s, t] on the scale.

    ``f(tau, mu)`` is sampled with mu = 0.0 inside continuous stretches;
    each right-scattered tau contributes ``mu * f(tau, mu)``.  Swapping the
    endpoints negates the result.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    return _window(Terms(lambda x: f(x, 0.0), lambda tau, mu, sigma: f(tau, mu), cfg.quad_tol), ts, s, t)


def nabla_integral(
    f: Integrand, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Definite backward integral of f over [s, t] on the scale.

    Identical to the forward integral on continuous stretches; scattered
    contributions are ``nu * f(tau', nu)`` at left-scattered points tau'
    in (s, t], the stored successors, with nu the gap below tau'.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    return _window(Terms(lambda x: f(x, 0.0), lambda tau, nu, sigma: f(sigma, nu), cfg.quad_tol), ts, s, t)
