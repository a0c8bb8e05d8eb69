"""Delta and nabla derivatives and definite integrals on time scales.

Integrals are computed segment by segment from the window decomposition by
one walk, ``_walk``, which the window logarithms share: continuous pieces
go through one globally adaptive Gauss-Kronrod (G7K15) integrator, and
scattered points contribute ``gap * f`` directly.  The integrator keeps its
panels in a heap ordered by the error estimate |K15 - G7| and bisects the
worst until the estimates sum to at most ``quad_tol``; a piece that needs
more than ``timescale.MAX_QUAD_SAMPLES`` samples raises QuadratureFailure
rather than return an unconverged value.  An integral is additive over
windows, so the walk returns its running total at each of a list of stops
by crossing each stretch between stops as its own window; one pass from a
base serves every window that starts there, and a single window is the
one-stop case.  Integrands receive two arguments ``(tau, mu)`` so that
formulas involving the forward jump can use ``sigma(tau) = tau + mu``; on
continuous pieces ``mu`` is passed as 0.0.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import ChronologError, NonFiniteIntegrand, NonFiniteValue, QuadratureFailure, ValidationError
from .expr import Expr, compile_expr, differentiate, parse, to_text
from .expr import Mul as _Mul
from .expr import Div as _Div
from .expr import Pow as _Pow
from . import timescale
from .timescale import ContinuousPiece, TimeScale

Integrand = Callable[[float, float], complex]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical knobs shared by the integration and comparison layers.

    quad_tol  absolute tolerance per continuous piece: the bound on the sum
              of the piece's G7K15 error estimates |K15 - G7|
    eps_min   minimum admissible |p(t)| for logarithm arguments
    cmp_tol   residual threshold for identity comparisons

    The quadrature's work is capped by ``timescale.MAX_QUAD_SAMPLES`` per
    piece, not by a knob here: a quad_tol that the cap cannot reach raises
    QuadratureFailure instead of returning an unconverged value.

    The eps_min floor is absolute and stays at 1e-10 by default: a p that
    never vanishes but dips below it where it is sampled raises
    NonvanishingViolation, e.g. exp(600*sin(t)) on the reals over [0, 10],
    where |p(10)| = 1.7e-142.  Callers who need such a p pass a smaller
    eps_min.
    """

    quad_tol: float = 1e-10
    eps_min: float = 1e-10
    cmp_tol: float = 1e-8

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.quad_tol, self.eps_min, self.cmp_tol)):
            raise ValidationError("tolerances must be positive and finite")


DEFAULT_TOLERANCES = ToleranceConfig()


class ScaleFunction:
    """A function of t given by an expression tree, with its derivative.

    The symbolic derivative supplies the classical derivative wherever the
    scale is dense; difference quotients take over at scattered points.
    Values must stay finite; callers that take logarithms additionally
    check the nonvanishing floor.
    """

    __slots__ = ("body", "derivative", "label", "_f", "_df")

    def __init__(self, body: Expr, derivative: Expr | None = None, label: str = ""):
        self.body = body
        self.derivative = differentiate(body) if derivative is None else derivative
        self.label = label or to_text(body)
        self._f = compile_expr(self.body)
        self._df = compile_expr(self.derivative)

    @classmethod
    def from_text(cls, text: str) -> "ScaleFunction":
        return cls(parse(text), label=text.strip())

    def __call__(self, t: complex) -> complex:
        v = complex(self._f(complex(t)))
        if not cmath.isfinite(v):
            raise NonFiniteValue(f"{self.label} is not finite at t={t}")
        return v

    def prime(self, t: complex) -> complex:
        v = complex(self._df(complex(t)))
        if not cmath.isfinite(v):
            raise NonFiniteValue(f"derivative of {self.label} is not finite at t={t}")
        return v

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
    t = ts.snap(t)
    ts.require_delta_domain(t)
    m = ts.mu(t)
    if m > 0:
        return (p(ts.sigma(t)) - p(t)) / m
    return p.prime(t)


def nabla_derivative(p: ScaleFunction, ts: TimeScale, t: float) -> complex:
    """Backward difference quotient at scattered t, classical p' at dense t."""
    t = ts.snap(t)
    ts.require_nabla_domain(t)
    n = ts.nu(t)
    if n > 0:
        return (p(t) - p(ts.rho(t))) / n
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


def _walk(
    dense: Callable[[float], complex],
    jump: Integrand,
    ts: TimeScale,
    s: float,
    stops: list[float],
    cfg: ToleranceConfig,
    sign: float = 1.0,
) -> list[complex]:
    """The one walk behind every integral and window logarithm.

    ``s`` and ``stops`` are scale points, the stops moving away from s.  The
    integral is additive over windows, so each stretch, from s to the first
    stop and from each stop to the next, is one decomposition, reversed going
    down, and the walk returns ``sign`` times the running total at each stop.
    Continuous pieces integrate ``dense`` by ``adaptive_simpson``, looked up
    here at call time; each jump from tau to tau + mu adds
    ``mu * jump(tau, mu)``.  A ChronologError in a term names its piece or
    gap.  MAX_WINDOW_JUMPS caps the whole span, before any term.
    """
    if not stops:
        return []
    ts.gap_count(min(s, stops[-1]), max(s, stops[-1]))
    totals: list[complex] = []
    total = 0j
    for stop in stops:
        segs = ts.decompose(s, stop).segments if s <= stop else ts.decompose(stop, s).segments[::-1]
        for seg in segs:
            piece = isinstance(seg, ContinuousPiece)
            try:
                if piece:
                    total += adaptive_simpson(dense, seg.a, seg.b, cfg.quad_tol)
                else:
                    v = jump(seg.tau, seg.mu)
                    if not cmath.isfinite(v):
                        raise NonFiniteIntegrand("jump term is not finite")
                    total += seg.mu * v
            except ChronologError as exc:
                where = f"piece [{seg.a}, {seg.b}]" if piece else f"gap after tau={seg.tau}"
                exc.args = (f"{exc} on the {where}",) + exc.args[1:]
                raise
        totals.append(sign * total)
        s = stop
    return totals


def _window(
    dense: Callable[[float], complex],
    jump: Integrand,
    ts: TimeScale,
    s: float,
    t: float,
    cfg: ToleranceConfig,
) -> complex:
    """The walk over one window [s, t], the one-stop case.

    Swapped endpoints walk up from t and negate, so reversing a window
    negates its value exactly.
    """
    s = ts.snap(s)
    t = ts.snap(t)
    if s <= t:
        return _walk(dense, jump, ts, s, [t], cfg)[0]
    return _walk(dense, jump, ts, t, [s], cfg, -1.0)[0]


def delta_integral(
    f: Integrand, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Definite forward integral of f over [s, t] on the scale.

    ``f(tau, mu)`` is sampled with mu = 0.0 inside continuous stretches;
    each right-scattered tau contributes ``mu * f(tau, mu)``.  Swapping the
    endpoints negates the result.
    """
    return _window(lambda x: f(x, 0.0), f, ts, s, t, cfg or DEFAULT_TOLERANCES)


def nabla_integral(
    f: Integrand, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Definite backward integral of f over [s, t] on the scale.

    Identical to the forward integral on continuous stretches; scattered
    contributions are ``nu * f(tau', nu)`` at left-scattered points tau'
    in (s, t] with nu the gap below tau'.
    """
    return _window(
        lambda x: f(x, 0.0), lambda tau, nu: f(tau + nu, nu), ts, s, t, cfg or DEFAULT_TOLERANCES
    )
