"""Delta and nabla derivatives and definite integrals on time scales.

Integrals are computed segment by segment from the window decomposition by
one walk, ``_walk``, which the window logarithms share: continuous pieces
go through adaptive Simpson quadrature, scattered points contribute
``gap * f`` directly.  An integral is additive over windows, so the walk
returns its running total at each of a list of stops by crossing each
stretch between stops as its own window; one pass from a base serves every
window that starts there, and a single window is the one-stop case.
Integrands receive two arguments ``(tau, mu)`` so that formulas involving
the forward jump can use ``sigma(tau) = tau + mu``; on continuous pieces
``mu`` is passed as 0.0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .errors import ChronologError, NonFiniteIntegrand, NonFiniteValue, QuadratureFailure, ValidationError
from .expr import Expr, compile_expr, differentiate, parse, to_text
from .expr import Mul as _Mul
from .expr import Div as _Div
from .expr import Pow as _Pow
from .timescale import ContinuousPiece, TimeScale

Integrand = Callable[[float, float], complex]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical knobs shared by the integration and comparison layers.

    quad_tol        absolute tolerance per continuous piece
    eps_min         minimum admissible |p(t)| for logarithm arguments
    cmp_tol         residual threshold for identity comparisons
    max_quad_depth  adaptive bisection depth cap (at least 10)

    The eps_min floor is absolute and stays at 1e-10 by default: a p that
    never vanishes but dips below it where it is sampled raises
    NonvanishingViolation, e.g. exp(600*sin(t)) on the reals over [0, 10],
    where |p(10)| = 1.7e-142.  Callers who need such a p pass a smaller
    eps_min.
    """

    quad_tol: float = 1e-10
    eps_min: float = 1e-10
    cmp_tol: float = 1e-8
    max_quad_depth: int = 40

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.quad_tol, self.eps_min, self.cmp_tol)):
            raise ValidationError("tolerances must be positive and finite")
        depth = self.max_quad_depth
        if not (math.isfinite(depth) and int(depth) == depth and depth >= 10):
            raise ValidationError("max_quad_depth must be an integer >= 10")


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


def _simpson(fa: complex, fm: complex, fb: complex, half: float) -> complex:
    return (half / 3.0) * (fa + 4.0 * fm + fb)


def _adapt(f, a, b, fa, fm, fb, whole, tol, depth, max_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    if not (a < lm < m < rm < b):
        return whole  # interval narrower than float spacing; cannot refine
    flm = _sample(f, lm)
    frm = _sample(f, rm)
    quarter = 0.25 * (b - a)
    left = _simpson(fa, flm, fm, quarter)
    right = _simpson(fm, frm, fb, quarter)
    err = (left + right - whole) / 15.0
    if abs(err) <= tol:
        return left + right + err
    if depth >= max_depth:
        raise QuadratureFailure(f"no convergence on [{a}, {b}] after {depth} bisections")
    half_tol = 0.5 * tol
    return _adapt(f, a, m, fa, flm, fm, left, half_tol, depth + 1, max_depth) + _adapt(
        f, m, b, fm, frm, fb, right, half_tol, depth + 1, max_depth
    )


def adaptive_simpson(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float = DEFAULT_TOLERANCES.quad_tol,
    max_depth: int = DEFAULT_TOLERANCES.max_quad_depth,
) -> complex:
    """Integrate a complex-valued function over [a, b].

    Each bisection halves the local error budget and the halves are
    combined with Richardson extrapolation.  Raises QuadratureFailure when
    the depth cap is hit and NonFiniteIntegrand on bad samples.
    """
    if a == b:
        return 0j
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa = _sample(f, a)
    fb = _sample(f, b)
    m = 0.5 * (a + b)
    fm = _sample(f, m)
    whole = _simpson(fa, fm, fb, 0.5 * (b - a))
    return sign * _adapt(f, a, b, fa, fm, fb, whole, tol, 0, max_depth)


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
    Continuous pieces integrate ``dense`` by adaptive Simpson; each jump from
    tau to tau + mu adds ``mu * jump(tau, mu)``.  A ChronologError in a term
    names its piece or gap.  MAX_WINDOW_JUMPS caps the whole span, before
    any term.
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
                    total += adaptive_simpson(dense, seg.a, seg.b, cfg.quad_tol, cfg.max_quad_depth)
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
