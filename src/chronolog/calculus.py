"""Delta and nabla derivatives and definite integrals on time scales.

Integrals are computed segment by segment from the window decomposition by
one walk, ``_walk``, which the window logarithms share: continuous pieces
go through adaptive Simpson quadrature, scattered points contribute
``gap * f`` directly.  Integrands receive two arguments ``(tau, mu)`` so
that formulas involving the forward jump can use ``sigma(tau) = tau + mu``;
on continuous pieces ``mu`` is passed as 0.0.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

from .errors import NonFiniteIntegrand, NonFiniteValue, QuadratureFailure
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
    """

    quad_tol: float = 1e-10
    eps_min: float = 1e-10
    cmp_tol: float = 1e-8
    max_quad_depth: int = 40

    def __post_init__(self):
        if not (self.quad_tol > 0 and self.eps_min > 0 and self.cmp_tol > 0):
            raise ValueError("tolerances must be positive")
        if int(self.max_quad_depth) != self.max_quad_depth or self.max_quad_depth < 10:
            raise ValueError("max_quad_depth must be an integer >= 10")


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
        return ScaleFunction(_Pow(self.body, float(alpha)), label=f"({self.label})^{alpha}")

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
    t: float,
    cfg: ToleranceConfig,
) -> complex:
    """The one window walk behind every integral and window logarithm.

    Continuous pieces integrate ``dense`` by adaptive Simpson; each
    scattered jump from tau to tau + mu adds ``mu * jump(tau, mu)``.
    Swapping the endpoints negates the result.
    """
    s = ts.snap(s)
    t = ts.snap(t)
    sign = 1.0
    if s > t:
        s, t = t, s
        sign = -1.0
    total = 0j
    for seg in ts.decompose(s, t):
        if isinstance(seg, ContinuousPiece):
            total += adaptive_simpson(dense, seg.a, seg.b, cfg.quad_tol, cfg.max_quad_depth)
        else:
            v = jump(seg.tau, seg.mu)
            if not cmath.isfinite(v):
                raise NonFiniteIntegrand(f"jump term is not finite on the gap after tau={seg.tau}")
            total += seg.mu * v
    return sign * total


def delta_integral(
    f: Integrand, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Definite forward integral of f over [s, t] on the scale.

    ``f(tau, mu)`` is sampled with mu = 0.0 inside continuous stretches;
    each right-scattered tau contributes ``mu * f(tau, mu)``.  Swapping the
    endpoints negates the result.
    """
    return _walk(lambda x: f(x, 0.0), f, ts, s, t, cfg or DEFAULT_TOLERANCES)


def nabla_integral(
    f: Integrand, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Definite backward integral of f over [s, t] on the scale.

    Identical to the forward integral on continuous stretches; scattered
    contributions are ``nu * f(tau', nu)`` at left-scattered points tau'
    in (s, t] with nu the gap below tau'.
    """
    return _walk(
        lambda x: f(x, 0.0), lambda tau, nu: f(tau + nu, nu), ts, s, t, cfg or DEFAULT_TOLERANCES
    )
