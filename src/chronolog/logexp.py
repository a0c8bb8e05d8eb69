"""Logarithms and exponentials on time scales.

The central object is the window logarithm of a nonvanishing function p:
the integral of the cylinder-transformed quotient p^Delta/p from s to t.
On continuous stretches the integrand is the classical p'(tau)/p(tau); a
jump from tau to sigma = tau + mu, with p_sigma = p(sigma), contributes

    mu * map_mu(pDelta / ((1-eta) p + eta p_sigma)),

which in exact arithmetic is Log(p_sigma / p) modulo 2*pi*i.  Every
variant is one row of the table below, passed to the single kernel
``_window_log``; the row fixes the weight eta, the cylinder map, and so the
side of the branch cut on which a jump with a negative real ratio
p_sigma/p lands:

    variant   eta   map               cut side
    delta     0     xi                +i*pi
    nabla     1     xi_hat            -i*pi
    Cayley    1/2   cayley_psi        +i*pi
    eta       eta   eta_psi(eta, .)   +i*pi

Delta, nabla and Cayley each have a principal version (a plain complex
number) and a multi-valued version carrying the 2*pi*i lattice; eta is
multi-valued only.  They all agree modulo that lattice.

Also here: the time-scale exponentials built from regressive coefficients,
the pointwise logarithmic derivative, five older logarithm constructions
kept for comparison, and an identity-checking suite used by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Union

from .calculus import (
    DEFAULT_TOLERANCES,
    ScaleFunction,
    ToleranceConfig,
    _walk,
    delta_integral,
    nabla_integral,
)
from .errors import (
    CayleyNotRegressive,
    EtaNotRegressive,
    NonvanishingViolation,
    NotNuRegressive,
    NotRegressive,
    OneNotInScale,
    PointNotInScale,
)
from .multivalue import TWO_PI_I, MultiLog, exp as cexp, lattice_gap, principal_log
from .timescale import ContinuousPiece, TimeScale
from .cylinder import cayley_psi, eta_psi, is_nu_regressive, is_regressive, xi, xi_hat


class LogVariant(str, Enum):
    DELTA_MULTI = "delta-multi"
    DELTA_PRINCIPAL = "delta-principal"
    NABLA_MULTI = "nabla-multi"
    NABLA_PRINCIPAL = "nabla-principal"
    CAYLEY_MULTI = "cayley-multi"
    CAYLEY_PRINCIPAL = "cayley-principal"
    ETA = "eta"


class LegacyKind(str, Enum):
    HUFF = "huff"
    EULER_CAUCHY = "euler-cauchy"
    INTEGRAL_QUOTIENT = "integral-quotient"
    JACKSON = "jackson"
    MOZYRSKA = "mozyrska"


def _checked(p: ScaleFunction, tau: float, cfg: ToleranceConfig) -> complex:
    v = p(tau)
    if abs(v) < cfg.eps_min:
        raise NonvanishingViolation(f"|{p.label}| = {abs(v):.3e} < eps_min at tau={tau}")
    return v


def delta_quotient(p: ScaleFunction, cfg: ToleranceConfig | None = None) -> Callable:
    """The coefficient (tau, mu) -> pDelta(tau)/p(tau) driving the logarithm.

    At mu = 0 this is the classical p'(tau)/p(tau); across a gap it is the
    difference quotient divided by the left value.
    """
    cfg = cfg or DEFAULT_TOLERANCES

    def coeff(tau: float, mu: float) -> complex:
        pv = _checked(p, tau, cfg)
        if mu > 0:
            return (_checked(p, tau + mu, cfg) - pv) / mu / pv
        return p.prime(tau) / pv

    return coeff


def _window_log(
    p: ScaleFunction,
    ts: TimeScale,
    s: float,
    t: float,
    cfg: ToleranceConfig | None,
    eta: float,
    cylinder_map: Callable[[float, complex], complex],
    error: type,
) -> complex:
    """The one jump kernel: p'/p on continuous pieces, one cylinder map per jump.

    A jump from tau to tau + mu contributes
    ``mu * cylinder_map(mu, (p_sigma - p) / mu / ((1-eta) p + eta p_sigma))``
    and raises ``error`` when the weighted denominator is 0.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    keep = 1.0 - eta

    def dense(x: float) -> complex:
        return p.prime(x) / _checked(p, x, cfg)

    def jump(tau: float, mu: float) -> complex:
        pv = _checked(p, tau, cfg)
        ps = _checked(p, tau + mu, cfg)
        mix = keep * pv + eta * ps
        if mix == 0:
            raise error(f"(1-eta)p + eta*p_sigma vanishes for eta={eta} at tau={tau}")
        return cylinder_map(mu, (ps - pv) / mu / mix)

    return _walk(dense, jump, ts, s, t, cfg)


def log_delta_principal(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Principal forward logarithm of p over the window [s, t]."""
    return _window_log(p, ts, s, t, cfg, 0.0, xi, NotRegressive)


def log_delta_multi(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> MultiLog:
    """Multi-valued forward logarithm: principal value plus the lattice."""
    return MultiLog(log_delta_principal(p, ts, s, t, cfg), TWO_PI_I)


def log_nabla_principal(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Principal backward logarithm: backward quotients at left-scattered points."""
    return _window_log(p, ts, s, t, cfg, 1.0, xi_hat, NotNuRegressive)


def log_nabla_multi(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> MultiLog:
    return MultiLog(log_nabla_principal(p, ts, s, t, cfg), TWO_PI_I)


def log_cayley_principal(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Principal Cayley logarithm: symmetric average in the denominator."""
    return _window_log(p, ts, s, t, cfg, 0.5, cayley_psi, CayleyNotRegressive)


def log_cayley_multi(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> MultiLog:
    return MultiLog(log_cayley_principal(p, ts, s, t, cfg), TWO_PI_I)


def log_eta(
    eta: float,
    p: ScaleFunction,
    ts: TimeScale,
    s: float,
    t: float,
    cfg: ToleranceConfig | None = None,
) -> MultiLog:
    """Eta-weighted logarithm; eta=0 forward, eta=1 backward, 1/2 Cayley.

    The weighting only reshapes the scattered contributions; the result
    still equals the forward logarithm modulo 2*pi*i.
    """
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    value = _window_log(p, ts, s, t, cfg, eta, partial(eta_psi, eta), EtaNotRegressive)
    return MultiLog(value, TWO_PI_I)


def log_ts(
    variant: Union[LogVariant, str],
    p: ScaleFunction,
    ts: TimeScale,
    s: float,
    t: float,
    cfg: ToleranceConfig | None = None,
    eta: float | None = None,
):
    """Dispatch on the variant name; returns complex or MultiLog."""
    variant = LogVariant(variant)
    if variant is LogVariant.ETA:
        if eta is None:
            raise ValueError("the eta variant needs an explicit eta value")
        return log_eta(eta, p, ts, s, t, cfg)
    fn = {
        LogVariant.DELTA_MULTI: log_delta_multi,
        LogVariant.DELTA_PRINCIPAL: log_delta_principal,
        LogVariant.NABLA_MULTI: log_nabla_multi,
        LogVariant.NABLA_PRINCIPAL: log_nabla_principal,
        LogVariant.CAYLEY_MULTI: log_cayley_multi,
        LogVariant.CAYLEY_PRINCIPAL: log_cayley_principal,
    }[variant]
    return fn(p, ts, s, t, cfg)


def log_delta_derivative(
    p: ScaleFunction, ts: TimeScale, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Pointwise forward derivative of the logarithm of p.

    (1/mu) Log(p_sigma/p) at right-scattered points, p'(t)/p(t) at dense
    points.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    t = ts.snap(t)
    ts.require_delta_domain(t)
    m = ts.mu(t)
    pv = _checked(p, t, cfg)
    if m > 0:
        ps = _checked(p, ts.sigma(t), cfg)
        return principal_log(ps / pv) / m
    return p.prime(t) / pv


def _coerce_coefficient(coeff) -> Callable[[float, float], complex]:
    if isinstance(coeff, ScaleFunction):
        return lambda tau, mu: coeff(tau)
    if callable(coeff):
        return coeff
    raise TypeError("coefficient must be a ScaleFunction or a callable (tau, mu) -> complex")


def exp_delta(coeff, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None) -> complex:
    """Forward exponential: exp of the integral of the cylinder-mapped coefficient.

    The coefficient must be regressive: 1 + mu*c != 0 at every scattered
    point of the window.
    """
    c = _coerce_coefficient(coeff)

    def f(tau: float, mu: float) -> complex:
        w = c(tau, mu)
        if mu > 0 and not is_regressive(mu, w):
            raise NotRegressive(f"coefficient fails 1 + mu*c != 0 at tau={tau}")
        return xi(mu, w)

    return cexp(delta_integral(f, ts, s, t, cfg))


def exp_nabla(coeff, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None) -> complex:
    """Backward exponential; needs 1 - nu*c != 0 at left-scattered points."""
    c = _coerce_coefficient(coeff)

    def f(tau: float, nu: float) -> complex:
        w = c(tau, nu)
        if nu > 0 and not is_nu_regressive(nu, w):
            raise NotNuRegressive(f"coefficient fails 1 - nu*c != 0 at tau={tau}")
        return xi_hat(nu, w)

    return cexp(nabla_integral(f, ts, s, t, cfg))


def legacy_log(
    kind: Union[LegacyKind, str],
    p: ScaleFunction | None,
    ts: TimeScale,
    t0: float,
    t: float,
    cfg: ToleranceConfig | None = None,
) -> complex:
    """Older logarithm constructions, kept for comparison.

    huff                integral of 2/(tau + sigma(tau)) from t0 to t
    euler-cauchy        integral of 1/(tau + 2*mu(tau)) from t0 to t
    integral-quotient   integral of pDelta/p from t0 to t (no cylinder map)
    jackson             pointwise pDelta(t)/p(t); ignores t0
    mozyrska            integral of 1/tau from 1 to t; needs 1 in the scale
    """
    kind = LegacyKind(kind)
    cfg = cfg or DEFAULT_TOLERANCES
    if kind in (LegacyKind.INTEGRAL_QUOTIENT, LegacyKind.JACKSON) and p is None:
        raise ValueError(f"the {kind.value} logarithm needs a function p")

    if kind is LegacyKind.HUFF:
        return delta_integral(lambda tau, mu: 2.0 / (2.0 * tau + mu), ts, t0, t, cfg)
    if kind is LegacyKind.EULER_CAUCHY:
        return delta_integral(lambda tau, mu: 1.0 / (tau + 2.0 * mu), ts, t0, t, cfg)
    if kind is LegacyKind.INTEGRAL_QUOTIENT:
        return delta_integral(delta_quotient(p, cfg), ts, t0, t, cfg)
    if kind is LegacyKind.JACKSON:
        t = ts.snap(t)
        ts.require_delta_domain(t)
        return delta_quotient(p, cfg)(t, ts.mu(t))
    # mozyrska
    try:
        one = ts.snap(1.0)
    except PointNotInScale:
        raise OneNotInScale("this construction integrates from 1, which is not in the scale") from None
    return delta_integral(lambda tau, mu: 1.0 / tau, ts, one, t, cfg)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityResult:
    identity: str
    lhs: complex
    rhs: complex
    residual: float
    lattice_k: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "lhs": {"re": self.lhs.real, "im": self.lhs.imag},
            "rhs": {"re": self.rhs.real, "im": self.rhs.imag},
            "residual": self.residual,
            "lattice_k": self.lattice_k,
            "pass": self.passed,
        }


def scaled_residual(a: complex, b: complex) -> float:
    """|a - b|, relative once the magnitudes exceed 1 (exp-sized values)."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _positive_real_on_window(p: ScaleFunction, ts: TimeScale, s: float, t: float) -> bool:
    lo, hi = min(s, t), max(s, t)
    points: list[float] = [lo, hi]
    for seg in ts.decompose(ts.snap(lo), ts.snap(hi)):
        if isinstance(seg, ContinuousPiece):
            n = 8
            points.extend(seg.a + (seg.b - seg.a) * k / n for k in range(n + 1))
        else:
            points.extend((seg.tau, seg.tau + seg.mu))
    for x in points:
        v = p(x)
        if abs(v.imag) > 1e-12 * (1.0 + abs(v)) or v.real <= 0:
            return False
    return True


def identity_suite(
    p: ScaleFunction,
    q: ScaleFunction,
    ts: TimeScale,
    s: float,
    t: float,
    alpha: float,
    cfg: ToleranceConfig | None = None,
) -> list[IdentityResult]:
    """Check the algebraic identities tying the logarithm variants together.

    Product and quotient rules and the variant comparisons hold modulo the
    2*pi*i lattice; the exponential round trip and (for positive real p)
    the power rule hold exactly.  The power rule with general complex p is
    only testable for integer alpha (mod the lattice); other combinations
    raise ValueError.  Rows are sorted by identity name.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    alpha = float(alpha)
    tol = cfg.cmp_tol
    rows: list[IdentityResult] = []

    Lp = log_delta_principal(p, ts, s, t, cfg)
    Lq = log_delta_principal(q, ts, s, t, cfg)

    lhs = cexp(Lp)
    rhs = exp_delta(delta_quotient(p, cfg), ts, s, t, cfg)
    res = scaled_residual(lhs, rhs)
    rows.append(IdentityResult("exp-of-principal-log", lhs, rhs, res, 0, res <= tol))

    lhs = log_delta_principal(p * q, ts, s, t, cfg)
    k, res = lattice_gap(lhs, Lp + Lq)
    rows.append(IdentityResult("product-rule", lhs, Lp + Lq, res, k, res <= tol))

    lhs = log_delta_principal(p / q, ts, s, t, cfg)
    k, res = lattice_gap(lhs, Lp - Lq)
    rows.append(IdentityResult("quotient-rule", lhs, Lp - Lq, res, k, res <= tol))

    lhs = log_delta_principal(p.pow(alpha), ts, s, t, cfg)
    if _positive_real_on_window(p, ts, s, t):
        res = scaled_residual(lhs, alpha * Lp)
        rows.append(IdentityResult("power-rule", lhs, alpha * Lp, res, 0, res <= tol))
    elif alpha == int(alpha):
        k, res = lattice_gap(lhs, alpha * Lp)
        rows.append(IdentityResult("power-rule", lhs, alpha * Lp, res, k, res <= tol))
    else:
        raise ValueError("power rule with non-integer alpha needs p positive real on the window")

    lhs = log_cayley_principal(p, ts, s, t, cfg)
    res = scaled_residual(lhs, Lp)
    rows.append(IdentityResult("cayley-principal", lhs, Lp, res, 0, res <= tol))

    lhs_m = log_cayley_multi(p, ts, s, t, cfg)
    k, res = lattice_gap(lhs_m, Lp)
    rows.append(IdentityResult("cayley-multi", lhs_m.rep, Lp, res, k, res <= tol))

    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        lhs_m = log_eta(eta, p, ts, s, t, cfg)
        k, res = lattice_gap(lhs_m, Lp)
        name = f"eta-{eta:g}"
        rows.append(IdentityResult(name, lhs_m.rep, Lp, res, k, res <= tol))

    rows.sort(key=lambda r: r.identity)
    return rows
