"""Logarithms and exponentials on time scales.

The central object is the window logarithm of a nonvanishing function p:
the integral of the cylinder-transformed quotient p^Delta/p from s to t.
On continuous stretches the integrand is the classical p'(tau)/p(tau); a
jump from tau to its stored successor sigma, a gap mu = sigma - tau, with
p_sigma = p(sigma), contributes

    mu * map_mu(pDelta / ((1-eta) p + eta p_sigma)),

which in exact arithmetic is Log(p_sigma / p) modulo 2*pi*i.  Every
variant is one row of the table below (``_ROWS``), read by the single
kernel ``_kernel``; the row fixes the weight eta, the cylinder map, and so
the side of the branch cut on which a jump with a negative real ratio
p_sigma/p lands:

    variant   eta   map               cut side   also read by
    delta     0     xi                +i*pi      exp_delta
    nabla     1     xi_hat            -i*pi      exp_nabla
    Cayley    1/2   cayley_psi        +i*pi
    eta       eta   eta_psi(eta, .)   +i*pi

Delta, nabla and Cayley each have a principal version (a plain complex
number) and a multi-valued version carrying the 2*pi*i lattice; eta is
multi-valued only.  They all agree modulo that lattice.

The exponentials read the same rows: exp_delta of c walks xi(mu, c(tau))
and exp_nabla walks xi_hat(mu, c(sigma(tau))), with the map as the only
regressivity check.

The window logarithm is additive over the window, L(s, u') = L(s, u) +
L(u, u'), so ``log_table`` gives the logarithm from one base to every
point of a list from one walk, the running total of the single-window
sum, instead of one walk per point.

Also here: the pointwise logarithmic derivative, five older logarithm
constructions kept for comparison, and an identity-checking suite used by
the CLI.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Union

from .calculus import (
    DEFAULT_TOLERANCES,
    ScaleFunction,
    ToleranceConfig,
    _walk,
    _window,
    delta_integral,
)
from .errors import (
    CayleyNotRegressive,
    ChronologError,
    EtaNotRegressive,
    EvalDomain,
    NonvanishingViolation,
    OneNotInScale,
    PointNotInScale,
    ValidationError,
)
from .multivalue import TWO_PI_I, MultiLog, exp as cexp, lattice_gap, principal_log
from .timescale import ContinuousPiece, TimeScale
from . import cylinder


class LogVariant(str, Enum):
    DELTA_MULTI = "delta-multi"
    DELTA_PRINCIPAL = "delta-principal"
    NABLA_MULTI = "nabla-multi"
    NABLA_PRINCIPAL = "nabla-principal"
    CAYLEY_MULTI = "cayley-multi"
    CAYLEY_PRINCIPAL = "cayley-principal"
    ETA = "eta"

    @classmethod
    def _missing_(cls, value):
        choices = ", ".join(v.value for v in cls if v is not cls.ETA)
        raise ValidationError(f"unknown variant {value!r} (expected one of {choices}, or eta:<value>)")


class LegacyKind(str, Enum):
    HUFF = "huff"
    EULER_CAUCHY = "euler-cauchy"
    INTEGRAL_QUOTIENT = "integral-quotient"
    JACKSON = "jackson"
    MOZYRSKA = "mozyrska"

    @classmethod
    def _missing_(cls, value):
        choices = ", ".join(k.value for k in cls)
        raise ValidationError(f"unknown legacy kind {value!r} (expected one of {choices})")


def _checked(p: ScaleFunction, tau: float, cfg: ToleranceConfig) -> complex:
    return _above_floor(p, tau, p(tau), cfg)


def _above_floor(p: ScaleFunction, tau: float, v: complex, cfg: ToleranceConfig) -> complex:
    if abs(v) < cfg.eps_min:
        raise NonvanishingViolation(f"|{p.label}| = {abs(v):.3e} < eps_min at tau={tau}")
    return v


def _slope(p: ScaleFunction, cfg: ToleranceConfig, tau: float) -> complex:
    # p'(tau)/p(tau) from one evaluation of both, raising what p.prime(tau)
    # and then _checked(p, tau, cfg) would raise
    v, d = p.pair(tau)
    return d / _above_floor(p, tau, v, cfg)


def delta_quotient(p: ScaleFunction, cfg: ToleranceConfig | None = None) -> Callable:
    """The coefficient (tau, mu) -> pDelta(tau)/p(tau) driving the logarithm.

    At mu = 0 this is the classical p'(tau)/p(tau); across a gap it is the
    difference quotient divided by the left value.  A (tau, mu) coefficient
    cannot see the stored successor, so this is the one place that evaluates
    p at tau + mu, which may round off the scale (0.04999999999999999 for the
    point 0.05 of hz:0.3:0.05 after tau = -0.25).
    """
    cfg = cfg or DEFAULT_TOLERANCES
    return lambda tau, mu: _quotient(p, cfg, tau, tau + mu, mu)


def _quotient(p: ScaleFunction, cfg: ToleranceConfig, tau: float, sigma: float, mu: float) -> complex:
    # pDelta(tau)/p(tau) across the gap mu to sigma, p'(tau)/p(tau) where mu = 0
    if mu > 0:
        pv = _checked(p, tau, cfg)
        return (_checked(p, sigma, cfg) - pv) / mu / pv
    try:
        return _slope(p, cfg, tau)
    except ChronologError:
        _checked(p, tau, cfg)  # here a failure of p, or its floor, comes before one of p'
        raise


# The variant table: the weight eta (the eta row's comes from the caller), the
# name of the map in `cylinder` (looked up per call, so that a wrapper on the
# module sees every map) and the error for a vanishing weighted denominator.
# Delta and nabla need none: theirs is p or p_sigma, held above eps_min.
_ROWS = {
    LogVariant.DELTA_MULTI: (0.0, "xi", None),
    LogVariant.DELTA_PRINCIPAL: (0.0, "xi", None),
    LogVariant.NABLA_MULTI: (1.0, "xi_hat", None),
    LogVariant.NABLA_PRINCIPAL: (1.0, "xi_hat", None),
    LogVariant.CAYLEY_MULTI: (0.5, "cayley_psi", CayleyNotRegressive),
    LogVariant.CAYLEY_PRINCIPAL: (0.5, "cayley_psi", CayleyNotRegressive),
    LogVariant.ETA: (None, "eta_psi", EtaNotRegressive),
}


def _kernel(variant: LogVariant, p: ScaleFunction, cfg: ToleranceConfig, eta: float | None):
    """The logarithm's jump kernel, set by the variant's row: (dense, jump) for ``_walk``.

    Continuous pieces integrate p'/p; a jump from tau to its stored successor
    sigma contributes ``mu * cylinder_map(mu, (p_sigma - p) / mu / ((1-eta) p
    + eta p_sigma))`` and raises the row's error when the weighted
    denominator is 0.  p is evaluated only at stored points.
    """
    weight, map_name, error = _ROWS[variant]
    cylinder_map = getattr(cylinder, map_name)
    if weight is None:
        if eta is None:
            raise ValidationError("the eta variant needs an explicit eta value")
        eta = cylinder._require_eta(eta)
        cylinder_map = partial(cylinder_map, eta)
    else:
        eta = weight
    keep = 1.0 - eta

    def jump(tau: float, mu: float, sigma: float) -> complex:
        pv = _checked(p, tau, cfg)
        ps = _checked(p, sigma, cfg)
        mix = keep * pv + eta * ps
        if mix == 0:
            raise error(f"(1-eta)p + eta*p_sigma vanishes for eta={eta}")
        return cylinder_map(mu, (ps - pv) / mu / mix)

    return partial(_slope, p, cfg), jump


def _window_log(
    variant: LogVariant,
    p: ScaleFunction,
    ts: TimeScale,
    s: float,
    t: float,
    cfg: ToleranceConfig | None,
    eta: float | None = None,
) -> complex:
    cfg = cfg or DEFAULT_TOLERANCES
    dense, jump = _kernel(variant, p, cfg, eta)
    return _window(dense, jump, ts, s, t, cfg)


def log_delta_principal(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Principal forward logarithm of p over the window [s, t]."""
    return _window_log(LogVariant.DELTA_PRINCIPAL, p, ts, s, t, cfg)


def log_delta_multi(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> MultiLog:
    """Multi-valued forward logarithm: principal value plus the lattice."""
    return MultiLog(log_delta_principal(p, ts, s, t, cfg), TWO_PI_I)


def log_nabla_principal(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Principal backward logarithm: backward quotients at left-scattered points."""
    return _window_log(LogVariant.NABLA_PRINCIPAL, p, ts, s, t, cfg)


def log_nabla_multi(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> MultiLog:
    return MultiLog(log_nabla_principal(p, ts, s, t, cfg), TWO_PI_I)


def log_cayley_principal(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Principal Cayley logarithm: symmetric average in the denominator."""
    return _window_log(LogVariant.CAYLEY_PRINCIPAL, p, ts, s, t, cfg)


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
    return MultiLog(_window_log(LogVariant.ETA, p, ts, s, t, cfg, eta), TWO_PI_I)


def log_ts(
    variant: Union[LogVariant, str],
    p: ScaleFunction,
    ts: TimeScale,
    s: float,
    t: float,
    cfg: ToleranceConfig | None = None,
    eta: float | None = None,
):
    """Any variant's window logarithm: complex if ``*-principal``, else MultiLog."""
    variant = LogVariant(variant)
    value = _window_log(variant, p, ts, s, t, cfg, eta)
    return value if variant.value.endswith("-principal") else MultiLog(value, TWO_PI_I)


def log_table(
    variant: Union[LogVariant, str],
    p: ScaleFunction,
    ts: TimeScale,
    base: float,
    points: list[float],
    cfg: ToleranceConfig | None = None,
    eta: float | None = None,
) -> list[complex]:
    """The window logarithm from ``base`` to each of ``points``, from one walk.

    ``points`` must be in increasing order; each value is the principal
    value (``.rep`` of the multi-valued variants) of ``log_ts`` over
    [base, u].  The points above the base share one walk up from it, which
    on a discrete scale sums the same terms in the same order as
    ``log_ts``, so those values agree bit for bit; the points below share
    one walk down from it.  The points split continuous pieces, so there
    the values may differ from ``log_ts`` in the last bits.
    """
    variant = LogVariant(variant)
    cfg = cfg or DEFAULT_TOLERANCES
    dense, jump = _kernel(variant, p, cfg, eta)
    base = ts.snap(base)
    points = [ts.snap(u) for u in points]
    if any(v < u for u, v in zip(points, points[1:])):
        raise ValidationError("table points must be in increasing order")
    n = bisect_left(points, base)
    below = _walk(dense, jump, ts, base, points[:n][::-1], cfg, -1.0)
    return below[::-1] + _walk(dense, jump, ts, base, points[n:], cfg)


def log_delta_derivative(
    p: ScaleFunction, ts: TimeScale, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Pointwise forward derivative of the logarithm of p.

    (1/mu) Log(p_sigma/p) at right-scattered points, p'(t)/p(t) at dense
    points.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    t, sigma = ts.delta_point(t)
    pv = _checked(p, t, cfg)
    if sigma > t:
        return principal_log(_checked(p, sigma, cfg) / pv) / (sigma - t)
    return p.prime(t) / pv


def _exponential(variant: LogVariant, coeff, ts: TimeScale, s: float, t: float, cfg) -> complex:
    """exp of the walk of the coefficient c, set by the variant's row.

    Continuous stretches integrate c itself; a jump from tau takes the row's
    map of c sampled at tau (weight 0) or at the stored successor sigma
    (weight 1).
    """
    if not callable(coeff):
        raise TypeError("coefficient must be a ScaleFunction or a callable (tau, mu) -> complex")
    c = (lambda tau, mu: coeff(tau)) if isinstance(coeff, ScaleFunction) else coeff
    weight, map_name, _ = _ROWS[variant]
    cylinder_map = getattr(cylinder, map_name)

    def jump(tau: float, mu: float, sigma: float) -> complex:
        return cylinder_map(mu, c(sigma if weight else tau, mu))

    return cexp(_window(lambda x: c(x, 0.0), jump, ts, s, t, cfg or DEFAULT_TOLERANCES))


def exp_delta(coeff, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None) -> complex:
    """Forward exponential: exp of the integral of the cylinder-mapped coefficient.

    The coefficient must be regressive: 1 + mu*c != 0 at every scattered
    point of the window.
    """
    return _exponential(LogVariant.DELTA_PRINCIPAL, coeff, ts, s, t, cfg)


def exp_nabla(coeff, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None) -> complex:
    """Backward exponential; needs 1 - nu*c != 0 at left-scattered points."""
    return _exponential(LogVariant.NABLA_PRINCIPAL, coeff, ts, s, t, cfg)


def legacy_log(
    kind: Union[LegacyKind, str],
    p: ScaleFunction | None,
    ts: TimeScale,
    t0: float,
    t: float,
    cfg: ToleranceConfig | None = None,
) -> complex:
    """Older logarithm constructions, kept for comparison (a zero denominator is EvalDomain).

    huff                integral of 2/(tau + sigma(tau)) from t0 to t
    euler-cauchy        integral of 1/(tau + 2*mu(tau)) from t0 to t
    integral-quotient   integral of pDelta/p from t0 to t (no cylinder map)
    jackson             pointwise pDelta(t)/p(t); ignores t0
    mozyrska            integral of 1/tau from 1 to t; needs 1 in the scale
    """
    kind = LegacyKind(kind)
    cfg = cfg or DEFAULT_TOLERANCES
    if kind in (LegacyKind.INTEGRAL_QUOTIENT, LegacyKind.JACKSON) and p is None:
        raise ValidationError(f"the {kind.value} logarithm needs a function p")

    def ratio(num: float, den: float, tau: float) -> float:
        if den == 0:
            raise EvalDomain(f"the {kind.value} integrand divides by zero at tau={tau}")
        return num / den

    if kind is LegacyKind.HUFF:
        return delta_integral(lambda tau, mu: ratio(2.0, 2.0 * tau + mu, tau), ts, t0, t, cfg)
    if kind is LegacyKind.EULER_CAUCHY:
        return delta_integral(lambda tau, mu: ratio(1.0, tau + 2.0 * mu, tau), ts, t0, t, cfg)
    if kind is LegacyKind.INTEGRAL_QUOTIENT:
        return delta_integral(delta_quotient(p, cfg), ts, t0, t, cfg)
    if kind is LegacyKind.JACKSON:
        t, sigma = ts.delta_point(t)
        return _quotient(p, cfg, t, sigma, sigma - t)
    # mozyrska
    try:
        one = ts.snap(1.0)
    except PointNotInScale:
        raise OneNotInScale("this construction integrates from 1, which is not in the scale") from None
    return delta_integral(lambda tau, mu: ratio(1.0, tau, tau), ts, one, t, cfg)


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
    for seg in ts.decompose(lo, hi):
        if isinstance(seg, ContinuousPiece):
            n = 8
            points.extend(seg.a + (seg.b - seg.a) * k / n for k in range(n + 1))
        else:
            points.extend((seg.tau, seg.sigma))
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
    raise ValidationError.  Rows are sorted by identity name.
    """
    s = ts.snap(s)
    t = ts.snap(t)
    cfg = cfg or DEFAULT_TOLERANCES
    alpha = float(alpha)
    p_alpha = p.pow(alpha)
    tol = cfg.cmp_tol
    rows: list[IdentityResult] = []

    def exact(name: str, lhs: complex, rhs: complex) -> None:
        res = scaled_residual(lhs, rhs)
        rows.append(IdentityResult(name, lhs, rhs, res, 0, res <= tol))

    def modulo_lattice(name: str, lhs, rhs: complex) -> None:
        k, res = lattice_gap(lhs, rhs)
        rows.append(IdentityResult(name, getattr(lhs, "rep", lhs), rhs, res, k, res <= tol))

    Lp = log_delta_principal(p, ts, s, t, cfg)
    Lq = log_delta_principal(q, ts, s, t, cfg)
    exact("exp-of-principal-log", cexp(Lp), exp_delta(delta_quotient(p, cfg), ts, s, t, cfg))
    modulo_lattice("product-rule", log_delta_principal(p * q, ts, s, t, cfg), Lp + Lq)
    modulo_lattice("quotient-rule", log_delta_principal(p / q, ts, s, t, cfg), Lp - Lq)

    lhs = log_delta_principal(p_alpha, ts, s, t, cfg)
    if _positive_real_on_window(p, ts, s, t):
        exact("power-rule", lhs, alpha * Lp)
    elif alpha == int(alpha):
        modulo_lattice("power-rule", lhs, alpha * Lp)
    else:
        raise ValidationError("power rule with non-integer alpha needs p positive real on the window")

    lhs = log_cayley_principal(p, ts, s, t, cfg)
    exact("cayley-principal", lhs, Lp)
    # log_cayley_multi and log_eta at 1/2 are the same walk with the lattice attached
    cayley = MultiLog(lhs, TWO_PI_I)
    modulo_lattice("cayley-multi", cayley, Lp)
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        modulo_lattice(f"eta-{eta:g}", cayley if eta == 0.5 else log_eta(eta, p, ts, s, t, cfg), Lp)

    rows.sort(key=lambda r: r.identity)
    return rows
