"""Logarithms and exponentials on time scales.

The central object is the window logarithm of a nonvanishing function p:
the integral of the cylinder-transformed quotient p^Delta/p from s to t.
On continuous stretches the integrand is the classical p'(tau)/p(tau),
whose integral over [a, b] is Log(p(b)/p(a)) + 2*pi*i*K for an integer K;
a jump from tau to its stored successor sigma, a gap mu = sigma - tau,
with p_sigma = p(sigma), contributes, by definition,

    mu * map_mu(pDelta / ((1-eta) p + eta p_sigma)),

which in exact arithmetic is Log(p_sigma / p), on the side of the branch
cut that the map sets.  Every variant names its map (``_ROWS``): delta
xi, nabla xi_hat, Cayley cayley_psi and eta eta_psi, whose row in
``cylinder`` fixes the weight eta, the regressivity error and the side of
the cut on which a jump with an exactly negative real ratio p_sigma/p
lands; so eta = 1 has the nabla weight but lands on +i*pi.

Theorem and definition.  Summing the definition's terms over a walk
x_0 -> ... -> x_n of jumps and continuous pieces gives the closed form
Log(p(x_n)/p(x_0)) + 2*pi*i*K, with the winding K the exact integer
round((sum of the turns - Arg(p(x_n)/p(x_0))) / 2*pi): a jump turns by
Arg(p(x_j+1)/p(x_j)), and a piece by Arg(p(b)/p(a)) plus 2*pi times its
own integer, which a loose integral of p'/p finds and two witnesses
confirm.  Each side has one path.  The theorem (``_Winding``) walks the
window of ``log_ts``, which every ``log_*`` function calls, of
``log_table`` and, over one jump, of the pointwise log derivative: p once
per point it keeps, and every jump, single or in a block, through one
checked loop that asks ``cylinder`` whether a factor of the row's map
vanishes (``cylinder._jump_vanishes``) and raises the row's map's errors.
A block keeps only the end of each span of jumps over which a box holding
p (``ScaleFunction.box``) stays clear of 0.  The definition
(``_Definition``) is the independent second side of the identity suite:
one walk of the weighted quotient for any number of rows, which
integrates p'/p once per piece to ``quad_tol``, evaluates p once per jump
end, and adds one principal Log per jump and row from the row's cylinder
map.  That map, looked up by name in ``cylinder``
(``_row``), is also the exponentials'.  The two sides share no step that
computes a value on a dense piece.

Delta, nabla and Cayley each have a principal version (a plain complex
number) and a multi-valued version carrying the 2*pi*i lattice; eta is
multi-valued only.  They all agree modulo that lattice.

The exponentials are exp of the definition's walk of their coefficient
(``_Exponent``): exp_delta of c walks xi(mu, c(tau)) and exp_nabla walks
xi_hat(mu, c(sigma(tau))), with the map as the only regressivity and
finiteness check: a coefficient that is not finite at a jump raises the
map's NonFiniteValue.  Since exp of a sum of Log(1 + mu*c) is the product
of the factors 1 + mu*c, a block of jumps adds the Log of its factors'
product, taken in one loop under the maps' guard, which calls the
coefficient once per jump.  The exponential of p's own quotient,
delta_quotient(p) forward or nabla_quotient(p) backward, is p(t)/p(s),
exp of the window logarithm: it takes the theorem's walk (``_Winding``)
at its row, xi or xi_hat, and exp discards the winding.

The window logarithm is additive over the window, L(s, u') = L(s, u) +
L(u, u'), so ``log_table`` gives the logarithm from one base to every
point of a list from one walk up through all of them, each row the
closed form between the base and the row, instead of one walk per point.

Also here: five older logarithm constructions kept for comparison, and an
identity-checking suite used by the CLI.
"""

from __future__ import annotations

import cmath
import math
import operator
from contextlib import suppress
from enum import Enum
from functools import partial
from typing import Callable, Sequence, Union

from ._record import Record
from .calculus import (
    DEFAULT_TOLERANCES,
    ScaleFunction,
    Terms,
    ToleranceConfig,
    _window,
    delta_integral,
)
from .errors import (
    ChronologError,
    EvalDomain,
    NonFiniteIntegrand,
    NonFiniteValue,
    NonvanishingViolation,
    OneNotInScale,
    PointNotInScale,
    QuadratureFailure,
    ValidationError,
)
from .multivalue import TWO_PI, TWO_PI_I, MultiLog, exp as cexp, lattice_gap, principal_log
from .timescale import TimeScale
from . import calculus, cylinder


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
    cannot see the stored successor, so a call evaluates p at tau + mu, which
    may round off the scale (0.04999999999999999 for the point 0.05 of
    hz:0.3:0.05 after tau = -0.25).  ``exp_delta`` knows this coefficient
    (``_quotient`` at (p, cfg)) and takes its exponential as exp of the
    delta logarithm of p, the theorem's walk (``_Winding``) at the row of
    xi, with p only at stored points and eps_min from ``cfg``.
    """
    return partial(_quotient, p, cfg or DEFAULT_TOLERANCES)


def nabla_quotient(p: ScaleFunction, cfg: ToleranceConfig | None = None) -> Callable:
    """The coefficient (tau, nu) -> pNabla(tau)/p(tau), the backward quotient for ``exp_nabla``.

    At nu = 0 this is p'(tau)/p(tau); across the gap nu below tau it is
    (p(tau) - p(tau - nu)) / nu / p(tau).  ``exp_nabla`` knows this
    coefficient and takes its exponential as exp of the nabla logarithm of
    p, the theorem's walk (``_Winding``) at the row of xi_hat, so that it
    reproduces p(t)/p(s), as ``exp_delta`` of ``delta_quotient`` does.
    """
    return partial(_quotient, p, cfg or DEFAULT_TOLERANCES, backward=True)


def _quotient(
    p: ScaleFunction, cfg: ToleranceConfig, tau: float, mu: float, sigma: float | None = None, backward: bool = False
) -> complex:
    # pDelta(tau)/p(tau) across the gap mu to sigma (tau + mu if None), or if
    # backward pNabla(tau)/p(tau) across the gap mu down to tau - mu;
    # p'(tau)/p(tau) where mu = 0
    if mu > 0:
        pv = _checked(p, tau, cfg)
        if backward:
            return (pv - _checked(p, tau - mu, cfg)) / mu / pv
        return (_checked(p, tau + mu if sigma is None else sigma, cfg) - pv) / mu / pv
    try:
        return _slope(p, cfg, tau)
    except ChronologError:
        _checked(p, tau, cfg)  # here a failure of p, or its floor, comes before one of p'
        raise


# The variant table: the name of the variant's map, looked up in `cylinder` by
# `_row` for each walk, so that a wrapper on the module sees every call of the
# map.  The map's row there gives eta, the error (also raised when (1-eta)p +
# eta*p_sigma is 0) and the side.
_ROWS = {
    LogVariant.DELTA_MULTI: "xi",
    LogVariant.DELTA_PRINCIPAL: "xi",
    LogVariant.NABLA_MULTI: "xi_hat",
    LogVariant.NABLA_PRINCIPAL: "xi_hat",
    LogVariant.CAYLEY_MULTI: "cayley_psi",
    LogVariant.CAYLEY_PRINCIPAL: "cayley_psi",
    LogVariant.ETA: "eta_psi",
}


def _row(variant: LogVariant, eta: float | None) -> tuple[tuple, float, Callable]:
    # the variant's map row in `cylinder`, its weight and its map, the eta
    # row's bound to the checked eta
    row = cylinder._ROWS[_ROWS[variant]]
    if row[1] is not None:
        return row, row[1], getattr(cylinder, row[0])
    if eta is None:
        raise ValidationError("the eta variant needs an explicit eta value")
    eta = cylinder._require_eta(eta)
    return row, eta, partial(getattr(cylinder, row[0]), eta)


class _Rows(tuple):
    # the rows' sums over a window, which ``_window`` negates row by row,
    # ``-1.0 * rows``, for a window below its start
    __slots__ = ()

    def __rmul__(self, c: float) -> _Rows:
        return _Rows(c * v for v in self)


class _Definition:
    """The logarithm by its definition, for ``_walk``: one walk for the (variant, eta) ``rows``.

    The total, and so the mark at a stop, is the tuple of the rows' sums,
    which a walk starts at 0 (``start``).  A piece adds one integral of
    p'/p, to ``quad_tol``, to every row.  A jump evaluates p at both ends once, then for each row
    in order raises the row's error where mix = (1-eta)p + eta*p_sigma is
    0 and adds mu times the row's map of z = (p_sigma - p)/mu/mix, which
    must be finite.  So each row has the bits of a walk of that row alone,
    and the first failing jump, there the first failing row, raises.
    """

    __slots__ = ("p", "cfg", "rows", "start")

    def __init__(self, p: ScaleFunction, cfg: ToleranceConfig, rows: Sequence[tuple[LogVariant, float | None]]):
        self.p, self.cfg = p, cfg
        self.rows = [_row(variant, eta) for variant, eta in rows]
        self.start = (0j,) * len(self.rows)

    def piece(self, total: tuple, lo: float, hi: float) -> tuple:
        integral = calculus.adaptive_simpson(partial(_slope, self.p, self.cfg), lo, hi, self.cfg.quad_tol)
        return tuple(v + integral for v in total)

    def step(self, total: tuple, tau: float, mu: float, sigma: float) -> tuple:
        pv, ps = _checked(self.p, tau, self.cfg), _checked(self.p, sigma, self.cfg)
        sums = []
        for (row, eta, cylinder_map), v in zip(self.rows, total):
            mix = (1.0 - eta) * pv + eta * ps
            if mix == 0:
                raise cylinder._vanishing_mean(row, eta)
            sums.append(v + mu * cylinder_map(mu, (ps - pv) / mu / mix))
        return tuple(sums)

    run = Terms.run

    def between(self, a: tuple, b: tuple) -> _Rows:
        return _Rows(v - u for u, v in zip(a, b))


# the window logarithm's theorem needs only the integer winding of p'/p over
# a continuous piece: it integrates at the loose tolerance first, tightening
# 100-fold down to the floor (1e-2, 1e-4, ..., 1e-10, whatever quad_tol is),
# and accepts the integer where the integral's turns lie within the slack of it
_WINDING_TOL = 1e-2
_WINDING_FLOOR = 1e-10
_WINDING_SLACK = 0.05


# the thinning of a run (``_Winding._kept``): the fewest jumps a span must
# have to be tried, the jumps of the smallest span worth splitting towards,
# and the margin by which p's box must clear 0, relative to its farthest
# corner
_FEWEST = 16
_SPLIT_TO = 8
_MARGIN = 2.0**-20


class _Winding:
    """The theorem over a walk x_0 -> ... -> x_n of pieces and jumps, for ``_walk``.

    Each jump's cylinder term equals Log(p_sigma/p) in exact arithmetic, on
    the row's side of the cut, and each continuous piece [lo, hi] adds the
    integral of p'/p, which is Log(p(hi)/p(lo)) + 2*pi*i*K_piece; so the walk
    contributes

        Log(p(x_n)/p(x_0)) + 2*pi*i*K,
        K = round((sum of the turns - Arg(p(x_n)/p(x_0))) / 2*pi),

    with K an exact integer, a jump turning by Arg(p_sigma/p) and a piece by
    Arg(p(hi)/p(lo)) + 2*pi*K_piece.  The same holds between any two points
    of the walk.  So the walk's total, and the mark at a stop, is (p at the
    walk's first point, p at its current point, the modulus of that p, the
    turns so far), from ``start``, None, before its first piece or jump;
    ``between`` takes the closed form from one mark to another, a start
    mark standing for the first point.  Only the integer K_piece needs the
    integral, so it is taken at the loose tolerance ``_WINDING_TOL``, by
    ``calculus.adaptive_simpson`` looked up at call time, and accepted only
    on two witnesses: its ratio (Im I - Arg)/2*pi lies within
    ``_WINDING_SLACK`` of an integer, and Re I, which equals ln|p(hi)/p(lo)|
    exactly, agrees with it within the tolerance.  Otherwise the integral is
    retried at 1/100 of the tolerance, down to ``_WINDING_FLOOR``, after
    which the piece raises QuadratureFailure.  ``cfg.quad_tol`` plays no
    part, so a log has the same bits at every quad_tol.  The integral
    samples each end, p' before p and the floor at each, before the closed
    form reads p there.

    p is evaluated once per kept point: the walk's first piece, jump or
    block evaluates both its ends (``_open``), and each later one only its
    new end, carrying the other forward in the mark.  Every jump, single or
    in a block, goes through one loop (``_advance``), which evaluates p at
    each new point in walk order, raising NonvanishingViolation below
    eps_min and NonFiniteValue there, and raises what the row's map would:
    the row's error when (1-eta)p + eta*p_sigma is 0, and, when ``cylinder``
    finds that a factor of the map vanishes on the jump
    (``cylinder._jump_vanishes``, asked only where one value is far below
    the other), the map's own error and message at mu and z = (p_sigma -
    p)/mu/mix; a ratio p_sigma/p that overflows or underflows raises
    NonFiniteIntegrand.

    The exponentials of p's own quotients are exp of this walk at the rows
    of xi and xi_hat: in exact arithmetic each jump's factor is p_sigma/p,
    and a piece's exp is p(hi)/p(lo), so the winding, which exp discards,
    only has to be witnessed.

    ``run`` takes a block of jumps through increasing points xs of a point
    family, from the walk's current point xs[0].  It first thins the block
    (``_kept``): a span [x_i, x_j] is certified where p's box over it
    (``ScaleFunction.box``) lies at least max(eps_min, 2^-20 |far corner|)
    from 0, and keeps only x_j.  That is sound: a convex box that misses 0
    lies in an open half-plane, so every ratio of p in it turns by less
    than pi, the span's Arg is the sum of its jumps' turns, every weighted
    mean (1-eta)p + eta*p_sigma lies in it, and every check passes.  Then
    ``_advance`` takes the kept points, a certified span as one jump.
    A block that fails raises, typed but named at no gap, and ``_walk``
    walks it again by ``step``, which names the gap.
    """

    __slots__ = ("p", "cfg", "row", "keep", "eta", "cut")
    start = None

    def __init__(self, p: ScaleFunction, cfg: ToleranceConfig, row: tuple, eta: float):
        self.p, self.cfg, self.row, self.eta, self.keep = p, cfg, row, eta, 1.0 - eta
        self.cut = row[3] * math.pi  # Arg of an exactly negative real ratio

    def _open(self, x: float) -> tuple:
        # the mark at the walk's first point x, p there evaluated with its first piece, jump or block
        v = _checked(self.p, x, self.cfg)
        return v, v, abs(v), 0.0

    def piece(self, mark: tuple | None, lo: float, hi: float) -> tuple:
        p, cfg = self.p, self.cfg
        slope = partial(_slope, p, cfg)
        tol = _WINDING_TOL
        # sampling lo and hi first, the integral raises at the ends what the definition would
        integral = calculus.adaptive_simpson(slope, lo, hi, tol)
        first, pl, _, turns = mark or self._open(lo)
        ph = _checked(p, hi, cfg)
        log = _log_ratio(ph, pl)
        while True:
            x = (integral.imag - log.imag) / TWO_PI
            k = round(x)
            off = abs(integral.real - log.real)
            if abs(x - k) <= _WINDING_SLACK and off <= tol:
                return first, ph, abs(ph), turns + (log.imag + TWO_PI * k)
            if tol <= _WINDING_FLOOR:
                raise QuadratureFailure(
                    f"no integer winding of p'/p is witnessed at tol {tol:.3g}: "
                    f"{x:.6g} turns, real part off by {off:.3g}"
                )
            tol /= 100.0
            integral = calculus.adaptive_simpson(slope, lo, hi, tol)

    def step(self, mark: tuple | None, tau: float, mu: float, sigma: float) -> tuple:
        return self._advance(mark or self._open(tau), tau, (sigma,))

    def run(self, mark: tuple | None, xs: Sequence[float]) -> tuple:
        # xs[0] is the walk's current point
        return self._advance(mark or self._open(xs[0]), xs[0], self._kept(xs))

    def _advance(self, mark: tuple, tau: float, sigmas: Sequence[float]) -> tuple:
        # the mark after the jumps from tau, the walk's current point, through
        # the points sigmas, p evaluated at each in turn and checked against the floor
        p, cfg, keep, eta, cut = self.p, self.cfg, self.keep, self.eta, self.cut
        mixed = 0.0 < eta < 1.0
        isfinite, atan2, screen, vanishes = cmath.isfinite, math.atan2, cylinder._SCREEN, cylinder._jump_vanishes
        first, pv, apv, turns = mark
        for sigma in sigmas:
            ps = _checked(p, sigma, cfg)
            aps = abs(ps)
            # at eta = 0 or 1 the weighted denominator is p or p_sigma, above the floor
            if mixed and keep * pv + eta * ps == 0:
                raise cylinder._vanishing_mean(self.row, eta)
            r = ps / pv
            # r can be 0 only where |p_sigma| < cylinder._SCREEN * |p|, on a screened jump
            if (aps < screen * apv or apv < screen * aps) and (r == 0 or vanishes(eta, pv, ps)) or not isfinite(r):
                if vanishes(eta, pv, ps):
                    mu = sigma - tau
                    raise cylinder._vanishing(self.row, eta, mu, (ps - pv) / mu / (keep * pv + eta * ps))
                raise NonFiniteIntegrand(f"the jump ratio p_sigma/p = {r} is not finite and nonzero")
            im = r.imag
            turns += cut if im == 0.0 and r.real < 0.0 else atan2(im, r.real)
            tau, pv, apv = sigma, ps, aps
        return first, pv, apv, turns

    def _kept(self, xs: Sequence[float]) -> list[float]:
        # the points of xs[1:] that the run evaluates p at: xs's index range
        # bisected, left half first, each span [x_i, x_j] of at least
        # _FEWEST jumps kept as its end point alone where p's box over it
        # is certified, and split only where the box's half-diagonal is
        # under |centre| (2^(n/_SPLIT_TO) - 1), which leaves a span of
        # _SPLIT_TO jumps a chance: log(1 + half-diagonal/|centre|) at
        # most halves with the span under the rules of sums, products,
        # powers and exp.  A refused box keeps its span whole
        box, floor, hypot = self.p.box, self.cfg.eps_min, math.hypot
        kept: list[float] = []
        spans = [(0, len(xs) - 1)]
        while spans:
            i, j = spans.pop()
            n = j - i
            if n >= _FEWEST and (enclosure := box(xs[i], xs[j])) is not None:
                xl, xh, yl, yh = enclosure
                gap = hypot(max(xl, -xh, 0.0), max(yl, -yh, 0.0))  # the box's distance from 0
                if gap >= floor and gap >= _MARGIN * hypot(max(-xl, xh), max(-yl, yh)):
                    kept.append(xs[j])
                    continue
                if hypot(xh - xl, yh - yl) < hypot(xl + xh, yl + yh) * (2.0 ** (n / _SPLIT_TO) - 1.0):
                    h = (i + j) // 2
                    spans += ((h, j), (i, h))
                    continue
            kept += xs[i + 1 : j + 1]
        return kept

    def between(self, a: tuple | None, b: tuple | None) -> complex:
        # Log(p_b/p_a) + 2*pi*i*round((T_b - T_a - Arg(p_b/p_a)) / 2*pi), from
        # the marks of two points of the walk, p and the turns T at each; 0j
        # from a mark to itself, one point, where p/p may round off 1
        if a is b:
            return 0j
        first = (a or b)[0]
        pa, ta = (a[1], a[3]) if a else (first, 0.0)
        pb, tb = (b[1], b[3]) if b else (first, 0.0)
        log = _log_ratio(pb, pa)
        k = round((tb - ta - log.imag) / TWO_PI)
        return complex(log.real, log.imag + TWO_PI * k)


def _log_ratio(num: complex, den: complex) -> complex:
    # Log(num/den); where the quotient leaves float range, a log equal to it
    # modulo 2*pi*i, whose branch the caller's integer absorbs
    r = num / den
    return cmath.log(r) if r and cmath.isfinite(r) else cmath.log(num) - cmath.log(den)


def _theorem(variant: LogVariant, p: ScaleFunction, cfg: ToleranceConfig, eta: float | None) -> _Winding:
    """The logarithm by the theorem, set by the variant's row: ``_Winding`` for ``_walk``."""
    return _Winding(p, cfg, *_row(variant, eta)[:2])


def log_delta_principal(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Principal forward logarithm of p over the window [s, t]."""
    return log_ts(LogVariant.DELTA_PRINCIPAL, p, ts, s, t, cfg)


def log_delta_multi(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> MultiLog:
    """Multi-valued forward logarithm: principal value plus the lattice."""
    return log_ts(LogVariant.DELTA_MULTI, p, ts, s, t, cfg)


def log_nabla_principal(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Principal backward logarithm: backward quotients at left-scattered points."""
    return log_ts(LogVariant.NABLA_PRINCIPAL, p, ts, s, t, cfg)


def log_nabla_multi(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> MultiLog:
    return log_ts(LogVariant.NABLA_MULTI, p, ts, s, t, cfg)


def log_cayley_principal(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Principal Cayley logarithm: symmetric average in the denominator."""
    return log_ts(LogVariant.CAYLEY_PRINCIPAL, p, ts, s, t, cfg)


def log_cayley_multi(
    p: ScaleFunction, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> MultiLog:
    return log_ts(LogVariant.CAYLEY_MULTI, p, ts, s, t, cfg)


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
    return log_ts(LogVariant.ETA, p, ts, s, t, cfg, eta)


def log_ts(
    variant: Union[LogVariant, str],
    p: ScaleFunction,
    ts: TimeScale,
    s: float,
    t: float,
    cfg: ToleranceConfig | None = None,
    eta: float | None = None,
):
    """Any variant's window logarithm by the theorem: complex if ``*-principal``, else MultiLog.

    Every ``log_*`` function comes here with its variant.
    """
    variant = LogVariant(variant)
    cfg = cfg or DEFAULT_TOLERANCES
    value = _window(_theorem(variant, p, cfg, eta), ts, s, [t])[0]
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
    [base, u], bit for bit, from one ``calculus._window`` of the theorem's
    sum: Log(p(u)/p(base)) plus 2*pi*i times the winding between them, a
    row below the base the one of [u, base] negated.  Outside the winding
    integrals, p is evaluated once per scale point the walk crosses or
    stops at, the base included.
    """
    return _window(_theorem(LogVariant(variant), p, cfg or DEFAULT_TOLERANCES, eta), ts, base, points)


def log_delta_derivative(
    p: ScaleFunction, ts: TimeScale, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Pointwise forward derivative of the logarithm of p.

    At a right-scattered t, the theorem's one jump over mu, a step from
    the start mark to the mark at sigma(t), whose closed form divided by mu
    equals ``log_ts("delta-principal", p, ts, t, sigma(t)) / mu`` bit for
    bit, raising what that call raises; p'(t)/p(t) at a dense t.  A value
    that is not finite raises NonFiniteIntegrand naming t.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    t, sigma = ts.delta_point(t)
    if sigma == t:
        return _finite_at(_quotient(p, cfg, t, 0.0), "the log derivative", t)
    winding = _theorem(LogVariant.DELTA_PRINCIPAL, p, cfg, None)
    mark = calculus._jump(winding, winding.start, t, sigma - t, sigma)
    return _finite_at(winding.between(winding.start, mark) / (sigma - t), "the log derivative", t)


def _finite_at(v: complex, what: str, t: float) -> complex:
    # a pointwise value, or NonFiniteIntegrand naming its point
    if not cmath.isfinite(v):
        raise NonFiniteIntegrand(f"{what} = {v} is not finite at t={t}")
    return v


class _Exponent(Terms):
    """An exponential's exponent: ``Terms`` of the row's map of c at tau (delta) or sigma (nabla).

    ``run`` adds a block's terms as the Log of the product of the row's
    factors, equal to their sum modulo 2*pi*i, which exp discards: times
    each 1 + mu*c forward (xi), over each 1 - mu*c backward (xi_hat).  The
    product is prod * 2^power, prod scaled into [1/2, 1) by a power of 2,
    which is exact, wherever it would leave [1e-280, 1e280].  The
    coefficient, a ScaleFunction c(tau) or a callable c(tau, mu), is called
    inside the loop, jump by jump, so the first failure in walk order is
    the one raised.  A block raises where a factor trips the maps'
    guard, the product is not finite or under 1e-300, or a gap is below
    1e-300 (where mu * map(mu, c) can overflow); ``_walk`` then walks it by
    ``step``.  The library's own quotients of p take the theorem's walk
    (``_Winding``) instead.
    """

    __slots__ = ("c", "row", "at_sigma")

    def __init__(self, variant: LogVariant, coeff, cfg: ToleranceConfig):
        if not callable(coeff):
            raise TypeError("coefficient must be a ScaleFunction or a callable (tau, mu) -> complex")
        c = (lambda tau, mu: coeff(tau)) if isinstance(coeff, ScaleFunction) else coeff
        row, _, cylinder_map = _row(variant, None)
        at_sigma = variant is LogVariant.NABLA_PRINCIPAL
        term = lambda tau, mu, sigma: cylinder_map(mu, c(sigma if at_sigma else tau, mu))
        super().__init__(lambda x: c(x, 0.0), term, cfg.quad_tol)
        self.c, self.row, self.at_sigma = c, row, at_sigma

    def run(self, total: complex, xs: Sequence[float]) -> complex:
        taus, sigmas = xs[:-1], xs[1:]
        mus = list(map(operator.sub, sigmas, taus))
        if min(mus) < 1e-300:
            raise NonFiniteValue("a gap below 1e-300, where a jump's term can overflow")
        ats = sigmas if self.at_sigma else taus
        row, eta, forward = self.row, self.row[1], not self.at_sigma
        prod, power = 1 + 0j, 0
        for hz in map(operator.mul, mus, map(complex, map(self.c, ats, mus))):
            # where |hz| <= 1/2 the factor, xi's num or xi_hat's den, is at least 1/2
            if abs(hz) > 0.5 and cylinder._vanishes(eta, hz):
                raise row[2](f"{row[0]}: a factor vanishes for eta={eta}, h*z={hz}")
            factor = 1 + hz if forward else 1 - hz
            prod = prod * factor if forward else prod / factor
            if not 1e-280 <= abs(prod) <= 1e280:
                if not 1e-300 < abs(prod) < math.inf:
                    raise NonFiniteValue(f"the block's product {prod} is not finite or under 1e-300")
                a = math.frexp(abs(prod))[1]
                prod, power = prod * 2.0**-a, power + a
        log = principal_log(prod)  # + power * ln 2, split so that power times the high part is exact
        return total + complex(log.real + power * 1.9082149292705877e-10 + power * 0.6931471803691238, log.imag)


def _exponent(variant: LogVariant, coeff, cfg: ToleranceConfig) -> Terms | _Winding:
    # the exponent's sum: for the row's own quotient of p, delta_quotient
    # forward and nabla_quotient backward, the theorem's log at the row, whose
    # winding exp discards, under the coefficient's own config (its eps_min);
    # else _Exponent
    own = {"backward": True} if variant is LogVariant.NABLA_PRINCIPAL else {}
    if isinstance(coeff, partial) and coeff.func is _quotient and len(coeff.args) == 2 and coeff.keywords == own:
        return _theorem(variant, *coeff.args, None)
    return _Exponent(variant, coeff, cfg)


def exp_delta(coeff, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None) -> complex:
    """Forward exponential: exp of the integral of the cylinder-mapped coefficient.

    The coefficient c(tau, mu) is sampled at tau.  It must be regressive:
    1 + mu*c != 0 at every scattered point of the window.  A run of jumps
    contributes the product of its factors 1 + mu*c, a block of them from
    one loop, and a single jump exp(mu * xi(mu, c)).  For c =
    ``delta_quotient(p)`` each factor is p(sigma)/p(tau), so the exponential
    is exp of the delta logarithm of p by the theorem (``_Winding``): p(t)/p(s)
    from p at stored points, with no 1 + mu*c formed, and each vanishing
    factor raising what xi raises.
    """
    return cexp(_window(_exponent(LogVariant.DELTA_PRINCIPAL, coeff, cfg or DEFAULT_TOLERANCES), ts, s, [t])[0])


def exp_nabla(coeff, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None) -> complex:
    """Backward exponential: c(tau', nu) is sampled at the left-scattered
    points tau' = sigma(tau), the stored successors, with nu the gap below
    them; needs 1 - nu*c != 0 there.

    A run of jumps contributes the product of its factors 1/(1 - nu*c), a
    block of them from one loop.  For c = ``nabla_quotient(p)`` each factor
    is p(sigma)/p(tau), so the exponential is exp of the nabla logarithm of
    p by the theorem (``_Winding``): p(t)/p(s) from p at stored points, with
    no 1 - nu*c formed, and each vanishing factor raising what xi_hat raises.
    """
    return cexp(_window(_exponent(LogVariant.NABLA_PRINCIPAL, coeff, cfg or DEFAULT_TOLERANCES), ts, s, [t])[0])


def legacy_log(
    kind: Union[LegacyKind, str],
    p: ScaleFunction | None,
    ts: TimeScale,
    t0: float | None,
    t: float,
    cfg: ToleranceConfig | None = None,
) -> complex:
    """Older logarithm constructions, kept for comparison (a zero denominator is EvalDomain).

    huff                integral of 2/(tau + sigma(tau)) from t0 to t
    euler-cauchy        integral of 1/(tau + 2*mu(tau)) from t0 to t
    integral-quotient   integral of pDelta/p from t0 to t (no cylinder map)
    jackson             pointwise pDelta(t)/p(t), which must be finite; ignores t0
    mozyrska            integral of 1/tau from 1 to t; needs 1 in the scale; ignores t0

    t0 may be None for jackson and mozyrska; the three kinds that integrate
    from it raise ValidationError without it, as does a missing p where the
    kind needs one.
    """
    kind = LegacyKind(kind)
    cfg = cfg or DEFAULT_TOLERANCES
    if t0 is None and kind in (LegacyKind.HUFF, LegacyKind.EULER_CAUCHY, LegacyKind.INTEGRAL_QUOTIENT):
        raise ValidationError(f"the {kind.value} logarithm integrates from t0, which is missing")
    if kind in (LegacyKind.INTEGRAL_QUOTIENT, LegacyKind.JACKSON) and p is None:
        raise ValidationError(f"the {kind.value} logarithm needs a function p")

    def ratio(num: float, den: float, tau: float) -> float:
        if den == 0:
            raise EvalDomain(f"the {kind.value} integrand divides by zero at tau={tau}")
        return num / den

    if kind is LegacyKind.HUFF:
        dense, term = (lambda x: ratio(2.0, 2.0 * x, x)), (lambda tau, mu, sigma: ratio(2.0, tau + sigma, tau))
        return _window(Terms(dense, term, cfg.quad_tol), ts, t0, [t])[0]
    if kind is LegacyKind.EULER_CAUCHY:
        return delta_integral(lambda tau, mu: ratio(1.0, tau + 2.0 * mu, tau), ts, t0, t, cfg)
    if kind is LegacyKind.INTEGRAL_QUOTIENT:
        dense, term = (lambda x: _quotient(p, cfg, x, 0.0)), (lambda tau, mu, sigma: _quotient(p, cfg, tau, mu, sigma))
        return _window(Terms(dense, term, cfg.quad_tol), ts, t0, [t])[0]
    if kind is LegacyKind.JACKSON:
        t, sigma = ts.delta_point(t)
        return _finite_at(_quotient(p, cfg, t, sigma - t, sigma), "the quotient pDelta/p", t)
    # mozyrska
    try:
        one = ts.snap(1.0)
    except PointNotInScale:
        raise OneNotInScale("this construction integrates from 1, which is not in the scale") from None
    return delta_integral(lambda tau, mu: ratio(1.0, tau, tau), ts, one, t, cfg)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


class IdentityResult(Record):
    __slots__ = ("identity", "lhs", "rhs", "residual", "lattice_k", "passed")

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
    """Whether p is positive real at every scale point of the window and at
    9 points across each continuous stretch, evaluating p once per point in
    increasing order and stopping at the first point where it is not."""
    last = None
    for a, b in ts._clipped_pieces(min(s, t), max(s, t)):
        for x in [a + (b - a) * j / 8 for j in range(9)] + [b] if b > a else (a,):
            if x != last:
                v = p(x)
                if abs(v.imag) > 1e-12 * (1.0 + abs(v)) or v.real <= 0:
                    return False
                last = x
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
    only testable for integer alpha (mod the lattice); for other alpha a p
    that is not positive real raises ValidationError before any walk.  Rows
    are sorted by identity name.

    The five logarithms on the left of the rules, among them the reference
    Lp, come from the theorem (``log_ts``).  One walk, right after Lp and
    Lq, is the definition (``_Definition``: the cylinder maps) at the rows
    delta, Cayley and eta 1/4, 3/4 and 1: the Cayley and eta rows compare
    it with Lp, and the exponential round trip compares exp(Lp) with exp
    of the delta row, also the eta = 0 row's, so a fault in either
    construction fails a row rather than appearing on both sides of it.
    """
    s = ts.snap(s)
    t = ts.snap(t)
    cfg = cfg or DEFAULT_TOLERANCES
    alpha = float(alpha)
    p_alpha = p.pow(alpha)
    # a fractional alpha needs p positive real on the window: an input error,
    # found before any walk can fail numerically; where p itself fails there,
    # the walks raise that, naming where, or the scan below raises it again
    positive = None
    if not alpha.is_integer():
        with suppress(ChronologError):
            positive = _positive_real_on_window(p, ts, s, t)
        if positive is False:
            raise ValidationError("power rule with non-integer alpha needs p positive real on the window")
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
    etas = (0.25, 0.75, 1.0)
    definition = _Definition(
        p, cfg, [(LogVariant.DELTA_PRINCIPAL, None), (LogVariant.CAYLEY_PRINCIPAL, None)] + [(LogVariant.ETA, e) for e in etas]
    )
    delta, cayley, *walked = _window(definition, ts, s, [t])[0]
    exact("exp-of-principal-log", cexp(Lp), cexp(delta))
    modulo_lattice("product-rule", log_delta_principal(p * q, ts, s, t, cfg), Lp + Lq)
    modulo_lattice("quotient-rule", log_delta_principal(p / q, ts, s, t, cfg), Lp - Lq)

    lhs = log_delta_principal(p_alpha, ts, s, t, cfg)
    if positive or _positive_real_on_window(p, ts, s, t):
        exact("power-rule", lhs, alpha * Lp)
    else:
        modulo_lattice("power-rule", lhs, alpha * Lp)

    exact("cayley-principal", cayley, Lp)
    # the multi-valued Cayley log and eta = 1/2 are the Cayley row with the
    # lattice attached, and eta = 0 is the delta row: the same map arithmetic at eta 0
    modulo_lattice("cayley-multi", cayley, Lp)
    for eta, lhs in zip((0.0, 0.5) + etas, [delta, cayley] + walked):
        modulo_lattice(f"eta-{eta:g}", lhs, Lp)

    rows.sort(key=lambda r: r.identity)
    return rows
