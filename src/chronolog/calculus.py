"""Delta and nabla derivatives and definite integrals on time scales.

Integrals, exponentials and window logarithms are computed by one walk,
``_walk``, which streams the scale's pieces by index up from the lower end
of a window, keeping nothing per jump, and hands each continuous stretch
and each jump to a sum object that takes the running total, the walk's
only state, to the next; the total at a stop is its mark.  The sum is
``Terms``, in which a stretch adds its integral to ``quad_tol`` and a jump
adds ``gap * f`` (integrals, exponentials and the older logarithms); the
cylinder-map definition of the logarithm (``logexp._Definition``), which
sums several rows at once, each the way ``Terms`` would; or the window
logarithm's theorem (``logexp._Winding``), whose total carries p and the
turns, for one closed form Log(p(x_n)/p(x_0)) + 2*pi*i*K, integrating only
to find the integer K; the exponentials of p's own quotients take exp of
the theorem's sum.
Every jump reaches the sum through one call, ``run``, with the points
it passes: a single jump's two ends or, on the point families, a long
run's block, an index range of points read by index
(``timescale._Points``).  The theorem reads only the points that its
certified spans of jumps keep, and evaluates p only there; the other sums
list the block once.  A run returns its total or raises, and a block
whose run raises is walked again jump by jump, so that every error is the
one a single jump raises, at the same gap.
Both integrate with one globally adaptive Gauss-Kronrod (G7K15)
integrator, ``adaptive_simpson``.  It keeps its panels in a heap ordered
by the error estimate |K15 - G7| and bisects the worst until the
estimates sum to at most its tolerance; a piece that needs more than
``MAX_QUAD_SAMPLES`` samples raises QuadratureFailure rather
than return an unconverged value.  An integral is additive over windows
and reversing a window negates it, so the walk only goes up, from its
first stop, and marks each of them; ``_window`` is the one way from a
walk to window values, from one point s to each of a list of points, a
window below s walked up and negated.  Public
integrands receive ``(tau, mu)``, with mu = 0.0 on continuous pieces; the
walk's own jump terms also receive the stored successor sigma, which tau
+ mu may round off.
"""

from __future__ import annotations

import cmath
import heapq
import math
import operator
from bisect import bisect_left
from typing import Callable, Sequence

from ._record import Record
from .errors import (
    ChronologError,
    NonFiniteIntegrand,
    PointNotInScale,
    QuadratureFailure,
    ValidationError,
)
from .expr import ScaleFunction
from .timescale import TimeScale

Integrand = Callable[[float, float], complex]
JumpTerm = Callable[[float, float, float], complex]  # (tau, mu, sigma)

# the most integrand samples the quadrature may take on one continuous piece;
# a piece that needs more raises QuadratureFailure
MAX_QUAD_SAMPLES = 200_000


class ToleranceConfig(Record):
    """Numerical knobs shared by the integration and comparison layers.

    quad_tol  absolute tolerance per continuous piece of integrals only:
              the bound on the sum of the piece's G7K15 error estimates
              |K15 - G7| in the integrals, the generic exponentials, the
              older logarithms (``legacy``) and the logarithm's definition
              walk (in ``check``).  The window logarithm's theorem, also
              behind the exponentials of p's own quotients, does not read
              it: its search for the winding K has its own ladder,
              ``logexp._WINDING_TOL`` down to ``logexp._WINDING_FLOOR``
    eps_min   minimum admissible |p(t)| for logarithm arguments
    cmp_tol   residual threshold for identity comparisons

    The quadrature's work is capped by ``MAX_QUAD_SAMPLES`` per
    piece, not by a knob here: a quad_tol that the cap cannot reach raises
    QuadratureFailure instead of returning an unconverged value.

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


def _fsum(xs, a: float, b: float) -> float:
    # the exact sum of the panels' finite values, or NonFiniteIntegrand where it overflows
    try:
        return math.fsum(xs)
    except OverflowError:
        raise NonFiniteIntegrand(f"quadrature sum is not finite on [{a}, {b}]") from None


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
    another bisection would pass ``MAX_QUAD_SAMPLES`` samples or
    the worst panel is too narrow to bisect, and NonFiniteIntegrand on bad
    samples or where the panels' sum overflows.
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
            err = _fsum((-e for e, *_ in heap), a, b)
            if err <= tol:
                break
        if samples + 30 > MAX_QUAD_SAMPLES:
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
    re = _fsum((v.real for *_, v in heap), a, b)
    im = _fsum((v.imag for *_, v in heap), a, b)
    return sign * complex(re, im)


class Terms:
    """A walk's pieces and jumps summed by the definition, one term at a time.

    A continuous piece [lo, hi] adds the integral of ``dense`` over it, to
    ``tol``; a jump from tau to its stored successor sigma, a gap mu = sigma
    - tau, adds ``mu * term(tau, mu, sigma)``, either raising
    NonFiniteIntegrand where the sum turns non-finite.  This sums integrals,
    exponentials and the older logarithms.  The other sums ``_walk`` takes
    are the window logarithm's definition (``logexp._Definition``), whose
    total is a tuple of rows, and its theorem (``logexp._Winding``).  A sum
    holds no state of a walk: the running total is all of it, and the total
    at a stop is the stop's mark.  Each sum names the total a walk starts
    from, ``start``, and answers the same three calls: ``piece(total, lo,
    hi)`` takes a continuous piece and ``run(total, xs)`` the jumps through
    the increasing points xs, one jump (two points) or a block, each
    returning the next total, and ``between(a, b)`` gives the sum from mark
    a to mark b.  Here a walk starts from 0j, ``between`` is b - a and
    ``run`` adds its jumps' terms in walk order; the exponentials' subclass
    takes a block as the product of its factors (``logexp._Exponent``),
    and the exponentials of p's own quotient take the theorem's sum
    instead.  A ``run`` returns its total or raises, and ``_walk`` then
    re-walks a block jump by jump from the total before it, which names
    the gap.
    """

    __slots__ = ("dense", "term", "tol")
    start = 0j

    def __init__(self, dense: Callable[[float], complex], term: JumpTerm, tol: float):
        self.dense = dense
        self.term = term
        self.tol = tol

    def piece(self, total: complex, lo: float, hi: float) -> complex:
        total += adaptive_simpson(self.dense, lo, hi, self.tol)
        if not cmath.isfinite(total):
            raise NonFiniteIntegrand(f"the running sum {total} is not finite")
        return total

    def run(self, total: complex, xs: Sequence[float]) -> complex:
        xs = xs[:]  # a block listed once
        for tau, sigma in zip(xs, xs[1:]):
            mu = sigma - tau
            total += mu * self.term(tau, mu, sigma)
            if not cmath.isfinite(total):
                raise NonFiniteIntegrand(f"the running sum {total} is not finite")
        return total

    def between(self, a: complex, b: complex) -> complex:
        return b - a


def _name(exc: ChronologError, where: str) -> None:
    # name the piece or gap where a term failed, keeping the error's class
    exc.args = (f"{exc} on the {where}",) + exc.args[1:]


# the jumps towards each stop that the walk takes one at a time before it
# looks up how far the stop is; the fewest jumps to a stop that it takes in
# blocks, since the first block of a p compiles p's box
# (``ScaleFunction.box``): on a 2 vCPU Xeon under CPython 3.11, one cold
# compile takes 70-90 us, as long as 55-65 of the theorem's single jumps,
# and a fresh p's run breaks even in blocks at about 100-130 jumps, so
# 256 leaves a margin of two; and the most jumps in one block, which
# bounds the points that a sum reading them all, or a block of q's
# compared, lists at once
_HANDFUL = 8
_LONG_RUN = 256
_BLOCK = 512


def _walk(sums, ts: TimeScale, stops: list[float]) -> list:
    """The one walk behind every integral, exponential and window logarithm.

    ``stops`` are increasing scale points, and the walk starts at the first.
    It streams the scale's pieces by index up from there, keeping nothing
    per jump, and threads one running total, from ``sums.start``, through
    ``sums`` (``Terms`` and the exponentials' ``logexp._Exponent``, or the
    logarithm's definition ``logexp._Definition`` or its theorem
    ``logexp._Winding``): each continuous stretch as [lo, hi] and each
    jump from tau to its stored successor sigma, a gap mu = sigma - tau,
    takes the total to the next.  It returns the total at each stop, a mark
    that ``sums.between`` turns into the sum from one stop to another; its
    one caller, ``_window``, does.  A ChronologError in a term names its
    piece or gap (``_jump``).  MAX_WINDOW_JUMPS caps the whole span, before
    any term.

    Every jump goes to ``sums.run``: a single jump as its two ends
    (``_jump``), a block as its points (``_block``).  On the point
    families, a stop at least ``_HANDFUL + _LONG_RUN`` jumps away is
    reached in blocks: after ``_HANDFUL`` single jumps, the walk takes up
    to ``_BLOCK`` jumps at once as an index range read by index
    (``TimeScale._points``), so that a run of jumps costs one call and
    what its sum reads of it (the theorem's run reads and evaluates p only
    at the points that its certified spans keep); a nearer stop is reached
    jump by jump.  A block is taken only where every gap in it is a
    distinct finite float and it passes no stop.  A run returns its total
    or raises, and the walk re-walks a block that raised once, jump by
    jump from the total before it, so that the same error is raised at the
    same gap.
    """
    x = stops[0]  # the current point, in piece k, which ends at b
    k, kt, _, _, _ = ts._span(x, stops[-1])
    blocks = ts._points(k, k) is not None
    b = ts._piece(k)[1]
    total = sums.start
    marks = []
    for stop in stops:
        single = _HANDFUL  # jumps to take one at a time before the next block
        kstop = None
        while True:
            end = stop if stop <= b else b
            if end != x:
                try:
                    total = sums.piece(total, x, end)
                except ChronologError as exc:
                    _name(exc, f"piece [{x}, {end}]")
                    raise
                x = end
            if x == stop:
                break
            if single <= 0 and blocks and kstop is None:
                kstop = min(ts._nearest(stop), kt)
                if kstop - k < _LONG_RUN:
                    single = kstop - k  # the rest of a short run, jump by jump
            if single <= 0 and blocks:
                m = k + min(kstop - k, _BLOCK)
                try:
                    xs = _block(ts, k, m, stop)
                    total = sums.run(total, xs)
                except (ChronologError, ArithmeticError):
                    single = max(1, m - k)  # the block again, jump by jump
                else:
                    k, x, b = m, xs[-1], xs[-1]
                    continue
            tau = b
            sigma, b = ts._piece(k + 1)
            if not 0.0 < sigma - tau < math.inf:
                raise PointNotInScale(f"the neighbour of {tau} is not a distinct finite float")
            total = _jump(sums, total, tau, sigma)
            k += 1
            x = sigma
            single -= 1
        marks.append(total)
    return marks


def _jump(sums, total: complex, tau: float, sigma: float) -> complex:
    # one jump of a walk, from tau to its stored successor sigma, as a run of
    # its two ends; an error in its term names the gap, here and in the
    # pointwise log derivative
    try:
        return sums.run(total, (tau, sigma))
    except ChronologError as exc:
        _name(exc, f"gap after tau={tau}")
        raise


def _block(ts: TimeScale, k: int, m: int, stop: float) -> Sequence[float]:
    # the points x_k, ..., x_m, if single jumps through them would each pass
    # the walk's gap check and none would pass the stop; else PointNotInScale.
    # Where the family proves that they strictly increase (``_distinct``),
    # they stay unlisted; elsewhere (q, and hz or alt near float resolution)
    # they are listed once and compared, and the run takes the list
    xs = ts._points(k, m)
    distinct = ts._distinct(k, m)
    if not distinct:
        xs = xs[:]
    if len(xs) > 1 and (distinct or all(map(operator.lt, xs, xs[1:]))) and xs[-1] - xs[0] < math.inf and xs[-1] <= stop:
        return xs
    raise PointNotInScale(f"the points {k} to {m} have a gap that is not a distinct finite float, or pass {stop}")


def _window(sums, ts: TimeScale, s: float, points: Sequence[float]) -> list:
    """The sum over each window [s, u], u in ``points``, from one walk.

    The one way from a walk to window values.  The points, snapped, must
    increase; the walk goes up from the lowest, with s among its stops, and
    the value at u is ``sums.between`` from the mark at s to the one at u.
    Below s it is the window [u, s] negated, as ``-1.0 * value``, not
    ``-value``, which differ in the signs of zero parts that the CLI prints.
    Many points are passed only with the theorem's sum (``logexp._Winding``),
    whose ``between`` is a closed form, so each value has the bits of a
    one-point call; for a running-total sum they would be differences of
    running totals.
    """
    s = ts.snap(s)
    points = [ts.snap(u) for u in points]
    if any(v < u for u, v in zip(points, points[1:])):
        raise ValidationError("table points must be in increasing order")
    n = bisect_left(points, s)
    marks = _walk(sums, ts, points[:n] + [s] + points[n:])
    at_s = marks.pop(n)
    return [-1.0 * sums.between(m, at_s) for m in marks[:n]] + [sums.between(at_s, m) for m in marks[n:]]


def delta_integral(
    f: Integrand, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Definite forward integral of f over [s, t] on the scale.

    ``f(tau, mu)`` is sampled with mu = 0.0 inside continuous stretches;
    each right-scattered tau contributes ``mu * f(tau, mu)``.  Swapping the
    endpoints negates the result.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    return _window(Terms(lambda x: f(x, 0.0), lambda tau, mu, sigma: f(tau, mu), cfg.quad_tol), ts, s, [t])[0]


def nabla_integral(
    f: Integrand, ts: TimeScale, s: float, t: float, cfg: ToleranceConfig | None = None
) -> complex:
    """Definite backward integral of f over [s, t] on the scale.

    Identical to the forward integral on continuous stretches; scattered
    contributions are ``nu * f(tau', nu)`` at left-scattered points tau'
    in (s, t], the stored successors, with nu the gap below tau'.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    return _window(Terms(lambda x: f(x, 0.0), lambda tau, nu, sigma: f(sigma, nu), cfg.quad_tol), ts, s, [t])[0]
