"""Time-scale representations: membership, jump operators, window pieces.

A time scale is a nonempty closed subset of the reals.  The supported
families are the whole line, uniform grids, geometric grids q^k, finite
point sets, finite unions of closed intervals, and grids that alternate
between two gap sizes.

Every family is an increasing sequence of closed pieces [a_k, b_k]: an
interval, or an isolated point when a_k = b_k.  The whole line is the one
piece (-inf, inf), a union lists its intervals, and the four discrete
families are points x_k = a_k = b_k read straight off their index (a
closed form on the grids, the stored tuple on a set).  :class:`TimeScale`
implements membership and the jumps once on that sequence: a point is
snapped to its piece index k once, and sigma jumps the gap b_k -> a_{k+1}.
A window [s, t] is its pieces clipped to it (``_clipped_pieces``): each
piece with b > a is a continuous stretch (graininess zero throughout), and
consecutive pieces are joined by the scattered jump across their gap.  The
window walk (``calculus._walk``) reads the same sequence by index, from
``_span`` and ``_piece``.

Scale spec grammar (CLI and :func:`parse_timescale`):

    r                          the reals
    hz:<h>[:<anchor>]          uniform grid anchor + h*Z
    q:<q>                      geometric grid {q^k : k >= 0}, q > 1
    alt:<a>,<b>                gaps alternating a, b, a, b, ... from 0
    union:[lo,hi](;[lo,hi])*   closed intervals, strictly increasing
    set:p1,p2,...              finite point set
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter
from typing import Iterator

from ._record import Record
from .errors import InvalidTimeScale, KappaBoundary, PointNotInScale, UnboundedWindow, ValidationError

# absolute snap tolerance; geometric grids scale it by the point magnitude
MEMBERSHIP_TOL = 1e-12

# the most gaps one window may jump; a longer window raises UnboundedWindow
# before any work.  The window walk and the CLI's table stream the pieces, so
# for them the cap is a time bound (a million jumps take seconds): the walk
# holds at most one block of a few hundred points at a time, and it is the
# block, not the window, that bounds its memory
MAX_WINDOW_JUMPS = 10**6

# the most integrand samples the quadrature may take on one continuous piece;
# a piece that needs more raises QuadratureFailure
MAX_QUAD_SAMPLES = 200_000

# the window logarithm's theorem needs only the integer winding of p'/p over
# a continuous piece: it integrates at this loose tolerance first, and accepts
# the integer where the integral's turns lie within this slack of it
_WINDING_TOL = 1e-2
_WINDING_SLACK = 0.05


# unused by the library; perfbench/tracer.py reads it, until ROADMAP item 1's benchmark change
class ScatteredJump(Record):
    """A right-scattered point tau, its stored successor sigma and the gap mu = sigma - tau."""

    __slots__ = ("tau", "mu", "sigma")


class TimeScale(Record):
    """Base class for all scale families: closed pieces [a_k, b_k] increasing in k.

    Each family is a frozen ``Record`` of its parameters.  It supplies
    ``_piece(k)`` -> (a_k, b_k), ``_nearest(t)`` (the index of the piece
    nearest t) and the index bounds ``_kmin``/``_kmax`` (None when
    unbounded), and may override the snap tolerance ``_tol(x)``.  The four
    point families also list the points x_k0, ..., x_k1 at once
    (``_points``), for the walk's blocks of jumps.
    Inside a piece every point is dense; sigma(b_k) = a_{k+1} and
    rho(a_k) = b_{k-1}, each end itself past the first or last piece.
    """

    __slots__ = ()

    _kmin: int | None = None
    _kmax: int | None = None

    def _tol(self, x: float) -> float:
        return MEMBERSHIP_TOL

    def _lookup(self, t: float) -> tuple[int, float, float, float]:
        # index k, piece (a, b) and the exact stored point within tolerance
        # of t: the nearer end of the piece (a on a tie), else t inside it
        t = float(t)
        if not math.isfinite(t):
            raise PointNotInScale(f"{t!r} is not a finite real")
        try:
            k = self._nearest(t)
        except OverflowError:
            raise PointNotInScale(f"{t} has no piece index within float range") from None
        a, b = self._piece(k)
        x = a if t - a <= b - t else b
        if abs(t - x) <= self._tol(x):
            return k, a, b, x
        if a < t < b:
            return k, a, b, t
        raise PointNotInScale(f"{t} is not in the scale (nearest point {min(max(t, a), b)})")

    def _step(self, k: int, x: float, d: int) -> float:
        # the end of piece k+d facing x, an end of piece k, for d = +1 or -1;
        # x itself past the last or first piece.  A neighbour that rounds
        # onto x (spacing below float resolution) or overflows is no point.
        if k == (self._kmax if d > 0 else self._kmin):
            return x
        a, b = self._piece(k + d)
        y = a if d > 0 else b
        if not 0.0 < (y - x) * d < math.inf:
            raise PointNotInScale(f"the neighbour of {x} is not a distinct finite float")
        return y

    def _points(self, k0: int, k1: int) -> list[float] | tuple[float, ...] | None:
        # the points x_k0, ..., x_k1 of a point family, each by the expression
        # of _piece(k)[0], so the bits match; None where pieces are intervals
        return None

    def contains(self, t: float) -> bool:
        try:
            self.snap(t)
        except PointNotInScale:
            return False
        return True

    def snap(self, t: float) -> float:
        """Return the exact stored point within tolerance of t.

        Raises PointNotInScale when t is not (close to) a member.
        """
        return self._lookup(t)[3]

    def sigma(self, t: float) -> float:
        """Forward jump: the next point of the scale (t itself where right-dense or at the max)."""
        k, _, b, x = self._lookup(t)
        return x if x < b else self._step(k, x, 1)

    def rho(self, t: float) -> float:
        """Backward jump: the previous point (t itself where left-dense or at the min)."""
        k, a, _, x = self._lookup(t)
        return x if x > a else self._step(k, x, -1)

    def mu(self, t: float) -> float:
        """Forward graininess sigma(t) - t."""
        return self.sigma(t) - self.snap(t)

    def nu(self, t: float) -> float:
        """Backward graininess t - rho(t)."""
        return self.snap(t) - self.rho(t)

    @property
    def min_point(self) -> float | None:
        if self._kmin is None:
            return None
        a = self._piece(self._kmin)[0]
        return a if math.isfinite(a) else None

    @property
    def max_point(self) -> float | None:
        if self._kmax is None:
            return None
        b = self._piece(self._kmax)[1]
        return b if math.isfinite(b) else None

    def delta_point(self, t: float) -> tuple[float, float]:
        """The stored point x within tolerance of t and sigma(x), from one
        piece lookup.

        Raises KappaBoundary where no delta operation is defined: at a
        left-scattered maximum, the start of the last piece with a piece
        below it.
        """
        k, a, b, x = self._lookup(t)
        if x == a and x == self.max_point and self._step(k, x, -1) < x:
            raise KappaBoundary(f"delta operation undefined at left-scattered maximum {x}")
        return x, (x if x < b else self._step(k, x, 1))

    def nabla_point(self, t: float) -> tuple[float, float]:
        """The stored point x within tolerance of t and rho(x), from one
        piece lookup.

        Raises KappaBoundary where no nabla operation is defined: at a
        right-scattered minimum, the end of the first piece with a piece
        above it.
        """
        k, a, b, x = self._lookup(t)
        if x == b and x == self.min_point and self._step(k, x, 1) > x:
            raise KappaBoundary(f"nabla operation undefined at right-scattered minimum {x}")
        return x, (x if x > a else self._step(k, x, -1))

    def _span(self, s: float, t: float) -> tuple[int, int, float, float, float]:
        # piece indices ks, kt, the end b of piece ks, and the stored s <= t
        ks, _, b, s = self._lookup(s)
        kt, _, _, t = self._lookup(t)
        if s > t:
            raise ValidationError(f"the window [{s}, {t}] is reversed: its start must not exceed its end")
        if kt - ks > MAX_WINDOW_JUMPS:
            raise UnboundedWindow(
                f"the window [{s}, {t}] jumps {kt - ks} gaps, more than {MAX_WINDOW_JUMPS}"
            )
        return ks, kt, b, s, t

    def _clipped_pieces(self, s: float, t: float) -> Iterator[tuple[float, float]]:
        # the pieces (a, b) of [s, t] clipped to it, increasing from the stored s
        # to the stored t, a jump joining each b to the next a; raises what _span
        # raises, and PointNotInScale for a neighbour that is no distinct finite float
        ks, kt, b, x, t = self._span(s, t)
        for k in range(ks + 1, kt + 1):
            yield x, b
            x, nb = self._piece(k)
            if not 0.0 < x - b < math.inf:
                raise PointNotInScale(f"the neighbour of {b} is not a distinct finite float")
            b = nb
        yield x, t


def _require_finite(x: float, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise InvalidTimeScale(f"{what} must be finite, got {x!r}")
    return x


class Reals(TimeScale):
    """The whole real line, one piece (-inf, inf); everything is dense."""

    __slots__ = ()
    _kmin = _kmax = 0

    def _piece(self, k: int) -> tuple[float, float]:
        return -math.inf, math.inf

    def _nearest(self, t: float) -> int:
        return 0


class UniformGrid(TimeScale):
    """anchor + h*Z, two-sided, step h; mu(t) = sigma(t) - t may differ from h in the last bits."""

    __slots__ = ("h", "anchor")
    _defaults = {"anchor": 0.0}

    def __post_init__(self):
        object.__setattr__(self, "h", _require_finite(self.h, "step h"))
        object.__setattr__(self, "anchor", _require_finite(self.anchor, "anchor"))
        if not self.h > 0:
            raise InvalidTimeScale(f"step h must be positive, got {self.h}")

    def _nearest(self, t: float) -> int:
        return round((t - self.anchor) / self.h)

    def _piece(self, k: int) -> tuple[float, float]:
        x = self.anchor + k * self.h
        return x, x

    def _points(self, k0: int, k1: int) -> list[float]:
        anchor, h = self.anchor, self.h
        return [anchor + k * h for k in range(k0, k1 + 1)]


class QGrid(TimeScale):
    """Geometric grid {q^k : k = 0, 1, 2, ...} with ratio q > 1."""

    __slots__ = ("q",)
    _kmin = 0

    def __post_init__(self):
        object.__setattr__(self, "q", _require_finite(self.q, "ratio q"))
        if not self.q > 1:
            raise InvalidTimeScale(f"ratio q must exceed 1, got {self.q}")

    def _piece(self, k: int) -> tuple[float, float]:
        try:
            x = self.q ** k
        except OverflowError:
            raise PointNotInScale(f"q^{k} overflows") from None
        return x, x

    def _points(self, k0: int, k1: int) -> list[float]:
        # inside a window, whose two ends are finite, no power overflows
        q = self.q
        return [q ** k for k in range(k0, k1 + 1)]

    def _nearest(self, t: float) -> int:
        return max(0, round(math.log(t) / math.log(self.q))) if t > 0 else 0

    def _tol(self, x: float) -> float:
        return MEMBERSHIP_TOL * max(1.0, abs(x))


class DiscreteSet(TimeScale):
    """A finite set of at least two strictly increasing points."""

    __slots__ = ("points",)
    _kmin = 0

    def __post_init__(self):
        pts = tuple(_require_finite(p, "point") for p in self.points)
        if len(pts) < 2:
            raise InvalidTimeScale("a point set needs at least two points")
        for a, b in zip(pts, pts[1:]):
            if not b > a:
                raise InvalidTimeScale(f"points must strictly increase ({a} !< {b})")
        object.__setattr__(self, "points", pts)

    @property
    def _kmax(self) -> int:
        return len(self.points) - 1

    def _piece(self, k: int) -> tuple[float, float]:
        x = self.points[k]
        return x, x

    def _points(self, k0: int, k1: int) -> tuple[float, ...]:
        return self.points[k0 : k1 + 1]

    def _nearest(self, t: float) -> int:
        pts = self.points
        i = bisect_left(pts, t)
        # pts[i-1] < t <= pts[i]; the lower neighbour wins a tie
        if i == len(pts) or (i > 0 and t - pts[i - 1] <= pts[i] - t):
            return i - 1
        return i


class AlternatingGrid(TimeScale):
    """0, a, a+b, 2a+b, 2a+2b, ...: gaps alternate a, b, a, b from zero."""

    __slots__ = ("alpha", "beta")
    _kmin = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _require_finite(self.alpha, "gap alpha"))
        object.__setattr__(self, "beta", _require_finite(self.beta, "gap beta"))
        if not (self.alpha > 0 and self.beta > 0):
            raise InvalidTimeScale("both gaps must be positive")
        if self.alpha == self.beta:
            raise InvalidTimeScale("equal gaps form a uniform grid; use hz: instead")

    def _piece(self, k: int) -> tuple[float, float]:
        # x_{2j} = j*(alpha+beta), x_{2j+1} = x_{2j} + alpha
        j, odd = divmod(k, 2)
        x = j * (self.alpha + self.beta) + (self.alpha if odd else 0.0)
        return x, x

    def _points(self, k0: int, k1: int) -> list[float]:
        alpha, period = self.alpha, self.alpha + self.beta
        return [(k >> 1) * period + (alpha if k & 1 else 0.0) for k in range(k0, k1 + 1)]

    def _nearest(self, t: float) -> int:
        # the first nearest point of periods j-1, j and j+1, j being t's own
        j = max(0, math.floor(t / (self.alpha + self.beta)))
        return min(range(max(0, 2 * j - 2), 2 * j + 4), key=lambda k: abs(t - self._piece(k)[0]))


class IntervalUnion(TimeScale):
    """A finite union of closed intervals with strictly positive gaps.

    Only the outermost endpoints may be infinite.  Degenerate intervals
    [a, a] are allowed and behave as isolated points.
    """

    __slots__ = ("pieces",)
    _kmin = 0

    def __post_init__(self):
        try:
            pieces = tuple((float(lo), float(hi)) for lo, hi in self.pieces)
        except (TypeError, ValueError) as e:
            raise InvalidTimeScale(f"bad interval list: {e}") from None
        if not pieces:
            raise InvalidTimeScale("at least one interval is required")
        for idx, (lo, hi) in enumerate(pieces):
            if math.isnan(lo) or math.isnan(hi):
                raise InvalidTimeScale("interval endpoints must not be NaN")
            if lo > hi:
                raise InvalidTimeScale(f"interval [{lo}, {hi}] is reversed")
            if math.isinf(lo) and (idx > 0 or lo > 0):
                raise InvalidTimeScale("-inf is only allowed as the very first endpoint")
            if math.isinf(hi) and (idx < len(pieces) - 1 or hi < 0):
                raise InvalidTimeScale("+inf is only allowed as the very last endpoint")
        for (_, hi), (lo, _) in zip(pieces, pieces[1:]):
            if not lo > hi:
                raise InvalidTimeScale(f"intervals must be disjoint and increasing ({hi} !< {lo})")
        object.__setattr__(self, "pieces", pieces)

    @property
    def _kmax(self) -> int:
        return len(self.pieces) - 1

    def _piece(self, k: int) -> tuple[float, float]:
        return self.pieces[k]

    def _nearest(self, t: float) -> int:
        pcs = self.pieces
        i = bisect_left(pcs, t, key=itemgetter(0))
        # a_{i-1} < t <= a_i; the lower piece wins a tie
        if i == len(pcs) or (i > 0 and t - pcs[i - 1][1] <= pcs[i][0] - t):
            return i - 1
        return i


def _parse_float(text: str, what: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise InvalidTimeScale(f"bad {what}: {text!r}") from None
    if math.isnan(v):
        raise InvalidTimeScale(f"bad {what}: NaN")
    return v


def parse_timescale(text: str) -> TimeScale:
    """Build a scale from its spec string (grammar in the module docstring)."""
    if not isinstance(text, str):
        raise InvalidTimeScale(f"scale spec must be a string, got {type(text).__name__}")
    spec = text.strip()
    if spec == "r":
        return Reals()
    if spec.startswith("hz:"):
        parts = spec[3:].split(":")
        if len(parts) not in (1, 2) or not parts[0]:
            raise InvalidTimeScale(f"expected hz:<h> or hz:<h>:<anchor>, got {text!r}")
        h = _parse_float(parts[0], "step h")
        anchor = _parse_float(parts[1], "anchor") if len(parts) == 2 else 0.0
        return UniformGrid(h, anchor)
    if spec.startswith("q:"):
        return QGrid(_parse_float(spec[2:], "ratio q"))
    if spec.startswith("alt:"):
        parts = spec[4:].split(",")
        if len(parts) != 2:
            raise InvalidTimeScale(f"expected alt:<a>,<b>, got {text!r}")
        return AlternatingGrid(_parse_float(parts[0], "gap alpha"), _parse_float(parts[1], "gap beta"))
    if spec.startswith("union:"):
        body = spec[6:]
        pieces = []
        for part in body.split(";"):
            part = part.strip()
            if not (part.startswith("[") and part.endswith("]")):
                raise InvalidTimeScale(f"expected [lo,hi], got {part!r}")
            ends = part[1:-1].split(",")
            if len(ends) != 2:
                raise InvalidTimeScale(f"expected [lo,hi], got {part!r}")
            pieces.append((_parse_float(ends[0], "endpoint"), _parse_float(ends[1], "endpoint")))
        return IntervalUnion(tuple(pieces))
    if spec.startswith("set:"):
        parts = [p for p in spec[4:].split(",") if p.strip()]
        return DiscreteSet(tuple(_parse_float(p, "point") for p in parts))
    raise InvalidTimeScale(f"unrecognized scale spec {text!r}")
