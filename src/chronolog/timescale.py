"""Time-scale representations: membership, jump operators, decomposition.

A time scale is a nonempty closed subset of the reals.  The supported
families are the whole line, uniform grids, geometric grids q^k, finite
point sets, finite unions of closed intervals, and grids that alternate
between two gap sizes.  Every family can decompose a window [s, t] into
continuous pieces (graininess zero throughout) and scattered jumps, which
is what the integration routines consume.

The four discrete families (uniform, geometric, alternating, finite set)
are point sequences x_k with sigma(x_k) = x_{k+1}.  They share one index
walk: a point is snapped to its index k once, and a window [x_i, x_j] is
the jumps x_k -> x_{k+1} for i <= k < j, with x_k read straight off its
index (a closed form on the grids, the stored tuple on a set).

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
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import InvalidTimeScale, KappaBoundary, PointNotInScale

# absolute snap tolerance; geometric grids scale it by the point magnitude
MEMBERSHIP_TOL = 1e-12


@dataclass(frozen=True)
class ContinuousPiece:
    """A closed interval [a, b] inside the scale with zero graininess."""

    a: float
    b: float

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class ScatteredJump:
    """A right-scattered point tau whose successor is tau + mu."""

    tau: float
    mu: float

    @property
    def length(self) -> float:
        return self.mu


Segment = Union[ContinuousPiece, ScatteredJump]


@dataclass(frozen=True)
class SegmentDecomposition:
    """Ordered cover of [start, end] by continuous pieces and jumps."""

    start: float
    end: float
    segments: tuple[Segment, ...]

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def has_jumps(self) -> bool:
        return any(isinstance(seg, ScatteredJump) for seg in self.segments)

    def total_length(self) -> float:
        return sum(seg.length for seg in self.segments)


class TimeScale:
    """Base class for all scale families."""

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
        raise NotImplementedError

    def sigma(self, t: float) -> float:
        """Forward jump: the next point of the scale (t itself at the max)."""
        raise NotImplementedError

    def rho(self, t: float) -> float:
        """Backward jump: the previous point (t itself at the min)."""
        raise NotImplementedError

    def mu(self, t: float) -> float:
        """Forward graininess sigma(t) - t."""
        t = self.snap(t)
        return self.sigma(t) - t

    def nu(self, t: float) -> float:
        """Backward graininess t - rho(t)."""
        t = self.snap(t)
        return t - self.rho(t)

    @property
    def min_point(self) -> float | None:
        return None

    @property
    def max_point(self) -> float | None:
        return None

    def require_delta_domain(self, t: float) -> None:
        m = self.max_point
        if m is not None and self.snap(t) == m and self.rho(m) < m:
            raise KappaBoundary(f"delta operation undefined at left-scattered maximum {m}")

    def require_nabla_domain(self, t: float) -> None:
        m = self.min_point
        if m is not None and self.snap(t) == m and self.sigma(m) > m:
            raise KappaBoundary(f"nabla operation undefined at right-scattered minimum {m}")

    def decompose(self, s: float, t: float) -> SegmentDecomposition:
        """Split [s, t] into continuous pieces and scattered jumps.

        Requires s <= t with both in the scale.  Jump sizes are the exact
        float differences between consecutive stored points, so segment
        lengths telescope to t - s.
        """
        raise NotImplementedError

    def _checked_window(self, s: float, t: float) -> tuple[float, float]:
        s = self.snap(s)
        t = self.snap(t)
        if s > t:
            raise ValueError("decompose requires s <= t")
        return s, t


def _require_finite(x: float, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise InvalidTimeScale(f"{what} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class Reals(TimeScale):
    """The whole real line; everything is dense."""

    def snap(self, t: float) -> float:
        t = float(t)
        if not math.isfinite(t):
            raise PointNotInScale(f"{t!r} is not a finite real")
        return t

    def sigma(self, t: float) -> float:
        return self.snap(t)

    def rho(self, t: float) -> float:
        return self.snap(t)

    def mu(self, t: float) -> float:
        self.snap(t)
        return 0.0

    def nu(self, t: float) -> float:
        self.snap(t)
        return 0.0

    def decompose(self, s: float, t: float) -> SegmentDecomposition:
        s, t = self._checked_window(s, t)
        segs: tuple[Segment, ...] = (ContinuousPiece(s, t),) if t > s else ()
        return SegmentDecomposition(s, t, segs)


class _Grid(TimeScale):
    """A purely discrete scale: the increasing point sequence x_k = _point(k).

    Each family supplies ``_point``, ``_nearest`` (the index of the point
    nearest t) and the index bounds ``_kmin``/``_kmax`` (None when
    unbounded).  Every point is scattered: sigma(x_k) = x_{k+1} and
    rho(x_k) = x_{k-1}, each x_k itself past an end of the sequence.
    """

    _kmin: int | None = None
    _kmax: int | None = None

    def _point(self, k: int) -> float:
        raise NotImplementedError

    def _nearest(self, t: float) -> int:
        raise NotImplementedError

    def _tol(self, x: float) -> float:
        return MEMBERSHIP_TOL

    def _lookup(self, t: float) -> tuple[int, float]:
        # index and exact stored point within tolerance of t
        t = float(t)
        if not math.isfinite(t):
            raise PointNotInScale(f"{t!r} is not a finite real")
        try:
            k = self._nearest(t)
        except OverflowError:
            raise PointNotInScale(f"{t} has no grid index within float range") from None
        x = self._point(k)
        if abs(t - x) > self._tol(x):
            raise PointNotInScale(f"{t} is not a grid point (nearest {x})")
        return k, x

    def _step(self, k: int, x: float, d: int) -> float:
        # x_{k+d} for d = +1 or -1, given x = x_k; a neighbour that rounds
        # onto x (spacing below float resolution) or overflows is no point
        if k == (self._kmax if d > 0 else self._kmin):
            return x
        y = self._point(k + d)
        if not 0.0 < (y - x) * d < math.inf:
            raise PointNotInScale(f"the grid neighbour of {x} is not a distinct finite float")
        return y

    def snap(self, t: float) -> float:
        return self._lookup(t)[1]

    def sigma(self, t: float) -> float:
        return self._step(*self._lookup(t), 1)

    def rho(self, t: float) -> float:
        return self._step(*self._lookup(t), -1)

    @property
    def min_point(self) -> float | None:
        return None if self._kmin is None else self._point(self._kmin)

    @property
    def max_point(self) -> float | None:
        return None if self._kmax is None else self._point(self._kmax)

    def decompose(self, s: float, t: float) -> SegmentDecomposition:
        ks, s = self._lookup(s)
        kt, t = self._lookup(t)
        if s > t:
            raise ValueError("decompose requires s <= t")
        segs: list[Segment] = []
        x = s
        for k in range(ks, kt):
            y = self._step(k, x, 1)
            segs.append(ScatteredJump(x, y - x))
            x = y
        return SegmentDecomposition(s, t, tuple(segs))


@dataclass(frozen=True)
class UniformGrid(_Grid):
    """anchor + h*Z, two-sided, constant graininess h."""

    h: float
    anchor: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "h", _require_finite(self.h, "step h"))
        object.__setattr__(self, "anchor", _require_finite(self.anchor, "anchor"))
        if not self.h > 0:
            raise InvalidTimeScale(f"step h must be positive, got {self.h}")

    def _nearest(self, t: float) -> int:
        return round((t - self.anchor) / self.h)

    def _point(self, k: int) -> float:
        return self.anchor + k * self.h

    def mu(self, t: float) -> float:
        self.snap(t)
        return self.h

    def nu(self, t: float) -> float:
        self.snap(t)
        return self.h


@dataclass(frozen=True)
class QGrid(_Grid):
    """Geometric grid {q^k : k = 0, 1, 2, ...} with ratio q > 1."""

    q: float

    _kmin = 0

    def __post_init__(self):
        object.__setattr__(self, "q", _require_finite(self.q, "ratio q"))
        if not self.q > 1:
            raise InvalidTimeScale(f"ratio q must exceed 1, got {self.q}")

    def _point(self, k: int) -> float:
        try:
            return self.q ** k
        except OverflowError:
            raise PointNotInScale(f"q^{k} overflows") from None

    def _nearest(self, t: float) -> int:
        return max(0, round(math.log(t) / math.log(self.q))) if t > 0 else 0

    def _tol(self, x: float) -> float:
        return MEMBERSHIP_TOL * max(1.0, abs(x))


@dataclass(frozen=True)
class DiscreteSet(_Grid):
    """A finite set of at least two strictly increasing points."""

    points: tuple[float, ...]

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

    def _point(self, k: int) -> float:
        return self.points[k]

    def _nearest(self, t: float) -> int:
        pts = self.points
        i = bisect_left(pts, t)
        # pts[i-1] < t <= pts[i]; the lower neighbour wins a tie
        if i == len(pts) or (i > 0 and t - pts[i - 1] <= pts[i] - t):
            return i - 1
        return i


@dataclass(frozen=True)
class AlternatingGrid(_Grid):
    """0, a, a+b, 2a+b, 2a+2b, ...: gaps alternate a, b, a, b from zero."""

    alpha: float
    beta: float

    _kmin = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _require_finite(self.alpha, "gap alpha"))
        object.__setattr__(self, "beta", _require_finite(self.beta, "gap beta"))
        if not (self.alpha > 0 and self.beta > 0):
            raise InvalidTimeScale("both gaps must be positive")
        if self.alpha == self.beta:
            raise InvalidTimeScale("equal gaps form a uniform grid; use hz: instead")

    def _point(self, k: int) -> float:
        # x_{2j} = j*(alpha+beta), x_{2j+1} = x_{2j} + alpha
        j, odd = divmod(k, 2)
        return j * (self.alpha + self.beta) + (self.alpha if odd else 0.0)

    def _nearest(self, t: float) -> int:
        # the first nearest point of periods j-1, j and j+1, j being t's own
        j = max(0, math.floor(t / (self.alpha + self.beta)))
        return min(range(max(0, 2 * j - 2), 2 * j + 4), key=lambda k: abs(t - self._point(k)))


@dataclass(frozen=True)
class IntervalUnion(TimeScale):
    """A finite union of closed intervals with strictly positive gaps.

    Only the outermost endpoints may be infinite.  Degenerate intervals
    [a, a] are allowed and behave as isolated points.
    """

    pieces: tuple[tuple[float, float], ...]

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

    def _piece_index(self, t: float) -> int:
        for i, (lo, hi) in enumerate(self.pieces):
            if lo <= t <= hi:
                return i
        raise PointNotInScale(f"{t} is in a gap between intervals")

    def snap(self, t: float) -> float:
        t = float(t)
        if not math.isfinite(t):
            raise PointNotInScale(f"{t!r} is not a finite real")
        for lo, hi in self.pieces:
            if math.isfinite(lo) and abs(t - lo) <= MEMBERSHIP_TOL:
                return lo
            if math.isfinite(hi) and abs(t - hi) <= MEMBERSHIP_TOL:
                return hi
            if lo < t < hi:
                return t
        raise PointNotInScale(f"{t} is not in any interval of the union")

    def sigma(self, t: float) -> float:
        t = self.snap(t)
        i = self._piece_index(t)
        if t < self.pieces[i][1]:
            return t
        if i + 1 < len(self.pieces):
            return self.pieces[i + 1][0]
        return t

    def rho(self, t: float) -> float:
        t = self.snap(t)
        i = self._piece_index(t)
        if t > self.pieces[i][0]:
            return t
        if i > 0:
            return self.pieces[i - 1][1]
        return t

    @property
    def min_point(self) -> float | None:
        lo = self.pieces[0][0]
        return lo if math.isfinite(lo) else None

    @property
    def max_point(self) -> float | None:
        hi = self.pieces[-1][1]
        return hi if math.isfinite(hi) else None

    def decompose(self, s: float, t: float) -> SegmentDecomposition:
        s, t = self._checked_window(s, t)
        segs: list[Segment] = []
        i = self._piece_index(s)
        a = s
        while True:
            lo, hi = self.pieces[i]
            b = t if t <= hi else hi
            if b > a:
                segs.append(ContinuousPiece(a, b))
            if t <= hi:
                break
            nlo = self.pieces[i + 1][0]
            segs.append(ScatteredJump(hi, nlo - hi))
            i += 1
            a = nlo
        return SegmentDecomposition(s, t, tuple(segs))


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
