"""Principal-branch complex helpers and lattice-valued logarithms.

A multi-valued logarithm is stored as one representative plus a purely
imaginary period; the value it denotes is the whole set
``{rep + k*period : k integer}``.  The default period is ``2*pi*i``.  A zero
period means the value is single-valued.
"""

from __future__ import annotations

import cmath
import math

from ._record import Record
from .errors import LogOfZero, NonFiniteValue, ValidationError

TWO_PI = 2.0 * math.pi
TWO_PI_I = complex(0.0, TWO_PI)

# magnitudes below this are treated as zero by the branch-sensitive helpers
NEAR_ZERO_GUARD = 1e-300


def principal_log(z: complex) -> complex:
    """Log z = ln|z| + i*Arg z with Arg in (-pi, pi].

    Negative real inputs land on the +pi side of the cut even when the
    imaginary part is a negative zero (which plain ``cmath.log`` would send
    to -pi).
    """
    z = complex(z)
    # a nan is not near zero, and abs() of it can raise a stale OverflowError
    # (CPython may read errno as an earlier failed math call left it)
    if z == z and abs(z) < NEAR_ZERO_GUARD:
        raise LogOfZero(f"log of (near-)zero value {z!r}")
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # squash -0.0 so the cut maps to +pi
    return cmath.log(z)


def exp(z: complex) -> complex:
    """Complex exponential; overflow is reported instead of returning inf."""
    try:
        return cmath.exp(z)
    except OverflowError as e:
        raise NonFiniteValue(f"exp overflow at {z!r}") from e


def pow_real(z: complex, alpha: float) -> complex:
    """Principal-branch real power exp(alpha * Log z)."""
    return exp(alpha * principal_log(z))


def lattice_gap(a, b, period: complex = TWO_PI_I) -> tuple[int, float]:
    """Best integer k and the residual ``|a - b - k*period|``.

    ``a`` and ``b`` may be complex numbers or :class:`MultiLog` values (only
    representatives are compared).  The period must be purely imaginary; a
    zero period compares the values directly (k is then 0).
    """
    ra = a.rep if isinstance(a, MultiLog) else complex(a)
    rb = b.rep if isinstance(b, MultiLog) else complex(b)
    d = ra - rb
    if period == 0:
        return 0, abs(d)
    k = round(d.imag / period.imag)
    return k, abs(d - k * period)


def mod2pi_equal(a, b, tol: float) -> bool:
    """True when a and b agree modulo the 2*pi*i lattice within tol."""
    if not tol > 0:
        raise ValidationError("tol must be positive")
    _, res = lattice_gap(a, b, TWO_PI_I)
    return res <= tol


class MultiLog(Record):
    """A value determined only up to integer multiples of a period.

    Denotes the set ``{rep + k*period : k integer}``.  ``period`` must be
    purely imaginary (``2*pi*i`` by default, ``2*pi*i/h`` for cylinder maps
    with graininess h); zero period means a plain single value.
    """

    __slots__ = ("rep", "period")
    _defaults = {"period": TWO_PI_I}

    def __post_init__(self):
        rep = complex(self.rep)
        period = complex(self.period)
        if not (cmath.isfinite(rep) and cmath.isfinite(period)):
            raise NonFiniteValue(f"non-finite MultiLog({rep!r}, {period!r})")
        if period.real != 0.0:
            raise ValidationError("period must be purely imaginary")
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "period", period)

    def shifted(self, k: int) -> complex:
        """The k-th representative rep + k*period."""
        return self.rep + k * self.period

    def _join_period(self, other: "MultiLog") -> complex:
        if self.period == 0:
            return other.period
        if other.period == 0:
            return self.period
        if abs(other.period - self.period) > 1e-12 * abs(self.period):
            raise ValidationError("cannot combine lattices with different periods")
        return self.period

    def mod_equal(self, other, tol: float) -> bool:
        """Set equality up to the lattice: residual <= tol for the best k."""
        if not tol > 0:
            raise ValidationError("tol must be positive")
        period = self.period
        if isinstance(other, MultiLog):
            period = self._join_period(other)
        _, res = lattice_gap(self, other, period)
        return res <= tol

    def __add__(self, other):
        if isinstance(other, MultiLog):
            return MultiLog(self.rep + other.rep, self._join_period(other))
        return MultiLog(self.rep + complex(other), self.period)

    __radd__ = __add__

    def __neg__(self):
        return MultiLog(-self.rep, self.period)

    def __sub__(self, other):
        if isinstance(other, MultiLog):
            return MultiLog(self.rep - other.rep, self._join_period(other))
        return MultiLog(self.rep - complex(other), self.period)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        # lattice-preserving only for integer scalars; callers that scale by
        # non-integers must reason about the lattice themselves
        s = complex(scalar)
        if s.imag != 0.0:
            raise ValidationError("MultiLog scaling requires a real scalar")
        return MultiLog(self.rep * s.real, self.period)

    __rmul__ = __mul__
