"""Exception types shared across the package.

Every error raised by the library derives from :class:`ChronologError` and
carries a ``category`` attribute that the CLI maps to an exit code:
``"validation"`` (bad input, exit 2) or ``"numerical"`` (the computation
itself failed, exit 3).  :class:`ValidationError` is also a ``ValueError``,
so callers that catch ``ValueError`` for a rejected argument still do.
"""

from __future__ import annotations


class ChronologError(Exception):
    """Base class for all errors raised by this package."""

    category = "numerical"


class ValidationError(ChronologError, ValueError):
    """Bad input: rejected before any numerical work starts."""

    category = "validation"


# ---------------------------------------------------------------------------
# input / domain problems (exit 2)
# ---------------------------------------------------------------------------


class PointNotInScale(ValidationError):
    """A query point is not a member of the time scale."""


class InvalidTimeScale(ValidationError):
    """Time-scale parameters or a scale spec string violate an invariant."""


class UnboundedWindow(ValidationError):
    """A window that jumps more gaps, or a table with more rows, than allowed.

    The bound is ``timescale.MAX_WINDOW_JUMPS`` for both.  It is checked
    before any term or row, so a long window on a fine grid or a table with
    a tiny ``--step`` fails fast.  A walk, or a table's count of rows,
    streams the scale's pieces and keeps none, so there the bound caps
    time; a table builds one object per row, so there it caps memory too.
    """


class KappaBoundary(ValidationError):
    """A delta (nabla) operation was requested at the trimmed endpoint.

    The delta derivative is undefined at a left-scattered maximum and the
    nabla derivative at a right-scattered minimum.
    """


class OneNotInScale(ValidationError):
    """The fixed base point 1 is required but is not in the scale."""


class ExprSyntaxError(ValidationError):
    """Malformed expression text.  ``offset`` is the character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownFunction(ExprSyntaxError):
    """A call to a function name outside the supported set."""


class DepthExceeded(ValidationError):
    """Expression nesting is deeper than the supported limit."""


# ---------------------------------------------------------------------------
# numerical failures (exit 3)
# ---------------------------------------------------------------------------


class LogOfZero(ChronologError):
    """Logarithm of a (near-)zero value."""


class EvalDomain(ChronologError):
    """Expression evaluated at a point outside a subterm's domain.

    This covers division by zero, the log of zero and 0 raised to a
    negative power.
    """


class NonFiniteValue(ChronologError):
    """A computation produced an infinity or NaN."""


class NotRegressive(ChronologError):
    """1 + mu*z vanished where the delta cylinder map needs it nonzero."""


class NotNuRegressive(ChronologError):
    """1 - nu*z vanished where the nabla cylinder map needs it nonzero."""


class CayleyNotRegressive(ChronologError):
    """mu*z hit +/-2 where the Cayley cylinder map needs it away from both."""


class EtaNotRegressive(ChronologError):
    """A weighted cylinder denominator vanished for the given eta."""


class QuadratureFailure(ChronologError):
    """Quadrature could not bring its error estimate within the tolerance.

    Raised when another bisection would pass ``timescale.MAX_QUAD_SAMPLES``
    samples on the piece, or when the worst panel is too narrow to bisect.
    """


class NonFiniteIntegrand(ChronologError):
    """The integrand returned an infinity or NaN at a sample point."""


class NonvanishingViolation(ChronologError):
    """A function used as a logarithm argument came too close to zero."""
