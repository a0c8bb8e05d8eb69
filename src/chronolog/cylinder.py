"""Cylinder transformations and the circle algebra of regressive functions.

The cylinder maps turn a coefficient z at graininess h into the exponent
that a product of factors (1 + h*z) accumulates.  They are one family in
eta: with num = 1 + (1-eta)h*z and den = 1 - eta*h*z, the map is
(1/h) Log(num/den), or -(1/h) Log(den/num) on the -i*pi side of the cut,
and z itself at h = 0.  Each public map is that body at its row
(``_ROWS``): eta 0 for xi, 1 for xi_hat (on the -i*pi side), 1/2 for
cayley_psi and the caller's for eta_psi.  The Cayley and eta maps may
return the multi-valued map, period 2*pi*i/h, as do ``zeta`` and
``zeta_hat`` for xi and xi_hat.  This module alone decides when a factor
vanishes, for every regressivity check here and in ``logexp``: a factor
that depends on h*z, num if eta < 1 and den if eta > 0, vanishes below
GUARD * (1 + |h*z|) (``_vanishes``); on a jump from p to p_sigma, where
h*z = (p_sigma - p)/mix with mix = (1-eta)p + eta*p_sigma, the factors
are p_sigma/mix and p/mix, and the same rule is ``_jump_vanishes``; a
mix that is 0 raises ``_vanishing_mean``.  No function here returns an
infinity or NaN: it raises NonFiniteValue, a predicate where h*z is not
finite.
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    CayleyNotRegressive,
    EtaNotRegressive,
    NonFiniteValue,
    NotNuRegressive,
    NotRegressive,
    ValidationError,
)
from .multivalue import TWO_PI, MultiLog, pow_real, principal_log

# relative guard: a factor below GUARD * (1 + |h*z|) counts as vanishing
REGRESSIVITY_GUARD = 1e-12

# one row per map: its name, the weight eta (None: the caller's), its
# regressivity error and the side of the cut (+1 for +i*pi, -1 for -i*pi)
_XI = ("xi", 0.0, NotRegressive, 1.0)
_XI_HAT = ("xi_hat", 1.0, NotNuRegressive, -1.0)
_CAYLEY = ("cayley_psi", 0.5, CayleyNotRegressive, 1.0)
_ETA = ("eta_psi", None, EtaNotRegressive, 1.0)
_ROWS = {row[0]: row for row in (_XI, _XI_HAT, _CAYLEY, _ETA)}


def _singular(eta: float, num: complex, den: complex, bound: float) -> bool:
    """Whether a factor of the eta map vanishes: num (if eta < 1) or den (if eta > 0) under ``bound``."""
    return (eta < 1.0 and abs(num) < bound) or (eta > 0.0 and abs(den) < bound)


def _factors(eta: float, hz: complex) -> tuple[complex, complex, float]:
    """The eta map's factors num = 1 + (1-eta)hz and den = 1 - eta*hz, and the guard's bound on them."""
    return 1 + (1.0 - eta) * hz, 1 - eta * hz, REGRESSIVITY_GUARD * (1.0 + abs(hz))


def _vanishes(eta: float, hz: complex) -> bool:
    """Whether a factor of the eta map vanishes at h*z."""
    return _singular(eta, *_factors(eta, hz))


# the jump rule's bound is at most 3 * GUARD * max(|p|, |p_sigma|), so a factor
# can vanish only where one value is this far below the other: a cheap
# necessary condition for the guard
_SCREEN = 4.0 * REGRESSIVITY_GUARD


def _jump_vanishes(eta: float, p: complex, p_sigma: complex) -> bool:
    """Whether a factor of the eta map vanishes on the jump from p to p_sigma.

    The factors are p_sigma/mix and p/mix, mix = (1-eta)p + eta*p_sigma,
    and 1 + |h*z| = (|mix| + |p_sigma - p|)/|mix|: the h*z rule, scaled by |mix|.
    """
    return _singular(eta, p_sigma, p, REGRESSIVITY_GUARD * (abs((1.0 - eta) * p + eta * p_sigma) + abs(p_sigma - p)))


def _vanishing(row: tuple, eta: float, h: float, z: complex) -> Exception:
    """The row's regressivity error for a factor that vanishes at eta, h and z."""
    return row[2](f"{row[0]}: a factor vanishes for eta={eta}, h={h}, z={z}")


def _vanishing_mean(row: tuple, eta: float) -> Exception:
    """The row's regressivity error for a jump whose weighted mean (1-eta)p + eta*p_sigma is 0."""
    return row[2](f"(1-eta)p + eta*p_sigma vanishes for eta={eta}")


def _require_step(h: float) -> float:
    h = float(h)
    if not 0.0 <= h < math.inf:
        raise ValidationError(f"graininess must be a nonnegative finite real, got {h!r}")
    return h


def _require_eta(eta: float) -> float:
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"eta must lie in [0, 1], got {eta}")
    return eta


def _finite(val: complex, what: str) -> complex:
    if not cmath.isfinite(val):
        raise NonFiniteValue(f"{what} is not finite: {val!r}")
    return val


def _psi(row: tuple, h: float, z: complex, principal: bool = True, eta: float | None = None):
    # the map of one row, at the caller's eta for the eta row
    name, weight, error, side = row
    h = _require_step(h)
    z = complex(z)
    eta = weight if eta is None else eta
    if h == 0:
        val = z
    else:
        hz = h * z
        num, den, bound = _factors(eta, hz)
        # where |hz| <= 1/2 both factors are at least 1/2, far above the bound
        if abs(hz) > 0.5 and _singular(eta, num, den, bound):
            raise _vanishing(row, eta, h, z)
        val = principal_log(num / den) / h if side > 0 else -principal_log(den / num) / h
    if not cmath.isfinite(val):
        raise NonFiniteValue(f"{name} is not finite for eta={eta}, h={h}, z={z}: {val!r}")
    return val if principal else MultiLog(val, complex(0.0, TWO_PI / h) if h > 0 else 0j)


def _is_regressive(row: tuple, h: float, z: complex) -> bool:
    return not _vanishes(row[1], _finite(_require_step(h) * z, "h*z"))


def is_regressive(h: float, z: complex) -> bool:
    """1 + h*z stays away from zero (the guard xi applies)."""
    return _is_regressive(_XI, h, z)


def is_nu_regressive(h: float, z: complex) -> bool:
    """1 - h*z stays away from zero (the guard xi_hat applies)."""
    return _is_regressive(_XI_HAT, h, z)


def is_cayley_regressive(h: float, z: complex) -> bool:
    """h*z stays away from both +2 and -2 (the guard cayley_psi applies)."""
    return _is_regressive(_CAYLEY, h, z)


def xi(h: float, z: complex) -> complex:
    """Principal forward cylinder map (1/h) Log(1 + h*z); z itself at h=0.

    The imaginary part lands in (-pi/h, pi/h].
    """
    return _psi(_XI, h, z)


def zeta(h: float, z: complex) -> MultiLog:
    """Multi-valued forward cylinder map: xi plus the 2*pi*i/h lattice."""
    return _psi(_XI, h, z, False)


def xi_hat(h: float, z: complex) -> complex:
    """Principal backward cylinder map -(1/h) Log(1 - h*z); z at h=0."""
    return _psi(_XI_HAT, h, z)


def zeta_hat(h: float, z: complex) -> MultiLog:
    """Multi-valued backward cylinder map."""
    return _psi(_XI_HAT, h, z, False)


def cayley_psi(h: float, z: complex, principal: bool = True):
    """Cayley cylinder map (1/h) Log((1 + h*z/2) / (1 - h*z/2)): eta_psi at 1/2.

    Returns a complex number when ``principal`` is true, otherwise a
    MultiLog with period 2*pi*i/h.  Raises CayleyNotRegressive when h*z
    reaches +/-2.
    """
    return _psi(_CAYLEY, h, z, principal)


def eta_psi(eta: float, h: float, z: complex, principal: bool = True):
    """Weighted cylinder map (1/h) Log((1+(1-eta)hz) / (1-eta*hz)).

    eta=0 is the forward map, eta=1 the backward map, eta=1/2 the Cayley
    map.  Requires 0 <= eta <= 1.
    """
    return _psi(_ETA, h, z, principal, _require_eta(eta))


def circle_plus(h: float, z: complex, w: complex) -> complex:
    """Group operation z + w + h*z*w of regressive coefficients."""
    _require_step(h)
    return _finite(z + w + h * z * w, "circle_plus")


def circle_minus(h: float, z: complex, w: complex) -> complex:
    """Inverse operation (z - w) / (1 + h*w)."""
    h = _require_step(h)
    hw = h * w
    if _vanishes(0.0, hw):
        raise NotRegressive(f"1 + h*w vanishes for h={h}, w={w}")
    return _finite((z - w) / (1 + hw), "circle_minus")


def circle_dot(h: float, alpha: float, z: complex) -> complex:
    """Real scalar action ((1 + h*z)^alpha - 1) / h (principal power)."""
    h = _require_step(h)
    alpha = float(alpha)
    if h == 0:
        return _finite(alpha * z, "circle_dot")
    hz = h * z
    if _vanishes(0.0, hz):
        raise NotRegressive(f"1 + h*z vanishes for h={h}, z={z}")
    return _finite((pow_real(1 + hz, alpha) - 1) / h, "circle_dot")
