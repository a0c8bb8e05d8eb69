"""Cylinder transformations and the circle algebra of regressive functions.

The cylinder maps turn a coefficient z at graininess h into the exponent
that a product of factors (1 + h*z) accumulates.  Four flavors are
provided: the forward (delta) map, the backward (nabla) map, an
eta-weighted interpolation between forward and backward, and its eta = 1/2
case, the Cayley map built from symmetric half-steps.  Each has a
principal version and, where it matters, a multi-valued version whose
period is 2*pi*i/h.

At h = 0 every map degenerates to the identity z -> z.

Each map raises its regressivity error when a factor that depends on h*z
vanishes: 1 + h*z (forward), 1 - h*z (backward), 1 + (1-eta)h*z if eta < 1
and 1 - eta*h*z if eta > 0 (weighted; both for Cayley).
"""

from __future__ import annotations

import math

from .errors import (
    CayleyNotRegressive,
    EtaNotRegressive,
    NotNuRegressive,
    NotRegressive,
    ValidationError,
)
from .multivalue import TWO_PI, MultiLog, pow_real, principal_log

# relative guard: |denominator| below GUARD * (1 + |h*z|) counts as vanishing
REGRESSIVITY_GUARD = 1e-12


def _vanishes(w: complex, scale: complex) -> bool:
    return abs(w) < REGRESSIVITY_GUARD * (1.0 + abs(scale))


def _require_step(h: float) -> float:
    h = float(h)
    if not (math.isfinite(h) and h >= 0):
        raise ValidationError(f"graininess must be a nonnegative finite real, got {h!r}")
    return h


def _require_eta(eta: float) -> float:
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"eta must lie in [0, 1], got {eta}")
    return eta


def _lattice(h: float) -> complex:
    return complex(0.0, TWO_PI / h) if h > 0 else 0j


def is_regressive(h: float, z: complex) -> bool:
    """1 + h*z stays away from zero."""
    hz = _require_step(h) * z
    return not _vanishes(1 + hz, hz)


def is_nu_regressive(h: float, z: complex) -> bool:
    """1 - h*z stays away from zero."""
    hz = _require_step(h) * z
    return not _vanishes(1 - hz, hz)


def is_cayley_regressive(h: float, z: complex) -> bool:
    """h*z stays away from both +2 and -2 (the guard cayley_psi applies)."""
    hz = _require_step(h) * z
    return not (_vanishes(1 + 0.5 * hz, hz) or _vanishes(1 - 0.5 * hz, hz))


def xi(h: float, z: complex) -> complex:
    """Principal forward cylinder map (1/h) Log(1 + h*z); z itself at h=0.

    The imaginary part lands in (-pi/h, pi/h].
    """
    h = _require_step(h)
    z = complex(z)
    if h == 0:
        return z
    hz = h * z
    w = 1 + hz
    if _vanishes(w, hz):
        raise NotRegressive(f"1 + h*z vanishes for h={h}, z={z}")
    # rounding can land exactly on -pi/h for points a hair below the cut
    val = principal_log(w) / h
    assert -math.pi / h <= val.imag <= math.pi / h
    return val


def zeta(h: float, z: complex) -> MultiLog:
    """Multi-valued forward cylinder map: xi plus the 2*pi*i/h lattice."""
    return MultiLog(xi(h, z), _lattice(h))


def xi_hat(h: float, z: complex) -> complex:
    """Principal backward cylinder map -(1/h) Log(1 - h*z); z at h=0."""
    h = _require_step(h)
    z = complex(z)
    if h == 0:
        return z
    hz = h * z
    w = 1 - hz
    if _vanishes(w, hz):
        raise NotNuRegressive(f"1 - h*z vanishes for h={h}, z={z}")
    return -principal_log(w) / h


def zeta_hat(h: float, z: complex) -> MultiLog:
    """Multi-valued backward cylinder map."""
    return MultiLog(xi_hat(h, z), _lattice(h))


def _weighted_psi(eta: float, h: float, z: complex, principal: bool, error: type):
    h = _require_step(h)
    z = complex(z)
    if h == 0:
        val = z
    else:
        hz = h * z
        num = 1 + (1.0 - eta) * hz
        den = 1 - eta * hz
        if (eta < 1 and _vanishes(num, hz)) or (eta > 0 and _vanishes(den, hz)):
            raise error(f"weighted denominator vanishes for eta={eta}, h={h}, z={z}")
        val = principal_log(num / den) / h
    return val if principal else MultiLog(val, _lattice(h))


def cayley_psi(h: float, z: complex, principal: bool = True):
    """Cayley cylinder map (1/h) Log((1 + h*z/2) / (1 - h*z/2)): eta_psi at 1/2.

    Returns a complex number when ``principal`` is true, otherwise a
    MultiLog with period 2*pi*i/h.  Raises CayleyNotRegressive when h*z
    reaches +/-2.
    """
    return _weighted_psi(0.5, h, z, principal, CayleyNotRegressive)


def eta_psi(eta: float, h: float, z: complex, principal: bool = True):
    """Weighted cylinder map (1/h) Log((1+(1-eta)hz) / (1-eta*hz)).

    eta=0 is the forward map, eta=1 the backward map, eta=1/2 the Cayley
    map.  Requires 0 <= eta <= 1.
    """
    return _weighted_psi(_require_eta(eta), h, z, principal, EtaNotRegressive)


def circle_plus(h: float, z: complex, w: complex) -> complex:
    """Group operation z + w + h*z*w of regressive coefficients."""
    _require_step(h)
    return z + w + h * z * w


def circle_minus(h: float, z: complex, w: complex) -> complex:
    """Inverse operation (z - w) / (1 + h*w)."""
    h = _require_step(h)
    hw = h * w
    den = 1 + hw
    if _vanishes(den, hw):
        raise NotRegressive(f"1 + h*w vanishes for h={h}, w={w}")
    return (z - w) / den


def circle_dot(h: float, alpha: float, z: complex) -> complex:
    """Real scalar action ((1 + h*z)^alpha - 1) / h (principal power)."""
    h = _require_step(h)
    alpha = float(alpha)
    if h == 0:
        return alpha * z
    hz = h * z
    w = 1 + hz
    if _vanishes(w, hz):
        raise NotRegressive(f"1 + h*z vanishes for h={h}, z={z}")
    return (pow_real(w, alpha) - 1) / h
