"""Closed-form answers the benchmark checks chronolog against.

Everything here uses plain ``cmath``/``math`` and the workload's own
description of each function and scale, never chronolog code, so that a
check cannot share a bug with the code it checks.

* A window logarithm of p over [s, t] must equal Log(p(t)/p(s)) modulo
  2*pi*i.
* An exponential whose coefficient is the matching quotient of p must equal
  p(t)/p(s); on a discrete scale it must also equal the product of its
  factors: (1 + mu*c) forward, 1/(1 - nu*c) backward.
"""

from __future__ import annotations

import cmath
import math

TWO_PI = 2.0 * math.pi

# chronolog's own comparison threshold (ToleranceConfig.cmp_tol) is also 1e-8
LOG_TOL = 1e-8
EXP_TOL = 1e-8


# ---------------------------------------------------------------------------
# the generated function families: value and classical derivative
# ---------------------------------------------------------------------------


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def p_value(fam: dict, t: float) -> complex:
    kind = fam["family"]
    if kind == "quad":  # (t-x)^2 + y, positive on the real line
        return complex((t - fam["x"]) ** 2 + fam["y"])
    if kind == "cshift":  # (t-z)^3, z off the real axis
        return (t - _c(fam["z"])) ** 3
    if kind == "expit":  # exp(i*t) + c, |c| >= 2
        return cmath.exp(1j * t) + _c(fam["c"])
    if kind == "expsin":  # exp(a*sin(b*t)) + c, c > 0
        return complex(math.exp(fam["a"] * math.sin(fam["b"] * t)) + fam["c"])
    if kind == "expisin":  # exp(i*a*sin(t)) + c, |c| > 1
        return cmath.exp(1j * fam["a"] * math.sin(t)) + _c(fam["c"])
    if kind == "roots2":  # (t-z1)*(t-z2), roots off the real axis
        return (t - _c(fam["z1"])) * (t - _c(fam["z2"]))
    raise ValueError(f"unknown family {kind!r}")


def p_prime(fam: dict, t: float) -> complex:
    kind = fam["family"]
    if kind == "quad":
        return complex(2.0 * (t - fam["x"]))
    if kind == "cshift":
        return 3.0 * (t - _c(fam["z"])) ** 2
    if kind == "expit":
        return 1j * cmath.exp(1j * t)
    if kind == "expsin":
        a, b = fam["a"], fam["b"]
        return complex(a * b * math.cos(b * t) * math.exp(a * math.sin(b * t)))
    if kind == "expisin":
        a = fam["a"]
        return 1j * a * math.cos(t) * cmath.exp(1j * a * math.sin(t))
    if kind == "roots2":
        return (t - _c(fam["z1"])) + (t - _c(fam["z2"]))
    raise ValueError(f"unknown family {kind!r}")


# ---------------------------------------------------------------------------
# the generated scales: points by index, and the forward jump
# ---------------------------------------------------------------------------


def point(scale: dict, k: int) -> float:
    """The k-th point of a discrete scale, by the scale's definition."""
    kind = scale["family"]
    if kind == "hz":
        return scale["anchor"] + k * scale["h"]
    if kind == "q":
        return scale["q"] ** k
    if kind == "alt":
        period = scale["a"] + scale["b"]
        return (k // 2) * period + (scale["a"] if k % 2 else 0.0)
    if kind == "set":
        return scale["points"][k]
    raise ValueError(f"scale {kind!r} has no point index")


def points(scale: dict, i: int, j: int) -> list[float]:
    return [point(scale, k) for k in range(i, j + 1)]


def sigma(scale: dict, t: float) -> float:
    """Forward jump on an hz grid or an interval union (t itself if dense)."""
    kind = scale["family"]
    if kind == "hz":
        return t + scale["h"]
    if kind == "union":
        pieces = scale["pieces"]
        for (_, hi), (lo, _) in zip(pieces, pieces[1:]):
            if t == hi:
                return lo
        return t
    raise ValueError(f"no forward jump for scale {kind!r}")


# ---------------------------------------------------------------------------
# expected values
# ---------------------------------------------------------------------------


def log_ratio(fam: dict, s: float, t: float) -> complex:
    """Log(p(t)/p(s)), principal branch."""
    return cmath.log(p_value(fam, t) / p_value(fam, s))


def delta_product(fam: dict, pts: list[float]) -> complex:
    """Product of (1 + mu*c) with c = (p(sigma) - p(tau)) / (mu * p(tau))."""
    prod = 1 + 0j
    pv = p_value(fam, pts[0])
    for tau, nxt in zip(pts, pts[1:]):
        mu = nxt - tau
        ps = p_value(fam, nxt)
        prod *= 1 + mu * ((ps - pv) / (mu * pv))
        pv = ps
    return prod


def nabla_product(fam: dict, pts: list[float]) -> complex:
    """Product of 1/(1 - nu*c) with c = (p(tau) - p(rho)) / (nu * p(tau))."""
    prod = 1 + 0j
    prev = p_value(fam, pts[0])
    for rho, tau in zip(pts, pts[1:]):
        nu = tau - rho
        pv = p_value(fam, tau)
        prod /= 1 - nu * ((pv - prev) / (nu * pv))
        prev = pv
    return prod


# ---------------------------------------------------------------------------
# comparisons: each returns None when the value is right, else the reason
# ---------------------------------------------------------------------------


def lattice_residual(value: complex, expected: complex, period: float = TWO_PI) -> float:
    """|value - expected - k*period*i| for the nearest integer k."""
    d = complex(value) - complex(expected)
    k = round(d.imag / period)
    return abs(complex(d.real, d.imag - k * period))


def log_failure(value: complex, expected: complex, period: float = TWO_PI) -> str | None:
    scale = max(1.0, abs(value), abs(expected))
    res = lattice_residual(value, expected, period)
    if not res <= LOG_TOL * scale:
        return f"log {value!r} != {expected!r} mod {period:g}i (residual {res:.3e})"
    return None


def exp_failure(value: complex, expected: complex) -> str | None:
    """Relative comparison; expected is a quotient of nonvanishing values."""
    res = abs(complex(value) - complex(expected)) / abs(expected)
    if not res <= EXP_TOL:
        return f"exp {value!r} != {expected!r} (relative residual {res:.3e})"
    return None


def value_failure(value: complex, expected: complex) -> str | None:
    """Absolute below magnitude 1, relative above it."""
    res = abs(complex(value) - complex(expected)) / max(1.0, abs(expected))
    if not res <= LOG_TOL:
        return f"value {value!r} != {expected!r} (residual {res:.3e})"
    return None
