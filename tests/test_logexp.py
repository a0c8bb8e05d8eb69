import cmath
import functools
import importlib
import json
import math
import pathlib
import random
import re
import statistics
import sys
from bisect import bisect_left
from fractions import Fraction

import mpmath
import pytest

from chronolog import calculus, cylinder, logexp, timescale
from chronolog.calculus import ScaleFunction, ToleranceConfig
from chronolog.cylinder import xi, xi_hat
from chronolog.errors import (
    CayleyNotRegressive,
    ChronologError,
    EtaNotRegressive,
    EvalDomain,
    NonFiniteIntegrand,
    NonvanishingViolation,
    NotNuRegressive,
    NotRegressive,
    OneNotInScale,
    PointNotInScale,
    QuadratureFailure,
    UnboundedWindow,
)
from chronolog.logexp import (
    IdentityResult,
    LegacyKind,
    LogVariant,
    delta_quotient,
    exp_delta,
    exp_nabla,
    identity_suite,
    legacy_log,
    log_cayley_multi,
    log_cayley_principal,
    log_delta_derivative,
    log_delta_multi,
    log_delta_principal,
    log_eta,
    log_nabla_multi,
    log_nabla_principal,
    log_table,
    log_ts,
    nabla_quotient,
    scaled_residual,
)
from chronolog.multivalue import TWO_PI_I, MultiLog, lattice_gap
from chronolog.timescale import parse_timescale


def _closed_form(p, ts, s, t):
    return cmath.log(p(t) / p(s))


# ---------------------------------------------------------------------------
# window logarithm against closed forms
# ---------------------------------------------------------------------------


def test_log_on_reals_is_plain_log_quotient():
    p = ScaleFunction.from_text("t^2+1")
    ts = parse_timescale("r")
    got = log_delta_principal(p, ts, 1.0, 3.0)
    assert got == pytest.approx(math.log(5.0), abs=1e-9)


def test_log_on_unit_grid_telescopes():
    p = ScaleFunction.from_text("t+10")
    ts = parse_timescale("hz:1")
    got = log_delta_principal(p, ts, 0.0, 4.0)
    assert got == pytest.approx(math.log(14.0 / 10.0), rel=1e-13)


def test_log_on_qgrid_telescopes():
    p = ScaleFunction.from_text("t")
    ts = parse_timescale("q:2")
    got = log_delta_principal(p, ts, 1.0, 8.0)
    assert got == pytest.approx(3.0 * math.log(2.0), rel=1e-13)


def test_log_on_alternating_grid():
    p = ScaleFunction.from_text("t+3")
    ts = parse_timescale("alt:1,2")
    got = log_delta_principal(p, ts, 0.0, 6.0)
    assert got == pytest.approx(math.log(9.0 / 3.0), rel=1e-13)


def test_log_on_finite_set():
    p = ScaleFunction.from_text("t^2+1")
    ts = parse_timescale("set:-5,-4,3")
    got = log_delta_principal(p, ts, -5.0, 3.0)
    # Log(17/26) + Log(10/17), all arguments positive real
    assert got == pytest.approx(math.log(10.0 / 26.0), rel=1e-13)


@pytest.mark.parametrize(
    "s, t",
    [pytest.param(-5.0, 3.0, id="pieces-and-jump"), pytest.param(-4.0, 2.0, id="jump-only")],
)
@pytest.mark.parametrize(
    "variant, eta, side",
    [
        pytest.param("delta-principal", None, 1, id="delta-principal"),
        pytest.param("delta-multi", None, 1, id="delta-multi"),
        pytest.param("cayley-principal", None, 1, id="cayley-principal"),
        pytest.param("cayley-multi", None, 1, id="cayley-multi"),
        pytest.param("eta", 0.0, 1, id="eta:0"),
        pytest.param("eta", 0.3, 1, id="eta:0.3"),
        pytest.param("eta", 0.5, 1, id="eta:0.5"),
        pytest.param("eta", 1.0, 1, id="eta:1"),
        pytest.param("nabla-principal", None, -1, id="nabla-principal"),
        pytest.param("nabla-multi", None, -1, id="nabla-multi"),
    ],
)
def test_log_mixed_union_with_sign_change(variant, eta, side, s, t):
    # continuous pieces wind through the cut; the jump from p(-4) = -64 to
    # p(2) = 8 crosses zero, and its ratio -1/8 lands on the variant's side
    # of the cut, which is pinned exactly, not modulo 2*pi*i
    p = ScaleFunction.from_text("t^3")
    ts = parse_timescale("union:[-inf,-4];[2,inf]")
    got = log_ts(variant, p, ts, s, t, eta=eta)
    if isinstance(got, MultiLog):
        got = got.rep
    want = complex(3.0 * math.log(abs(t / s)), side * math.pi)
    assert got == pytest.approx(want, abs=1e-9)


def test_log_window_orientation():
    p = ScaleFunction.from_text("t+1")
    ts = parse_timescale("hz:1")
    fwd = log_delta_principal(p, ts, 0.0, 5.0)
    rev = log_delta_principal(p, ts, 5.0, 0.0)
    assert rev == -fwd


def test_log_empty_window_is_zero():
    p = ScaleFunction.from_text("t+1")
    assert log_delta_principal(p, parse_timescale("hz:1"), 3.0, 3.0) == 0j


def test_log_multi_carries_lattice():
    p = ScaleFunction.from_text("t+10")
    ts = parse_timescale("hz:1")
    m = log_delta_multi(p, ts, 0.0, 4.0)
    assert isinstance(m, MultiLog)
    assert m.period == TWO_PI_I
    assert m.rep == log_delta_principal(p, ts, 0.0, 4.0)


def test_log_complex_valued_p_mod_lattice():
    p = ScaleFunction.from_text("t+3*i")
    ts = parse_timescale("hz:1")
    got = log_delta_multi(p, ts, 0.0, 5.0)
    k, res = lattice_gap(got, _closed_form(p, ts, 0.0, 5.0))
    assert res <= 1e-9


def test_nonvanishing_floor_trips_on_exact_zero():
    p = ScaleFunction.from_text("t-2")
    ts = parse_timescale("hz:1")
    with pytest.raises(NonvanishingViolation):
        log_delta_principal(p, ts, 0.0, 4.0)


def test_nonvanishing_floor_respects_eps_min():
    p = ScaleFunction.from_text("t-1.9999")
    ts = parse_timescale("hz:1")
    log_delta_principal(p, ts, 0.0, 4.0)  # |p(2)| = 1e-4, fine by default
    with pytest.raises(NonvanishingViolation):
        log_delta_principal(p, ts, 0.0, 4.0, ToleranceConfig(eps_min=1e-3))


def test_nonvanishing_floor_is_absolute():
    # p never vanishes, but |p(10)| = 1.7e-142 sits below the default floor;
    # a caller who needs such a p lowers eps_min
    p = ScaleFunction.from_text("exp(600*sin(t))")
    ts = parse_timescale("r")
    with pytest.raises(NonvanishingViolation, match=r"at tau=10\.0 on the piece \[0\.0, 10\.0\]$"):
        log_delta_principal(p, ts, 0.0, 10.0)
    value = log_delta_principal(p, ts, 0.0, 10.0, ToleranceConfig(eps_min=1e-300))
    assert value == pytest.approx(600 * math.sin(10.0), rel=1e-10)


# ---------------------------------------------------------------------------
# dense windows against the closed form: each case once returned a wrong
# number or failed under adaptive Simpson
# ---------------------------------------------------------------------------

EIGHT_PI = 8 * math.pi


@pytest.mark.parametrize(
    "text, quad_tol",
    [("exp(sin(t))", None), ("exp(sin(t))", 1e-3), ("2+sin(t)", 1e-3)],
)
def test_dense_log_over_whole_periods_is_zero(text, quad_tol):
    # Simpson's five first samples alias on [0, 8*pi]: it returned 8*pi and
    # 4*pi; the estimate is bounded by quad_tol, the value sits at the lattice
    cfg = ToleranceConfig(quad_tol=quad_tol) if quad_tol else None
    p = ScaleFunction.from_text(text)
    got = log_delta_principal(p, parse_timescale("r"), 0.0, EIGHT_PI, cfg)
    k, res = lattice_gap(got, _closed_form(p, None, 0.0, EIGHT_PI))
    assert k == 0 and res <= (quad_tol or 1e-10)


def test_exp_delta_of_cos_over_whole_periods_is_one():
    # Simpson gave 8.2e10
    got = exp_delta(ScaleFunction.from_text("cos(t)"), parse_timescale("r"), 0.0, EIGHT_PI)
    assert got == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("text", ["1+1e9*t", "1+1e13*t"])
def test_dense_log_of_steep_linear_p(text):
    # Simpson hit its depth cap near t = 0, where p'/p = 1e9 (1e13)
    p = ScaleFunction.from_text(text)
    got = log_delta_principal(p, parse_timescale("r"), 0.0, 0.5)
    assert got == pytest.approx(_closed_form(p, None, 0.0, 0.5), rel=1e-12, abs=1e-10)


def _counting_samples(monkeypatch):
    # count the integrand samples of every quadrature call, by the name the walks look up
    quad = calculus.adaptive_simpson
    counts = [0]

    def counting(f, *args):
        def sample(x):
            counts[0] += 1
            return f(x)

        return quad(sample, *args)

    monkeypatch.setattr(calculus, "adaptive_simpson", counting)
    return counts


def test_dense_log_samples_grow_about_linearly_with_the_window(monkeypatch):
    # the tolerance is per piece, not halved per bisection: quadrupling the
    # window costs the definition's full-tolerance integral at most about 4.5
    # times the samples
    counts = _counting_samples(monkeypatch)
    p = ScaleFunction.from_text("2+sin(t)")
    samples = []
    for t in (500.0, 2000.0):
        counts[0] = 0
        got = _definition("delta-principal", p, parse_timescale("r"), 0.5, t)
        assert got == pytest.approx(_closed_form(p, None, 0.5, t), abs=1e-9)
        samples.append(counts[0])
    assert 0 < samples[1] <= 4.5 * samples[0]


@pytest.mark.parametrize("t", [500.0, 2000.0])
def test_theorem_log_takes_a_third_of_the_definitions_samples(monkeypatch, t):
    # the theorem integrates only for the winding K, at a loose tolerance
    counts = _counting_samples(monkeypatch)
    p = ScaleFunction.from_text("2+sin(t)")
    r = parse_timescale("r")
    theorem = log_delta_principal(p, r, 0.5, t)
    theorem_samples, counts[0] = counts[0], 0
    definition = _definition("delta-principal", p, r, 0.5, t)
    assert 0 < 3 * theorem_samples <= counts[0]
    assert theorem == pytest.approx(definition, abs=1e-9)


# ---------------------------------------------------------------------------
# the dense winding K and its witnesses
# ---------------------------------------------------------------------------


def _perturbing(monkeypatch, shift, above):
    # integrate by the real integrator, adding shift to the results taken at
    # tolerances above `above`; records each call's tolerance
    quad = calculus.adaptive_simpson
    tols = []

    def perturbed(f, a, b, tol):
        tols.append(tol)
        v = quad(f, a, b, tol)
        return v + shift if tol > above else v

    monkeypatch.setattr(calculus, "adaptive_simpson", perturbed)
    return tols


@pytest.mark.parametrize("shift", [1j * math.pi, 0.5], ids=["half-turn", "real-part"])
def test_a_winding_without_its_witness_is_retried_tighter(monkeypatch, shift):
    # a half turn breaks the integer witness and 0.5 the real-part witness;
    # either way the loose estimate at 1e-2 is refused, and the one at 1e-4 accepted
    p = ScaleFunction.from_text("exp(i*50*t)+0.5")
    r = parse_timescale("r")
    want = log_delta_principal(p, r, 0.0, 10.0)  # 80 turns
    tols = _perturbing(monkeypatch, shift, 1e-3)
    assert log_delta_principal(p, r, 0.0, 10.0) == want
    assert tols == [1e-2, 1e-4]


@pytest.mark.parametrize("shift", [1j * math.pi, 0.5], ids=["half-turn", "real-part"])
def test_a_winding_never_witnessed_raises_naming_its_piece(monkeypatch, shift):
    tols = _perturbing(monkeypatch, shift, 0.0)
    p = ScaleFunction.from_text("exp(i*t)+2")
    ts = parse_timescale("union:[0,1];[2,3]")
    with pytest.raises(QuadratureFailure, match=re.escape("on the piece [0.5, 1.0]")):
        log_delta_principal(p, ts, 0.5, 3.0, ToleranceConfig(quad_tol=1e-7))
    # the winding's own ladder, whatever quad_tol is
    assert tols == [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]


@pytest.mark.parametrize(
    "text, quad_tol",
    [("exp(53.1*i*t)+0.56", 0.5), ("(t-0.3-0.01*i)*(t-0.7+0.01*i)", 10.0), ("exp(i*t)+2", 1e-300)],
)
def test_the_theorem_has_the_defaults_bits_at_any_quad_tol(text, quad_tol):
    # the winding search has its own ladder and does not read quad_tol, so
    # a loose quad_tol cannot end it at an unwitnessed integral
    p = ScaleFunction.from_text(text)
    r = parse_timescale("r")
    cfg = ToleranceConfig(quad_tol=quad_tol)
    for compute in (
        lambda cfg: log_delta_principal(p, r, 0.0, 3.0, cfg),
        lambda cfg: log_cayley_principal(p, r, 3.0, 0.0, cfg),
        lambda cfg: log_table("nabla-principal", p, r, 1.0, [0.0, 3.0], cfg)[1],
        lambda cfg: exp_delta(delta_quotient(p, cfg), r, 0.0, 3.0),
        lambda cfg: exp_nabla(nabla_quotient(p), r, 0.0, 3.0, cfg),
    ):
        want, got = compute(None), compute(cfg)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_a_theorem_log_needs_no_tolerance_the_integrator_cannot_meet():
    # no piece meets 1e-300 within MAX_QUAD_SAMPLES, but the winding is
    # witnessed at the first, loose tolerance
    p = ScaleFunction.from_text("exp(i*t)+2")
    got = log_delta_principal(p, parse_timescale("r"), 0.0, 20.0, ToleranceConfig(quad_tol=1e-300))
    assert got == _closed_form(p, None, 0.0, 20.0)


def test_dense_log_of_a_fast_oscillation_matches_mpmath():
    # the full-tolerance integral of p'/p needs more than MAX_QUAD_SAMPLES here
    p = ScaleFunction.from_text("2+sin(1e4*t)")
    got = log_delta_principal(p, parse_timescale("r"), 0.0, 0.5)
    with mpmath.workdps(40):
        want = mpmath.log((2 + mpmath.sin(mpmath.mpf(5000))) / 2)
    assert got.imag == 0.0
    assert abs(got.real - float(want)) <= 1e-15


# ---------------------------------------------------------------------------
# nabla variant
# ---------------------------------------------------------------------------


def test_nabla_log_telescopes_backward():
    p = ScaleFunction.from_text("t+2")
    ts = parse_timescale("hz:1")
    got = log_nabla_principal(p, ts, 0.0, 5.0)
    # product of p(tau)/p(tau - 1) over tau = 1..5
    want = sum(cmath.log(p(k) / p(k - 1)) for k in range(1, 6))
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(math.log(7.0 / 2.0), rel=1e-13)


def test_nabla_log_matches_delta_mod_lattice():
    p = ScaleFunction.from_text("t^2+t+1")
    ts = parse_timescale("hz:1")
    a = log_nabla_multi(p, ts, 1.0, 5.0)
    b = log_delta_principal(p, ts, 1.0, 5.0)
    k, res = lattice_gap(a, b)
    assert res <= 1e-9


def test_nabla_log_on_union_uses_upper_quotient():
    p = ScaleFunction.from_text("t^3")
    ts = parse_timescale("union:[-inf,-4];[2,inf]")
    got = log_nabla_principal(p, ts, -5.0, 3.0)
    k, res = lattice_gap(got, complex(math.log(27.0 / 125.0), math.pi))
    assert res <= 1e-9


# ---------------------------------------------------------------------------
# Cayley and eta variants
# ---------------------------------------------------------------------------


def test_cayley_equals_delta_principal():
    p = ScaleFunction.from_text("t^2+1")
    ts = parse_timescale("hz:1")
    a = log_cayley_principal(p, ts, 0.0, 6.0)
    b = log_delta_principal(p, ts, 0.0, 6.0)
    assert scaled_residual(a, b) <= 1e-12


def test_cayley_multi_form():
    p = ScaleFunction.from_text("t+3*i")
    ts = parse_timescale("hz:2:1")
    m = log_cayley_multi(p, ts, 1.0, 7.0)
    k, res = lattice_gap(m, log_delta_principal(p, ts, 1.0, 7.0))
    assert res <= 1e-9


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_eta_family_collapses_to_delta(eta):
    p = ScaleFunction.from_text("t^2-3*t+40")
    ts = parse_timescale("q:2")
    m = log_eta(eta, p, ts, 1.0, 16.0)
    k, res = lattice_gap(m, log_delta_principal(p, ts, 1.0, 16.0))
    assert res <= 1e-9


def test_vanishing_weighted_denominator_raises_typed_error():
    # p(0) = -0.5 and p(1) = 0.5: their mean, the eta = 1/2 weight, is 0
    p = ScaleFunction.from_text("t-0.5")
    ts = parse_timescale("hz:1")
    with pytest.raises(CayleyNotRegressive):
        log_cayley_principal(p, ts, 0.0, 1.0)
    with pytest.raises(EtaNotRegressive):
        log_eta(0.5, p, ts, 0.0, 1.0)


class RecordingFunction(ScaleFunction):
    """A ScaleFunction that remembers every point it is evaluated at."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.points = []

    def __call__(self, t):
        self.points.append(t)
        return super().__call__(t)


@pytest.mark.parametrize(
    "spec, s, t",
    [
        ("set:0.1,0.7,1.3,2.9", 0.1, 2.9),
        ("alt:0.3,0.7", 0.0, 5.0),
        ("hz:0.3:0.05", 0.05, 2.75),
        # windows where tau + mu rounds off the stored successor: -0.25 +
        # 0.30000000000000004 is 0.04999999999999999, not 0.05
        ("hz:0.3:0.05", -3.25, 3.35),
        ("q:2.5", 1.0, 2.5**40),
        ("set:-5.5,0.1,3.3,100000", -5.5, 100000.0),
    ],
)
@pytest.mark.parametrize("variant", [v.value for v in LogVariant] + ["identity-suite", "integral-quotient"])
def test_jumps_evaluate_p_only_at_scale_points(variant, spec, s, t):
    # the identity suite's exponential round trip and the integral-quotient
    # log take the quotient pDelta/p across each gap to the stored successor
    ts = parse_timescale(spec)
    p = RecordingFunction.from_text("t^2+1")
    if variant == "identity-suite":
        identity_suite(p, ScaleFunction.from_text("t+3"), ts, s, t, 2.0)
    elif variant == "integral-quotient":
        legacy_log(variant, p, ts, s, t)
    else:
        log_ts(variant, p, ts, s, t, eta=0.3)
    assert p.points
    for x in p.points:
        assert ts.snap(x) == x


def test_exp_round_trip_reads_the_stored_successor():
    # tau + mu rounds off the stored successor at 2.5^k for large k, and p
    # turns a full circle every 2*pi: the public (tau, mu) quotient gives
    # 0.4288+0.5536i there, the suite's own quotient p(t)/p(1)
    p = ScaleFunction.from_text("exp(i*t)+0.5")
    q = ScaleFunction.from_text("exp(2*i*t)+2")
    ts = parse_timescale("q:2.5")
    rows = {row.identity: row for row in identity_suite(p, q, ts, 1.0, 2.5**40, 2.0)}
    assert all(row.passed for row in rows.values())
    assert rows["exp-of-principal-log"].rhs == pytest.approx(p(2.5**40) / p(1.0), rel=1e-12)


def _jumps(ts, lo, hi):
    # the window's jumps (tau, sigma): each piece's end to the next piece's start
    pieces = list(ts._clipped_pieces(lo, hi))
    return [(b, a) for (_, b), (a, _) in zip(pieces, pieces[1:])]


@pytest.mark.parametrize("spec, lo, hi", [("alt:0.3,0.7", 0.0, 10.0), ("q:2.5", 1.0, 2.5**40)])
def test_huff_sums_over_the_stored_successor(spec, lo, hi):
    # the huff term 2/(tau + sigma) reads sigma as stored, not as tau + mu:
    # on alt:0.3,0.7, 2*tau + mu is 1.2999999999999998 for the jump from 0.3
    # to 1, where tau + sigma is 1.3
    ts = parse_timescale(spec)
    total = 0j
    for tau, sigma in _jumps(ts, lo, hi):
        term = (sigma - tau) * (2.0 / (tau + sigma))
        assert legacy_log("huff", None, ts, tau, sigma) == term
        total += term
    assert legacy_log("huff", None, ts, lo, hi) == total


def test_eta_validation():
    p = ScaleFunction.from_text("t+1")
    with pytest.raises(ValueError):
        log_eta(1.5, p, parse_timescale("hz:1"), 0.0, 3.0)


def test_log_ts_dispatch():
    p = ScaleFunction.from_text("t+10")
    ts = parse_timescale("hz:1")
    s, t = 0.0, 4.0
    principal = log_delta_principal(p, ts, s, t)
    assert log_ts("delta-principal", p, ts, s, t) == principal
    assert log_ts(LogVariant.DELTA_MULTI, p, ts, s, t).rep == principal
    assert log_ts("nabla-principal", p, ts, s, t) == log_nabla_principal(p, ts, s, t)
    assert log_ts("cayley-multi", p, ts, s, t).rep == log_cayley_principal(p, ts, s, t)
    got = log_ts("eta", p, ts, s, t, eta=0.5)
    assert isinstance(got, MultiLog)
    with pytest.raises(ValueError):
        log_ts("eta", p, ts, s, t)
    with pytest.raises(ValueError):
        log_ts("no-such-variant", p, ts, s, t)


# ---------------------------------------------------------------------------
# the theorem against the definition
# ---------------------------------------------------------------------------

# every row, the eta row at both ends and inside
ROWS = [pytest.param(v.value, None, id=v.value) for v in LogVariant if v is not LogVariant.ETA]
ROWS += [pytest.param("eta", e, id=f"eta:{e:g}") for e in (0.0, 0.3, 0.5, 1.0)]


def _stored_points(ts, lo, hi, midpoints=True):
    # the window's ends and every point a jump touches, in increasing order,
    # and the midpoint of each continuous piece
    points = [lo]
    for i, (a, b) in enumerate(ts._clipped_pieces(lo, hi)):
        if i:  # the jump to the start of this piece
            points.append(a)
        if b > a:
            points += [0.5 * (a + b), b] if midpoints else [b]
    return points


def _definitions(rows, p, ts, s, t, cfg=None):
    # the cylinder-map walk of the rows, (variant, eta) pairs, which the
    # identity suite checks the theorem against, over the window walked up
    # and reversed as _window reverses one
    s, t = ts.snap(s), ts.snap(t)
    lo, hi = sorted((s, t))
    walk = logexp._Definition(p, cfg or calculus.DEFAULT_TOLERANCES, [(LogVariant(v), eta) for v, eta in rows])
    sums = walk.between(*calculus._walk(walk, ts, [lo, hi]))
    return sums if s <= t else [-1.0 * v for v in sums]


def _definition(variant, p, ts, s, t, cfg=None, eta=None):
    # one row's walk
    return _definitions([(variant, eta)], p, ts, s, t, cfg)[0]


def _definition_table(variant, p, ts, base, points, cfg, eta):
    # log_table's one walk up through the points and the base, summing the
    # cylinder-map terms of one row; each row is the sum from the base to its point
    walk = logexp._Definition(p, cfg, [(LogVariant(variant), eta)])
    n = bisect_left(points, base)
    stops = points[:n] + [base] + points[n:]
    marks = calculus._walk(walk, ts, stops)
    at_base = marks.pop(n)
    return [walk.between(at_base, m)[0] for m in marks]


THEOREM_WINDOWS = [
    pytest.param("hz:0.5", "(t-1-2*i)^3", -4.0, 9.5, id="hz"),
    pytest.param("hz:0.3:0.05", "exp(i*t)+0.5", -3.25, 3.35, id="hz-anchored"),
    pytest.param("q:1.5", "(t-3+2*i)^2", 1.0, 1.5**12, id="q"),
    pytest.param("alt:0.3,0.7", "exp(i*t)+0.9*i", 0.0, 12.0, id="alt"),
    pytest.param("set:-5,-4,-1.5,0.5,2,2.25,4,7", "1-t+i*t^2", -5.0, 7.0, id="set"),
    # the jump from p(-4) = -64 to p(2) = 8 lands on the row's side of the cut
    pytest.param("union:[-inf,-4];[2,inf]", "t^3", -5.0, 3.0, id="union-sign-change"),
    pytest.param("union:[0,1];[1.5,1.5];[2,2];[3,4]", "exp(i*t)+2", 0.25, 3.5, id="union-isolated-points"),
    # dense windows whose winding K the theorem takes from a loose integral
    pytest.param("r", "exp(i*200*t)+0.9", 0.0, 3.0, id="r-fast-winding"),  # K = 95
    pytest.param("r", "exp(i*50*t)+0.5", 0.0, 10.0, id="r-winding"),
    pytest.param("r", "exp(i*20*sin(t))+0.3", 0.0, 50.0, id="r-back-and-forth"),
    pytest.param("r", "exp(i*t)+0.5", 0.0, 1000.0, id="r-long"),
    pytest.param("r", "exp(sin(t))", 0.0, 8 * math.pi, id="r-whole-periods"),
    pytest.param("r", "(t-1.234)+1e-6*i", 0.0, 3.0, id="r-near-zero"),
]


@functools.lru_cache(maxsize=None)
def _jump_free_definitions(spec, text, lo, hi, forward):
    # on a window without jumps the definition of every row is the same
    # integral of p'/p, so it is walked once per window and direction: the
    # window, then the table from its low or high end
    ts = parse_timescale(spec)
    assert not _jumps(ts, lo, hi)
    p = ScaleFunction.from_text(text)
    s, t = (lo, hi) if forward else (hi, lo)
    points = _stored_points(ts, lo, hi)
    base = lo if forward else hi
    cfg = ToleranceConfig()
    return _definition("delta-principal", p, ts, s, t), _definition_table("delta-principal", p, ts, base, points, cfg, None)


@pytest.mark.parametrize("spec, text, lo, hi", THEOREM_WINDOWS)
@pytest.mark.parametrize("variant, eta", ROWS)
@pytest.mark.parametrize("forward", [True, False], ids=["up", "down"])
def test_theorem_equals_the_definition_walk(variant, eta, spec, text, lo, hi, forward):
    # each jump's cylinder term is Log(p_sigma/p) on the row's side of the
    # cut, so the two agree on the representative itself (k = 0), not only
    # modulo 2*pi*i; the table from its top row agrees too
    ts = parse_timescale(spec)
    p = ScaleFunction.from_text(text)
    s, t = (lo, hi) if forward else (hi, lo)
    points = _stored_points(ts, lo, hi)
    base = lo if forward else hi
    cfg = ToleranceConfig()
    if not _jumps(ts, lo, hi):
        definition, table = _jump_free_definitions(spec, text, lo, hi, forward)
    else:
        definition = _definition(variant, p, ts, s, t, eta=eta)
        table = _definition_table(variant, p, ts, base, points, cfg, eta)
    theorem = _rep(log_ts(variant, p, ts, s, t, eta=eta))
    k, res = lattice_gap(theorem, definition)
    assert k == 0 and res <= 1e-12 * max(1.0, abs(theorem))
    rows = log_table(variant, p, ts, base, points, cfg, eta=eta)
    for row, want in zip(rows, table):
        k, res = lattice_gap(row, want)
        assert k == 0 and res <= 1e-12 * max(1.0, abs(row))


@pytest.mark.parametrize(
    "spec, lo, hi",
    [
        ("hz:1", -3.0, 33.0),
        ("q:1.5", 1.0, 1.5**20),
        ("alt:0.3,0.7", 0.0, 12.0),
        ("set:-5,-4,-1.5,0.5,2,2.25,4,7", -5.0, 7.0),
    ],
)
@pytest.mark.parametrize("variant, eta", ROWS)
def test_log_over_n_jumps_evaluates_p_n_plus_1_times(variant, eta, spec, lo, hi):
    # once at each point, the carried value serving as the next jump's p(tau)
    ts = parse_timescale(spec)
    points = _scale_points(ts, lo, hi)
    assert len(points) == len(_jumps(ts, lo, hi)) + 1
    for s, t in ((lo, hi), (hi, lo)):
        p = RecordingFunction.from_text("t^2+1")
        log_ts(variant, p, ts, s, t, eta=eta)
        assert sorted(p.points) == points
    for base in (lo, hi):
        p = RecordingFunction.from_text("t^2+1")
        log_table(variant, p, ts, base, points, eta=eta)
        assert sorted(p.points) == points


@pytest.mark.parametrize("variant", ["delta-principal", "nabla-principal", "cayley-principal"])
def test_theorem_takes_the_closed_form_apart_beyond_float_range(variant):
    # p(700)/p(-20) overflows although both values, and every jump ratio e,
    # are finite floats
    p = ScaleFunction.from_text("exp(t)")
    ts = parse_timescale("hz:1")
    assert log_ts(variant, p, ts, -20.0, 700.0) == pytest.approx(720.0, rel=1e-14)
    assert log_ts(variant, p, ts, 700.0, -20.0) == pytest.approx(-720.0, rel=1e-14)
    assert log_table(variant, p, ts, 700.0, [-20.0, 0.0, 700.0]) == pytest.approx([-720.0, -700.0, 0.0], rel=1e-14)


def _error_corpus(seed: int = 20261018):
    """Seeded cases (spec, p text, lo, hi), each window holding one defect.

    The defects: p at the eps_min floor at the window's low end, inside it
    and at its high end; p not finite inside it; a spike or a dip of p at
    an interior point, whose jump ratios p_sigma/p reach 1e-11 to 1e-13 on
    one side of it and 1e11 to 1e13 on the other; and, across the gap from
    0 to 1, p = t - 0.3 and p = t - 0.5, whose ratio -(1-eta)/eta makes
    (1-eta)p + eta*p_sigma exactly 0 for eta = 0.3 and 0.5.  A spike sits
    on an isolated point at least 0.4 from any other, so a bump of width
    1e-3 touches no other point and no continuous piece.
    """
    rng = random.Random(seed)
    # (spec, stored points a window may start or end at, isolated points)
    scales = (
        ("hz:1", [float(k) for k in range(-3, 7)], None),
        ("alt:0.4,0.7", _stored_points(parse_timescale("alt:0.4,0.7"), 0.0, 6.6), None),
        ("set:-3,-2.5,-1,0,1,1.25,2,3.5,4,6", [-3.0, -2.5, -1.0, 0.0, 1.0, 1.25, 2.0, 3.5, 4.0, 6.0], None),
        ("union:[-3,-2];[-1,-1];[0,0];[1,1];[2,3]", [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]),
    )
    cases = []
    for spec, points, isolated in scales:
        for _ in range(2):
            mid = rng.choice(isolated or points[1:-1])
            m = points.index(mid)
            i = rng.randrange(0, m)
            j = rng.randrange(m + 1, len(points))
            lo, hi = points[i], points[j]
            bump = f"exp(-1e5*(t-({mid!r}))^2)"
            cases += [(spec, f"t-({x!r})", lo, hi) for x in (lo, points[rng.randrange(i + 1, j)], hi)]
            cases.append((spec, f"1+exp(800-1e6*(t-({mid!r}))^2)", lo, hi))
            for a in ("1e11", "1e12", "1e13"):
                cases.append((spec, f"1+{a}*{bump}", lo, hi))
                cases.append((spec, f"{a}-({a}-1)*{bump}", lo, hi))
        if 0.0 in points and 1.0 in points and parse_timescale(spec).sigma(0.0) == 1.0:
            lo = rng.choice(points[: points.index(0.0) + 1])
            hi = rng.choice(points[points.index(1.0) :])
            cases += [(spec, f"t-{eta}", lo, hi) for eta in ("0.3", "0.5")]
    return cases


def _outcome(compute):
    try:
        return "value", compute()
    except ChronologError as exc:
        return type(exc).__name__, str(exc).rpartition(" on the ")[2]


def _near(value, want) -> bool:
    return lattice_gap(value, want)[1] <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("variant, eta", ROWS)
def test_theorem_raises_what_the_definition_raises(variant, eta):
    # the same error class at the same point or gap, for both window
    # directions and both table walks; where neither raises, the theorem
    # gives the closed form (the maps lose up to 1e-7 on the 1e11 ratios)
    cfg = ToleranceConfig(eps_min=1e-10)
    kinds = set()
    for spec, text, lo, hi in _error_corpus():
        ts = parse_timescale(spec)
        p = ScaleFunction.from_text(text)
        points = _stored_points(ts, lo, hi)
        for s, t in ((lo, hi), (hi, lo)):
            got = _outcome(lambda: _rep(log_ts(variant, p, ts, s, t, cfg, eta=eta)))
            want = _outcome(lambda: _definition(variant, p, ts, s, t, cfg, eta=eta))
            assert got[0] == want[0] and (got[0] == "value" or got == want), (spec, text, s, t, got, want)
            if got[0] == "value" and len(_jumps(ts, lo, hi)) == len(points) - 1:
                assert _near(got[1], _closed_form(p, ts, s, t)), (spec, text, s, t, got)
            kinds.add(got[0])
        for base in (lo, hi):
            got = _outcome(lambda: log_table(variant, p, ts, base, points, cfg, eta=eta))
            want = _outcome(lambda: _definition_table(variant, p, ts, base, points, cfg, eta))
            assert got[0] == want[0] and (got[0] == "value" or got == want), (spec, text, base, got, want)
    # the corpus reaches every check the row has
    expected = {"value", "NonvanishingViolation", "NonFiniteValue"}
    if variant.startswith(("delta", "nabla")) or eta in (0.0, 1.0):
        expected.add({"delta": "NotRegressive", "nabla": "NotNuRegressive"}.get(variant[:5], "EtaNotRegressive"))
    else:
        expected.add("CayleyNotRegressive" if variant.startswith("cayley") else "EtaNotRegressive")
    assert kinds == expected


# ---------------------------------------------------------------------------
# errors across the walk's blocks of jumps
# ---------------------------------------------------------------------------

# a window of _LONG jumps: walked up from its lower end, the walk takes
# _HANDFUL single jumps, one full block and a last block of _HANDFUL jumps,
# so that its gaps 0, H - 1, H, H + B - 1, H + B and _LONG - 1 are the
# first and last jumps and the jumps on either side of each boundary
_H, _B = calculus._HANDFUL, calculus._BLOCK
_LONG = 2 * _H + _B
_BOUNDARY_GAPS = sorted({0, _H - 1, _H, _H + _B - 1, _H + _B, _LONG - 1})


def _long_set(seed: int = 20261019, zero_at: int | None = None) -> list[float]:
    # 2 * _LONG + 2 points with gaps drawn from [0.5, 1.5]; with zero_at,
    # points zero_at and zero_at + 1 are 0 and 1
    rng = random.Random(seed)
    gaps = [round(rng.uniform(0.5, 1.5), 3) for _ in range(2 * _LONG + 1)]
    if zero_at is None:
        return [-3.0 + sum(gaps[:k]) for k in range(2 * _LONG + 2)]
    below = [-sum(gaps[k:zero_at]) for k in range(zero_at)]
    above = [1.0 + sum(gaps[zero_at:k]) for k in range(zero_at, 2 * _LONG + 1)]
    return below + [0.0] + above


def _long_window(spec: str, jumps: int = _LONG) -> tuple:
    # the scale and the stored points of a window of `jumps` jumps on it, at
    # most 2 * _LONG + 1
    if spec == "set":
        points = _long_set()
        return parse_timescale("set:" + ",".join(map(repr, points))), points[: jumps + 1]
    ts = parse_timescale(spec)
    points = [ts.snap(1.0 if spec.startswith("q:") else 0.0)]
    while len(points) <= jumps:
        points.append(ts.sigma(points[-1]))
    return ts, points


# the map row of each variant: its weight eta and its regressivity error
_ROW_ERRORS = {
    "delta-principal": (0.0, "NotRegressive"),
    "nabla-principal": (1.0, "NotNuRegressive"),
    "cayley-multi": (0.5, "CayleyNotRegressive"),
    "eta": (0.3, "EtaNotRegressive"),
}


def _first_failing_gap(points, d, into, out_of):
    # the lower end of the first gap, in walk order (upwards), that fails
    # among the gap into point d (from below) and the gap out of it
    gaps = ([d - 1] if into and d > 0 else []) + ([d] if out_of and d < len(points) - 1 else [])
    return points[gaps[0]] if gaps else None


def _block_walks(variant, eta, p, ts, points, cfg):
    # log_ts over the window both ways and log_table from either end, each
    # as (outcome, s, t); all four walk up from the bottom, the swapped
    # window and the table's rows below its base reversing what they find
    lo, hi = points[0], points[-1]
    yield _outcome(lambda: _rep(log_ts(variant, p, ts, lo, hi, cfg, eta=eta))), lo, hi
    yield _outcome(lambda: _rep(log_ts(variant, p, ts, hi, lo, cfg, eta=eta))), hi, lo
    yield _outcome(lambda: log_table(variant, p, ts, lo, [lo, hi], cfg, eta=eta)[1]), lo, hi
    yield _outcome(lambda: log_table(variant, p, ts, hi, [lo, hi], cfg, eta=eta)[0]), hi, lo


@pytest.mark.parametrize("spec", ["hz:1", "q:1.001", "alt:0.4,0.7", "set"])
def test_blocks_of_jumps_give_the_bits_of_single_jumps(monkeypatch, spec):
    # the same walks with the blocks and with every jump taken by step; the
    # second p winds around 0 many times over the window, so that the
    # winding K of most rows is not 0.  An exponential's block is a product
    # of factors, not the single jumps' sum of Logs: see the next test
    ts, points = _long_window(spec)
    stops = [points[k] for k in sorted({0, 3, 4, _H + 1, 3 * _H, _H + _B + 2, _H + _B + 3, _LONG})]
    lo, hi = points[0], points[-1]

    def walks(p):
        out = []
        for variant, eta in ((v.value, None) for v in LogVariant if v is not LogVariant.ETA):
            out += [_rep(log_ts(variant, p, ts, lo, hi)), _rep(log_ts(variant, p, ts, hi, lo))]
            out += log_table(variant, p, ts, lo, stops) + log_table(variant, p, ts, hi, stops)
        for eta in (0.0, 0.3, 1.0):
            out += log_table("eta", p, ts, stops[3], stops, eta=eta)
        out.append(calculus.delta_integral(lambda tau, mu: tau * mu + 1j, ts, lo, hi))
        return [complex(v) for v in out]

    functions = [ScaleFunction.from_text(text) for text in ("(t-2-3*i)^3+exp(i*t)", "exp(30*i*t)+0.5")]
    blocked = [walks(p) for p in functions]
    assert any(abs(v.imag) > 2 * math.pi for v in blocked[1])
    monkeypatch.setattr(calculus, "_HANDFUL", 10**9)
    for p, want in zip(functions, blocked):
        assert [_bits(v) for v in walks(p)] == [_bits(v) for v in want]


def _exp_cases(p):
    # (exponential, coefficient, factor of one jump from tau to sigma, whether
    # it is p's own quotient): p's forward and backward quotients, whose
    # factors are the ratios p(sigma)/p(tau); a ScaleFunction coefficient;
    # and callables (tau, mu), forward and backward, delta_quotient among
    # them on the nabla row
    dq = delta_quotient(p)
    c = ScaleFunction.from_text("0.002*i*t-0.001")
    back = lambda tau, nu: (p(tau) - p(tau - nu)) / nu / p(tau)  # noqa: E731
    mpc = lambda z: mpmath.mpc(z.real, z.imag)  # noqa: E731
    ratio = lambda tau, sigma: mpc(p(sigma)) / mpc(p(tau))  # noqa: E731
    return [
        (exp_delta, dq, ratio, True),
        (exp_delta, c, lambda tau, sigma: mpc(1 + (sigma - tau) * c(tau)), False),
        (exp_nabla, nabla_quotient(p), ratio, True),
        (exp_nabla, dq, lambda tau, sigma: 1 / mpc(1 - (sigma - tau) * dq(sigma, sigma - tau)), False),
        (exp_nabla, back, lambda tau, sigma: 1 / mpc(1 - (sigma - tau) * back(sigma, sigma - tau)), False),
    ]


@pytest.mark.parametrize("spec", ["hz:1", "q:1.001", "alt:0.4,0.7", "set"])
def test_exponentials_in_blocks_are_the_product_of_their_factors(monkeypatch, spec):
    # the blocked and the jump-by-jump exponentials, either way over a
    # window of _LONG jumps, against the exact product of the float factors.
    # The blocks are within 1e-13, and so are p's own quotients by single
    # jumps, whose product is the ratio of p at the window's ends, with the
    # bits of the blocks.  Other coefficients' single jumps take exp of a
    # sum of Logs, which carries the sum's rounding, a few ulps of the sum of
    # |Log factor|, into its relative error, 6.2e-13 for the second p on
    # hz:1, which winds
    ts, points = _long_window(spec)
    lo, hi = points[0], points[-1]
    functions = [ScaleFunction.from_text(text) for text in ("(t-2-3*i)^3+exp(i*t)", "exp(30*i*t)+0.5")]
    with mpmath.workdps(40):
        cases, want, mass, own = [], [], [], []
        for p in functions:
            for exp, coeff, factor, ratios in _exp_cases(p):
                factors = [factor(tau, sigma) for tau, sigma in zip(points, points[1:])]
                product = mpmath.fprod(factors)
                cases += [(exp, coeff, lo, hi), (exp, coeff, hi, lo)]
                want += [product, 1 / product]
                mass += 2 * [float(sum(abs(mpmath.log(f)) for f in factors))]
                own += 2 * [ratios]
        walks = {}
        for handful in (_H, 10**9):
            monkeypatch.setattr(calculus, "_HANDFUL", handful)
            walks[handful] = [exp(coeff, ts, s, t) for exp, coeff, s, t in cases]
        for handful, values in walks.items():
            for value, exact, logs, ratios in zip(values, want, mass, own):
                tol = 1e-13 if handful == _H or ratios else max(1e-13, 8 * 2**-52 * logs)
                assert abs(mpmath.mpc(value.real, value.imag) / exact - 1) < tol
    assert walks[10**9] != walks[_H]  # the blocks were taken
    assert [_bits(a) for a, ratios in zip(walks[_H], own) if ratios] == [
        _bits(b) for b, ratios in zip(walks[10**9], own) if ratios
    ]


@pytest.mark.parametrize("exp", [exp_delta, exp_nabla])
@pytest.mark.parametrize("big_first", [True, False])
def test_an_exponential_block_out_of_float_range_is_one_scaled_product(exp, big_first):
    # factors of 10 over the first 300 jumps of hz:1 and of 1/10 over the
    # rest, or the other way round: the block's running product passes
    # 1e280 (or 1e-280), yet the block is taken whole, c drawn once per
    # jump, and either direction is within 1e-13 of the exact product of
    # the float factors (3.1e-14 at most), where the single jumps' sum of
    # Logs was up to 1.7e-13 off.  The window ends with the block, since the
    # walk takes the jumps after a block in a block of their own
    ts, points = _long_window("hz:1")
    lo, hi = points[0], points[_H + _B]
    big, small = (9.0, -0.9) if exp is exp_delta else (0.9, -9.0)
    if not big_first:
        big, small = small, big
    c = lambda x: big if x <= 300.0 else small  # noqa: E731
    calls = []
    coeff = lambda x, mu: calls.append(x) or complex(c(x))  # noqa: E731
    pairs = zip(points[: _H + _B], points[1 : _H + _B + 1])
    with mpmath.workprec(200):
        if exp is exp_delta:
            exact = mpmath.fprod(mpmath.mpf(1 + (sigma - tau) * c(tau)) for tau, sigma in pairs)
        else:
            exact = 1 / mpmath.fprod(mpmath.mpf(1 - (sigma - tau) * c(sigma)) for tau, sigma in pairs)
        forward = exp(coeff, ts, lo, hi)
        assert len(calls) == _H + _B
        backward = exp(coeff, ts, hi, lo)
        assert abs(mpmath.mpf(forward.real) / exact - 1) < 1e-13 and forward.imag == 0.0
        assert abs(mpmath.mpf(backward.real) * exact - 1) < 1e-13 and backward.imag == 0.0
    assert 1e50 < abs(forward) ** (1 if big_first else -1) < 1e100


@pytest.mark.parametrize("exp", [exp_delta, exp_nabla])
def test_exponential_blocks_that_leave_float_range_keep_the_products_accuracy(exp):
    # 40 windows of 1,100 jumps of hz:1 whose factors have moduli 4 * [0.9,
    # 1.1] over their first 300 to 520 jumps and 0.25 * [0.9, 1.1] after,
    # with random phases: in each window a block's running product leaves
    # [1e-280, 1e280], and every block is taken whole, c drawn once per
    # jump.  Against a
    # 200-bit product of the float factors, the worst relative error is
    # 1.3e-13 and the median 3.8e-14; re-walking such blocks by single jumps
    # gave 1.1e-12 and 2.4e-13
    ts = parse_timescale("hz:1")
    rng = random.Random(20261020)
    errors, draws = [], []
    for _ in range(40):
        high = rng.randint(300, 520)
        factors = [
            (4.0 if k < high else 0.25) * rng.uniform(0.9, 1.1) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            for k in range(1100)
        ]
        calls = []
        if exp is exp_delta:  # c at tau, the jump's lower end
            cs = [f - 1 for f in factors]
            coeff = lambda tau, mu: calls.append(tau) or cs[int(tau)]  # noqa: E731
            floats = [mpmath.mpc(1 + 1.0 * c) for c in cs]
        else:  # c at sigma, its upper end
            cs = [1 - 1 / f for f in factors]
            coeff = lambda tau, mu: calls.append(tau) or cs[int(tau) - 1]  # noqa: E731
            floats = [1 / mpmath.mpc(1 - 1.0 * c) for c in cs]
        with mpmath.workprec(200):
            value = exp(coeff, ts, 0.0, 1100.0)
            errors.append(float(abs(mpmath.mpc(value) / mpmath.fprod(floats) - 1)))
        draws.append(len(calls))
    assert max(errors) <= 2.5e-13
    assert statistics.median(errors) <= 5e-14
    assert draws == [1100] * 40


def test_an_exponential_of_p_s_quotient_evaluates_p_at_each_block_s_kept_points(monkeypatch):
    # over _LONG jumps, exp_delta of p's own quotient takes the theorem's
    # walk: the first of the _H single jumps evaluates p at both its ends,
    # and each of the two blocks after them (of _B jumps and of the last _H)
    # evaluates p once at each point that its certified spans keep, in walk
    # order: the block over [8, 520] is one span whose box, which squares
    # [8, 520] whole, stays clear of 0, so it keeps its end; the last
    # block, of _H jumps, is too short to certify.  So p at 18 of the 529
    # points
    ts, points = _long_window("hz:1")
    f = RecordingFunction.from_text("t^2+1")
    kept, blocks = logexp._Winding._kept, []

    def recording_kept(self, xs):
        # the evaluations so far, and the block's kept points
        blocks.append((len(f.points), kept(self, xs)))
        return blocks[-1][1]

    monkeypatch.setattr(logexp._Winding, "_kept", recording_kept)
    exp_delta(delta_quotient(f), ts, points[0], points[-1])
    assert f.points[: _H + 1] == points[: _H + 1]
    starts = [n for n, _ in blocks] + [len(f.points)]
    assert [f.points[a:b] for a, b in zip(starts, starts[1:])] == [k for _, k in blocks]
    assert [len(k) for _, k in blocks] == [1, _H]
    assert len(f.points) == _H + 1 + 1 + _H


# ---------------------------------------------------------------------------
# certified spans: a run evaluates p only where a span can wind
# ---------------------------------------------------------------------------


def _refuse_every_box(monkeypatch):
    # every enclosure refused: each run keeps, and evaluates p at, all its points
    monkeypatch.setattr(ScaleFunction, "box", lambda self, a, b: None)


def _whole_outcome(compute):
    # the bits of a walk's value (or a table's rows), or the class and whole
    # message of its error
    try:
        value = compute()
    except ChronologError as exc:
        return type(exc).__name__, str(exc)
    return "value", [_bits(complex(_rep(v))) for v in (value if isinstance(value, list) else [value])]


def _row_walks(p, ts, lo, hi, stops, cfg=None):
    # every row's log over [lo, hi] both ways, its table from either end and,
    # on the xi and xi_hat rows, p's own quotient exponential both ways
    out = []
    for variant, (weight, _) in _ROW_ERRORS.items():
        eta = weight if variant == "eta" else None
        out += [
            _whole_outcome(lambda: log_ts(variant, p, ts, lo, hi, cfg, eta=eta)),
            _whole_outcome(lambda: log_ts(variant, p, ts, hi, lo, cfg, eta=eta)),
            _whole_outcome(lambda: log_table(variant, p, ts, lo, stops, cfg, eta=eta)),
            _whole_outcome(lambda: log_table(variant, p, ts, hi, stops, cfg, eta=eta)),
        ]
    for exp, quotient in ((exp_delta, delta_quotient), (exp_nabla, nabla_quotient)):
        out += [_whole_outcome(lambda: exp(quotient(p, cfg), ts, s, t, cfg)) for s, t in ((lo, hi), (hi, lo))]
    return out


# p whose trouble lies between the points 3 and 4 of hz:1, inside the first
# block of a window from -260, whose next block is certified: a pole (whose
# refused box keeps the first block whole); p crossing the negative real axis,
# the cut of each ratio's Arg, near 0 and far from it (where certified
# spans cross it); sqrt and log crossing their own cut, so that p jumps;
# ratios next to -1, and a p that winds about 4 times with certified spans
_BETWEEN_POINTS = (
    "1/(t-3.5)",
    "-1+i*(t-3.5)",
    "-100+i*(t-3.5)",
    "sqrt(-1+i*(t-3.5))",
    "log(-1+i*(t-3.5))+5",
    "exp(3.141592653589793*i*t)",
    "exp(0.05*i*t)+0.5",
)


@pytest.mark.parametrize("text", _BETWEEN_POINTS)
def test_certified_spans_keep_the_bits_of_every_jump(monkeypatch, text):
    ts = parse_timescale("hz:1")
    lo, hi = -260.0, -260.0 + 2 * _LONG
    stops = [lo, -200.0, 3.0, 4.0, 100.0, 600.0, hi]
    p = ScaleFunction.from_text(text)
    certified = _row_walks(p, ts, lo, hi, stops)
    _refuse_every_box(monkeypatch)
    assert _row_walks(p, ts, lo, hi, stops) == certified
    if text == "exp(0.05*i*t)+0.5":
        assert abs(float.fromhex(certified[0][1][0][1])) > 6 * math.pi  # the winding K is not 0


@pytest.mark.parametrize("spec", ["hz:1", "q:1.001", "alt:0.4,0.7", "set"])
@pytest.mark.parametrize("defect", ["floor", "not-finite", "spike"])
def test_certified_spans_keep_every_error_across_a_block_boundary(monkeypatch, spec, defect):
    # the defect corpus of the block-boundary tests, every row both ways:
    # each outcome, value bits or error class and message, is the one of
    # runs that keep every point
    cfg = ToleranceConfig(eps_min=1e-10)
    ts, points = _long_window(spec)
    lo, hi = points[0], points[-1]
    stops = [lo, points[_H + 3], hi]
    functions = []
    for d in sorted(set(_BOUNDARY_GAPS) | {g + 1 for g in _BOUNDARY_GAPS}):
        x = points[d]
        near = min(abs(x - y) for y in points[max(d - 1, 0) : d + 2] if y != x)
        width = 2000.0 / near**2
        functions.append(
            ScaleFunction.from_text(
                {
                    "floor": f"t-({x!r})+1e-11",
                    "not-finite": f"1+exp(800-{width!r}*(t-({x!r}))^2)",
                    "spike": f"1+1e12*exp(-{width!r}*(t-({x!r}))^2)",
                }[defect]
            )
        )
    certified = [_row_walks(p, ts, lo, hi, stops, cfg) for p in functions]
    _refuse_every_box(monkeypatch)
    assert [_row_walks(p, ts, lo, hi, stops, cfg) for p in functions] == certified


@pytest.mark.parametrize("spec", ["hz:0.25", "hz:1", "q:1.001", "alt:0.4,0.7", "set"])
def test_certified_spans_of_a_fast_turning_p_keep_the_bits_of_every_jump(monkeypatch, spec):
    # exp(i*t) + c turns by the whole gap at each jump, so only its box over
    # the real segment, which sees that |exp(i*t)| = 1, certifies its spans
    ts, points = _long_window(spec)
    lo, hi = points[0], points[-1]
    stops = [lo, points[_H + 3], points[_H + _B // 2], hi]
    p = ScaleFunction.from_text("exp(i*t)+(2-1.5*i)")
    certified = _row_walks(p, ts, lo, hi, stops)
    _refuse_every_box(monkeypatch)
    assert _row_walks(p, ts, lo, hi, stops) == certified


@pytest.mark.parametrize(
    "centre, radius, certified",
    [
        (1.0, 0.5, True),
        # at 5e-11 from 0, under eps_min = 1e-10
        (2e-10, 1.5e-10, False),
        # at 2^-21 from 0, under 2^-20 of its farthest corner's modulus
        # (about 2.24) but far above eps_min
        (1.0, 1.0 - 2.0**-21, False),
        (1.0, 1.0 - 2.0**-18, True),
        # left of 0, holding 0, and refused
        (-2.0, 1.0, True),
        (0.25, 0.5, False),
        (0.0, math.inf, False),
    ],
)
def test_a_span_is_certified_only_above_the_floor_and_the_margin(monkeypatch, centre, radius, certified):
    # every span's box is the square of half-side radius about centre, or
    # refused where that is inf: a certified block keeps its end alone, any
    # other keeps every point
    box = None if radius == math.inf else (centre - radius, centre + radius, -radius, radius)
    ts, points = _long_window("hz:1")
    p = RecordingFunction.from_text("t+1000")
    monkeypatch.setattr(ScaleFunction, "box", lambda self, a, b: box)
    log_ts("delta-principal", p, ts, points[0], points[-1], ToleranceConfig(eps_min=1e-10))
    assert len(p.points) == (_H + 1) + (1 if certified else _B) + _H


@pytest.mark.parametrize("text", ["t^2+1", "exp(i*t)+(2-1.5*i)"])
def test_a_long_smooth_window_evaluates_p_at_under_2_percent_of_its_points(text):
    ts = parse_timescale("hz:1")
    p = RecordingFunction.from_text(text)
    want = log_ts("delta-principal", p, ts, 0.0, 5000.0)
    assert len(p.points) < 0.02 * 5001
    assert abs(want - cmath.log(p(5000.0) / p(0.0))) == 0.0


def test_a_span_that_winds_is_split_only_while_its_box_leaves_a_chance(monkeypatch):
    # exp(pi*i*t) turns by pi at each jump of hz:1, so no span of 16 jumps
    # or more is certified, and a box that holds the whole unit circle,
    # centred near 0, leaves no smaller span a chance: over 1,056 jumps, one
    # box for each of the blocks of 512, 512 and 24 jumps, over all of it
    ts, points = _long_window("hz:1", 2 * _LONG)
    calls = []
    box = ScaleFunction.box
    monkeypatch.setattr(ScaleFunction, "box", lambda self, a, b: calls.append((a, b)) or box(self, a, b))
    p = RecordingFunction.from_text("exp(3.141592653589793*i*t)")
    log_ts("delta-principal", p, ts, points[0], points[-1])
    assert len(points) - 1 == 1056 and len(p.points) == len(points)
    ends = [points[k] for k in (_H, _H + _B, _H + 2 * _B, 2 * _LONG)]
    assert calls == list(zip(ends, ends[1:]))


def _exp_outcome(compute):
    # the class and the whole message of what a walk raises, or its value
    try:
        return "value", compute()
    except Exception as exc:  # the coefficient's own errors too
        return type(exc).__name__, str(exc)


def _same_outcomes(blocked, single) -> bool:
    # the same errors, and values within 1e-12 (a block is a product)
    return len(blocked) == len(single) and all(
        a == b or (a[0] == b[0] == "value" and abs(a[1] - b[1]) <= 1e-12 * abs(b[1]))
        for a, b in zip(blocked, single)
    )


@pytest.mark.parametrize("spec", ["hz:1", "q:1.001", "alt:0.4,0.7", "set"])
@pytest.mark.parametrize("exp", [exp_delta, exp_nabla])
def test_an_exponential_error_across_a_block_boundary_is_the_single_jumps(monkeypatch, spec, exp):
    # a coefficient called jump by jump, with a defect at one gap g (the
    # first and last jumps and either side of each boundary): a factor that
    # vanishes, a value that is not finite, or the coefficient raising,
    # alone or at the jump after a vanishing factor in walk order; each
    # walk raises the class and message of the walk by single jumps
    ts, points = _long_window(spec)
    index = {x: k for k, x in enumerate(points)}
    lo, hi = points[0], points[-1]
    forward = exp is exp_delta
    vanishing = NotRegressive if forward else NotNuRegressive
    raised = {"chronolog": EvalDomain, "arithmetic": ZeroDivisionError, "type": TypeError}
    outcomes = {}
    for handful in (_H, 10**9):
        monkeypatch.setattr(calculus, "_HANDFUL", handful)
        got = outcomes[handful] = []
        for g in _BOUNDARY_GAPS:
            for defect in ["vanishing", "inf", "nan"] + [f"{k}{after}" for k in raised for after in ("", "-after")]:
                for s, t in ((lo, hi), (hi, lo)):

                    kind, after = defect.removesuffix("-after"), defect.endswith("-after")

                    def coeff(x, mu):
                        k = index[x] if forward else index[x] - 1  # the gap sampled
                        if k == g and (kind == "vanishing" or after):
                            return complex(-1.0 / mu if forward else 1.0 / mu)
                        if k == g and kind in ("inf", "nan"):
                            return complex(kind)
                        if kind in raised and k == (g + 1 if after else g):  # either window walks up
                            raise raised[kind](f"no coefficient at gap {k}")
                        return 0.01 + 0.02j

                    got.append(_exp_outcome(lambda: exp(coeff, ts, s, t)))
                    if kind == "vanishing" or after:
                        assert got[-1][0] == vanishing.__name__, (g, defect, s, got[-1])
    assert outcomes[_H] == outcomes[10**9]
    assert all(kind != "value" for kind, _ in outcomes[_H])


def test_an_exponential_term_that_overflows_on_a_tiny_gap_is_the_single_jumps(monkeypatch):
    # on gaps of 1e-308 the factor 1 + mu*c = 0.01 is finite, but the
    # single jump's term mu * xi(mu, c) = Log(0.01) overflows in xi
    points = [k * 1e-308 for k in range(2 * _H + _B + 1)]
    ts = parse_timescale("set:" + ",".join(map(repr, points)))
    coeff = lambda x, mu: complex(-0.99e308) if x == points[300] else 0j  # noqa: E731
    outcomes = []
    for handful in (_H, 10**9):
        monkeypatch.setattr(calculus, "_HANDFUL", handful)
        outcomes.append(_exp_outcome(lambda: exp_delta(coeff, ts, points[0], points[-1])))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "NonFiniteValue"


@pytest.mark.parametrize("spec", ["hz:1", "q:1.001", "alt:0.4,0.7", "set"])
@pytest.mark.parametrize("defect", ["floor", "not-finite", "spike"])
def test_a_quotient_coefficient_error_across_a_block_boundary_is_the_single_jumps(monkeypatch, spec, defect):
    # delta_quotient(p) with p's defects of the logs' test above, both
    # exponentials and both directions, and nabla_quotient(p) backward: p
    # below the floor or not finite at a point d next to a boundary gap, or
    # a spike of 1e12 there, whose factor 1e-12 out of d (delta) or into it
    # (nabla) vanishes; delta_quotient on the nabla row is called jump by
    # jump, the row's own quotients take ratios of p
    cfg = ToleranceConfig(eps_min=1e-10)
    ts, points = _long_window(spec)
    lo, hi = points[0], points[-1]
    outcomes = {}
    for handful in (_H, 10**9):
        monkeypatch.setattr(calculus, "_HANDFUL", handful)
        got = outcomes[handful] = []
        for d in sorted(set(_BOUNDARY_GAPS) | {g + 1 for g in _BOUNDARY_GAPS}):
            x = points[d]
            near = min(abs(x - y) for y in points[max(d - 1, 0) : d + 2] if y != x)
            width = 2000.0 / near**2
            text = {
                "floor": f"t-({x!r})+1e-11",
                "not-finite": f"1+exp(800-{width!r}*(t-({x!r}))^2)",
                "spike": f"1+1e12*exp(-{width!r}*(t-({x!r}))^2)",
            }[defect]
            p = ScaleFunction.from_text(text)
            for exp, quotient in ((exp_delta, delta_quotient), (exp_nabla, delta_quotient), (exp_nabla, nabla_quotient)):
                coeff = quotient(p, cfg)
                for s, t in ((lo, hi), (hi, lo)):
                    got.append(_exp_outcome(lambda: exp(coeff, ts, s, t, cfg)))
    assert _same_outcomes(outcomes[_H], outcomes[10**9])
    assert {kind for kind, _ in outcomes[10**9]} >= {
        "floor": {"NonvanishingViolation"},
        "not-finite": {"NonFiniteValue"},
        "spike": {"NotRegressive", "NotNuRegressive"},
    }[defect]



# each map row: its cylinder map, its log_ts variant and eta, and the
# quotient exponential that takes its walk, if any
_MAP_ROWS = {
    "xi": (cylinder.xi, "delta-principal", None, 0.0, (exp_delta, delta_quotient)),
    "xi_hat": (cylinder.xi_hat, "nabla-principal", None, 1.0, (exp_nabla, nabla_quotient)),
    "cayley_psi": (cylinder.cayley_psi, "cayley-principal", None, 0.5, None),
    "eta_psi": (functools.partial(cylinder.eta_psi, 0.25), "eta", 0.25, 0.25, None),
}


@pytest.mark.parametrize("row", list(_MAP_ROWS))
def test_a_vanishing_factor_raises_its_maps_message(row):
    # p is 1 at 0 and 2 and 1 + 1e13 at 1: the factor p/mix of the jump up
    # vanishes where eta > 0, and p_sigma/mix of the jump down where eta < 1.
    # The first jump to trip the guard raises, in the window log and in the
    # quotient exponential of its row, the class and the text of the row's
    # map called at that jump's mu and z = (p_sigma - p)/mu/mix, naming the gap
    cylinder_map, variant, eta, weight, quotient_exp = _MAP_ROWS[row]
    ts = parse_timescale("set:0,1,2")
    p = ScaleFunction.from_text("1+1e13*t*(2-t)")
    tau, sigma = (1.0, 2.0) if weight == 0.0 else (0.0, 1.0)
    pv, ps, mu = p(tau), p(sigma), sigma - tau
    z = (ps - pv) / mu / ((1.0 - weight) * pv + weight * ps)
    with pytest.raises(ChronologError) as direct:
        cylinder_map(mu, z)
    assert str(direct.value).startswith(f"{row}: a factor vanishes for eta={weight}, h={mu}, z=")
    walks = [lambda s, t: log_ts(variant, p, ts, s, t, eta=eta)]
    if quotient_exp is not None:
        exp, quotient = quotient_exp
        walks.append(lambda s, t: exp(quotient(p), ts, s, t))
    want = f"{direct.value} on the gap after tau={tau}"
    for walk in walks:
        for s, t in ((0.0, 2.0), (2.0, 0.0)):
            with pytest.raises(type(direct.value)) as got:
                walk(s, t)
            assert type(got.value) is type(direct.value) and str(got.value) == want


def test_quotient_exponentials_of_a_fast_oscillation_are_the_ratio_of_p():
    # 2 + sin(1e4*t) turns p'/p about 800 times over [0, 0.5]: its integral
    # to quad_tol takes more than MAX_QUAD_SAMPLES samples, but the
    # exponential is p(t)/p(s), exp of the window log, whose winding the
    # loose integral witnesses and exp discards
    p = ScaleFunction.from_text("2+sin(1e4*t)")
    with pytest.raises(QuadratureFailure):
        calculus.adaptive_simpson(lambda x: delta_quotient(p)(x, 0.0), 0.0, 0.5)
    for spec, s, t in (("r", 0.0, 0.5), ("r", 0.5, 0.0), ("union:[0,0.25];[0.3,0.5]", 0.0, 0.5)):
        ts = parse_timescale(spec)
        want = p(t) / p(s)
        for exp, quotient in ((exp_delta, delta_quotient), (exp_nabla, nabla_quotient)):
            assert abs(exp(quotient(p), ts, s, t) - want) <= 1e-15, (spec, s, t, exp.__name__)


def test_an_overflowing_jump_ratio_of_a_quotient_exponential_names_its_gap():
    # p(1)/p(0) = 1e310 overflows: exp_delta raises what the delta log
    # raises, at its gap, either way round (the walk goes up), where a
    # product of ratios would overflow only in exp, naming no gap; on the
    # nabla row the factor p(0)/p(1) of xi_hat vanishes first
    ts = parse_timescale("set:0,1")
    p = ScaleFunction.from_text("1e300*t+1e-10")
    for s, t in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(NonFiniteIntegrand) as got:
            exp_delta(delta_quotient(p), ts, s, t)
        assert str(got.value) == "the jump ratio p_sigma/p = (inf+0j) is not finite and nonzero on the gap after tau=0.0"
        with pytest.raises(NotNuRegressive) as got:
            exp_nabla(nabla_quotient(p), ts, s, t)
        assert str(got.value) == "xi_hat: a factor vanishes for eta=1.0, h=1.0, z=(1+0j) on the gap after tau=0.0"

def test_a_block_never_walks_past_a_stop(monkeypatch):
    # should the lookup of a stop's index land 40 jumps past it, the walk
    # still stops there, with the bits of a walk that found it
    ts = parse_timescale("hz:1")
    p = ScaleFunction.from_text("exp(30*i*t)+0.5")

    def walks():
        winding = logexp._theorem(LogVariant.DELTA_PRINCIPAL, p, calculus.DEFAULT_TOLERANCES, None)
        marks = calculus._walk(winding, ts, [0.0, 300.0, 600.0])
        return [_bits(winding.between(a, b)) for a in marks for b in marks if a is not b]

    want = walks()
    nearest = type(ts)._nearest
    for skew in (40, -40):  # past the stop at 300, then short of it
        monkeypatch.setattr(type(ts), "_nearest", lambda self, t: nearest(self, t) + (skew if t == 300.0 else 0))
        assert walks() == want


@pytest.mark.parametrize("spec", ["hz:1", "q:1.001", "alt:0.4,0.7", "set"])
@pytest.mark.parametrize("defect", ["floor", "not-finite", "spike"])
def test_an_error_across_a_block_boundary_names_its_gap(spec, defect):
    # a defect at one point d, the gap named derived from the point list:
    # p below the floor (1e-11, not 0, for a ratio the screen lets through)
    # and p not finite fail the first gap that reaches d;
    # a spike of 1e12 fails a gap into d where eta > 0 and one out of it
    # where eta < 1 (both factors of the map are then tested)
    cfg = ToleranceConfig(eps_min=1e-10)
    ts, points = _long_window(spec)
    defects = sorted(set(_BOUNDARY_GAPS) | {g + 1 for g in _BOUNDARY_GAPS})
    variants = ["delta-principal", "cayley-multi"] if defect != "spike" else list(_ROW_ERRORS)
    for d in defects:
        x = points[d]
        near = min(abs(x - y) for y in points[max(d - 1, 0) : d + 2] if y != x)
        width = 2000.0 / near**2  # exp(-width * gap^2) is 0 at every other point
        text = {
            "floor": f"t-({x!r})+1e-11",
            "not-finite": f"1+exp(800-{width!r}*(t-({x!r}))^2)",
            "spike": f"1+1e12*exp(-{width!r}*(t-({x!r}))^2)",
        }[defect]
        p = ScaleFunction.from_text(text)
        for variant in variants:
            weight, row_error = _ROW_ERRORS[variant]
            eta = weight if variant == "eta" else None
            for got, s, t in _block_walks(variant, eta, p, ts, points, cfg):
                if defect == "spike":
                    error, tau = row_error, _first_failing_gap(points, d, weight > 0, weight < 1)
                else:
                    error = "NonvanishingViolation" if defect == "floor" else "NonFiniteValue"
                    tau = _first_failing_gap(points, d, True, True)
                if tau is None:
                    assert got[0] == "value" and _near(got[1], _closed_form(p, ts, s, t)), (d, variant, s, got)
                else:
                    assert got == (error, f"gap after tau={tau}"), (d, variant, s, got)


@pytest.mark.parametrize("spec", ["hz:1", "set"])
def test_a_vanishing_weighted_denominator_across_a_block_boundary_names_its_gap(spec):
    # p = t - 0.3 makes (1 - 0.3) p(0) + 0.3 p(1) exactly 0, which only the
    # eta = 0.3 row tests; the gap from 0 to 1 sits at each boundary gap
    cfg = ToleranceConfig()
    p = ScaleFunction.from_text("t-0.3")
    if spec == "hz:1":
        everything = [float(k - _LONG) for k in range(2 * _LONG + 2)]
        ts = parse_timescale(spec)
    else:
        everything = _long_set(zero_at=_LONG)
        ts = parse_timescale("set:" + ",".join(map(repr, everything)))
    for g in _BOUNDARY_GAPS:
        points = everything[_LONG - g : 2 * _LONG - g + 1]
        assert (points[g], points[g + 1]) == (0.0, 1.0)
        for variant, eta in (("eta", 0.3), ("delta-principal", None)):
            for got, s, t in _block_walks(variant, eta, p, ts, points, cfg):
                if variant == "eta":
                    assert got == ("EtaNotRegressive", "gap after tau=0.0"), (g, got)
                else:
                    assert got[0] == "value" and _near(got[1], _closed_form(p, ts, s, t)), (g, got)


def test_a_jump_ratio_that_is_not_finite_across_a_block_boundary_names_its_gap():
    # p is 1.2e308*(1+i) at the two ends of gap g and 1 elsewhere: the
    # ratio of the two equal values is nan (the complex division
    # overflows), the ratio from 1 up to them finite and regressive for
    # the delta row, and the ratio back down to 1 is 0, where xi's guard
    # trips; every walk goes up, so each meets gap g first, the table from
    # its top row too
    ts = parse_timescale("hz:1")
    for g in _BOUNDARY_GAPS:
        points = [float(k) for k in range(_LONG + 1)]
        bumps = "+".join(f"1.2e308*(1+i)*exp(-1e4*(t-{x!r})^2)" for x in (points[g], points[g + 1]))
        p = ScaleFunction.from_text(f"1+{bumps}")
        up = ("NonFiniteIntegrand", f"gap after tau={points[g]}")
        lo, hi = points[0], points[-1]
        assert _outcome(lambda: log_ts("delta-principal", p, ts, lo, hi)) == up
        assert _outcome(lambda: log_ts("delta-principal", p, ts, hi, lo)) == up
        assert _outcome(lambda: log_table("delta-principal", p, ts, hi, [lo, hi])) == up


@pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
def test_a_failing_block_is_walked_again_once(up):
    # a defect in the middle of the first block, of log_ts or of the table
    # from its top row, which walks up from its lowest row: the block
    # evaluates p at its points once, and its jumps up to the defect are
    # walked once more
    ts, points = _long_window("hz:1")
    d = _H + _B // 2 if up else _LONG - _H - _B // 2
    p = RecordingFunction.from_text(f"t-({points[d]!r})")
    lo, hi = points[0], points[-1]
    with pytest.raises(NonvanishingViolation):
        if up:
            log_ts("delta-principal", p, ts, lo, hi)
        else:
            log_table("delta-principal", p, ts, hi, [lo, hi])
    assert len(p.points) <= len(points) + _B // 2 + 2


def test_a_theorem_walk_may_open_with_a_block(monkeypatch):
    # with no single jump before the first block, the theorem's run opens
    # the walk itself: a window's log, p's own exponential and a table each
    # keep the bits of the default walk, which opens with single jumps
    ts = parse_timescale("hz:1")
    p = ScaleFunction.from_text("t^2+1")

    def walks():
        return [
            _bits(log_ts("delta-principal", p, ts, 0.0, 600.0)),
            _bits(exp_delta(delta_quotient(p), ts, 0.0, 600.0)),
            [_bits(v) for v in log_table("delta-principal", p, ts, 0.0, [300.0, 600.0])],
        ]

    want = walks()
    starts = []
    run = logexp._Winding.run
    monkeypatch.setattr(logexp._Winding, "run", lambda self, mark, xs: starts.append(mark) or run(self, mark, xs))
    monkeypatch.setattr(calculus, "_HANDFUL", 0)
    assert walks() == want
    assert starts.count(logexp._Winding.start) == 3


def _marks(sums, ts, stops):
    # a walk's marks, compared by repr, which tells every float's bits
    return repr(calculus._walk(sums, ts, stops))


def test_a_sum_holds_nothing_between_walks():
    # each sum walked twice over the same window, with blocks on the way to
    # each stop, gives the same marks: the running total is all the state
    ts = parse_timescale("hz:1")
    p = ScaleFunction.from_text("t^2+1")
    cfg = calculus.DEFAULT_TOLERANCES
    c = ScaleFunction.from_text("1/(t+1)")
    sums = [
        calculus.Terms(c, lambda tau, mu, sigma: c(tau), cfg.quad_tol),
        logexp._Exponent(LogVariant.DELTA_PRINCIPAL, c, cfg),
        logexp._Definition(p, cfg, [(LogVariant(v), eta) for v, eta in _SUITE_ROWS]),
        logexp._theorem(LogVariant.CAYLEY_MULTI, p, cfg, None),
    ]
    stops = [0.0, 300.0, 600.0]
    for walk in sums:
        assert _marks(walk, ts, stops) == _marks(walk, ts, stops), type(walk)


def test_a_theorem_walk_after_one_that_raised_is_a_fresh_walk():
    # p fails at 300, inside the walk's first block, which is then walked
    # jump by jump up to the failing gap; the same sum then walks a good
    # window with the bits of a new one
    ts = parse_timescale("hz:1")
    p = ScaleFunction.from_text("1/(t-300)")
    cfg = calculus.DEFAULT_TOLERANCES
    used = logexp._theorem(LogVariant.DELTA_PRINCIPAL, p, cfg, None)
    with pytest.raises(EvalDomain, match=re.escape("on the gap after tau=299.0")):
        calculus._walk(used, ts, [0.0, 1000.0])
    fresh = logexp._theorem(LogVariant.DELTA_PRINCIPAL, p, cfg, None)
    stops = [301.0, 700.0, 1000.0]
    assert _marks(used, ts, stops) == _marks(fresh, ts, stops)


@pytest.mark.parametrize(
    "spec, k0, k1",
    [
        # the first jump from 1.0 rounds onto it
        ("hz:1e-17:1.0", 0, 22),
        # h = 1.5e-16 is more than the float spacing below |x| = 1 and less
        # than the one above it: the points collapse past 1.0, a block's
        # length from the anchor, and from the start of the window to -1.0
        (f"hz:1.5e-16:{1.0 - 20 * 1.5e-16!r}", 0, 35),
        (f"hz:1.5e-16:{1.0 - 20 * 1.5e-16!r}", 5, 60),
        (f"hz:1.5e-16:{1.0 - 600 * 1.5e-16!r}", 0, 640),
        (f"hz:1.5e-16:{-1.0 - 40 * 1.5e-16!r}", 0, 640),
    ],
)
def test_points_that_are_not_distinct_floats_raise_at_the_first_such_gap(spec, k0, k1):
    ts = parse_timescale(spec)
    h, anchor = ts.h, ts.anchor
    points = [anchor + k * h for k in range(k0, k1 + 1)]  # the grid's own expression
    lo, hi = points[0], points[-1]
    # every walk goes up from lo and stops at the first point equal to hi,
    # so a window may end before its last index, and a collapse after it
    # goes unseen
    up = [k for k in range(points.index(hi)) if not points[k] < points[k + 1]]
    assert up
    p = ScaleFunction.from_text("t")
    want = ("PointNotInScale", f"the neighbour of {points[up[0]]!r} is not a distinct finite float")
    for compute in (
        lambda: log_ts("delta-principal", p, ts, lo, hi),
        lambda: log_ts("cayley-principal", p, ts, hi, lo),
        lambda: log_table("delta-principal", p, ts, lo, [lo, hi]),
        lambda: log_table("nabla-principal", p, ts, hi, [lo, hi]),
        lambda: exp_delta(p, ts, lo, hi),
    ):
        with pytest.raises(PointNotInScale) as info:
            compute()
        assert ("PointNotInScale", str(info.value)) == want


# ---------------------------------------------------------------------------
# log_table: one walk from a base
# ---------------------------------------------------------------------------

TABLE_VARIANTS = [pytest.param(v.value, None, id=v.value) for v in LogVariant if v is not LogVariant.ETA]
TABLE_VARIANTS.append(pytest.param("eta", 0.3, id="eta:0.3"))
TABLE_FUNCTIONS = ("(t-1-2*i)^3", "exp(i*t)+0.5")


def _rep(value) -> complex:
    return value.rep if isinstance(value, MultiLog) else value


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _scale_points(ts, start, stop):
    points = [ts.snap(start)]
    while points[-1] < stop:
        points.append(ts.sigma(points[-1]))
    return points


@pytest.mark.parametrize(
    "spec, start, stop",
    [
        ("hz:1", -3.0, 25.0),
        ("hz:0.3:0.05", 0.05, 6.05),
        ("q:1.1", 1.0, 1.1**40),
        ("alt:0.3,0.7", 0.0, 10.0),
        ("set:0.1,0.7,1.3,2.9,3.3", 0.1, 3.3),
    ],
)
@pytest.mark.parametrize("variant, eta", TABLE_VARIANTS)
def test_log_table_forward_rows_match_log_ts_bit_for_bit(variant, eta, spec, start, stop):
    # on a discrete scale the running total sums the same jump terms in the
    # same order as a walk per row, so nothing may differ, not even the sign
    # of a zero part
    ts = parse_timescale(spec)
    points = _scale_points(ts, start, stop)
    for text in TABLE_FUNCTIONS:
        p = ScaleFunction.from_text(text)
        rows = log_table(variant, p, ts, start, points, eta=eta)
        assert len(rows) == len(points)
        for u, row in zip(points, rows):
            assert _bits(row) == _bits(_rep(log_ts(variant, p, ts, start, u, eta=eta)))


@pytest.mark.parametrize("spec", ["r", "union:[0,1];[1.5,1.5];[2,4]"])
@pytest.mark.parametrize("variant, eta", TABLE_VARIANTS)
def test_log_table_dense_rows_match_log_ts_and_closed_form(variant, eta, spec):
    # the rows split continuous pieces, which changes the turns summed but
    # not the integer winding, so each row is the per-row walk's closed form
    # from the same two values of p, bit for bit
    cfg = ToleranceConfig()
    ts = parse_timescale(spec)
    points = [u for u in (0.25 * k for k in range(17)) if ts.contains(u)]
    for text in TABLE_FUNCTIONS:
        p = ScaleFunction.from_text(text)
        rows = log_table(variant, p, ts, 0.0, points, cfg, eta=eta)
        for u, row in zip(points, rows):
            assert _bits(row) == _bits(_rep(log_ts(variant, p, ts, 0.0, u, cfg, eta=eta)))
            _, res = lattice_gap(row, _closed_form(p, ts, 0.0, u))
            assert res <= cfg.cmp_tol


@pytest.mark.parametrize("spec", ["hz:1", "q:1.001", "alt:0.4,0.7", "set", "r", "union:[0,1];[1.5,1.5];[2,4]"])
@pytest.mark.parametrize("variant, eta", TABLE_VARIANTS)
def test_log_table_rows_on_both_sides_of_the_base_match_log_ts_bit_for_bit(monkeypatch, variant, eta, spec):
    # a mid-range base; each row is log_ts(base, u) bit for bit, and a row
    # below the base is the closed form of [u, base], Log(p(base)/p(u)) +
    # 2*pi*i*K from the walk's two values of p, negated.  On the point
    # families the stops below and above the base lie far enough apart that
    # blocks run on both sides of it.  The row at the base is 0j, also where
    # p/p rounds off 1, as for exp(i*t)+2 at the base 2.25 of the union
    if spec in ("r", "union:[0,1];[1.5,1.5];[2,4]"):
        ts = parse_timescale(spec)
        points = [u for u in (0.25 * k for k in range(17)) if ts.contains(u)]
        base = points[len(points) // 2]
    else:
        ts, everything = _long_window(spec, 2 * _LONG)
        points = [everything[k] for k in (0, 3, 200, _LONG - 1, _LONG, _LONG + 5, _LONG + 300, 2 * _LONG)]
        base = everything[_LONG]
    blocks = []
    run = logexp._Winding.run

    def recording(self, total, xs):
        ran = run(self, total, xs)
        blocks.append((xs[0], xs[-1]))
        return ran

    monkeypatch.setattr(logexp._Winding, "run", recording)
    for text in TABLE_FUNCTIONS + ("exp(i*t)+2",):
        p = ScaleFunction.from_text(text)
        rows = log_table(variant, p, ts, base, points, eta=eta)
        assert len(rows) == len(points) and _bits(rows[points.index(base)]) == _bits(0j)
        assert sum(u < base for u in points) >= 3 and sum(u > base for u in points) >= 3
        for u, row in zip(points, rows):
            assert _bits(row) == _bits(_rep(log_ts(variant, p, ts, base, u, eta=eta))), (u, row)
            if u < base:
                log = logexp._log_ratio(p(base), p(u))
                k = round((-row.imag - log.imag) / (2 * math.pi))
                assert _bits(row) == _bits(-1.0 * complex(log.real, log.imag + 2 * math.pi * k)), (u, row, log)
    if ts._points(0, 0) is not None:
        assert any(hi <= base for _, hi in blocks) and any(lo >= base for lo, _ in blocks)


@pytest.mark.parametrize("base", [0.0, 12.0])
def test_log_table_caps_the_whole_walk_before_any_term(monkeypatch, base):
    # every stretch between rows jumps one gap, but each walk spans 12 > 10
    monkeypatch.setattr(timescale, "MAX_WINDOW_JUMPS", 10)
    evals = []
    monkeypatch.setattr(ScaleFunction, "__call__", lambda self, t: evals.append(t))
    monkeypatch.setattr(ScaleFunction, "prime", lambda self, t: evals.append(t))
    monkeypatch.setattr(ScaleFunction, "pair", lambda self, t: evals.append(t))
    ts = parse_timescale("hz:1")
    with pytest.raises(UnboundedWindow):
        log_table("delta-principal", ScaleFunction.from_text("t+10"), ts, base, [float(k) for k in range(13)])
    assert evals == []


def test_log_table_rejects_unsorted_points():
    p = ScaleFunction.from_text("t+10")
    with pytest.raises(ValueError):
        log_table("delta-principal", p, parse_timescale("hz:1"), 0.0, [1.0, 3.0, 2.0])


# ---------------------------------------------------------------------------
# pointwise logarithmic derivative
# ---------------------------------------------------------------------------


def test_log_derivative_reciprocal_on_reals():
    p = ScaleFunction.from_text("t")
    ts = parse_timescale("r")
    for t in (0.5, 1.0, 2.0, 10.0):
        assert log_delta_derivative(p, ts, t) == pytest.approx(1.0 / t, rel=1e-12)


def test_log_derivative_on_uniform_grid():
    p = ScaleFunction.from_text("t")
    for h in (0.5, 1.0, 2.0):
        ts = parse_timescale(f"hz:{h}")
        for k in (1, 2, 5):
            t = k * h
            want = math.log(1.0 + h / t) / h
            assert log_delta_derivative(p, ts, t) == pytest.approx(want, rel=1e-12)


def test_log_derivative_on_qgrid():
    p = ScaleFunction.from_text("t")
    q = 2.0
    ts = parse_timescale("q:2")
    for k in range(0, 8):
        t = q ** k
        want = math.log(q) / ((q - 1.0) * t)
        assert log_delta_derivative(p, ts, t) == pytest.approx(want, rel=1e-12)


def test_log_derivative_alternating_two_cases():
    p = ScaleFunction.from_text("t")
    a, b = 1.0, 2.0
    ts = parse_timescale("alt:1,2")
    t = 3.0  # next gap is alpha
    assert log_delta_derivative(p, ts, t) == pytest.approx(math.log(1 + a / t) / a, rel=1e-12)
    t = 4.0  # next gap is beta
    assert log_delta_derivative(p, ts, t) == pytest.approx(math.log(1 + b / t) / b, rel=1e-12)


def test_log_derivative_differs_from_plain_quotient_on_grids():
    p = ScaleFunction.from_text("t")
    ts = parse_timescale("hz:1")
    quot = delta_quotient(p)(2.0, 1.0)
    logd = log_delta_derivative(p, ts, 2.0)
    assert quot == pytest.approx(0.5)
    assert logd == pytest.approx(math.log(1.5))
    assert abs(quot - logd) > 0.09


@pytest.mark.parametrize(
    "spec, text, t, log_message, quotient_message",
    [
        # p(1)/p(0) = 1e310 overflows: the window log's jump raises, named at its gap
        (
            "hz:1",
            "1e300*t+1e-10",
            0.0,
            "the jump ratio p_sigma/p = (inf+0j) is not finite and nonzero on the gap after tau=0.0",
            "the quotient pDelta/p = (inf+0j) is not finite at t=0.0",
        ),
        # the ratio e^23 is finite, its Log and the quotient over mu = 1e-300 are not
        (
            "set:0,1e-300",
            "exp(2.3e301*t)+1e300*t",
            0.0,
            None,
            "the quotient pDelta/p = (inf+nanj) is not finite at t=0.0",
        ),
        # on a dense point p'/p overflows
        (
            "r",
            "1e300*t+1e-10",
            0.0,
            "the log derivative = (inf+0j) is not finite at t=0.0",
            "the quotient pDelta/p = (inf+0j) is not finite at t=0.0",
        ),
    ],
)
def test_a_pointwise_value_that_is_not_finite_raises_naming_its_point(spec, text, t, log_message, quotient_message):
    ts = parse_timescale(spec)
    p = ScaleFunction.from_text(text)
    for compute, message in (
        (lambda: log_delta_derivative(p, ts, t), log_message),
        (lambda: legacy_log("jackson", p, ts, None, t), quotient_message),
    ):
        if message is None:
            assert cmath.isfinite(compute())
        else:
            with pytest.raises(NonFiniteIntegrand) as got:
                compute()
            assert str(got.value) == message


@pytest.mark.parametrize(
    "text, quotient_error, dense_error",
    [
        # where p and p' both fail, the quotient reports p and the log's
        # integrand reports p' (it evaluates p' first), as do the
        # exponentials of p's own quotients, which are exp of the log
        ("log(t)", (EvalDomain, "log of zero"), (EvalDomain, "division by zero at t=0j on the piece")),
        (
            "1e-12+0*sqrt(t)",
            (NonvanishingViolation, "< eps_min at tau=0.0"),
            (EvalDomain, "division by zero at t=0j on the piece"),
        ),
        # where only p' fails, the quotient raises p''s error
        ("1+t*sqrt(t)", (EvalDomain, "division by zero at t=0j"), (EvalDomain, "division by zero at t=0j on the piece")),
    ],
)
def test_p_and_its_derivative_failing_together_keep_their_order(text, quotient_error, dense_error):
    p = ScaleFunction.from_text(text)
    r = parse_timescale("r")
    error, message = quotient_error
    with pytest.raises(error, match=re.escape(message)):
        delta_quotient(p)(0.0, 0.0)
    with pytest.raises(error, match=re.escape(message)):
        log_delta_derivative(p, r, 0.0)
    with pytest.raises(error, match=re.escape(message)):
        legacy_log("jackson", p, r, 0.0, 0.0)
    error, message = dense_error
    with pytest.raises(error, match=re.escape(message)):
        log_delta_principal(p, r, 0.0, 1.0)
    for exp, quotient in ((exp_delta, delta_quotient), (exp_nabla, nabla_quotient)):
        with pytest.raises(error, match=re.escape(message)):
            exp(quotient(p), r, 0.0, 1.0)


# the p of the pointwise corpus: every --p and --q of the CLI stdout pins,
# two draws of each benchmark family, and p whose jumps overflow, underflow,
# vanish under the maps' guard, land exactly on the cut or meet a pole
_PINS = json.loads(pathlib.Path(__file__).with_name("cli_stdout_pins.json").read_text(encoding="utf-8"))
_POINTWISE_P = sorted({argv[i + 1] for argv in (pin["argv"] for pin in _PINS) for i, a in enumerate(argv) if a in ("--p", "--q")}) + [
    "(t-(608.0513))^2+1.8626",
    "(t-(502.6925))^2+3.6401",
    "(t-(353.0185-1.2719*i))^3",
    "(t-(1637.2659-1.6318*i))^3",
    "exp(i*t)+(2.0179+0.69*i)",
    "exp(i*t)+(-1.8224+1.6788*i)",
    "exp(1.2641*sin(0.9646*t))+1.9094",
    "exp(1.2909*sin(1.0211*t))+2.0122",
    "exp(i*1.2145*sin(t))+(0.2743-1.9194*i)",
    "exp(i*1.26*sin(t))+(-0.0416-2.05*i)",
    "(t-(-13.1242-0.4311*i))*(t-(-9.7135-0.4684*i))",
    "(t-(2.35-0.4444*i))*(t-(4.148-0.4657*i))",
    "1e10*exp(-30*t)",
    "1e300*exp(-701*t)",
    "1e300*t+1e-10",
    "1-2*t",
    "1/(t-3.5)",
]
# each scale with the points t tried, of which the right-scattered ones are kept
_POINTWISE_SCALES = [
    ("hz:1", [float(k) for k in range(-3, 8)]),
    ("hz:0.5", [0.5 * k for k in range(-8, 17)]),
    ("q:2", [2.0**k for k in range(12)]),
    ("q:1.5", [1.5**k for k in range(12)]),
    ("alt:0.5,1.5", [2.0 * k + d for k in range(8) for d in (0.0, 0.5)]),
    ("set:-3,-1,0,0.5,1,2,3.5,4,352.5,353.5,502,503,608,609,1637,1638,2000",
     [-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.5, 4.0, 352.5, 502.0, 608.0, 1637.0, 1638.0]),
    ("union:[-2,-1];[0,0];[0.5,1];[2,3];[3.5,3.5];[5,6]", [-1.5, -1.0, 0.0, 0.75, 1.0, 2.5, 3.0, 3.5]),
]


def _bits_or_error(compute):
    # the bits of a value, or the class and message of what it raised
    try:
        v = compute()
    except ChronologError as exc:
        return type(exc), str(exc)
    return v.real.hex(), v.imag.hex()


def test_pointwise_log_derivative_is_the_window_log_over_one_jump():
    # at a right-scattered t the log derivative is the window logarithm over
    # [t, sigma(t)] divided by mu, bit for bit, or raises what that log raises
    outcomes = {}
    for spec, points in _POINTWISE_SCALES:
        ts = parse_timescale(spec)
        for text in _POINTWISE_P:
            p = ScaleFunction.from_text(text)
            for t in points:
                x, sigma = ts.delta_point(t)
                if sigma == x:
                    continue
                want = _bits_or_error(lambda: log_ts("delta-principal", p, ts, x, sigma) / (sigma - x))
                got = _bits_or_error(lambda: log_delta_derivative(p, ts, t))
                assert got == want, (spec, text, t)
                outcomes[spec, text, x] = got
    assert len(outcomes) > 1500
    errors = {o[0] for o in outcomes.values() if isinstance(o[0], type)}
    assert {NotRegressive, NonFiniteIntegrand, EvalDomain} <= errors
    # a factor p_sigma/p under the maps' guard is NotRegressive, as xi says
    # of the coefficient (p_sigma - p)/p, and a gap's error names the gap
    assert outcomes["hz:1", "1e10*exp(-30*t)", 0.0] == (
        NotRegressive,
        "xi: a factor vanishes for eta=0.0, h=1.0, z=(-0.9999999999999063+0j) on the gap after tau=0.0",
    )
    with pytest.raises(NotRegressive):
        xi(1.0, -0.9999999999999063)
    assert outcomes["hz:1", "1e300*exp(-701*t)", 0.0][0] is NotRegressive
    assert outcomes["hz:1", "1e300*t+1e-10", -1.0][0] is NotRegressive
    # an exactly negative ratio lands on xi's side of the cut, +i*pi
    assert outcomes["hz:1", "1-2*t", 0.0] == ((0.0).hex(), math.pi.hex())


@pytest.mark.parametrize("spec, t", [("hz:1", 2.0), ("r", 2.0), ("union:[0,1];[2,5]", 1.0), ("set:1,2,5", 2.0)])
def test_pointwise_calls_look_the_point_up_once(monkeypatch, spec, t):
    ts = parse_timescale(spec)
    p = ScaleFunction.from_text("t^2+1")
    lookups = []
    lookup = timescale.TimeScale._lookup

    def counting(self, x):
        lookups.append(x)
        return lookup(self, x)

    monkeypatch.setattr(timescale.TimeScale, "_lookup", counting)
    for call in (
        lambda: calculus.delta_derivative(p, ts, t),
        lambda: calculus.nabla_derivative(p, ts, t),
        lambda: log_delta_derivative(p, ts, t),
        lambda: legacy_log("jackson", p, ts, 0.0, t),
    ):
        lookups.clear()
        call()
        assert lookups == [t]


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------


def test_exp_delta_constant_on_unit_grid_compounds():
    ts = parse_timescale("hz:1")
    got = exp_delta(lambda tau, mu: 1.0 + 0j, ts, 0.0, 3.0)
    assert got == pytest.approx(8.0 + 0j, rel=1e-12)


def test_exp_delta_constant_on_reals_is_classical():
    ts = parse_timescale("r")
    got = exp_delta(lambda tau, mu: 0.5 + 0j, ts, 1.0, 3.0)
    assert got == pytest.approx(cmath.exp(1.0), rel=1e-9)


def test_exp_delta_accepts_scale_function_coefficient():
    ts = parse_timescale("hz:1")
    c = ScaleFunction.from_text("t")
    # product of (1 + tau) for tau = 0..3
    got = exp_delta(c, ts, 0.0, 4.0)
    assert got == pytest.approx(24.0 + 0j, rel=1e-12)


def test_exp_delta_on_qgrid_compounds():
    ts = parse_timescale("q:2")
    got = exp_delta(lambda tau, mu: 1.0 + 0j, ts, 1.0, 8.0)
    assert got == pytest.approx((1 + 1) * (1 + 2) * (1 + 4) + 0j, rel=1e-12)


def test_exp_nabla_constant_on_unit_grid():
    ts = parse_timescale("hz:1")
    got = exp_nabla(lambda tau, nu: 0.5 + 0j, ts, 0.0, 3.0)
    assert got == pytest.approx(2.0 ** 3 + 0j, rel=1e-12)  # (1 - 0.5)^-3


def test_exp_regressivity_guards():
    ts = parse_timescale("hz:1")
    with pytest.raises(NotRegressive):
        exp_delta(lambda tau, mu: -1.0 + 0j, ts, 0.0, 3.0)
    with pytest.raises(NotNuRegressive):
        exp_nabla(lambda tau, nu: 1.0 + 0j, ts, 0.0, 3.0)


@pytest.mark.parametrize(
    "compute, error",
    [
        (lambda ts: log_cayley_principal(ScaleFunction.from_text("1-2*t"), ts, 0.0, 3.0), CayleyNotRegressive),
        (lambda ts: log_eta(0.25, ScaleFunction.from_text("1-4*t"), ts, 3.0, 0.0), EtaNotRegressive),
        (lambda ts: log_delta_principal(ScaleFunction.from_text("t-1"), ts, 0.0, 3.0), NonvanishingViolation),
        (lambda ts: exp_delta(lambda tau, mu: -1.0 if tau == 0.0 else 0.5, ts, -2.0, 3.0), NotRegressive),
        (lambda ts: exp_nabla(lambda tau, nu: 1.0 if tau == 1.0 else 0.5, ts, 3.0, -2.0), NotNuRegressive),
    ],
    ids=["cayley", "eta", "nonvanishing", "exp-delta", "exp-nabla"],
)
def test_jump_errors_name_their_gap(compute, error):
    # the map or the nonvanishing check raises inside the walk, which adds
    # the gap; the error keeps its class
    with pytest.raises(error, match=r" on the gap after tau=0\.0$"):
        compute(parse_timescale("hz:1"))


@pytest.mark.parametrize(
    "spec, lo, hi",
    [("hz:1", 0.0, 3.0), ("q:2", 1.0, 8.0), ("alt:0.3,0.7", 0.0, 3.0), ("set:0.5,1,2.5,3", 0.5, 3.0),
     ("union:[0,1];[2,3]", 0.5, 3.0), ("r", 0.5, 3.0), ("hz:0.3:0.05", -3.25, 3.35)],
)
@pytest.mark.parametrize("forward_window", [True, False])
def test_exponentials_read_the_delta_and_nabla_rows(spec, lo, hi, forward_window):
    # a jump term is the row's cylinder map of the coefficient: at tau for
    # delta, at the stored sigma(tau) for nabla; continuous stretches
    # integrate c itself
    ts = parse_timescale(spec)
    s, t = (lo, hi) if forward_window else (hi, lo)
    c = RecordingFunction.from_text("0.3+0.2*i*t")
    sign = 1.0 if s <= t else -1.0
    forward = backward = 0j
    tau = None
    for a, b in ts._clipped_pieces(lo, hi):
        if tau is not None:  # the jump from the last piece's end to a
            mu = a - tau
            forward += mu * xi(mu, c(tau))
            backward += mu * xi_hat(mu, c(a))
        if b > a:
            dense = (0.3 * (b - a)) + 0.1j * (b**2 - a**2)
            forward += dense
            backward += dense
        tau = b
    c.points.clear()
    assert exp_delta(c, ts, s, t) == pytest.approx(cmath.exp(sign * forward), rel=1e-12)
    assert exp_nabla(c, ts, s, t) == pytest.approx(cmath.exp(sign * backward), rel=1e-12)
    assert c.points
    for x in c.points:
        assert ts.snap(x) == x


def test_exp_of_log_recovers_quotient():
    p = ScaleFunction.from_text("t^2+1")
    ts = parse_timescale("hz:1")
    got = exp_delta(delta_quotient(p), ts, 1.0, 5.0)
    assert got == pytest.approx(p(5.0) / p(1.0), rel=1e-9)


def test_nabla_quotient_is_the_backward_quotient():
    # across the gap nu below tau, and p'/p at nu = 0, with the floor at both points
    p = ScaleFunction.from_text("t^2+1")
    assert nabla_quotient(p)(2.0, 1.0) == (p(2.0) - p(1.0)) / 1.0 / p(2.0)
    assert nabla_quotient(p)(2.0, 0.0) == p.prime(2.0) / p(2.0)
    with pytest.raises(NonvanishingViolation):
        nabla_quotient(ScaleFunction.from_text("t-1"))(2.0, 1.0)


@pytest.mark.parametrize("spec, s, t", [("hz:1", 1.0, 5.0), ("r", 0.5, 3.0), ("union:[0,1];[1.5,2];[3,4]", 0.5, 3.5)])
def test_exp_of_each_quotient_recovers_the_quotient(spec, s, t):
    # jumps as ratios of p, continuous pieces as exp of the integral of p'/p
    p = ScaleFunction.from_text("exp(i*t)+2")
    ts = parse_timescale(spec)
    for exp, quotient in ((exp_delta, delta_quotient), (exp_nabla, nabla_quotient)):
        assert exp(quotient(p), ts, s, t) == pytest.approx(p(t) / p(s), rel=1e-9)
        assert exp(quotient(p), ts, t, s) == pytest.approx(p(s) / p(t), rel=1e-9)


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("text", ["t", "1/t"])
def test_an_exponential_of_a_quotient_over_one_wide_jump_is_the_ratio(k, text):
    # on set:1,10^k the one jump's ratio p(10^k)/p(1) is 10^k or 10^-k; each
    # row takes its factor as that ratio, so both windows are within 1e-14
    # of the exact quotient of the float values of p, with no 1 + mu*c to
    # cancel.  At 10^12 the factor 1e-12 of the row's map, 1 + mu*c = p_sigma/p
    # forward and 1 - nu*c = p/p_sigma backward, trips the guard
    ts = parse_timescale(f"set:1,1e{k}")
    p = ScaleFunction.from_text(text)
    cfg = ToleranceConfig(eps_min=1e-300)
    hi = 10.0**k
    mpc = lambda z: mpmath.mpc(z.real, z.imag)  # noqa: E731
    for exp, quotient, error in ((exp_delta, delta_quotient, NotRegressive), (exp_nabla, nabla_quotient, NotNuRegressive)):
        factor = p(hi) / p(1.0) if exp is exp_delta else p(1.0) / p(hi)
        for s, t in ((1.0, hi), (hi, 1.0)):
            if abs(factor) < 1e-11:
                with pytest.raises(error, match=r"vanishes .* on the gap after tau=1\.0$"):
                    exp(quotient(p, cfg), ts, s, t, cfg)
            else:
                value = exp(quotient(p, cfg), ts, s, t, cfg)
                assert abs(mpc(value) / (mpc(p(t)) / mpc(p(s))) - 1) < 1e-14


def test_exp_coefficient_type_check():
    with pytest.raises(TypeError):
        exp_delta(3.0, parse_timescale("r"), 0.0, 1.0)


# ---------------------------------------------------------------------------
# older constructions
# ---------------------------------------------------------------------------


def test_huff_and_euler_cauchy_on_reals_give_ln():
    ts = parse_timescale("r")
    for t in (2.0, 5.0, 20.0):
        assert legacy_log("huff", None, ts, 1.0, t) == pytest.approx(math.log(t), abs=1e-9)
        assert legacy_log("euler-cauchy", None, ts, 1.0, t) == pytest.approx(
            math.log(t), abs=1e-9
        )


def test_huff_on_unit_grid_direct_sum():
    ts = parse_timescale("hz:1")
    got = legacy_log(LegacyKind.HUFF, None, ts, 1.0, 4.0)
    assert got == pytest.approx(2.0 / 3 + 2.0 / 5 + 2.0 / 7, rel=1e-13)


def test_euler_cauchy_on_unit_grid_direct_sum():
    ts = parse_timescale("hz:1")
    got = legacy_log("euler-cauchy", None, ts, 1.0, 4.0)
    assert got == pytest.approx(1.0 / 3 + 1.0 / 4 + 1.0 / 5, rel=1e-13)


def test_integral_quotient_drops_cylinder_map():
    p = ScaleFunction.from_text("t")
    ts = parse_timescale("hz:1")
    got = legacy_log("integral-quotient", p, ts, 1.0, 4.0)
    assert got == pytest.approx(1.0 + 0.5 + 1.0 / 3, rel=1e-13)
    # differs from the cylinder-mapped logarithm
    assert abs(got - log_delta_principal(p, ts, 1.0, 4.0)) > 0.1


def test_jackson_is_pointwise_and_ignores_t0():
    p = ScaleFunction.from_text("t^2")
    ts = parse_timescale("hz:1")
    a = legacy_log("jackson", p, ts, 1.0, 2.0)
    b = legacy_log("jackson", p, ts, -99.0, 2.0)
    assert a == b == pytest.approx(5.0 / 4.0, rel=1e-13)
    ts = parse_timescale("r")
    assert legacy_log("jackson", p, ts, 0.0, 3.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    # on hz:0.01, 2.98 + 0.01 rounds to 2.9899999999999998, not the stored
    # 2.99; the quotient of t^2+1 across [2.98, 2.99] is exactly
    # 5.97 / 9.8804.  Evaluating p at t + h instead lands 5.9e-15 from it.
    ts = parse_timescale("hz:0.01")
    p = RecordingFunction.from_text("t^2+1")
    got = legacy_log("jackson", p, ts, 0.0, 2.98)
    assert sorted(p.points) == [ts.snap(2.98), ts.sigma(2.98)] == [2.98, 2.99]
    assert got.imag == 0.0
    assert abs(Fraction(got.real) - Fraction(597, 100) / Fraction(98804, 10000)) < Fraction(4, 10**15)


def test_jackson_differs_from_log_derivative_on_grids():
    p = ScaleFunction.from_text("t")
    ts = parse_timescale("hz:1")
    jack = legacy_log("jackson", p, ts, 0.0, 2.0)
    logd = log_delta_derivative(p, ts, 2.0)
    assert abs(jack - logd) > 0.09


def test_mozyrska_anchored_at_one():
    ts = parse_timescale("r")
    for t in (2.0, 7.0):
        assert legacy_log("mozyrska", None, ts, 0.0, t) == pytest.approx(
            math.log(t), abs=1e-9
        )
    ts = parse_timescale("hz:1")
    got = legacy_log("mozyrska", None, ts, 0.0, 5.0)
    assert got == pytest.approx(1.0 + 0.5 + 1.0 / 3 + 0.25, rel=1e-13)


def test_mozyrska_needs_one_in_scale():
    ts = parse_timescale("hz:2")
    with pytest.raises(OneNotInScale):
        legacy_log("mozyrska", None, ts, 0.0, 4.0)


def test_legacy_p_requirements():
    ts = parse_timescale("r")
    with pytest.raises(ValueError):
        legacy_log("integral-quotient", None, ts, 1.0, 2.0)
    with pytest.raises(ValueError):
        legacy_log("jackson", None, ts, 1.0, 2.0)
    with pytest.raises(ValueError):
        legacy_log("not-a-kind", None, ts, 1.0, 2.0)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def test_identity_suite_all_pass_on_unit_grid():
    p = ScaleFunction.from_text("t^2+1")
    q = ScaleFunction.from_text("t+3")
    rows = identity_suite(p, q, parse_timescale("hz:1"), 0.0, 6.0, 2.0)
    assert len(rows) == 11
    assert all(r.passed for r in rows)
    names = [r.identity for r in rows]
    assert names == sorted(names)
    assert "power-rule" in names and "eta-0.25" in names


def test_identity_suite_is_six_walks(monkeypatch):
    # five logs by the theorem (p, q, pq, p/q, p^alpha) and one definition
    # walk, a _Definition of five rows: delta, for the exponential round trip
    # and the eta-0 row, Cayley, which the eta-1/2 and cayley-multi rows
    # reuse, and three more eta rows
    calls = {"walk": 0, "theorem": 0, "definition": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    walk = counting("walk", calculus._walk)
    monkeypatch.setattr(calculus, "_walk", walk)
    monkeypatch.setattr(logexp, "_theorem", counting("theorem", logexp._theorem))
    monkeypatch.setattr(logexp, "_Definition", counting("definition", logexp._Definition))
    p = ScaleFunction.from_text("t^2+1")
    q = ScaleFunction.from_text("t+3")
    ts = parse_timescale("hz:1")
    rows = identity_suite(p, q, ts, 0.0, 6.0, 2.0)
    assert len(rows) == 11
    assert calls == {"walk": 6, "theorem": 5, "definition": 1}
    by_name = {r.identity: r for r in rows}
    assert by_name["eta-0.5"].lhs == by_name["cayley-principal"].lhs
    # the eta-0 row is the delta row, whose bits the eta row's own walk at 0 has
    delta, eta0 = _definitions([("delta-principal", None), ("eta", 0.0)], p, ts, 0.0, 6.0)
    assert by_name["eta-0"].lhs == delta
    assert (delta.real.hex(), delta.imag.hex()) == (eta0.real.hex(), eta0.imag.hex())


@pytest.mark.parametrize(
    "spec, text, hi",
    [("hz:1", "t^2+1", 6.0), ("union:[0,1];[1.5,2];[3,4]", "exp(i*t)+2", 4.0)],
    ids=["hz", "union"],
)
def test_a_reversed_window_negates_the_definition_rows(spec, text, hi):
    # _window takes a window below its start as the forward one times -1.0,
    # row by row, so the identity suite walks a reversed window like any other
    ts = parse_timescale(spec)
    definition = logexp._Definition(
        ScaleFunction.from_text(text), calculus.DEFAULT_TOLERANCES, [(LogVariant(v), eta) for v, eta in _SUITE_ROWS]
    )
    forward = calculus._window(definition, ts, 0.0, [hi])[0]
    backward = calculus._window(definition, ts, hi, [0.0])[0]
    assert len(backward) == len(_SUITE_ROWS)
    assert [_bits(v) for v in backward] == [_bits(-1.0 * v) for v in forward]


def test_identity_suite_evaluates_p_twice_per_jump_for_its_definition(monkeypatch):
    # the definition's rows share one walk, which evaluates p at both ends of
    # each of the 10 jumps once for all rows, not once per row
    p = RecordingFunction.from_text("t^2+1")
    walk = calculus._walk
    evaluations = []

    def counting(sums, *args):
        before = len(p.points)
        marks = walk(sums, *args)
        if not isinstance(sums, logexp._Winding):
            evaluations.append(len(p.points) - before)
        return marks

    monkeypatch.setattr(calculus, "_walk", counting)
    identity_suite(p, ScaleFunction.from_text("t+3"), parse_timescale("hz:1"), 0.0, 10.0, 2.0)
    assert sum(evaluations) == 2 * 10


# the identity suite's definition rows, in the order its walk checks them
_SUITE_ROWS = [("delta-principal", None), ("cayley-principal", None), ("eta", 0.25), ("eta", 0.75), ("eta", 1.0)]


def _check_windows():
    # (spec, p, s, t) of every `check` argv of the CLI stdout pins and of the
    # benchmark's cli_sessions on seeds 1, 7 and 20261017
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    argvs = [pin["argv"] for pin in _PINS]
    argvs += [op["argv"] for seed in (1, 7, 20261017) for op in workloads.cli_sessions(seed)]
    windows = []
    for argv in argvs:
        if argv[0] == "check":
            arg = dict(zip(argv[1::2], argv[2::2]))
            windows.append((arg["--timescale"], arg["--p"], float(arg["--s"]), float(arg["--t"])))
    return windows


def test_definition_rows_from_one_walk_have_the_bits_of_one_walk_each(monkeypatch):
    # the suite's five rows walked at once, with every run of jumps it can
    # take in blocks, against each row walked alone jump by jump; on a
    # window without jumps each row is the same integral, walked once
    cases = []
    for spec, text, lo, hi in (param.values for param in THEOREM_WINDOWS):
        cases += [(spec, text, lo, hi), (spec, text, hi, lo)]
    cases += _check_windows()
    assert len(cases) == 2 * len(THEOREM_WINDOWS) + 17
    alone = []
    for spec, text, s, t in cases:
        ts = parse_timescale(spec)
        p = ScaleFunction.from_text(text)
        lo, hi = sorted((s, t))
        if not _jumps(ts, lo, hi):
            alone.append(5 * [_jump_free_definitions(spec, text, lo, hi, s <= t)[0]])
        else:
            alone.append([_definition(v, p, ts, s, t, eta=eta) for v, eta in _SUITE_ROWS])
    runs = []
    run = logexp._Definition.run
    monkeypatch.setattr(logexp._Definition, "run", lambda self, total, xs: runs.append(xs) or run(self, total, xs))
    monkeypatch.setattr(calculus, "_HANDFUL", 0)
    monkeypatch.setattr(calculus, "_LONG_RUN", 1)
    for (spec, text, s, t), want in zip(cases, alone):
        got = _definitions(_SUITE_ROWS, ScaleFunction.from_text(text), parse_timescale(spec), s, t)
        assert [_bits(v) for v in got] == [_bits(v) for v in want], (spec, text, s, t)
    # a block on every window on a point family
    assert len(runs) >= sum(spec.startswith(("hz:", "q:", "alt:", "set:")) for spec, *_ in cases) > 10


def test_definition_walk_raises_at_its_first_failing_jump():
    # p = 1, -3, 3 on set:0,1,2: (1-eta)p + eta*p_sigma vanishes for eta =
    # 1/4 on the first gap and for Cayley on the second, so the one walk
    # raises the eta row's error at the first gap, where the Cayley row
    # alone would raise at the second
    p = ScaleFunction.from_text("5*t^2-9*t+1")
    ts = parse_timescale("set:0,1,2")
    with pytest.raises(CayleyNotRegressive, match=re.escape("eta=0.5 on the gap after tau=1.0")):
        _definition("cayley-principal", p, ts, 0.0, 2.0)
    with pytest.raises(EtaNotRegressive, match=re.escape("eta=0.25 on the gap after tau=0.0")):
        identity_suite(p, ScaleFunction.from_text("t+3"), ts, 0.0, 2.0, 2.0)


def _old_positivity_samples(ts, lo, hi):
    # the positivity samples read from the window's pieces: the ends, every
    # jump's two points and 9 points across each continuous stretch
    points = {lo, hi}
    for a, b in ts._clipped_pieces(lo, hi):
        if b > a:
            points.update(a + (b - a) * k / 8 for k in range(9))
        points.update((a, b))
    return points


@pytest.mark.parametrize(
    "spec, lo, hi",
    [("hz:1", 0.0, 50.0), ("union:[0,1];[2,3];[3.5,5]", 0.5, 4.25), ("union:[-2,-1];[0,0];[1,2.5]", -2.0, 2.5),
     ("r", -1.0, 3.0), ("q:2", 1.0, 64.0), ("set:0.1,0.7,1.3,2.9", 0.7, 0.7)],
)
def test_positivity_scan_evaluates_each_sample_once(spec, lo, hi):
    # the power rule's positivity scan reads the pieces by index: the same
    # samples as a scan of the decomposition, each evaluated once (a
    # decomposition hands each point inside the window over twice)
    ts = parse_timescale(spec)
    p = RecordingFunction.from_text("t^2+1")
    assert logexp._positive_real_on_window(p, ts, lo, hi)
    assert len(p.points) == len(set(p.points))
    assert set(p.points) == _old_positivity_samples(ts, lo, hi)
    assert p.points == sorted(p.points)
    if spec == "hz:1":
        assert len(p.points) == 51


def test_positivity_scan_stops_at_the_first_failing_point():
    ts = parse_timescale("hz:1")
    p = RecordingFunction.from_text("t-0.5")
    assert not logexp._positive_real_on_window(p, ts, 0.0, 50.0)
    assert p.points == [0.0]
    p = RecordingFunction.from_text("(t-20.5)*(t-30)")
    assert not logexp._positive_real_on_window(p, ts, 0.0, 50.0)
    assert p.points == [float(x) for x in range(22)]


def test_identity_suite_json_shape():
    p = ScaleFunction.from_text("t+10")
    q = ScaleFunction.from_text("t+2")
    rows = identity_suite(p, q, parse_timescale("r"), 1.0, 3.0, 0.5)
    d = rows[0].to_json_dict()
    assert set(d) == {"identity", "lhs", "rhs", "residual", "lattice_k", "pass"}
    assert set(d["lhs"]) == {"re", "im"}
    assert isinstance(d["pass"], bool)


def test_identity_suite_integer_alpha_on_complex_p():
    p = ScaleFunction.from_text("t+3*i")
    q = ScaleFunction.from_text("t+10")
    rows = identity_suite(p, q, parse_timescale("hz:1"), 0.0, 5.0, -2.0)
    assert all(r.passed for r in rows)


def test_identity_suite_rejects_fractional_alpha_on_complex_p():
    p = ScaleFunction.from_text("t+3*i")
    q = ScaleFunction.from_text("t+10")
    with pytest.raises(ValueError):
        identity_suite(p, q, parse_timescale("hz:1"), 0.0, 5.0, 0.5)


def test_identity_suite_fractional_alpha_on_positive_p():
    p = ScaleFunction.from_text("t+10")
    q = ScaleFunction.from_text("t^2+1")
    rows = identity_suite(p, q, parse_timescale("q:2"), 1.0, 16.0, 0.5)
    assert all(r.passed for r in rows)


def test_scaled_residual_definition():
    assert scaled_residual(1e6 + 0j, 1e6 + 1j) == pytest.approx(1e-6)
    assert scaled_residual(0.25 + 0j, 0.5 + 0j) == pytest.approx(0.25)
