import cmath
import functools
import math
import random
import re
from bisect import bisect_left
from fractions import Fraction

import mpmath
import pytest

from chronolog import calculus, logexp, timescale
from chronolog.calculus import ScaleFunction, ToleranceConfig
from chronolog.cylinder import xi, xi_hat
from chronolog.errors import (
    CayleyNotRegressive,
    ChronologError,
    EtaNotRegressive,
    EvalDomain,
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
    assert tols == [1e-2, 1e-4, 1e-6, 1e-7]


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
    """A ScaleFunction that remembers every point it is evaluated at, one
    at a time or in a list."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.points = []

    def __call__(self, t):
        self.points.append(t)
        return super().__call__(t)

    def values(self, xs):
        self.points.extend(xs)
        return super().values(xs)


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


def _definition(variant, p, ts, s, t, cfg=None, eta=None):
    # the cylinder-map walk, which the identity suite checks the theorem against
    cfg = cfg or calculus.DEFAULT_TOLERANCES
    return calculus._window(logexp._kernel(LogVariant(variant), p, cfg, eta), ts, s, t)


def _definition_table(variant, p, ts, base, points, cfg, eta):
    # log_table's two walks from the base, summing the cylinder-map terms
    terms = logexp._kernel(LogVariant(variant), p, cfg, eta)
    n = bisect_left(points, base)
    below = calculus._walk(terms, ts, base, points[:n][::-1], -1.0)
    return below[::-1] + calculus._walk(terms, ts, base, points[n:])


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
    # modulo 2*pi*i; the table's walk down from its top row agrees too
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

# a window of _LONG jumps: walked either way, the walk takes _HANDFUL single
# jumps, one full block and a last block of _HANDFUL jumps, so that its
# gaps 0, H - 1, H, H + B - 1, H + B and _LONG - 1 are the first and last
# jumps and the jumps on either side of each boundary, in both directions
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


def _long_window(spec: str) -> tuple:
    # the scale and the stored points of a window of _LONG jumps on it
    if spec == "set":
        points = _long_set()
        return parse_timescale("set:" + ",".join(map(repr, points))), points[: _LONG + 1]
    ts = parse_timescale(spec)
    points = [ts.snap(1.0 if spec.startswith("q:") else 0.0)]
    while len(points) <= _LONG:
        points.append(ts.sigma(points[-1]))
    return ts, points


# the map row of each variant: its weight eta and its regressivity error
_ROW_ERRORS = {
    "delta-principal": (0.0, "NotRegressive"),
    "nabla-principal": (1.0, "NotNuRegressive"),
    "cayley-multi": (0.5, "CayleyNotRegressive"),
    "eta": (0.3, "EtaNotRegressive"),
}


def _first_failing_gap(points, d, up, into, out_of):
    # the lower end of the first gap, in walk order, that fails among the
    # gap into point d (from below) and the gap out of it (upwards)
    gaps = ([d - 1] if into and d > 0 else []) + ([d] if out_of and d < len(points) - 1 else [])
    return points[(gaps if up else gaps[::-1])[0]] if gaps else None


def _block_walks(variant, eta, p, ts, points, cfg):
    # log_ts over the window both ways (each walks up, the swapped one
    # negated) and log_table from either end: from the bottom it walks up,
    # from the top down; each as (outcome, whether the walk is up, s, t)
    lo, hi = points[0], points[-1]
    yield _outcome(lambda: _rep(log_ts(variant, p, ts, lo, hi, cfg, eta=eta))), True, lo, hi
    yield _outcome(lambda: _rep(log_ts(variant, p, ts, hi, lo, cfg, eta=eta))), True, hi, lo
    yield _outcome(lambda: log_table(variant, p, ts, lo, [lo, hi], cfg, eta=eta)[1]), True, lo, hi
    yield _outcome(lambda: log_table(variant, p, ts, hi, [lo, hi], cfg, eta=eta)[0]), False, hi, lo


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
    # (exponential, coefficient, factor of one jump from tau to sigma): the
    # coefficient listed in one call (delta_quotient, a ScaleFunction) and
    # one called jump by jump, forward and backward
    dq = delta_quotient(p)
    c = ScaleFunction.from_text("0.002*i*t-0.001")
    back = lambda tau, nu: (p(tau) - p(tau - nu)) / nu / p(tau)  # noqa: E731
    mpc = lambda z: mpmath.mpc(z.real, z.imag)  # noqa: E731
    return [
        (exp_delta, dq, lambda tau, sigma: mpc(1 + (sigma - tau) * dq(tau, sigma - tau))),
        (exp_delta, c, lambda tau, sigma: mpc(1 + (sigma - tau) * c(tau))),
        (exp_nabla, dq, lambda tau, sigma: 1 / mpc(1 - (sigma - tau) * dq(sigma, sigma - tau))),
        (exp_nabla, back, lambda tau, sigma: 1 / mpc(1 - (sigma - tau) * back(sigma, sigma - tau))),
    ]


@pytest.mark.parametrize("spec", ["hz:1", "q:1.001", "alt:0.4,0.7", "set"])
def test_exponentials_in_blocks_are_the_product_of_their_factors(monkeypatch, spec):
    # the blocked and the jump-by-jump exponentials, either way over a
    # window of _LONG jumps, against the exact product of the float factors.
    # The blocks are within 1e-13; exp of the single jumps' sum of Logs
    # carries the sum's rounding, a few ulps of the sum of |Log factor|, into
    # its relative error, 6.2e-13 for the second p on hz:1, which winds
    ts, points = _long_window(spec)
    lo, hi = points[0], points[-1]
    functions = [ScaleFunction.from_text(text) for text in ("(t-2-3*i)^3+exp(i*t)", "exp(30*i*t)+0.5")]
    with mpmath.workdps(40):
        cases, want, mass = [], [], []
        for p in functions:
            for exp, coeff, factor in _exp_cases(p):
                factors = [factor(tau, sigma) for tau, sigma in zip(points, points[1:])]
                product = mpmath.fprod(factors)
                cases += [(exp, coeff, lo, hi), (exp, coeff, hi, lo)]
                want += [product, 1 / product]
                mass += 2 * [float(sum(abs(mpmath.log(f)) for f in factors))]
        walks = {}
        for handful in (_H, 10**9):
            monkeypatch.setattr(calculus, "_HANDFUL", handful)
            walks[handful] = [exp(coeff, ts, s, t) for exp, coeff, s, t in cases]
        for handful, values in walks.items():
            for value, exact, logs in zip(values, want, mass):
                tol = 1e-13 if handful == _H else max(1e-13, 8 * 2**-52 * logs)
                assert abs(mpmath.mpc(value.real, value.imag) / exact - 1) < tol
    assert walks[10**9] != walks[_H]  # the blocks were taken


@pytest.mark.parametrize("exp", [exp_delta, exp_nabla])
@pytest.mark.parametrize("big_first", [True, False])
def test_an_exponential_block_out_of_float_range_is_walked_by_single_jumps(monkeypatch, exp, big_first):
    # factors of 10 over the first 300 jumps of hz:1 and of 1/10 over the
    # rest, or the other way round: the block's running product passes
    # 1e280 (or 1e-280), the window's exponential stays finite, and the
    # block is walked again by step, with the bits of single jumps.  The
    # window ends with the block, since the walk takes the jumps after a
    # block in a block of their own
    ts, points = _long_window("hz:1")
    lo, hi = points[0], points[_H + _B]
    big, small = (9.0, -0.9) if exp is exp_delta else (0.9, -9.0)
    if not big_first:
        big, small = small, big
    coeff = lambda x, mu: complex(big if x <= 300.0 else small)  # noqa: E731
    values = {}
    for handful in (_H, 10**9):
        monkeypatch.setattr(calculus, "_HANDFUL", handful)
        values[handful] = [_bits(exp(coeff, ts, s, t)) for s, t in ((lo, hi), (hi, lo))]
    assert values[_H] == values[10**9]
    assert 1e50 < abs(exp(coeff, ts, lo, hi)) ** (1 if big_first else -1) < 1e100


class _SingleCallsFunction(RecordingFunction):
    """A RecordingFunction that also keeps the points it is called at one at a time."""

    def __call__(self, t):
        self.singles.append(t)
        return super().__call__(t)


@pytest.mark.parametrize("listed", ["delta_quotient", "ScaleFunction"])
def test_an_exponential_lists_a_chronolog_coefficient_in_one_call_per_block(listed):
    # over _LONG jumps, the coefficient is called point by point only on
    # the _H single jumps; the two blocks after them (of _B jumps and of the
    # last _H) take their values from values calls
    ts, points = _long_window("hz:1")
    f = _SingleCallsFunction.from_text("t^2+1" if listed == "delta_quotient" else "0.001*i*t")
    f.singles = []
    per_jump = 2 if listed == "delta_quotient" else 1  # p at tau and tau + mu, or c at tau
    exp_delta(delta_quotient(f) if listed == "delta_quotient" else f, ts, points[0], points[-1])
    assert len(f.singles) == per_jump * _H
    assert len(f.points) == per_jump * _LONG


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
def test_a_listed_coefficient_error_across_a_block_boundary_is_the_single_jumps(monkeypatch, spec, defect):
    # delta_quotient(p) with p's defects of the logs' test above, both
    # exponentials and both directions: p below the floor or not finite at
    # a point d next to a boundary gap, or a spike of 1e12 there, whose
    # factor 1e-12 out of d (delta) or into it (nabla) vanishes
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
            coeff = delta_quotient(ScaleFunction.from_text(text), cfg)
            for exp in (exp_delta, exp_nabla):
                for s, t in ((lo, hi), (hi, lo)):
                    got.append(_exp_outcome(lambda: exp(coeff, ts, s, t, cfg)))
    assert _same_outcomes(outcomes[_H], outcomes[10**9])
    assert {kind for kind, _ in outcomes[10**9]} >= {
        "floor": {"NonvanishingViolation"},
        "not-finite": {"NonFiniteValue"},
        "spike": {"NotRegressive"},
    }[defect]


def test_a_block_never_walks_past_a_stop(monkeypatch):
    # should the lookup of a stop's index land 40 jumps past it, the walk
    # still stops there, with the bits of a walk that found it
    ts = parse_timescale("hz:1")
    p = ScaleFunction.from_text("exp(30*i*t)+0.5")

    def walks():
        winding = logexp._theorem(LogVariant.DELTA_PRINCIPAL, p, calculus.DEFAULT_TOLERANCES, None)
        up = calculus._walk(winding, ts, 0.0, [300.0, 600.0])
        down = calculus._walk(winding, ts, 600.0, [300.0, 0.0], -1.0)
        return [_bits(v) for v in up + down]

    want = walks()
    nearest = type(ts)._nearest
    for skew in (40, -40):  # past the stop at 300 going up, then going down
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
            for got, up, s, t in _block_walks(variant, eta, p, ts, points, cfg):
                if defect == "spike":
                    error, tau = row_error, _first_failing_gap(points, d, up, weight > 0, weight < 1)
                else:
                    error = "NonvanishingViolation" if defect == "floor" else "NonFiniteValue"
                    tau = _first_failing_gap(points, d, up, True, True)
                if tau is None:
                    assert got[0] == "value" and _near(got[1], _closed_form(p, ts, s, t)), (d, variant, up, got)
                else:
                    assert got == (error, f"gap after tau={tau}"), (d, variant, up, got)


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
            for got, _, s, t in _block_walks(variant, eta, p, ts, points, cfg):
                if variant == "eta":
                    assert got == ("EtaNotRegressive", "gap after tau=0.0"), (g, got)
                else:
                    assert got[0] == "value" and _near(got[1], _closed_form(p, ts, s, t)), (g, got)


def test_a_jump_ratio_that_is_not_finite_across_a_block_boundary_names_its_gap():
    # p is 1.2e308*(1+i) at the two ends of gap g and 1 elsewhere: the
    # ratio of the two equal values is nan (the complex division
    # overflows), the ratio from 1 up to them finite and regressive for
    # the delta row, and the ratio back down to 1 is 0, where xi's guard
    # trips; a walk up meets gap g first, a walk down the gap above it
    ts = parse_timescale("hz:1")
    for g in _BOUNDARY_GAPS:
        points = [float(k) for k in range(_LONG + 1)]
        bumps = "+".join(f"1.2e308*(1+i)*exp(-1e4*(t-{x!r})^2)" for x in (points[g], points[g + 1]))
        p = ScaleFunction.from_text(f"1+{bumps}")
        up = ("NonFiniteIntegrand", f"gap after tau={points[g]}")
        down = ("NotRegressive", f"gap after tau={points[g + 1]}") if g + 1 < _LONG else up
        lo, hi = points[0], points[-1]
        assert _outcome(lambda: log_ts("delta-principal", p, ts, lo, hi)) == up
        assert _outcome(lambda: log_ts("delta-principal", p, ts, hi, lo)) == up
        assert _outcome(lambda: log_table("delta-principal", p, ts, hi, [lo, hi])) == down


@pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
def test_a_failing_block_is_walked_again_once(up):
    # a defect in the middle of the first block: the block evaluates p at
    # its points once, and its jumps up to the defect are walked once more
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


@pytest.mark.parametrize(
    "spec, k0, k1",
    [
        # the first jump from 1.0 rounds onto it
        ("hz:1e-17:1.0", 0, 22),
        # h = 1.5e-16 is more than the float spacing below |x| = 1 and less
        # than the one above it: the points collapse past 1.0 going up, a
        # block's length from the anchor, and past -1.0 going down
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
    # walks stop at the first point equal to the stop, so a window may end
    # before its last index, and a collapse after it goes unseen
    up_end = points.index(hi)
    down_end = len(points) - 1 - points[::-1].index(lo)
    up = [k for k in range(up_end) if not points[k] < points[k + 1]]
    down = [k for k in range(down_end, len(points) - 1) if not points[k] < points[k + 1]]
    assert up and down
    p = ScaleFunction.from_text("t")
    want_up = ("PointNotInScale", f"the neighbour of {points[up[0]]!r} is not a distinct finite float")
    want_down = ("PointNotInScale", f"the neighbour of {points[down[-1]]!r} is not a distinct finite float")
    for compute, want in (
        (lambda: log_ts("delta-principal", p, ts, lo, hi), want_up),
        (lambda: log_ts("cayley-principal", p, ts, hi, lo), want_up),
        (lambda: log_table("delta-principal", p, ts, lo, [lo, hi]), want_up),
        (lambda: log_table("nabla-principal", p, ts, hi, [lo, hi]), want_down),
        (lambda: exp_delta(p, ts, lo, hi), want_up),
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


@pytest.mark.parametrize("base", [0.0, 12.0])
def test_log_table_caps_the_whole_walk_before_any_term(monkeypatch, base):
    # every stretch between rows jumps one gap, but each walk spans 12 > 10
    monkeypatch.setattr(timescale, "MAX_WINDOW_JUMPS", 10)
    evals = []
    monkeypatch.setattr(ScaleFunction, "__call__", lambda self, t: evals.append(t))
    monkeypatch.setattr(ScaleFunction, "prime", lambda self, t: evals.append(t))
    monkeypatch.setattr(ScaleFunction, "pair", lambda self, t: evals.append(t))
    monkeypatch.setattr(ScaleFunction, "values", lambda self, xs: evals.extend(xs))
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
    "text, quotient_error, dense_error",
    [
        # where p and p' both fail, the quotient reports p and the log's
        # integrand reports p' (it evaluates p' first)
        ("log(t)", (EvalDomain, "log of zero"), (EvalDomain, "division by zero at t=0j on the piece")),
        (
            "1e-12+0*sqrt(t)",
            (NonvanishingViolation, "< eps_min at tau=0.0"),
            (EvalDomain, "division by zero at t=0j on the piece"),
        ),
    ],
)
def test_p_and_its_derivative_failing_together_keep_their_order(text, quotient_error, dense_error):
    p = ScaleFunction.from_text(text)
    r = parse_timescale("r")
    error, message = quotient_error
    with pytest.raises(error, match=re.escape(message)):
        delta_quotient(p)(0.0, 0.0)
    with pytest.raises(error, match=re.escape(message)):
        legacy_log("jackson", p, r, 0.0, 0.0)
    error, message = dense_error
    with pytest.raises(error, match=re.escape(message)):
        log_delta_principal(p, r, 0.0, 1.0)


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


def test_identity_suite_is_eleven_walks(monkeypatch):
    # five logs by the theorem (p, q, pq, p/q, p^alpha) and six definition
    # walks, all of them _kernel: the delta row for the exponential round
    # trip, Cayley, which the eta-1/2 and cayley-multi rows reuse, and four
    # more eta rows
    calls = {"walk": 0, "theorem": 0, "definition": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(calculus, "_walk", counting("walk", calculus._walk))
    monkeypatch.setattr(logexp, "_theorem", counting("theorem", logexp._theorem))
    monkeypatch.setattr(logexp, "_kernel", counting("definition", logexp._kernel))
    p = ScaleFunction.from_text("t^2+1")
    q = ScaleFunction.from_text("t+3")
    rows = identity_suite(p, q, parse_timescale("hz:1"), 0.0, 6.0, 2.0)
    assert len(rows) == 11
    assert calls == {"walk": 11, "theorem": 5, "definition": 6}
    by_name = {r.identity: r for r in rows}
    assert by_name["eta-0.5"].lhs == by_name["cayley-principal"].lhs


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
