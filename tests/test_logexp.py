import cmath
import math

import pytest

from chronolog import calculus, timescale
from chronolog.calculus import ScaleFunction, ToleranceConfig
from chronolog.cylinder import xi, xi_hat
from chronolog.errors import (
    CayleyNotRegressive,
    EtaNotRegressive,
    NonvanishingViolation,
    NotNuRegressive,
    NotRegressive,
    OneNotInScale,
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
from chronolog.timescale import ContinuousPiece, parse_timescale


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


def test_dense_log_samples_grow_about_linearly_with_the_window(monkeypatch):
    # the tolerance is per piece, not halved per bisection: quadrupling the
    # window costs at most about 4.5 times the samples
    quad = calculus.adaptive_simpson
    counts = []

    def counting(f, *args):
        def sample(x):
            counts[-1] += 1
            return f(x)

        return quad(sample, *args)

    monkeypatch.setattr(calculus, "adaptive_simpson", counting)
    p = ScaleFunction.from_text("2+sin(t)")
    for t in (500.0, 2000.0):
        counts.append(0)
        got = log_delta_principal(p, parse_timescale("r"), 0.5, t)
        assert got == pytest.approx(_closed_form(p, None, 0.5, t), abs=1e-9)
    assert 0 < counts[1] <= 4.5 * counts[0]


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
    [("set:0.1,0.7,1.3,2.9", 0.1, 2.9), ("alt:0.3,0.7", 0.0, 5.0), ("hz:0.3:0.05", 0.05, 2.75)],
)
@pytest.mark.parametrize("variant", [v.value for v in LogVariant])
def test_jumps_evaluate_p_only_at_scale_points(variant, spec, s, t):
    ts = parse_timescale(spec)
    p = RecordingFunction.from_text("t^2+1")
    log_ts(variant, p, ts, s, t, eta=0.3)
    assert p.points
    for x in p.points:
        assert ts.snap(x) == x


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
    # the rows split continuous pieces, so they agree with the per-row walk
    # to quadrature accuracy rather than bit for bit
    cfg = ToleranceConfig()
    ts = parse_timescale(spec)
    points = [u for u in (0.25 * k for k in range(17)) if ts.contains(u)]
    for text in TABLE_FUNCTIONS:
        p = ScaleFunction.from_text(text)
        rows = log_table(variant, p, ts, 0.0, points, cfg, eta=eta)
        for u, row in zip(points, rows):
            assert scaled_residual(row, _rep(log_ts(variant, p, ts, 0.0, u, cfg, eta=eta))) <= cfg.cmp_tol
            _, res = lattice_gap(row, _closed_form(p, ts, 0.0, u))
            assert res <= cfg.cmp_tol


@pytest.mark.parametrize("base", [0.0, 12.0])
def test_log_table_caps_the_whole_walk_before_any_term(monkeypatch, base):
    # every stretch between rows jumps one gap, but each walk spans 12 > 10
    monkeypatch.setattr(timescale, "MAX_WINDOW_JUMPS", 10)
    evals = []
    monkeypatch.setattr(ScaleFunction, "__call__", lambda self, t: evals.append(t))
    monkeypatch.setattr(ScaleFunction, "prime", lambda self, t: evals.append(t))
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
     ("union:[0,1];[2,3]", 0.5, 3.0), ("r", 0.5, 3.0)],
)
@pytest.mark.parametrize("forward_window", [True, False])
def test_exponentials_read_the_delta_and_nabla_rows(spec, lo, hi, forward_window):
    # a jump term is the row's cylinder map of the coefficient: at tau for
    # delta, at sigma(tau) for nabla; continuous stretches integrate c itself
    ts = parse_timescale(spec)
    s, t = (lo, hi) if forward_window else (hi, lo)
    c = ScaleFunction.from_text("0.3+0.2*i*t")
    sign = 1.0 if s <= t else -1.0
    forward = backward = 0j
    for seg in ts.decompose(lo, hi):
        if isinstance(seg, ContinuousPiece):
            dense = (0.3 * (seg.b - seg.a)) + 0.1j * (seg.b**2 - seg.a**2)
            forward += dense
            backward += dense
        else:
            forward += seg.mu * xi(seg.mu, c(seg.tau))
            backward += seg.mu * xi_hat(seg.mu, c(seg.tau + seg.mu))
    assert exp_delta(c, ts, s, t) == pytest.approx(cmath.exp(sign * forward), rel=1e-12)
    assert exp_nabla(c, ts, s, t) == pytest.approx(cmath.exp(sign * backward), rel=1e-12)


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
    # the eta-1/2 row reuses the Cayley walk, and cayley-multi reuses it too
    walks = 0
    walk = calculus._walk

    def counting(*args, **kwargs):
        nonlocal walks
        walks += 1
        return walk(*args, **kwargs)

    monkeypatch.setattr(calculus, "_walk", counting)
    p = ScaleFunction.from_text("t^2+1")
    q = ScaleFunction.from_text("t+3")
    rows = identity_suite(p, q, parse_timescale("hz:1"), 0.0, 6.0, 2.0)
    assert len(rows) == 11
    assert walks == 11
    by_name = {r.identity: r for r in rows}
    assert by_name["eta-0.5"].lhs == by_name["cayley-principal"].lhs


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
