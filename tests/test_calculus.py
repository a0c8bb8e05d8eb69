import cmath
import math

import pytest

from chronolog import timescale
from chronolog.calculus import (
    DEFAULT_TOLERANCES,
    ScaleFunction,
    ToleranceConfig,
    adaptive_simpson,
    delta_derivative,
    delta_integral,
    nabla_derivative,
    nabla_integral,
)
from chronolog.errors import (
    ChronologError,
    EvalDomain,
    KappaBoundary,
    NonFiniteIntegrand,
    NonFiniteValue,
    QuadratureFailure,
    ValidationError,
)
from chronolog.timescale import (
    DiscreteSet,
    IntervalUnion,
    Reals,
    UniformGrid,
    parse_timescale,
)

QUAD_TOL = DEFAULT_TOLERANCES.quad_tol

# (integrand on tau, antiderivative, window) pairs on the real line
CLOSED_FORMS = [
    (lambda x: x * x, lambda x: x ** 3 / 3.0, (0.0, 2.0)),
    (lambda x: math.cos(x), lambda x: math.sin(x), (0.0, math.pi)),
    (lambda x: math.exp(-x), lambda x: -math.exp(-x), (0.0, 5.0)),
    (lambda x: 1.0 / x, lambda x: math.log(x), (1.0, 7.0)),
    (lambda x: x ** 5 - 3 * x, lambda x: x ** 6 / 6.0 - 1.5 * x * x, (-1.0, 2.0)),
    (lambda x: math.sin(3 * x), lambda x: -math.cos(3 * x) / 3.0, (0.5, 4.0)),
    (lambda x: 1.0 / (1.0 + x * x), lambda x: math.atan(x), (-3.0, 3.0)),
    (lambda x: math.sqrt(x), lambda x: x ** 1.5 / 1.5, (0.25, 9.0)),
    (lambda x: math.cosh(x), lambda x: math.sinh(x), (-2.0, 1.0)),
    (lambda x: x * math.exp(x), lambda x: (x - 1.0) * math.exp(x), (0.0, 3.0)),
]


# ---------------------------------------------------------------------------
# quadrature core
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", range(len(CLOSED_FORMS)))
def test_adaptive_simpson_closed_forms(case):
    f, F, (a, b) = CLOSED_FORMS[case]
    got = adaptive_simpson(lambda x: complex(f(x)), a, b)
    assert got == pytest.approx(F(b) - F(a), abs=10 * QUAD_TOL, rel=1e-9)


def test_adaptive_simpson_complex_integrand():
    got = adaptive_simpson(lambda x: cmath.exp(1j * x), 0.0, math.pi)
    assert got == pytest.approx(2j, abs=1e-9)


def test_adaptive_simpson_empty_and_reversed():
    assert adaptive_simpson(lambda x: 1.0 + 0j, 2.0, 2.0) == 0j
    fwd = adaptive_simpson(lambda x: complex(x * x), 0.0, 1.0)
    rev = adaptive_simpson(lambda x: complex(x * x), 1.0, 0.0)
    assert rev == -fwd


def test_adaptive_simpson_sample_budget(monkeypatch):
    # 32 samples place the ends and the first two panels; each bisection
    # takes 30 more, so a budget of 100 allows two and refuses the third
    seen = []

    def f(x):
        seen.append(x)
        return cmath.exp(40j * x)

    monkeypatch.setattr(timescale, "MAX_QUAD_SAMPLES", 100)
    with pytest.raises(QuadratureFailure, match=r"above tol 1e-10 after 92 samples$"):
        adaptive_simpson(f, 0.0, 1.0)
    assert len(seen) == 92
    monkeypatch.setattr(timescale, "MAX_QUAD_SAMPLES", 10_000)
    got = adaptive_simpson(f, 0.0, 1.0)
    assert got == pytest.approx((cmath.exp(40j) - 1.0) / 40j, abs=1e-12)


def test_adaptive_simpson_panel_too_narrow():
    # a non-integrable spike at a power of two: bisection reaches a panel
    # one float wide whose nodes round onto two different floats
    f = lambda x: complex(1.0 / abs(x - 0.5)) if x != 0.5 else 0j
    with pytest.raises(QuadratureFailure, match=r"on a panel at tau=0\.5 too narrow to bisect$"):
        adaptive_simpson(f, 0.0, 1.0)


def test_adaptive_simpson_nonfinite_sample():
    with pytest.raises(NonFiniteIntegrand):
        adaptive_simpson(lambda x: complex(float("nan")), 0.0, 1.0)
    with pytest.raises(NonFiniteIntegrand):
        adaptive_simpson(lambda x: 1.0 / (x - 0.5) + 0j if x != 0.5 else complex(float("inf")), 0.0, 1.0)


# ---------------------------------------------------------------------------
# scale integrals
# ---------------------------------------------------------------------------


def test_reals_integral_matches_quadrature():
    ts = Reals()
    got = delta_integral(lambda x, mu: complex(math.cos(x)), ts, 0.0, math.pi / 2)
    assert got == pytest.approx(1.0, abs=1e-9)
    assert nabla_integral(lambda x, mu: complex(math.cos(x)), ts, 0.0, math.pi / 2) == pytest.approx(
        1.0, abs=1e-9
    )


def test_uniform_grid_integral_is_left_sum():
    ts = UniformGrid(1.0)
    # delta integral over [0, 5) samples tau = 0..4
    got = delta_integral(lambda x, mu: complex(x * x), ts, 0.0, 5.0)
    want = sum(k * k for k in range(5))
    assert got == pytest.approx(want, rel=1e-13)


def test_uniform_grid_nabla_integral_is_right_sum():
    ts = UniformGrid(1.0)
    got = nabla_integral(lambda x, mu: complex(x * x), ts, 0.0, 5.0)
    want = sum(k * k for k in range(1, 6))
    assert got == pytest.approx(want, rel=1e-13)


def test_half_grid_integral_scales_by_h():
    ts = UniformGrid(0.5)
    got = delta_integral(lambda x, mu: complex(x), ts, 1.0, 3.0)
    want = 0.5 * sum(1.0 + 0.5 * k for k in range(4))
    assert got == pytest.approx(want, rel=1e-13)


def test_qgrid_integral_exact_sum():
    ts = parse_timescale("q:2")
    # points 1, 2, 4, 8; mu(t) = t
    got = delta_integral(lambda x, mu: complex(1.0 / x), ts, 1.0, 8.0)
    assert got == pytest.approx(3.0, rel=1e-13)  # each term mu/tau = 1
    got = nabla_integral(lambda x, mu: complex(1.0 / x), ts, 1.0, 8.0)
    want = 1.0 / 2 + 2.0 / 4 + 4.0 / 8
    assert got == pytest.approx(want, rel=1e-13)


def test_union_integral_mixes_pieces_and_jump():
    ts = IntervalUnion(((-6.0, -4.0), (2.0, 5.0)))
    got = delta_integral(lambda x, mu: complex(3.0 / x), ts, -5.0, 3.0)
    want = 3.0 * math.log(4.0 / 5.0) + 6.0 * (3.0 / -4.0) + 3.0 * math.log(3.0 / 2.0)
    assert got == pytest.approx(want, abs=1e-9)


def test_union_nabla_integral_samples_upper_end_of_gap():
    ts = IntervalUnion(((-6.0, -4.0), (2.0, 5.0)))
    got = nabla_integral(lambda x, mu: complex(3.0 / x), ts, -5.0, 3.0)
    want = 3.0 * math.log(4.0 / 5.0) + 6.0 * (3.0 / 2.0) + 3.0 * math.log(3.0 / 2.0)
    assert got == pytest.approx(want, abs=1e-9)


def test_integral_antisymmetry_is_exact():
    ts = parse_timescale("union:[-6,-4];[2,5]")
    f = lambda x, mu: complex(math.sin(x) + 2.0)
    fwd = delta_integral(f, ts, -5.0, 4.0)
    rev = delta_integral(f, ts, 4.0, -5.0)
    assert rev == -fwd


def test_integral_additivity_over_interior_point():
    ts = parse_timescale("union:[-6,-4];[2,5]")
    f = lambda x, mu: complex(x * x * 0.1 + math.cos(x))
    whole = delta_integral(f, ts, -5.5, 4.5)
    split = delta_integral(f, ts, -5.5, 2.5) + delta_integral(f, ts, 2.5, 4.5)
    assert whole == pytest.approx(split, abs=1e-9)


def test_integral_linearity():
    ts = parse_timescale("hz:0.5")
    f = lambda x, mu: complex(x)
    g = lambda x, mu: complex(math.sin(x))
    combo = delta_integral(lambda x, mu: 2.0 * f(x, mu) + 3.0 * g(x, mu), ts, 0.0, 4.0)
    parts = 2.0 * delta_integral(f, ts, 0.0, 4.0) + 3.0 * delta_integral(g, ts, 0.0, 4.0)
    assert combo == pytest.approx(parts, abs=1e-12)


def test_integrand_sees_graininess():
    seen = []

    def f(tau, mu):
        seen.append((tau, mu))
        return 1.0 + 0j

    ts = parse_timescale("union:[-6,-4];[2,5]")
    delta_integral(f, ts, -5.0, 3.0)
    mus = {mu for _, mu in seen}
    assert 0.0 in mus  # continuous samples
    assert 6.0 in mus  # the gap
    jump_taus = [tau for tau, mu in seen if mu == 6.0]
    assert jump_taus == [-4.0]


def test_nabla_integrand_sampled_at_upper_point():
    seen = []

    def f(tau, mu):
        seen.append((tau, mu))
        return 1.0 + 0j

    ts = parse_timescale("union:[-6,-4];[2,5]")
    nabla_integral(f, ts, -5.0, 3.0)
    jump_taus = [tau for tau, mu in seen if mu == 6.0]
    assert jump_taus == [2.0]

    # the upper point is the stored successor, also where tau + nu rounds
    # off it (-0.25 + 0.30000000000000004 is 0.04999999999999999, not 0.05)
    seen.clear()
    ts = parse_timescale("hz:0.3:0.05")
    s, t = ts.snap(-3.25), ts.snap(3.35)
    nabla_integral(f, ts, s, t)
    taus = [tau for tau, _ in seen]
    assert taus == [a for a, _ in ts._clipped_pieces(s, t)][1:]
    assert all(ts.snap(tau) == tau for tau in taus) and 0.05 in taus


def test_integral_nonfinite_jump_value():
    ts = UniformGrid(1.0)
    with pytest.raises(NonFiniteIntegrand):
        delta_integral(lambda x, mu: complex(float("inf")), ts, 0.0, 3.0)


def test_integral_tolerance_config_respected():
    # a Lorentzian spike of height 1e6 at x = 1/3, finite at every node
    ts = Reals()
    spiky = lambda x, mu: complex(1.0 / (1e-6 + (x - 1.0 / 3.0) ** 2))
    want = 1e3 * (math.atan((2.0 / 3.0) / 1e-3) + math.atan((1.0 / 3.0) / 1e-3))
    loose = ToleranceConfig(quad_tol=1e-3)
    assert delta_integral(spiky, ts, 0.0, 1.0, loose) == pytest.approx(want, abs=1e-3)
    with pytest.raises(QuadratureFailure, match=r"above tol 1e-300 after \d+ samples on the piece \[0\.0, 1\.0\]$"):
        delta_integral(spiky, ts, 0.0, 1.0, ToleranceConfig(quad_tol=1e-300))


def test_union_integral_against_dense_trapezoid():
    # independent oracle: brute-force trapezoid on each continuous piece
    np = pytest.importorskip("numpy")

    def f(x):
        return 3 * x ** 2 / (x ** 3 + 250.0) + np.cos(x) / (np.sin(x) + 3.0)

    ts = IntervalUnion(((-6.0, -4.0), (2.0, 5.0)))
    got = delta_integral(lambda x, mu: complex(f(x)), ts, -6.0, 5.0)
    xs1 = np.linspace(-6.0, -4.0, 500_001)
    xs2 = np.linspace(2.0, 5.0, 500_001)
    want = np.trapezoid(f(xs1), xs1) + 6.0 * f(-4.0) + np.trapezoid(f(xs2), xs2)
    assert got == pytest.approx(want, abs=1e-7)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_delta_derivative_square_on_grid():
    p = ScaleFunction.from_text("t^2")
    for h in (0.5, 1.0, 2.0):
        ts = UniformGrid(h)
        for t in (0.0, h, 3 * h):
            assert delta_derivative(p, ts, t) == 2 * t + h


def test_nabla_derivative_square_on_grid():
    p = ScaleFunction.from_text("t^2")
    ts = UniformGrid(1.0)
    assert nabla_derivative(p, ts, 3.0) == 5.0  # 2t - h


def test_derivatives_dense_fall_back_to_classical():
    p = ScaleFunction.from_text("sin(t)")
    ts = Reals()
    assert delta_derivative(p, ts, 1.2) == pytest.approx(math.cos(1.2), rel=1e-12)
    assert nabla_derivative(p, ts, 1.2) == pytest.approx(math.cos(1.2), rel=1e-12)


def test_derivative_at_union_gap():
    p = ScaleFunction.from_text("t^2")
    ts = parse_timescale("union:[-6,-4];[2,5]")
    # forward quotient over the gap: (4 - 16)/6
    assert delta_derivative(p, ts, -4.0) == pytest.approx(-2.0, rel=1e-12)
    assert nabla_derivative(p, ts, 2.0) == pytest.approx(-2.0, rel=1e-12)
    # dense sides keep the classical value
    assert delta_derivative(p, ts, 2.0) == pytest.approx(4.0, rel=1e-12)
    assert nabla_derivative(p, ts, -4.0) == pytest.approx(-8.0, rel=1e-12)


def test_derivative_kappa_boundaries():
    p = ScaleFunction.from_text("t")
    ts = DiscreteSet((0.0, 1.0, 2.0))
    with pytest.raises(KappaBoundary):
        delta_derivative(p, ts, 2.0)
    with pytest.raises(KappaBoundary):
        nabla_derivative(p, ts, 0.0)
    assert delta_derivative(p, ts, 1.0) == 1.0
    assert nabla_derivative(p, ts, 1.0) == 1.0


# ---------------------------------------------------------------------------
# ScaleFunction plumbing
# ---------------------------------------------------------------------------


def test_scale_function_evaluates_and_differentiates():
    p = ScaleFunction.from_text("t^3+2*t")
    assert p(2.0) == 12.0 + 0j
    assert p.prime(2.0) == 14.0 + 0j
    assert p.label == "t^3+2*t"


def test_scale_function_composition_operators():
    f = ScaleFunction.from_text("t+1")
    g = ScaleFunction.from_text("t+2")
    assert (f * g)(3.0) == 20.0 + 0j
    assert (f / g)(2.0) == pytest.approx(0.75 + 0j)
    assert f.pow(3.0)(1.0) == 8.0 + 0j
    assert (f * g).prime(3.0) == 9.0 + 0j  # (t+1)(t+2) -> 2t + 3


def test_scale_function_nonfinite_value_raises():
    p = ScaleFunction.from_text("exp(t)")
    with pytest.raises(NonFiniteValue):
        p(1e6)


def _listed(f):
    # a list by the bits of each value, an error by class and message
    try:
        return [(v.real.hex(), v.imag.hex()) for v in f()]
    except ChronologError as e:
        return type(e), str(e)


@pytest.mark.parametrize(
    "text, xs, error",
    [
        ("(t-1-2*i)^3+sin(t)/t", [0.1 * k - 2.05 for k in range(41)], None),
        ("exp(i*t)+0.5", [2.5**k for k in range(60)], None),
        ("-0.0*t", [0.0, -0.0, 1.0, -1.0], None),  # the sign of each zero
        ("3+0*t", [1.0, 2.0], None),
        ("t", [], None),
        # the first bad point raises, as it would in the list comprehension
        ("1/(t-3)", [float(k) for k in range(-2, 7)], EvalDomain),
        ("1/(t-3)", [3.0, 4.0], EvalDomain),
        ("exp(t)", [700.0, 709.0, 709.5, 710.0, 800.0], NonFiniteValue),
        ("exp(t)+1/(t-710)", [709.0, 710.0, 711.0], NonFiniteValue),
        ("1/(t-710)+exp(t)", [709.0, 710.0, 711.0], EvalDomain),
        ("log(t)", [1.0, 0.5, 0.0, -1.0], EvalDomain),
        # an infinite value that no operation raises for, before a point that raises
        ("1e300*t^2", [1.0, 1e10, 2.0], NonFiniteValue),
        ("1e300*t^2+1/(t-3)", [1.0, 1e10, 3.0], NonFiniteValue),
        ("1e300*t^2+1/(t-3)", [1.0, 3.0, 1e10], EvalDomain),
    ],
)
def test_scale_function_values_is_the_list_of_its_values(text, xs, error):
    p = ScaleFunction.from_text(text)
    want = _listed(lambda: [p(x) for x in xs])
    assert _listed(lambda: p.values(xs)) == want
    assert _listed(lambda: p.values(tuple(xs))) == want
    assert want[0] is error if error else len(want) == len(xs)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(quad_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(eps_min=-1.0)
    with pytest.raises(ValueError):
        ToleranceConfig(cmp_tol=0.0)
    # an infinite tolerance would accept any estimate or pass any row
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="positive and finite"):
            ToleranceConfig(quad_tol=bad)
        with pytest.raises(ValidationError, match="positive and finite"):
            ToleranceConfig(eps_min=bad)
        with pytest.raises(ValidationError, match="positive and finite"):
            ToleranceConfig(cmp_tol=bad)
    cfg = ToleranceConfig(quad_tol=1e-8)
    assert cfg.quad_tol == 1e-8 and cfg.cmp_tol == 1e-8
