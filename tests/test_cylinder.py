import cmath
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chronolog.errors import (
    CayleyNotRegressive,
    EtaNotRegressive,
    NonFiniteValue,
    NotNuRegressive,
    NotRegressive,
)
from chronolog import cylinder
from chronolog.cylinder import (
    REGRESSIVITY_GUARD,
    cayley_psi,
    circle_dot,
    circle_minus,
    circle_plus,
    eta_psi,
    is_cayley_regressive,
    is_nu_regressive,
    is_regressive,
    xi,
    xi_hat,
    zeta,
    zeta_hat,
)
from chronolog.multivalue import TWO_PI_I, lattice_gap

steps = st.floats(min_value=0.01, max_value=10.0)
coeffs = st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False)


def _safe(h, z):
    return is_regressive(h, z) and abs(1 + h * z) > 1e-6


# ---------------------------------------------------------------------------
# degenerate step and worked values
# ---------------------------------------------------------------------------


def test_h_zero_all_maps_are_identity():
    z = 0.7 - 0.3j
    assert xi(0.0, z) == z
    assert xi_hat(0.0, z) == z
    assert cayley_psi(0.0, z) == z
    assert eta_psi(0.3, 0.0, z) == z
    m = zeta(0.0, z)
    assert m.rep == z and m.period == 0j
    assert circle_plus(0.0, z, 2j) == z + 2j
    assert circle_dot(0.0, 3.0, z) == 3 * z


def test_xi_at_zero_coefficient():
    assert xi(2.0, 0j) == 0j
    assert xi_hat(2.0, 0j) == 0j
    assert cayley_psi(2.0, 0j) == 0j


def test_xi_negative_one_eighth_case():
    # 1 + 6*(-12/64) = -1/8, so the map returns (ln(1/8) + i*pi)/6
    val = xi(6.0, -12.0 / 64.0)
    want = complex(-math.log(8.0), math.pi) / 6.0
    assert val == pytest.approx(want, rel=1e-15)


def test_zeta_period_scales_with_step():
    m = zeta(2.0, 0j)
    assert m.rep == 0j
    assert m.period == pytest.approx(complex(0.0, math.pi))
    m = zeta(6.0, -12.0 / 64.0)
    assert m.period == pytest.approx(complex(0.0, math.pi / 3.0))
    assert zeta_hat(2.0, 0j).period == pytest.approx(complex(0.0, math.pi))


def test_xi_imag_stays_in_strip():
    h = 0.5
    for z in (1 + 5j, -3 - 7j, 2 - 0.01j, -3.9 + 0j):
        v = xi(h, z)
        assert abs(v.imag) <= math.pi / h + 1e-15


def test_forward_backward_symmetry():
    # the backward map at z equals the forward map at -z, negated
    for h in (0.25, 1.0, 3.0):
        for z in (0.3 + 0.4j, -1.2 + 0.1j, 2j):
            assert xi_hat(h, z) == pytest.approx(-xi(h, -z), rel=1e-14)


# ---------------------------------------------------------------------------
# regressivity guards
# ---------------------------------------------------------------------------


def test_regressivity_predicates():
    assert is_regressive(1.0, 1j)
    assert not is_regressive(1.0, -1.0 + 0j)
    assert not is_nu_regressive(2.0, 0.5 + 0j)
    assert is_nu_regressive(2.0, -0.5 + 0j)
    assert not is_cayley_regressive(1.0, 2.0 + 0j)
    assert not is_cayley_regressive(1.0, -2.0 + 0j)
    assert is_cayley_regressive(1.0, 1.99 + 0j)


def test_guard_is_relative_to_magnitude():
    # |1 + h*z| = w against a guard of 1e-12 * (1 + |h*z|), about 2e-12
    # whatever the step: w = 1e-13 falls inside it and 1e-11 outside
    for h in (1e6, 1.0, 1e-6):
        assert not is_regressive(h, complex(-(1.0 - 1e-13) / h, 0.0))
        assert is_regressive(h, complex(-(1.0 - 1e-11) / h, 0.0))
    # and a clean miss passes
    assert is_regressive(1.0, complex(-1.0 + 1e-3, 0.0))


def test_non_regressive_raises():
    with pytest.raises(NotRegressive):
        xi(1.0, -1.0 + 0j)
    with pytest.raises(NotRegressive):
        zeta(0.5, -2.0 + 0j)
    with pytest.raises(NotNuRegressive):
        xi_hat(1.0, 1.0 + 0j)
    with pytest.raises(NotNuRegressive):
        zeta_hat(4.0, 0.25 + 0j)
    with pytest.raises(CayleyNotRegressive):
        cayley_psi(1.0, -2.0 + 0j)
    with pytest.raises(CayleyNotRegressive):
        cayley_psi(0.5, 4.0 + 0j)
    with pytest.raises(EtaNotRegressive):
        eta_psi(1.0, 1.0, 1.0 + 0j)
    with pytest.raises(EtaNotRegressive):
        eta_psi(0.25, 2.0, -1.0 / 1.5 + 0j)
    with pytest.raises(NotRegressive):
        circle_minus(1.0, 5j, -1.0 + 0j)
    with pytest.raises(NotRegressive):
        circle_dot(1.0, 2.0, -1.0 + 0j)


# (map, its predicate, its error): the map raises its error exactly where the
# predicate is false, since both apply the one guard
_GUARDED = {
    "xi": (xi, is_regressive, NotRegressive),
    "xi_hat": (xi_hat, is_nu_regressive, NotNuRegressive),
    "cayley_psi": (cayley_psi, is_cayley_regressive, CayleyNotRegressive),
    "eta_psi-0": (lambda h, z: eta_psi(0.0, h, z), is_regressive, EtaNotRegressive),
    "eta_psi-1": (lambda h, z: eta_psi(1.0, h, z), is_nu_regressive, EtaNotRegressive),
    "eta_psi-0.5": (lambda h, z: eta_psi(0.5, h, z), is_cayley_regressive, EtaNotRegressive),
}


def _near_factor_zeros():
    # z on either side of the guard of each factor's zero: the factor is
    # hz*d (relative) or h*d (absolute) away from 0, against a bound of
    # about 1e-12 * (1 + |hz|)
    out = []
    for h in (1e-8, 0.5, 1.0, 3.0, 1e8):
        for hz0 in (-1.0, 1.0, -2.0, 2.0):
            z0 = hz0 / h
            for d in (1e-13, 9e-13, 1.9e-12, 2.1e-12, 5.9e-12, 6.1e-12, 1e-11, 1e-9):
                for turn in (1, -1, 1j, -1j):
                    out.append((h, z0 * (1 + d * turn)))
                    out.append((h, z0 + d * turn / h))
    return out


_NEAR_ZEROS = _near_factor_zeros()

# h*z is not finite: a NaN or infinite z (at h = 0 too), or an overflowing product
_NONFINITE = [
    pytest.param(1.0, complex(math.nan, 0.0), id="nan"),
    pytest.param(0.0, complex(0.0, math.nan), id="nan-at-h0"),
    pytest.param(1.0, complex(math.inf, 0.0), id="inf"),
    pytest.param(0.5, complex(0.0, -math.inf), id="inf-imag"),
    pytest.param(0.0, complex(-math.inf, 1.0), id="inf-at-h0"),
    pytest.param(1e300, 1e300 + 0j, id="hz-overflow"),
    pytest.param(1e300, complex(-1e300, 1e300), id="hz-overflow-complex"),
]


@pytest.mark.parametrize("name", sorted(_GUARDED))
def test_maps_raise_their_error_exactly_where_their_predicate_is_false(name):
    cylinder_map, predicate, error = _GUARDED[name]
    seen = set()
    for h, z in _NEAR_ZEROS:
        regressive = predicate(h, z)
        seen.add(regressive)
        if regressive:
            assert cmath.isfinite(cylinder_map(h, z)), (h, z)
        else:
            with pytest.raises(error):
                cylinder_map(h, z)
    assert seen == {True, False}


@pytest.mark.parametrize("h, z", _NONFINITE)
@pytest.mark.parametrize("name", sorted(_GUARDED))
def test_maps_and_predicates_raise_nonfinite_value(name, h, z):
    cylinder_map, predicate, _ = _GUARDED[name]
    with pytest.raises(NonFiniteValue):
        predicate(h, z)
    with pytest.raises(NonFiniteValue):
        cylinder_map(h, z)


# every public function of the module, with z as the argument that varies
_EVERY_FUNCTION = {
    "xi": xi,
    "zeta": zeta,
    "xi_hat": xi_hat,
    "zeta_hat": zeta_hat,
    "cayley_psi": cayley_psi,
    "cayley_psi-multi": lambda h, z: cayley_psi(h, z, principal=False),
    "eta_psi": lambda h, z: eta_psi(0.25, h, z),
    "eta_psi-multi": lambda h, z: eta_psi(0.75, h, z, principal=False),
    "is_regressive": is_regressive,
    "is_nu_regressive": is_nu_regressive,
    "is_cayley_regressive": is_cayley_regressive,
    "circle_plus": lambda h, z: circle_plus(h, z, 1.0 - 2j),
    "circle_minus": lambda h, z: circle_minus(h, z, z),
    "circle_dot": lambda h, z: circle_dot(h, 2.0, z),
}


@pytest.mark.parametrize("h, z", _NONFINITE)
@pytest.mark.parametrize("name", sorted(_EVERY_FUNCTION))
def test_no_cylinder_function_returns_a_nonfinite_value(name, h, z):
    # NonFiniteValue, or a finite number: (z - z) / (1 + h*z) is 0 where h*z
    # overflows; a predicate has no finite answer, so it must raise
    try:
        value = _EVERY_FUNCTION[name](h, z)
    except NonFiniteValue:
        return
    value = getattr(value, "rep", value)
    assert cmath.isfinite(value) and not isinstance(value, bool)


@pytest.mark.parametrize("hz", [1e12, 1e13, -1e13, 3e15 + 4e15j, 1e300])
def test_eta_endpoints_guard_only_the_factor_that_depends_on_hz(hz):
    # at eta = 0 the denominator, at eta = 1 the numerator, is the constant
    # 1; the relative guard must not refuse it once |hz| is large
    for h in (1.0, 0.25):
        z = hz / h
        assert eta_psi(0.0, h, z) == xi(h, z)
        # the same factor 1 - hz, on the other side of the cut where it is negative
        assert eta_psi(1.0, h, z).real == xi_hat(h, z).real
        assert cmath.exp(-h * eta_psi(1.0, h, z)) == pytest.approx(1 - hz, rel=1e-12)
    with pytest.raises(EtaNotRegressive):
        eta_psi(0.0, 1.0, -1.0 + 0j)
    with pytest.raises(EtaNotRegressive):
        eta_psi(1.0, 1.0, 1.0 + 0j)


def test_step_validation():
    with pytest.raises(ValueError):
        xi(-1.0, 0j)
    with pytest.raises(ValueError):
        xi(float("nan"), 0j)
    with pytest.raises(ValueError):
        eta_psi(1.5, 1.0, 0j)
    with pytest.raises(ValueError):
        eta_psi(-0.1, 1.0, 0j)


# ---------------------------------------------------------------------------
# eta family interpolates the others
# ---------------------------------------------------------------------------


def test_eta_endpoints_and_midpoint():
    for h in (0.5, 2.0):
        for z in (0.4 + 0.2j, -0.3 + 1j, 0.05 - 0.6j):
            assert eta_psi(0.0, h, z) == pytest.approx(xi(h, z), rel=1e-14)
            assert eta_psi(1.0, h, z) == pytest.approx(xi_hat(h, z), rel=1e-14)
            assert eta_psi(0.5, h, z) == pytest.approx(cayley_psi(h, z), rel=1e-14)


def test_eta_multi_flag():
    m = eta_psi(0.25, 2.0, 0.1 + 0.1j, principal=False)
    assert m.period == pytest.approx(complex(0.0, math.pi))
    assert m.rep == eta_psi(0.25, 2.0, 0.1 + 0.1j)


def test_cayley_multi_flag():
    m = cayley_psi(2.0, 0.1j, principal=False)
    assert m.period == pytest.approx(complex(0.0, math.pi))
    assert m.rep == cayley_psi(2.0, 0.1j)


def test_cayley_is_average_of_half_steps():
    # Log((1+w)/(1-w)) = Log(1+w) - Log(1-w) away from the cut
    h, z = 1.0, 0.6 + 0.3j
    half = 0.5 * h * z
    direct = cayley_psi(h, z)
    split = (cmath.log(1 + half) - cmath.log(1 - half)) / h
    assert direct == pytest.approx(split, rel=1e-14)


# ---------------------------------------------------------------------------
# circle algebra
# ---------------------------------------------------------------------------


def test_circle_plus_values():
    assert circle_plus(1.0, 1 + 0j, 2 + 0j) == 5 + 0j
    assert circle_plus(0.5, 2j, 2j) == pytest.approx(4j - 2)


def test_circle_minus_inverts_plus():
    h = 0.5
    z, w = 1.2 - 0.7j, 0.3 + 2.1j
    assert circle_minus(h, circle_plus(h, z, w), w) == pytest.approx(z, rel=1e-14)
    assert circle_plus(h, circle_minus(h, z, w), w) == pytest.approx(z, rel=1e-14)


def test_circle_dot_integer_repeats_plus():
    h = 0.25
    z = 0.4 + 0.9j
    twice = circle_plus(h, z, z)
    assert circle_dot(h, 2.0, z) == pytest.approx(twice, rel=1e-13)
    thrice = circle_plus(h, twice, z)
    assert circle_dot(h, 3.0, z) == pytest.approx(thrice, rel=1e-13)


@given(steps, coeffs, coeffs)
@settings(max_examples=200, deadline=None)
def test_xi_additivity_mod_lattice(h, z, w):
    # Log(ab) = Log a + Log b up to one winding either way
    if not (_safe(h, z) and _safe(h, w)):
        return
    both = circle_plus(h, z, w)
    if not _safe(h, both):
        return
    lhs = xi(h, both)
    rhs = xi(h, z) + xi(h, w)
    k, res = lattice_gap(lhs, rhs, period=complex(0.0, 2 * math.pi / h))
    assert k in (-1, 0, 1)
    assert res <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


@given(steps, coeffs)
@settings(max_examples=200, deadline=None)
def test_xi_negation_mod_lattice(h, z):
    if not _safe(h, z):
        return
    minus = circle_minus(h, 0j, z)
    if not _safe(h, minus):
        return
    lhs = xi(h, minus)
    k, res = lattice_gap(lhs, -xi(h, z), period=complex(0.0, 2 * math.pi / h))
    assert k in (-1, 0, 1)
    assert res <= 1e-9 * max(1.0, abs(lhs))


@given(steps, coeffs, st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=200, deadline=None)
def test_circle_dot_scalar_rule_mod_lattice(h, z, alpha):
    # (1/h)Log((1+hz)^alpha) vs (alpha/h)Log(1+hz), windings bounded by alpha
    if not _safe(h, z):
        return
    scaled = circle_dot(h, alpha, z)
    if not _safe(h, scaled):
        return
    lhs = xi(h, scaled)
    rhs = alpha * xi(h, z)
    k, res = lattice_gap(lhs, rhs, period=complex(0.0, 2 * math.pi / h))
    assert abs(k) <= math.ceil(abs(alpha) / 2) + 1
    assert res <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


@given(steps, coeffs)
@settings(max_examples=150, deadline=None)
def test_exp_of_xi_reconstructs_factor(h, z):
    # e^{h*xi} must reproduce 1 + h*z exactly up to roundoff
    if not _safe(h, z):
        return
    w = 1 + h * z
    if abs(w) > 1e100:
        return
    assert cmath.exp(h * xi(h, z)) == pytest.approx(w, rel=1e-12)


@given(
    st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=-16.0, max_value=16.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
@example(0.0, 0.0, -14.0, 0.0, 1.0)
@example(1.0, 0.0, 14.0, 0.0, 1.0)
@example(0.5, 0.0, 0.0, 0.0, 3.0)
@settings(max_examples=300, deadline=None)
def test_the_jump_rule_is_the_maps_rule(eta, size, ratio, phase, turn):
    # on a jump from p to p_sigma, with mix = (1-eta)p + eta*p_sigma and
    # z = (p_sigma - p)/mix, the map's factors 1 + (1-eta)z and 1 - eta*z
    # are p_sigma/mix and p/mix in exact arithmetic: the jump rule and the
    # h*z rule agree wherever neither factor lies within a factor 2 of the
    # bound; |p| is 10^size and |p_sigma/p| is 10^ratio
    p = cmath.rect(10.0**size, phase)
    p_sigma = p * cmath.rect(10.0**ratio, turn)
    mix = (1.0 - eta) * p + eta * p_sigma
    assume(mix != 0)
    bound = REGRESSIVITY_GUARD * (abs(mix) + abs(p_sigma - p))
    assume(not any(bound / 2 <= abs(v) <= 2 * bound for v in (p, p_sigma)))
    assert cylinder._vanishes(eta, (p_sigma - p) / mix) == cylinder._jump_vanishes(eta, p, p_sigma)
