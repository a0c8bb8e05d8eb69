import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolog.errors import LogOfZero, NonFiniteValue
from chronolog.multivalue import (
    TWO_PI_I,
    MultiLog,
    exp,
    lattice_gap,
    mod2pi_equal,
    pow_real,
    principal_log,
)

finite_complex = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------------------
# principal branch
# ---------------------------------------------------------------------------


def test_principal_log_negative_real_axis_is_plus_pi():
    v = principal_log(complex(-1.0, 0.0))
    assert v.imag == math.pi
    assert v.real == 0.0


def test_principal_log_negative_zero_imag_squashed():
    # complex(-1, -0.0) sits on the lower lip of the cut; the convention
    # here folds it onto the upper lip so Arg stays in (-pi, pi].
    v = principal_log(complex(-1.0, -0.0))
    assert v.imag == math.pi


def test_principal_log_matches_cmath_off_axis():
    for z in (1 + 2j, -3 + 4j, 0.5 - 0.25j, 2j, -2j):
        assert principal_log(z) == cmath.log(z)


def test_principal_log_zero_raises():
    with pytest.raises(LogOfZero):
        principal_log(0j)
    with pytest.raises(LogOfZero):
        principal_log(complex(1e-320, 0.0))


def test_principal_log_of_nan_is_nan_whatever_failed_before():
    # a failed math call leaves errno set, after which abs() of a complex
    # with a nan part can raise OverflowError (CPython 3.11 does)
    for z in (complex(math.nan, math.nan), complex(math.nan, 1.0), complex(2.0, math.nan)):
        with pytest.raises(OverflowError):
            math.exp(1000.0)
        w = principal_log(z)
        assert math.isnan(w.real) or math.isnan(w.imag)


def test_exp_overflow_maps_to_numerical_error():
    with pytest.raises(NonFiniteValue):
        exp(complex(1e9, 0.0))
    assert exp(1j) == pytest.approx(cmath.exp(1j))


def test_pow_real_square_of_negative():
    assert pow_real(complex(-1.0, 0.0), 2.0) == pytest.approx(1.0 + 0j, abs=1e-15)
    assert pow_real(4 + 0j, 0.5) == pytest.approx(2.0 + 0j)


@given(finite_complex)
@settings(max_examples=200, deadline=None)
def test_principal_log_imag_in_branch_strip(z):
    # mathematically Arg is in (-pi, pi]; rounding can land exactly on -pi
    # only for points strictly below the cut, never on it
    v = principal_log(z)
    assert -math.pi <= v.imag <= math.pi
    if v.imag == -math.pi:
        assert z.imag < 0.0


@given(finite_complex)
@settings(max_examples=200, deadline=None)
def test_exp_of_log_round_trip(z):
    assert exp(principal_log(z)) == pytest.approx(z, rel=1e-12)


# ---------------------------------------------------------------------------
# lattice comparison
# ---------------------------------------------------------------------------


def test_lattice_gap_exact_shift():
    a = 1.5 + 0.25j
    b = a + 3 * TWO_PI_I
    k, res = lattice_gap(b, a)
    assert k == 3
    assert res <= 1e-15


def test_lattice_gap_zero_period_falls_back_to_plain_distance():
    k, res = lattice_gap(1 + 1j, 1 + 0j, period=0j)
    assert k == 0
    assert res == pytest.approx(1.0)


def test_lattice_gap_accepts_multilog():
    m = MultiLog(2.0 + 1.0j)
    k, res = lattice_gap(m, 2.0 + 1.0j + TWO_PI_I)
    assert k == -1
    assert res <= 1e-15


def test_mod2pi_equal_tolerance_validation():
    with pytest.raises(ValueError):
        mod2pi_equal(1 + 0j, 1 + 0j, tol=0.0)
    assert mod2pi_equal(1 + 0j, 1 + 0j + TWO_PI_I, tol=1e-9)
    assert not mod2pi_equal(1 + 0j, 1.1 + 0j, tol=1e-9)


@given(finite_complex, st.integers(min_value=-20, max_value=20))
@settings(max_examples=200, deadline=None)
def test_lattice_gap_recovers_k(z, k):
    shifted = z + k * TWO_PI_I
    got_k, res = lattice_gap(shifted, z)
    assert got_k == k
    assert res <= 1e-9 * max(1.0, abs(z))


# ---------------------------------------------------------------------------
# MultiLog values
# ---------------------------------------------------------------------------


def test_multilog_defaults_to_2pi_lattice():
    m = MultiLog(1 + 1j)
    assert m.period == TWO_PI_I
    assert m.shifted(0) == m.rep
    assert m.shifted(2) == 1 + 1j + 2 * TWO_PI_I


def test_multilog_rejects_nonfinite_and_real_period():
    with pytest.raises(NonFiniteValue):
        MultiLog(complex(float("inf"), 0.0))
    with pytest.raises(ValueError):
        MultiLog(1 + 0j, period=1 + 1j)


def test_multilog_mod_equal():
    m = MultiLog(0.5 + 0.5j)
    assert m.mod_equal(m.shifted(-4), tol=1e-12)
    assert not m.mod_equal(MultiLog(0.5 + 0.6j), tol=1e-6)


def test_multilog_addition_joins_periods():
    a = MultiLog(1 + 0j)
    b = MultiLog(2 + 1j)
    s = a + b
    assert s.rep == 3 + 1j
    assert s.period == TWO_PI_I


def test_multilog_add_complex_scalar():
    m = MultiLog(1 + 0j) + (0 + 2j)
    assert m.rep == 1 + 2j
    assert m.period == TWO_PI_I
    m2 = (0 + 2j) + MultiLog(1 + 0j)
    assert m2.rep == m.rep


def test_multilog_period_mismatch_raises():
    a = MultiLog(1 + 0j, period=2j * math.pi)
    b = MultiLog(1 + 0j, period=1j * math.pi)
    with pytest.raises(ValueError):
        a + b


def test_multilog_zero_period_joins_with_anything():
    exact = MultiLog(1 + 0j, period=0j)
    lattice = MultiLog(2 + 0j)
    assert (exact + lattice).period == TWO_PI_I
    assert (lattice + exact).period == TWO_PI_I


def test_multilog_negation_and_subtraction():
    a = MultiLog(3 + 1j)
    assert (-a).rep == -3 - 1j
    assert (a - MultiLog(1 + 1j)).rep == 2 + 0j
    assert ((4 + 0j) - a).rep == 1 - 1j
    assert (a - 1.5) == MultiLog(1.5 + 1j)


def test_multilog_real_scalar_multiplication_keeps_lattice():
    # the 2pi*i description stays fixed so scaled values can still be
    # compared against unscaled ones; for integer scalars the true set
    # alpha*rep + alpha*2pi*i*Z is a subset of what the result denotes
    a = MultiLog(1 + 1j)
    m = 3.0 * a
    assert m.rep == 3 + 3j
    assert m.period == TWO_PI_I
    assert (a * 2).rep == 2 + 2j


def test_multilog_rejects_complex_scalar_multiplication():
    with pytest.raises(ValueError):
        MultiLog(1 + 0j) * (1 + 1j)


def test_multilog_is_hashable_and_frozen():
    m = MultiLog(1 + 1j)
    assert hash(m) == hash(MultiLog(1 + 1j))
    with pytest.raises(Exception):
        m.rep = 0j  # type: ignore[misc]


@given(finite_complex, st.integers(min_value=-10, max_value=10))
@settings(max_examples=100, deadline=None)
def test_multilog_shift_invariance_under_mod_equal(z, k):
    m = MultiLog(z)
    assert m.mod_equal(m.shifted(k), tol=1e-9)
