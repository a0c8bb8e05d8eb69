"""The frozen value classes: equality, hashing, repr, immutability, validation."""

import math

import pytest

from chronolog import calculus, expr, logexp, multivalue, timescale
from chronolog.errors import InvalidTimeScale, NonFiniteValue, ValidationError


def _records():
    # one value of each of the frozen classes, with the repr it prints
    return [
        (expr.Const(2j), "Const(value=2j)"),
        (expr.Var(), "Var()"),
        (expr.Add(expr.Var(), expr.Const(1)), "Add(left=Var(), right=Const(value=1))"),
        (expr.Sub(expr.Var(), expr.Var()), "Sub(left=Var(), right=Var())"),
        (expr.Mul(expr.Var(), expr.Var()), "Mul(left=Var(), right=Var())"),
        (expr.Div(expr.Var(), expr.Var()), "Div(left=Var(), right=Var())"),
        (expr.Pow(expr.Var(), 2.0), "Pow(base=Var(), exponent=2.0)"),
        (expr.Neg(expr.Var()), "Neg(operand=Var())"),
        (expr.Call("exp", expr.Var()), "Call(name='exp', arg=Var())"),
        (timescale.ScatteredJump(1.0, 0.5, 1.5), "ScatteredJump(tau=1.0, mu=0.5, sigma=1.5)"),
        (timescale.Reals(), "Reals()"),
        (timescale.UniformGrid(0.5), "UniformGrid(h=0.5, anchor=0.0)"),
        (timescale.QGrid(2), "QGrid(q=2.0)"),
        (timescale.DiscreteSet([1, 2]), "DiscreteSet(points=(1.0, 2.0))"),
        (timescale.AlternatingGrid(1, 2), "AlternatingGrid(alpha=1.0, beta=2.0)"),
        (timescale.IntervalUnion([(0, 1)]), "IntervalUnion(pieces=((0.0, 1.0),))"),
        (multivalue.MultiLog(1), "MultiLog(rep=(1+0j), period=6.283185307179586j)"),
        (calculus.ToleranceConfig(quad_tol=1e-3), "ToleranceConfig(quad_tol=0.001, eps_min=1e-10, cmp_tol=1e-08)"),
        (
            logexp.IdentityResult("x", 1j, 2, 0.5, 3, True),
            "IdentityResult(identity='x', lhs=1j, rhs=2, residual=0.5, lattice_k=3, passed=True)",
        ),
    ]


@pytest.mark.parametrize("value, text", [pytest.param(v, t, id=type(v).__name__) for v, t in _records()])
def test_record_compares_hashes_and_prints_by_its_fields(value, text):
    assert repr(value) == text
    twin = type(value)(*value._fields())
    assert twin == value and not twin != value and hash(twin) == hash(value)
    others = [v for v, _ in _records() if type(v) is not type(value)]
    assert all(value != other for other in others)
    assert value.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("value, text", [pytest.param(v, t, id=type(v).__name__) for v, t in _records()])
def test_record_refuses_assignment_and_deletion(value, text):
    assert not hasattr(value, "__dict__")
    for name in value.__slots__ + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


def test_record_takes_fields_by_position_keyword_or_default():
    assert timescale.UniformGrid(h=2, anchor=1) == timescale.UniformGrid(2, 1)
    assert calculus.ToleranceConfig(eps_min=1e-5) == calculus.ToleranceConfig(1e-10, 1e-5, 1e-8)
    assert multivalue.MultiLog(1j).period == multivalue.TWO_PI_I
    for call in (
        lambda: timescale.UniformGrid(),
        lambda: timescale.UniformGrid(1, 2, 3),
        lambda: timescale.UniformGrid(1, h=1),
        lambda: calculus.ToleranceConfig(bad=1),
        lambda: expr.Add(expr.Var()),
        lambda: timescale.Reals(1),
    ):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: timescale.UniformGrid(0), InvalidTimeScale),
        (lambda: timescale.UniformGrid(1, math.inf), InvalidTimeScale),
        (lambda: timescale.QGrid(1), InvalidTimeScale),
        (lambda: timescale.DiscreteSet([2, 1]), InvalidTimeScale),
        (lambda: timescale.AlternatingGrid(1, 1), InvalidTimeScale),
        (lambda: timescale.IntervalUnion([(1, 0)]), InvalidTimeScale),
        (lambda: multivalue.MultiLog(math.nan), NonFiniteValue),
        (lambda: multivalue.MultiLog(1, 1), ValidationError),
        (lambda: calculus.ToleranceConfig(cmp_tol=0), ValidationError),
    ],
)
def test_record_validates_its_fields(call, error):
    with pytest.raises(error):
        call()
