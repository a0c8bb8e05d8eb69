import cmath
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolog.errors import (
    DepthExceeded,
    EvalDomain,
    ExprSyntaxError,
    NonFiniteValue,
    UnknownFunction,
    ValidationError,
)
from chronolog.expr import (
    MAX_SOURCE_LEN,
    Add,
    Call,
    Const,
    Mul,
    Neg,
    Pow,
    Var,
    compile_expr,
    differentiate,
    evaluate,
    parse,
    to_text,
)

# all of these are differentiable on 0.1 <= t <= 2.9
DERIVATIVE_CORPUS = [
    "t^2",
    "t^3+2*t",
    "sin(t)",
    "cos(2*t)",
    "exp(0.5*t)",
    "log(t+5)",
    "sqrt(t+4)",
    "1/(t+3)",
    "(t+1)*(t+2)",
    "t^2+t+1",
    "exp(t)/(t+2)",
    "sin(t)*cos(t)",
    "t^0.5",
    "t^-1",
    "i*t^2+t",
    "(t+i)^3",
    "exp(sin(t))",
    "log(t^2+1)",
    "sqrt(t^2+1)",
    "2*t+5-t^3/3",
]


def test_precedence_golden_sum_product_power():
    assert evaluate(parse("2+3*4^2"), 0) == 50


def test_precedence_golden_unary_minus_binds_looser_than_power():
    tree = parse("-t^2")
    assert tree == Neg(Pow(Var(), 2.0))
    assert evaluate(tree, 3) == -9


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0) == 512


def test_imaginary_unit():
    assert evaluate(parse("i*i"), 0) == -1
    assert evaluate(parse("t+3*i"), 2) == 2 + 3j


def test_integer_power_of_negative_base_is_exact():
    v = evaluate(parse("(-4)^3"), 0)
    assert v == -64 + 0j
    assert v.imag == 0.0


def test_fractional_power_uses_principal_branch():
    v = evaluate(parse("(-8)^(1/3)"), 0)
    assert abs(v - 2 * cmath.exp(1j * cmath.pi / 3)) < 1e-12


def test_number_lexing():
    assert evaluate(parse("1.5e2"), 0) == 150
    assert evaluate(parse(".25"), 0) == 0.25
    assert evaluate(parse("2e-1"), 0) == 0.2


@pytest.mark.parametrize("text", DERIVATIVE_CORPUS)
def test_differentiate_matches_central_differences(text):
    tree = parse(text)
    dtree = differentiate(tree)
    rng = random.Random(hash(text) & 0xFFFF)
    h = 1e-6
    for _ in range(100):
        t = rng.uniform(0.1, 2.9)
        fd = (evaluate(tree, t + h) - evaluate(tree, t - h)) / (2 * h)
        sym = evaluate(dtree, t)
        assert abs(fd - sym) <= 1e-5 * max(1.0, abs(sym))


@pytest.mark.parametrize("text", DERIVATIVE_CORPUS)
def test_print_parse_round_trip(text):
    tree = parse(text)
    back = parse(to_text(tree))
    rng = random.Random(0xC0FFEE)
    for _ in range(100):
        t = rng.uniform(0.1, 2.9)
        a = evaluate(tree, t)
        b = evaluate(back, t)
        assert abs(a - b) <= 1e-15 * max(1.0, abs(a))


def test_round_trip_preserves_tricky_structure():
    for text in ("-(t+1)", "(t^2)^3", "t-(1-t)", "1/(2*t)", "-2^2", "(-2)^2"):
        tree = parse(text)
        assert evaluate(parse(to_text(tree)), 1.7) == pytest.approx(evaluate(tree, 1.7), abs=1e-15)
    # parenthesized negative base vs negated power
    assert evaluate(parse("-2^2"), 0) == -4
    assert evaluate(parse("(-2)^2"), 0) == 4


def test_compile_matches_tree_walk():
    for text in DERIVATIVE_CORPUS:
        tree = parse(text)
        fn = compile_expr(tree)
        for t in (0.3, 1.1, 2.7):
            assert fn(complex(t)) == evaluate(tree, t)


def test_differentiate_constant_power_component():
    assert differentiate(Pow(Var(), 0.0)) == Const(0j)
    # d/dt t = 1 even through the power rule form
    assert evaluate(differentiate(parse("t^1")), 5.0) == 1


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2t")


def test_parse_rejects_unknown_function_with_offset():
    with pytest.raises(UnknownFunction) as exc:
        parse("1+foo(t)")
    assert exc.value.offset == 2


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ExprSyntaxError):
        parse("x+1")


def test_parse_rejects_function_without_parens():
    with pytest.raises(ExprSyntaxError):
        parse("sin t")


def test_parse_rejects_variable_exponent():
    with pytest.raises(ExprSyntaxError):
        parse("t^t")
    with pytest.raises(ExprSyntaxError):
        parse("2^(t+1)")


def test_parse_rejects_imaginary_exponent():
    with pytest.raises(ExprSyntaxError):
        parse("2^i")


def test_parse_error_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1+*2")
    assert exc.value.offset == 2


def test_parse_rejects_empty_and_unbalanced():
    for bad in ("", "   ", "(t", "t+", "()", "1+", "*3"):
        with pytest.raises(ExprSyntaxError):
            parse(bad)


def test_parse_rejects_oversized_source():
    with pytest.raises(ExprSyntaxError):
        parse("1+" * 2500 + "1")


def test_depth_limit_parens():
    # bare parens add no tree depth, but runaway nesting is still refused
    parse("(" * 100 + "t" + ")" * 100)
    with pytest.raises(DepthExceeded):
        parse("(" * 200 + "t" + ")" * 200)
    with pytest.raises(DepthExceeded, match="nesting exceeds 128$"):
        parse("(" * 130 + "t" + ")" * 130)


def test_depth_limit_nested_calls():
    parse("exp(" * 60 + "t" + ")" * 60)
    with pytest.raises(DepthExceeded):
        parse("exp(" * 70 + "t" + ")" * 70)


def test_depth_limit_negation_chain():
    parse("-" * 50 + "t")
    with pytest.raises(DepthExceeded):
        parse("-" * 70 + "t")


def test_depth_limit_flat_sum():
    # left-leaning chains count toward depth too
    with pytest.raises(DepthExceeded):
        parse("+".join(["1"] * 100))
    # chains deeper than the Python recursion limit, still under MAX_SOURCE_LEN
    with pytest.raises(DepthExceeded):
        parse("+".join(["t"] * 1500))
    # an exponent folds to a constant, so its own depth is not the tree's
    with pytest.raises(ValidationError):
        parse("2^(" + "+".join(["1"] * 1500) + ")")


def test_eval_division_by_zero():
    with pytest.raises(EvalDomain):
        evaluate(parse("1/t"), 0)


def test_eval_log_of_zero():
    with pytest.raises(EvalDomain):
        evaluate(parse("log(t)"), 0)


def test_eval_negative_power_of_zero():
    with pytest.raises(EvalDomain):
        evaluate(parse("t^-1"), 0)
    with pytest.raises(EvalDomain):
        evaluate(parse("t^(-0.5)"), 0)


def test_eval_overflow_is_reported():
    with pytest.raises(NonFiniteValue):
        evaluate(parse("exp(t)"), 1000)
    with pytest.raises(NonFiniteValue):
        evaluate(parse("exp(700)*exp(700)"), 0)


def test_integer_power_failures_are_typed():
    # an integer power goes through the same guard as a real one
    with pytest.raises(NonFiniteValue):
        evaluate(parse("(t*1e300)^2"), 1)
    with pytest.raises(EvalDomain):
        evaluate(parse("(t*1e-300)^(-2)"), 1)
    with pytest.raises(NonFiniteValue):
        evaluate(parse("(t*1e300)^2.5"), 1)


def test_integer_power_keeps_native_bits():
    z = 1.1 - 0.3j
    for n in (-3, -1, 2, 5, 100):
        assert evaluate(parse(f"(t)^({n})"), z) == z ** n
    assert evaluate(parse("t^0.5"), -4) == complex(-4.0, 0.0) ** 0.5


def test_zero_power_zero_is_one():
    assert evaluate(parse("t^0"), 0) == 1


def test_call_nodes_print_readably():
    assert to_text(parse("exp(sin(t))")) == "exp(sin(t))"
    assert to_text(Mul(Const(2 + 0j), Call("sqrt", Add(Var(), Const(1 + 0j))))) == "2.0*sqrt(t+1.0)"


# the pieces of the grammar, with a few near misses to reach every error
_TOKENS = (
    "t", "i", "1", "2.5", ".5", "1e3", "2e", "1e999", "0", "(", ")", "+", "-", "*", "/", "^",
    "exp", "log", "sin", "cos", "sqrt", "foo", "x", " ", ",",
)
_CHAINS = ("t+", "1+", "t*", "2^", "-", "(", ")", "exp(", "t^2+", "1/")


@st.composite
def _token_text(draw):
    head = draw(st.lists(st.sampled_from(_TOKENS), max_size=30))
    chain = draw(st.sampled_from(_CHAINS)) * draw(st.integers(0, 2000))
    tail = draw(st.lists(st.sampled_from(_TOKENS), max_size=30))
    return ("".join(head) + chain + "".join(tail))[:MAX_SOURCE_LEN]


@settings(max_examples=300, deadline=None)
@given(_token_text())
@example("+".join(["t"] * 1500))
@example("2^(" + "+".join(["1"] * 1500) + ")")
@example("2^(" + "+".join(["t"] * 1500) + ")")
def test_parse_returns_a_tree_or_raises_a_validation_error(text):
    # hypothesis raises the recursion limit while it runs a test; parse at
    # the interpreter's default limit, the one the CLI runs with
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        parse(text)
    except ValidationError:
        pass
    finally:
        sys.setrecursionlimit(limit)
