import cmath
import json
import math
import pathlib
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolog import expr
from chronolog.errors import (
    ChronologError,
    DepthExceeded,
    EvalDomain,
    ExprSyntaxError,
    NonFiniteValue,
    UnknownFunction,
    ValidationError,
)
from chronolog.expr import (
    FUNCTIONS,
    MAX_SOURCE_LEN,
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    ScaleFunction,
    Sub,
    Var,
    _call_value,
    _pow_value,
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
    # an exponent folds to a constant, so its own depth is not the tree's;
    # one too deep to fold raises DepthExceeded, naming that depth
    with pytest.raises(DepthExceeded, match="^exponent tree of depth 1500 is too deep to fold$"):
        parse("2^(" + "+".join(["1"] * 1500) + ")")
    with pytest.raises(DepthExceeded, match="^exponent tree of depth 1000 is too deep to fold$"):
        parse("t^(" + "+".join(["1"] * 1000) + ")")


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


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
def test_a_tree_built_with_a_non_finite_exponent_is_refused(a):
    # the parser refuses such exponents; a tree built directly is refused
    # when its Pow is, before any entry point compiles or evaluates it
    for compute in (
        lambda: compile_expr(Pow(Var(), a))(2 + 0j),
        lambda: evaluate(Add(Const(1 + 0j), Pow(Var(), a)), 2 + 0j),
        lambda: ScaleFunction(Pow(Var(), a))(2),
    ):
        with pytest.raises(ValidationError, match="exponent must be finite"):
            compute()


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


def test_parse_time_exponents_compile_no_code():
    assert _compiled_sources(lambda: parse("t^(1/3)+(-8)^(1/3)*t^(2^-1)")) == []
    assert evaluate(parse("(-8)^(1/3)"), 0) == complex(-8.0, 0.0) ** (1 / 3)
    for text, offset, message in (
        ("t + 2^(1/0)", 5, "exponent must evaluate to a real constant"),
        ("t^(log(0))", 1, "exponent must evaluate to a real constant"),
        ("t^(exp(1000))", 1, "exponent must evaluate to a real constant"),
        ("t^1e999", 1, "exponent must evaluate to a real constant"),
        ("1+t^(2*i)", 3, "exponent must be real"),
    ):
        with pytest.raises(ExprSyntaxError, match=message) as exc:
            parse(text)
        assert exc.value.offset == offset


# ---------------------------------------------------------------------------
# generated code against a tree walk
# ---------------------------------------------------------------------------


def _walk(e, t):
    """The reference evaluator: the tree, node by node, left operand first."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return t
    if isinstance(e, Neg):
        return -_walk(e.operand, t)
    if isinstance(e, Pow):
        return _pow_value(_walk(e.base, t), e.exponent)
    if isinstance(e, Call):
        return _call_value(e.name, _walk(e.arg, t))
    a, b = _walk(e.left, t), _walk(e.right, t)
    if isinstance(e, Add):
        return a + b
    if isinstance(e, Sub):
        return a - b
    if isinstance(e, Mul):
        return a * b
    try:
        return a / b
    except ZeroDivisionError as exc:
        raise EvalDomain(f"division by zero at t={t}") from exc


def _outcome(f):
    # a value by its repr, which tells the sign of a zero; an error by class and message
    try:
        return repr(f())
    except ChronologError as e:
        return type(e), str(e)


def _checked(fn):
    """fn's replay, run as fn's failures run it: its steps through _APPLY."""
    return lambda arg: expr._rerun(fn.__globals__, arg)


def _assert_matches_walk(e, d, t):
    code = ScaleFunction(e, d)
    value, prime, pair, values = map(code._compiled, ("value", "prime", "pair", "values"))

    def walked_pair():
        dv = _walk(d, t)
        return _walk(e, t), dv

    # each function, and its replay, against the walk
    for fn in (compile_expr(e), value, _checked(compile_expr(e)), _checked(value)):
        assert _outcome(lambda: fn(t)) == _outcome(lambda: _walk(e, t))
    for fn in (prime, _checked(prime)):
        assert _outcome(lambda: fn(t)) == _outcome(lambda: _walk(d, t))
    for fn in (pair, _checked(pair)):
        assert _outcome(lambda: fn(t)) == _outcome(walked_pair)
    for fn in (values, _checked(values)):
        assert _outcome(lambda: fn([t, t])) == _outcome(lambda: [_walk(e, t), _walk(e, t)])

    sf = ScaleFunction(e, d)

    def separately():
        dv = sf.prime(t)
        return sf(t), dv

    assert _outcome(lambda: sf.pair(t)) == _outcome(separately)
    assert _outcome(lambda: sf.values([t])) == _outcome(lambda: [sf(t)])


_SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan)
_reals = st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e3, 1e3))
_EXPONENTS = (0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, -0.5, 1 / 3, 2.5, 100.0, 101.0)
_trees = st.recursive(
    st.one_of(
        st.just(Var()),
        _reals.map(lambda x: Const(complex(x))),
        st.builds(complex, _reals, _reals).map(Const),
    ),
    lambda kids: st.one_of(
        *(st.builds(node, kids, kids) for node in (Add, Sub, Mul, Div)),
        st.builds(Neg, kids),
        st.builds(Pow, kids, st.one_of(st.sampled_from(_EXPONENTS), st.integers(-101, 101).map(float))),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
    ),
    max_leaves=12,
)
_points = st.one_of(
    st.sampled_from(
        (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j, -1 + 0j,
         complex(-4.0, 0.0), complex(-4.0, -0.0), 1j, 710 + 0j, 1000 + 0j, -1000 + 0j)
    ),
    st.builds(complex, st.floats(-50, 50), st.floats(-5, 5)),
)


@settings(max_examples=400, deadline=None)
@given(_trees, _trees, _points)
def test_generated_code_matches_tree_walk_bit_for_bit(e, other, t):
    _assert_matches_walk(e, differentiate(e), t)
    _assert_matches_walk(e, other, t)


def _cnum(re_, im):
    return f"({re_!r}{'-' if im < 0 else '+'}{abs(im)!r}*i)"


_coef = st.floats(-5, 5).map(lambda x: round(x, 4))
_FAMILIES = (
    lambda a, b, c, d: f"(t-({a!r}))^2+{abs(b) + 0.5!r}",
    lambda a, b, c, d: f"(t-{_cnum(a, b)})^3",
    lambda a, b, c, d: f"exp(i*t)+{_cnum(a, b)}",
    lambda a, b, c, d: f"exp({a!r}*sin({b!r}*t))+{c!r}",
    lambda a, b, c, d: f"exp(i*{a!r}*sin(t))+{_cnum(b, c)}",
    lambda a, b, c, d: f"(t-{_cnum(a, b)})*(t-{_cnum(c, d)})",
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FAMILIES), _coef, _coef, _coef, _coef, st.lists(st.floats(-20, 20), min_size=1, max_size=5))
def test_workload_families_match_tree_walk_bit_for_bit(family, a, b, c, d, ts):
    e = parse(family(a, b, c, d))
    for t in ts:
        _assert_matches_walk(e, differentiate(e), complex(t))


@pytest.mark.parametrize(
    "text, t, error",
    [
        ("1/t", 0j, EvalDomain),
        ("t+1/(t-t)", 2 + 0j, EvalDomain),
        ("log(t)", 0j, EvalDomain),
        ("log(t)*0", 0j, EvalDomain),
        ("exp(t)", 1000 + 0j, NonFiniteValue),
        ("exp(700)*exp(700)*t", 1 + 0j, None),
        ("sin(t*1e308*10)", 1 + 0j, EvalDomain),
        ("sqrt(t)", complex(-4.0, -0.0), None),
        ("sqrt(-4+t)", complex(0.0, -0.0), None),
        ("t^0.5", complex(-4.0, -0.0), None),
        ("t^(1/3)", complex(-0.0, -0.0), None),
        ("t^-1", complex(-0.0, 0.0), EvalDomain),
        ("(0*t)^-0.5", complex(-1.0, -0.0), EvalDomain),
        ("t^3", complex(-0.0, -0.0), None),
        ("(t*1e300)^2", 1 + 0j, NonFiniteValue),
    ],
)
def test_generated_code_matches_tree_walk_on_edge_cases(text, t, error):
    e = parse(text)
    _assert_matches_walk(e, differentiate(e), t)
    outcome = _outcome(lambda: compile_expr(e)(t))
    if error is None:
        assert isinstance(outcome, str)
    else:
        assert outcome[0] is error


_ZERO_BASES = (0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0))


@pytest.mark.parametrize("a", [0.0, 1, 1.0, 2.0, 3.0, -1.0, -2.0, 100.0, 101.0, 2.5])
@pytest.mark.parametrize("t", [*_ZERO_BASES, complex(math.nan, 0.0), complex(-4.0, -0.0), 1.1 - 0.3j])
def test_fast_powers_match_checked_form_and_walk(a, t):
    # the fast form decides an integral exponent's power when the code is
    # written, and leaves a zero base of either sign to _pow_value; the
    # derivative holds t^a as differentiate writes it (t^1.0 for t^2.0)
    _assert_matches_walk(Pow(Var(), a), differentiate(Pow(Var(), a + 1.0)), t)


@pytest.mark.parametrize(
    "text, good, bad, error, message",
    [
        ("(1e200*t)^2", 1e-100, 1, NonFiniteValue, "overflow in (1e+200+0j) ** 2"),
        ("exp(1000*t)", 0.5, 1, NonFiniteValue, "overflow in exp((1000+0j))"),
        ("sin(1000*i*t)", 0.5, 1, NonFiniteValue, "overflow in sin(1000j)"),
        ("(1e-200*t)^-2", 1e100, 1e-200, EvalDomain, "0 raised to a negative power"),
        ("(1e-300*t)^-2", 1e200, 1, EvalDomain, "division by zero in (1e-300+0j) ** -2"),
        ("1/(t-3)", 0.5, 3, EvalDomain, "division by zero at t=(3+0j)"),
    ],
)
def test_fast_form_failures_keep_class_and_message(text, good, bad, error, message):
    e = parse(text)
    d = differentiate(e)
    code = ScaleFunction(e, d)
    good, bad = complex(good), complex(bad)
    assert _outcome(lambda: code._compiled("value")(bad)) == (error, message)
    assert _outcome(lambda: compile_expr(e)(bad)) == (error, message)
    _assert_matches_walk(e, d, bad)
    # the first point that raises, after one that does not
    points = [good, bad, 2 * bad]
    assert isinstance(_outcome(lambda: code._compiled("values")([good])), str)
    assert _outcome(lambda: code._compiled("values")(points)) == _outcome(lambda: [_walk(e, x) for x in points])


def test_failing_calls_compile_no_source():
    e = parse("exp(i*t)+(t-1)^2*sin(t)/cos(t)+t^0.5")
    code = ScaleFunction(e, differentiate(e))
    calls = (("value", 0.5), ("prime", 0.5), ("pair", 0.5), ("values", [0.5, 1.5]))
    sources = _compiled_sources(lambda: ([code._compiled(f)(arg) for f, arg in calls], compile_expr(e)(0.5)))
    assert [source.split("(")[0] for source in sources] == ["def value", "def prime", "def pair", "def values", "def value"]
    value, pair, values = map(code._compiled, ("value", "pair", "values"))
    # a failure replays the steps, and compiles nothing
    sources = _compiled_sources(
        lambda: [
            [_outcome(lambda: fn(arg)) for fn, arg in ((value, 1000j), (values, [0.5, 1000j]), (pair, 0j))]
            for _ in range(3)
        ]
    )
    assert sources == []
    assert _outcome(lambda: value(1000j)) == (NonFiniteValue, "overflow in sin(1000j)")
    assert _outcome(lambda: values([0.5, 1000j])) == (NonFiniteValue, "overflow in sin(1000j)")
    assert _outcome(lambda: pair(0j)) == (EvalDomain, "0 raised to a negative power")


# ---------------------------------------------------------------------------
# generated source and its memo
# ---------------------------------------------------------------------------

_NAME = r"(?:t|v\d+|c\d+)"
_SOURCE_LINE = re.compile(
    "|".join(
        (
            r"def (?:value|prime|pair)\(t\):",
            r"    try:",
            rf"        (?:    )?v\d+ = {_NAME} [-+*/] {_NAME}",
            rf"        (?:    )?v\d+ = -{_NAME}",
            rf"        (?:    )?v\d+ = _pow\({_NAME}, c\d+\)",
            rf"        (?:    )?v\d+ = _(?:log|sqrt)\({_NAME}\)",
            # an integer power and the direct cmath calls
            rf"        (?:    )?v\d+ = (?P<b>{_NAME}) \*\* (?P<n>c\d+) if (?P=b) else _pow\((?P=b), (?P=n)\)",
            rf"        (?:    )?v\d+ = (?:exp|sin|cos)\({_NAME}\)",
            rf"        return {_NAME}(?:, {_NAME})?",
            # a failure: the replay reruns the argument
            r"    except \(ArithmeticError, ValueError\):",
            r"        pass",
            r"    return _rerun\(globals\(\), (?:t|xs)\)",
            # values: the steps of value in a loop over the points
            r"def values\(xs\):",
            r"    out = \[\]",
            r"    append = out\.append",
            r"    t = None",
            r"        for t in map\(complex, xs\):",
            rf"            append\({_NAME}\)",
            r"        return out",
        )
    )
)


def _compiled_sources(build):
    """The sources that the code memo is asked for while build() runs."""
    sources = []
    code = expr._code
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "_code", lambda source: sources.append(source) or code(source))
        build()
    return sources


def _compile_functions(code):
    """Compile a p's four functions of t."""
    for name in ("value", "prime", "pair", "values"):
        assert callable(code._compiled(name))


@settings(max_examples=100, deadline=None)
@given(_trees)
def test_generated_source_holds_only_names_and_operators(e):
    code = ScaleFunction(e, differentiate(e))
    sources = _compiled_sources(lambda: _compile_functions(code))
    assert len(sources) == 4
    for source in sources:
        for line in source.splitlines():
            assert _SOURCE_LINE.fullmatch(line), line


def test_parsed_text_never_reaches_the_source():
    texts = DERIVATIVE_CORPUS + ["exp(i*1.25*sin(t))+(0.1-2.0*i)", "1e999*t+2^(1/3)", "t^(2^-1)+.5e1"]
    codes = [ScaleFunction(e, differentiate(e)) for e in map(parse, texts)]
    sources = _compiled_sources(lambda: [_compile_functions(code) for code in codes])
    assert len(sources) == 4 * len(texts)
    for source in sources:
        for line in source.splitlines():
            assert _SOURCE_LINE.fullmatch(line), line


def test_functions_of_one_shape_share_one_code_object():
    a = ScaleFunction.from_text("exp(1.25*sin(0.98*t))+2.04")
    b = ScaleFunction.from_text("exp(1.21*sin(1.03*t))+1.93")
    assert a(0.5) != b(0.5) and a.prime(0.5) != b.prime(0.5) and a.pair(0.5) != b.pair(0.5)
    assert a.values([0.5]) != b.values([0.5])
    for name in ("value", "prime", "pair", "values"):
        assert a._compiled(name).__code__ is b._compiled(name).__code__


def test_scale_function_compiles_each_function_on_first_use():
    text = "exp(1.25*sin(0.98*t))+2.04"
    assert _compiled_sources(lambda: ScaleFunction.from_text(text)) == []
    p = ScaleFunction.from_text(text)
    sources = _compiled_sources(lambda: (p(0.5), p(0.7), p.pair(0.5), p.pair(0.7)))
    assert [source.split("(")[0] for source in sources] == ["def value", "def pair"]


def test_scale_function_keeps_no_program():
    # the program is only a step towards the sources; once the code is
    # written, a p keeps the sources it has not compiled yet, and no more
    code = ScaleFunction(parse("exp(i*t)+2*t^2"), differentiate(parse("exp(i*t)+2*t^2")))
    code._compiled("value")(0.5j)
    assert not any(isinstance(getattr(code, name), expr._Program) for name in ScaleFunction.__slots__)
    assert sorted(code._sources) == ["box", "pair", "prime", "values"]
    code._compiled("prime")(0.5j)
    code._compiled("pair")(0.5j)
    code._compiled("values")([0.5])
    code.box(0.5, 0.6)
    assert code._sources == {}


def test_code_memo_stays_bounded():
    assert expr._code.cache_info().maxsize == expr._CODE_MEMO_SIZE
    e = Var()
    for _ in range(expr._CODE_MEMO_SIZE + 10):
        e = Add(e, Var())  # one more step each time: a new shape
        compile_expr(e)
        assert expr._code.cache_info().currsize <= expr._CODE_MEMO_SIZE


# ---------------------------------------------------------------------------
# the box enclosure
# ---------------------------------------------------------------------------

# one expression per rule of expr._BOX, the op at its root: on real t, and
# on complex values of a real t; only those in _REFUSABLE meet a
# singularity (a zero divisor or the cut) over some segment of the property
# test below
_BOX_OPS = [
    ("+", "t+t*t"),
    ("+", "exp(i*t)+(2-1.5*i)"),
    ("-", "t-t*t"),
    ("-", "t-t*(t-i)"),
    ("neg", "-t"),
    ("neg", "-(t*(1+i))"),
    ("*", "t*(t+1-i)"),
    ("*", "(t-1+0.5*i)*(t-1+0.5*i)"),
    ("/", "1/(t-1+i)"),
    ("/", "exp(t)/(t-1+i)"),
    ("/", "exp(i*t)/(t-1+i)"),
    ("**", "t^3"),
    ("**", "t^-2"),
    ("**", "t^0"),
    ("**", "(t-1)^2"),
    ("**", "(t-(1.5+0.7*i))^3"),
    ("**", "(t+2+5*i)^-2"),
    ("_pow", "t^2.5"),
    ("_pow", "t^-0.5"),
    ("_pow", "(t+i)^2.5"),
    ("_pow", "(t-i)^-0.5"),
    ("_sqrt", "sqrt(t)"),
    ("_sqrt", "sqrt(t+i)"),
    ("_log", "log(t)"),
    ("_log", "log(t+3+i)"),
    ("_exp", "exp(t)"),
    ("_exp", "exp(0.3*t+i*t)"),
    ("_sin", "sin(t)"),
    ("_sin", "sin(t+i)"),
    ("_cos", "cos(t)"),
    ("_cos", "cos(t*(1+0.5*i))"),
]
_REFUSABLE = {"t^-2", "t^2.5", "t^-0.5", "sqrt(t)", "log(t)"}


def _code(text):
    e = parse(text)
    return ScaleFunction(e, differentiate(e))


def _holds(box, v) -> bool:
    xl, xh, yl, yh = box
    return xl <= v.real <= xh and yl <= v.imag <= yh


def test_every_box_rule_has_an_expression():
    assert {op for op, _ in _BOX_OPS} == set(expr._BOX)
    for op, text in _BOX_OPS:
        prog = expr._Program()
        assert prog.steps[prog.node(parse(text))][0] == op


@pytest.mark.parametrize("op, text", _BOX_OPS, ids=[text for _, text in _BOX_OPS])
@settings(deadline=None)  # the example count is the active profile's (tests/conftest.py)
@given(
    a=st.floats(-6, 6),
    width=st.one_of(st.just(0.0), st.floats(0, 3), st.floats(-40, 0).map(lambda x: 2.0**x)),
    inside=st.lists(st.floats(0, 1), max_size=8),
)
def test_the_box_holds_the_value_at_every_float_of_its_segment(op, text, a, width, inside):
    # value at both ends of [a, b], at 12 evenly spaced floats and at up to
    # 8 random floats of it lies in the box
    code = _code(text)
    b = a + width
    box = code.box(a, b)
    if box is None and text in _REFUSABLE:
        return
    assert box is not None and box[0] <= box[1] and box[2] <= box[3]
    spread = [a + (b - a) * k / 11 for k in range(12)] + [a + (b - a) * u for u in inside]
    for x in [a, b] + [min(max(x, a), b) for x in spread]:
        assert _holds(box, code._compiled("value")(complex(x))), (x, box)


_PINNED = sorted(
    {
        pin["argv"][k + 1]
        for pin in json.loads(pathlib.Path(__file__).with_name("cli_stdout_pins.json").read_text(encoding="utf-8"))
        for k, word in enumerate(pin["argv"])
        if word in ("--p", "--q")
    }
)


@pytest.mark.parametrize(
    "text",
    _PINNED
    + [family(1.25, -0.75, 2.5, 0.45) for family in _FAMILIES]
    + [family(-3.1, 2.2, -0.5, -1.7) for family in _FAMILIES],
)
def test_the_box_of_a_point_holds_its_value_and_is_refused_where_value_fails(text):
    # at a = b the box holds value's own bits, which its rules compute by
    # other formulas (Smith's quotient, cmath's log and powers), so only the
    # widening holds them; where value raises or is not finite, the box is
    # refused
    code = _code(text)
    for x in (0.0, -0.0, 0.5, -2.25, 3.3, 17.0, -40.5, 1e-300, 750.0):
        box = code.box(x, x)
        try:
            v = code._compiled("value")(complex(x))
        except ChronologError:
            assert box is None, (x, box)
            continue
        if not cmath.isfinite(v):
            assert box is None, (x, box)
        elif box is not None:
            assert _holds(box, v), (x, v, box)


@pytest.mark.parametrize(
    "text, a, b",
    [
        # a divisor's box holds 0
        ("1/t", -1.0, 1.0),
        ("(t+2)/(t-1)", 0.5, 1.5),
        ("(t-0.1)^-3", -0.5, 0.5),
        # a log, sqrt or fractional power whose box meets (-inf, 0], or
        # log's zero
        ("log(t)", -1.0, 1.0),
        ("log(t+3)", -4.0, 0.0),
        ("log(t)", 0.0, 1.0),
        ("sqrt(t)", -2.0, 0.5),
        ("sqrt(t-1)", 0.0, 2.0),
        ("t^0.5", -0.5, 0.5),
        ("t^-1.5", -3.0, -2.0),
        ("log(t)", -3.0, -1.0),
        ("sqrt(t-5)", 0.0, 2.0),
        ("(t+i*1e-20)^0.5", -2.0, -1.0),
        # a line that raises (OverflowError, ZeroDivisionError), and an
        # endpoint that is not finite
        ("exp(t)", 800.0, 801.0),
        ("1/t", 0.0, 0.0),
        ("cos(i*t)", 700.0, 720.0),
        ("t*1e300*1e300", 1.0, 2.0),
        ("1e400+t", 0.0, 1.0),
    ],
)
def test_a_box_that_meets_a_singularity_or_raises_is_refused(text, a, b):
    assert _code(text).box(a, b) is None


def test_an_op_with_no_rule_is_refused(monkeypatch):
    monkeypatch.setattr(expr, "_BOX", {op: rule for op, rule in expr._BOX.items() if op != "_sin"})
    assert _code("sin(t)+3").box(0.5, 0.6) is None
    assert _holds(_code("cos(t)+3").box(0.5, 0.6), cmath.cos(0.55) + 3)
