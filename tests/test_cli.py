import cmath
import json
import math
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import chronolog
from chronolog.cli import _walk_points, main
from chronolog.errors import UnboundedWindow
from chronolog.timescale import UniformGrid, parse_timescale


@pytest.fixture
def run(capsys, monkeypatch):
    monkeypatch.delenv("CHRONOLOG_TOL", raising=False)

    def _run(*argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return _run


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_cubed_on_union_window(run):
    rc, out, err = run(
        "eval",
        "--timescale", "union:[-inf,-4];[2,inf]",
        "--p", "t^3",
        "--s", "-5",
        "--t", "3",
        "--variant", "delta-principal",
    )
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["variant"] == "delta-principal"
    assert payload["rep_re"] == pytest.approx(math.log(27.0 / 125.0), abs=1e-9)
    assert payload["rep_im"] == pytest.approx(math.pi, abs=1e-9)
    assert payload["period"] == "none"
    assert payload["scattered_contributed"] is True


def test_eval_constant_gives_zero(run):
    rc, out, _ = run(
        "eval", "--timescale", "r", "--p", "5", "--s", "0", "--t", "1",
        "--variant", "delta-multi",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["rep_re"] == pytest.approx(0.0, abs=1e-12)
    assert payload["rep_im"] == pytest.approx(0.0, abs=1e-12)
    assert payload["period"] == "2pi*i"
    assert payload["scattered_contributed"] is False


def test_eval_cayley_vanishing_mean_exits_3(run):
    rc, out, err = run(
        "eval", "--timescale", "hz:1", "--p", "t-0.5", "--s", "0", "--t", "1",
        "--variant", "cayley-principal",
    )
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == "CayleyNotRegressive"


def test_eval_identity_on_unit_grid(run):
    rc, out, _ = run(
        "eval", "--timescale", "hz:1", "--p", "t", "--s", "1", "--t", "4",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["rep_re"] == pytest.approx(math.log(4.0), rel=1e-12)
    assert payload["rep_im"] == pytest.approx(0.0, abs=1e-12)
    assert payload["scattered_contributed"] is True


def test_eval_eta_variant(run):
    rc, out, _ = run(
        "eval", "--timescale", "hz:1", "--p", "t+10", "--s", "0", "--t", "4",
        "--variant", "eta:0.25",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["variant"] == "eta:0.25"
    assert payload["rep_re"] == pytest.approx(math.log(1.4), rel=1e-9)


def test_eval_csv_format(run):
    rc, out, _ = run(
        "eval", "--timescale", "hz:1", "--p", "t", "--s", "1", "--t", "4",
        "--format", "csv",
    )
    assert rc == 0
    head, row, tail = out.split("\n")
    assert head == "variant,rep_re,rep_im,period,scattered_contributed"
    cells = row.split(",")
    assert cells[0] == "delta-multi"
    assert float(cells[1]) == pytest.approx(math.log(4.0), rel=1e-12)
    assert cells[4] == "true"
    assert tail == ""


@pytest.mark.parametrize(
    "scale, p, s, t",
    [
        pytest.param("hz:1", "t", "0.5", "4", id="off-grid"),
        # the grid index of 1e308 is beyond float range
        pytest.param("hz:0.5", "t^2+1", "0", "1e308", id="hz-index-overflow"),
        pytest.param("alt:0.1,0.2", "t^2+1", "0", "1e308", id="alt-index-overflow"),
        # from 2^53 on, the points of hz:0.5 are closer than float spacing
        pytest.param("hz:0.5", "t^2+1", "9007199254740992", "9007199254740996", id="below-resolution"),
    ],
)
def test_eval_point_outside_scale_exits_2(run, scale, p, s, t):
    rc, out, err = run("eval", "--timescale", scale, "--p", p, "--s", s, "--t", t)
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "PointNotInScale"
    assert err.count("\n") == 1  # single line


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_eval_window_beyond_jump_cap_exits_2():
    # 10^9 jumps: if the cap failed, the window would fill memory, so the
    # CLI runs in a child process with a time and an address-space limit
    src = pathlib.Path(chronolog.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "chronolog.cli", "eval", "--timescale", "hz:1e-6",
         "--p", "t+2", "--s", "1", "--t", "1000"],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "UnboundedWindow"


def test_eval_window_cap_message_writes_the_count_short(run):
    # 10^300 jumps: the count is written as the table cap writes its rows,
    # 1e+300, not as 301 digits
    rc, out, err = run("eval", "--timescale", "hz:1", "--p", "t^2+1", "--s", "0", "--t", "1e300")
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == "UnboundedWindow"
    assert "jumps 1e+300 gaps" in json.loads(err)["message"]
    assert len(err.encode()) < 200


def test_eval_window_cap_message_writes_every_digit_of_the_count(run):
    # one gap past the cap: the count is written whole, not rounded to 1e+06
    rc, out, err = run("eval", "--timescale", "hz:1", "--p", "t+2", "--s", "0", "--t", "1000001")
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == "UnboundedWindow"
    assert "jumps 1000001 gaps" in json.loads(err)["message"]


def test_table_cap_counts_rows_not_gaps():
    # 10^6 gaps join 10^6 + 1 rows, one past the cap
    with pytest.raises(UnboundedWindow, match="the table has 1000001 rows"):
        _walk_points(UniformGrid(1.0), 0, 10**6, None)


@pytest.mark.parametrize(
    "scale, start, stop, step",
    [
        ("union:[0,1];[2,3]", 0, 3, 0.25),
        ("r", 0, 1, 0.1),
        ("r", 0.1, 7.7, 0.3),
        ("hz:0.5", 0, 4, None),
        ("union:[-1,0];[0.5,2]", -1, 2, 1 / 3),
        # a step below the float spacing: 101 rows, not 1600002 tries
        ("r", 1e17, 1e17 + 1600, 1e-3),
    ],
)
def test_table_cap_counts_the_rows_it_builds(monkeypatch, scale, start, stop, step):
    # a cap of the row count admits the table; one less refuses it, naming the count
    ts = parse_timescale(scale)
    rows = len(_walk_points(ts, start, stop, step))
    monkeypatch.setattr("chronolog.cli.MAX_WINDOW_JUMPS", rows)
    assert len(_walk_points(ts, start, stop, step)) == rows
    monkeypatch.setattr("chronolog.cli.MAX_WINDOW_JUMPS", rows - 1)
    with pytest.raises(UnboundedWindow, match=f"the table has {rows} rows, more than {rows - 1}"):
        _walk_points(ts, start, stop, step)


def test_table_below_the_float_spacing_has_its_rows_not_its_tries(run):
    # the tries 1e17 + k*0.001 round onto the 101 floats of [1e17, 1e17 + 1600],
    # 16 apart: the table has those rows, each once, and a cap between the
    # rows and the tries admits it
    argv = ["table", "--timescale", "r", "--p", "t", "--quantity", "logderiv", "--format", "json", "--from", "1e17"]
    rc, out, err = run(*argv, "--to", "1.000000000000016e17", "--step", "1e-3")
    assert (rc, err) == (0, "")
    assert [row["t"] for row in json.loads(out)] == [1e17 + 16 * k for k in range(101)]
    # past the cap by the rows, the refusal says so without walking every try
    rc, out, err = run(*argv, "--to", "1.00016e17", "--step", "1e-3")
    assert (rc, out) == (2, "")
    assert json.loads(err)["message"].startswith("the table has more rows than 1000000")


@pytest.mark.parametrize(
    "p, eta, twin, value",
    [
        ("1+1e13*t", "eta:0", "delta-principal", 29.933606208922694),
        ("1e13*(1-t)+1", "eta:1", "nabla-principal", -29.933606208922694),
    ],
)
def test_eval_eta_endpoint_accepts_what_its_twin_accepts(run, p, eta, twin, value):
    # |h*z| = 1e13: the constant factor 1 of the eta map at 0 or 1 used to
    # fall under the relative guard and exit 3
    argv = ["eval", "--timescale", "set:0,1", "--p", p, "--s", "0", "--t", "1", "--variant"]
    for variant in (eta, twin):
        rc, out, err = run(*argv, variant)
        assert (rc, err) == (0, "")
        assert json.loads(out)["rep_re"] == value


@pytest.mark.parametrize(
    "scale, p, variant, error",
    [
        ("set:0,1,2", "1-2*t", "cayley-principal", "CayleyNotRegressive"),
        ("hz:1", "1-4*t", "eta:0.25", "EtaNotRegressive"),
        ("hz:1", "t-1", "nabla-multi", "NonvanishingViolation"),
    ],
)
def test_eval_jump_error_names_its_gap(run, scale, p, variant, error):
    rc, out, err = run("eval", "--timescale", scale, "--p", p, "--s", "0", "--t", "2", "--variant", variant)
    assert rc == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == error
    assert payload["message"].endswith(" on the gap after tau=0.0")


@pytest.mark.parametrize(
    "scale, p, t, error, piece",
    [
        ("r", "t-0.5", "1", "NonvanishingViolation", "[0.0, 1.0]"),
        ("r", "2+sin(1e6*t)", "0.5", "QuadratureFailure", "[0.0, 0.5]"),
        ("union:[0,1];[2,3]", "t-2.5", "3", "NonvanishingViolation", "[2.0, 3.0]"),
    ],
)
def test_eval_piece_error_names_its_piece(run, scale, p, t, error, piece):
    rc, out, err = run("eval", "--timescale", scale, "--p", p, "--s", "0", "--t", t)
    assert rc == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == error
    assert payload["message"].endswith(f" on the piece {piece}")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--timescale", "union:[0,1];[2,3]", "--p", "t+1", "--s", "0.5", "--t", "3"],
        ["legacy", "--timescale", "hz:1", "--kind", "huff", "--t0", "1", "--t", "4"],
        *(
            ["table", "--timescale", scale, "--p", "t+1", "--quantity", quantity,
             "--from", "0.5", "--to", "3", "--step", "0.25", "--format", "json"]
            for scale in ("union:[0,1];[2,3]", "hz:0.5")
            for quantity in ("log", "logderiv")
        ),
    ],
    ids=["eval", "legacy-huff", "table-log-union", "table-logderiv-union", "table-log-hz", "table-logderiv-hz"],
)
def test_cli_walks_its_window_without_decomposing(run, argv):
    # the walk streams the scale's pieces, whether the window has jumps comes
    # from the piece indices of its two ends, and a table lists its rows from
    # the clipped pieces; the library has no call that builds a window's
    # segments
    rc, out, err = run(*argv)
    assert (rc, err) == (0, "")
    if argv[0] != "table":
        assert json.loads(out)["scattered_contributed"] is True


@pytest.mark.parametrize(
    "scale, s, t, scattered",
    [
        ("hz:1", "0", "5", True),
        ("hz:1", "5", "0", True),
        ("hz:1", "3", "3", False),
        ("r", "0", "5", False),
        ("union:[0,1];[2,3]", "2.25", "2.75", False),
        ("union:[0,1];[2,3]", "1", "2", True),
        ("union:[0,1];[2,3]", "2", "1", True),
    ],
    ids=["grid", "grid-reversed", "grid-empty", "reals", "union-one-interval", "union-across-gap",
         "union-across-gap-reversed"],
)
def test_eval_scattered_flag(run, scale, s, t, scattered):
    # a window has jumps when its two ends lie in different pieces of the
    # scale, whichever way it runs
    rc, out, err = run("eval", "--timescale", scale, "--p", "t+10", "--s", s, "--t", t)
    assert (rc, err) == (0, "")
    assert json.loads(out)["scattered_contributed"] is scattered


def test_eval_bad_expression_exits_2(run):
    rc, _, err = run(
        "eval", "--timescale", "r", "--p", "t++", "--s", "1", "--t", "2",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "ExprSyntaxError"


def test_eval_deep_expression_exits_2(run):
    # 1,500 terms (2,999 characters) fit the source limit but not the depth
    p = "+".join(["t"] * 1500)
    rc, out, err = run("eval", "--timescale", "hz:1", "--p", p, "--s", "0", "--t", "1")
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "DepthExceeded"


def test_eval_bad_variant_exits_2(run):
    rc, _, err = run(
        "eval", "--timescale", "r", "--p", "t", "--s", "1", "--t", "2",
        "--variant", "sideways",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "ValidationError"
    rc, _, err = run(
        "eval", "--timescale", "r", "--p", "t", "--s", "1", "--t", "2",
        "--variant", "eta:abc",
    )
    assert rc == 2
    assert json.loads(err) == {"error": "ValidationError", "message": "bad eta value in variant 'eta:abc'"}


def test_eval_vanishing_p_exits_3(run):
    rc, _, err = run(
        "eval", "--timescale", "hz:1", "--p", "t-2", "--s", "0", "--t", "4",
    )
    assert rc == 3
    assert json.loads(err)["error"] == "NonvanishingViolation"


def test_eval_overflow_exits_3(run):
    rc, _, err = run(
        "eval", "--timescale", "r", "--p", "exp(t^3)", "--s", "1", "--t", "200",
    )
    assert rc == 3
    payload = json.loads(err)
    assert payload["error"] in ("NonFiniteValue", "NonFiniteIntegrand")


@pytest.mark.parametrize(
    "p, s, t, error",
    [
        pytest.param("(t*1e300)^2+1", "0", "2", "NonFiniteValue", id="overflow"),
        pytest.param("(t*1e-300)^(-2)", "1", "3", "EvalDomain", id="division-by-zero"),
    ],
)
def test_eval_integer_power_failure_exits_3(run, p, s, t, error):
    rc, out, err = run("eval", "--timescale", "hz:1", "--p", p, "--s", s, "--t", t)
    assert rc == 3 and out == ""
    assert json.loads(err)["error"] == error


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_default_suite_passes(run):
    rc, out, _ = run(
        "check", "--timescale", "hz:1", "--p", "t^2+1", "--q", "t+3",
        "--s", "0", "--t", "6",
    )
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 11
    names = [r["identity"] for r in rows]
    assert names == sorted(names)
    assert {"cayley-principal", "product-rule", "quotient-rule", "power-rule"} <= set(names)
    assert sum(name.startswith("eta-") for name in names) == 5
    for r in rows:
        assert r["pass"] is True
        assert r["residual"] < 1e-8


def test_check_passes_where_tau_plus_mu_rounds_off_the_scale(run):
    # at 2.5^k for large k, tau + mu is not the stored successor, and p turns
    # a full circle every 2*pi; the exponential round trip reads the stored one
    rc, out, _ = run(
        "check", "--timescale", "q:2.5", "--p", "exp(i*t)+0.5", "--q", "exp(2*i*t)+2",
        "--s", "1", "--t", repr(2.5**40),
    )
    assert rc == 0
    assert all(r["pass"] for r in json.loads(out))


def test_check_csv_format(run):
    rc, out, _ = run(
        "check", "--timescale", "hz:1", "--p", "t^2+1", "--q", "t+3",
        "--s", "0", "--t", "6", "--format", "csv",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "identity,lhs_re,lhs_im,rhs_re,rhs_im,residual,lattice_k,pass"
    assert len(lines) == 12
    assert all(line.endswith(",true") for line in lines[1:])


def test_check_tol_flag_reaches_quadrature(run):
    # no piece can meet a tolerance of 1e-300 within MAX_QUAD_SAMPLES, so
    # the flag's value must be the one the integrator was given: the
    # definition walk of exp(i*t)+2 integrates its piece to it (the
    # theorem's logs need only a loose integral, and succeed)
    rc, out, err = run(
        "check", "--timescale", "r", "--p", "exp(i*t)+2", "--q", "sin(t)+3",
        "--s", "0", "--t", "6", "--tol", "1e-300",
    )
    assert rc == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "QuadratureFailure"
    assert "above tol 1e-300 after" in payload["message"]


def test_check_raises_at_the_definition_walks_first_failing_jump(run):
    # p = 1, -3, 3: (1-eta)p + eta*p_sigma vanishes for eta = 1/4 on the
    # first gap and for Cayley on the second.  The definition's rows share
    # one walk, which raises at the first failing jump, where one walk per
    # row raised at the Cayley walk's gap
    rc, out, err = run(
        "check", "--timescale", "set:0,1,2", "--p", "5*t^2-9*t+1", "--q", "t+3",
        "--s", "0", "--t", "2",
    )
    assert rc == 3 and out == ""
    assert json.loads(err) == {
        "error": "EtaNotRegressive",
        "message": "(1-eta)p + eta*p_sigma vanishes for eta=0.25 on the gap after tau=0.0",
    }


def test_check_fractional_alpha_complex_p_exits_2(run):
    rc, _, err = run(
        "check", "--timescale", "hz:1", "--p", "t+3*i", "--q", "t+10",
        "--s", "0", "--t", "5", "--alpha", "0.5",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "ValidationError"


def test_check_fractional_alpha_is_an_input_error_before_any_walk(run):
    # p = t - 0.5 is not positive real on the window, and its Cayley mean
    # (p + p_sigma)/2 vanishes on the gap after 0: the input error comes
    # first, with nothing on stdout
    rc, out, err = run(
        "check", "--timescale", "hz:1", "--p", "t-0.5", "--q", "t+3",
        "--s", "-1", "--t", "5", "--alpha", "0.5",
    )
    assert rc == 2 and out == ""
    assert json.loads(err) == {
        "error": "ValidationError",
        "message": "power rule with non-integer alpha needs p positive real on the window",
    }


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_check_non_finite_alpha_exits_2(run, alpha):
    # a non-finite exponent is an input error, not an int() failure mid-suite
    rc, out, err = run(
        "check", "--timescale", "hz:1", "--p", "t+3*i", "--q", "t+10",
        "--s", "0", "--t", "5", "--alpha", alpha,
    )
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "ValidationError"


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_figure_one_data(run):
    rc, out, _ = run(
        "table", "--timescale", "hz:1", "--p", "t", "--quantity", "logderiv",
        "--from", "1", "--to", "50",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,value_re,value_im,quotient_re,quotient_im"
    assert len(lines) == 51
    for line in lines[1:]:
        t, v_re, v_im, q_re, q_im = (float(c) for c in line.split(","))
        if t == 50.0:
            continue  # last row keeps the window endpoint for context
        assert v_re == pytest.approx(math.log(1 + 1 / t), rel=1e-12)
        assert q_re == pytest.approx(1 / t, rel=1e-12)
        assert 0.0 < v_re < q_re
        assert q_re - v_re < 1.0 / (2 * t * t)
        assert v_im == 0.0 and q_im == 0.0


def test_table_alternating_two_case_rows(run):
    rc, out, _ = run(
        "table", "--timescale", "alt:1,2", "--p", "t", "--quantity", "logderiv",
        "--from", "1", "--to", "9",
    )
    assert rc == 0
    rows = {}
    for line in out.strip().split("\n")[1:]:
        cells = [float(c) for c in line.split(",")]
        rows[cells[0]] = cells[1]
    assert rows[3.0] == pytest.approx(math.log(1 + 1 / 3.0), rel=1e-12)
    assert rows[4.0] == pytest.approx(0.5 * math.log(1 + 2 / 4.0), rel=1e-12)


def test_table_constant_p_zero_columns(run):
    rc, out, _ = run(
        "table", "--timescale", "hz:1", "--p", "7", "--quantity", "logderiv",
        "--from", "0", "--to", "5",
    )
    assert rc == 0
    for line in out.strip().split("\n")[1:]:
        cells = [float(c) for c in line.split(",")]
        assert cells[1:] == [0.0, 0.0, 0.0, 0.0]


def test_table_window_log_quantity(run):
    rc, out, _ = run(
        "table", "--timescale", "hz:1", "--p", "t+10", "--quantity", "log",
        "--from", "0", "--to", "4",
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,value_re,value_im"
    last = lines[-1].split(",")
    assert float(last[0]) == 4.0
    assert float(last[1]) == pytest.approx(math.log(1.4), rel=1e-12)


@pytest.mark.parametrize(
    "spec, step",
    [("hz:1", []), ("union:[0,1];[1.5,1.5];[2,4]", ["--step", "0.25"])],
)
def test_table_log_rows_below_the_base(run, spec, step):
    # --s inside [--from, --to]: one walk up from --from through the base
    # gives the rows on both sides of it
    base = 2.5 if step else 3.0
    rc, out, _ = run(
        "table", "--timescale", spec, "--p", "(t-1-2*i)^3", "--quantity", "log",
        "--from", "0", "--to", "4", "--s", str(base), *step,
    )
    assert rc == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    below = [row for row in rows if float(row[0]) < base]
    assert len(below) >= 3
    assert ["0", "0"] in [row[1:] for row in rows if float(row[0]) == base]
    for cells in rows:
        u, value = float(cells[0]), complex(float(cells[1]), float(cells[2]))
        d = value - cmath.log(((u - 1 - 2j) / (base - 1 - 2j)) ** 3)
        k = round(d.imag / (2 * math.pi))
        assert abs(d - 2j * math.pi * k) <= 1e-8


def test_table_log_is_one_walk(run, monkeypatch):
    # a walk per row evaluates p about rows^2 times; one walk through the
    # rows and the base evaluates it once per point, the base once too
    # where it lies among the rows
    evaluate = chronolog.ScaleFunction.__call__

    def counting(self, t):
        nonlocal calls
        calls += 1
        return evaluate(self, t)

    monkeypatch.setattr(chronolog.ScaleFunction, "__call__", counting)
    for base in ([], ["--s", "500"]):
        calls = 0
        rc, out, _ = run(
            "table", "--timescale", "hz:1", "--p", "t^2+1", "--quantity", "log",
            "--from", "0", "--to", "999", *base,
        )
        assert rc == 0
        assert len(out.strip().split("\n")) == 1 + 1000
        assert calls == 1000, base


@pytest.mark.parametrize(
    "spec, p, lo, hi, step",
    [
        ("hz:0.5", "(t-1-2*i)^3", "0", "6", []),
        ("q:1.5", "(t-1-2*i)^3", "1", "25.62890625", []),
        ("alt:0.3,0.7", "exp(i*t)+0.5", "0", "6", []),
        ("set:-5,-4,-1.5,0.5,2,2.25,4,7", "1-t+i*t^2", "-5", "7", []),
        ("union:[0,1];[1.5,1.5];[2,4]", "exp(i*t)+2", "0", "4", ["--step", "0.25"]),
        ("r", "exp(i*3*t)+0.5", "0", "4", ["--step", "0.25"]),
    ],
    ids=["hz", "q", "alt", "set", "union", "r"],
)
@pytest.mark.parametrize("variant", ["delta-principal", "nabla-multi"])
def test_table_log_rows_are_the_eval_values_of_their_windows(run, spec, p, lo, hi, step, variant):
    # a base in the middle of the range: every row, below the base too, is
    # what `eval --s B --t u` prints, float for float
    argv = ["table", "--timescale", spec, "--p", p, "--quantity", "log", "--from", lo, "--to", hi, *step]
    rc, out, _ = run(*argv, "--format", "json")
    assert rc == 0
    points = [row["t"] for row in json.loads(out)]
    base = points[len(points) // 2]
    rc, out, _ = run(*argv, "--format", "json", "--s", repr(base), "--variant", variant)
    assert rc == 0
    rows = json.loads(out)
    assert [row["t"] for row in rows] == points
    assert sum(u < base for u in points) >= 3
    for row in rows:
        rc, out, _ = run("eval", "--timescale", spec, "--p", p, "--s", repr(base), "--t", repr(row["t"]), "--variant", variant)
        assert rc == 0
        point = json.loads(out)
        assert (row["value"]["re"].hex(), row["value"]["im"].hex()) == (point["rep_re"].hex(), point["rep_im"].hex()), row


@pytest.mark.parametrize(
    "args, option",
    [
        (["--variant", "bogus"], "--variant"),
        (["--variant", "delta-principal"], "--variant"),
        (["--s", "2"], "--s"),
        (["--s", "1"], "--s"),
        (["--s", "2", "--variant", "delta-multi"], "--s"),
    ],
)
@pytest.mark.parametrize("quantity", [[], ["--quantity", "logderiv"]], ids=["default", "logderiv"])
def test_table_logderiv_refuses_the_log_options(run, quantity, args, option):
    # a log derivative has no base and no variant: either option is refused
    # before any row, even where its value is the log table's default
    rc, out, err = run("table", "--timescale", "hz:1", "--p", "t^2+1", *quantity, "--from", "1", "--to", "3", *args)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "ValidationError", "message": f"{option} applies to --quantity log only"}


def test_table_log_defaults_to_delta_principal_from_the_first_row(run):
    argv = ["table", "--timescale", "hz:1", "--p", "t^2+1", "--quantity", "log", "--from", "1", "--to", "3"]
    assert run(*argv) == run(*argv, "--s", "1", "--variant", "delta-principal")
    rc, _, err = run(*argv, "--variant", "bogus")
    assert rc == 2 and json.loads(err)["error"] == "ValidationError"


def test_table_json_format(run):
    rc, out, _ = run(
        "table", "--timescale", "hz:1", "--p", "t", "--quantity", "logderiv",
        "--from", "1", "--to", "3", "--format", "json",
    )
    assert rc == 0
    rows = json.loads(out)
    assert [r["t"] for r in rows] == [1.0, 2.0, 3.0]
    assert rows[0]["value"]["re"] == pytest.approx(math.log(2.0), rel=1e-12)
    assert "quotient" in rows[0]


def test_table_continuous_needs_step(run):
    rc, _, err = run(
        "table", "--timescale", "r", "--p", "t", "--quantity", "logderiv",
        "--from", "1", "--to", "2",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "ValidationError"
    rc, out, _ = run(
        "table", "--timescale", "r", "--p", "t", "--quantity", "logderiv",
        "--from", "1", "--to", "2", "--step", "0.5",
    )
    assert rc == 0
    ts = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    assert ts == [1.0, 1.5, 2.0]


@pytest.mark.parametrize("step", ["0", "-1", "nan", "-inf"])
@pytest.mark.parametrize(
    "scale, start, stop",
    [("hz:1", "0", "2"), ("set:0,1,2.5", "0", "2.5"), ("union:[0,0];[1,1];[2,3]", "0", "1")],
    ids=["grid", "set", "union-without-stretch"],
)
def test_table_step_must_be_positive_on_every_scale(run, scale, start, stop, step):
    # the step is checked whenever it is given, also where no continuous
    # stretch would use it
    rc, out, err = run(
        "table", "--timescale", scale, "--p", "t+1", "--from", start, "--to", stop, f"--step={step}",
    )
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "ValidationError", "message": "--step must be positive"}


@pytest.mark.parametrize(
    "args, error",
    [
        (["--p", "t-2", "--quantity", "logderiv"], "NonvanishingViolation"),
        (["--p", "t-2", "--quantity", "log"], "NonvanishingViolation"),
        (
            ["--p", "t-0.5", "--quantity", "log", "--variant", "cayley-principal"],
            "CayleyNotRegressive",
        ),
    ],
    ids=["logderiv-vanishing", "log-vanishing", "log-cayley-mean-vanishing"],
)
def test_table_no_partial_output_on_failure(run, args, error):
    # the walk fails part-way (p vanishes at t = 2, or the Cayley mean
    # (p(0) + p(1))/2 does); nothing must be printed
    rc, out, err = run("table", "--timescale", "hz:1", "--from", "0", "--to", "4", *args)
    assert rc == 3
    assert out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize(
    "argv, message",
    [
        # p(1)/p(0) = 1e310 overflows: the log derivative's jump at t = 0 raises
        # what the window log over [0, 1] raises, named at its gap
        (
            ["table", "--timescale", "hz:1", "--p", "1e300*t+1e-10", "--quantity", "logderiv", "--from", "0", "--to", "2"],
            "the jump ratio p_sigma/p = (inf+0j) is not finite and nonzero on the gap after tau=0.0",
        ),
        (
            ["legacy", "--timescale", "set:0,1", "--kind", "jackson", "--p", "1e300*t+1e-10", "--t", "0"],
            "the quotient pDelta/p = (inf+0j) is not finite at t=0.0",
        ),
        (
            ["legacy", "--timescale", "set:0,1", "--kind", "jackson", "--p", "1e300*t+1e-10", "--t", "0", "--format", "csv"],
            "the quotient pDelta/p = (inf+0j) is not finite at t=0.0",
        ),
        # the ratio e^23 and its Log / 1e-300 are finite, (e^23 - 1) / 1e-300 is not:
        # only the table's quotient column fails
        (
            ["table", "--timescale", "set:0,1e-300", "--p", "exp(2.3e301*t)", "--quantity", "logderiv", "--from", "0", "--to", "0"],
            "the quotient pDelta/p = (inf+nanj) is not finite at t=0.0",
        ),
    ],
    ids=["table-logderiv-ratio", "legacy-jackson", "legacy-jackson-csv", "table-quotient-column"],
)
def test_a_pointwise_result_that_is_not_finite_exits_3(run, argv, message):
    # a value that would print as inf, nan or Infinity (not JSON) raises
    # instead, naming its point, and nothing reaches stdout
    rc, out, err = run(*argv)
    assert (rc, out) == (3, "")
    assert not any(word in out for word in ("inf", "nan", "Infinity"))
    assert json.loads(err) == {"error": "NonFiniteIntegrand", "message": message}


def test_a_sum_that_overflows_exits_3_naming_its_gap(run):
    # the jump's quotient pDelta/p = 5e298 is finite, but mu = 1e11 times it
    # overflows the sum, which would print as Infinity (not JSON)
    argv = ["--timescale", "set:0,1e11", "--kind", "integral-quotient", "--p", "2e-10+1e289*t"]
    rc, out, err = run("legacy", *argv, "--t0", "0", "--t", "1e11")
    assert (rc, out, len(err.splitlines())) == (3, "", 1)
    message = "the running sum (inf+0j) is not finite on the gap after tau=0.0"
    assert json.loads(err) == {"error": "NonFiniteIntegrand", "message": message}


def test_a_log_derivative_whose_factor_vanishes_exits_3_as_its_window_log_does(run):
    # p(1)/p(0) = e^-30 falls under the maps' guard, as xi(1, e^-30 - 1) does:
    # the log derivative at 0 raises what the window log over [0, 1] raises
    p = ["--timescale", "hz:1", "--p", "1e10*exp(-30*t)"]
    table = run("table", *p, "--quantity", "logderiv", "--from", "0", "--to", "0")
    window = run("eval", *p, "--s", "0", "--t", "1", "--variant", "delta-principal")
    for rc, out, err in (table, window):
        lines = err.splitlines()
        assert (rc, out, len(lines)) == (3, "", 1)
        assert json.loads(lines[0])["error"] == "NotRegressive"
    assert table[2] == window[2]


@pytest.mark.parametrize(
    "args, count",
    [
        (["--from", "0", "--to", "1", "--step", "1e-8"], "100000001 rows"),
        # below the float spacing of the start, k*step would not move it: the
        # rows are too many even at their widest, step + 4 ulps = 65 apart
        (["--from", "1e17", "--to", "2e17", "--step", "1"], "more rows than 1000000"),
        (["--from", "0", "--to", "1", "--step", "1e-320"], "more rows than 1000000"),
    ],
    ids=["small-step", "step-below-spacing", "subnormal-step"],
)
def test_table_rows_beyond_the_cap_exit_2(args, count):
    # the rows are counted before any is built: in a child process with a
    # time and an address-space limit, building them would fail or hang
    src = pathlib.Path(chronolog.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "chronolog.cli", "table", "--timescale", "r", "--p", "t+3", *args],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    payload = json.loads(proc.stderr)
    assert payload["error"] == "UnboundedWindow"
    assert count in payload["message"]


def test_table_reversed_range_exits_2(run):
    rc, _, err = run(
        "table", "--timescale", "hz:1", "--p", "t", "--quantity", "logderiv",
        "--from", "5", "--to", "1",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "ValidationError"


# ---------------------------------------------------------------------------
# legacy
# ---------------------------------------------------------------------------


def test_legacy_huff_json(run):
    rc, out, _ = run(
        "legacy", "--timescale", "r", "--kind", "huff", "--t0", "1", "--t", "7",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["variant"] == "legacy-huff"
    assert payload["rep_re"] == pytest.approx(math.log(7.0), abs=1e-9)
    assert payload["period"] == "none"


def test_legacy_mozyrska_ignores_t0(run):
    rc, out, _ = run(
        "legacy", "--timescale", "r", "--kind", "mozyrska", "--t", "5",
    )
    assert rc == 0
    assert json.loads(out)["rep_re"] == pytest.approx(math.log(5.0), abs=1e-9)


def test_legacy_mozyrska_needs_one_in_scale(run):
    rc, _, err = run(
        "legacy", "--timescale", "hz:2", "--kind", "mozyrska", "--t", "4",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "OneNotInScale"


def test_legacy_jackson_needs_p(run):
    rc, _, err = run(
        "legacy", "--timescale", "hz:1", "--kind", "jackson", "--t", "2",
    )
    assert rc == 2
    rc, out, _ = run(
        "legacy", "--timescale", "hz:1", "--kind", "jackson", "--p", "t^2", "--t", "2",
    )
    assert rc == 0
    assert json.loads(out)["rep_re"] == pytest.approx(1.25, rel=1e-12)


@pytest.mark.parametrize(
    "args, scattered",
    [
        pytest.param(("--timescale", "hz:1", "--kind", "mozyrska", "--t", "5"), True, id="mozyrska-grid"),
        pytest.param(("--timescale", "r", "--kind", "mozyrska", "--t", "5"), False, id="mozyrska-reals"),
        pytest.param(("--timescale", "hz:1", "--kind", "mozyrska", "--t", "1"), False, id="mozyrska-at-one"),
        pytest.param(("--timescale", "hz:1", "--kind", "jackson", "--p", "t", "--t", "2"), True, id="jackson-grid"),
        pytest.param(("--timescale", "union:[0,1];[2,3]", "--kind", "jackson", "--p", "t+1", "--t", "1"), True,
                     id="jackson-right-scattered"),
        pytest.param(("--timescale", "union:[0,1];[2,3]", "--kind", "jackson", "--p", "t+1", "--t", "0.5"), False,
                     id="jackson-dense"),
        pytest.param(("--timescale", "hz:1", "--kind", "huff", "--t0", "1", "--t", "4"), True, id="huff-grid"),
        pytest.param(("--timescale", "r", "--kind", "euler-cauchy", "--t0", "1", "--t", "4"), False,
                     id="euler-cauchy-reals"),
    ],
)
def test_legacy_scattered_flag(run, args, scattered):
    # mozyrska integrates over [1, t] and jackson is a quotient across the
    # gap to sigma(t); the others integrate over [t0, t]
    rc, out, _ = run("legacy", *args)
    assert rc == 0
    assert json.loads(out)["scattered_contributed"] is scattered


@pytest.mark.parametrize(
    "kind, args, option",
    [
        ("jackson", ["--p", "t^2+1", "--t0", "7"], "--t0"),
        ("mozyrska", ["--t0", "3"], "--t0"),
        ("huff", ["--t0", "1", "--p", "t"], "--p"),
        ("euler-cauchy", ["--t0", "1", "--p", "t"], "--p"),
        ("mozyrska", ["--p", "t"], "--p"),
        ("mozyrska", ["--p", "((("], "--p"),
    ],
)
def test_legacy_refuses_the_options_its_kind_does_not_read(run, kind, args, option):
    # before p is parsed: an option the kind ignores exits 2 naming it
    rc, out, err = run("legacy", "--timescale", "hz:1", "--kind", kind, "--t", "5", *args)
    assert (rc, out) == (2, "")
    kinds = {"--t0": "huff, euler-cauchy and integral-quotient", "--p": "integral-quotient and jackson"}[option]
    assert json.loads(err) == {"error": "ValidationError", "message": f"{option} applies to --kind {kinds} only"}


def test_legacy_huff_needs_t0(run):
    rc, _, err = run(
        "legacy", "--timescale", "r", "--kind", "huff", "--t", "7",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "ValidationError"


def test_legacy_unknown_kind(run):
    rc, _, err = run(
        "legacy", "--timescale", "r", "--kind", "proto", "--t", "7",
    )
    assert rc == 2
    assert "proto" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(("--timescale", "r", "--kind", "huff", "--t0", "0", "--t", "3"), id="huff"),
        pytest.param(("--timescale", "r", "--kind", "euler-cauchy", "--t0", "0", "--t", "3"), id="euler-cauchy"),
        pytest.param(("--timescale", "hz:1", "--kind", "mozyrska", "--t", "0"), id="mozyrska"),
    ],
)
def test_legacy_integrand_dividing_by_zero_exits_3(run, args):
    # each integrand's denominator is 0 at tau = 0
    rc, out, err = run("legacy", *args)
    assert rc == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "EvalDomain"
    assert "tau=0.0" in payload["message"]


# ---------------------------------------------------------------------------
# plumbing: determinism, tolerance sources, --out
# ---------------------------------------------------------------------------


def test_byte_identical_reruns(run):
    argv = (
        "check", "--timescale", "q:2", "--p", "t^2+1", "--q", "t+3",
        "--s", "1", "--t", "16", "--format", "csv",
    )
    _, first, _ = run(*argv)
    _, second, _ = run(*argv)
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


def test_tol_env_variable_used(run, monkeypatch):
    argv = (
        "check", "--timescale", "r", "--p", "exp(i*t)+2", "--q", "sin(t)+3",
        "--s", "0", "--t", "6",
    )
    monkeypatch.setenv("CHRONOLOG_TOL", "1e-300")
    rc_env, _, err = run(*argv)
    assert rc_env == 3  # a tolerance no piece can meet within the sample budget
    assert json.loads(err)["error"] == "QuadratureFailure"
    # explicit flag takes precedence over the environment
    rc_flag, out, _ = run(*argv, "--tol", "1e-10")
    assert rc_flag == 0
    assert all(r["pass"] for r in json.loads(out))


def test_a_loose_tol_leaves_eval_as_the_default(run):
    # --tol is the tolerance of integrals only; the log's winding search
    # keeps its own ladder, so a loose --tol changes no byte
    argv = ("eval", "--timescale", "r", "--p", "exp(53.1*i*t)+0.56", "--s", "0", "--t", "3")
    want = run(*argv)
    assert want[0] == 0
    assert run(*argv, "--tol", "0.5") == want


def test_tol_env_bad_value_exits_2(run, monkeypatch):
    monkeypatch.setenv("CHRONOLOG_TOL", "not-a-number")
    rc, _, err = run(
        "eval", "--timescale", "r", "--p", "t", "--s", "1", "--t", "2",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("tol", ["-1", "inf"])
def test_bad_tol_exits_2(run, tol):
    # an infinite tolerance accepts the first quadrature estimate, which on
    # this window has real part -0.4923 where the log's is -0.1507
    rc, out, err = run(
        "eval", "--timescale", "r", "--p", "exp(sin(t))+2", "--s", "0", "--t", "10",
        "--tol", tol,
    )
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "ValidationError"


def test_out_writes_file(run, tmp_path):
    target = tmp_path / "result.json"
    rc, out, _ = run(
        "eval", "--timescale", "hz:1", "--p", "t", "--s", "1", "--t", "4",
        "--out", str(target),
    )
    assert rc == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["rep_re"] == pytest.approx(math.log(4.0), rel=1e-12)


def test_out_unwritable_exits_2(run, tmp_path):
    target = tmp_path / "missing" / "result.json"
    rc, out, err = run(
        "eval", "--timescale", "hz:1", "--p", "t", "--s", "1", "--t", "4",
        "--out", str(target),
    )
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert "result.json" in payload["message"]
    assert err.count("\n") == 1


# the exact stdout of each command and quantity in both formats; the one
# renderer must reproduce these bytes
PINS = json.loads(pathlib.Path(__file__).with_name("cli_stdout_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("pin", PINS, ids=[pin["id"] for pin in PINS])
def test_stdout_bytes_are_pinned(run, pin):
    rc, out, err = run(*pin["argv"])
    assert (rc, err) == (0, "")
    assert out.encode("utf-8") == pin["stdout"].encode("utf-8")


def test_cli_imports_only_the_standard_library():
    # the runtime has no third-party dependencies: a fresh interpreter that
    # imports the CLI loads only standard-library modules and chronolog
    src = pathlib.Path(chronolog.__file__).resolve().parents[1]
    script = "import sys; before = set(sys.modules); import chronolog.cli; print(*sorted(set(sys.modules) - before))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "chronolog.cli" in loaded
    roots = {name.partition(".")[0] for name in loaded}
    assert roots - set(sys.stdlib_module_names) - {"chronolog"} == set()
    # nor the heavy modules that dataclasses pulls in
    assert {"dataclasses", "inspect", "ast", "dis"} & set(loaded) == set()
