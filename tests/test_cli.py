import json
import math

import pytest

from chronolog.cli import main


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


def test_eval_point_outside_scale_exits_2(run):
    rc, out, err = run(
        "eval", "--timescale", "hz:1", "--p", "t", "--s", "0.5", "--t", "4",
    )
    assert rc == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "PointNotInScale"
    assert err.count("\n") == 1  # single line


def test_eval_bad_expression_exits_2(run):
    rc, _, err = run(
        "eval", "--timescale", "r", "--p", "t++", "--s", "1", "--t", "2",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "ExprSyntaxError"


def test_eval_bad_variant_exits_2(run):
    rc, _, err = run(
        "eval", "--timescale", "r", "--p", "t", "--s", "1", "--t", "2",
        "--variant", "sideways",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "ValidationError"


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


def test_check_loose_quadrature_fails_rows(run):
    # a deliberately sloppy quadrature tolerance leaves residuals above
    # cmp_tol where the two sides integrate different curved functions
    rc, out, _ = run(
        "check", "--timescale", "r", "--p", "t^2+1", "--q", "sin(t)+3",
        "--s", "0", "--t", "6", "--tol", "1e-2",
    )
    rows = json.loads(out)
    assert rc == 1
    assert any(not r["pass"] for r in rows)
    assert any(r["pass"] for r in rows)  # report is complete, not truncated


def test_check_fractional_alpha_complex_p_exits_2(run):
    rc, _, err = run(
        "check", "--timescale", "hz:1", "--p", "t+3*i", "--q", "t+10",
        "--s", "0", "--t", "5", "--alpha", "0.5",
    )
    assert rc == 2
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


def test_table_no_partial_output_on_failure(run):
    # p vanishes at t = 2, inside the walk; nothing must be printed
    rc, out, err = run(
        "table", "--timescale", "hz:1", "--p", "t-2", "--quantity", "logderiv",
        "--from", "0", "--to", "4",
    )
    assert rc == 3
    assert out == ""
    assert json.loads(err)["error"] == "NonvanishingViolation"


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
        "check", "--timescale", "r", "--p", "t^2+1", "--q", "sin(t)+3",
        "--s", "0", "--t", "6",
    )
    monkeypatch.setenv("CHRONOLOG_TOL", "1e-2")
    rc_env, _, _ = run(*argv)
    assert rc_env == 1  # sloppy tolerance fails rows
    # explicit flag takes precedence over the environment
    monkeypatch.setenv("CHRONOLOG_TOL", "1e-2")
    rc_flag, _, _ = run(*argv, "--tol", "1e-10")
    assert rc_flag == 0


def test_tol_env_bad_value_exits_2(run, monkeypatch):
    monkeypatch.setenv("CHRONOLOG_TOL", "not-a-number")
    rc, _, err = run(
        "eval", "--timescale", "r", "--p", "t", "--s", "1", "--t", "2",
    )
    assert rc == 2
    assert json.loads(err)["error"] == "ValidationError"


def test_negative_tol_exits_2(run):
    rc, _, err = run(
        "eval", "--timescale", "r", "--p", "t", "--s", "1", "--t", "2",
        "--tol", "-1",
    )
    assert rc == 2


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
