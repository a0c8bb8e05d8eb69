"""Turning op specs into calls on chronolog, and checking what comes back.

chronolog is looked up at call time (``logexp.<name>``, ``cli.main``) so
that the tracer's wrappers, when installed, sit on every call.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import subprocess
import sys

import oracle

DISCRETE_SCALES = ("hz", "q", "alt", "set")


# ---------------------------------------------------------------------------
# in-process ops
# ---------------------------------------------------------------------------


def nabla_quotient(p):
    """The coefficient (tau, nu) -> pNabla(tau)/p(tau) for exp_nabla.

    exp_nabla samples its coefficient at left-scattered points with the gap
    below them, so the matching quotient is the backward one; the forward
    ``delta_quotient`` would not reproduce p(t)/p(s) there.
    """

    def coeff(tau: float, nu: float) -> complex:
        pv = p(tau)
        if nu > 0:
            return (pv - p(tau - nu)) / nu / pv
        return p.prime(tau) / pv

    return coeff


class InProcessOp:
    """One log_* or exp_* call with its inputs built and its answers known."""

    __slots__ = ("spec", "kind", "p", "ts", "s", "t", "eta", "expected")

    def __init__(self, spec: dict, p, ts):
        self.spec = spec
        self.kind = spec["kind"]
        self.p = p
        self.ts = ts
        self.s = spec["s"]
        self.t = spec["t"]
        self.eta = spec["eta"]
        self.expected: list[complex] = []

    def run(self, logexp):
        fn = getattr(logexp, self.kind)
        if self.kind == "log_eta":
            return fn(self.eta, self.p, self.ts, self.s, self.t)
        if self.kind == "exp_delta":
            return fn(logexp.delta_quotient(self.p), self.ts, self.s, self.t)
        if self.kind == "exp_nabla":
            return fn(nabla_quotient(self.p), self.ts, self.s, self.t)
        return fn(self.p, self.ts, self.s, self.t)

    def failure(self, result) -> str | None:
        return result_failure(self.kind, result, self.expected)


def expected_values(spec: dict) -> list[complex]:
    """Log(p(t)/p(s)) for logs; p(t)/p(s) and, on discrete scales, the
    product of factors for exps."""
    fam, s, t = spec["p"], spec["s"], spec["t"]
    if spec["kind"].startswith("log_"):
        return [oracle.log_ratio(fam, s, t)]
    out = [oracle.p_value(fam, t) / oracle.p_value(fam, s)]
    scale = spec["scale"]
    if scale["family"] in DISCRETE_SCALES:
        pts = oracle.points(scale, spec["i"], spec["j"])
        product = oracle.delta_product if spec["kind"] == "exp_delta" else oracle.nabla_product
        out.append(product(fam, pts))
    return out


def result_failure(kind: str, result, expected: list[complex]) -> str | None:
    value = getattr(result, "rep", result)  # MultiLog carries a representative
    if kind.startswith("log_"):
        return oracle.log_failure(value, expected[0])
    for e in expected:
        why = oracle.exp_failure(value, e)
        if why:
            return why
    return None


def build_in_process(specs: list[dict], timescale, calculus) -> list[InProcessOp]:
    """Parse every scale once and compile every p; the timed part of set-up."""
    scales = {}
    ops = []
    for spec in specs:
        text = spec["scale"]["spec"]
        if text not in scales:
            scales[text] = timescale.parse_timescale(text)
        ops.append(InProcessOp(spec, calculus.ScaleFunction.from_text(spec["p"]["text"]), scales[text]))
    return ops


def attach_expected(ops: list[InProcessOp]) -> None:
    """Work out every op's answers; kept out of the timed set-up."""
    for op in ops:
        op.expected = expected_values(op.spec)


# ---------------------------------------------------------------------------
# CLI ops
# ---------------------------------------------------------------------------


def build_cli_inputs(specs: list[dict], timescale, calculus) -> None:
    """Validate every generated scale and function the way the CLI will."""
    for spec in specs:
        timescale.parse_timescale(spec["scale"]["spec"])
        for key in ("p", "q"):
            if spec.get(key):
                calculus.ScaleFunction.from_text(spec[key]["text"])


def run_cli_process(argv: list[str], env: dict, cwd: str, timeout: float) -> tuple[int, bytes]:
    """One fresh `python -m chronolog.cli` process; waits for it to end."""
    proc = subprocess.run(
        [sys.executable, "-m", "chronolog.cli", *argv],
        capture_output=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
        check=False,
    )
    return proc.returncode, proc.stdout


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _single(spec: dict, text: str) -> complex:
    if spec["format"] == "json":
        d = json.loads(text)
    else:
        head, rows = _csv(text)
        d = dict(zip(head, rows[0]))
    return complex(float(d["rep_re"]), float(d["rep_im"]))


def _table_rows(spec: dict, text: str) -> list[list[float]]:
    if spec["format"] == "json":
        rows = []
        for e in json.loads(text):
            row = [e["t"], e["value"]["re"], e["value"]["im"]]
            if "quotient" in e:
                row += [e["quotient"]["re"], e["quotient"]["im"]]
            rows.append(row)
        return rows
    _, rows = _csv(text)
    return [[float(x) for x in r] for r in rows]


def _legacy_expected(spec: dict) -> complex:
    scale, t0, t, fam = spec["scale"], spec["s"], spec["t"], spec.get("p")
    kind = spec["kind"]
    if kind == "huff":  # on r: integral of 1/tau
        return complex(math.log(t / t0))
    if kind == "euler-cauchy":  # unit grid: sum of 1/(tau + 2)
        return complex(math.fsum(1.0 / (k + 2.0) for k in range(int(t0), int(t))))
    if kind == "integral-quotient":  # unit grid: sum of pDelta/p
        return sum(
            (oracle.p_value(fam, k + 1.0) - oracle.p_value(fam, float(k))) / oracle.p_value(fam, float(k))
            for k in range(int(t0), int(t))
        )
    if kind == "mozyrska":  # powers of q from 1: each jump adds mu/tau = q - 1
        k = round(math.log(t) / math.log(scale["q"]))
        return complex(k * (scale["q"] - 1.0))
    if kind == "jackson":  # pDelta(t)/p(t)
        sig = oracle.sigma(scale, t)
        pv = oracle.p_value(fam, t)
        return (oracle.p_value(fam, sig) - pv) / (sig - t) / pv
    raise ValueError(f"unknown legacy kind {kind!r}")


def _logderiv_row_failure(spec: dict, row: list[float]) -> str | None:
    fam, scale = spec["p"], spec["scale"]
    u, value, quotient = row[0], complex(row[1], row[2]), complex(row[3], row[4])
    sig = oracle.sigma(scale, u)
    pv = oracle.p_value(fam, u)
    if sig > u:
        mu = sig - u
        ps = oracle.p_value(fam, sig)
        return oracle.log_failure(mu * value, cmath.log(ps / pv)) or oracle.value_failure(
            quotient, (ps - pv) / mu / pv
        )
    d = oracle.p_prime(fam, u) / pv
    return oracle.value_failure(value, d) or oracle.value_failure(quotient, d)


IDENTITY_ROWS = 11  # exp-of-log, product, quotient, power, 2 Cayley, 5 eta


def cli_failure(spec: dict, rc: int, out: bytes) -> tuple[str | None, int]:
    """Check one CLI run against the oracle; returns (reason, rows emitted)."""
    if rc != 0:
        return f"exit code {rc}", 0
    try:
        text = out.decode("utf-8")
        cmd = spec["cmd"]
        if cmd == "eval":
            return oracle.log_failure(_single(spec, text), oracle.log_ratio(spec["p"], spec["s"], spec["t"])), 1
        if cmd == "legacy":
            return oracle.value_failure(_single(spec, text), _legacy_expected(spec)), 1
        if cmd == "check":
            if spec["format"] == "json":
                passed = [r["pass"] for r in json.loads(text)]
            else:
                passed = [r[-1] == "true" for r in _csv(text)[1]]
            if len(passed) != IDENTITY_ROWS or not all(passed):
                return f"identity suite rows {passed}", len(passed)
            return None, len(passed)
        rows = _table_rows(spec, text)
        if spec["rows"] is not None and len(rows) != spec["rows"]:
            return f"{len(rows)} table rows, expected {spec['rows']}", len(rows)
        for row in rows:
            if spec["quantity"] == "log":
                why = oracle.log_failure(complex(row[1], row[2]), oracle.log_ratio(spec["p"], spec["s"], row[0]))
            else:
                why = _logderiv_row_failure(spec, row)
            if why:
                return f"row t={row[0]!r}: {why}", len(rows)
        return None, len(rows)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}", 0
