"""Command-line interface.

Subcommands:

    eval     one logarithm value over a window
    check    run the identity suite and report each row
    table    walk a range and tabulate pointwise or window quantities
    legacy   older logarithm constructions

Errors print a single-line JSON object on stderr; exit code 2 flags bad
input and 3 a numerical failure.  `check` exits 1 when an identity fails.
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .calculus import ScaleFunction, ToleranceConfig, delta_derivative
from .errors import ChronologError, ValidationError
from .logexp import (
    LegacyKind,
    LogVariant,
    identity_suite,
    legacy_log,
    log_delta_derivative,
    log_table,
    log_ts,
)
from .multivalue import MultiLog
from .timescale import ContinuousPiece, TimeScale, parse_timescale

TOL_ENV_VAR = "CHRONOLOG_TOL"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _config(args) -> ToleranceConfig:
    tol = getattr(args, "tol", None)
    if tol is None:
        raw = os.environ.get(TOL_ENV_VAR)
        if raw is not None:
            try:
                tol = float(raw)
            except ValueError:
                raise ValidationError(f"bad {TOL_ENV_VAR} value {raw!r}") from None
    try:
        return ToleranceConfig(quad_tol=tol) if tol is not None else ToleranceConfig()
    except ValueError as e:
        raise ValidationError(str(e)) from None


def _parse_variant(text: str) -> tuple[LogVariant, float | None]:
    if text.startswith("eta:"):
        try:
            eta = float(text[4:])
        except ValueError:
            raise ValidationError(f"bad eta value in variant {text!r}") from None
        if not 0.0 <= eta <= 1.0:
            raise ValidationError(f"eta must lie in [0, 1], got {eta}")
        return LogVariant.ETA, eta
    try:
        return LogVariant(text), None
    except ValueError:
        choices = ", ".join(v.value for v in LogVariant if v is not LogVariant.ETA)
        raise ValidationError(f"unknown variant {text!r} (expected one of {choices}, or eta:<value>)") from None


def _scale_function(text: str) -> ScaleFunction:
    return ScaleFunction.from_text(text)


def _window_has_jumps(ts: TimeScale, a: float, b: float) -> bool:
    lo, hi = min(a, b), max(a, b)
    return ts.decompose(ts.snap(lo), ts.snap(hi)).has_jumps


def _point_payload(variant_label: str, value, scattered: bool) -> dict:
    rep = value.rep if isinstance(value, MultiLog) else complex(value)
    period = "2pi*i" if isinstance(value, MultiLog) and value.period != 0 else "none"
    return {
        "variant": variant_label,
        "rep_re": rep.real,
        "rep_im": rep.imag,
        "period": period,
        "scattered_contributed": scattered,
    }


def _payload_csv(payload: dict) -> str:
    head = ",".join(payload.keys())
    cells = []
    for v in payload.values():
        if isinstance(v, bool):
            cells.append("true" if v else "false")
        elif isinstance(v, float):
            cells.append(_fmt(v))
        else:
            cells.append(str(v))
    return head + "\n" + ",".join(cells) + "\n"


def _walk_points(ts: TimeScale, start: float, stop: float, step: float | None) -> list[float]:
    """All scale points of [start, stop] to tabulate, in increasing order.

    Scattered stretches contribute every grid point; continuous stretches
    are sampled every `step` (required if any are present).
    """
    start = ts.snap(start)
    stop = ts.snap(stop)
    if stop < start:
        raise ValidationError("--to must not be less than --from")
    points: list[float] = []
    for seg in ts.decompose(start, stop):
        if isinstance(seg, ContinuousPiece):
            if step is None:
                raise ValidationError("--step is required when the range has continuous stretches")
            if not step > 0:
                raise ValidationError("--step must be positive")
            points.append(seg.a)
            k = 1
            while seg.a + k * step < seg.b:
                points.append(seg.a + k * step)
                k += 1
        else:
            points.append(seg.tau)
    points.append(stop)
    out: list[float] = []
    for x in points:
        if not out or x > out[-1]:
            out.append(x)
    return out


def _cmd_eval(args) -> tuple[str, int]:
    cfg = _config(args)
    ts = parse_timescale(args.timescale)
    p = _scale_function(args.p)
    variant, eta = _parse_variant(args.variant)
    s = ts.snap(args.s)
    t = ts.snap(args.t)
    value = log_ts(variant, p, ts, s, t, cfg, eta=eta)
    payload = _point_payload(args.variant, value, _window_has_jumps(ts, s, t))
    if args.format == "csv":
        return _payload_csv(payload), 0
    return json.dumps(payload) + "\n", 0


def _cmd_check(args) -> tuple[str, int]:
    cfg = _config(args)
    ts = parse_timescale(args.timescale)
    p = _scale_function(args.p)
    q = _scale_function(args.q)
    s = ts.snap(args.s)
    t = ts.snap(args.t)
    try:
        rows = identity_suite(p, q, ts, s, t, args.alpha, cfg)
    except ValueError as e:
        raise ValidationError(str(e)) from None
    rc = 0 if all(r.passed for r in rows) else 1
    if args.format == "csv":
        lines = ["identity,lhs_re,lhs_im,rhs_re,rhs_im,residual,lattice_k,pass"]
        for r in rows:
            lines.append(
                ",".join(
                    [
                        r.identity,
                        _fmt(r.lhs.real),
                        _fmt(r.lhs.imag),
                        _fmt(r.rhs.real),
                        _fmt(r.rhs.imag),
                        _fmt(r.residual),
                        str(r.lattice_k),
                        "true" if r.passed else "false",
                    ]
                )
            )
        return "\n".join(lines) + "\n", rc
    return json.dumps([r.to_json_dict() for r in rows], indent=2) + "\n", rc


def _cmd_table(args) -> tuple[str, int]:
    cfg = _config(args)
    ts = parse_timescale(args.timescale)
    p = _scale_function(args.p)
    pts = _walk_points(ts, getattr(args, "from"), args.to, args.step)
    if args.quantity == "logderiv":
        rows = []
        for u in pts:
            value = log_delta_derivative(p, ts, u, cfg)
            quotient = delta_derivative(p, ts, u) / p(u)
            rows.append((u, value, quotient))
        header = "t,value_re,value_im,quotient_re,quotient_im"
    else:  # log
        variant, eta = _parse_variant(args.variant)
        base = args.s if args.s is not None else getattr(args, "from")
        values = log_table(variant, p, ts, base, pts, cfg, eta=eta)
        rows = [(u, value, None) for u, value in zip(pts, values)]
        header = "t,value_re,value_im"
    if args.format == "json":
        out = []
        for u, value, quotient in rows:
            entry = {"t": u, "value": {"re": value.real, "im": value.imag}}
            if quotient is not None:
                entry["quotient"] = {"re": quotient.real, "im": quotient.imag}
            out.append(entry)
        return json.dumps(out, indent=2) + "\n", 0
    lines = [header]
    for u, value, quotient in rows:
        cells = [_fmt(u), _fmt(value.real), _fmt(value.imag)]
        if quotient is not None:
            cells.extend([_fmt(quotient.real), _fmt(quotient.imag)])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", 0


def _cmd_legacy(args) -> tuple[str, int]:
    cfg = _config(args)
    ts = parse_timescale(args.timescale)
    try:
        kind = LegacyKind(args.kind)
    except ValueError:
        choices = ", ".join(k.value for k in LegacyKind)
        raise ValidationError(f"unknown legacy kind {args.kind!r} (expected one of {choices})") from None
    p = _scale_function(args.p) if args.p is not None else None
    if kind in (LegacyKind.INTEGRAL_QUOTIENT, LegacyKind.JACKSON) and p is None:
        raise ValidationError(f"--p is required for the {kind.value} logarithm")
    t = ts.snap(args.t)
    t0 = ts.snap(args.t0) if args.t0 is not None else None
    if kind in (LegacyKind.HUFF, LegacyKind.EULER_CAUCHY, LegacyKind.INTEGRAL_QUOTIENT):
        if t0 is None:
            raise ValidationError(f"--t0 is required for the {kind.value} logarithm")
        scattered = _window_has_jumps(ts, t0, t)
    else:
        scattered = False
    value = legacy_log(kind, p, ts, t0 if t0 is not None else t, t, cfg)
    payload = _point_payload(f"legacy-{kind.value}", value, scattered)
    if args.format == "csv":
        return _payload_csv(payload), 0
    return json.dumps(payload) + "\n", 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronolog",
        description="Logarithms and exponentials on time scales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, fmt_default):
        sp.add_argument("--timescale", required=True, help="scale spec, e.g. r, hz:1, q:2, alt:1,2, union:[0,1];[2,3], set:1,2,5")
        sp.add_argument("--tol", type=float, default=None, help=f"quadrature tolerance (default 1e-10, or ${TOL_ENV_VAR})")
        sp.add_argument("--format", choices=("json", "csv"), default=fmt_default)
        sp.add_argument("--out", default=None, help="write output to this file instead of stdout")

    sp = sub.add_parser("eval", help="evaluate one logarithm over a window")
    common(sp, "json")
    sp.add_argument("--p", required=True, help="expression for p(t), e.g. 't^3'")
    sp.add_argument("--s", type=float, required=True, help="window start (must be in the scale)")
    sp.add_argument("--t", type=float, required=True, help="window end (must be in the scale)")
    sp.add_argument("--variant", default=LogVariant.DELTA_MULTI.value, help="delta/nabla/cayley -multi/-principal, or eta:<value>")

    sp = sub.add_parser("check", help="run the identity suite")
    common(sp, "json")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--alpha", type=float, default=2.0, help="power-rule exponent (default 2)")

    sp = sub.add_parser("table", help="tabulate values along the scale")
    common(sp, "csv")
    sp.add_argument("--p", required=True)
    sp.add_argument("--quantity", choices=("logderiv", "log"), default="logderiv")
    sp.add_argument("--from", type=float, required=True, dest="from")
    sp.add_argument("--to", type=float, required=True)
    sp.add_argument("--step", type=float, default=None, help="sampling step on continuous stretches")
    sp.add_argument("--s", type=float, default=None, help="window base for --quantity log (default --from)")
    sp.add_argument("--variant", default=LogVariant.DELTA_PRINCIPAL.value)

    sp = sub.add_parser("legacy", help="older logarithm constructions")
    common(sp, "json")
    sp.add_argument("--kind", required=True, help="huff, euler-cauchy, integral-quotient, jackson, mozyrska")
    sp.add_argument("--p", default=None, help="expression for p(t) (required for integral-quotient and jackson)")
    sp.add_argument("--t0", type=float, default=None, help="lower endpoint (huff, euler-cauchy, integral-quotient)")
    sp.add_argument("--t", type=float, required=True)
    return parser


_COMMANDS = {
    "eval": _cmd_eval,
    "check": _cmd_check,
    "table": _cmd_table,
    "legacy": _cmd_legacy,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, rc = _COMMANDS[args.command](args)
    except ChronologError as exc:
        line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
        sys.stderr.write(line + "\n")
        return 2 if exc.category == "validation" else 3
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return rc


if __name__ == "__main__":
    sys.exit(main())
