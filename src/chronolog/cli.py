"""Command-line interface: parse argv, call the library, render the payload.

Subcommands:

    eval     one logarithm value over a window
    check    run the identity suite and report each row
    table    walk a range and tabulate pointwise or window quantities
    legacy   older logarithm constructions

Each command returns a dict (eval, legacy) or a list of dicts (check,
table), which one renderer writes as JSON or CSV.  Input checks live in the
library, which raises ValidationError.  Errors print a single-line JSON
object on stderr; exit code 2 flags bad input (an unwritable ``--out``
file too) and 3 a numerical failure.  `check` exits 1 when an identity
fails.  Output is deterministic: identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .calculus import ScaleFunction, ToleranceConfig, delta_derivative
from .errors import ChronologError, UnboundedWindow, ValidationError
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
from .timescale import MAX_WINDOW_JUMPS, TimeScale, parse_timescale

TOL_ENV_VAR = "CHRONOLOG_TOL"


def _config(args) -> ToleranceConfig:
    tol = args.tol
    raw = os.environ.get(TOL_ENV_VAR)
    if tol is None and raw is not None:
        try:
            tol = float(raw)
        except ValueError:
            raise ValidationError(f"bad {TOL_ENV_VAR} value {raw!r}") from None
    return ToleranceConfig() if tol is None else ToleranceConfig(quad_tol=tol)


def _parse_variant(text: str) -> tuple[LogVariant, float | None]:
    if not text.startswith("eta:"):
        return LogVariant(text), None
    try:
        return LogVariant.ETA, float(text[4:])
    except ValueError:
        raise ValidationError(f"bad eta value in variant {text!r}") from None


def _window_has_jumps(ts: TimeScale, a: float, b: float) -> bool:
    ks, kt, *_ = ts._span(min(a, b), max(a, b))
    return kt > ks


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


def _complex(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _walk_points(ts: TimeScale, start: float, stop: float, step: float | None) -> list[float]:
    """All scale points of [start, stop] to tabulate, in increasing order.

    Scattered stretches contribute every grid point; continuous stretches
    are sampled every `step` (required if any are present).  More than
    MAX_WINDOW_JUMPS rows raise UnboundedWindow before any row is built.
    """
    start = ts.snap(start)
    stop = ts.snap(stop)
    if stop < start:
        raise ValidationError("--to must not be less than --from")
    if step is not None and not step > 0:
        raise ValidationError("--step must be positive")
    jumps, dense = -1, 0.0
    for a, b in ts._clipped_pieces(start, stop):
        if b > a:
            if step is None:
                raise ValidationError("--step is required when the range has continuous stretches")
            dense += (b - a) / step
        jumps += 1
    rows = jumps + dense
    if rows > MAX_WINDOW_JUMPS:
        raise UnboundedWindow(f"the table has {rows:.4g} rows, more than {MAX_WINDOW_JUMPS}")
    out: list[float] = []
    for a, b in ts._clipped_pieces(start, stop):
        k, x = 1, a
        while x < b:  # a, then a + k*step below b, each above the last row
            if not out or x > out[-1]:
                out.append(x)
            x, k = a + k * step, k + 1
        out.append(b)
    return out


def _cmd_eval(args, cfg: ToleranceConfig, ts: TimeScale) -> tuple[dict, int]:
    p = ScaleFunction.from_text(args.p)
    variant, eta = _parse_variant(args.variant)
    value = log_ts(variant, p, ts, args.s, args.t, cfg, eta=eta)
    return _point_payload(args.variant, value, _window_has_jumps(ts, args.s, args.t)), 0


def _cmd_check(args, cfg: ToleranceConfig, ts: TimeScale) -> tuple[list, int]:
    p = ScaleFunction.from_text(args.p)
    q = ScaleFunction.from_text(args.q)
    rows = identity_suite(p, q, ts, args.s, args.t, args.alpha, cfg)
    return [r.to_json_dict() for r in rows], 0 if all(r.passed for r in rows) else 1


def _cmd_table(args, cfg: ToleranceConfig, ts: TimeScale) -> tuple[list, int]:
    p = ScaleFunction.from_text(args.p)
    pts = _walk_points(ts, getattr(args, "from"), args.to, args.step)
    if args.quantity == "logderiv":
        rows = [
            {
                "t": u,
                "value": _complex(log_delta_derivative(p, ts, u, cfg)),
                "quotient": _complex(delta_derivative(p, ts, u) / p(u)),
            }
            for u in pts
        ]
    else:  # log
        variant, eta = _parse_variant(args.variant)
        base = args.s if args.s is not None else getattr(args, "from")
        values = log_table(variant, p, ts, base, pts, cfg, eta=eta)
        rows = [{"t": u, "value": _complex(value)} for u, value in zip(pts, values)]
    return rows, 0


def _cmd_legacy(args, cfg: ToleranceConfig, ts: TimeScale) -> tuple[dict, int]:
    kind = LegacyKind(args.kind)
    p = ScaleFunction.from_text(args.p) if args.p is not None else None
    t0, t = args.t0, args.t
    value = legacy_log(kind, p, ts, t0, t, cfg)
    if kind is LegacyKind.JACKSON:  # a quotient across the gap to sigma(t), if any
        x, sigma = ts.delta_point(t)
        scattered = sigma > x
    else:  # an integral over [t0, t], or over [1, t] for mozyrska
        scattered = _window_has_jumps(ts, 1.0 if kind is LegacyKind.MOZYRSKA else t0, t)
    return _point_payload(f"legacy-{kind.value}", value, scattered), 0


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _flat(row: dict) -> dict:
    out = {}
    for key, v in row.items():
        if isinstance(v, dict):
            out.update((f"{key}_{part}", x) for part, x in v.items())
        else:
            out[key] = v
    return out


def _render(payload, fmt: str) -> str:
    """JSON (compact for a dict, indented for a list) or CSV with a header.

    CSV flattens a nested {re, im} value to ``<key>_re`` and ``<key>_im``
    columns and writes floats with 17 significant digits, so they
    round-trip exactly.
    """
    many = isinstance(payload, list)
    if fmt == "json":
        return json.dumps(payload, indent=2 if many else None) + "\n"
    rows = [_flat(row) for row in (payload if many else [payload])]
    lines = [",".join(rows[0])] + [",".join(map(_cell, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


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
        payload, rc = _COMMANDS[args.command](args, _config(args), parse_timescale(args.timescale))
        text = _render(payload, args.format)
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as e:
                raise ValidationError(f"cannot write --out {args.out!r}: {e.strerror}") from None
    except ChronologError as exc:
        line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
        sys.stderr.write(line + "\n")
        return 2 if exc.category == "validation" else 3
    return rc


if __name__ == "__main__":
    sys.exit(main())
