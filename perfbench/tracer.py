"""Spans around chronolog's public functions, recorded from outside.

``Tracer.install`` replaces each traced function in every chronolog module
namespace that binds it (and traced methods on their classes) with a
wrapper; ``uninstall`` puts the originals back.  Nothing inside chronolog
changes.

A span is (name, parent span, op id, start, end).  Spans are appended to
flat arrays while the run goes and only read, or written to disk, after
it.  Calls too frequent to be worth a span (``snap``, ``principal_log``,
quadrature samples) are counted instead.

Span names double as metric names: every function of one group shares a
span name, e.g. ``xi``, ``xi_hat``, ``cayley_psi`` and ``eta_psi`` all record
``cylinder.map``.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# span name -> chronolog functions recorded under it (module, attribute)
SPANNED = {
    "timescale.parse": [("timescale", "parse_timescale")],
    "cylinder.map": [("cylinder", n) for n in ("xi", "xi_hat", "cayley_psi", "eta_psi")],
    "logexp.window": [
        ("logexp", n)
        for n in (
            "log_delta_principal",
            "log_delta_multi",
            "log_nabla_principal",
            "log_nabla_multi",
            "log_cayley_principal",
            "log_cayley_multi",
            "log_eta",
            "log_ts",
            "exp_delta",
            "exp_nabla",
        )
    ],
    "logexp.suite": [("logexp", "identity_suite")],
    "cli.main": [("cli", "main")],
}

# spans whose time is reported as `<name>_s` and `<name>_s.self`
TIMED = (
    "expr.compile",
    "expr.p_eval",
    "timescale.parse",
    "timescale.decompose",
    "cylinder.map",
    "calculus.quad",
    "logexp.window",
    "logexp.suite",
    "cli.process",
    "cli.main",
)

LAYERS = ("expr", "timescale", "cylinder", "multivalue", "calculus", "logexp", "cli")

# every per-layer metric: name -> unit
METRICS = {}
for _n in TIMED:
    METRICS[_n + "_s"] = "s"
    METRICS[_n + "_s.self"] = "s"
METRICS.update(
    {
        "expr.p_evals": "count",
        "timescale.segments": "count",
        "timescale.snap_calls": "count",
        "cylinder.map_calls": "count",
        "multivalue.principal_log_calls": "count",
        "calculus.quad_calls": "count",
        "calculus.quad_samples": "count",
        "calculus.samples_per_piece": "ratio",
        "logexp.window_calls": "count",
        "logexp.p_evals_per_jump": "ratio",
        "logexp.windows_per_suite": "ratio",
        "cli.startup_s": "s",
        "cli.jumps_per_table_row": "ratio",
        "trace.overhead_ratio": "ratio",
    }
)
for _layer in LAYERS:
    METRICS[_layer + ".errors"] = "count"
del _n, _layer

TABLE_LOG_TAG = "table-log"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.op_tags: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.jumps: dict[int, int] = {}  # decompose span -> scattered jumps returned
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, e.g. around a subprocess."""
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    @contextmanager
    def new_op(self, tag: str):
        """Start a new op id; spans recorded inside share it."""
        self.op_id += 1
        self.op_tags[self.op_id] = tag
        with self.span("op"):
            yield

    def _spanned(self, name: str, fn, error_type, after=None):
        nid = self._name_id(name)
        errors_key = name.split(".")[0] + ".errors"
        counts = self.counts
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except error_type:
                counts[errors_key] += 1
                raise
            finally:
                close(sid)
            if after is not None:
                after(sid, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn, error_type):
        counts = self.counts
        errors_key = key.split(".")[0] + ".errors"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except error_type:
                counts[errors_key] += 1
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, modules: dict, original, replacement) -> None:
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _replace_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, modules: dict) -> None:
        """Wrap chronolog; `modules` maps short names (and "" for the
        package) to the imported chronolog modules."""
        error = modules["errors"].ChronologError
        ts_mod = modules["timescale"]
        calculus = modules["calculus"]
        sf = calculus.ScaleFunction

        compile_fn = sf.__dict__["from_text"].__func__
        self._replace_attr(sf, "from_text", classmethod(self._spanned("expr.compile", compile_fn, error)))
        self._replace_attr(sf, "__call__", self._spanned("expr.p_eval", sf.__dict__["__call__"], error))
        self._replace_attr(sf, "prime", self._spanned("expr.p_eval", sf.__dict__["prime"], error))

        counts, jumps = self.counts, self.jumps
        jump_type = ts_mod.ScatteredJump

        def after_decompose(sid, result):
            segs = result.segments
            counts["timescale.segments"] += len(segs)
            jumps[sid] = sum(1 for seg in segs if type(seg) is jump_type)

        for cls in vars(ts_mod).values():
            if isinstance(cls, type) and issubclass(cls, ts_mod.TimeScale):
                if "snap" in cls.__dict__:
                    self._replace_attr(cls, "snap", self._counted("timescale.snap_calls", cls.__dict__["snap"], error))
                if "decompose" in cls.__dict__:
                    wrapped = self._spanned("timescale.decompose", cls.__dict__["decompose"], error, after_decompose)
                    self._replace_attr(cls, "decompose", wrapped)

        for name, targets in SPANNED.items():
            for mod_name, attr in targets:
                original = getattr(modules[mod_name], attr)
                self._replace_everywhere(modules, original, self._spanned(name, original, error))

        principal_log = modules["multivalue"].principal_log
        counted = self._counted("multivalue.principal_log_calls", principal_log, error)
        self._replace_everywhere(modules, principal_log, counted)

        quad = calculus.adaptive_simpson

        def counting_quad(f, *args, **kwargs):
            def sample(x):
                counts["calculus.quad_samples"] += 1
                return f(x)

            return quad(sample, *args, **kwargs)

        self._replace_everywhere(modules, quad, self._spanned("calculus.quad", counting_quad, error))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def layer_metrics(self, passes: int, untraced_main_s: float = 0.0) -> dict[str, float]:
        """Per-layer metrics per pass of the op list, from the recorded spans.

        A group's time counts only its outermost spans (a span whose parent
        has the same name is nested inside it); its self time is the sum,
        over all its spans, of duration minus the time its child spans cover.
        """
        n = len(self.end)
        ids = self._ids
        window, quad, suite = (ids.get(k, -9) for k in ("logexp.window", "calculus.quad", "logexp.suite"))
        p_eval, decompose = ids.get("expr.p_eval", -9), ids.get("timescale.decompose", -9)
        name, parent, start, end = self.name, self.parent, self.start, self.end

        child = array("d", bytes(8 * n))
        in_window = bytearray(n)
        in_quad = bytearray(n)
        in_suite = bytearray(n)
        outer_time: Counter = Counter()
        outer_count: Counter = Counter()
        spans: Counter = Counter()
        walk_p_evals = walk_jumps = table_jumps = suite_windows = 0
        for i in range(n):
            nm, par = name[i], parent[i]
            d = end[i] - start[i]
            if par >= 0:
                child[par] += d
                pname = name[par]
                in_window[i] = in_window[par] or nm == window
                in_quad[i] = in_quad[par] or nm == quad
                in_suite[i] = in_suite[par] or nm == suite
            else:
                pname = -1
                in_window[i], in_quad[i], in_suite[i] = nm == window, nm == quad, nm == suite
            spans[nm] += 1
            if pname != nm:
                outer_time[nm] += d
                outer_count[nm] += 1
                if nm == window and par >= 0 and in_suite[par]:
                    suite_windows += 1
            if nm == p_eval and in_window[i] and not in_quad[i]:
                walk_p_evals += 1
            elif nm == decompose and par >= 0 and in_window[par]:
                walk_jumps += self.jumps.get(i, 0)
                if self.op_tags.get(self.op[i]) == TABLE_LOG_TAG:
                    table_jumps += self.jumps.get(i, 0)
        self_time: Counter = Counter()
        for i in range(n):
            self_time[name[i]] += (end[i] - start[i]) - child[i]

        def per_pass(x: float) -> float:
            return x / passes

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for group in TIMED:
            nid = ids.get(group, -9)
            out[group + "_s"] = per_pass(outer_time[nid])
            out[group + "_s.self"] = per_pass(self_time[nid])
        c = self.counts
        out.update(
            {
                "expr.p_evals": per_pass(spans[p_eval]),
                "timescale.segments": per_pass(c["timescale.segments"]),
                "timescale.snap_calls": per_pass(c["timescale.snap_calls"]),
                "cylinder.map_calls": per_pass(spans[ids.get("cylinder.map", -9)]),
                "multivalue.principal_log_calls": per_pass(c["multivalue.principal_log_calls"]),
                "calculus.quad_calls": per_pass(spans[quad]),
                "calculus.quad_samples": per_pass(c["calculus.quad_samples"]),
                "calculus.samples_per_piece": ratio(c["calculus.quad_samples"], spans[quad]),
                "logexp.window_calls": per_pass(outer_count[window]),
                "logexp.p_evals_per_jump": ratio(walk_p_evals, walk_jumps),
                "logexp.windows_per_suite": ratio(suite_windows, outer_count[suite]),
                "cli.startup_s": out["cli.process_s"] - untraced_main_s if out["cli.process_s"] else 0.0,
                "cli.jumps_per_table_row": ratio(table_jumps, c["table_rows"]),
            }
        )
        for layer in LAYERS:
            out[layer + ".errors"] = per_pass(c[layer + ".errors"])
        return out

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the five arrays."""
        header = {
            "names": self.names,
            "op_tags": {str(k): v for k, v in self.op_tags.items()},
            "spans": len(self.end),
            "arrays": [["name", "i"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def load_spans(path: str) -> tuple[dict, dict[str, array]]:
    """Read a file written by ``Tracer.dump``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays[field] = arr
    return header, arrays
