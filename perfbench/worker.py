"""One benchmark process: set up a workload, then run it.

Started by run.py in a fresh interpreter with chronolog's sources on
PYTHONPATH.  Prints one JSON object on its last stdout line.

    --mode setup   import chronolog and build the inputs; report the time
    --mode run     also run the ops in a closed loop, untraced
    --mode trace   alternate untraced and traced passes; report layers
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time

import ops as ops_mod
import speed
import workloads
from tracer import TABLE_LOG_TAG, Tracer

# the tail is this percentile, and a run keeps going past --seconds until it
# has MIN_SAMPLES ops, which leaves at least 10 samples beyond the tail
TAIL = {"discrete_walk": 95, "dense_quad": 95, "cli_sessions": 90}
MIN_SAMPLES = {"discrete_walk": 200, "dense_quad": 200, "cli_sessions": 100}

# probes right after set-up; their median rescales the set-up time
SETUP_PROBES = 5
# ops run between two speed probes
CHUNK_S = 0.1

MAX_TRACED_PASSES = 2
CLI_TIMEOUT_S = 60.0
MODULES = ("errors", "multivalue", "expr", "timescale", "cylinder", "calculus", "logexp", "cli")


def _modules() -> dict:
    mods = {name: importlib.import_module("chronolog." + name) for name in MODULES}
    mods[""] = importlib.import_module("chronolog")
    return mods


def _build(workload: str, specs: list[dict], timescale, calculus):
    if workload == "cli_sessions":
        ops_mod.build_cli_inputs(specs, timescale, calculus)
        return specs
    return ops_mod.build_in_process(specs, timescale, calculus)


def _setup(workload: str, specs: list[dict]):
    """Import plus input building, timed from before the first chronolog import."""
    t0 = time.perf_counter()
    importlib.import_module("chronolog.cli" if workload == "cli_sessions" else "chronolog")
    built = _build(workload, specs, sys.modules["chronolog.timescale"], sys.modules["chronolog.calculus"])
    return time.perf_counter() - t0, built


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def closed_loop(workload: str, items, run_one, seconds: float, failures: list[str], probe=speed.probe,
                reference: float = speed.REFERENCE_S) -> dict:
    """Run items in order, over and over, one at a time, until `seconds`
    have passed and there are MIN_SAMPLES ops.

    ``run_one(item)`` returns (seconds the op took, failure reason or None).
    The machine-speed probe runs after every CHUNK_S of ops; each chunk's
    op times and wall time are multiplied by `reference` over the mean of
    the probes on either side of it (speed.py).  Raw times are reported too.
    """
    clock = time.perf_counter
    lat: list[float] = []
    raw_lat: list[float] = []
    wall = raw_wall = 0.0
    failed = 0
    chunk: list[float] = []
    before = probe()
    begin = chunk_start = clock()

    def flush():
        nonlocal before, wall, raw_wall, chunk_start
        span = clock() - chunk_start
        after = probe()
        f = reference / (0.5 * (before + after))
        lat.extend(d * f for d in chunk)
        raw_lat.extend(chunk)
        wall += span * f
        raw_wall += span
        chunk.clear()
        before = after
        chunk_start = clock()

    while True:
        for item in items:
            dt, why = run_one(item)
            chunk.append(dt)
            if why:
                failed += 1
                failures.append(why)
            if clock() - chunk_start >= CHUNK_S:
                flush()
        if clock() - begin >= seconds and len(lat) + len(chunk) >= MIN_SAMPLES[workload]:
            break
    if chunk:
        flush()
    return {
        "attempted": len(lat),
        "failed": failed,
        "ops_per_s": len(lat) / wall,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": _percentile(lat, TAIL[workload]) * 1e3,
        "tail_percentile": TAIL[workload],
        "raw": {
            "ops_per_s": len(raw_lat) / raw_wall,
            "latency_p50_ms": statistics.median(raw_lat) * 1e3,
            "latency_tail_ms": _percentile(raw_lat, TAIL[workload]) * 1e3,
        },
    }


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def _warm_up(built, logexp) -> None:
    # every (kind, scale) pair, on the shortest windows
    for op in built:
        if op.spec["stratum"] == 0:
            op.run(logexp)


def _call(op, logexp, error_type):
    try:
        return op.run(logexp)
    except error_type as exc:
        return exc


def _failure(op, result) -> str | None:
    if isinstance(result, Exception):
        return f"raised {result!r}"
    return op.failure(result)


def run_in_process(workload: str, seconds: float, built, mods, failures: list[str]) -> dict:
    logexp, error_type = mods["logexp"], mods["errors"].ChronologError
    ops_mod.attach_expected(built)
    _warm_up(built, logexp)

    def run_one(op):
        t0 = time.perf_counter()
        result = _call(op, logexp, error_type)
        dt = time.perf_counter() - t0
        why = _failure(op, result)
        return dt, why and f"{op.kind} on {op.spec['scale']['spec'][:40]}: {why}"

    out = closed_loop(workload, built, run_one, seconds, failures)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def trace_loop(seconds: float, untraced_pass, traced_pass, tracer: Tracer, mods) -> tuple[float, int]:
    """Alternate untraced and traced passes; after MAX_TRACED_PASSES traced
    ones (their spans stay in memory) go on untraced until `seconds` have
    passed.  Returns traced over untraced wall time per pass, and the
    number of traced passes."""
    untraced = traced = 0.0
    n_untraced = n_traced = 0
    begin = time.perf_counter()
    while n_untraced == 0 or time.perf_counter() - begin < seconds:
        untraced += untraced_pass()
        n_untraced += 1
        if n_traced < MAX_TRACED_PASSES:
            tracer.install(mods)
            try:
                traced += traced_pass()
            finally:
                tracer.uninstall()
            n_traced += 1
    return (traced / n_traced) / (untraced / n_untraced), n_traced


class Tally:
    def __init__(self, failures: list[str]):
        self.attempted = self.failed = 0
        self.failures = failures

    def add(self, why: str | None) -> None:
        self.attempted += 1
        if why:
            self.failed += 1
            self.failures.append(why)


def trace_in_process(workload: str, seconds: float, specs, built, mods, tracer: Tracer, failures: list[str]) -> dict:
    """A pass builds the inputs, then runs every op once."""
    logexp, error_type = mods["logexp"], mods["errors"].ChronologError
    timescale, calculus = mods["timescale"], mods["calculus"]
    ops_mod.attach_expected(built)
    _warm_up(built, logexp)
    tally = Tally(failures)

    def check(results):
        for op, result in zip(built, results):
            why = _failure(op, result)
            tally.add(why and f"{op.kind}: {why}")

    def untraced_pass() -> float:
        t0 = time.perf_counter()
        results = [_call(op, logexp, error_type) for op in _build(workload, specs, timescale, calculus)]
        dt = time.perf_counter() - t0
        check(results)
        return dt

    def traced_pass() -> float:
        t0 = time.perf_counter()
        with tracer.new_op("setup"):
            traced_ops = _build(workload, specs, timescale, calculus)
        results = []
        for op in traced_ops:
            with tracer.new_op(op.kind):
                results.append(_call(op, logexp, error_type))
        dt = time.perf_counter() - t0
        check(results)
        return dt

    ratio, passes = trace_loop(seconds, untraced_pass, traced_pass, tracer, mods)
    metrics = tracer.layer_metrics(passes)
    metrics["trace.overhead_ratio"] = ratio
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# CLI sessions
# ---------------------------------------------------------------------------


def _argv_key(argv: list[str]) -> str:
    return json.dumps(argv)


class Digests:
    """stdout digests per argv: within this run, and from earlier runs on
    the same seed (kept in the benchmark's output directory)."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.earlier = json.load(fh)
        except FileNotFoundError:
            self.earlier = {}
        self.now: dict[str, str] = {}

    def mismatch(self, argv: list[str], out: bytes) -> str | None:
        key, d = _argv_key(argv), ops_mod.digest(out)
        seen = self.now.setdefault(key, d)
        if seen != d:
            return "stdout differs from an identical run earlier in this run"
        if self.earlier.get(key, d) != d:
            return "stdout differs from an identical run in an earlier run on this seed"
        return None

    def save(self) -> None:
        merged = {**self.earlier, **self.now}
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, sort_keys=True)
        os.replace(tmp, self.path)


def _cli_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CHRONOLOG_TOL"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli(seconds: float, specs, root: str, digests: Digests, failures: list[str]) -> dict:
    env = _cli_env(root)

    def run_one(spec):
        t0 = time.perf_counter()
        rc, out = ops_mod.run_cli_process(spec["argv"], env, root, CLI_TIMEOUT_S)
        dt = time.perf_counter() - t0
        why = ops_mod.cli_failure(spec, rc, out)[0] or digests.mismatch(spec["argv"], out)
        return dt, why and f"{' '.join(spec['argv'])[:120]}: {why}"

    for spec in specs[:3]:  # warm-up: file cache and bytecode
        run_one(spec)
    out = closed_loop("cli_sessions", specs, run_one, seconds, failures, speed.process_probe, speed.PROCESS_REFERENCE_S)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return out


def _main_in_process(cli, argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue().encode("utf-8")


def trace_cli(seconds: float, specs, mods, root: str, tracer: Tracer, digests: Digests, failures: list[str]) -> dict:
    """A pass validates the inputs, then runs every argv through `cli.main`
    in-process; a traced pass also runs each as a fresh process, outside
    its wall time, for `cli.process_s`."""
    cli, timescale, calculus = mods["cli"], mods["timescale"], mods["calculus"]
    env = _cli_env(root)
    tally = Tally(failures)
    main_times: list[float] = []
    for spec in specs[:3]:
        _main_in_process(cli, spec["argv"])

    def check(spec, rc: int, out: bytes) -> int:
        why, rows = ops_mod.cli_failure(spec, rc, out)
        why = why or digests.mismatch(spec["argv"], out)
        tally.add(why and f"{' '.join(spec['argv'])[:120]}: {why}")
        return rows

    def untraced_pass() -> float:
        t0 = time.perf_counter()
        _build("cli_sessions", specs, timescale, calculus)
        t1 = time.perf_counter()
        outputs = [_main_in_process(cli, spec["argv"]) for spec in specs]
        main_times.append(time.perf_counter() - t1)
        dt = time.perf_counter() - t0
        for spec, (rc, out) in zip(specs, outputs):
            check(spec, rc, out)
        return dt

    def traced_pass() -> float:
        t0 = time.perf_counter()
        with tracer.new_op("setup"):
            _build("cli_sessions", specs, timescale, calculus)
        op_ids, outputs = [], []
        for spec in specs:
            with tracer.new_op(TABLE_LOG_TAG if spec.get("quantity") == "log" else spec["cmd"]):
                op_ids.append(tracer.op_id)
                outputs.append(_main_in_process(cli, spec["argv"]))
        dt = time.perf_counter() - t0
        for spec, (rc, out) in zip(specs, outputs):
            rows = check(spec, rc, out)
            if spec.get("quantity") == "log":
                tracer.counts["table_rows"] += rows
        for spec, op_id in zip(specs, op_ids):
            tracer.op_id = op_id  # the process span joins its op
            with tracer.span("cli.process"):
                rc, out = ops_mod.run_cli_process(spec["argv"], env, root, CLI_TIMEOUT_S)
            check(spec, rc, out)
        return dt

    ratio, passes = trace_loop(seconds, untraced_pass, traced_pass, tracer, mods)
    metrics = tracer.layer_metrics(passes, statistics.mean(main_times))
    metrics["trace.overhead_ratio"] = ratio
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)

    specs = workloads.generate(args.workload, args.seed)
    setup_s, built = _setup(args.workload, specs)
    probes = [speed.probe() for _ in range(SETUP_PROBES)]
    out = {"setup_s": setup_s * speed.REFERENCE_S / statistics.median(probes), "raw_setup_s": setup_s}
    failures: list[str] = []
    if args.mode != "setup":
        mods = _modules()
        out_dir = os.path.join(args.root, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        cli = args.workload == "cli_sessions"
        digests = Digests(os.path.join(out_dir, f"cli-digests-seed{args.seed}.json")) if cli else None
        if args.mode == "run" and cli:
            out.update(run_cli(args.seconds, specs, args.root, digests, failures))
        elif args.mode == "run":
            out.update(run_in_process(args.workload, args.seconds, built, mods, failures))
        else:
            tracer = Tracer()
            if cli:
                out.update(trace_cli(args.seconds, specs, mods, args.root, tracer, digests, failures))
            else:
                out.update(trace_in_process(args.workload, args.seconds, specs, built, mods, tracer, failures))
            out["spans_file"] = os.path.join(out_dir, f"spans-{args.workload}.bin")
            tracer.dump(out["spans_file"])
        if cli:
            digests.save()
    for line in failures[:20]:
        print("FAIL " + line, file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
