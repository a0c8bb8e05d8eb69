"""chronolog benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload discrete_walk --seed 1 --seconds 20 --trace 0

Run from the repository root (the directory holding ``src/chronolog``).
Every op is one caller in a closed loop: the next op starts when the last
one has returned.  Each answer is checked against an independent closed
form (oracle.py); wrong answers and raised errors count as failed ops.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from a separate traced run.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Spans and CLI output digests go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import METRICS as LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is timed this many times, each in a fresh interpreter, after one
# untimed start that compiles and caches chronolog's bytecode
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _child(mode: str, args, root: str) -> dict:
    """Run worker.py in a fresh interpreter; return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--root", root,
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=root, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker --mode {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU, so that the speed probe
    and the ops it rescales share a core (speed.py)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _fingerprint() -> str:
    cpu = "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"Python {platform.python_version()}, nproc {os.cpu_count()}, {cpu}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "chronolog", "__init__.py")):
        print(f"error: no chronolog sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2

    _pin_to_one_cpu()
    try:
        if args.trace:
            res = _child("trace", args, root)
            metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in LAYER_METRICS.items()}
            note = f"spans written to {os.path.relpath(res['spans_file'], root)}"
        else:
            _child("setup", args, root)
            setups = [_child("setup", args, root) for _ in range(SETUP_REPEATS - 1)]
            res = _child("run", args, root)
            setups.append(res)
            res["setup_s"] = statistics.median(r["setup_s"] for r in setups)
            res["raw"]["setup_s"] = statistics.median(r["raw_setup_s"] for r in setups)
            metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
            raw = ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items())
            note = (
                f"tail = p{res['tail_percentile']} of {res['attempted']} ops; setup = median of {len(setups)}; "
                f"times rescaled to the reference speed (speed.py), unscaled: {raw}"
            )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    print(f"# {args.workload} seed {args.seed}, {'traced' if args.trace else 'untraced'}, one caller, closed loop")
    print(f"# {_fingerprint()}; {note}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':34s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
