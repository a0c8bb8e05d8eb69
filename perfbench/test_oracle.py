"""Self-test of the benchmark's correctness checks.

Corrupts real chronolog results and shows the oracle counts each as a
failed op, and that a whole 2*pi*i shift (the same multi-valued logarithm)
is not counted.  Standard library only:

    PYTHONPATH=src python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import cmath
import os
import random
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import chronolog.calculus as calculus  # noqa: E402
import chronolog.errors as errors  # noqa: E402
import chronolog.logexp as logexp  # noqa: E402
import chronolog.timescale as timescale  # noqa: E402

import ops  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

HALF_TURN = 2j * cmath.pi * 0.5
FULL_TURN = 2j * cmath.pi


def _spec(kind: str, scale: dict, family: str, i: int, j: int, seed: int = 7) -> dict:
    rng = random.Random(seed)
    s, t = oracle.point(scale, i), oracle.point(scale, j)
    return {
        "kind": kind,
        "scale": scale,
        "p": workloads.draw_family(rng, family, s, t),
        "s": s,
        "t": t,
        "eta": 0.3 if kind == "log_eta" else None,
        "i": i,
        "j": j,
        "stratum": 0,
    }


def _built(*specs):
    built = ops.build_in_process(list(specs), timescale, calculus)
    ops.attach_expected(built)
    return built


def _corrupted_logexp(change):
    """logexp as the ops see it, with every window result passed through change."""
    fake = types.SimpleNamespace(delta_quotient=logexp.delta_quotient)
    for kind in workloads.KINDS:
        fn = getattr(logexp, kind)
        setattr(fake, kind, lambda *a, _fn=fn: change(_fn(*a)))
    return fake


def _rep(value):
    return getattr(value, "rep", value)


class OracleCatchesCorruption(unittest.TestCase):
    def setUp(self):
        grid = workloads.hz_scale(0.5, 0.25)
        qgrid = workloads.q_scale(1.01)
        self.log_ops = _built(
            _spec("log_delta_principal", grid, "cshift", 3, 80),
            _spec("log_nabla_multi", qgrid, "expit", 0, 60),
            _spec("log_eta", grid, "quad", -40, 30),
        )
        self.exp_ops = _built(
            _spec("exp_delta", grid, "cshift", 3, 80),
            _spec("exp_nabla", qgrid, "expit", 0, 60),
        )

    def test_clean_results_pass(self):
        for op in self.log_ops + self.exp_ops:
            self.assertIsNone(op.failure(op.run(logexp)), op.kind)

    def test_half_lattice_shift_is_a_failure(self):
        for op in self.log_ops:
            self.assertIsNotNone(op.failure(_rep(op.run(logexp)) + HALF_TURN), op.kind)

    def test_whole_lattice_shift_is_not_a_failure(self):
        for op in self.log_ops:
            for k in (-2, 1, 3):
                self.assertIsNone(op.failure(_rep(op.run(logexp)) + k * FULL_TURN), op.kind)

    def test_exp_relative_error_is_a_failure(self):
        for op in self.exp_ops:
            self.assertIsNotNone(op.failure(op.run(logexp) * (1 + 1e-6)), op.kind)

    def test_exp_product_of_factors_is_checked(self):
        # two expected values on a discrete scale: the quotient and the product
        for op in self.exp_ops:
            self.assertEqual(len(op.expected), 2)
            self.assertIsNone(oracle.exp_failure(op.expected[0], op.expected[1]))

    def test_failures_are_counted_by_the_run_loop(self):
        mods = {"errors": errors}
        cases = (
            (lambda v: _rep(v) + HALF_TURN, self.log_ops, True),
            (lambda v: _rep(v) + FULL_TURN, self.log_ops, False),
            (lambda v: v * (1 + 1e-6), self.exp_ops, True),
            (lambda v: v, self.exp_ops, False),
        )
        for change, built, wrong in cases:
            mods["logexp"] = _corrupted_logexp(change)
            report = worker.run_in_process("discrete_walk", 0.0, built, mods, [])
            self.assertGreaterEqual(report["attempted"], worker.MIN_SAMPLES["discrete_walk"])
            self.assertEqual(report["failed"], report["attempted"] if wrong else 0)


class CliChecks(unittest.TestCase):
    def _table_spec(self):
        rng = random.Random(3)
        scale = workloads.hz_scale(1.0)
        fam = workloads.draw_family(rng, "cshift", 2.0, 12.0)
        return {"cmd": "table", "format": "csv", "quantity": "log", "rows": 11, "scale": scale,
                "p": fam, "s": 2.0, "t": 12.0, "argv": ["table"]}

    def _table_output(self, spec, shift=0j, row=5):
        lines = ["t,value_re,value_im"]
        for k in range(spec["rows"]):
            u = spec["s"] + k
            v = oracle.log_ratio(spec["p"], spec["s"], u) + (shift if k == row else 0)
            lines.append(f"{u!r},{v.real!r},{v.imag!r}")
        return ("\n".join(lines) + "\n").encode()

    def test_table_rows_are_checked_one_by_one(self):
        spec = self._table_spec()
        self.assertIsNone(ops.cli_failure(spec, 0, self._table_output(spec))[0])
        self.assertIsNone(ops.cli_failure(spec, 0, self._table_output(spec, FULL_TURN))[0])
        self.assertIsNotNone(ops.cli_failure(spec, 0, self._table_output(spec, HALF_TURN))[0])

    def test_nonzero_exit_is_a_failure(self):
        spec = self._table_spec()
        self.assertIsNotNone(ops.cli_failure(spec, 3, self._table_output(spec))[0])

    def test_changed_bytes_for_identical_argv_are_a_failure(self):
        path = os.path.join(HERE, "out", "test-digests.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            first = worker.Digests(path)
            self.assertIsNone(first.mismatch(["eval", "x"], b"1\n"))
            self.assertIsNone(first.mismatch(["eval", "x"], b"1\n"))
            self.assertIsNotNone(first.mismatch(["eval", "x"], b"2\n"))
            first.save()
            later = worker.Digests(path)  # a later run on the same seed
            self.assertIsNotNone(later.mismatch(["eval", "x"], b"2\n"))
            self.assertIsNone(later.mismatch(["eval", "y"], b"2\n"))
        finally:
            os.remove(path)


class Spans(unittest.TestCase):
    def test_dump_and_load_round_trip(self):
        import tracer

        t = tracer.Tracer()
        with t.new_op("demo"):
            with t.span("cli.process"):
                pass
        path = os.path.join(HERE, "out", "test-spans.bin")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            t.dump(path)
            header, arrays = tracer.load_spans(path)
        finally:
            os.remove(path)
        self.assertEqual(header["op_tags"], {"0": "demo"})
        self.assertEqual([header["names"][i] for i in arrays["name"]], ["op", "cli.process"])
        self.assertEqual(list(arrays["parent"]), [-1, 0])
        self.assertEqual(list(arrays["op"]), [0, 0])
        self.assertTrue(all(e >= s for s, e in zip(arrays["start"], arrays["end"])))


class BenchmarkJson(unittest.TestCase):
    def test_lists_the_metrics_the_run_prints(self):
        import json

        import run
        import tracer

        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, tracer.METRICS)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
