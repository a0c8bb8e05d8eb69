"""The benchmark's tracer still sees the library.

``perfbench/tracer.py`` wraps chronolog functions by module attribute name
and reads its counters from the wrappers.  A rename, or a call that no
longer goes through the module attribute, makes a counter read 0 without
failing any answer.  This installs a Tracer the way the benchmark worker
does, runs one op of each kind the benchmark gates on, and checks that the
gated counters move and that uninstalling restores every attribute.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the modules the benchmark worker hands to Tracer.install, "" being the package
MODULES = ("errors", "multivalue", "expr", "timescale", "cylinder", "calculus", "logexp", "cli")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules() -> dict:
    mods = {name: importlib.import_module("chronolog." + name) for name in MODULES}
    mods[""] = importlib.import_module("chronolog")
    return mods


def _bindings(mods: dict) -> dict:
    # every module attribute, and every class dict entry of the classes the
    # tracer patches, by identity
    out = {}
    ts_mod = mods["timescale"]
    owners = list(mods.values()) + [mods["calculus"].ScaleFunction]
    owners += [c for c in vars(ts_mod).values() if isinstance(c, type) and issubclass(c, ts_mod.TimeScale)]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            out[(id(owner), attr)] = value
    return out


def test_tracer_counts_the_gated_layers_and_uninstalls_cleanly():
    tracer_mod = _load_tracer()
    mods = _modules()
    before = _bindings(mods)
    logexp, calculus, timescale = mods["logexp"], mods["calculus"], mods["timescale"]
    tracer = tracer_mod.Tracer()
    tracer.install(mods)
    try:
        assert mods["cylinder"].xi is not before[(id(mods["cylinder"]), "xi")]
        grid = timescale.parse_timescale("hz:1")
        p = calculus.ScaleFunction.from_text("t^2+1")
        q = calculus.ScaleFunction.from_text("t+3")

        # the theorem's single jumps evaluate p one point at a time
        logexp.log_ts("delta-principal", p, grid, 0.0, 20.0)
        assert tracer.layer_metrics(1)["expr.p_evals"] > 0

        # the benchmark's exp_nabla takes a plain (tau, nu) coefficient, whose
        # single jumps go through the row's map; exp_delta(delta_quotient(p))
        # takes ratios of p and reaches no map
        def backward(tau, nu):
            pv = p(tau)
            return (pv - p(tau - nu)) / nu / pv if nu > 0 else p.prime(tau) / pv

        logexp.exp_nabla(backward, grid, 0.0, 20.0)
        walk = tracer.layer_metrics(1)
        assert walk["cylinder.map_calls"] > 0
        assert walk["expr.p_evals"] > 0

        # the suite's one definition walk calls each of its five rows' maps,
        # by name through the module, once per jump
        logexp.identity_suite(p, q, grid, 0.0, 10.0, 2.0)
        suite = tracer.layer_metrics(1)
        assert suite["cylinder.map_calls"] == walk["cylinder.map_calls"] + 5 * 10
        assert suite["logexp.windows_per_suite"] > 0

        logexp.log_delta_principal(p, timescale.parse_timescale("r"), 0.0, 2.0)
        dense = tracer.layer_metrics(1)
        assert dense["calculus.quad_samples"] > suite["calculus.quad_samples"]
        # the theorem's one piece takes one quadrature call, for its winding
        assert dense["calculus.quad_calls"] == suite["calculus.quad_calls"] + 1
        assert dense["logexp.window_calls"] > suite["logexp.window_calls"] > 0
    finally:
        tracer.uninstall()
    after = _bindings(mods)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
