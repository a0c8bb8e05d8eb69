"""The package namespace: every exported name is bound, and a star import works."""

import chronolog
from chronolog import timescale


def test_every_exported_name_is_bound_once():
    assert [name for name in chronolog.__all__ if not hasattr(chronolog, name)] == []
    assert len(set(chronolog.__all__)) == len(chronolog.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from chronolog import *", namespace)
    assert set(chronolog.__all__) <= namespace.keys()


def test_window_segments_are_not_part_of_the_api():
    # a window is its clipped pieces; no record type stands for a segment
    for name in ("ContinuousPiece", "SegmentDecomposition", "ScatteredJump", "Segment"):
        assert name not in chronolog.__all__
        assert not hasattr(chronolog, name)
    for name in ("ContinuousPiece", "SegmentDecomposition", "Segment"):
        assert not hasattr(timescale, name)
    for name in ("decompose", "gap_count"):
        assert not hasattr(timescale.TimeScale, name)


def test_scale_function_is_one_class_defined_in_expr():
    # p with its compiled code is one object, re-exported by calculus and the package
    from chronolog import calculus, expr

    assert chronolog.ScaleFunction is calculus.ScaleFunction is expr.ScaleFunction
    assert expr.ScaleFunction.__module__ == "chronolog.expr"
    assert not hasattr(expr, "CompiledPair")
    # the benchmark's tracer wraps these three in the class's own namespace
    assert {"__call__", "prime", "from_text"} <= vars(expr.ScaleFunction).keys()
