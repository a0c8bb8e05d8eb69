import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolog import timescale
from chronolog.calculus import ScaleFunction, delta_integral
from chronolog.cli import _walk_points, _window_has_jumps
from chronolog.errors import InvalidTimeScale, KappaBoundary, PointNotInScale, UnboundedWindow, ValidationError
from chronolog.logexp import exp_delta, log_delta_derivative, log_table, log_ts
from chronolog.timescale import (
    AlternatingGrid,
    DiscreteSet,
    IntervalUnion,
    QGrid,
    Reals,
    UniformGrid,
    parse_timescale,
)

ALL_SPECS = [
    "r",
    "hz:1",
    "hz:0.5",
    "hz:2:1",
    "hz:0.3:0.05",
    "q:2",
    "q:3",
    "alt:1,2",
    "alt:2,0.5",
    "alt:0.3,0.7",
    "set:-5,-4,3",
    "union:[-6,-4];[2,5]",
    "union:[-inf,-4];[2,inf]",
]


def _pieces(ts, s, t):
    """The window [s, t] as its pieces clipped to it: a piece (a, b) with
    b > a is a continuous stretch, and a jump joins each b to the next a."""
    return list(ts._clipped_pieces(s, t))


def _some_window(ts, rng):
    pts = sorted(_some_points(ts, rng))
    return pts[0], pts[-1]


def _some_points(ts, rng, count=6):
    if isinstance(ts, Reals):
        return [rng.uniform(-10, 10) for _ in range(count)]
    if isinstance(ts, UniformGrid):
        return [ts.anchor + ts.h * rng.randint(-8, 12) for _ in range(count)]
    if isinstance(ts, QGrid):
        return [ts.q ** rng.randint(0, 10) for _ in range(count)]
    if isinstance(ts, AlternatingGrid):
        period = ts.alpha + ts.beta
        return [
            rng.randint(0, 10) * period + (ts.alpha if rng.random() < 0.5 else 0.0)
            for _ in range(count)
        ]
    if isinstance(ts, DiscreteSet):
        return [rng.choice(ts.points) for _ in range(count)]
    pts = []
    for _ in range(count):
        lo, hi = ts.pieces[rng.randrange(len(ts.pieces))]
        lo = max(lo, -9.0)
        hi = min(hi, 9.0)
        pts.append(rng.uniform(lo, hi))
    return pts


# ---------------------------------------------------------------------------
# per-family behavior
# ---------------------------------------------------------------------------


def test_reals_everything_dense():
    ts = Reals()
    assert ts.mu(3.7) == 0.0
    assert ts.nu(-2.0) == 0.0
    assert ts.sigma(5.0) == 5.0
    assert ts.rho(5.0) == 5.0
    assert _pieces(ts, 1.0, 4.0) == [(1.0, 4.0)]
    assert _pieces(ts, 2.0, 2.0) == [(2.0, 2.0)]


def test_reals_rejects_nonfinite():
    ts = Reals()
    with pytest.raises(PointNotInScale):
        ts.snap(float("inf"))
    with pytest.raises(PointNotInScale):
        ts.snap(float("nan"))


def test_uniform_grid_ops():
    ts = UniformGrid(1.0)
    assert ts.sigma(3.0) == 4.0
    assert ts.rho(3.0) == 2.0
    assert ts.mu(3.0) == 1.0
    assert ts.nu(-7.0) == 1.0
    assert ts.contains(-100.0)
    assert not ts.contains(0.5)


def test_uniform_grid_constant_graininess():
    # the graininess is sigma(t) - t; it is exactly h on a dyadic grid, and
    # may differ from h in the last bits off one
    for h, anchor in ((0.5, 0.0), (2.0, 1.0), (0.1, 0.3)):
        ts = UniformGrid(h, anchor)
        for k in range(-5, 15):
            t = ts.snap(anchor + k * h)
            assert ts.mu(t) == ts.sigma(t) - t
            assert ts.nu(t) == t - ts.rho(t)
            if h in (0.5, 2.0):
                assert ts.mu(t) == ts.nu(t) == h


def test_uniform_grid_snap_tolerance():
    ts = UniformGrid(1.0)
    assert ts.snap(3.0 + 1e-13) == 3.0
    with pytest.raises(PointNotInScale):
        ts.snap(3.1)


def test_qgrid_ops():
    ts = QGrid(2.0)
    assert ts.sigma(8.0) == 16.0
    assert ts.rho(8.0) == 4.0
    assert ts.rho(1.0) == 1.0  # the minimum is left-dense by convention
    assert ts.mu(4.0) == 4.0
    assert ts.min_point == 1.0
    with pytest.raises(PointNotInScale):
        ts.snap(3.0)
    with pytest.raises(PointNotInScale):
        ts.snap(0.5)
    with pytest.raises(PointNotInScale):
        ts.snap(-2.0)


def test_qgrid_graininess_proportional_to_t():
    for q in (2.0, 3.0, 1.5):
        ts = QGrid(q)
        for k in range(0, 40):
            t = q ** k
            assert ts.mu(t) == pytest.approx((q - 1) * t, rel=1e-12)


def test_qgrid_nabla_boundary():
    ts = QGrid(2.0)
    with pytest.raises(KappaBoundary):
        ts.nabla_point(1.0)
    ts.delta_point(1.0)  # no maximum, fine


def test_discrete_set_ops():
    ts = DiscreteSet((1.0, 2.0, 5.0))
    assert ts.sigma(2.0) == 5.0
    assert ts.sigma(5.0) == 5.0
    assert ts.rho(1.0) == 1.0
    assert ts.nu(5.0) == 3.0
    assert ts.min_point == 1.0 and ts.max_point == 5.0
    with pytest.raises(KappaBoundary):
        ts.delta_point(5.0)
    with pytest.raises(KappaBoundary):
        ts.nabla_point(1.0)
    with pytest.raises(PointNotInScale):
        ts.snap(3.0)


def test_discrete_set_snaps_to_nearest_of_close_points():
    # both points lie within the snap tolerance of each other
    ts = DiscreteSet((0.0, 1e-13, 1.0))
    assert ts.snap(1e-13) == 1e-13
    assert ts.snap(0.4e-13) == 0.0
    assert ts.snap(0.5e-13) == 0.0  # a tie goes to the lower point
    assert _pieces(ts, 0.0, 1.0) == [(0.0, 0.0), (1e-13, 1e-13), (1.0, 1.0)]


def test_discrete_set_validation():
    with pytest.raises(InvalidTimeScale):
        DiscreteSet((1.0,))
    with pytest.raises(InvalidTimeScale):
        DiscreteSet((2.0, 1.0))
    with pytest.raises(InvalidTimeScale):
        DiscreteSet((1.0, 1.0, 2.0))


def test_alternating_grid_pattern():
    ts = AlternatingGrid(1.0, 2.0)
    # points 0, 1, 3, 4, 6, 7, 9, ...
    assert ts.sigma(0.0) == 1.0 and ts.mu(0.0) == 1.0
    assert ts.sigma(1.0) == 3.0 and ts.mu(1.0) == 2.0
    assert ts.sigma(3.0) == 4.0 and ts.mu(3.0) == 1.0
    assert ts.rho(3.0) == 1.0 and ts.nu(3.0) == 2.0
    assert ts.rho(1.0) == 0.0 and ts.nu(1.0) == 1.0
    assert ts.rho(0.0) == 0.0
    assert ts.min_point == 0.0
    with pytest.raises(KappaBoundary):
        ts.nabla_point(0.0)
    with pytest.raises(PointNotInScale):
        ts.snap(2.0)
    with pytest.raises(PointNotInScale):
        ts.snap(-1.0)


def test_alternating_grid_long_range_classification():
    ts = AlternatingGrid(2.0, 0.5)
    period = 2.5
    for k in range(0, 60):
        base = k * period
        assert ts.mu(base) == pytest.approx(2.0, abs=1e-12)
        assert ts.mu(base + 2.0) == pytest.approx(0.5, abs=1e-12)


def test_alternating_grid_validation():
    with pytest.raises(InvalidTimeScale):
        AlternatingGrid(1.0, 1.0)
    with pytest.raises(InvalidTimeScale):
        AlternatingGrid(0.0, 1.0)
    with pytest.raises(InvalidTimeScale):
        AlternatingGrid(1.0, -2.0)


def test_interval_union_ops():
    ts = IntervalUnion(((-6.0, -4.0), (2.0, 5.0)))
    assert ts.sigma(-4.0) == 2.0 and ts.mu(-4.0) == 6.0
    assert ts.rho(2.0) == -4.0 and ts.nu(2.0) == 6.0
    assert ts.sigma(-5.0) == -5.0  # interior points are dense
    assert ts.rho(4.4) == 4.4
    assert ts.sigma(5.0) == 5.0
    assert ts.rho(-6.0) == -6.0
    assert ts.min_point == -6.0 and ts.max_point == 5.0
    # endpoints of a nondegenerate interval are dense on the inner side
    ts.delta_point(5.0)
    ts.nabla_point(-6.0)
    with pytest.raises(PointNotInScale):
        ts.snap(0.0)


def test_interval_union_unbounded():
    ts = IntervalUnion(((float("-inf"), -4.0), (2.0, float("inf"))))
    assert ts.min_point is None and ts.max_point is None
    assert ts.contains(-1000.0) and ts.contains(1000.0)
    assert not ts.contains(0.0)
    assert _pieces(ts, -5.0, 3.0) == [(-5.0, -4.0), (2.0, 3.0)]


def test_interval_union_degenerate_piece_is_isolated_point():
    ts = IntervalUnion(((0.0, 0.0), (1.0, 2.0)))
    assert ts.sigma(0.0) == 1.0
    assert ts.rho(0.0) == 0.0
    assert ts.mu(0.0) == 1.0
    with pytest.raises(KappaBoundary):
        ts.nabla_point(0.0)


def test_interval_union_snaps_to_the_nearer_piece_end():
    # pieces closer together, or shorter, than the snap tolerance keep their ends
    ts = IntervalUnion(((0.0, 1.0), (1 + 1e-13, 2.0)))
    assert ts.snap(1 + 1e-13) == 1 + 1e-13
    assert ts.mu(1 + 1e-13) == 0.0
    assert ts.sigma(1.0) == 1 + 1e-13
    ts = IntervalUnion(((0.0, 1e-13), (1.0, 2.0)))
    assert ts.snap(1e-13) == 1e-13
    assert ts.sigma(1e-13) == 1.0


def test_decompose_caps_the_jumps_of_one_window(monkeypatch):
    # the cap holds for the clipped pieces, the piece indices and the walk
    monkeypatch.setattr(timescale, "MAX_WINDOW_JUMPS", 10)
    ts = UniformGrid(0.5)
    assert len(_pieces(ts, 0.0, 5.0)) == 11
    ks, kt, *_ = ts._span(0.0, 5.0)
    assert kt - ks == 10
    one = lambda x, mu: 1.0 + 0j
    assert delta_integral(one, ts, 0.0, 5.0) == 5.0
    for window in (lambda: _pieces(ts, 0.0, 5.5), lambda: ts._span(0.0, 5.5),
                   lambda: delta_integral(one, ts, 0.0, 5.5), lambda: delta_integral(one, ts, 5.5, 0.0)):
        with pytest.raises(UnboundedWindow):
            window()


def test_interval_union_validation():
    with pytest.raises(InvalidTimeScale):
        IntervalUnion(((2.0, 1.0),))
    with pytest.raises(InvalidTimeScale):
        IntervalUnion(((0.0, 2.0), (1.0, 3.0)))
    with pytest.raises(InvalidTimeScale):
        IntervalUnion(((0.0, 2.0), (2.0, 3.0)))  # touching pieces must merge
    with pytest.raises(InvalidTimeScale):
        IntervalUnion(((0.0, float("inf")), (5.0, 6.0)))
    with pytest.raises(InvalidTimeScale):
        IntervalUnion(())
    with pytest.raises(InvalidTimeScale):
        IntervalUnion(((float("nan"), 1.0),))
    with pytest.raises(InvalidTimeScale, match="^bad interval list"):
        IntervalUnion((("a", 1.0),))


def test_grid_points_beyond_float_range_or_resolution_raise():
    # the index of 1e308 overflows on both grids
    with pytest.raises(PointNotInScale):
        UniformGrid(0.5).snap(1e308)
    with pytest.raises(PointNotInScale):
        AlternatingGrid(0.1, 0.2).snap(1e308)
    # and the successor of 2^1023 on q:2
    with pytest.raises(PointNotInScale, match="q\\^1024 overflows"):
        parse_timescale("q:2").sigma(2.0**1023)
    # 2^53 is on hz:0.5, but its neighbours round onto it
    ts = UniformGrid(0.5)
    big = 2.0 ** 53
    assert ts.snap(big) == big
    for op in (ts.sigma, ts.rho, ts.mu, ts.nu):
        with pytest.raises(PointNotInScale):
            op(big)
    with pytest.raises(PointNotInScale):
        _pieces(ts, big, big + 4.0)


def test_every_path_to_a_neighbour_that_rounds_onto_its_point_raises_one_message():
    # on hz:0.1:1e17 both neighbours of 1e17 round onto it (the float
    # spacing there is 16); every lookup of a neighbour says so the same way
    ts = parse_timescale("hz:0.1:1e17")
    x, far = 1e17, 1.0000000000000016e17
    assert ts.snap(x) == x and ts.snap(far) == far
    p = ScaleFunction.from_text("t+1")
    for compute in (
        lambda: ts.sigma(x),
        lambda: ts.rho(x),
        lambda: ts.delta_point(x),
        lambda: ts.nabla_point(x),
        lambda: _walk_points(ts, x, far, None),
        lambda: log_ts("delta-principal", p, ts, x, far),
        lambda: log_ts("nabla-multi", p, ts, far, x),
        lambda: log_table("delta-principal", p, ts, x, [x, far]),
        lambda: log_delta_derivative(p, ts, x),
        lambda: exp_delta(p, ts, x, far),
    ):
        with pytest.raises(PointNotInScale) as info:
            compute()
        assert str(info.value) == "the neighbour of 1e+17 is not a distinct finite float"


def test_snap_returns_exact_stored_points():
    ts = QGrid(3.0)
    t = 3.0 ** 7
    assert ts.snap(t * (1 + 1e-14)) == t
    ts2 = AlternatingGrid(1.0, 2.0)
    assert ts2.snap(3.0 + 1e-13) == 3.0


# ---------------------------------------------------------------------------
# decomposition invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_decompose_lengths_telescope(spec):
    # the pieces' lengths and the gaps between them sum to t - s
    ts = parse_timescale(spec)
    rng = random.Random(f"telescope:{spec}")
    for _ in range(20):
        s, t = _some_window(ts, rng)
        s, t = ts.snap(s), ts.snap(t)
        pieces = _pieces(ts, s, t)
        assert pieces[0][0] == s and pieces[-1][1] == t
        total = sum(b - a for a, b in pieces) + sum(a - b for (_, b), (a, _) in zip(pieces, pieces[1:]))
        assert abs(total - (t - s)) <= 1e-12 * max(1.0, abs(t - s))


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_decompose_segments_stay_in_scale(spec):
    ts = parse_timescale(spec)
    rng = random.Random(f"in-scale:{spec}")
    for _ in range(10):
        s, t = _some_window(ts, rng)
        s, t = ts.snap(s), ts.snap(t)
        pieces = _pieces(ts, s, t)
        end = s
        for i, (a, b) in enumerate(pieces):
            if i:  # the jump from the last piece's end tau = end to a
                tau, mu = end, a - end
                assert ts.contains(tau) and ts.contains(tau + mu)
                assert mu > 0
                assert a == ts.sigma(tau)  # the stored successor, bit for bit
                assert mu == ts.mu(tau)
            assert a >= end and b >= a
            assert ts.contains(a) and ts.contains(b)
            if b > a:  # a continuous stretch
                mid = 0.5 * (a + b)
                assert ts.contains(mid) and ts.mu(mid) == 0.0
            end = b
        assert end == t


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_gap_count_counts_the_jumps_of_decompose(spec):
    # the number of gaps a window jumps is the difference of its ends' piece
    # indices, from which the CLI's scattered_contributed flag reads it
    ts = parse_timescale(spec)
    rng = random.Random(f"gap-count:{spec}")
    for _ in range(10):
        s, t = _some_window(ts, rng)
        jumps = len(_pieces(ts, ts.snap(s), ts.snap(t))) - 1
        ks, kt, *_ = ts._span(s, t)
        assert kt - ks == jumps
        assert _window_has_jumps(ts, s, t) == _window_has_jumps(ts, t, s) == (jumps > 0)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_decompose_concatenates_at_interior_points(spec):
    # the windows [s, r] and [r, t] meet in one piece, which splits at r
    ts = parse_timescale(spec)
    rng = random.Random(f"concatenate:{spec}")
    for _ in range(10):
        pts = sorted(ts.snap(x) for x in _some_points(ts, rng, count=3))
        s, r, t = pts
        left, right = _pieces(ts, s, r), _pieces(ts, r, t)
        assert left[-1][1] == r == right[0][0]
        joined = left[:-1] + [(left[-1][0], right[0][1])] + right[1:]
        assert joined == _pieces(ts, s, t)


@pytest.mark.parametrize("spec", ALL_SPECS + ["set:1,2,5", "union:[0,1];[3,3]", "union:[0,0];[2,3]"])
def test_delta_and_nabla_points_agree_with_snap_sigma_rho(spec):
    ts = parse_timescale(spec)
    rng = random.Random(f"points:{spec}")
    ends = [x for x in (ts.min_point, ts.max_point) if x is not None]
    ends += [x for piece in getattr(ts, "pieces", ()) for x in piece if math.isfinite(x)]
    for t in _some_points(ts, rng, count=20) + ends:
        x = ts.snap(t)
        if x == ts.max_point and ts.rho(x) < x:
            with pytest.raises(KappaBoundary, match=f"left-scattered maximum {re.escape(str(x))}$"):
                ts.delta_point(t)
        else:
            assert ts.delta_point(t) == (x, ts.sigma(x))
        if x == ts.min_point and ts.sigma(x) > x:
            with pytest.raises(KappaBoundary, match=f"right-scattered minimum {re.escape(str(x))}$"):
                ts.nabla_point(t)
        else:
            assert ts.nabla_point(t) == (x, ts.rho(x))


@pytest.mark.parametrize(
    "spec, k0, k1",
    [
        ("hz:1", -5, 5),
        ("hz:0.3:0.05", -40, 3000),
        ("hz:1.5e-16:0.999999999999997", 0, 60),  # points that round onto each other
        ("q:1.001", 0, 3000),
        ("q:2.5", 0, 700),
        ("alt:0.3,0.7", 0, 3001),
        ("alt:2,0.5", 7, 8),
        ("set:-5,-4,3", 0, 2),
        ("set:-5,-4,3", 1, 1),
    ],
)
def test_points_are_the_pieces_stored_points_bit_for_bit(spec, k0, k1):
    ts = parse_timescale(spec)
    want = [ts._piece(k)[0].hex() for k in range(k0, k1 + 1)]
    assert [x.hex() for x in ts._points(k0, k1)] == want
    assert len(ts._points(k1, k0 - 1)) == 0


@st.composite
def _point_family_range(draw):
    """A point family, a first index k0 and a count n <= 40 of jumps from
    it, all points finite: hz with a drawn step and anchor and negative k too."""
    family = draw(st.sampled_from(["hz", "q", "alt", "set"]))
    n = draw(st.integers(0, 40))
    if family == "hz":
        h = draw(st.floats(1e-300, 1e300))
        anchor = draw(st.sampled_from([0.0, -0.0]) | st.floats(-1e300, 1e300))
        limit = int(min(1e12, 1e300 / h))
        return UniformGrid(h, anchor), draw(st.integers(-limit, limit)), n
    if family == "q":
        q = draw(st.floats(1.0001, 1e6))
        return QGrid(q), draw(st.integers(0, int(1000 / math.log2(q)) - n)), n
    if family == "alt":
        a = draw(st.floats(1e-6, 1e6))
        b = draw(st.floats(1e-6, 1e6).filter(lambda b: b != a))
        return AlternatingGrid(a, b), draw(st.integers(0, 10**12)), n
    pts = sorted(draw(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=50, unique=True)))
    k0 = draw(st.integers(0, len(pts) - 1))
    return DiscreteSet(tuple(pts)), k0, min(n, len(pts) - 1 - k0)


@given(_point_family_range())
@example((DiscreteSet((-1.0, -0.0, 2.0)), 0, 2))  # a stored -0.0 stays -0.0
@settings(max_examples=300, deadline=None)
def test_points_and_pieces_agree_bit_for_bit_hypothesis(family_range):
    # the walk's blocks take _points where its single jumps take _piece: the
    # two must give the same floats, signed zeros included
    ts, k0, n = family_range
    pieces = [ts._piece(k) for k in range(k0, k0 + n + 1)]
    assert [a.hex() for a, _ in pieces] == [b.hex() for _, b in pieces]
    assert [x.hex() for x in ts._points(k0, k0 + n)] == [a.hex() for a, _ in pieces]


@pytest.mark.parametrize("spec", ["r", "union:[-6,-4];[2,5]", "union:[0,0];[2,3]"])
def test_interval_families_list_no_points(spec):
    assert parse_timescale(spec)._points(0, 0) is None


def test_decompose_rejects_reversed_window():
    with pytest.raises(ValidationError, match=r"^the window \[3\.0, 1\.0\] is reversed"):
        _pieces(Reals(), 3.0, 1.0)


def test_decompose_empty_window():
    for spec in ALL_SPECS:
        ts = parse_timescale(spec)
        rng = random.Random(1)
        (x,) = [ts.snap(p) for p in _some_points(ts, rng, count=1)]
        assert _pieces(ts, x, x) == [(x, x)]
        assert not _window_has_jumps(ts, x, x)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_parse_timescale_families():
    assert isinstance(parse_timescale("r"), Reals)
    g = parse_timescale("hz:0.5")
    assert isinstance(g, UniformGrid) and g.h == 0.5 and g.anchor == 0.0
    g = parse_timescale("hz:2:1")
    assert g.h == 2.0 and g.anchor == 1.0
    q = parse_timescale("q:2")
    assert isinstance(q, QGrid) and q.q == 2.0
    a = parse_timescale("alt:1,2")
    assert isinstance(a, AlternatingGrid) and (a.alpha, a.beta) == (1.0, 2.0)
    u = parse_timescale("union:[-6,-4];[2,5]")
    assert isinstance(u, IntervalUnion) and u.pieces == ((-6.0, -4.0), (2.0, 5.0))
    u = parse_timescale("union:[-inf,-4];[2,inf]")
    assert u.pieces[0][0] == float("-inf") and u.pieces[1][1] == float("inf")
    d = parse_timescale("set:-5,-4,3")
    assert isinstance(d, DiscreteSet) and d.points == (-5.0, -4.0, 3.0)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "zzz",
        "hz:0",
        "hz:-1",
        "hz:abc",
        "hz:inf",
        "hz:1:inf",
        "hz:1:2:3",
        "q:1",
        "q:0.5",
        "q:inf",
        "alt:1",
        "alt:1,1",
        "alt:1,2,3",
        "alt:inf,1",
        "union:",
        "union:(1,2)",
        "union:[3,1]",
        "union:[1,2];[2,3]",
        "set:1",
        "set:2,1",
        "set:1,nan",
    ],
)
def test_parse_timescale_rejects(bad):
    with pytest.raises(InvalidTimeScale):
        parse_timescale(bad)


_gap = st.floats(min_value=0.01, max_value=50.0)


@st.composite
def _grid_point(draw):
    """A scale of any of the six families and one of its points."""
    family = draw(st.sampled_from(["hz", "q", "alt", "set", "union", "r"]))
    if family == "hz":
        h, anchor = draw(_gap), draw(st.floats(min_value=-10.0, max_value=10.0))
        k = draw(st.integers(min_value=-50, max_value=50))
        return UniformGrid(h, anchor), anchor + k * h
    if family == "q":
        q, k = draw(st.floats(min_value=1.01, max_value=10.0)), draw(st.integers(0, 60))
        return QGrid(q), q ** k
    if family == "alt":
        a = draw(_gap)
        b = draw(_gap.filter(lambda b: b != a))
        k = draw(st.integers(0, 100))
        return AlternatingGrid(a, b), (k // 2) * (a + b) + (a if k % 2 else 0.0)
    if family == "r":
        return Reals(), draw(st.floats(allow_nan=False, allow_infinity=False))
    pts = draw(st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=20, unique=True))
    pts = sorted(pts)
    if family == "set":
        return DiscreteSet(tuple(pts)), pts[draw(st.integers(0, len(pts) - 1))]
    # consecutive pairs of ends, some pieces collapsed to an isolated point
    pieces = []
    for a, b in zip(pts[::2], pts[1::2]):
        pieces.append((a, a) if draw(st.booleans()) else (a, b))
    a, b = pieces[draw(st.integers(0, len(pieces) - 1))]
    return IntervalUnion(tuple(pieces)), draw(st.sampled_from([a, b]))


@given(_grid_point())
@settings(max_examples=300, deadline=None)
def test_grid_membership_hypothesis(grid_point):
    ts, x = grid_point
    assert ts.snap(x) == x
    up, down = ts.sigma(x), ts.rho(x)
    # one graininess on every family: the float gap to the stored neighbour
    assert ts.mu(x) == up - x
    assert ts.nu(x) == x - down
    assert down <= x <= up
    # sigma and rho undo each other across every gap
    assert up == x or ts.rho(up) == x
    assert down == x or ts.sigma(down) == x
    if isinstance(ts, IntervalUnion):
        # exactly the inner piece ends are scattered, towards their gap
        assert (up > x) == any(x == b for _, b in ts.pieces[:-1])
        assert (down < x) == any(x == a for a, _ in ts.pieces[1:])
    elif isinstance(ts, Reals):
        assert up == down == x
    else:
        # every grid point is isolated; only the ends stay put
        assert (up == x) == (x == ts.max_point)
        assert (down == x) == (x == ts.min_point)
