"""Acceptance gate: thirteen end-to-end checks at pinned tolerances.

Each test prints one `[criterion NN] ...: PASS` (or FAIL) line.  The lines
are written past pytest's capture so they always land in the run log.
"""

import cmath
import math
import random
import time

import pytest

from chronolog.calculus import ScaleFunction
from chronolog.cli import main as cli_main
from chronolog.cylinder import (
    cayley_psi,
    circle_dot,
    circle_minus,
    circle_plus,
    xi,
)
from chronolog.errors import ChronologError
from chronolog.expr import evaluate, parse, to_text
from chronolog.logexp import (
    delta_quotient,
    exp_delta,
    legacy_log,
    log_cayley_principal,
    log_delta_multi,
    log_delta_principal,
    log_eta,
    log_nabla_multi,
    scaled_residual,
)
from chronolog.multivalue import lattice_gap, principal_log
from chronolog.timescale import parse_timescale

# ten expressions that stay away from zero on every window below
CORPUS = [
    "t^2+1",
    "t+10",
    "exp(0.5*t)",
    "t^3+2",
    "2*t+5",
    "t^2+t+1",
    "sin(t)+3",
    "t^2-3*t+40",
    "(t+1)*(t+2)",
    "t+3*i",
]

# strictly positive real-valued everywhere (power rule, exactness cases)
POSITIVE_CORPUS = ["t^2+1", "t+10", "exp(0.5*t)", "t^2+t+1", "sin(t)+3", "t^2-3*t+40"]

WINDOWS = {
    "r": [(1.0, 3.0), (0.5, 2.5), (2.0, 5.0), (0.25, 1.75), (3.0, 6.0)],
    "hz:0.5": [(1.0, 3.0), (0.5, 2.5), (2.0, 5.0), (1.5, 4.0), (0.0, 3.0)],
    "hz:1": [(1.0, 3.0), (0.0, 4.0), (2.0, 6.0), (1.0, 5.0), (3.0, 7.0)],
    "hz:2": [(2.0, 6.0), (0.0, 4.0), (2.0, 8.0), (4.0, 10.0), (0.0, 6.0)],
    "q:2": [(1.0, 4.0), (1.0, 8.0), (2.0, 16.0), (4.0, 16.0), (1.0, 16.0)],
    "q:3": [(1.0, 9.0), (1.0, 27.0), (3.0, 27.0), (9.0, 81.0), (1.0, 81.0)],
    "union:[-6,-4];[2,5]": [
        (-5.0, 3.0),
        (-6.0, 4.0),
        (-4.0, 2.0),
        (-5.5, 2.5),
        (-4.5, 5.0),
    ],
}

SCALES = {spec: parse_timescale(spec) for spec in WINDOWS}
FUNCS = {text: ScaleFunction.from_text(text) for text in CORPUS}


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_stream(capsys):
    # let the one-line verdicts bypass capture and land in the run log
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _announce(num: int, desc: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {desc}: {verdict}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


class _gate:
    """Context manager printing the one-line verdict for a criterion."""

    def __init__(self, num, desc):
        self.num, self.desc = num, desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _announce(self.num, self.desc, exc_type is None)
        return False


def _mod_residual(value, target) -> float:
    _, res = lattice_gap(value, target)
    return res


def test_worked_example_on_split_axis():
    with _gate(1, "split-axis window of t^3 reproduces ln(27/125)+i*pi"):
        t0 = time.perf_counter()
        p = FUNCS["t^3"] if "t^3" in FUNCS else ScaleFunction.from_text("t^3")
        ts = parse_timescale("union:[-inf,-4];[2,inf]")
        got = log_delta_principal(p, ts, -5.0, 3.0)
        want = complex(math.log(27.0 / 125.0), math.pi)
        elapsed = time.perf_counter() - t0
        assert abs(got - want) < 1e-9
        assert elapsed < 1.0


def test_closed_form_oracle_equivalence():
    with _gate(2, "log matches Log(p(t)/p(s)) mod 2pi*i on 350 corpus cases"):
        t0 = time.perf_counter()
        checked = 0
        for spec, windows in WINDOWS.items():
            ts = SCALES[spec]
            for text in CORPUS:
                p = FUNCS[text]
                for s, t in windows:
                    got = log_delta_multi(p, ts, s, t)
                    want = cmath.log(p(t) / p(s))
                    res = _mod_residual(got, want)
                    assert res < 1e-8, (spec, text, s, t, res)
                    checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 350
        assert elapsed < 10.0


def test_exp_of_log_is_quotient_exponential():
    with _gate(3, "exp(L_p) equals the exponential of pDelta/p on the corpus"):
        for spec, windows in WINDOWS.items():
            ts = SCALES[spec]
            for text in CORPUS:
                p = FUNCS[text]
                for s, t in windows:
                    lhs = cmath.exp(log_delta_principal(p, ts, s, t))
                    rhs = exp_delta(delta_quotient(p), ts, s, t)
                    # scale-aware |lhs-rhs| (values reach e^40 on q-grids)
                    assert scaled_residual(lhs, rhs) < 1e-8, (spec, text, s, t)


def test_product_and_quotient_rules_randomized():
    with _gate(4, "product/quotient rules hold mod 2pi*i on 200 random cases"):
        from chronolog.errors import NonvanishingViolation

        rng = random.Random(20260817)
        specs = list(WINDOWS)
        cases = 0
        rejected = 0
        while cases < 200:
            spec = rng.choice(specs)
            ts = SCALES[spec]
            s, t = rng.choice(WINDOWS[spec])
            ptext, qtext = rng.sample(CORPUS, 2)
            p, q = FUNCS[ptext], FUNCS[qtext]
            try:
                prod = log_delta_multi(p * q, ts, s, t)
                quot = log_delta_multi(p / q, ts, s, t)
            except NonvanishingViolation:
                # p/q can sink below eps_min (poly over exp on wide q-grids);
                # such draws are outside the rules' domain, redraw
                rejected += 1
                assert rejected < 60
                continue
            Lp = log_delta_principal(p, ts, s, t)
            Lq = log_delta_principal(q, ts, s, t)
            assert _mod_residual(prod, Lp + Lq) < 1e-8, (spec, ptext, qtext, "product")
            assert _mod_residual(quot, Lp - Lq) < 1e-8, (spec, ptext, qtext, "quotient")
            cases += 1
        assert cases == 200


def test_power_rule():
    with _gate(5, "power rule: exact for positive p, mod-lattice for integer alpha"):
        for spec in ("r", "hz:1", "q:2", "union:[-6,-4];[2,5]"):
            ts = SCALES[spec]
            s, t = WINDOWS[spec][0]
            for text in POSITIVE_CORPUS:
                p = FUNCS[text]
                Lp = log_delta_principal(p, ts, s, t)
                for alpha in (-1.0, 0.5, 2.0, 3.0):
                    got = log_delta_principal(p.pow(alpha), ts, s, t)
                    assert abs(got - alpha * Lp) < 1e-8, (spec, text, alpha)
            for text in ("t+3*i", "t^3+2", "2*t+5", "(t+1)*(t+2)"):
                p = FUNCS[text]
                Lp = log_delta_principal(p, ts, s, t)
                for alpha in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
                    got = log_delta_multi(p.pow(alpha), ts, s, t)
                    assert _mod_residual(got, alpha * Lp) < 1e-8, (spec, text, alpha)


def test_cayley_equivalence():
    with _gate(6, "Cayley map agrees with the forward map pointwise and integrated"):
        rng = random.Random(11)
        tested = 0
        while tested < 1000:
            h = rng.uniform(0.05, 5.0)
            pv = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            ps = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(pv) < 0.3 or abs(ps) < 0.3 or abs(pv + ps) < 0.3:
                continue
            q = (ps - pv) / h
            forward = xi(h, q / pv)
            cayley = cayley_psi(h, 2.0 * q / (pv + ps))
            assert abs(forward - cayley) < 1e-12, (h, pv, ps)
            tested += 1
        for spec in ("hz:1", "hz:2", "q:2", "union:[-6,-4];[2,5]"):
            ts = SCALES[spec]
            s, t = WINDOWS[spec][1]
            for text in ("t^2+1", "t+3*i", "sin(t)+3"):
                p = FUNCS[text]
                a = log_cayley_principal(p, ts, s, t)
                b = log_delta_principal(p, ts, s, t)
                assert scaled_residual(a, b) < 1e-8, (spec, text)


def test_eta_family_collapses():
    with _gate(7, "eta-weighted logs all equal the forward log mod 2pi*i"):
        for spec in ("hz:0.5", "hz:1", "q:3", "union:[-6,-4];[2,5]"):
            ts = SCALES[spec]
            s, t = WINDOWS[spec][2]
            for text in ("t^2+1", "t+3*i", "(t+1)*(t+2)"):
                p = FUNCS[text]
                base = log_delta_principal(p, ts, s, t)
                for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
                    got = log_eta(eta, p, ts, s, t)
                    assert _mod_residual(got, base) < 1e-8, (spec, text, eta)


def test_derivative_theorem_closed_forms():
    with _gate(8, "pointwise log derivative matches the per-scale closed forms"):
        from chronolog.logexp import log_delta_derivative

        p = ScaleFunction.from_text("t")
        ts = parse_timescale("r")
        for i in range(50):
            t = 0.5 + 0.5 * i
            got = log_delta_derivative(p, ts, t)
            assert abs(got - 1.0 / t) < 1e-12
        for h in (0.5, 1.0, 2.0):
            ts = parse_timescale(f"hz:{h}")
            for k in range(1, 51):
                t = k * h
                want = math.log(1.0 + h / t) / h
                got = log_delta_derivative(p, ts, t)
                assert abs(got - want) < 1e-12
        for q in (2.0, 3.0):
            ts = parse_timescale(f"q:{q}")
            for k in range(50):
                t = q ** k
                want = math.log(q) / ((q - 1.0) * t)
                got = log_delta_derivative(p, ts, t)
                assert abs(got - want) < 1e-12
                if want != 0:
                    assert abs(got - want) / abs(want) < 1e-9
        a, b = 1.0, 2.0
        ts = parse_timescale("alt:1,2")
        pts = []
        k = 0
        while len(pts) < 50:
            base = k * (a + b)
            if base > 0:
                pts.append((base, a))
            pts.append((base + a, b))
            k += 1
        for t, gap in pts[:50]:
            want = math.log(1.0 + gap / t) / gap
            got = log_delta_derivative(p, ts, t)
            assert abs(got - want) < 1e-12


def test_figure_table_inequalities(capsys, tmp_path):
    with _gate(9, "tabulated 1/t bounds: 0 < log(1+1/t) < 1/t within 1/(2t^2)"):
        out_file = tmp_path / "fig.csv"
        rc = cli_main(
            [
                "table",
                "--timescale", "hz:1",
                "--p", "t",
                "--quantity", "logderiv",
                "--from", "1",
                "--to", "50",
                "--out", str(out_file),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        lines = out_file.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "t,value_re,value_im,quotient_re,quotient_im"
        assert len(lines) == 51
        for line in lines[1:]:
            t, v_re, v_im, q_re, _ = (float(c) for c in line.split(","))
            assert 1.0 <= t <= 50.0
            assert 0.0 < v_re < q_re
            assert abs(q_re - v_re) < 1.0 / (2.0 * t * t)
            assert v_im == 0.0


def test_nabla_log_with_telescoping_oracle():
    with _gate(10, "backward log telescopes and matches Log(p(t)/p(s)) mod 2pi*i"):
        ts = SCALES["hz:1"]
        for text in CORPUS:
            p = FUNCS[text]
            for s, t in WINDOWS["hz:1"]:
                got = log_nabla_multi(p, ts, s, t)
                oracle = sum(
                    cmath.log(p(float(k)) / p(float(k - 1)))
                    for k in range(int(s) + 1, int(t) + 1)
                )
                assert abs(got.rep - oracle) < 1e-10, (text, s, t, "oracle")
                want = cmath.log(p(t) / p(s))
                assert _mod_residual(got, want) < 1e-8, (text, s, t)


def test_legacy_logarithms():
    with _gate(11, "older constructions reduce to ln t / p'/p where promised"):
        ts = parse_timescale("r")
        for i in range(20):
            t = 1.0 + 0.75 * (i + 1)
            for kind in ("huff", "euler-cauchy", "mozyrska"):
                got = legacy_log(kind, None, ts, 1.0, t)
                assert abs(got - math.log(t)) < 1e-9, (kind, t)
        p = ScaleFunction.from_text("t^2+1")
        for i in range(20):
            t = 0.5 + 0.5 * i
            got = legacy_log("jackson", p, ts, 0.0, t)
            want = 2.0 * t / (t * t + 1.0)
            assert abs(got - want) < 1e-12


def test_property_bundle():
    with _gate(12, "decomposition/integral/circle/branch/parser property bundle"):
        t0 = time.perf_counter()
        rng = random.Random(7)

        # decomposition additivity: lengths telescope across a midpoint
        from chronolog.calculus import delta_integral

        for spec, windows in WINDOWS.items():
            ts = SCALES[spec]
            s, t = windows[0]
            pieces = list(ts._clipped_pieces(ts.snap(s), ts.snap(t)))
            total = sum(b - a for a, b in pieces) + sum(a - b for (_, b), (a, _) in zip(pieces, pieces[1:]))
            assert abs(total - (t - s)) <= 1e-12 * max(1.0, t - s)
            walked = delta_integral(lambda x, mu: 1.0 + 0j, ts, s, t)
            assert abs(walked - (t - s)) <= 1e-9 * max(1.0, t - s)

        # integral additivity and linearity
        ts = SCALES["union:[-6,-4];[2,5]"]
        f = lambda x, mu: complex(math.cos(x) + 0.2 * x)
        g = lambda x, mu: complex(math.sin(x))
        whole = delta_integral(f, ts, -5.5, 4.5)
        split = delta_integral(f, ts, -5.5, 2.5) + delta_integral(f, ts, 2.5, 4.5)
        assert abs(whole - split) <= 1e-9
        combo = delta_integral(lambda x, mu: 2 * f(x, mu) - 3 * g(x, mu), ts, -5.0, 4.0)
        parts = 2 * delta_integral(f, ts, -5.0, 4.0) - 3 * delta_integral(g, ts, -5.0, 4.0)
        assert abs(combo - parts) <= 1e-9

        # circle algebra: inverses and integer scalar action
        for _ in range(100):
            h = rng.uniform(0.05, 4.0)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(1 + h * z) < 0.1 or abs(1 + h * w) < 0.1:
                continue
            back = circle_minus(h, circle_plus(h, z, w), w)
            assert abs(back - z) <= 1e-9 * max(1.0, abs(z))
            assert abs(circle_dot(h, 2.0, z) - circle_plus(h, z, z)) <= 1e-9 * max(
                1.0, abs(z)
            )

        # branch convention at the cut
        assert principal_log(complex(-1.0, 0.0)).imag == math.pi
        assert principal_log(complex(-1.0, -0.0)).imag == math.pi

        # parser round-trips on the corpus
        for text in CORPUS:
            tree = parse(text)
            again = parse(to_text(tree))
            for i in range(25):
                z = complex(rng.uniform(0.3, 2.8), rng.uniform(0.0, 0.4))
                va, vb = evaluate(tree, z), evaluate(again, z)
                assert abs(va - vb) <= 1e-15 * max(1.0, abs(va))

        assert time.perf_counter() - t0 < 60.0


# The paper's comparison: which properties each construction has over
# [1, 16] on four scales.  None marks a property that cannot be stated for
# huff and euler-cauchy, which take no p (they are logarithms of t only).
# On r a real p that changes sign has a zero, so no log of it is defined.
COMPARISON_SCALES = ("hz:1", "q:2", "alt:1,2", "r")
COMPARISON = {
    "delta": {
        "reduces to ln t": (True, True, True, True),
        "exp round trip": (True, True, True, True),
        "product rule mod 2pi*i": (True, True, True, True),
        "defined for p with sign changes": (True, True, True, False),
    },
    "huff": {
        "reduces to ln t": (False, False, False, True),
        "exp round trip": (None,) * 4,
        "product rule mod 2pi*i": (None,) * 4,
        "defined for p with sign changes": (None,) * 4,
    },
    "euler-cauchy": {
        "reduces to ln t": (False, False, False, True),
        "exp round trip": (None,) * 4,
        "product rule mod 2pi*i": (None,) * 4,
        "defined for p with sign changes": (None,) * 4,
    },
    "integral-quotient": {
        "reduces to ln t": (False, False, False, True),
        "exp round trip": (False, False, False, True),
        "product rule mod 2pi*i": (False, False, False, True),
        "defined for p with sign changes": (False, False, False, False),
    },
}


def _comparison_cell(construction, ts, prop):
    """Whether one property holds for one construction on one scale, to 1e-9.

    reduces to ln t:  the log of p = t over [1, 16] is ln 16
    exp round trip:   exp of the log of p = t^2+1 is p(16)/p(1)
    product rule:     the log of t*(t+1) is the sum of the logs, mod 2pi*i
    sign changes:     the log of p = t-2.5 (p(1) < 0 < p(16)) exists and
                      its exp is p(16)/p(1) = -9
    A construction that raises for the input does not have the property.
    """
    s, t = 1.0, 16.0

    def log_of(text):
        p = ScaleFunction.from_text(text)
        if construction == "delta":
            return log_delta_principal(p, ts, s, t)
        return legacy_log(construction, p, ts, s, t)

    def round_trip(text):
        p = ScaleFunction.from_text(text)
        return scaled_residual(cmath.exp(log_of(text)), p(t) / p(s)) <= 1e-9

    takes_p = construction in ("delta", "integral-quotient")
    try:
        if prop == "reduces to ln t":
            got = log_of("t") if takes_p else legacy_log(construction, None, ts, s, t)
            return abs(got - math.log(t / s)) <= 1e-9
        if not takes_p:
            return None
        if prop == "exp round trip":
            return round_trip("t^2+1")
        if prop == "product rule mod 2pi*i":
            return _mod_residual(log_of("t*(t+1)"), log_of("t") + log_of("t+1")) <= 1e-9
        return round_trip("t-2.5")
    except ChronologError:
        return False


def test_comparison_with_older_constructions():
    with _gate(13, "the new log alone has all four compared properties on every scale with gaps"):
        scales = [parse_timescale(spec) for spec in COMPARISON_SCALES]
        for construction, row in COMPARISON.items():
            for prop, want in row.items():
                got = tuple(_comparison_cell(construction, ts, prop) for ts in scales)
                assert got == want, (construction, prop, COMPARISON_SCALES)
