"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed list of op specs (plain dicts).  The seed draws
every parameter: scale steps and anchors, the generated point set, the
coefficients of p, window positions and eta.  The composition does not
depend on the seed: every workload has the same number of ops of each
kind, scale family, function family and window size for every seed.  Per-op
cost depends mostly on that composition, so runs on different seeds
measure the same amount of work.

Window sizes come in three strata (short, middle, long) in equal shares,
so the median op falls among the middle-sized windows and the tail among
the long ones, not on a boundary between two groups of ops.
"""

from __future__ import annotations

import math
import random

import oracle

WORKLOADS = ("discrete_walk", "dense_quad", "cli_sessions")

LOG_KINDS = (
    "log_delta_principal",
    "log_delta_multi",
    "log_nabla_principal",
    "log_nabla_multi",
    "log_cayley_principal",
    "log_cayley_multi",
    "log_eta",
)
KINDS = LOG_KINDS + ("exp_delta", "exp_nabla")

# jumps per window on discrete_walk; the set: scale must hold the longest
DISCRETE_LADDER = (800, 2000, 5000)
SET_SIZE = 5500
DISCRETE_FAMILIES = ("quad", "cshift", "expit")

# window lengths on dense_quad, each a few thousand Simpson samples
DENSE_LADDER = (4.0, 8.0, 16.0)
# ops per (scale, kind, window length): more distinct draws steady the tail
DENSE_REPEATS = 2
DENSE_FAMILIES = ("expsin", "expisin", "roots2")

# table sizes on cli_sessions; `table --quantity log` costs rows^2 today
TABLE_LOG_ROWS = 250
TABLE_LOGDERIV_ROWS = 300


# ---------------------------------------------------------------------------
# expression text for chronolog
# ---------------------------------------------------------------------------


def _cnum(z) -> str:
    re_, im = z
    sign = "-" if im < 0 else "+"
    return f"({re_!r}{sign}{abs(im)!r}*i)"


def p_text(fam: dict) -> str:
    kind = fam["family"]
    if kind == "quad":
        return f"(t-({fam['x']!r}))^2+{fam['y']!r}"
    if kind == "cshift":
        return f"(t-{_cnum(fam['z'])})^3"
    if kind == "expit":
        return f"exp(i*t)+{_cnum(fam['c'])}"
    if kind == "expsin":
        return f"exp({fam['a']!r}*sin({fam['b']!r}*t))+{fam['c']!r}"
    if kind == "expisin":
        return f"exp(i*{fam['a']!r}*sin(t))+{_cnum(fam['c'])}"
    if kind == "roots2":
        return f"(t-{_cnum(fam['z1'])})*(t-{_cnum(fam['z2'])})"
    raise ValueError(f"unknown family {kind!r}")


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------


def _u(rng: random.Random, lo: float, hi: float, nd: int = 4) -> float:
    return round(rng.uniform(lo, hi), nd)


def _polar(rng: random.Random, rmin: float, rmax: float, amin: float = 0.0, amax: float = math.pi) -> list[float]:
    r = rng.uniform(rmin, rmax)
    a = rng.choice((-1, 1)) * rng.uniform(amin, amax)
    return [round(r * math.cos(a), 4), round(r * math.sin(a), 4)]


def _off_axis(rng: random.Random, lo: float, hi: float, ymin: float, ymax: float) -> list[float]:
    return [_u(rng, lo, hi), rng.choice((-1, 1)) * _u(rng, ymin, ymax)]


def draw_family(rng: random.Random, kind: str, lo: float, hi: float) -> dict:
    """A nonvanishing p whose features (roots, extrema) sit inside [lo, hi].

    The dense families' shape parameters (amplitude, frequency, distance of
    roots from the axis) vary only a little around fixed values: they set
    how many quadrature samples a window needs, and wide draws would make
    the work per op, and so every timing, depend on the seed.
    """
    if kind == "quad":
        fam = {"family": kind, "x": _u(rng, lo, hi), "y": _u(rng, 0.5, 4.0)}
    elif kind == "cshift":
        fam = {"family": kind, "z": _off_axis(rng, lo, hi, 0.5, 2.0)}
    elif kind == "expit":
        fam = {"family": kind, "c": _polar(rng, 2.0, 3.0)}
    elif kind == "expsin":
        fam = {"family": kind, "a": _u(rng, 1.2, 1.3), "b": _u(rng, 0.95, 1.05), "c": _u(rng, 1.9, 2.1)}
    elif kind == "expisin":
        # c near +-2i: how close p comes to 0 depends on the angle of c
        fam = {"family": kind, "a": _u(rng, 1.2, 1.3), "c": _polar(rng, 1.9, 2.1, 0.45 * math.pi, 0.55 * math.pi)}
    elif kind == "roots2":
        span = hi - lo
        fam = {
            "family": kind,
            "z1": _off_axis(rng, lo + 0.25 * span, lo + 0.35 * span, 0.43, 0.47),
            "z2": _off_axis(rng, lo + 0.65 * span, lo + 0.75 * span, 0.43, 0.47),
        }
    else:
        raise ValueError(f"unknown family {kind!r}")
    fam["text"] = p_text(fam)
    return fam


# ---------------------------------------------------------------------------
# scales
# ---------------------------------------------------------------------------


def hz_scale(h: float, anchor: float = 0.0) -> dict:
    return {"family": "hz", "h": h, "anchor": anchor, "spec": f"hz:{h!r}:{anchor!r}"}


def q_scale(q: float) -> dict:
    return {"family": "q", "q": q, "spec": f"q:{q!r}"}


def alt_scale(a: float, b: float) -> dict:
    return {"family": "alt", "a": a, "b": b, "spec": f"alt:{a!r},{b!r}"}


def set_scale(rng: random.Random, size: int) -> dict:
    x = _u(rng, -50.0, 50.0, 3)
    pts = [x]
    for _ in range(size - 1):
        x += _u(rng, 0.05, 1.0, 3)
        pts.append(x)
    return {"family": "set", "points": pts, "spec": "set:" + ",".join(repr(v) for v in pts)}


def union_scale(pieces: list[tuple[float, float]]) -> dict:
    body = ";".join(f"[{lo!r},{hi!r}]" for lo, hi in pieces)
    return {"family": "union", "pieces": [list(pc) for pc in pieces], "spec": "union:" + body}


def union_around(rng: random.Random, s: float, t: float, n_pieces: int) -> dict:
    """Intervals covering [s, t] except for n_pieces-1 short gaps."""
    length = t - s
    pieces = []
    lo = round(s - _u(rng, 0.1, 1.0), 4)
    for k in range(1, n_pieces):
        cut = s + length * k / n_pieces
        gap = _u(rng, 0.2, 0.6)
        pieces.append((lo, round(cut - gap / 2, 4)))
        lo = round(cut + gap / 2, 4)
    pieces.append((lo, round(t + _u(rng, 0.1, 1.0), 4)))
    return union_scale(pieces)


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def _op(kind: str, scale: dict, fam: dict, s: float, t: float, rng: random.Random, **extra) -> dict:
    op = {"kind": kind, "scale": scale, "p": fam, "s": s, "t": t, "eta": None}
    if kind == "log_eta":
        op["eta"] = _u(rng, 0.1, 0.9, 2)
    op.update(extra)
    return op


def discrete_walk(seed: int) -> list[dict]:
    """Long jump walks on hz:, q:, alt: and a generated set: scale."""
    rng = random.Random(f"discrete_walk:{seed}")
    scales = [
        hz_scale(rng.choice((0.25, 0.5, 1.0)), rng.randint(-8, 8) * 0.125),
        q_scale(round(1.0 + rng.uniform(0.0005, 0.001), 7)),
        alt_scale(_u(rng, 0.2, 0.6, 3), _u(rng, 0.65, 1.0, 3)),
        set_scale(rng, SET_SIZE),
    ]
    ops = []
    for si, scale in enumerate(scales):
        for ki, kind in enumerate(KINDS):
            for li, n in enumerate(DISCRETE_LADDER):
                if scale["family"] == "hz":
                    i = rng.randint(-3000, 3000)
                elif scale["family"] == "set":
                    i = rng.randint(0, SET_SIZE - 1 - n)
                else:
                    i = rng.randint(0, 2000)
                j = i + n
                s, t = oracle.point(scale, i), oracle.point(scale, j)
                fam = draw_family(rng, DISCRETE_FAMILIES[(si + ki + li) % 3], s, t)
                ops.append(_op(kind, scale, fam, s, t, rng, i=i, j=j, stratum=li))
    rng.shuffle(ops)
    return ops


def dense_quad(seed: int) -> list[dict]:
    """Long windows on r and on unions of a few long intervals."""
    rng = random.Random(f"dense_quad:{seed}")
    reals = {"family": "r", "spec": "r"}
    per_stratum = 2 * len(KINDS) * DENSE_REPEATS
    # each stratum's lengths spread evenly over +-15%, dealt out at random:
    # the same total for every seed, and no gap in the middle of the
    # distribution for the median to jump across
    stretch = []
    for _ in DENSE_LADDER:
        m = [0.85 + 0.3 * (k + 0.5) / per_stratum for k in range(per_stratum)]
        rng.shuffle(m)
        stretch.append(m)
    ops = []
    for si in range(2):
        for ki, kind in enumerate(KINDS):
            for li, length in enumerate(DENSE_LADDER * DENSE_REPEATS):
                li %= len(DENSE_LADDER)
                s = _u(rng, -20.0, 20.0)
                t = round(s + length * stretch[li].pop(), 4)
                scale = reals if si == 0 else union_around(rng, s, t, 3)
                fam = draw_family(rng, DENSE_FAMILIES[(si + ki + li) % 3], s, t)
                ops.append(_op(kind, scale, fam, s, t, rng, stratum=li))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# CLI sessions
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _cli(cmd: str, scale: dict, fmt: str, args: list[str], **check) -> dict:
    argv = [cmd, "--timescale", scale["spec"], "--format", fmt] + args
    return {"cmd": cmd, "argv": argv, "scale": scale, "format": fmt, **check}


def _grid_window(rng: random.Random, scale: dict, n_min: int, n_max: int, i_max: int = 20):
    i = rng.randint(0, i_max)
    j = i + rng.randint(n_min, n_max)
    return oracle.point(scale, i), oracle.point(scale, j)


def _eta_variant(rng: random.Random) -> str:
    return f"eta:{_u(rng, 0.1, 0.9, 2)!r}"


def _eval(scale, fam, s, t, variant, fmt) -> dict:
    args = ["--p", fam["text"], "--s", _fmt(s), "--t", _fmt(t), "--variant", variant]
    return _cli("eval", scale, fmt, args, p=fam, s=s, t=t)


def cli_sessions(seed: int) -> list[dict]:
    """A fixed mix of short and long CLI runs, one fresh process each.

    Every slot's subcommand, scale family, function family, variant and
    format is fixed; the seed draws the numbers.  The five `table --quantity
    log` runs are a fifth of the mix, so the p90 tail falls among them.
    """
    rng = random.Random(f"cli_sessions:{seed}")
    ops = []

    # eval: short windows on every scale family, both formats
    for family, fam_kind, variant, fmt in (
        ("hz", "quad", "delta-multi", "json"),
        ("q", "cshift", "nabla-principal", "csv"),
        ("alt", "expit", "cayley-multi", "json"),
        ("union", "expsin", _eta_variant(rng), "csv"),
        ("r", "expisin", "delta-principal", "json"),
        ("set", "quad", "cayley-principal", "csv"),
        ("hz", "cshift", "nabla-multi", "csv"),
        ("union", "roots2", "delta-multi", "json"),
    ):
        if family == "hz":
            scale = hz_scale(rng.choice((0.5, 1.0)))
            s, t = _grid_window(rng, scale, 20, 100)
        elif family == "q":
            scale = q_scale(round(1.0 + rng.uniform(0.05, 0.2), 4))
            s, t = _grid_window(rng, scale, 10, 30, 5)
        elif family == "alt":
            scale = alt_scale(_u(rng, 0.2, 0.6, 3), _u(rng, 0.65, 1.0, 3))
            s, t = _grid_window(rng, scale, 20, 100)
        elif family == "set":
            scale = set_scale(rng, 60)
            s, t = _grid_window(rng, scale, 20, 50, 5)
        else:
            s = _u(rng, -5.0, 5.0)
            t = round(s + rng.uniform(2.0, 6.0), 4)
            scale = {"family": "r", "spec": "r"} if family == "r" else union_around(rng, s, t, 3)
        ops.append(_eval(scale, draw_family(rng, fam_kind, s, t), s, t, variant, fmt))

    # check: the identity suite on mixed scales (and one grid)
    for family, p_kind, q_kind, fmt in (
        ("union", "quad", "expisin", "json"),
        ("union", "expsin", "roots2", "csv"),
        ("union", "cshift", "expit", "json"),
        ("hz", "quad", "expit", "csv"),
    ):
        s = _u(rng, -3.0, 3.0)
        if family == "hz":
            scale = hz_scale(0.5)
            s, t = _grid_window(rng, scale, 20, 60)
        else:
            t = round(s + rng.uniform(2.0, 4.0), 4)
            scale = union_around(rng, s, t, 3)
        p = draw_family(rng, p_kind, s, t)
        q = draw_family(rng, q_kind, s, t)
        args = ["--p", p["text"], "--q", q["text"], "--s", _fmt(s), "--t", _fmt(t), "--alpha", "2"]
        ops.append(_cli("check", scale, fmt, args, p=p, q=q, s=s, t=t))

    # table --quantity log: a few hundred rows, every window from one base;
    # one function family, so that these five cost about the same and the
    # tail falls inside their group rather than at its edge
    for variant, fmt in (
        ("delta-principal", "csv"),
        ("nabla-principal", "json"),
        (_eta_variant(rng), "csv"),
        ("cayley-principal", "json"),
        ("delta-multi", "csv"),
    ):
        scale = hz_scale(rng.choice((0.5, 1.0)))
        a, b = _grid_window(rng, scale, TABLE_LOG_ROWS - 1, TABLE_LOG_ROWS - 1)
        fam = draw_family(rng, "cshift", a, b)
        args = ["--p", fam["text"], "--quantity", "log", "--from", _fmt(a), "--to", _fmt(b), "--variant", variant]
        ops.append(_cli("table", scale, fmt, args, p=fam, s=a, t=b, quantity="log", rows=TABLE_LOG_ROWS))

    # table --quantity logderiv: pointwise, on a grid and on a union
    for family, fam_kind, fmt in (("hz", "quad", "csv"), ("hz", "cshift", "json"), ("union", "expisin", "csv")):
        if family == "hz":
            scale = hz_scale(rng.choice((0.5, 1.0)))
            rows = TABLE_LOGDERIV_ROWS
            a, b = _grid_window(rng, scale, rows - 1, rows - 1)
            step = []
        else:
            a = _u(rng, -5.0, 5.0)
            b = round(a + rng.uniform(8.0, 12.0), 4)
            scale = union_around(rng, a, b, 3)
            rows = None
            step = ["--step", "0.05"]
        fam = draw_family(rng, fam_kind, a, b)
        args = ["--p", fam["text"], "--quantity", "logderiv", "--from", _fmt(a), "--to", _fmt(b)] + step
        ops.append(_cli("table", scale, fmt, args, p=fam, s=a, t=b, quantity="logderiv", rows=rows))

    # legacy: the five older constructions
    reals = {"family": "r", "spec": "r"}
    t0 = _u(rng, 1.0, 3.0)
    ops.append(_legacy("huff", reals, "json", t0, round(t0 + rng.uniform(2.0, 10.0), 4)))
    grid = hz_scale(1.0)
    k0 = rng.randint(1, 5)
    ops.append(_legacy("euler-cauchy", grid, "csv", float(k0), float(k0 + rng.randint(20, 80))))
    k0 = rng.randint(0, 5)
    fam = draw_family(rng, "quad", k0, k0 + 40.0)
    ops.append(_legacy("integral-quotient", grid, "json", float(k0), float(k0 + rng.randint(20, 40)), fam))
    qs = q_scale(round(1.0 + rng.uniform(0.05, 0.2), 4))
    ops.append(_legacy("mozyrska", qs, "csv", None, oracle.point(qs, rng.randint(5, 30))))
    s = _u(rng, -3.0, 3.0)
    us = union_around(rng, s, round(s + 4.0, 4), 2)
    fam = draw_family(rng, "expisin", s, s + 4.0)
    # the right end of the first interval: a right-scattered point
    ops.append(_legacy("jackson", us, "json", None, us["pieces"][0][1], fam))
    rng.shuffle(ops)
    return ops


def _legacy(kind: str, scale: dict, fmt: str, t0, t: float, fam: dict | None = None) -> dict:
    args = ["--kind", kind, "--t", _fmt(t)]
    if t0 is not None:
        args += ["--t0", _fmt(t0)]
    if fam is not None:
        args += ["--p", fam["text"]]
    return _cli("legacy", scale, fmt, args, kind=kind, p=fam, s=t0, t=t)


def generate(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return {"discrete_walk": discrete_walk, "dense_quad": dense_quad, "cli_sessions": cli_sessions}[workload](seed)
