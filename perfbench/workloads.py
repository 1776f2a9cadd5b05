"""The operation lists of the three workloads, generated from a seed.

An operation is one `gqlab` command line.  Its parameters come from the
workload seed, but only through values that leave the amount of work
unchanged: offsets of label windows of fixed width, map parameters, and k
where the work does not depend on it.  Traced counts of a round match
across seeds, up to about 1% of root-solving steps in the census.  Each
operation carries its expected exit code and a check of the parsed report
against the closed forms in oracles.py.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from oracles import (
    TWO_PI,
    cycle_product_matches,
    cylinder_betti,
    distance_to_integers,
    half_offset_labels,
    integers_inside,
    same_values,
    torus_betti,
    torus_bs_labels,
)

WORKLOADS = ("census", "ranks", "invariance")

# Rough duration of one round on a 2-CPU x86 machine with one BLAS thread.
# A run does max(2, round(seconds / ROUND_SECONDS)) whole rounds, so the
# work of a run is fixed by its arguments, never by a time window.
ROUND_SECONDS = {"census": 1.65, "ranks": 3.1, "invariance": 26.0}

# Speed calibration per workload (see run.Calibration): pieces of
# (interpreter, small-array, LAPACK) work per sample, after where the
# workload spends its time -- census and invariance are interpreter-bound
# around small NumPy calls, ranks spends about two thirds of its time in
# the dense SVD -- and the median duration of a sample taken during the
# workload on the reference machine (2-CPU x86 host, one BLAS thread).
CALIBRATION = {
    "census": ((1, 1, 0), 0.000344),
    "ranks": ((1, 0, 1), 0.00109),
    "invariance": ((1, 1, 0), 0.000409),
}


@dataclass(frozen=True)
class Op:
    argv: tuple
    exit_code: int
    check: Callable[[dict], list]  # problems found in the parsed report


def _arg(x: float) -> str:
    return repr(float(x))


def _range(lo: float, hi: float) -> tuple:
    return ("--range", f"{_arg(lo)}:{_arg(hi)}")


def _problem(ok: bool, what: str, got, want) -> list:
    return [] if ok else [f"{what}: got {got!r}, want {want!r}"]


# ---------------------------------------------------------------------------
# census: `bs`


def _census_check(smooth: list, singular: int, crange: tuple):
    def check(report: dict) -> list:
        census = report["payload"]["census"]
        locs = census["bs_locations"]
        return (
            _problem(same_values(locs, smooth), "bs_locations", locs, smooth)
            + _problem(
                census["q_bs_smooth"] == len(smooth),
                "q_bs_smooth", census["q_bs_smooth"], len(smooth),
            )
            + _problem(
                census["q_bs_singular"] == singular,
                "q_bs_singular", census["q_bs_singular"], singular,
            )
            + _problem(
                census["q_bs"] == len(smooth) + singular,
                "q_bs", census["q_bs"], len(smooth) + singular,
            )
            + _problem(
                same_values(report["payload"]["range"], crange),
                "range", report["payload"]["range"], crange,
            )
        )

    return check


# Sample counts per torus k.  Each is at least 3k, so the samples resolve
# neighbouring BS heights.
TORUS_COUNTS = {1: 24, 2: 48, 3: 96, 4: 24, 5: 48, 6: 96, 7: 48, 8: 96}


def census_ops(rng: random.Random) -> list:
    ops = []
    for k, count in TORUS_COUNTS.items():
        # Start the period 0.3-0.7 of a BS spacing past a BS height: the
        # sampled window then never ends just short of a BS height (see
        # the README on the wrap-around gap).
        lo = TWO_PI / k * rng.uniform(0.3, 0.7)
        hi = lo + TWO_PI
        ops.append(
            Op(
                ("bs", "--example", "torus", "--k", str(k), "--count", str(count))
                + _range(lo, hi),
                0,
                _census_check(torus_bs_labels(k, lo, hi), 0, (lo, hi)),
            )
        )
    for width in (3, 4, 5):
        # A window of integer width starting off the integers holds exactly
        # `width` integer levels.
        lo = -(width // 2) - 1 + rng.randint(-1, 1) + rng.uniform(0.2, 0.8)
        hi = lo + width
        ops.append(
            Op(
                ("bs", "--example", "cylinder") + _range(lo, hi),
                0,
                _census_check(integers_inside(lo, hi), 0, (lo, hi)),
            )
        )
    for k in range(2, 7):
        lo = rng.uniform(0.1, 0.45)
        hi = lo + k - 0.55
        ops.append(
            Op(
                ("bs", "--example", "sphere", "--k", str(k)) + _range(lo, hi),
                0,
                _census_check(integers_inside(lo, hi), 2, (lo, hi)),
            )
        )
    # disk of radius 3.2: labels r^2 / 2 run up to 5.12
    lo = rng.uniform(0.15, 0.9)
    hi = lo + 3.95
    ops.append(
        Op(
            ("bs", "--example", "disk") + _range(lo, hi),
            0,
            _census_check(integers_inside(lo, hi), 1, (lo, hi)),
        )
    )
    return ops


# ---------------------------------------------------------------------------
# ranks: `cohomology`


def _ranks_check(betti: list, n: int):
    def check(report: dict) -> list:
        coh = report["payload"]["cohomology"]
        got = [d["betti"] for d in coh["degrees"]]
        return _problem(got == betti, "betti", got, betti) + _problem(
            coh["n_labels"] == n, "n_labels", coh["n_labels"], n
        )

    return check


def _torus_rank_op(k: int, granularity: int, n: int) -> Op:
    return Op(
        ("cohomology", "--example", "torus", "--k", str(k),
         "--granularity", str(granularity), "--grid", str(n)),
        0,
        _ranks_check(torus_betti(k, n), n),
    )


def _cylinder_rank_op(p_max: float, granularity: int, n: int) -> Op:
    return Op(
        ("cohomology", "--example", "cylinder", "--p-max", _arg(p_max),
         "--granularity", str(granularity), "--grid", str(n)),
        0,
        _ranks_check(cylinder_betti(p_max, n), n),
    )


def _generic_p_max(rng: random.Random, n: int) -> float:
    """A cylinder height whose grid labels all keep 1e-3 off the integers,
    so no singular value sits near the rank cut."""
    while True:
        p_max = rng.uniform(2.6, 4.4)
        if distance_to_integers(half_offset_labels(-p_max, p_max, n)) > 1e-3:
            return p_max


def ranks_ops(rng: random.Random) -> list:
    # Grids of 8m labels never meet a torus BS height for k <= 8 (generic);
    # odd grids meet one for every even k (BS grids).  On the cylinder a
    # grid of n labels over a height 2 p_max that is an odd divisor of n
    # lands on 2 p_max integer levels.  One large SVD (torus granularity 4,
    # 128 labels) keeps a round short enough for six rounds a run; the
    # thirteen operations put the median on the middle of a cluster of
    # granularity-3 torus grids, not on the gap between two kinds.
    any_k = lambda: rng.randint(1, 8)  # noqa: E731
    even_k = lambda: rng.choice((2, 4, 6, 8))  # noqa: E731
    return [
        _torus_rank_op(any_k(), 3, 32),
        _torus_rank_op(even_k(), 3, 33),
        _torus_rank_op(any_k(), 3, 48),
        _torus_rank_op(any_k(), 3, 64),
        _torus_rank_op(any_k(), 4, 48),
        _torus_rank_op(even_k(), 4, 45),
        _torus_rank_op(any_k(), 4, 128),
        _torus_rank_op(any_k(), 3, 40),
        _torus_rank_op(any_k(), 5, 64),
        _cylinder_rank_op(_generic_p_max(rng, 64), 3, 64),
        _cylinder_rank_op(rng.choice((2.5, 3.5)), 3, 35),
        _cylinder_rank_op(rng.choice((1.5, 2.5, 3.5)), 4, 105),
        _cylinder_rank_op(_generic_p_max(rng, 128), 5, 128),
    ]


# ---------------------------------------------------------------------------
# invariance: `act --verify thm1,thm2`


def _act_pass_check(betti: list, smooth: list, singular: int):
    def check(report: dict) -> list:
        p = report["payload"]
        t1, t2 = p["thm1"], p["thm2"]
        out = _problem(p["status"] == "ok", "status", p["status"], "ok")
        out += _problem(t1["pass"] and t2["pass"], "theorems pass",
                        (t1["pass"], t2["pass"]), (True, True))
        for side in ("source", "target"):
            out += _problem(t1["ranks"][side] == betti, f"thm1 {side} betti",
                            t1["ranks"][side], betti)
            q = t2["q_bs"][side]
            out += _problem(q == len(smooth) + singular, f"thm2 {side} q_bs",
                            q, len(smooth) + singular)
            locs = t2["bs_locations"][side]
            out += _problem(same_values(locs, smooth), f"thm2 {side} bs_locations",
                            locs, smooth)
        return out

    return check


def _act_obstructed_check(phase: float):
    def check(report: dict) -> list:
        p = report["payload"]
        out = _problem(p["status"] == "hypothesis-failed", "status", p["status"],
                       "hypothesis-failed")
        for thm in ("thm1", "thm2"):
            t = p[thm]
            out += _problem(t["status"] == "hypothesis-failed", f"{thm} status",
                            t["status"], "hypothesis-failed")
            product = complex(*t["witness"]["cycle_product"])
            out += _problem(cycle_product_matches(product, phase),
                            f"{thm} cycle product", product,
                            f"exp(+-{phase!r} i)")
        return out

    return check


def _act(example: tuple, map_spec: str, check, exit_code: int) -> Op:
    return Op(("act", "--example") + example + ("--map", map_spec,
               "--verify", "thm1,thm2"), exit_code, check)


def invariance_ops(rng: random.Random) -> list:
    ops = []
    # torus translate:a,0 with k a in 2 pi Z: a complementary cover exists.
    k = rng.choice((2, 3))
    a = TWO_PI * rng.randint(1, k - 1) / k
    ops.append(_act(("torus", "--k", str(k), "--grid", "33"), f"translate:{_arg(a)},0",
                    _act_pass_check(torus_betti(k, 33),
                                    torus_bs_labels(k, 0.0, TWO_PI), 0), 0))
    # ... and with k a outside 2 pi Z (by at least 0.3): obstructed.
    k = rng.choice((1, 2, 3))
    while True:
        a = rng.uniform(0.3, TWO_PI - 0.3)
        if 0.3 < math.fmod(k * a, TWO_PI) < TWO_PI - 0.3:
            break
    ops.append(_act(("torus", "--k", str(k)), f"translate:{_arg(a)},0",
                    _act_obstructed_check(k * a), 1))
    # cylinder (p_max 3.5, census range -2.5..2.5): integer shifts admit a
    # cover, fractional ones are obstructed.
    b = rng.choice((-2, -1, 1, 2))
    ops.append(_act(("cylinder",), f"pshift:{b}",
                    _act_pass_check(cylinder_betti(3.5, 32),
                                    integers_inside(-2.5, 2.5), 0), 0))
    # Five blocks of the lighter maps, so that the median operation is
    # taken over many samples; with the three plane shears below, the
    # median falls on the middle samples of the sphere k=3 rotation.
    for _ in range(5):
        b = rng.randint(-1, 1) + rng.uniform(0.2, 0.8)
        ops.append(_act(("cylinder",), f"pshift:{_arg(b)}",
                        _act_obstructed_check(TWO_PI * b), 1))
        for k in (2, 3):
            ops.append(_act(("sphere", "--k", str(k)), f"rot:{_arg(rng.uniform(0.2, 3.0))}",
                            _act_pass_check([0, 0, 0], integers_inside(0.25, k - 0.25), 2),
                            0))
        ops.append(_act(("disk",), f"rot:{_arg(rng.uniform(0.2, 3.0))}",
                        _act_pass_check([0, 0, 0], integers_inside(0.25, 4.87), 1), 0))
        ops.append(_act(("plane", "--granularity", "2"), "shear",
                        _act_pass_check([32, 0, 0], [], 0), 0))
    for _ in range(3):
        ops.append(_act(("plane", "--granularity", "1"), "shear",
                        _act_pass_check([32, 0, 0], [], 0), 0))
    return ops


# ---------------------------------------------------------------------------


_ROUND_OPS = {"census": census_ops, "ranks": ranks_ops, "invariance": invariance_ops}


def round_ops(workload: str, seed: int) -> list:
    """One round of the workload: the same list for the same seed."""
    ops = _ROUND_OPS[workload](random.Random(f"{workload}:{seed}"))
    return [Op(op.argv + ("--json",), op.exit_code, op.check) for op in ops]


def warmup_ops(workload: str) -> list:
    """Small fixed operations that load every code path of the workload."""
    fixed = {
        "census": [
            Op(("bs", "--example", "torus", "--k", "2", "--count", "24"), 0,
               _census_check(torus_bs_labels(2, 0.0, TWO_PI), 0, (0.0, TWO_PI))),
            Op(("bs", "--example", "cylinder"), 0,
               _census_check(integers_inside(-2.5, 2.5), 0, (-2.5, 2.5))),
            Op(("bs", "--example", "sphere", "--k", "2"), 0,
               _census_check([1.0], 2, (0.25, 1.75))),
            Op(("bs", "--example", "disk"), 0,
               _census_check(integers_inside(0.25, 4.87), 1, (0.25, 4.87))),
        ],
        "ranks": [_torus_rank_op(1, 3, 16), _cylinder_rank_op(3.5, 3, 16)],
        "invariance": [
            _act(("plane", "--granularity", "2"), "shear",
                 _act_pass_check([32, 0, 0], [], 0), 0),
            _act(("cylinder",), "pshift:0.5", _act_obstructed_check(math.pi), 1),
            _act(("sphere", "--k", "2"), "rot:1.0",
                 _act_pass_check([0, 0, 0], [1.0], 2), 0),
        ],
    }[workload]
    return [Op(op.argv + ("--json",), op.exit_code, op.check) for op in fixed]
