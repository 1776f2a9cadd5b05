"""Leaf enumeration, holonomy, and the Bohr-Sommerfeld census.

A circle leaf is threaded through the cover as a chain of element segments
with switch points in consecutive double overlaps; its holonomy is the
product of segment transport factors exp(-i integral theta) and transition
values at the switches.  A leaf is Bohr-Sommerfeld exactly when that
product is 1, i.e. when the accumulated action lands in 2 pi Z.  The census
unwraps the sampled actions by their label derivative, the flux of omega,
and root-solves each multiple of 2 pi that the unwrapped action crosses,
so BS values need not be hit by the sample grid.

Leaves come from a LeafAtlas, which threads each membership pattern (the
set of elements a leaf crosses) once and hands a batch of labels back as
flat Leaves columns, leaf after leaf in the order of the labels.
leaf_actions reads them and returns every label's action, in that order,
from one transport call and one transition call, summed leaf by
leaf by np.bincount; holonomy adds the holonomies, a modulus times
exp(-i action).  The census's one holonomy batch, its sampled leaves, is
the columns its report derives each field from, beside the census's own
is_bs verdicts; its refinement and root steps read actions alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import trace
from .geometry import TWO_PI, LeafFrame, Polarization
from .prequantum import ConfigurationError, TrivializationCover
from .transport import LeafTransport


class CoverageError(ValueError):
    pass


class HolonomyUndefinedError(ValueError):
    pass


class Leaves(NamedTuple):
    """The circle leaves through a batch of labels, in the batch's order,
    as flat columns: leaf i has k[i] segments, in leaf order, and s[i]
    switch points, k of them, or 0 on a leaf that one element holds whole.
    The segment and switch columns run leaf after leaf; switch j of a leaf
    joins its segments j and j + 1, cyclically."""

    labels: np.ndarray  # (n,)
    k: np.ndarray  # (n,) segments per leaf
    s: np.ndarray  # (n,) switch points per leaf
    elements: np.ndarray  # (sum k,) the segments' elements
    t0: np.ndarray  # (sum k,) element-frame leaf parameter bounds
    t1: np.ndarray  # (sum k,)
    lifted: np.ndarray  # (sum k,) the label lifted into the segment's element frame
    switch_points: np.ndarray  # (sum s, 2) canonical coords
    switch_pairs: np.ndarray  # (sum s, 2) the elements of the segments each switch joins


# ---------------------------------------------------------------------------
# Leaf construction


def _thread_circle(cands: list, whole: list, period: float, c: float) -> tuple:
    """Thread a circle leaf through the elements it crosses.

    cands holds (element, t0, t1) per crossed element, in cover order, and
    whole says of each whether it holds a whole leaf (LeafFrame.whole).
    Returns the segments as (element, t0, t1, position in cands) and the
    switch parameters; c is a label of the leaf, named in errors.
    """
    # Whole-circle elements carry the leaf in one segment.
    for j, (idx, t0, t1) in enumerate(cands):
        if whole[j]:
            start = t0 + 0.5 * ((t1 - t0) - period)
            return [(idx, start, start + period, j)], []

    # Greedy interval chain around the circle in the unwrapped parameter:
    # placements carry (walk start, walk end, element, frame offset,
    # position) with element-frame t = walk t + offset.
    items = []
    for j, (idx, t0, t1) in enumerate(cands):
        a = math.fmod(t0, period)
        if a < 0:
            a += period
        items.append((a, a + (t1 - t0), idx, t0 - a, j))
    items.sort()
    start = items[0]
    placements = [start]
    switches = []
    cur_end = start[1]
    guard = 4 * len(items) + 4
    closed = False
    while guard and not closed:
        guard -= 1
        best = None
        for it in items:
            for s in (0.0, period):
                a, b = it[0] + s, it[1] + s
                if a < cur_end - 1e-12 and b > cur_end + 1e-12:
                    cand = (b, -it[2], -s, a, it, s)
                    if best is None or cand > best:
                        best = cand
        if best is None:
            raise CoverageError(
                f"cover leaves a gap on the leaf {c} near t={cur_end}"
            )
        _, _, _, a, it, s = best
        switches.append(0.5 * (a + cur_end))
        if it is start and s == period:
            closed = True
        else:
            placements.append((a, it[1] + s, it[2], it[3] - s, it[4]))
            cur_end = it[1] + s
    if not closed:
        raise CoverageError(f"leaf {c} did not close while threading the cover")

    # Segment i runs from switch i-1 to switch i; the first segment starts at
    # the closing switch pulled back one period.
    segments = []
    u_prev = switches[-1] - period
    for placement, u_next in zip(placements, switches):
        _, _, idx, off, j = placement
        segments.append((idx, u_prev + off, u_next + off, j))
        u_prev = u_next
    return segments, switches


class LeafAtlas:
    """The circle leaves of a polarization on a cover, threaded once per
    membership pattern.

    A label's membership pattern is the set of elements its leaf crosses.
    On box covers the threading of a leaf, its segments (element, t0, t1)
    and its switches (parameter, and the elements of the segments each
    joins), depends on the label only through that pattern: the label
    enters as each segment's lifted label and through the switch points on
    its curve.  So a batch of labels is lifted into every element in one
    broadcast (LeafFrame.lift, the rule the transversal grid uses for its
    cells); a pattern is threaded into two arrays the first time it is
    met, and the switch points of the whole batch come from one
    curve_points call.  The element boxes are the degree-0 cells
    of the cover's nerve, which a pullback cover keeps from its source,
    and the switch points lie on the polarization's own curve (phi^{-1} o
    gamma for a pushforward), so a pullback cover is threaded like any
    other.  A line leaf is contractible, so the census counts it from its
    label alone: check_crossing asks only that it cross an element, and no
    line leaf is threaded.
    """

    def __init__(self, cover: TrivializationCover, pol: Polarization):
        self.cover = cover
        self.polarization = pol
        elements = cover.nerve.degree(0)
        self._elements = elements.members[:, 0].tolist()
        self.frame = LeafFrame.of(cover.manifold, pol, elements.lo, elements.hi)
        self._threadings: dict = {}  # membership pattern -> threading
        trace.count("leaf_patterns", 0)  # one per pattern threaded

    def _threading(self, pattern: tuple, c: float) -> tuple:
        """The threading of a new membership pattern's leaves: float rows
        (element, t0, t1, element position) per segment and (parameter,
        element before, element after) per switch, and their counts."""
        positions = [p for p, crossed in enumerate(pattern) if crossed]
        if not positions:
            raise CoverageError(f"leaf {c} crosses no cover element")
        lo, hi = self.frame.leaf_lo.tolist(), self.frame.leaf_hi.tolist()
        cands = [(self._elements[p], lo[p], hi[p]) for p in positions]
        whole = self.frame.whole[positions].tolist()
        segments, switches = _thread_circle(cands, whole, self.polarization.leaf_period, c)
        k, els = len(segments), [seg[0] for seg in segments]
        found = (np.array([(e, t0, t1, positions[j]) for e, t0, t1, j in segments], dtype=float),
                 np.array([(t, els[j], els[(j + 1) % k]) for j, t in enumerate(switches)],
                          dtype=float).reshape(-1, 3), k, len(switches))
        self._threadings[pattern] = found
        trace.count("leaf_patterns")
        return found

    def check_crossing(self, labels) -> None:
        """Raise CoverageError, as leaves does, for the first of labels
        whose leaf crosses no element."""
        crossing = self.frame.lift(labels)[1].any(axis=1).tolist()
        if not all(crossing):
            raise CoverageError(f"leaf {labels[crossing.index(False)]} crosses no cover element")

    def leaves(self, labels) -> Leaves:
        """The circle leaves through labels, in their order.  A label whose
        leaf crosses no element, or finds a gap, raises CoverageError; a
        label of line leaves raises HolonomyUndefinedError."""
        labels = np.asarray(labels, dtype=float)
        if not len(labels):
            none, nothing = np.zeros(0, dtype=int), np.zeros(0)
            return Leaves(labels, none, none, none, nothing, nothing, nothing,
                          np.zeros((0, 2)), np.zeros((0, 2), dtype=int))
        if self.polarization.leaf_period is None:
            raise HolonomyUndefinedError("holonomy is undefined for noncompact (line) "
                                         "leaves, so the atlas threads none")
        lifted, inside = self.frame.lift(labels)
        known = self._threadings.get
        threaded = [known(p) or self._threading(p, c)
                    for p, c in zip(map(tuple, inside.tolist()), labels.tolist())]
        segments, switches, k, s = zip(*threaded)
        segments, switches, k, s = (np.concatenate(segments), np.concatenate(switches),
                                    np.array(k), np.array(s))
        # the switch points of the whole batch, by one curve call; points
        # are computed row by row, so each is what a call for its leaf
        # alone gives
        pts = np.zeros((0, 2))
        if len(switches):
            pts = self.cover.manifold.reduce(
                self.polarization.curve_points(labels.repeat(s), switches[:, 0]))
        lifted = lifted[np.arange(len(labels)).repeat(k), segments[:, 3].astype(int)]
        return Leaves(labels, k, s, segments[:, 0].astype(int), segments[:, 1], segments[:, 2],
                      lifted, pts, switches[:, 1:].astype(int))


def _label_slack(a: float, b: float) -> float:
    """How far apart two labels a and b may lie and still be one label:
    1e-9, plus the rounding of labels that large."""
    return 1e-9 + ROUNDING * max(abs(a), abs(b))


def _spans_a_period(pol: Polarization, lo: float, hi: float) -> bool:
    """Whether a label window covers one full period of a periodic label,
    to within _label_slack.  enumerate_leaves samples such a window
    half-open, and bs_census closes it with a step from the last sample to
    the first one plus a period; any other window is sampled at both ends."""
    period = pol.label_range[1] - pol.label_range[0]
    return pol.label_periodic and hi - lo >= period - _label_slack(lo, hi)


def enumerate_leaves(atlas: LeafAtlas, crange: tuple, count: int) -> tuple:
    """The leaves at `count` fiber-map values in crange, threaded on atlas,
    and its polarization's singular points, labelled by the root
    polarization (a pushforward keeps labels leafwise).  Returns (labels,
    leaves, points): the sampled labels, their atlas.leaves batch, and the
    point leaves as (label, point) pairs.  Line leaves are not threaded:
    their labels pass atlas.check_crossing and their batch is empty."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    pol = atlas.polarization
    lo, hi = crange
    spans = _spans_a_period(pol, lo, hi)
    if count < 2 and lo != hi and not spans:
        raise ConfigurationError(
            f"range {lo}:{hi} needs count >= 2: one sample stands for one "
            "label or for one full period of a periodic label"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        if spans:
            values = lo + (hi - lo) * np.arange(count) / count
        else:
            values = np.linspace(lo, hi, count)
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(
            f"range {lo}:{hi} is too wide to sample: its labels overflow"
        )
    root = pol.root
    singular = np.array(root.singular_points, dtype=float).reshape(-1, 2)
    singular_labels = root.label_of(singular) if len(singular) else np.array([])
    if len(singular_labels):
        # the point leaves below represent these labels
        near = np.abs(values[:, None] - singular_labels[None, :]) < 1e-9
        values = values[~near.any(axis=1)]
    # declared singular points always join the census as point leaves
    points = np.array(pol.singular_points, dtype=float).reshape(-1, 2).tolist()
    if pol.leaf_period is None:
        atlas.check_crossing(values)
        leaves = atlas.leaves([])
    else:
        leaves = atlas.leaves(values)
    return values, leaves, list(zip(singular_labels.tolist(), map(tuple, points)))


# ---------------------------------------------------------------------------
# Holonomy


def nearest_multiples(actions: np.ndarray) -> np.ndarray:
    """The m for which 2 pi m is nearest to each action, as whole floats.
    An action within 1e-9 multiples of an odd multiple of pi is a tie,
    which rounding noise would otherwise decide; it takes the lower
    multiple, so its residual is +pi.  A zero m is +0.0, so action - 2 pi m
    rounds as it does with the integer m."""
    x = actions / TWO_PI
    lower = np.floor(x)
    return lower + (x - lower > 0.5 + 1e-9)


def leaf_actions(transport: LeafTransport, leaves: Leaves) -> tuple:
    """The actions (n,) of a LeafAtlas batch of closed leaves, in the order
    of its labels, on transport's cover and polarization, and what holonomy
    reads besides: the segment integrals, the switch transitions, and the
    leaf of each, segments then switches.  One integral call takes the
    segments, one transition call the switches between two
    elements (one within an element is 1).  An action is the real integrals
    less the turns (math.atan2: np.arctan2 can round otherwise), summed by
    np.bincount in input order from 0.0, as one leaf's loop adds them
    (float even for an empty batch, for which np.bincount gives ints)."""
    x = transport.integral(leaves.elements, leaves.t0, leaves.t1, leaves.lifted)
    before, after = leaves.switch_pairs.T
    lam, turn = np.ones(len(before), dtype=np.complex128), np.zeros(len(before))
    moved = before != after
    if moved.any():
        lam[moved] = got = transport.cover.transition(
            before[moved], after[moved], leaves.switch_points[moved])
        turn[moved] = list(map(math.atan2, got.imag.tolist(), got.real.tolist()))
    n = len(leaves.k)
    leaf = np.concatenate([np.arange(n).repeat(leaves.k), np.arange(n).repeat(leaves.s)])
    actions = np.bincount(leaf, np.concatenate([x.real, -turn]), n).astype(float, copy=False)
    return actions, x, lam, leaf


def holonomy(transport: LeafTransport, leaves: Leaves) -> tuple:
    """Parallel transport around closed leaves: the actions (n,) and the
    holonomies (n,) of a LeafAtlas batch, in the order of its labels, on
    the cover and polarization of transport.

    The convention matches the cochain transport: a value f in the alpha
    trivialization becomes lambda_{alpha beta} f in the beta trivialization,
    and moving along the leaf multiplies by exp(-i integral theta).

    A leaf's holonomy is its modulus times exp(-i action), the modulus exp
    of its integrals' imaginary parts and its transitions' log-moduli,
    summed as the action is: a transition off the unit circle still shows,
    and a batch gives every result bit for bit as a single leaf does.
    """
    actions, x, lam, leaf = leaf_actions(transport, leaves)
    logs = np.bincount(leaf, np.concatenate([x.imag, np.log(np.abs(lam))]), len(actions))
    return actions, np.exp(logs - 1j * actions)


# ---------------------------------------------------------------------------
# Census

CROSSING_XTOL = 1e-12  # the label tolerance of a crossing search
PROBE = 0.5 * CROSSING_XTOL  # how far either side of its secant estimate a search looks
REFINE_ROUNDS = 4  # midpoint rounds a census may take to resolve its action steps
MISMATCH = 0.5 * math.pi  # the most, mod 2 pi, by which a step may miss its prediction
ROUNDING = 4 * 2.0**-52  # a sampled action's rounding, relative to its size


class UnresolvedCensusError(ValueError):
    """The sampled action steps still disagree with the flux after
    REFINE_ROUNDS rounds of midpoints."""


def _crossings(brackets: list, actions_at) -> list:
    """The label in each bracket (c0, u0, c1, u1), c0 < c1, at which the
    unwrapped action less 2 pi m crosses 0, where u0 and u1, its values at
    the ends, have opposite signs: an end of the bracket or a label whose
    action actions_at(labels) gave, within CROSSING_XTOL of the crossing.
    Every call of actions_at is one batch, for all the brackets still open.

    An action a at the label c counts on the branch nearest the secant line
    d through the ends: a less the multiple of 2 pi nearest a - d(c).  The
    first batch asks for the labels within PROBE either side of the secant
    estimate of the root, those inside the bracket.  Each later batch asks
    for the midpoint of the tightest sign change.  A bracket closes, at the
    end of its tightest sign change with the smaller |value|, when that is
    at most CROSSING_XTOL wide, when an end's value is exactly 0, or when
    the midpoint is an end (the float spacing exceeds CROSSING_XTOL there).
    """
    roots = [0.0] * len(brackets)
    lines, known, asks = [], [], []
    for c0, u0, c1, u1 in brackets:
        slope = (u1 - u0) / (c1 - c0)
        x = c0 - u0 / slope
        pair = (x - PROBE, x + PROBE)  # or the floats just inside, if rounded out
        pair = [math.nextafter(p, x) if abs(p - x) > PROBE else p for p in pair]
        lines.append((c0, u0, slope))
        known.append([(c0, u0), (c1, u1)])
        asks.append([p for p in pair if c0 < p < c1])
    unclosed = range(len(brackets))
    while unclosed:
        labels = [c for i in unclosed for c in asks[i]]
        got = iter(actions_at(labels) if labels else ())
        still = []
        for i in unclosed:
            c0, u0, slope = lines[i]
            actions = [next(got) for _ in asks[i]]
            known[i][1:1] = [
                (c, a - TWO_PI * round((a - u0 - (c - c0) * slope) / TWO_PI))
                for c, a in zip(asks[i], actions)
            ]
            _, a, fa, b, fb = min(
                (b - a, a, fa, b, fb)
                for (a, fa), (b, fb) in zip(known[i], known[i][1:])
                if fa * fb <= 0.0
            )
            mid = 0.5 * (a + b)
            if b - a <= CROSSING_XTOL or mid in (a, b) or 0.0 in (fa, fb):
                roots[i] = a if abs(fa) <= abs(fb) else b
            else:
                known[i], asks[i] = [(a, fa), (b, fb)], [mid]
                still.append(i)
        unclosed = still
    return roots


def _branches(rows: np.ndarray) -> tuple:
    """The unwrapping of sampled leaf actions by the flux: rows are (label,
    action, flux) in label order.  Returns (n, missed): the unwrapped
    action of sample i is its action + 2 pi n[i], with n[0] = 0, and
    missed holds the steps i, from sample i to i + 1, that miss their
    prediction by more than MISMATCH.

    A step is predicted by the trapezoid rule on the flux; its unwrapped
    value is the observed action step on the branch nearest the prediction.
    """
    c, a, f = rows[:, 0], rows[:, 1], rows[:, 2]
    off = np.diff(a) - 0.5 * (f[1:] + f[:-1]) * np.diff(c)
    turns = np.round(off / TWO_PI)
    missed = np.flatnonzero(np.abs(off - TWO_PI * turns) > MISMATCH)
    return np.concatenate([[0.0], -np.cumsum(turns)]), missed


class Leaf(NamedTuple):
    label: float
    topology: str  # circle | line | point
    singular: bool


class Entry(NamedTuple):
    """A row of a census report, as BSReport.entries builds it on read."""

    leaf: Leaf
    is_bs: bool


class BSReport(NamedTuple):
    # the sampled circle leaves, as read-only columns from one holonomy batch
    labels: np.ndarray  # (n,)
    actions: np.ndarray  # (n,)
    holonomies: np.ndarray  # (n,)
    is_bs: np.ndarray  # (n,) bool: whether the census located the leaf
    lines: tuple  # the sampled line leaves' labels
    points: tuple  # the point leaves as (label, point) pairs; their holonomy is 1
    bs_locations: tuple  # root-solved labels of smooth BS circle leaves
    q_bs_smooth: int
    q_bs_singular: int
    q_bs: int
    lines_excluded: int

    def as_dict(self) -> dict:
        """The report, its leaves in rows: circle leaves, line leaves, point
        leaves.  A circle leaf's nearest_multiple m is nearest_multiples', its
        residual r its action less 2 pi m, its phase 0.0 - r (never -0.0),
        the argument of exp(-i action), so -pi at a tie; its is_bs is the
        census's."""
        actions = self.actions
        re, im = self.holonomies.real.tolist(), self.holonomies.imag.tolist()
        m = nearest_multiples(actions)
        leaves = [
            {"label": c, "topology": "circle", "singular": False, "is_bs": bs,
             "holonomy": [x, y], "phase": 0.0 - r, "action": a, "nearest_multiple": int(k),
             "residual": r}
            for c, bs, x, y, a, k, r in zip(self.labels.tolist(), self.is_bs.tolist(), re, im,
                                           actions.tolist(), m.tolist(),
                                           (actions - TWO_PI * m).tolist())
        ]
        # line leaves are BS when the census counts them (lines_excluded is 0),
        # and a point leaf's holonomy 1 gives its fields by the same rules
        leaves += [{"label": c, "topology": "line", "singular": False,
                    "is_bs": not self.lines_excluded} for c in self.lines]
        leaves += [{"label": c, "topology": "point", "singular": True, "is_bs": True,
                    "holonomy": [1.0, 0.0], "phase": 0.0, "action": 0.0,
                    "nearest_multiple": 0, "residual": 0.0} for c, _ in self.points]
        return {
            "q_bs": self.q_bs,
            "q_bs_smooth": self.q_bs_smooth,
            "q_bs_singular": self.q_bs_singular,
            "bs_locations": list(self.bs_locations),
            "lines_excluded": self.lines_excluded,
            "leaves": leaves,
        }

    @property
    def entries(self) -> tuple:
        """The rows of as_dict as Entry records, built on read: gqlab reads
        the columns, perfbench/tracing.py these rows."""
        return tuple(Entry(Leaf(r["label"], r["topology"], r["singular"]), r["is_bs"])
                     for r in self.as_dict()["leaves"])


def _one_per_leaf(locations: list, period: float | None) -> tuple:
    """The least label of each leaf among locations, in label order.  Two
    labels are one leaf when they lie within _label_slack of each other, or
    of a whole number of periods apart on a periodic label.  In the order
    of their offsets in the period (of their labels, if there is none) a
    leaf's locations are neighbours, the last and the first across the
    period."""

    def same_leaf(c: float, u: float) -> bool:
        gap = math.remainder(c - u, period) if period else c - u
        return abs(gap) < _label_slack(c, u)

    runs = []  # the locations of each leaf, in offset order
    for c in sorted(locations, key=(lambda c: (c % period, c)) if period else None):
        if runs and same_leaf(runs[-1][-1], c):
            runs[-1].append(c)
        else:
            runs.append([c])
    if period and len(runs) > 1 and same_leaf(runs[-1][-1], runs[0][0]):
        runs[0] += runs.pop()
    return tuple(sorted(min(run) for run in runs))


def bs_census(
    cover: TrivializationCover,
    pol: Polarization,
    crange: tuple,
    count: int,
    include_lines: bool = False,
) -> BSReport:
    """Bohr-Sommerfeld census over a label range.

    Circle leaves are sampled at `count` labels, and their actions are
    unwrapped by the flux (_branches): A' at every sample, from one
    LeafTransport.flux call, predicts each step between neighbours.  A
    step that misses its prediction by more than MISMATCH gets its midpoint
    sampled, all such midpoints in one batch a round; after REFINE_ROUNDS
    rounds UnresolvedCensusError names the step.  On a periodic label
    window one period wide, the step from the last sample to the first one
    plus a period closes the window.  A window whose action rounds by more
    than MISMATCH raises ConfigurationError.  One r per sample, its
    unwrapped action U less the nearest multiple 2 pi m, decides it: it is
    located at m when |r| <= ROUNDING (|U| + |c A'(c)|), its rounding, and
    its turn is m - (r < 0); a sampled leaf is BS (is_bs) when its sample
    is located.  Neighbours located at one multiple are one location, the
    one with the least |r|.  A step brackets each multiple above the lower
    of its turns up to the higher one, unless an end is located at it;
    _crossings locates the root to 1e-12 in the label, and a sample that
    it closes on is located.  A crossing of -1 opens nothing.  Locations a
    period apart are one leaf (_one_per_leaf).
    Point leaves (declared singular points) are BS with trivial holonomy.
    Noncompact line leaves are excluded from the count unless include_lines
    is set (they all admit covariantly constant sections); a line leaf is
    counted from its label, and only checked to cross an element.

    The census threads on one LeafAtlas, so each membership pattern is
    threaded once.  The sampled leaves take one holonomy batch, with at
    most two transport quadrature calls and one transition call.  A
    refinement round and a root step read one leaf_actions batch each, a
    step for every bracket still open; on a near-linear action the first
    step, two labels either side of each secant estimate, closes all
    brackets.  The census counts its refinement rounds, its brackets, its
    root steps and the labels they evaluate (docs/conventions.md, "Reports").
    """
    transport = LeafTransport(cover, pol)
    atlas = LeafAtlas(cover, pol)
    for name in ("census_refinements", "root_steps", "root_holonomy_evaluations"):
        trace.count(name, 0)  # reported when no round or step needs them
    labels, leaves, points = enumerate_leaves(atlas, crange, count)
    closed = pol.leaf_period is not None
    actions, hols = holonomy(transport, leaves)
    for column in (labels, actions, hols):
        column.flags.writeable = False

    def sample(cs, found, index) -> np.ndarray:
        """Rows (label, action, flux, sample index) in label order."""
        rows = np.column_stack([cs, found, index])
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        return np.column_stack([rows[:, :2], transport.flux(rows[:, 0]), rows[:, 2]])

    period = pol.label_range[1] - pol.label_range[0] if pol.label_periodic else None
    lines = 0 if closed else len(labels)
    rows = sample(labels, actions, np.arange(len(actions))) if len(actions) else np.empty((0, 4))
    spans = len(actions) > 0 and _spans_a_period(pol, *crange)
    closes = spans and rows[-1, 0] < rows[0, 0] + period
    if closes:  # the first sample again, one period on; its index is -1, as a midpoint's
        rows = np.vstack([rows, rows[:1] + [period, 0.0, 0.0, 0.0]])
        rows[-1, 3] = -1.0

    refinements = 0
    while True:
        branches, missed = _branches(rows)
        unwrapped = rows[:, 1] + TWO_PI * branches
        # the action's size and the label's rounding as the flux carries it,
        # checked each round: beyond the limit refinement may end unresolved
        size = np.abs(unwrapped) + np.abs(rows[:, 0] * rows[:, 2])
        if ROUNDING * np.max(size, initial=0.0) > MISMATCH:
            c = rows[np.argmax(size), 0].item()
            raise ConfigurationError(f"the leaf action at label {c!r} rounds by "
                                     "more than a quarter turn; no count is sound there")
        if not len(missed):
            break
        if refinements == REFINE_ROUNDS:
            c0, c1 = rows[missed[0] : missed[0] + 2, 0].tolist()
            raise UnresolvedCensusError(
                f"the leaf action between labels {c0!r} and {c1!r} still misses the "
                f"step the flux predicts after {REFINE_ROUNDS} refinement rounds"
            )
        refinements += 1
        trace.count("census_refinements")
        mids = (0.5 * (rows[missed, 0] + rows[missed + 1, 0])).tolist()
        found = leaf_actions(transport, atlas.leaves(mids))[0]
        rows = np.vstack([rows, sample(mids, found, np.full(len(mids), -1.0))])
        rows = rows[np.argsort(rows[:, 0], kind="stable")]

    # one r per sample decides its location, its turn and its brackets' signs
    m = np.round(unwrapped / TWO_PI)
    r = rows[:, 1] + TWO_PI * (branches - m)
    at = np.abs(r) <= ROUNDING * size
    c, a, n, m, k = (x.tolist() for x in (rows[:, 0], rows[:, 1], branches, m, m - (r < 0.0)))
    located = []  # (|r|, label): at large labels neighbours share a location
    for i in np.flatnonzero(at).tolist():
        if i and at[i - 1] and m[i - 1] == m[i]:
            located[-1] = min(located[-1], (abs(r[i]), c[i]))
        else:
            located.append((abs(r[i]), c[i]))
    if closes and at[0] and at[-1] and len(located) > 1:  # one run, across the close
        located[0] = min(located[0], located.pop())
    brackets = []
    for i in np.flatnonzero(np.diff(k)).tolist():
        ends = {m[j] for j in (i, i + 1) if at[j]}
        for t in range(int(min(k[i : i + 2])) + 1, int(max(k[i : i + 2])) + 1):
            if t not in ends:
                v0, v1 = a[i] + TWO_PI * (n[i] - t), a[i + 1] + TWO_PI * (n[i + 1] - t)
                brackets.append((c[i], v0, c[i + 1], v1))

    trace.count("root_brackets", len(brackets))

    def actions_at(labels: list) -> list:
        trace.count("root_steps")
        trace.count("root_holonomy_evaluations", len(labels))
        return leaf_actions(transport, atlas.leaves(labels))[0].tolist()

    locations = [c for _, c in located] + _crossings(brackets, actions_at)
    ended = set(locations)  # a root search may close on a sample: it is located too
    at[[i for i, x in enumerate(c) if x in ended]] = True
    is_bs = np.zeros(len(actions), dtype=bool)  # a sample is BS where it is located
    sampled = rows[:, 3] >= 0.0
    is_bs[rows[sampled, 3].astype(int)] = at[sampled]
    is_bs.flags.writeable = False
    if closes:  # the closing step's locations, back into the window
        locations = [c - period if c >= crange[1] else c for c in locations]
    unique = _one_per_leaf(locations, period)

    return BSReport(
        labels=labels if closed else actions,  # a line census's columns are empty
        actions=actions,
        holonomies=hols,
        is_bs=is_bs,
        lines=() if closed else tuple(labels.tolist()),
        points=tuple(points),
        bs_locations=unique,
        q_bs_smooth=len(unique),
        q_bs_singular=len(points),
        q_bs=len(unique) + len(points) + (lines if include_lines else 0),
        lines_excluded=0 if include_lines else lines,
    )


def lattice_count(lo: float, hi: float) -> int:
    """Number of integer points in [lo, hi], each end widened by 1e-9."""
    if hi < lo:
        return 0
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    return max(0, last - first + 1)
