"""Leaf enumeration, holonomy, and the Bohr-Sommerfeld census.

A circle leaf is threaded through the cover as a chain of element segments
with switch points in consecutive double overlaps; its holonomy is the
product of segment transport factors exp(-i integral theta) and transition
values at the switches.  A leaf is Bohr-Sommerfeld exactly when that
product is 1, i.e. when the accumulated action lands in 2 pi Z.  The census
locates BS leaves by root-solving Im(holonomy) between sampled sign
changes, so BS values need not be hit by the sample grid.

Leaves come from a LeafAtlas, which threads each membership pattern (the
set of elements a leaf crosses) once and builds the leaves of a batch of
labels from those threadings.  holonomy takes a batch of leaves and shares
its transport quadrature and transition evaluations, with the arithmetic of
a scalar product so that batching moves no bit of a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Polarization
from .prequantum import ConfigurationError, TrivializationCover
from .transport import LeafTransport

TWO_PI = 2.0 * math.pi


class CoverageError(ValueError):
    pass


class HolonomyUndefinedError(ValueError):
    pass


class LeafSegment(NamedTuple):
    element: int
    t0: float  # element-frame leaf parameter bounds
    t1: float
    c_elem: float  # transverse label lifted into the element frame


@dataclass(frozen=True)
class Leaf:
    label: float
    topology: str  # circle | line | point
    segments: tuple
    switch_points: np.ndarray  # canonical coords; entry i joins segment i, i+1
    singular: bool = False
    point: tuple | None = None


@dataclass(frozen=True)
class HolonomyResult:
    holonomy: complex
    phase: float  # principal argument of the holonomy, in (-pi, pi]
    action: float  # accumulated integral of theta plus transition phases
    nearest_multiple: int
    residual: float  # action - 2 pi * nearest_multiple

    def as_dict(self) -> dict:
        return {
            "holonomy": [self.holonomy.real, self.holonomy.imag],
            "phase": self.phase,
            "action": self.action,
            "nearest_multiple": self.nearest_multiple,
            "residual": self.residual,
        }


# ---------------------------------------------------------------------------
# Leaf construction


def _thread_circle(cands: list, period: float, c: float) -> tuple:
    """Thread a circle leaf through the elements it crosses.

    cands holds (element, t0, t1) per crossed element, in cover order.
    Returns the segments as (element, t0, t1, position in cands) and the
    switch parameters; c is a label of the leaf, named in errors.
    """
    # Whole-circle elements carry the leaf in one segment.
    for j, (idx, t0, t1) in enumerate(cands):
        if t1 - t0 >= period - 1e-9:
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


def _thread_line(cands: list, c: float) -> tuple:
    """Thread a line leaf through the elements it crosses, as
    _thread_circle does a circle leaf."""
    order = sorted(range(len(cands)), key=lambda j: (cands[j][1], cands[j][0]))
    segments = []
    switches = []
    idx, t0, t1 = cands[order[0]]
    cur_end = t1
    cur = (idx, t0, order[0])
    for j in order[1:]:
        nidx, n0, n1 = cands[j]
        if n0 >= cur_end - 1e-12:
            raise CoverageError(f"cover leaves a gap on the line leaf {c}")
        if n1 <= cur_end:
            continue
        switch = 0.5 * (n0 + cur_end)
        segments.append((cur[0], cur[1], switch, cur[2]))
        switches.append(switch)
        cur = (nidx, switch, j)
        cur_end = n1
    segments.append((cur[0], cur[1], cur_end, cur[2]))
    return segments, switches


class LeafAtlas:
    """The leaves of a polarization on a cover, threaded once per
    membership pattern.

    A label's membership pattern is the set of elements its leaf crosses.
    On box covers the threading of a leaf, its segments (element, t0, t1)
    and the parameters of its switch points, depends on the label only
    through that pattern: the label enters as each segment's lifted label
    and through the switch points on its curve.  So a batch of labels is
    lifted into every element in one broadcast (Manifold.lift_labels) and
    grouped by pattern; a pattern is threaded the first time it is met,
    and the switch points of the whole batch come from one curve_points
    call.  The element boxes are the degree-0 cells of the cover's nerve,
    which a pullback cover keeps from its source, and the switch points lie
    on the polarization's own curve (phi^{-1} o gamma for a pushforward),
    so a pullback cover is threaded like any other.
    """

    def __init__(self, cover: TrivializationCover, pol: Polarization):
        self.cover = cover
        self.polarization = pol
        self._root = root = pol.root
        self._manifold = cover.manifold
        cells = cover.nerve.degree(0)
        self._elements = [cell.indices[0] for cell in cells]
        boxes = [cell.box for cell in cells]
        if root.kind == "radial":  # circles about the origin, squared radius 2c
            half = np.array([min(b.hi[0], b.hi[1], -b.lo[0], -b.lo[1]) for b in boxes])
            self.label_lo = np.zeros(len(boxes))
            self.label_hi = 0.5 * half * half
            self.leaf_lo = np.zeros(len(boxes))
            self.leaf_hi = np.full(len(boxes), TWO_PI)
        else:
            la, ta = root.label_axis, root.leaf_axis
            self.label_lo = np.array([b.lo[la] for b in boxes], dtype=float)
            self.label_hi = np.array([b.hi[la] for b in boxes], dtype=float)
            self.leaf_lo = np.array([b.lo[ta] for b in boxes], dtype=float)
            self.leaf_hi = np.array([b.hi[ta] for b in boxes], dtype=float)
        self._threadings: dict = {}  # membership pattern -> threading
        self.threadings = 0  # patterns threaded

    def _lift(self, labels: np.ndarray) -> tuple:
        """(labels lifted into every element, whether each crosses it)."""
        if self._root.kind == "radial":
            lifted = np.repeat(labels[:, None], len(self.label_lo), axis=1)
            return lifted, (self.label_lo < lifted) & (lifted < self.label_hi)
        return self._manifold.lift_labels(
            labels, self._root.label_axis, self.label_lo, self.label_hi
        )

    def _threading(self, pattern: tuple, c: float) -> tuple:
        """Segments (element, t0, t1, element position) and switch
        parameters of the leaves of one membership pattern."""
        found = self._threadings.get(pattern)
        if found is not None:
            return found
        positions = [p for p, crossed in enumerate(pattern) if crossed]
        if not positions:
            raise CoverageError(f"leaf {c} crosses no cover element")
        lo, hi = self.leaf_lo.tolist(), self.leaf_hi.tolist()
        cands = [(self._elements[p], lo[p], hi[p]) for p in positions]
        period = self._root.leaf_period
        if period is None:
            segments, switches = _thread_line(cands, c)
        else:
            segments, switches = _thread_circle(cands, period, c)
        found = (
            [(el, t0, t1, positions[j]) for el, t0, t1, j in segments],
            np.array(switches),
        )
        self._threadings[pattern] = found
        self.threadings += 1
        return found

    def leaves(self, labels) -> list:
        """The leaves through labels, in their order: circle leaves when the
        polarization's leaves close, line leaves otherwise.  A label whose
        leaf crosses no element, or finds a gap, raises CoverageError."""
        labels = np.asarray(labels, dtype=float)
        if not len(labels):
            return []
        lifted, inside = self._lift(labels)
        groups: dict = {}  # membership pattern -> label rows, in first use
        for row, crossed in enumerate(inside.tolist()):
            groups.setdefault(tuple(crossed), []).append(row)
        values = labels.tolist()
        threaded = [  # (rows, segments, switch parameters) per pattern
            (rows, *self._threading(pattern, values[rows[0]]))
            for pattern, rows in groups.items()
        ]
        # the switch points of the whole batch, by one curve call; points
        # are computed row by row, so each is what a call for its leaf
        # alone gives
        closed = self._root.leaf_period is not None
        crossing = [(rows, sw) for rows, _, sw in threaded if len(sw)]
        pts = np.empty((0, 2))
        if crossing:
            cs = np.concatenate(
                [np.repeat(labels[rows], len(sw)) for rows, sw in crossing]
            )
            ts = np.concatenate(  # each pattern's parameters, once per label
                [np.repeat(sw[None, :], len(rows), axis=0).ravel()
                 for rows, sw in crossing]
            )
            pts = self._manifold.reduce(self.polarization.curve_points(cs, ts))
        topology = "circle" if closed else "line"
        leaves = [None] * len(values)
        start = 0
        for rows, segments, switches in threaded:
            n, k = len(rows), len(switches)
            switch_pts = pts[start : start + n * k].reshape(n, k, 2)
            start += n * k
            lifts = lifted[rows][:, [p for _, _, _, p in segments]].tolist()
            for row, lift, here in zip(rows, lifts, switch_pts):
                leaves[row] = Leaf(
                    values[row],
                    topology,
                    tuple(
                        [
                            LeafSegment(el, t0, t1, c_elem)
                            for (el, t0, t1, _), c_elem in zip(segments, lift)
                        ]
                    ),
                    here,
                )
        return leaves


def _spans_a_period(pol: Polarization, lo: float, hi: float) -> bool:
    """Whether a label window covers one full period of a periodic label.
    enumerate_leaves samples such a window half-open, and bs_census closes
    it with the bracket from the last sample to the first one plus a
    period; any other window is sampled at both ends."""
    period = pol.label_range[1] - pol.label_range[0]
    return pol.label_periodic and hi - lo >= period - 1e-9


def enumerate_leaves(
    cover: TrivializationCover,
    pol: Polarization,
    crange: tuple,
    count: int,
    include_singular: bool = True,
    atlas: LeafAtlas | None = None,
) -> list:
    """Leaves at `count` fiber-map values in crange, plus the polarization's
    singular points as point leaves, labelled by the root polarization
    (a pushforward keeps labels leafwise).  `atlas` is a LeafAtlas of this
    cover and polarization to thread with and reuse; a new one by
    default."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    if atlas is None:
        atlas = LeafAtlas(cover, pol)
    elif atlas.cover is not cover or atlas.polarization is not pol:
        raise ConfigurationError("atlas is for another cover or polarization")
    lo, hi = crange
    with np.errstate(over="ignore", invalid="ignore"):
        if _spans_a_period(pol, lo, hi):
            values = lo + (hi - lo) * np.arange(count) / count
        else:
            values = np.linspace(lo, hi, count) if count > 1 else np.array([lo])
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
    leaves = atlas.leaves(values)
    if include_singular and len(singular):
        # Declared singular points always join the census as point leaves.
        points = np.array(pol.singular_points, dtype=float).reshape(-1, 2)
        for p, c in zip(points.tolist(), singular_labels.tolist()):
            leaves.append(
                Leaf(
                    label=c,
                    topology="point",
                    segments=(),
                    switch_points=np.empty((0, 2)),
                    singular=True,
                    point=tuple(p),
                )
            )
    return leaves


# ---------------------------------------------------------------------------
# Holonomy


def holonomy(
    cover: TrivializationCover,
    pol: Polarization,
    leaves,
    transport: LeafTransport | None = None,
):
    """Parallel transport around closed leaves: a HolonomyResult for one
    Leaf, a list of them, in order, for a sequence of leaves.

    The convention matches the cochain transport: a value f in the alpha
    trivialization becomes lambda_{alpha beta} f in the beta trivialization,
    and moving along the leaf multiplies by exp(-i integral theta).

    The leaves of a batch share their kernel work: one transport.integral
    call for all their leaf segments, which integrates the distinct ones
    missing from its cache in one quadrature call, one cover.transition
    call per element pair for all switch points between that pair, and one
    exp call.  Each holonomy is then the
    product of its segment factors and its transitions, in leaf order, of
    Python complex numbers, with math.atan2 for the phases.  NumPy's array
    complex multiply can round differently from a scalar product, and
    np.arctan2 from math.atan2, so neither is used: a batch gives every
    result bit for bit as a single leaf does.  `transport` is a
    LeafTransport of this cover and polarization whose cache to fill and
    reuse; it also counts the transition calls.
    """
    batch = [leaves] if isinstance(leaves, Leaf) else list(leaves)
    if any(leaf.topology == "line" for leaf in batch):
        raise HolonomyUndefinedError(
            "holonomy is undefined for noncompact (line) leaves"
        )
    circles = [leaf for leaf in batch if leaf.topology != "point"]
    if circles and transport is None:
        transport = LeafTransport(cover, pol)

    # the segment integrals and switch transitions of the batch, flat in
    # leaf order
    between: dict = {}  # (a, b) -> flat switch positions
    j = 0
    for leaf in circles:
        segs = leaf.segments
        for s in range(len(leaf.switch_points)):
            pair = (segs[s].element, segs[(s + 1) % len(segs)].element)
            between.setdefault(pair, []).append(j)
            j += 1
    segments = [seg for leaf in circles for seg in leaf.segments]
    # LeafSegment columns: element, t0, t1, c_elem
    integrals = transport.integral(*zip(*segments)) if segments else np.empty(0)
    lams = np.empty(j, dtype=np.complex128)
    if j:
        points = np.concatenate([leaf.switch_points for leaf in circles])
        for (a, b), where in between.items():
            if a != b:
                transport.transition_batches += 1
            lams[where] = cover.transition(a, b, points[where])
    integrals = integrals.tolist()
    factors = np.exp([-1j * val for val in integrals]).tolist()
    lams = lams.tolist()

    out = []
    k = j = 0
    for leaf in batch:
        if leaf.topology == "point":
            out.append(HolonomyResult(1.0 + 0.0j, 0.0, 0.0, 0, 0.0))
            continue
        action = 0.0
        hol = 1.0 + 0.0j
        for s in range(k, k + len(leaf.segments)):
            action += integrals[s].real
            hol *= factors[s]
        for lam in lams[j : j + len(leaf.switch_points)]:
            hol *= lam
            action -= math.atan2(lam.imag, lam.real)
        k += len(leaf.segments)
        j += len(leaf.switch_points)
        nearest = int(round(action / TWO_PI))
        out.append(
            HolonomyResult(
                holonomy=hol,
                phase=math.atan2(hol.imag, hol.real),
                action=action,
                nearest_multiple=nearest,
                residual=action - TWO_PI * nearest,
            )
        )
    return out[0] if isinstance(leaves, Leaf) else out


# ---------------------------------------------------------------------------
# Census


def _brent_steps(a: float, fa: float, b: float, fb: float, xtol: float):
    """Brent's method as a generator: it yields each label at which f is
    needed, is sent f there, and returns a root of f in the bracket [a, b],
    where fa = f(a) and fb = f(b) have opposite signs, to within xtol.

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4), laid out as in scipy.optimize.brentq: the
    bracket [x_cur, x_blk] always holds a sign change, x_cur is its end with
    the smaller |f|, and each step is a secant or inverse quadratic step
    when that shrinks the bracket fast enough, a bisection otherwise.  The
    returned point is a, b or one that f was evaluated at.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    x_pre, f_pre, x_cur, f_cur = a, fa, b, fb
    x_blk, f_blk, s_pre, s_cur = a, fa, 0.0, 0.0  # set on the first pass
    while True:
        if (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * xtol
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        s_try = None
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre)
                )
        if s_try is not None and 2.0 * abs(s_try) < min(
            abs(s_pre), 3.0 * abs(s_bis) - delta
        ):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_next = x_cur + (s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis))
        if x_next == x_cur:
            # xtol is below the float spacing at x_cur: bisect down to
            # neighbouring floats instead of stepping in place forever
            s_pre = s_cur = s_bis
            x_next = x_cur + s_bis
            if x_next in (x_cur, x_blk):
                return x_cur
        x_cur = x_next
        f_cur = yield x_cur


def _brent_root(f, a: float, fa: float, b: float, fb: float, xtol: float) -> float:
    """A root of f in the bracket [a, b] by _brent_steps, evaluating f at
    each label the method asks for."""
    steps = _brent_steps(a, fa, b, fb, xtol)
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def _lockstep_roots(brackets, holonomies_at) -> list:
    """Brent searches on Im(hol) of every bracket (c0, h0, c1, h1), stepped
    together: holonomies_at(labels) returns the holonomies at the next
    label of each unfinished search, as one batch.  Each search takes
    exactly the steps it takes alone; a label it has seen is not asked for
    again.  Returns (root, holonomies by label) per bracket."""
    hols = [{c0: h0, c1: h1} for c0, h0, c1, h1 in brackets]
    roots = [None] * len(brackets)
    sends = [  # (bracket, search, value to send it; None starts it)
        (i, _brent_steps(c0, h0.imag, c1, h1.imag, 1e-12), None)
        for i, (c0, h0, c1, h1) in enumerate(brackets)
    ]
    while True:
        asks = []
        for i, steps, value in sends:
            try:
                x = steps.send(value)
                while x in hols[i]:
                    x = steps.send(hols[i][x].imag)
                asks.append((i, steps, x))
            except StopIteration as stop:
                roots[i] = stop.value
        if not asks:
            return list(zip(roots, hols))
        values = holonomies_at([x for _, _, x in asks])
        sends = []
        for (i, steps, x), h in zip(asks, values):
            hols[i][x] = h
            sends.append((i, steps, h.imag))


@dataclass(frozen=True)
class BSEntry:
    leaf: Leaf
    holonomy: HolonomyResult | None
    is_bs: bool


@dataclass(frozen=True)
class BSReport:
    entries: tuple
    bs_locations: tuple  # root-solved labels of smooth BS circle leaves
    q_bs_smooth: int
    q_bs_singular: int
    q_bs: int
    lines_excluded: int
    tol: float
    # root-solving and transport work, reported under timing rather than in
    # the payload
    root_brackets: int
    root_holonomy_evaluations: int
    transport_integrals: int  # label integrals computed
    transport_batches: int  # quadrature calls
    leaf_patterns: int  # membership patterns threaded
    transition_batches: int  # cover.transition calls of the holonomies

    @property
    def counters(self) -> dict:
        return {
            "root_brackets": self.root_brackets,
            "root_holonomy_evaluations": self.root_holonomy_evaluations,
            "transport_integrals": self.transport_integrals,
            "transport_batches": self.transport_batches,
            "leaf_patterns": self.leaf_patterns,
            "transition_batches": self.transition_batches,
        }

    def as_dict(self) -> dict:
        return {
            "q_bs": self.q_bs,
            "q_bs_smooth": self.q_bs_smooth,
            "q_bs_singular": self.q_bs_singular,
            "bs_locations": list(self.bs_locations),
            "lines_excluded": self.lines_excluded,
            "tol": self.tol,
            "leaves": [
                {
                    "label": e.leaf.label,
                    "topology": e.leaf.topology,
                    "singular": e.leaf.singular,
                    "is_bs": e.is_bs,
                    **(e.holonomy.as_dict() if e.holonomy else {}),
                }
                for e in self.entries
            ],
        }


def bs_census(
    cover: TrivializationCover,
    pol: Polarization,
    crange: tuple,
    count: int,
    tol: float = 1e-8,
    include_lines: bool = False,
) -> BSReport:
    """Bohr-Sommerfeld census over a label range.

    Circle leaves are sampled at `count` labels.  Each pair of neighbouring
    samples where Im(holonomy) changes sign brackets a crossing, which
    Brent's method locates to 1e-12 in the label; it is a BS location when
    the holonomy there is +1, not -1.  On a periodic label window one
    period wide, the bracket from the last sample round to the first one
    is searched too.  The samples must be fine enough that the holonomy
    crosses the real axis at most once between neighbours
    (docs/conventions.md, "Census").  Locations that differ by a multiple
    of the label period are one leaf and are counted once.
    Point leaves (declared singular points) are BS with trivial holonomy.
    Noncompact line leaves are excluded from the count unless
    include_lines is set (they all admit covariantly constant sections).

    The census threads on one LeafAtlas, so each membership pattern is
    threaded once.  The sampled leaves take one holonomy batch, which
    makes at most one transport quadrature call and one transition call
    per element pair.  All brackets are then searched
    together: each lockstep step threads the next label of every
    unfinished bracket and takes one holonomy batch again, while each
    bracket takes exactly the Brent steps it takes alone.
    """
    transport = LeafTransport(cover, pol)
    atlas = LeafAtlas(cover, pol)
    leaves = enumerate_leaves(cover, pol, crange, count, atlas=atlas)
    closed = [leaf for leaf in leaves if leaf.topology != "line"]
    hols = iter(holonomy(cover, pol, closed, transport))
    entries = []
    sampled: list = []
    lines = 0
    singular_bs = 0
    for leaf in leaves:
        if leaf.topology == "line":
            lines += 1
            entries.append(BSEntry(leaf, None, include_lines))
            continue
        hres = next(hols)
        is_bs = abs(hres.phase) < tol
        if leaf.topology == "point":
            singular_bs += 1
        else:
            sampled.append((leaf.label, hres.holonomy))
        entries.append(BSEntry(leaf, hres, is_bs))

    def holonomies_at(labels: list) -> list:
        threaded = atlas.leaves(labels)
        return [h.holonomy for h in holonomy(cover, pol, threaded, transport)]

    # The holonomy is continuous in the label (the action is only defined
    # up to the threading), so we root-solve Im(hol) between sign changes
    # and keep the roots where the holonomy is +1 rather than -1.
    hi = crange[1]
    period = pol.label_range[1] - pol.label_range[0] if pol.label_periodic else None
    locations = []
    brackets = []
    wrap = None  # index of the bracket that closes a period window
    sampled.sort()
    for (c0, h0), (c1, h1) in zip(sampled, sampled[1:]):
        if abs(h0.imag) < 1e-12:
            if h0.real > 0.0:
                locations.append(c0)
            continue
        if h0.imag * h1.imag < 0.0:
            brackets.append((c0, h0, c1, h1))
    if sampled:
        (c_first, h_first), (c_last, h_last) = sampled[0], sampled[-1]
        if abs(h_last.imag) < 1e-12:
            if h_last.real > 0.0:
                locations.append(c_last)
        elif (
            # a window one period wide closes on its first sample; a zero
            # there is already located as that sample
            _spans_a_period(pol, *crange)
            and c_last < c_first + period
            and abs(h_first.imag) >= 1e-12
            and h_last.imag * h_first.imag < 0.0
        ):
            wrap = len(brackets)
            brackets.append((c_last, h_last, c_first + period, h_first))

    solved = _lockstep_roots(brackets, holonomies_at)
    for i, (root, hols) in enumerate(solved):
        if hols[root].real > 0.0:  # +1, not -1
            if i == wrap and root >= hi:
                root -= period
            locations.append(root)

    # one location per leaf: labels a multiple of the period apart coincide
    def same_leaf(c: float, u: float) -> bool:
        d = c - u
        if period is not None:
            d -= period * round(d / period)
        return abs(d) < 1e-9

    unique = []
    for c in sorted(locations):
        if not any(same_leaf(c, u) for u in unique):
            unique.append(c)

    q_smooth = len(unique)
    q_total = q_smooth + singular_bs + (lines if include_lines else 0)
    return BSReport(
        entries=tuple(entries),
        bs_locations=tuple(unique),
        q_bs_smooth=q_smooth,
        q_bs_singular=singular_bs,
        q_bs=q_total,
        lines_excluded=0 if include_lines else lines,
        tol=tol,
        root_brackets=len(solved),
        root_holonomy_evaluations=sum(len(hols) - 2 for _, hols in solved),
        transport_integrals=transport.integrals_computed,
        transport_batches=transport.batches,
        leaf_patterns=atlas.threadings,
        transition_batches=transport.transition_batches,
    )


def lattice_count(lo: float, hi: float, tol: float = 1e-9) -> int:
    """Number of integer points in the closed interval [lo, hi]."""
    if hi < lo:
        return 0
    first = math.ceil(lo - tol)
    last = math.floor(hi + tol)
    return max(0, last - first + 1)
