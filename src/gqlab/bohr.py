"""Leaf enumeration, holonomy, and the Bohr-Sommerfeld census.

A circle leaf is threaded through the cover as a chain of element segments
with switch points in consecutive double overlaps; its holonomy is the
product of segment transport factors exp(-i integral theta) and transition
values at the switches.  A leaf is Bohr-Sommerfeld exactly when that
product is 1, i.e. when the accumulated action lands in 2 pi Z.  The census
locates BS leaves by root-solving each real-axis crossing of the holonomy
between sampled sign changes of Im(holonomy), on the branch of its phase
that is continuous through the crossing, so BS values need not be hit by
the sample grid.

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

from .geometry import LeafFrame, Polarization
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
    lifted into every element in one broadcast (LeafFrame.lift, the rule
    the transversal grid uses for its cells) and grouped by pattern; a
    pattern is threaded the first time it is met, and the switch points of
    the whole batch come from one curve_points call.  The element boxes are the degree-0 cells of the cover's nerve,
    which a pullback cover keeps from its source, and the switch points lie
    on the polarization's own curve (phi^{-1} o gamma for a pushforward),
    so a pullback cover is threaded like any other.
    """

    def __init__(self, cover: TrivializationCover, pol: Polarization):
        self.cover = cover
        self.polarization = pol
        cells = cover.nerve.degree(0)
        self._elements = [cell.indices[0] for cell in cells]
        self.frame = LeafFrame.of(cover.manifold, pol, [cell.box for cell in cells])
        self._threadings: dict = {}  # membership pattern -> threading
        self.threadings = 0  # patterns threaded

    def _threading(self, pattern: tuple, c: float) -> tuple:
        """Segments (element, t0, t1, element position) and switch
        parameters of the leaves of one membership pattern."""
        found = self._threadings.get(pattern)
        if found is not None:
            return found
        positions = [p for p, crossed in enumerate(pattern) if crossed]
        if not positions:
            raise CoverageError(f"leaf {c} crosses no cover element")
        lo, hi = self.frame.leaf_lo.tolist(), self.frame.leaf_hi.tolist()
        cands = [(self._elements[p], lo[p], hi[p]) for p in positions]
        period = self.polarization.leaf_period
        if period is None:
            segments, switches = _thread_line(cands, c)
        else:
            whole = self.frame.whole[positions].tolist()
            segments, switches = _thread_circle(cands, whole, period, c)
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
        lifted, inside = self.frame.lift(labels)
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
        closed = self.polarization.leaf_period is not None
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
            pts = self.cover.manifold.reduce(self.polarization.curve_points(cs, ts))
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


def enumerate_leaves(atlas: LeafAtlas, crange: tuple, count: int) -> list:
    """Leaves at `count` fiber-map values in crange, threaded on atlas,
    plus its polarization's singular points as point leaves, labelled by
    the root polarization (a pushforward keeps labels leafwise)."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    pol = atlas.polarization
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
    if len(singular):
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


def nearest_multiple(action: float) -> int:
    """The m for which 2 pi m is nearest to action.  An action within 1e-9
    multiples of an odd multiple of pi is a tie, which rounding noise would
    otherwise decide; it takes the lower multiple, so its residual is +pi."""
    x = action / TWO_PI
    lower = math.floor(x)
    return lower if x - lower <= 0.5 + 1e-9 else lower + 1


def holonomy(transport: LeafTransport, leaves) -> list:
    """Parallel transport around closed leaves: a HolonomyResult for each
    leaf of a sequence, in order, on the cover and polarization of
    transport.

    The convention matches the cochain transport: a value f in the alpha
    trivialization becomes lambda_{alpha beta} f in the beta trivialization,
    and moving along the leaf multiplies by exp(-i integral theta).

    The leaves of a batch share their kernel work: one transport.integral
    call for all their leaf segments, which integrates the distinct ones
    missing from its cache in one quadrature call, one cover.transition
    call for the switch points between two distinct elements, which
    evaluates each distinct transition formula once, and one exp call.
    Each holonomy is then the product of its segment factors and its
    transitions, in leaf order, of Python complex numbers, with math.atan2
    for the phases.  NumPy's array complex multiply can round differently
    from a scalar product, and np.arctan2 from math.atan2, so neither is
    used: a batch gives every result bit for bit as a single leaf does.
    transport fills and reuses its cache, and counts the transition
    formulas evaluated.
    """
    batch = list(leaves)
    if any(leaf.topology == "line" for leaf in batch):
        raise HolonomyUndefinedError(
            "holonomy is undefined for noncompact (line) leaves"
        )
    circles = [leaf for leaf in batch if leaf.topology != "point"]

    # the segment integrals and switch transitions of the batch, flat in
    # leaf order
    before, after = [], []  # the elements either side of each switch
    for leaf in circles:
        segs = leaf.segments
        for s in range(len(leaf.switch_points)):
            before.append(segs[s].element)
            after.append(segs[(s + 1) % len(segs)].element)
    segments = [seg for leaf in circles for seg in leaf.segments]
    # LeafSegment columns: element, t0, t1, c_elem
    integrals = transport.integral(*zip(*segments)) if segments else np.empty(0)
    lams = np.ones(len(before), dtype=np.complex128)
    if before:  # one transition call, on the switches between two elements
        a, b = np.array(before), np.array(after)
        moved = np.flatnonzero(a != b)
        points = np.concatenate([leaf.switch_points for leaf in circles])[moved]
        a, b = a[moved], b[moved]
        cover = transport.cover
        transport.transition_batches += len(set(cover.transition_formulas(a, b).tolist()))
        lams[moved] = cover.transition(a, b, points)
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
        nearest = nearest_multiple(action)
        out.append(
            HolonomyResult(
                holonomy=hol,
                phase=math.atan2(hol.imag, hol.real),
                action=action,
                nearest_multiple=nearest,
                residual=action - TWO_PI * nearest,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Census

CROSSING_XTOL = 1e-12  # the label tolerance of a crossing search
PROBE = 0.5 * CROSSING_XTOL  # Brent's smallest step, as _brent_steps takes it


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


def _tightest_sign_change(seen: dict, f) -> tuple:
    """The closest pair of neighbouring labels of seen (label -> holonomy)
    between which f of the holonomy changes sign or at which it is 0."""
    labels = sorted(seen)
    values = [f(seen[c]) for c in labels]
    _, a, b = min(
        (b - a, a, b)
        for a, b, fa, fb in zip(labels, labels[1:], values, values[1:])
        if fa * fb <= 0.0
    )
    return a, b


def _crossing_steps(c0: float, h0: complex, c1: float, h1: complex):
    """The real-axis crossing of the holonomy in the bracket [c0, c1], whose
    end holonomies h0 and h1 have imaginary parts of opposite sign, as a
    generator: it yields each label at which it needs the holonomy, never
    one it has seen, is sent the holonomy there, and returns (root,
    holonomies by label).  The root is one of those labels, within 1e-12 of
    the crossing.

    Brent's method runs on the branch of the phase that is continuous
    through the crossing, atan2(s Im h, s Re h): s = +1 when the shorter way
    between the two end phases passes through 0, -1 when it passes through
    pi.  Either branch has the sign of s Im(h) wherever Im(h) is not 0, so
    its sign changes are the crossings; near one the phase is close to
    linear in the label, and a secant step lands on the root.  A wrong
    guess (the phase stepped by more than pi between the ends) leaves a
    jump of 2 pi at the crossing instead, which Brent only closes in on by
    bisection.  So a search that has not finished after 4 steps restarts on
    the tightest sign change seen, with the other branch, and after 4 more
    with Im(h), on which Brent always finishes.
    """
    seen = {c0: h0, c1: h1}
    phases = abs(math.atan2(h0.imag, h0.real)) + abs(math.atan2(h1.imag, h1.real))
    s = 1.0 if phases <= math.pi else -1.0
    stages = (
        (lambda h: math.atan2(s * h.imag, s * h.real), 4),
        (lambda h: math.atan2(-s * h.imag, -s * h.real), 4),
        (lambda h: h.imag, math.inf),
    )
    for f, limit in stages:
        a, b = _tightest_sign_change(seen, f)
        steps = _brent_steps(a, f(seen[a]), b, f(seen[b]), CROSSING_XTOL)
        taken = 0
        try:
            x = next(steps)
            while taken < limit:
                if x not in seen:
                    seen[x] = yield x
                taken += 1
                x = steps.send(f(seen[x]))
        except StopIteration as stop:
            return stop.value, seen


def _lockstep_roots(brackets, holonomies_at) -> list:
    """The crossing searches (_crossing_steps) of every bracket (c0, h0,
    c1, h1), stepped together: holonomies_at(labels) returns the holonomies
    at a list of labels as one batch.  Each search takes exactly the steps
    it takes alone.  Returns (root, holonomies by label) per bracket.

    A lockstep step batches the next label x of each unfinished search with
    its probes x - PROBE and x + PROBE, those strictly inside the sampled
    bracket.  When a secant step lands within PROBE of the crossing, Brent's
    next step is the smallest one, to x +- PROBE, which confirms the sign
    change; the search reads it from the probes, so it ends in the same
    lockstep step.  A probe outside the bracket is never asked for, and a
    probe no search reads is work for nothing."""
    solved = [None] * len(brackets)
    known = [{} for _ in brackets]  # holonomies batched for each search
    sends = [(i, _crossing_steps(*bracket), None) for i, bracket in enumerate(brackets)]
    while True:
        asks = []
        for i, search, h in sends:
            try:
                x = search.send(h)
                while x in known[i]:  # a probe: a search asks no label twice
                    x = search.send(known[i][x])
            except StopIteration as stop:
                solved[i] = stop.value
                continue
            lo, hi = sorted((brackets[i][0], brackets[i][2]))
            asks.append((i, search, [x] + [
                p for p in (x - PROBE, x + PROBE)
                if lo < p < hi and p != x and p not in known[i]
            ]))
        if not asks:
            return solved
        values = iter(holonomies_at([x for _, _, labels in asks for x in labels]))
        sends = []
        for i, search, labels in asks:
            known[i].update((x, next(values)) for x in labels)
            sends.append((i, search, known[i][labels[0]]))


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
    root_steps: int  # lockstep holonomy batches of the searches
    root_probes: int  # probe holonomies of those batches that no search read
    transport_integrals: int  # label integrals computed
    transport_batches: int  # quadrature calls
    leaf_patterns: int  # membership patterns threaded
    transition_batches: int  # transition formulas evaluated by the holonomies

    @property
    def counters(self) -> dict:
        return {
            "root_brackets": self.root_brackets,
            "root_holonomy_evaluations": self.root_holonomy_evaluations,
            "root_steps": self.root_steps,
            "root_probes": self.root_probes,
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
    samples where Im(holonomy) changes sign brackets a crossing of the real
    axis, which Brent's method locates to 1e-12 in the label, on the branch
    of the phase that is continuous through it (_crossing_steps); it is a
    BS location when the holonomy there is +1, not -1.  On a periodic label window one
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
    makes at most one transport quadrature call and one transition call,
    one evaluator run per distinct transition formula.  All brackets are
    then searched together: each lockstep step threads the next label of every
    unfinished bracket, with its two probes (_lockstep_roots), and takes
    one holonomy batch again, while each bracket takes exactly the steps it
    takes alone.  A crossing that a secant step lands within PROBE of
    needs one lockstep step.
    """
    transport = LeafTransport(cover, pol)
    atlas = LeafAtlas(cover, pol)
    leaves = enumerate_leaves(atlas, crange, count)
    closed = [leaf for leaf in leaves if leaf.topology != "line"]
    hols = iter(holonomy(transport, closed))
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

    root_steps = root_labels = 0

    def holonomies_at(labels: list) -> list:
        nonlocal root_steps, root_labels
        root_steps += 1
        root_labels += len(labels)
        threaded = atlas.leaves(labels)
        return [h.holonomy for h in holonomy(transport, threaded)]

    # The holonomy is continuous in the label (the action is only defined
    # up to the threading, so it cannot choose the branch), so we root-solve
    # each sign change of Im(hol) on the phase branch its ends suggest and
    # keep the roots where the holonomy is +1 rather than -1.
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
    evaluations = sum(len(hols) - 2 for _, hols in solved)
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
        root_holonomy_evaluations=evaluations,
        root_steps=root_steps,
        root_probes=root_labels - evaluations,
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
