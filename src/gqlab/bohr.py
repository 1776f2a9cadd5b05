"""Leaf enumeration, holonomy, and the Bohr-Sommerfeld census.

A circle leaf is threaded through the cover as a chain of element segments
with switch points in consecutive double overlaps; its holonomy is the
product of segment transport factors exp(-i integral theta) and transition
values at the switches.  A leaf is Bohr-Sommerfeld exactly when that
product is 1, i.e. when the accumulated action lands in 2 pi Z.  The census
locates BS leaves by root-solving Im(holonomy) between sampled sign
changes, so BS values need not be hit by the sample grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Polarization
from .prequantum import ConfigurationError, TrivializationCover
from .transport import LeafTransport

TWO_PI = 2.0 * math.pi


class CoverageError(ValueError):
    pass


class HolonomyUndefinedError(ValueError):
    pass


@dataclass(frozen=True)
class LeafSegment:
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


def _axis_candidates(cover, pol, c: float):
    """(element, t-interval, c lifted into the element frame) per crossing."""
    out = []
    manifold = cover.manifold
    la, ta = pol.label_axis, pol.leaf_axis
    period_label = manifold.periods[la]
    for el in cover.elements:
        lo, hi = el.box.interval(la)
        c_lift = c
        if period_label is not None:
            mid = 0.5 * (lo + hi)
            c_lift = c + period_label * round((mid - c) / period_label)
        if lo + 1e-9 < c_lift < hi - 1e-9:
            t0, t1 = el.box.interval(ta)
            out.append((el.index, t0, t1, c_lift))
    return out


def _thread_circle(cover, pol, c: float) -> Leaf:
    period = pol.leaf_period
    cands = _axis_candidates(cover, pol, c) if pol.kind == "axis" else None
    if pol.kind == "radial":
        cands = []
        for el in cover.elements:
            half = min(el.box.hi[0], el.box.hi[1], -el.box.lo[0], -el.box.lo[1])
            if 0.0 < c < 0.5 * half * half:
                cands.append((el.index, 0.0, TWO_PI, c))
    if not cands:
        raise CoverageError(f"leaf {c} crosses no cover element")

    # Whole-circle elements carry the leaf in one segment.
    for idx, t0, t1, c_elem in cands:
        if t1 - t0 >= period - 1e-9:
            start = t0 + 0.5 * ((t1 - t0) - period)
            seg = LeafSegment(idx, start, start + period, c_elem)
            return Leaf(c, "circle", (seg,), np.empty((0, 2)))

    # Greedy interval chain around the circle in the unwrapped parameter:
    # placements carry (walk start, walk end, element, frame offset, label)
    # with element-frame t = walk t + offset.
    items = []
    for idx, t0, t1, c_elem in cands:
        a = math.fmod(t0, period)
        if a < 0:
            a += period
        items.append((a, a + (t1 - t0), idx, t0 - a, c_elem))
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
        _, _, idx, off, c_elem = placement
        segments.append(LeafSegment(idx, u_prev + off, u_next + off, c_elem))
        u_prev = u_next
    base = pol.root
    switch_pts = cover.manifold.reduce(base.curve_points(c, np.array(switches)))
    return Leaf(c, "circle", tuple(segments), switch_pts)


def _thread_line(cover, pol, c: float) -> Leaf:
    cands = _axis_candidates(cover, pol, c)
    if not cands:
        raise CoverageError(f"leaf {c} crosses no cover element")
    lo = min(t0 for _, t0, _, _ in cands)
    cands.sort(key=lambda r: (r[1], r[0]))
    segments = []
    switches = []
    idx, t0, t1, c_elem = cands[0]
    cur_end = t1
    cur = (idx, t0, c_elem)
    for nidx, n0, n1, nc in cands[1:]:
        if n0 >= cur_end - 1e-12:
            raise CoverageError(f"cover leaves a gap on the line leaf {c}")
        if n1 <= cur_end:
            continue
        switch = 0.5 * (n0 + cur_end)
        segments.append(LeafSegment(cur[0], cur[1], switch, cur[2]))
        switches.append(switch)
        cur = (nidx, switch, nc)
        cur_end = n1
    segments.append(LeafSegment(cur[0], cur[1], cur_end, cur[2]))
    base = pol.root
    return Leaf(c, "line", tuple(segments), base.curve_points(c, np.array(switches)))


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
) -> list:
    """Leaves at `count` fiber-map values in crange, plus declared singular
    points as point leaves."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    lo, hi = crange
    if cover.pullback_of is not None:
        src, phi_map = cover.pullback_of
        up = enumerate_leaves(src, pol.base, crange, count, include_singular)
        out = []
        for leaf in up:
            switch = (
                cover.manifold.reduce(phi_map.apply_inverse(leaf.switch_points))
                if len(leaf.switch_points)
                else leaf.switch_points
            )
            point = (
                tuple(phi_map.apply_inverse(np.array([leaf.point]))[0])
                if leaf.point is not None
                else None
            )
            out.append(
                Leaf(leaf.label, leaf.topology, leaf.segments, switch,
                     leaf.singular, point)
            )
        return out
    if _spans_a_period(pol, lo, hi):
        values = lo + (hi - lo) * np.arange(count) / count
    else:
        values = np.linspace(lo, hi, count) if count > 1 else np.array([lo])
    singular_labels = pol.label_of(np.array(pol.singular_points)) if (
        pol.singular_points
    ) else np.array([])
    leaves = []
    for c in values:
        if len(singular_labels) and np.min(np.abs(singular_labels - c)) < 1e-9:
            continue  # the point leaf below represents this label
        if pol.leaf_period is None:
            leaves.append(_thread_line(cover, pol, float(c)))
        else:
            leaves.append(_thread_circle(cover, pol, float(c)))
    if include_singular:
        # Declared singular points always join the census as point leaves.
        for p, c in zip(pol.singular_points, singular_labels):
            leaves.append(
                Leaf(
                    label=float(c),
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
    leaf: Leaf,
    transport: LeafTransport | None = None,
) -> HolonomyResult:
    """Parallel transport around a closed leaf.

    The convention matches the cochain transport: a value f in the alpha
    trivialization becomes lambda_{alpha beta} f in the beta trivialization,
    and moving along the leaf multiplies by exp(-i integral theta).
    """
    if leaf.topology == "line":
        raise HolonomyUndefinedError(
            "holonomy is undefined for noncompact (line) leaves"
        )
    if leaf.topology == "point":
        return HolonomyResult(1.0 + 0.0j, 0.0, 0.0, 0, 0.0)
    if transport is None:
        transport = LeafTransport(cover, pol)
    action = 0.0
    hol = 1.0 + 0.0j
    for seg in leaf.segments:
        val = transport.integral(seg.element, seg.c_elem, seg.t0, seg.t1)
        action += val.real
        hol *= np.exp(-1j * val)
    nseg = len(leaf.segments)
    for j in range(len(leaf.switch_points)):
        a = leaf.segments[j].element
        b = leaf.segments[(j + 1) % nseg].element
        lam = cover.transition(a, b, leaf.switch_points[j])[0]
        hol *= lam
        action -= math.atan2(lam.imag, lam.real)
    phase = math.atan2(hol.imag, hol.real)
    nearest = int(round(action / TWO_PI))
    return HolonomyResult(
        holonomy=complex(hol),
        phase=phase,
        action=action,
        nearest_multiple=nearest,
        residual=action - TWO_PI * nearest,
    )


def _prefetch(transport: LeafTransport, leaves) -> None:
    """Compute the segment integrals of leaves into the transport cache,
    one array call to transport.integral per distinct (element, t0, t1),
    so that holonomy then finds every integral it needs there."""
    groups: dict = {}
    for leaf in leaves:
        for seg in leaf.segments:
            groups.setdefault((seg.element, seg.t0, seg.t1), {})[seg.c_elem] = None
    for (element, t0, t1), labels in groups.items():
        transport.integral(element, np.array(list(labels)), t0, t1)


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
    transport: LeafTransport | None = None,
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

    The sampled leaves share one transport sweep per leaf segment
    (element, t0, t1).  All brackets are then searched together: each
    lockstep step threads the next label of every unfinished bracket and
    shares one sweep per segment again, while each bracket takes exactly
    the Brent steps it takes alone.  `transport` is a LeafTransport of
    this cover and polarization to fill and reuse; a new one by default.
    """
    if transport is None:
        transport = LeafTransport(cover, pol)
    elif transport.cover is not cover or transport.polarization is not pol:
        raise ConfigurationError("transport is for another cover or polarization")
    integrals0, batches0 = transport.integrals_computed, transport.batches
    leaves = enumerate_leaves(cover, pol, crange, count)
    _prefetch(transport, [leaf for leaf in leaves if leaf.topology != "line"])
    entries = []
    sampled: list = []
    lines = 0
    singular_bs = 0
    for leaf in leaves:
        if leaf.topology == "line":
            lines += 1
            entries.append(BSEntry(leaf, None, include_lines))
            continue
        hres = holonomy(cover, pol, leaf, transport)
        is_bs = abs(hres.phase) < tol
        if leaf.topology == "point":
            singular_bs += 1
        else:
            sampled.append((leaf.label, hres.holonomy))
        entries.append(BSEntry(leaf, hres, is_bs))

    def holonomies_at(labels: list) -> list:
        if cover.pullback_of is not None:
            threaded = [
                enumerate_leaves(cover, pol, (c, c), 1, include_singular=False)[0]
                for c in labels
            ]
        else:
            threaded = [_thread_circle(cover, pol, c) for c in labels]
        _prefetch(transport, threaded)
        return [holonomy(cover, pol, leaf, transport).holonomy for leaf in threaded]

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
        transport_integrals=transport.integrals_computed - integrals0,
        transport_batches=transport.batches - batches0,
    )


def lattice_count(lo: float, hi: float, tol: float = 1e-9) -> int:
    """Number of integer points in the closed interval [lo, hi]."""
    if hi < lo:
        return 0
    first = math.ceil(lo - tol)
    last = math.floor(hi + tol)
    return max(0, last - first + 1)
