"""Trivialization covers and their local data.

A cover never materializes bundle sections: the pair (transitions lambda,
potentials theta) is the complete representation of the prequantum line
bundle.  Elements are coordinate rectangles, stored unrolled so that a
rectangle crossing a periodic seam keeps a single consistent branch of the
periodic coordinate; potentials attached to an element are always evaluated
in that unrolled frame.  Transition expressions must be well defined on the
manifold itself (periodic in the periodic coordinates), which every builtin
family satisfies.  A pullback cover (`pullback`) holds the pulled-back pair
as formulas too, so every accessor reads local data the same way.

The four accessors (transition, transition_dlog, potential, curvature)
take an element or a pair, or int arrays of one per point.  A cover
numbers its transition and its potential formulas by expression and
compiles each program once, on first use; a call runs each distinct
formula among its points once, on all of that formula's points, and
counts each run (formula_runs).

The nerve records every nonempty multi-overlap up to a degree its builder
chooses (MAX_DEGREE unless told otherwise, see docs/conventions.md
"Nerve"), one cell per connected component, as one table per degree
(NerveDegree): a row per cell in sorted key order, with its members,
box, per-member unrolling shifts, and faces as rows of the degree below.
It is the combinatorial carrier for the cochain complex, the consistency
checks, and the holonomy loop threading.  It depends only on the manifold
and the element boxes, so every constructor builds it from those
(build_nerve) before the cover, and hands the cover complete to that
degree: a cover, its local data and its nerve are frozen, their dicts and
arrays read-only, and the formulas a cover compiles on first use stay
valid.  The interior sample points of a degree, which only the law checks
read, are computed from its boxes when read (Nerve.samples), so a command
that reads none builds none.  A reader of degree-n cells refuses a nerve
that stops below n (require_degree).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import program, trace
from .geometry import (
    Box,
    Manifold,
    SymplecticForm,
    Symplectomorphism,
    as_points,
    eval_at,
    inset_grids,
)
from .record import Record, read_only

MAX_DEGREE = 3  # the default nerve: tuples up to 4 indices, cochain degrees 0..3


class ConfigurationError(ValueError):
    pass


class RefinementError(ValueError):
    pass


class LocalData(Record):
    """Transition functions and connection potentials as expressions.

    transitions holds both orientations of every overlapping pair;
    potentials holds the two 1-form components per element.  Both are
    read-only copies of the mappings given.
    """

    def __init__(self, transitions: Mapping, potentials: Mapping):
        transitions = MappingProxyType(dict(transitions))  # (a, b) -> Expr
        potentials = MappingProxyType(dict(potentials))  # a -> (Expr, Expr)
        self._set(locals())

    def transition_expr(self, a: int, b: int) -> ex.Expr:
        if a == b:
            return ex.ONE
        try:
            return self.transitions[(a, b)]
        except KeyError:
            raise ConfigurationError(f"no transition for pair ({a}, {b})") from None


class NerveDegree(NamedTuple):
    """The cells of one nerve degree d as read-only columns, one row per
    cell in sorted key order (docs/conventions.md "Nerve")."""

    keys: tuple  # (indices, comp) per cell, sorted
    members: np.ndarray  # (cells, d + 1): the element indices, increasing
    comps: np.ndarray  # (cells,): component number within the index tuple
    lo: np.ndarray  # (cells, 2): the box corners, in the first member's frame
    hi: np.ndarray
    shifts: np.ndarray  # (cells, d + 1, 2): per member, period multiples into its frame
    faces: np.ndarray  # (cells, d + 1): face j drops member j, a row of degree d - 1
    bases: np.ndarray  # (cells, d + 1, 2): face j's frame offset


class DegreeSamples(NamedTuple):
    """The samples of the cells of one nerve degree that have any."""

    keys: tuple  # the cells' keys, sorted
    sizes: np.ndarray  # samples per cell
    points: np.ndarray  # (points, 2): the samples, reduced, cell after cell
    # (points, degree + 1): the cell's members at each point; a degree of
    # one cell gives its one row, (degree + 1,), so accessors get scalars
    members: np.ndarray


class Nerve(Record):
    def __init__(self, degrees, pulled_by=()):
        degrees = tuple(degrees)  # the NerveDegree of each degree, 0 .. max_degree
        # the maps whose preimages the samples are, in the order they apply
        pulled_by = tuple(pulled_by)
        self._set(locals())

    @property
    def max_degree(self) -> int:
        return len(self.degrees) - 1

    def degree(self, n: int) -> NerveDegree:
        return self.degrees[n]

    def samples(self, n: int, manifold: Manifold) -> DegreeSamples:
        """The samples of the degree-n cells that have any, computed on
        read from the degree's boxes (_degree_samples), each map of
        pulled_by taking them to its preimages in one call, and all the
        points reduced in one call."""
        table = self.degrees[n]
        keys, members = table.keys, table.members
        if not keys:
            return DegreeSamples(keys, np.zeros(0, dtype=int), np.empty((0, 2)), members)
        points, sizes = _degree_samples(manifold, table.lo, table.hi, n)
        for phi in self.pulled_by:
            points = manifold.reduce(phi.apply_inverse(manifold.reduce(points)))
        if not sizes.all():  # the disk drops samples outside its domain
            kept = np.flatnonzero(sizes)
            keys = tuple(keys[r] for r in kept.tolist())
            sizes, members = sizes[kept], members[kept]
        points = manifold.reduce(points)
        members = members[0] if len(keys) == 1 else members.repeat(sizes, axis=0)
        return DegreeSamples(keys, sizes, points, members)

    def require_degree(self, n: int, reader: str) -> None:
        """Refuse a reader of degree-n cells when this nerve stops below n:
        it would find none and read that as an empty overlap."""
        if n > self.max_degree:
            raise ConfigurationError(
                f"{reader} reads degree-{n} nerve cells; this nerve stops at "
                f"degree {self.max_degree}"
            )

    def __len__(self):
        return sum(len(table.keys) for table in self.degrees)


# the outputs of the program of a formula, by the accessor that runs it
_PARTS = {"transition": 1, "dlog": 3, "potential": 2, "curvature": 2}


class TrivializationCover(Record):
    def __init__(
        self,
        manifold: Manifold,
        omega: SymplecticForm,
        elements: tuple,  # element a is the Box elements[a]
        data: LocalData,
        nerve: Nerve,  # build_nerve(manifold, elements)
    ):
        elements = tuple(elements)
        self._set(locals())

    # -- structure ---------------------------------------------------------

    def member_points(self, index, pts) -> np.ndarray:
        """Lift canonical points into the unrolled frame of element index,
        or of one element per point (an int array)."""
        lo, hi = self._element_boxes
        box = lo.take(index, axis=1), hi.take(index, axis=1)
        return self.manifold.lift_into(as_points(pts), box)

    # -- local data evaluation (canonical coordinate inputs) ----------------
    #
    # a and b are element indices, or int arrays of one per point, broadcast
    # against each other; each call runs _formula_values once.

    def transition(self, a, b, pts) -> np.ndarray:
        """lambda_ab at points; 1 where a == b."""
        return self._formula_values("transition", self.transition_formulas(a, b), pts)[0]

    def transition_dlog(self, a, b, pts) -> tuple:
        """(d lambda_ab / lambda_ab) components; branch free."""
        lam, d0, d1 = self._formula_values("dlog", self.transition_formulas(a, b), pts)
        return d0 / lam, d1 / lam

    def potential(self, a, pts) -> tuple:
        """theta_a components at canonical points, in element a's frame."""
        lifted = self.member_points(a, pts)
        outside = np.isnan(lifted).any(axis=1)
        if outside.any():
            a = np.broadcast_to(a, outside.shape)[outside][0]
            raise ConfigurationError(
                f"potential of element {a} requested outside the element"
            )
        return tuple(self._formula_values("potential", self._element_table[0][a], lifted))

    def curvature(self, a, pts) -> np.ndarray:
        """d(theta_a) coefficient (the dx^dy component) at canonical points."""
        lifted = self.member_points(a, pts)
        d0t1, d1t0 = self._formula_values("curvature", self._element_table[0][a], lifted)
        return d0t1 - d1t0

    def transition_formulas(self, a, b):
        """The number of the transition formula of each pair (a[i], b[i]),
        -1 where a[i] == b[i]; pairs with equal expressions share a number.
        A pair of distinct elements without a transition raises."""
        form = self._pair_table[0][a, b]
        missing = form == -2
        if missing.any():
            a, b = (np.broadcast_to(v, form.shape)[missing][0] for v in (a, b))
            raise ConfigurationError(f"no transition for pair ({a}, {b})")
        return form

    def _formula_values(self, kind: str, form, pts: np.ndarray) -> np.ndarray:
        """The parts of kind (_PARTS) at pts by formula, (parts, n): form is
        one formula number or one per point.  Each distinct formula runs
        once, on its own points, and counts one formula_runs; a call of one
        formula gathers and scatters none.  Formula -1, an element's
        transition to itself, runs nothing: its parts are 1 and then 0s,
        those of the constant 1."""
        form, pts = np.asarray(form), as_points(pts)
        if form.ndim == 0 and form >= 0:  # one formula: nothing to group
            counts, present = [0], [int(form)]
        else:
            counts = np.bincount(form.ravel() + 1).tolist()  # points per formula, -1 first
            present = [f for f, k in enumerate(counts[1:]) if k]  # the formulas to run
        trace.count("formula_runs", len(present))
        coords = self.manifold.coords
        if len(present) == 1 and not counts[0]:
            return eval_at(self._program(kind, present[0]), coords, pts)
        out = np.zeros((_PARTS[kind], len(pts)), dtype=np.complex128)
        out[0] = 1.0
        if present:
            order = np.argsort(form, kind="stable")  # the points, by formula
            ends = np.cumsum(counts).tolist()
            for f in present:
                rows = order[ends[f] : ends[f + 1]]
                out[:, rows] = eval_at(self._program(kind, f), coords, pts[rows])
        return out

    def _program(self, kind: str, f: int):
        """The program of formula f for kind (_PARTS): transition formula f
        for "transition" and "dlog", potential formula f for "potential"
        and "curvature".  It is compiled on first use and stays valid, as
        the formulas of a cover never change."""
        prog = self._programs.get((kind, f))
        if prog is None:
            c = self.manifold.coords
            if kind in ("transition", "dlog"):
                lam = self._pair_table[1][f]
                parts = (lam,) if kind == "transition" else (
                    lam, ex.differentiate(lam, c[0]), ex.differentiate(lam, c[1]))
            else:
                t0, t1 = self._element_table[1][f]
                parts = (t0, t1) if kind == "potential" else (
                    ex.differentiate(t1, c[0]), ex.differentiate(t0, c[1]))
            prog = self._programs[(kind, f)] = program.compile_expr(parts, c)
        return prog

    @cached_property
    def _programs(self) -> dict:
        return {}  # (kind, formula number) -> program

    @cached_property
    def _pair_table(self) -> tuple:
        """(elements x elements transition formula numbers, the formulas):
        -1 on the diagonal, -2 for a pair without a transition; pairs with
        equal expressions share a number."""
        n = len(self.elements)
        form = np.full((n, n), -2)
        form.flat[:: n + 1] = -1
        numbers: dict = {}  # expression -> formula number
        for (a, b), lam in self.data.transitions.items():
            if a != b:
                form[a, b] = numbers.setdefault(lam, len(numbers))
        return form, tuple(numbers)

    @cached_property
    def _element_table(self) -> tuple:
        """(potential formula number per element, the formulas); elements
        with equal potentials share a number."""
        numbers: dict = {}  # (theta_0, theta_1) -> formula number
        form = np.array(
            [numbers.setdefault(self.data.potentials[a], len(numbers))
             for a in range(len(self.elements))]
        )
        return form, tuple(numbers)

    @cached_property
    def _element_boxes(self) -> np.ndarray:
        """The element boxes' lo and hi corners, (2, 2, elements):
        member_points takes the columns of one element, or of one per point."""
        return np.array(self.elements, dtype=float).transpose(1, 2, 0)


def _shift_vector(phi: Symplectomorphism, manifold: Manifold) -> np.ndarray | None:
    """Constant translation vector of phi, if it is one."""
    pts = manifold.window.grid(3)
    diff = phi.apply(pts) - pts
    if np.max(np.abs(diff - diff[0])) < 1e-12:
        return diff[0]
    return None


def pullback(cover: TrivializationCover, phi: Symplectomorphism) -> TrivializationCover:
    """The cover phi^* cover, with the pulled-back local data as formulas.

    Transitions become lambda o phi and potentials (theta o phi) . Dphi,
    composed once by substitution (docs/conventions.md, "Pullback").  An
    element is its source box moved by -s when phi is a translation by s,
    and otherwise the source box, though the element is phi^-1 of that box
    (which is why refine refuses a pullback cover).  The nerve keeps the
    source tables, and its samples are the phi-preimages of the source
    samples (Nerve.pulled_by).
    """
    manifold = cover.manifold
    shift = _shift_vector(phi, manifold)
    elements = cover.elements
    if shift is not None:
        elements = [box.shifted(tuple(-shift)) for box in elements]
    source = cover.nerve
    nerve = Nerve(source.degrees, source.pulled_by + (phi,))
    up = dict(zip(manifold.coords, phi.forward))
    jac = phi.jacobian_exprs()

    def pulled_form(theta):
        t0, t1 = (ex.substitute(t, up) for t in theta)
        return tuple(
            ex.add(ex.mul(t0, jac[0][j]), ex.mul(t1, jac[1][j])) for j in range(2)
        )

    data = LocalData(
        transitions={
            pair: ex.substitute(lam, up) for pair, lam in cover.data.transitions.items()
        },
        potentials={a: pulled_form(theta) for a, theta in cover.data.potentials.items()},
    )
    return TrivializationCover(
        manifold=manifold,
        omega=cover.omega,
        elements=elements,
        data=data,
        nerve=nerve,
    )


# ---------------------------------------------------------------------------
# Nerve construction


def _shift_candidates(manifold: Manifold):
    cands = []
    for period in manifold.periods:
        cands.append((0,) if period is None else (-1, 0, 1))
    return [(s0, s1) for s0 in cands[0] for s1 in cands[1]]


def _period_vec(manifold: Manifold) -> np.ndarray:
    return np.array([p if p is not None else 0.0 for p in manifold.periods])


def _degree_samples(manifold: Manifold, lo: np.ndarray, hi: np.ndarray,
                    degree: int) -> tuple:
    """Interior sample grid of each box (rows of lo, hi) of one degree, as
    (points, sizes): the inset_grids of n points per axis, fewer the
    higher the degree, box after box; points outside the domain (the
    disk) are dropped.
    """
    n = max(3, 10 - 2 * degree)
    points = inset_grids(lo, hi, n).reshape(-1, 2)
    if manifold.disk_radius is None:
        return points, np.full(len(lo), n * n)
    keep = manifold.in_domain(manifold.reduce(points))
    return points[keep], keep.reshape(len(lo), n * n).sum(axis=1)


def _degree_table(members, comps, lo, hi, shifts, faces, bases) -> NerveDegree:
    """The read-only NerveDegree of sorted columns, with its keys.  A face
    missing from faces (-1) raises: the nerve would not be closed under
    faces."""
    keys = tuple(zip(map(tuple, members.tolist()), comps.tolist()))
    if (faces < 0).any():
        missing = np.flatnonzero((faces < 0).any(axis=1))[0]
        raise ConfigurationError(f"nerve not closed under faces at {keys[missing]}")
    return NerveDegree(keys, *read_only(members, comps, lo, hi, shifts, faces, bases))


@lru_cache(maxsize=None)
def _empty_degree(degree: int) -> NerveDegree:
    """The table of a degree without cells; read-only, so nerves share it."""
    ints = np.empty((0, degree + 1), dtype=int)
    return NerveDegree((), *read_only(
        ints, np.empty(0, dtype=int), np.empty((0, 2)), np.empty((0, 2)),
        np.empty((0, degree + 1, 2), dtype=int), ints, np.empty((0, degree + 1, 2), dtype=int),
    ))


# a shift vector, of components -2 .. 2 (a candidate shift minus another),
# read as two base-5 digits: dot(shift + 2, _DIGITS) is 0 .. 24
_DIGITS = np.array([5, 1])


def _nonempty(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each box (lo, hi: (..., 2)) is at least 1e-9 wide on both
    axes."""
    width = hi - lo
    return ~((width[..., 0] < 1e-9) | (width[..., 1] < 1e-9))


def _lookup(codes: np.ndarray, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """rows[i] where codes[i] (ascending) equals the query, -1 where no
    code does."""
    at = np.minimum(np.searchsorted(codes, query), len(codes) - 1)
    return np.where(codes[at] == query, rows[at], -1)


def build_nerve(manifold: Manifold, elements, max_degree: int = MAX_DEGREE) -> Nerve:
    """Enumerate the multi-overlap components of the element boxes on the
    manifold, up to degree max_degree (tuples of max_degree + 1 indices),
    as one NerveDegree table per degree, in sorted key order.

    Degree 1 intersects every element with every element of higher index
    under every period shift (_shift_candidates) in one broadcast; overlaps
    narrower than 1e-9 on either axis are empty.  From degree 2 on, a
    cell of the degree below (its parent) lies inside its first member's
    box, so it meets no (element, shift) pair that box does not: its
    candidates are the degree-1 overlaps of its first member with
    elements above its last member, all intersected in one gather.  The
    survivors are registered in (parent row, element, shift) order, and
    the k-th cell on an index tuple gets comp k.  Face d of a cell grown
    from parent f is f, and face j < d is the cell grown from face j of f
    with the same element and the shift minus that face's base: one
    lookup per degree of the codes (parent row, element, shift) of the
    degree below, -1 where a face is missing (_degree_table raises).
    Degrees past the first one without cells are empty tables.  See
    docs/conventions.md "Nerve".
    """
    cands = np.array(_shift_candidates(manifold))  # (shifts, 2)
    offsets = -cands * _period_vec(manifold)
    n_el = len(elements)  # element a is the degree-0 row a
    per_parent = 25 * n_el  # the codes of one parent: (element, shift) pairs
    lo = np.array([box.lo for box in elements], dtype=float).reshape(-1, 2)
    hi = np.array([box.hi for box in elements], dtype=float).reshape(-1, 2)
    table = _degree_table(
        np.arange(n_el)[:, None], np.zeros(n_el, dtype=int), lo, hi,
        np.zeros((n_el, 1, 2), dtype=int), np.empty((n_el, 0), dtype=int),
        np.empty((n_el, 0, 2), dtype=int),
    )
    degrees = [table]
    last = np.arange(n_el)  # the element position of each cell's last member
    for degree in range(1, max_degree + 1):
        if degree == 1:
            # every element box under every shift, (elements, shifts, 2),
            # against every element box: (element, element, shift, axis)
            new_lo = np.maximum(lo[:, None, None, :], lo[:, None, :] + offsets)
            new_hi = np.minimum(hi[:, None, None, :], hi[:, None, :] + offsets)
            keep = _nonempty(new_lo, new_hi) & (last > last[:, None])[:, :, None]
            f, e, s = keep.nonzero()
            lo, hi = new_lo[f, e, s], new_hi[f, e, s]
            shift = cands[s]
            pair_code = e * 25 + (shift + 2) @ _DIGITS  # within the parent's codes
            # the overlaps of each element with the elements above it, as
            # rows of degree 1, in order, padded with -1
            n_pairs = np.bincount(f, minlength=n_el)
            slot = np.arange(len(f)) - (np.cumsum(n_pairs) - n_pairs)[f]
            pairs = np.full((n_el, n_pairs.max(initial=0)), -1)
            pairs[f, slot] = np.arange(len(f))
            pair_e, pair_lo, pair_hi = e[pairs], lo[pairs], hi[pairs]
            pair_e[pairs < 0] = -1  # above no member
            pair_codes, pair_shifts, first = pair_code, shift, f
        else:
            # the candidates of each parent: its first member's overlaps
            # with elements above its last member, in one gather
            e = pair_e[first]  # (parents, pairs)
            new_lo = np.maximum(lo[:, None, :], pair_lo[first])
            new_hi = np.minimum(hi[:, None, :], pair_hi[first])
            keep = _nonempty(new_lo, new_hi) & (e > last[:, None])
            f, k = keep.nonzero()
            e, lo, hi = e[f, k], new_lo[f, k], new_hi[f, k]
            pair = pairs[first[f], k]
            pair_code, shift, first = pair_codes[pair], pair_shifts[pair], first[f]
        if not len(f):
            break
        codes = f * per_parent + pair_code  # ascending: registration order
        rows = np.arange(len(f))
        members = np.concatenate([table.members[f], e[:, None]], axis=1)
        if table.comps.any():
            # parents sharing an index tuple interleave their children:
            # sort by index tuple, stably, as the keys sort
            order = np.lexsort(members.T[::-1])
            rows[order] = rows.copy()
            f, e, lo, hi, members = f[order], e[order], lo[order], hi[order], members[order]
            pair_code, shift, first = pair_code[order], shift[order], first[order]
        comps = np.zeros(len(f), dtype=int)
        repeated = (members[1:] == members[:-1]).all(axis=1)  # the row above's tuple
        if repeated.any():
            new = np.concatenate([[True], ~repeated])  # the first row of a tuple
            comps = np.arange(len(f)) - np.flatnonzero(new)[np.cumsum(new) - 1]
        shifts = np.concatenate([table.shifts[f], shift[:, None, :]], axis=1)
        bases = np.zeros_like(shifts)
        bases[:, 0] = shifts[:, 1]
        if degree == 1:  # face 0 is the element's own cell, face 1 the parent
            faces = np.stack([e, f], axis=1)
        else:
            faces = np.empty((len(f), degree + 1), dtype=int)
            faces[:, :-1] = _lookup(lookup[0], lookup[1], face_codes[f] + pair_code[:, None])
            faces[:, -1] = f
        table = _degree_table(members, comps, lo, hi, shifts, faces, bases)
        degrees.append(table)
        # the code of face j's children: its row, and the shift less its base
        face_codes = faces * per_parent - bases @ _DIGITS
        lookup, last = (codes, rows), e
    degrees += [_empty_degree(d) for d in range(len(degrees), max_degree + 1)]
    return Nerve(degrees)


# ---------------------------------------------------------------------------
# Consistency checks


class LocalDataReport(NamedTuple):
    # the largest residual of each law, <law>_max: these fields are the laws
    cocycle_max: float
    inverse_max: float
    curvature_max: float
    compatibility_max: float
    tol: float
    cells_checked: int

    @property
    def passed(self) -> bool:
        """Whether every law residual is below tol; a NaN one fails."""
        return all(value < self.tol for name, value in self._asdict().items()
                   if name.endswith("_max"))

    def as_dict(self) -> dict:
        return {**self._asdict(), "pass": self.passed}


def check_local_data(cover: TrivializationCover, tol: float = 1e-8) -> LocalDataReport:
    """Verify every law the bundle imposes on (lambda, theta).

    Checks, each as a max residual over nerve cell samples: the cocycle law
    on triple overlaps, lambda_ab lambda_ba = 1 on pairs, d theta_a = omega
    on each element (exact symbolic exterior derivative), and the
    compatibility theta_a - theta_b = -i dlambda_ab / lambda_ab.  The
    cocycle law needs the nerve's degree-2 cells; cells of higher degree
    carry no law and are not counted.

    Each law reads the samples of its degree (Nerve.samples) and makes one
    accessor call per term on all of them, which runs each distinct formula
    among the term's cells once.  The maximum over all cells is the maximum
    of the per-cell maxima, so every residual is the one a cell-by-cell
    check gives.  The omega run counts one formula_runs, as an accessor's
    runs do.
    """
    if len(cover.nerve) == 0:
        raise ConfigurationError("cover has an empty nerve")
    cover.nerve.require_degree(2, "check_local_data")
    manifold = cover.manifold
    s0, s1, s2 = (cover.nerve.samples(n, manifold) for n in range(3))
    # a residual per law, LocalDataReport's <law>_max; 0 for a law without cells
    resid = {name: np.zeros(1) for name in LocalDataReport._fields if name.endswith("_max")}
    if s0.keys:  # d theta_a = omega on each element; omega runs once
        (a,), pts = s0.members.T, s0.points
        omega = cover.omega.eval(manifold, pts)
        trace.count("formula_runs")
        resid["curvature_max"] = np.abs(cover.curvature(a, pts) - omega)
    if s1.keys:  # lambda_ab lambda_ba = 1, and the compatibility
        (a, b), pts = s1.members.T, s1.points
        inverse = cover.transition(a, b, pts) * cover.transition(b, a, pts)
        resid["inverse_max"] = np.abs(inverse - 1.0)
        ta, tb = cover.potential(a, pts), cover.potential(b, pts)
        dlog = cover.transition_dlog(a, b, pts)
        resid["compatibility_max"] = np.abs(np.subtract(ta, tb) + 1j * np.array(dlog))
    if s2.keys:  # the cocycle law
        (a, b, c), pts = s2.members.T, s2.points
        resid["cocycle_max"] = np.abs(
            cover.transition(a, b, pts) * cover.transition(b, c, pts) - cover.transition(a, c, pts)
        )
    return LocalDataReport(
        # np.max keeps a NaN (Python's max drops it): a residual with no
        # value fails
        **{law: float(values.max()) for law, values in resid.items()},
        tol=tol,
        cells_checked=len(s0.keys) + len(s1.keys) + len(s2.keys),
    )


# ---------------------------------------------------------------------------
# Refinement


def refine(cover: TrivializationCover, targets: list) -> tuple:
    """Restricted refinement: fine data is the coarse data through the map.

    targets is a list of Boxes, each of which must fit inside some element
    of the source cover, possibly after a period shift; the stored fine box
    is then expressed in the containing coarse element's frame so that
    potentials keep their branch.  The fine nerve goes as deep as the
    coarse one, and at least to degree 1, whose cells give the fine
    transitions.  Returns the fine cover and the read-only assignment fine
    index -> coarse index.  A pullback cover (Nerve.pulled_by) is refused.
    """
    if cover.nerve.pulled_by:
        raise RefinementError("refine operates on base covers")
    manifold = cover.manifold
    periods = _period_vec(manifold)
    shift_cands = _shift_candidates(manifold)
    fine_elements = []
    assignment = {}
    for fine_index, box in enumerate(targets):
        # the first source element that holds the box shifted by whole periods
        fits = (
            (a, shifted)
            for a, coarse in enumerate(cover.elements)
            for shifted in (box.shifted((s[0] * periods[0], s[1] * periods[1]))
                            for s in shift_cands)
            if all(shifted.lo[i] >= coarse.lo[i] - 1e-12
                   and shifted.hi[i] <= coarse.hi[i] + 1e-12 for i in range(2))
        )
        a, shifted = next(fits, (None, None))
        if a is None:
            raise RefinementError(
                f"target element {fine_index} with box {box} fits in no source element"
            )
        fine_elements.append(shifted)
        assignment[fine_index] = a

    nerve = build_nerve(manifold, fine_elements, max(1, cover.nerve.max_degree))
    transitions = {}
    for a, b in nerve.degree(1).members.tolist():
        ca, cb = assignment[a], assignment[b]
        transitions[(a, b)] = cover.data.transition_expr(ca, cb)
        transitions[(b, a)] = cover.data.transition_expr(cb, ca)
    potentials = {a: cover.data.potentials[c] for a, c in assignment.items()}
    fine = TrivializationCover(
        manifold=manifold,
        omega=cover.omega,
        elements=fine_elements,
        data=LocalData(transitions, potentials),
        nerve=nerve,
    )
    return fine, MappingProxyType(assignment)


def split_boxes(cover: TrivializationCover):
    """Quadrant subdivision targets for a one-step refinement: each box
    halved on each axis, halves padded by min(0.25, an eighth of the box)."""
    targets = []
    for box in cover.elements:
        edges = [np.linspace(box.lo[a], box.hi[a], 3) for a in range(2)]
        pads = [min(0.25, 0.125 * (box.hi[a] - box.lo[a])) for a in range(2)]
        for ix in range(2):
            for iy in range(2):
                lo = (max(box.lo[0], edges[0][ix] - pads[0]),
                      max(box.lo[1], edges[1][iy] - pads[1]))
                hi = (min(box.hi[0], edges[0][ix + 1] + pads[0]),
                      min(box.hi[1], edges[1][iy + 1] + pads[1]))
                targets.append(Box(lo, hi))
    return targets

