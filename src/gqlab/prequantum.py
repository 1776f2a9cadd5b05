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
formula among its points once, on all of that formula's points.

The nerve records every nonempty multi-overlap up to a degree its builder
chooses (MAX_DEGREE unless told otherwise, see docs/conventions.md
"Nerve"), one cell per connected component, with interior sample points,
per-member unrolling shifts, and face links; this is the combinatorial
carrier for the cochain complex, the consistency checks, and the holonomy
loop threading.  It depends only on the manifold and the element boxes, so
every constructor builds it from those (build_nerve) before the cover, and
hands the cover complete to that degree: a cover, its local data and its
nerve are frozen, their dicts read-only, and the formulas a cover compiles
on first use stay valid.  A reader of degree-n cells refuses a nerve that
stops below n (require_degree).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import program
from .geometry import (
    Box,
    Manifold,
    SymplecticForm,
    Symplectomorphism,
    as_points,
    eval_at,
    inset_grids,
)
from .record import Record

MAX_DEGREE = 3  # the default nerve: tuples up to 4 indices, cochain degrees 0..3


class ConfigurationError(ValueError):
    pass


class RefinementError(ValueError):
    pass


class CoverElement(NamedTuple):
    index: int
    box: Box
    contractible: bool


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


class NerveCell(NamedTuple):
    indices: tuple  # strictly increasing element indices
    comp: int  # component number within this index tuple
    box: Box  # in the frame of the first member
    shifts: tuple  # per member: integer period multiples into its frame
    samples: np.ndarray  # interior points, cell frame

    @property
    def key(self):
        return (self.indices, self.comp)

    @property
    def degree(self) -> int:
        return len(self.indices) - 1


class DegreeSamples(NamedTuple):
    """The samples of the cells of one nerve degree that have any."""

    keys: list  # the cells' keys, sorted
    sizes: np.ndarray  # samples per cell
    points: np.ndarray  # (points, 2): the samples, reduced, cell after cell
    # (points, degree + 1): the cell's members at each point; a degree of
    # one cell gives its one row, (degree + 1,), so accessors get scalars
    members: np.ndarray


class Nerve(Record):
    def __init__(self, cells: Mapping, faces: Mapping, max_degree: int):
        cells = MappingProxyType(dict(cells))  # key -> NerveCell
        # key -> tuple of (face key, frame offset (int, int))
        faces = MappingProxyType(dict(faces))
        self._set(locals())

    def degree(self, n: int):
        return [c for c in self.cells.values() if c.degree == n]

    def samples(self, n: int, manifold: Manifold) -> DegreeSamples:
        """The samples of the degree-n cells that have any, as arrays: one
        pass over the nerve, and one reduce call for all the points."""
        listed = sorted(
            (key, cell.samples) for key, cell in self.cells.items()
            if len(key[0]) == n + 1 and len(cell.samples)
        )
        keys = [key for key, _ in listed]
        if not keys:
            members = np.empty((0, n + 1), dtype=int)
            return DegreeSamples(keys, members[:, 0], np.empty((0, 2)), members)
        sizes = np.array([len(pts) for _, pts in listed])
        points = manifold.reduce(np.concatenate([pts for _, pts in listed]))
        members = np.array([key[0] for key in keys])
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
        return len(self.cells)


# the outputs of the program of a formula, by the accessor that runs it
_PARTS = {"transition": 1, "dlog": 3, "potential": 2, "curvature": 2}


class TrivializationCover(Record):
    def __init__(
        self,
        manifold: Manifold,
        omega: SymplecticForm,
        elements: tuple,
        data: LocalData,
        nerve: Nerve,  # build_nerve(manifold, elements)
        pullback_of: tuple | None = None,  # (source cover, map), for refine's guard
    ):
        elements = tuple(elements)
        self._set(locals())

    # -- structure ---------------------------------------------------------

    def member_points(self, index, pts) -> np.ndarray:
        """Lift canonical points into the unrolled frame of element index,
        or of one element per point (an int array)."""
        if np.ndim(index) == 0:
            return self.manifold.lift_into(as_points(pts), self.elements[index].box)
        lo, hi = self._element_boxes
        box = lo.take(index, axis=1), hi.take(index, axis=1)
        return self.manifold.lift_into(as_points(pts), box)

    # -- local data evaluation (canonical coordinate inputs) ----------------
    #
    # a and b are element indices, or int arrays of one per point, broadcast
    # against each other; each call runs _formula_values once, which appends
    # the number of formulas it ran to runs when one is given.

    def transition(self, a, b, pts, runs: list | None = None) -> np.ndarray:
        """lambda_ab at points; 1 where a == b."""
        return self._formula_values("transition", self.transition_formulas(a, b), pts, runs)[0]

    def transition_dlog(self, a, b, pts, runs: list | None = None) -> tuple:
        """(d lambda_ab / lambda_ab) components; branch free."""
        lam, d0, d1 = self._formula_values("dlog", self.transition_formulas(a, b), pts, runs)
        return d0 / lam, d1 / lam

    def potential(self, a, pts, runs: list | None = None) -> tuple:
        """theta_a components at canonical points, in element a's frame."""
        lifted = self.member_points(a, pts)
        outside = np.isnan(lifted).any(axis=1)
        if outside.any():
            a = np.broadcast_to(a, outside.shape)[outside][0]
            raise ConfigurationError(
                f"potential of element {a} requested outside the element"
            )
        return tuple(self._formula_values("potential", self._element_table[0][a], lifted, runs))

    def curvature(self, a, pts, runs: list | None = None) -> np.ndarray:
        """d(theta_a) coefficient (the dx^dy component) at canonical points."""
        lifted = self.member_points(a, pts)
        d0t1, d1t0 = self._formula_values("curvature", self._element_table[0][a], lifted, runs)
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

    def _formula_values(self, kind: str, form, pts: np.ndarray, runs) -> np.ndarray:
        """The parts of kind (_PARTS) at pts by formula, (parts, n): form is
        one formula number or one per point.  Each distinct formula runs
        once, on its own points; a call of one formula gathers and scatters
        none.  Formula -1, an element's transition to itself, runs nothing:
        its parts are 1 and then 0s, those of the constant 1.  runs, a list
        or None, gains the number of formulas run."""
        form, pts = np.asarray(form), as_points(pts)
        if form.ndim == 0 and form >= 0:  # one formula: nothing to group
            counts, present = [0], [int(form)]
        else:
            counts = np.bincount(form.ravel() + 1).tolist()  # points per formula, -1 first
            present = [f for f, k in enumerate(counts[1:]) if k]  # the formulas to run
        if runs is not None:
            runs.append(len(present))
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
            [numbers.setdefault(self.data.potentials[el.index], len(numbers))
             for el in self.elements]
        )
        return form, tuple(numbers)

    @cached_property
    def _element_boxes(self) -> np.ndarray:
        """The element boxes' lo and hi corners, (2, 2, elements): per-point
        lifting reads them, a call for one element reads its box."""
        return np.array([el.box for el in self.elements], dtype=float).transpose(1, 2, 0)


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
    source cells and faces; its samples are the phi-preimages of the
    source samples.
    """
    manifold = cover.manifold
    shift = _shift_vector(phi, manifold)
    elements = [
        el if shift is None else el._replace(box=el.box.shifted(tuple(-shift)))
        for el in cover.elements
    ]
    # the samples of every cell move in one map call; the map acts row by
    # row, so each cell gets what a call on its own samples gives
    source_cells = cover.nerve.cells
    sizes = np.cumsum([len(cell.samples) for cell in source_cells.values()])
    samples = np.concatenate([cell.samples for cell in source_cells.values()])
    moved = manifold.reduce(phi.apply_inverse(manifold.reduce(samples)))
    parts = np.split(moved, sizes[:-1])
    cells = {
        key: cell._replace(samples=part)
        for (key, cell), part in zip(source_cells.items(), parts)
    }
    nerve = Nerve(cells=cells, faces=cover.nerve.faces, max_degree=cover.nerve.max_degree)
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
        pullback_of=(cover, phi),
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
                    degree: int) -> list:
    """Interior sample grid of each box (rows of lo, hi) of one degree:
    the inset_grids of n points per axis, fewer the higher the degree;
    points outside the domain (the disk) are dropped.
    """
    n = max(3, 10 - 2 * degree)
    grid = inset_grids(lo, hi, n)
    if manifold.disk_radius is None:
        return list(grid)
    keep = manifold.in_domain(manifold.reduce(grid.reshape(-1, 2)))
    return [pts[k] for pts, k in zip(grid, keep.reshape(len(lo), n * n))]


def build_nerve(manifold: Manifold, elements, max_degree: int = MAX_DEGREE) -> Nerve:
    """Enumerate the multi-overlap components of the element boxes on the
    manifold, up to degree max_degree (tuples of max_degree + 1 indices).

    Degree 1 intersects every element with every element of higher index
    under every period shift (_shift_candidates) in one broadcast; overlaps
    narrower than 1e-9 on either axis are empty.  From degree 2 on, a
    frontier cell lies inside its first member's box, so it meets no
    (element, shift) pair that box does not: its candidates are the
    degree-1 overlaps of its first member with elements above its last
    member, all intersected in one gather.  The survivors register in
    (frontier cell, element, shift) order, and the k-th cell on an index
    tuple gets comp k.  The build stops at the first degree with no cells.
    See docs/conventions.md "Nerve".
    """
    shift_cands = _shift_candidates(manifold)
    offsets = -np.array(shift_cands) * _period_vec(manifold)  # (shifts, 2)
    ids = [el.index for el in elements]
    id_arr = np.array(ids)
    el_lo = np.array([el.box.lo for el in elements], dtype=float).reshape(-1, 2)
    el_hi = np.array([el.box.hi for el in elements], dtype=float).reshape(-1, 2)
    # every element box under every shift: (elements, shifts, 2)
    shifted_lo = el_lo[:, None, :] + offsets
    shifted_hi = el_hi[:, None, :] + offsets
    cells: dict = {}
    faces: dict = {}
    by_shape: dict = {}  # (indices, shifts) -> key
    comps: dict = {}  # indices -> cells registered on it so far

    def register(degree, indices, shifts, boxes, lo, hi):
        out = []
        samples = _degree_samples(manifold, lo, hi, degree)
        for idx, sh, box, pts in zip(indices, shifts, boxes, samples):
            comp = comps.get(idx, 0)
            comps[idx] = comp + 1
            cell = NerveCell(indices=idx, comp=comp, box=box, shifts=sh, samples=pts)
            cells[cell.key] = cell
            by_shape[(idx, sh)] = cell.key
            out.append(cell)
        return out

    frontier = register(
        0,
        [(i,) for i in ids],
        [((0, 0),)] * len(elements),
        [el.box for el in elements],
        el_lo,
        el_hi,
    )
    lo, hi = el_lo, el_hi
    position = {i: p for p, i in enumerate(ids)}
    for degree in range(1, max_degree + 1):
        if not frontier:
            break
        last = np.array([cell.indices[-1] for cell in frontier])
        if degree == 1:
            # (element, element, shift, axis)
            new_lo = np.maximum(lo[:, None, None, :], shifted_lo)
            new_hi = np.minimum(hi[:, None, None, :], shifted_hi)
            keep = ~np.any(new_hi - new_lo < 1e-9, axis=-1)
            keep &= (id_arr > last[:, None])[:, :, None]
            f, e, s = np.nonzero(keep)
            lo, hi = new_lo[f, e, s], new_hi[f, e, s]
            # the (element, shift) pairs each element's box meets, in order
            pair_e, pair_s = e, s
            n_pairs = np.bincount(f, minlength=len(ids))
            pair_start = np.cumsum(n_pairs) - n_pairs
        else:
            # the candidates of each frontier cell: its first member's pairs
            # with elements above its last member
            first = np.array([position[cell.indices[0]] for cell in frontier])
            counts = n_pairs[first]
            f = np.repeat(np.arange(len(frontier)), counts)
            skip = pair_start[first] - (np.cumsum(counts) - counts)
            p = np.arange(len(f)) + np.repeat(skip, counts)
            e, s = pair_e[p], pair_s[p]
            above = id_arr[e] > last[f]
            f, e, s = f[above], e[above], s[above]
            new_lo = np.maximum(lo[f], shifted_lo[e, s])
            new_hi = np.minimum(hi[f], shifted_hi[e, s])
            keep = ~np.any(new_hi - new_lo < 1e-9, axis=-1)
            f, e, s = f[keep], e[keep], s[keep]
            lo, hi = new_lo[keep], new_hi[keep]
        f, e, s = f.tolist(), e.tolist(), s.tolist()
        frontier = register(
            degree,
            [frontier[i].indices + (ids[j],) for i, j in zip(f, e)],
            [frontier[i].shifts + (shift_cands[j],) for i, j in zip(f, s)],
            [Box(tuple(l), tuple(h)) for l, h in zip(lo.tolist(), hi.tolist())],
            lo,
            hi,
        )

    # Face links: deleting the j-th index lands in a unique smaller cell.
    for cell in cells.values():
        if cell.degree == 0:
            continue
        links = []
        for j in range(len(cell.indices)):
            sub_idx = cell.indices[:j] + cell.indices[j + 1 :]
            sub_shift = cell.shifts[:j] + cell.shifts[j + 1 :]
            base = sub_shift[0]
            norm = tuple((a - base[0], b - base[1]) for a, b in sub_shift)
            key = by_shape.get((sub_idx, norm))
            if key is None:  # pragma: no cover - construction guarantees it
                raise ConfigurationError(f"nerve not closed under faces at {cell.key}")
            links.append((key, base))
        faces[cell.key] = tuple(links)

    return Nerve(cells=cells, faces=faces, max_degree=max_degree)


# ---------------------------------------------------------------------------
# Consistency checks


class LocalDataReport(NamedTuple):
    cocycle_max: float
    inverse_max: float
    curvature_max: float
    compatibility_max: float
    tol: float
    cells_checked: int
    counters: Mapping = MappingProxyType({})  # work done

    @property
    def passed(self) -> bool:
        return (
            self.cocycle_max < self.tol
            and self.inverse_max < self.tol
            and self.curvature_max < self.tol
            and self.compatibility_max < self.tol
        )

    def as_dict(self) -> dict:
        return {
            "cocycle_max": self.cocycle_max,
            "inverse_max": self.inverse_max,
            "curvature_max": self.curvature_max,
            "compatibility_max": self.compatibility_max,
            "tol": self.tol,
            "cells_checked": self.cells_checked,
            "pass": self.passed,
        }


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
    check gives.  counters["local_data_formulas"] counts the evaluator runs.
    """
    if len(cover.nerve) == 0:
        raise ConfigurationError("cover has an empty nerve")
    cover.nerve.require_degree(2, "check_local_data")
    manifold = cover.manifold
    s0, s1, s2 = (cover.nerve.samples(n, manifold) for n in range(3))
    laws = ("cocycle", "inverse", "curvature", "compatibility")
    resid = dict.fromkeys(laws, np.zeros(1))  # 0 for a law without cells
    runs = []  # the formulas each accessor call ran
    if s0.keys:  # d theta_a = omega on each element; omega runs once
        (a,), pts = s0.members.T, s0.points
        omega = cover.omega.eval(manifold, pts)
        resid["curvature"] = np.abs(cover.curvature(a, pts, runs) - omega)
        runs.append(1)
    if s1.keys:  # lambda_ab lambda_ba = 1, and the compatibility
        (a, b), pts = s1.members.T, s1.points
        resid["inverse"] = np.abs(
            cover.transition(a, b, pts, runs) * cover.transition(b, a, pts, runs) - 1.0
        )
        ta, tb = cover.potential(a, pts, runs), cover.potential(b, pts, runs)
        dlog = cover.transition_dlog(a, b, pts, runs)
        resid["compatibility"] = np.abs(np.subtract(ta, tb) + 1j * np.array(dlog))
    if s2.keys:  # the cocycle law
        (a, b, c), pts = s2.members.T, s2.points
        resid["cocycle"] = np.abs(
            cover.transition(a, b, pts, runs) * cover.transition(b, c, pts, runs)
            - cover.transition(a, c, pts, runs)
        )
    return LocalDataReport(
        # np.max keeps a NaN (Python's max drops it): a residual with no
        # value fails
        **{f"{law}_max": float(resid[law].max()) for law in laws},
        tol=tol,
        cells_checked=len(s0.keys) + len(s1.keys) + len(s2.keys),
        counters={"local_data_formulas": sum(runs)},
    )


# ---------------------------------------------------------------------------
# Refinement


def refine(cover: TrivializationCover, targets: list) -> tuple:
    """Restricted refinement: fine data is the coarse data through the map.

    targets is a list of Boxes (or (Box, contractible) pairs), each of which
    must fit inside some element of the source cover, possibly after a
    period shift; the stored fine box is then expressed in the containing
    coarse element's frame so that potentials keep their branch.  The fine
    nerve goes as deep as the coarse one, and at least to degree 1, whose
    cells give the fine transitions.  Returns the fine cover and the
    read-only assignment fine index -> coarse index.
    """
    if cover.pullback_of is not None:
        raise RefinementError("refine operates on base covers")
    manifold = cover.manifold
    periods = _period_vec(manifold)
    shift_cands = _shift_candidates(manifold)
    fine_elements = []
    assignment = {}
    for fine_index, target in enumerate(targets):
        box, contractible = (target, None) if isinstance(target, Box) else target
        # the first source element that holds the box shifted by whole periods
        fits = (
            (el, shifted)
            for el in cover.elements
            for shifted in (box.shifted((s[0] * periods[0], s[1] * periods[1]))
                            for s in shift_cands)
            if all(shifted.lo[i] >= el.box.lo[i] - 1e-12
                   and shifted.hi[i] <= el.box.hi[i] + 1e-12 for i in range(2))
        )
        el, shifted = next(fits, (None, None))
        if el is None:
            raise RefinementError(
                f"target element {fine_index} with box {box} fits in no source element"
            )
        if contractible is None:
            contractible = el.contractible
        fine_elements.append(CoverElement(fine_index, shifted, contractible))
        assignment[fine_index] = el.index

    nerve = build_nerve(manifold, fine_elements, max(1, cover.nerve.max_degree))
    transitions = {}
    for cell in nerve.degree(1):
        a, b = cell.indices
        ca, cb = assignment[a], assignment[b]
        transitions[(a, b)] = cover.data.transition_expr(ca, cb)
        transitions[(b, a)] = cover.data.transition_expr(cb, ca)
    potentials = {
        el.index: cover.data.potentials[assignment[el.index]] for el in fine_elements
    }
    fine = TrivializationCover(
        manifold=manifold,
        omega=cover.omega,
        elements=fine_elements,
        data=LocalData(transitions, potentials),
        nerve=nerve,
    )
    return fine, MappingProxyType(assignment)


def split_boxes(cover: TrivializationCover, factor: int = 2, overlap: float = 0.25):
    """Quadrant-style subdivision targets for a one-step refinement."""
    targets = []
    for el in cover.elements:
        for axis_parts in _axis_splits(el.box, factor, overlap):
            targets.append(axis_parts)
    return targets


def _axis_splits(box: Box, factor: int, overlap: float):
    pieces = []
    edges = [
        np.linspace(box.lo[a], box.hi[a], factor + 1) for a in range(2)
    ]
    pads = [min(overlap, 0.25 * (box.hi[a] - box.lo[a]) / factor) for a in range(2)]
    for ix in range(factor):
        for iy in range(factor):
            lo = (
                max(box.lo[0], edges[0][ix] - pads[0]),
                max(box.lo[1], edges[1][iy] - pads[1]),
            )
            hi = (
                min(box.hi[0], edges[0][ix + 1] + pads[0]),
                min(box.hi[1], edges[1][iy + 1] + pads[1]),
            )
            pieces.append(Box(lo, hi))
    return pieces

