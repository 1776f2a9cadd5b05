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


class Nerve(Record):
    def __init__(self, cells: Mapping, faces: Mapping, max_degree: int):
        cells = MappingProxyType(dict(cells))  # key -> NerveCell
        # key -> tuple of (face key, frame offset (int, int))
        faces = MappingProxyType(dict(faces))
        self._set(locals())

    def degree(self, n: int):
        return [c for c in self.cells.values() if c.degree == n]

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
        # compiled local data, filled on first use: key -> program, and the
        # transition table (_transition_table); a copy starts its own
        object.__setattr__(self, "_programs", {})

    # -- structure ---------------------------------------------------------

    def member_points(self, index: int, pts) -> np.ndarray:
        """Lift canonical points into the element's unrolled frame."""
        return self.manifold.lift_into(as_points(pts), self.elements[index].box)

    # -- local data evaluation (canonical coordinate inputs) ----------------

    def _evaluate(self, key, parts, pts) -> np.ndarray:
        """The formulas of key at points in this cover's coordinates.
        parts() gives them and is compiled on the first call for key, so
        the data behind a key must not change after that."""
        prog = self._programs.get(key)
        if prog is None:
            prog = program.compile_expr(parts(), self.manifold.coords)
            self._programs[key] = prog
        return eval_at(prog, self.manifold.coords, pts)

    def transition(self, a, b, pts) -> np.ndarray:
        """lambda_ab at points; a and b are element indices, or int arrays
        of one pair per point, broadcast against each other and the points.
        A call evaluates each distinct transition formula among its pairs
        once, on all of that formula's points."""
        pts = as_points(pts)
        a, b = (np.broadcast_to(v, len(pts)) for v in (a, b))
        form = self.transition_formulas(a, b)
        programs = self._transition_table()[1]
        out = np.ones(len(pts), dtype=np.complex128)
        for f in sorted(set(form.tolist()) - {-1}):
            rows = np.flatnonzero(form == f)
            out[rows] = eval_at(programs[f], self.manifold.coords, pts[rows])
        return out

    def transition_formulas(self, a, b) -> np.ndarray:
        """The number of the transition formula of each pair (a[i], b[i]),
        -1 where a[i] == b[i]; pairs with equal expressions share a number.
        A pair of distinct elements without a transition raises."""
        form = self._transition_table()[0][a, b]
        missing = form == -2
        if missing.any():
            i = np.flatnonzero(missing)[0]
            raise ConfigurationError(f"no transition for pair ({a[i]}, {b[i]})")
        return form

    def _transition_table(self) -> tuple:
        """(elements x elements formula numbers, one program per formula):
        -1 on the diagonal, -2 for a pair without a transition.  Formulas
        are keyed by their expression, compiled on first use."""
        table = self._programs.get("transition table")
        if table is None:
            n = len(self.elements)
            pair_form = np.full((n, n), -2)
            np.fill_diagonal(pair_form, -1)
            numbers: dict = {}  # expression -> formula number
            for (a, b), lam in self.data.transitions.items():
                if a != b:
                    pair_form[a, b] = numbers.setdefault(lam, len(numbers))
            coords = self.manifold.coords
            programs = [program.compile_expr(lam, coords) for lam in numbers]
            table = self._programs["transition table"] = (pair_form, programs)
        return table

    def transition_dlog(self, a: int, b: int, pts) -> tuple:
        """(d lambda / lambda) components; branch free."""
        pts = as_points(pts)

        def parts():  # lambda and its two partial derivatives
            lam = self.data.transition_expr(a, b)
            c0, c1 = self.manifold.coords
            return (lam, ex.differentiate(lam, c0), ex.differentiate(lam, c1))

        lam, d0, d1 = self._evaluate(("dlog", a, b), parts, pts)
        return d0 / lam, d1 / lam

    def potential(self, a: int, pts) -> tuple:
        """Connection potential components at canonical points."""
        lifted = self.member_points(a, pts)
        if np.any(np.isnan(lifted)):
            raise ConfigurationError(
                f"potential of element {a} requested outside the element"
            )
        return tuple(
            self._evaluate(("potential", a), lambda: self.data.potentials[a], lifted)
        )

    def curvature(self, a: int, pts) -> np.ndarray:
        """d(theta_a) coefficient (the dx^dy component) at canonical points."""
        lifted = self.member_points(a, pts)

        def parts():
            t0, t1 = self.data.potentials[a]
            c0, c1 = self.manifold.coords
            return (ex.differentiate(t1, c0), ex.differentiate(t0, c1))

        d0t1, d1t0 = self._evaluate(("curvature", a), parts, lifted)
        return d0t1 - d1t0


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
    """Interior sample grid of each box (rows of lo, hi) of one degree.

    Each box gets the ij meshgrid of n points per axis, inset by 1e-3 of
    its width, that Box.grid(n) gives; points outside the domain (the
    disk) are dropped.
    """
    n = max(3, 10 - 2 * degree)
    inset = 1e-3 * (hi - lo)
    axes = np.linspace(lo + inset, hi - inset, n, axis=1)  # (boxes, n, 2)
    grid = np.empty((len(lo), n, n, 2))
    grid[..., 0] = axes[:, :, None, 0]
    grid[..., 1] = axes[:, None, :, 1]
    grid = grid.reshape(len(lo), n * n, 2)
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


def _fold_max(acc: float, resid: np.ndarray) -> float:
    """Running maximum of residuals that keeps a NaN (Python's max drops
    it), so a residual with no value fails the check."""
    return float(np.maximum(acc, np.max(resid))) if resid.size else acc


def check_local_data(cover: TrivializationCover, tol: float = 1e-8) -> LocalDataReport:
    """Verify every law the bundle imposes on (lambda, theta).

    Checks, each as a max residual over nerve cell samples: the cocycle law
    on triple overlaps, lambda_ab lambda_ba = 1 on pairs, d theta_a = omega
    on each element (exact symbolic exterior derivative), and the
    compatibility theta_a - theta_b = -i dlambda_ab / lambda_ab.  The
    cocycle law needs the nerve's degree-2 cells; cells of higher degree
    carry no law and are not counted.

    The samples of each degree are reduced in one call, and each law is
    evaluated on all of them at once: one transition call per law on
    arrays of pairs, one curvature and one potential call per element, and
    one transition_dlog call per distinct transition formula.  The maximum
    over all cells is the maximum of the per-cell maxima, so every residual
    is the one a cell-by-cell check gives.  counters["local_data_formulas"]
    counts the evaluator runs.
    """
    if len(cover.nerve) == 0:
        raise ConfigurationError("cover has an empty nerve")
    cover.nerve.require_degree(2, "check_local_data")
    manifold = cover.manifold
    by_degree: tuple = ([], [], [])
    for cell in cover.nerve.cells.values():
        if cell.degree <= 2 and len(cell.samples):
            by_degree[cell.degree].append(cell)
    laws = ("cocycle", "inverse", "curvature", "compatibility")
    resid = dict.fromkeys(laws, np.empty(0))
    runs = 0

    def samples(group):
        """The samples of cells of one degree, reduced in one call, the
        cells' members (a row per cell) and the cells' sample counts."""
        pts = manifold.reduce(np.concatenate([cell.samples for cell in group]))
        members = np.array([cell.indices for cell in group])
        return pts, members, [len(cell.samples) for cell in group]

    def transitions(pairs, sizes, pts):
        """lambda of each (a, b) of pairs, cell arrays, at the samples pts of
        the cells, all in one transition call."""
        nonlocal runs
        a = np.concatenate([pair[0] for pair in pairs])
        b = np.concatenate([pair[1] for pair in pairs])
        runs += len(set(cover.transition_formulas(a, b).tolist()) - {-1})
        n = len(pts)
        lam = cover.transition(
            np.repeat(a, sizes * len(pairs)),
            np.repeat(b, sizes * len(pairs)),
            np.concatenate([pts] * len(pairs)),
        )
        return [lam[i * n : (i + 1) * n] for i in range(len(pairs))]

    if by_degree[0]:  # d theta_a = omega on each element: one cell each
        pts, members, sizes = samples(by_degree[0])
        curv = np.empty(len(pts), dtype=np.complex128)
        stop = np.cumsum(sizes).tolist()
        for el, start, end in zip(members[:, 0].tolist(), [0] + stop, stop):
            curv[start:end] = cover.curvature(el, pts[start:end])
        resid["curvature"] = np.abs(curv - cover.omega.eval(manifold, pts))
        runs += len(sizes) + 1
    if by_degree[1]:  # lambda_ab lambda_ba = 1, and the compatibility
        pts, members, sizes = samples(by_degree[1])
        a, b = members.T
        lam_ab, lam_ba = transitions([(a, b), (b, a)], sizes, pts)
        resid["inverse"] = np.abs(lam_ab * lam_ba - 1.0)
        # theta_a and theta_b side by side: one potential call per element
        role = np.repeat(np.concatenate([a, b]), sizes * 2)
        twice = np.concatenate([pts, pts])
        theta = np.empty((2, len(twice)), dtype=np.complex128)
        for el in sorted(set(members.ravel().tolist())):
            rows = np.flatnonzero(role == el)
            theta[:, rows] = cover.potential(el, twice[rows])
            runs += 1
        # the pairs of one formula share its derivatives
        form = cover.transition_formulas(a, b)
        per_point = np.repeat(form, sizes)
        dlog = np.empty((2, len(pts)), dtype=np.complex128)
        for f in sorted(set(form.tolist())):
            rows = np.flatnonzero(per_point == f)
            i = form.tolist().index(f)
            dlog[:, rows] = cover.transition_dlog(int(a[i]), int(b[i]), pts[rows])
            runs += 1
        ta, tb = theta[:, : len(pts)], theta[:, len(pts) :]
        resid["compatibility"] = np.abs(ta - tb + 1j * dlog)
    if by_degree[2]:  # the cocycle law
        pts, members, sizes = samples(by_degree[2])
        a, b, c = members.T
        lam_ab, lam_bc, lam_ac = transitions([(a, b), (b, c), (a, c)], sizes, pts)
        resid["cocycle"] = np.abs(lam_ab * lam_bc - lam_ac)
    return LocalDataReport(
        cocycle_max=_fold_max(0.0, resid["cocycle"]),
        inverse_max=_fold_max(0.0, resid["inverse"]),
        curvature_max=_fold_max(0.0, resid["curvature"]),
        compatibility_max=_fold_max(0.0, resid["compatibility"]),
        tol=tol,
        cells_checked=sum(map(len, by_degree)),
        counters={"local_data_formulas": runs},
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
        box, contractible = (
            (target, None) if isinstance(target, Box) else target
        )
        placed = False
        for el in cover.elements:
            for s in shift_cands:
                shifted = box.shifted((s[0] * periods[0], s[1] * periods[1]))
                if (
                    shifted.lo[0] >= el.box.lo[0] - 1e-12
                    and shifted.lo[1] >= el.box.lo[1] - 1e-12
                    and shifted.hi[0] <= el.box.hi[0] + 1e-12
                    and shifted.hi[1] <= el.box.hi[1] + 1e-12
                ):
                    fine_elements.append(
                        CoverElement(
                            index=fine_index,
                            box=shifted,
                            contractible=(
                                el.contractible if contractible is None else contractible
                            ),
                        )
                    )
                    assignment[fine_index] = el.index
                    placed = True
                    break
            if placed:
                break
        if not placed:
            raise RefinementError(
                f"target element {fine_index} with box {box} fits in no source element"
            )

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
    pads = [min(overlap, 0.25 * box.width(a) / factor) for a in range(2)]
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

