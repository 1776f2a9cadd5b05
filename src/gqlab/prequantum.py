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

The nerve records every nonempty multi-overlap up to degree 3, one cell per
connected component, with interior sample points, per-member unrolling
shifts, and face links; this is the combinatorial carrier for the cochain
complex, the consistency checks, and the holonomy loop threading.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

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

MAX_TUPLE = 4  # tuples up to 4 indices: cochain degrees 0..3


class ConfigurationError(ValueError):
    pass


class RefinementError(ValueError):
    pass


@dataclass(frozen=True)
class CoverElement:
    index: int
    box: Box
    contractible: bool
    name: str = ""

    def wraps(self, manifold: Manifold) -> tuple:
        out = []
        for axis, period in enumerate(manifold.periods):
            if period is None:
                out.append(False)
            else:
                out.append(self.box.lo[axis] < 0.0 or self.box.hi[axis] > period)
        return tuple(out)


@dataclass
class LocalData:
    """Transition functions and connection potentials as expressions.

    transitions holds both orientations of every overlapping pair;
    potentials holds the two 1-form components per element.
    """

    transitions: dict  # (a, b) -> Expr
    potentials: dict  # a -> (Expr, Expr)

    def transition_expr(self, a: int, b: int) -> ex.Expr:
        if a == b:
            return ex.ONE
        try:
            return self.transitions[(a, b)]
        except KeyError:
            raise ConfigurationError(f"no transition for pair ({a}, {b})") from None


@dataclass(frozen=True)
class NerveCell:
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


@dataclass
class Nerve:
    cells: dict  # key -> NerveCell
    faces: dict  # key -> tuple of (face key, frame offset (int, int))
    max_degree: int

    def degree(self, n: int):
        return [c for c in self.cells.values() if c.degree == n]

    def __len__(self):
        return len(self.cells)


@dataclass
class TrivializationCover:
    manifold: Manifold
    omega: SymplecticForm
    elements: list
    data: LocalData
    nerve: Nerve | None = None
    pullback_of: tuple | None = None  # (source cover, map): membership only
    meta: dict = field(default_factory=dict)
    # compiled local data, filled on first use: key -> program
    _programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- structure ---------------------------------------------------------

    def element(self, index: int) -> CoverElement:
        return self.elements[index]

    def member_points(self, index: int, pts) -> np.ndarray:
        """Lift canonical points into the element's unrolled frame."""
        return self.manifold.lift_into(as_points(pts), self.elements[index].box)

    def contains(self, index: int, pts) -> np.ndarray:
        if self.pullback_of is not None:
            src, phi = self.pullback_of
            return src.contains(index, src.manifold.reduce(phi.apply(pts)))
        lifted = self.member_points(index, pts)
        inside = ~np.isnan(lifted[:, 0]) & ~np.isnan(lifted[:, 1])
        good = np.nan_to_num(lifted, nan=np.inf)
        inside &= self.elements[index].box.contains(good, tol=1e-9)
        return inside & self.manifold.in_domain(pts)

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

    def transition(self, a: int, b: int, pts) -> np.ndarray:
        pts = as_points(pts)
        if a == b:
            return np.ones(len(pts), dtype=np.complex128)
        return self._evaluate(
            ("transition", a, b), lambda: self.data.transition_expr(a, b), pts
        )

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
    and otherwise the source box, with membership read through phi.  The
    nerve keeps the source cells and faces; its samples are the
    phi-preimages of the source samples.
    """
    manifold = cover.manifold
    shift = _shift_vector(phi, manifold)
    elements = [
        replace(
            el,
            box=el.box if shift is None else el.box.shifted(tuple(-shift)),
            name=f"pulled-{el.name}",
        )
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
        key: replace(cell, samples=part)
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
        meta={"name": f"pullback({cover.meta.get('name')})"},
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


def build_nerve(cover: TrivializationCover, max_tuple: int = MAX_TUPLE) -> Nerve:
    """Enumerate multi-overlap components up to tuples of max_tuple indices.

    Degree by degree, every frontier cell is intersected with every element
    of higher index under every period shift (_shift_candidates) in one
    broadcast; overlaps narrower than 1e-9 on either axis are empty.  The
    survivors register in (frontier cell, element, shift) order, and the
    k-th cell on an index tuple gets comp k.  See docs/conventions.md
    "Nerve".
    """
    manifold = cover.manifold
    shift_cands = _shift_candidates(manifold)
    offsets = -np.array(shift_cands) * _period_vec(manifold)  # (shifts, 2)
    ids = [el.index for el in cover.elements]
    id_arr = np.array(ids)
    el_lo = np.array([el.box.lo for el in cover.elements], dtype=float).reshape(-1, 2)
    el_hi = np.array([el.box.hi for el in cover.elements], dtype=float).reshape(-1, 2)
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
        [((0, 0),)] * len(cover.elements),
        [el.box for el in cover.elements],
        el_lo,
        el_hi,
    )
    lo, hi = el_lo, el_hi
    for degree in range(1, max_tuple):
        # (frontier cell, element, shift, axis)
        new_lo = np.maximum(lo[:, None, None, :], shifted_lo)
        new_hi = np.minimum(hi[:, None, None, :], shifted_hi)
        last = np.array([cell.indices[-1] for cell in frontier])
        keep = ~np.any(new_hi - new_lo < 1e-9, axis=-1)
        keep &= (id_arr > last[:, None])[:, :, None]
        f, e, s = np.nonzero(keep)
        lo, hi = new_lo[f, e, s], new_hi[f, e, s]
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

    return Nerve(cells=cells, faces=faces, max_degree=max_tuple - 1)


def coverage_gaps(cover: TrivializationCover, grid: int = 40) -> int:
    """Number of window grid points lying in no element."""
    pts = cover.manifold.sample_grid(grid)
    covered = np.zeros(len(pts), dtype=bool)
    for el in cover.elements:
        covered |= cover.contains(el.index, pts)
    return int(np.sum(~covered))


# ---------------------------------------------------------------------------
# Consistency checks


@dataclass(frozen=True)
class LocalDataReport:
    cocycle_max: float
    inverse_max: float
    curvature_max: float
    compatibility_max: float
    tol: float
    cells_checked: int

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
    return float(np.maximum(acc, np.max(resid)))


def check_local_data(cover: TrivializationCover, tol: float = 1e-8) -> LocalDataReport:
    """Verify every law the bundle imposes on (lambda, theta).

    Checks, each as a max residual over nerve cell samples: the cocycle law
    on triple overlaps, lambda_ab lambda_ba = 1 on pairs, d theta_a = omega
    on each element (exact symbolic exterior derivative), and the
    compatibility theta_a - theta_b = -i dlambda_ab / lambda_ab.
    """
    if cover.nerve is None or len(cover.nerve) == 0:
        raise ConfigurationError("cover has no nerve; build_nerve first")
    manifold = cover.manifold
    curv_max = 0.0
    inv_max = 0.0
    compat_max = 0.0
    cocycle_max = 0.0
    checked = 0
    for cell in cover.nerve.cells.values():
        pts = manifold.reduce(cell.samples)
        if len(pts) == 0:
            continue
        checked += 1
        if cell.degree == 0:
            (a,) = cell.indices
            resid = np.abs(cover.curvature(a, pts) - cover.omega.eval(manifold, pts))
            curv_max = _fold_max(curv_max, resid)
        elif cell.degree == 1:
            a, b = cell.indices
            lam_ab = cover.transition(a, b, pts)
            lam_ba = cover.transition(b, a, pts)
            inv_max = _fold_max(inv_max, np.abs(lam_ab * lam_ba - 1.0))
            ta = cover.potential(a, pts)
            tb = cover.potential(b, pts)
            dlog = cover.transition_dlog(a, b, pts)
            for comp in range(2):
                resid = np.abs(ta[comp] - tb[comp] + 1j * dlog[comp])
                compat_max = _fold_max(compat_max, resid)
        elif cell.degree == 2:
            a, b, c = cell.indices
            resid = np.abs(
                cover.transition(a, b, pts) * cover.transition(b, c, pts)
                - cover.transition(a, c, pts)
            )
            cocycle_max = _fold_max(cocycle_max, resid)
    return LocalDataReport(
        cocycle_max=cocycle_max,
        inverse_max=inv_max,
        curvature_max=curv_max,
        compatibility_max=compat_max,
        tol=tol,
        cells_checked=checked,
    )


# ---------------------------------------------------------------------------
# Refinement


@dataclass(frozen=True)
class RefinementMap:
    assignment: dict  # fine index -> coarse index

    def __call__(self, fine_index: int) -> int:
        return self.assignment[fine_index]


def refine(cover: TrivializationCover, targets: list) -> tuple:
    """Restricted refinement: fine data is the coarse data through the map.

    targets is a list of Boxes (or (Box, contractible) pairs), each of which
    must fit inside some element of the source cover, possibly after a
    period shift; the stored fine box is then expressed in the containing
    coarse element's frame so that potentials keep their branch.
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
            target if isinstance(target, tuple) else (target, None)
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
                            name=f"{el.name}/{fine_index}",
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

    transitions = {}
    potentials = {}
    refmap = RefinementMap(assignment)
    fine = TrivializationCover(
        manifold=manifold,
        omega=cover.omega,
        elements=fine_elements,
        data=LocalData(transitions, potentials),
        meta={"refined_from": cover.meta.get("name", "?")},
    )
    fine.nerve = build_nerve(fine)
    for el in fine_elements:
        potentials[el.index] = cover.data.potentials[assignment[el.index]]
    for cell in fine.nerve.degree(1):
        a, b = cell.indices
        ca, cb = assignment[a], assignment[b]
        transitions[(a, b)] = cover.data.transition_expr(ca, cb)
        transitions[(b, a)] = cover.data.transition_expr(cb, ca)
    return fine, refmap


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


def verify_refinement(
    fine: TrivializationCover,
    coarse: TrivializationCover,
    refmap: RefinementMap,
    samples: int = 6,
) -> float:
    """Max containment violation of V_beta inside U_phi(beta) (0 when good)."""
    worst = 0.0
    for el in fine.elements:
        pts = fine.manifold.reduce(el.box.grid(samples))
        inside = coarse.contains(refmap(el.index), pts)
        worst = max(worst, float(np.mean(~inside)))
    return worst


# ---------------------------------------------------------------------------
# Serialization (base covers)


def cover_to_json(cover: TrivializationCover) -> str:
    if cover.pullback_of is not None:
        raise ConfigurationError("pullback covers serialize via their provenance")
    m = cover.manifold
    doc = {
        "schema": "gqlab.cover/1",
        "manifold": {
            "name": m.name,
            "coords": list(m.coords),
            "periods": [p for p in m.periods],
            "window": {"lo": list(m.window.lo), "hi": list(m.window.hi)},
            "disk_radius": m.disk_radius,
        },
        "omega": ex.to_source(cover.omega.coefficient),
        "elements": [
            {
                "index": el.index,
                "name": el.name,
                "lo": list(el.box.lo),
                "hi": list(el.box.hi),
                "contractible": el.contractible,
                "wraps": list(el.wraps(m)),
            }
            for el in cover.elements
        ],
        "transitions": [
            {"pair": [a, b], "source": ex.to_source(lam)}
            for (a, b), lam in sorted(cover.data.transitions.items())
        ],
        "potentials": [
            {"index": a, "sources": [ex.to_source(c) for c in comps]}
            for a, comps in sorted(cover.data.potentials.items())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def cover_from_json(text: str) -> TrivializationCover:
    doc = json.loads(text)
    if doc.get("schema") != "gqlab.cover/1":
        raise ConfigurationError("unrecognized cover schema")
    md = doc["manifold"]
    manifold = Manifold(
        name=md["name"],
        coords=tuple(md["coords"]),
        periods=tuple(md["periods"]),
        window=Box(tuple(md["window"]["lo"]), tuple(md["window"]["hi"])),
        disk_radius=md["disk_radius"],
    )
    names = set(manifold.coords)
    elements = [
        CoverElement(
            index=el["index"],
            box=Box(tuple(el["lo"]), tuple(el["hi"])),
            contractible=el["contractible"],
            name=el["name"],
        )
        for el in sorted(doc["elements"], key=lambda e: e["index"])
    ]
    data = LocalData(
        transitions={
            (t["pair"][0], t["pair"][1]): ex.parse_expr(t["source"], names)
            for t in doc["transitions"]
        },
        potentials={
            p["index"]: tuple(ex.parse_expr(s, names) for s in p["sources"])
            for p in doc["potentials"]
        },
    )
    cover = TrivializationCover(
        manifold=manifold,
        omega=SymplecticForm(ex.parse_expr(doc["omega"], names)),
        elements=elements,
        data=data,
    )
    cover.nerve = build_nerve(cover)
    return cover
