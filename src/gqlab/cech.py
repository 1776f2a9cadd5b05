"""The trivialization complex and its cohomology.

Polarized functions on a cover element solve a transport equation along
each leaf, so they are determined by one complex value per leaf crossing
the element; the discretization stores exactly those values on a shared
transversal grid of leaf labels.  The lambda-weighted restriction maps, the
differential, and the projection onto tuples representing honest sections
all act on these per-leaf values, with parallel-transport factors supplied
by adaptive quadrature of the connection potential along the leaf: the
labels of one nerve face share a leaf segment and one quadrature sweep.

Čech ranks are computed from the differential on the image subspaces (one
coefficient per leaf label per nerve cell, taken in the trivialization of
the cell's first member).  Transport never leaves a leaf, so it is
assembled as one dense block per leaf label, and its singular values are
the union of the blocks' (docs/conventions.md, "Ranks").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Polarization
from .prequantum import ConfigurationError, TrivializationCover
from .transport import LeafTransport


class LeafMismatchError(ValueError):
    pass


class ResolutionError(ValueError):
    pass


def half_offset_labels(lo: float, hi: float, count: int) -> np.ndarray:
    """Leaf-label grid staggered off the endpoints.

    The stagger keeps generic grids away from Bohr-Sommerfeld values, where
    the discretized complex would pick up an honest extra kernel dimension;
    rank stability under doubling depends on it.
    """
    step = (hi - lo) / count
    return lo + step * (np.arange(count) + 0.5)


@dataclass
class CellGrid:
    label_idx: np.ndarray  # indices into the global label array
    c_cell: np.ndarray  # label values lifted into the cell frame
    t_lo: float
    t_hi: float
    t_bp: float
    closed: bool  # leaf closes inside the cell: no nonzero polarized values
    base_points: np.ndarray | None = None  # canonical coords of basepoints

    @property
    def count(self) -> int:
        return len(self.label_idx)

    def position(self, global_idx):
        """Position of a global label index, or of an array of them."""
        missing = np.setdiff1d(global_idx, self.label_idx)
        if missing.size:
            raise LeafMismatchError(f"label {missing[0]} does not cross the cell")
        pos = np.searchsorted(self.label_idx, global_idx)
        return int(pos) if np.ndim(pos) == 0 else pos


@dataclass
class TransversalGrid:
    """Shared leaf discretization of a cover for one polarization."""

    cover: TrivializationCover
    polarization: Polarization
    labels: np.ndarray
    cells: dict  # nerve cell key -> CellGrid
    closed_cells: tuple
    _transport: LeafTransport | None = field(default=None, repr=False)
    _subcell_cache: dict = field(default_factory=dict, repr=False)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, cover, polarization, labels) -> "TransversalGrid":
        labels = np.asarray(labels, dtype=float)
        pol = polarization
        geom_cover = cover.source  # cell geometry lives upstairs for pullbacks
        base = pol.root
        if geom_cover.nerve is None:
            raise ConfigurationError("cover has no nerve")
        manifold = geom_cover.manifold
        period = pol.leaf_period
        cells = {}
        closed_cells = []
        for key, cell in geom_cover.nerve.cells.items():
            if base.kind == "axis":
                la, ta = base.label_axis, base.leaf_axis
                lo, hi = cell.box.interval(la)
                pperiod = manifold.periods[la]
                lifted = labels
                if pperiod is not None:
                    mid = 0.5 * (lo + hi)
                    lifted = labels + pperiod * np.round((mid - labels) / pperiod)
                kept = np.flatnonzero((lo + 1e-9 < lifted) & (lifted < hi - 1e-9))
                t_lo, t_hi = cell.box.interval(ta)
            else:  # radial: circle leaves inside a single rectangle
                half = min(
                    cell.box.hi[0], cell.box.hi[1], -cell.box.lo[0], -cell.box.lo[1]
                )
                cmax = min(base.label_range[1], 0.5 * half * half)
                lifted = labels
                kept = np.flatnonzero((1e-9 < labels) & (labels < cmax))
                t_lo, t_hi = 0.0, 2.0 * math.pi
            closed = period is not None and (t_hi - t_lo) >= period - 1e-9
            if closed:
                closed_cells.append(key)
                kept = kept[:0]
            cells[key] = CellGrid(
                label_idx=kept,
                c_cell=lifted[kept],
                t_lo=t_lo,
                t_hi=t_hi,
                t_bp=0.5 * (t_lo + t_hi),
                closed=closed,
            )
        return cls(
            cover=cover,
            polarization=pol,
            labels=labels,
            cells=cells,
            closed_cells=tuple(closed_cells),
        )

    @property
    def nerve(self):
        return self.cover.source.nerve

    def degree_keys(self, n: int):
        return sorted(k for k, c in self.nerve.cells.items() if c.degree == n)

    @property
    def n_labels_retained(self) -> int:
        used = set()
        for key in self.degree_keys(0):
            used.update(self.cells[key].label_idx.tolist())
        return len(used)

    # -- geometry helpers ----------------------------------------------------

    def base_points(self, key) -> np.ndarray:
        """Canonical coordinates of the cell's leaf basepoints, (L, 2)."""
        cg = self.cells[key]
        if cg.base_points is None:
            base = self.polarization.root
            pts = base.curve_points(cg.c_cell, np.full(cg.count, cg.t_bp))
            source = self.cover.source
            pts = source.manifold.reduce(pts)
            if self.cover.pullback_of is not None:
                _, phi = self.cover.pullback_of
                pts = self.cover.manifold.reduce(phi.apply_inverse(pts))
            cg.base_points = pts
        return cg.base_points

    def transition_at_basepoints(self, key, a: int, b: int) -> np.ndarray:
        return self.cover.transition(a, b, self.base_points(key))

    def _elem_frame(self, key, member: int):
        """(shift vector) for converting cell-frame data to the member's."""
        cell = self.nerve.cells[key]
        j = cell.indices.index(member)
        return cell.shifts[j]

    def sub_cell_for(self, super_key, sub_indices: tuple):
        """Nerve cell of sub_indices whose overlap contains the super cell."""
        ck = (super_key, sub_indices)
        if ck in self._subcell_cache:
            return self._subcell_cache[ck]
        sup = self.nerve.cells[super_key]
        manifold = self.cover.source.manifold
        periods = [p if p is not None else 0.0 for p in manifold.periods]
        anchor = sub_indices[0]
        off = sup.shifts[sup.indices.index(anchor)]
        shifted = sup.box.shifted((off[0] * periods[0], off[1] * periods[1]))
        for comp in range(8):
            key = (sub_indices, comp)
            cell = self.nerve.cells.get(key)
            if cell is None:
                break
            if cell.box.intersect(shifted, min_width=-1e-9) is not None and all(
                shifted.lo[a] >= cell.box.lo[a] - 1e-6
                and shifted.hi[a] <= cell.box.hi[a] + 1e-6
                for a in range(2)
            ):
                self._subcell_cache[ck] = (key, off)
                return key, off
        raise ConfigurationError(
            f"no cell of {sub_indices} contains the overlap {super_key}"
        )

    # -- parallel transport --------------------------------------------------

    @property
    def leaf_transport(self) -> LeafTransport:
        if self._transport is None:
            self._transport = LeafTransport(self.cover, self.polarization)
        return self._transport

    def transport(self, member: int, c_elem: float, t0: float, t1: float) -> complex:
        """exp(-i * integral of theta_member) along the leaf from t0 to t1,
        all data in the member element's frame."""
        return self.leaf_transport.factor(member, c_elem, t0, t1)

    def segment(self, member: int, from_key, to_key, pos_from):
        """(c_elem, t0, t1) of the leaf segment between two cells'
        basepoints, in the member element's frame; pos_from may be an array
        of positions in the first cell."""
        cf, ct = self.cells[from_key], self.cells[to_key]
        base = self.polarization.root
        la = 1 if base.kind != "axis" else base.leaf_axis
        periods = self.cover.source.manifold.periods
        p_leaf = periods[la] or 0.0
        sh_f = self._elem_frame(from_key, member)
        sh_t = self._elem_frame(to_key, member)
        t0 = cf.t_bp + sh_f[la] * p_leaf
        t1 = ct.t_bp + sh_t[la] * p_leaf
        c_elem = cf.c_cell[pos_from]
        if base.kind == "axis":
            lab = base.label_axis
            c_elem = c_elem + sh_f[lab] * (periods[lab] or 0.0)
        return c_elem, t0, t1


# ---------------------------------------------------------------------------
# Cochain data


@dataclass
class PolarizedFunction:
    """Values of a polarized function at the leaf basepoints of one element."""

    element: int
    values: np.ndarray


@dataclass
class TrivCochain:
    degree: int
    data: dict  # cell key -> ndarray (degree + 1, n_labels(cell))

    def norm(self) -> float:
        vals = [np.max(np.abs(v)) for v in self.data.values() if v.size]
        return float(max(vals)) if vals else 0.0

    def copy(self) -> "TrivCochain":
        return TrivCochain(self.degree, {k: v.copy() for k, v in self.data.items()})


def zero_cochain(grid: TransversalGrid, degree: int) -> TrivCochain:
    data = {
        key: np.zeros((degree + 1, grid.cells[key].count), dtype=np.complex128)
        for key in grid.degree_keys(degree)
    }
    return TrivCochain(degree, data)


def random_projected_cochain(grid, degree: int, rng) -> TrivCochain:
    out = zero_cochain(grid, degree)
    for key, arr in out.data.items():
        raw = rng.normal(size=arr.shape) + 1j * rng.normal(size=arr.shape)
        out.data[key] = project_to_image(grid, key, raw)
    return out


# ---------------------------------------------------------------------------
# Operations


def propagate(grid: TransversalGrid, f: PolarizedFunction, frm, to) -> complex:
    """Value of the polarized function at `to`, transported from `frm`.

    Both points must lie on one leaf segment inside f's element; `frm` is
    located on the element's leaf grid, so its stored basepoint value fixes
    the function on the whole leaf.
    """
    pol = grid.polarization
    c_from = float(pol.label_of(frm)[0])
    c_to = float(pol.label_of(to)[0])
    if abs(c_from - c_to) > 1e-8:
        raise LeafMismatchError(
            f"points lie on different leaves ({c_from} vs {c_to})"
        )
    key = ((f.element,), 0)
    cg = grid.cells[key]
    base = pol.root
    pos = int(np.argmin(np.abs(grid.labels[cg.label_idx] - c_from)))
    if abs(grid.labels[cg.label_idx][pos] - c_from) > 1e-8:
        raise LeafMismatchError(f"leaf {c_from} is not on the element grid")
    manifold = grid.cover.source.manifold
    pts = np.vstack([frm, to]).astype(float)
    if grid.cover.pullback_of is not None:
        _, phi = grid.cover.pullback_of
        pts = phi.apply(pts)
    box = grid.cover.source.elements[f.element].box
    lifted = manifold.lift_into(manifold.reduce(pts), box)
    if np.any(np.isnan(lifted)):
        raise LeafMismatchError("points do not lie in the element")
    if base.kind == "axis":
        ts = lifted[:, base.leaf_axis]
        c_elem = lifted[0, base.label_axis]
    else:
        ts = np.arctan2(lifted[:, 1], lifted[:, 0])
        c_elem = c_from
    value_at_from = f.values[pos] * grid.transport(
        f.element, c_elem, cg.t_bp, float(ts[0])
    )
    return value_at_from * grid.transport(f.element, c_elem, float(ts[0]), float(ts[1]))


def project_to_image(grid: TransversalGrid, key, tup: np.ndarray) -> np.ndarray:
    """Average a tuple into the image of the section representation.

    Components become f_j = (1/(n+1)) sum_k lambda_{a_k a_j} f_k; the map is
    idempotent and fixes exactly the tuples representing honest sections.
    """
    indices = key[0]
    n1 = len(indices)
    out = np.zeros_like(tup)
    for j in range(n1):
        for k in range(n1):
            lam = grid.transition_at_basepoints(key, indices[k], indices[j])
            out[j] += lam * tup[k]
    return out / n1


def psi(grid: TransversalGrid, key, g: np.ndarray) -> np.ndarray:
    """Tuple representation of a section given in the cell's reference
    trivialization (the first member)."""
    indices = key[0]
    out = np.empty((len(indices), len(g)), dtype=np.complex128)
    for j, b in enumerate(indices):
        out[j] = grid.transition_at_basepoints(key, indices[0], b) * g
    return out


def phi(grid: TransversalGrid, key, tup: np.ndarray) -> np.ndarray:
    """Left inverse of psi: average back to the reference trivialization."""
    indices = key[0]
    acc = np.zeros(tup.shape[1], dtype=np.complex128)
    for j, b in enumerate(indices):
        acc += grid.transition_at_basepoints(key, b, indices[0]) * tup[j]
    return acc / len(indices)


def _tuple_leq(sub: tuple, sup: tuple) -> bool:
    return set(sub) <= set(sup)


def res(grid: TransversalGrid, sub_key, super_key, values: np.ndarray) -> np.ndarray:
    """Weighted restriction from a sub-tuple's overlap to a super-tuple's.

    Component j on the super tuple is (1/(n+1)) sum_k lambda_{sub_k, sup_j}
    f_k, each f_k first transported along its own element from the
    sub-cell's basepoints to the super-cell's.
    """
    sub = grid.nerve.cells[sub_key]
    sup = grid.nerve.cells[super_key]
    if not _tuple_leq(sub.indices, sup.indices):
        raise ConfigurationError(f"{sub.indices} is not a sub-tuple of {sup.indices}")
    cg_sup = grid.cells[super_key]
    cg_sub = grid.cells[sub_key]
    n1 = len(sub.indices)
    moved = np.zeros((n1, cg_sup.count), dtype=np.complex128)
    if cg_sub.closed or cg_sup.closed:
        return np.zeros((len(sup.indices), cg_sup.count), dtype=np.complex128)
    pos_sub = cg_sub.position(cg_sup.label_idx)
    for k, member in enumerate(sub.indices):
        seg = grid.segment(member, sub_key, super_key, pos_sub)
        moved[k] = values[k, pos_sub] * grid.leaf_transport.factor(member, *seg)
    out = np.zeros((len(sup.indices), cg_sup.count), dtype=np.complex128)
    for j, bj in enumerate(sup.indices):
        for k, ak in enumerate(sub.indices):
            lam = grid.transition_at_basepoints(super_key, ak, bj)
            out[j] += lam * moved[k]
    return out / n1


def delta(grid: TransversalGrid, cochain: TrivCochain) -> TrivCochain:
    """The twisted Cech differential via the restriction maps."""
    if cochain.degree + 1 > grid.nerve.max_degree:
        raise ConfigurationError(
            f"nerve holds no degree-{cochain.degree + 1} cells"
        )
    out = zero_cochain(grid, cochain.degree + 1)
    for key in grid.degree_keys(cochain.degree + 1):
        cell = grid.nerve.cells[key]
        acc = out.data[key]
        for j in range(len(cell.indices)):
            face_key = grid.nerve.faces[key][j][0]
            term = res(grid, face_key, key, cochain.data[face_key])
            acc += term if j % 2 == 0 else -term
    return out


# ---------------------------------------------------------------------------
# Matrix assembly and ranks


def _block_offsets(grid: TransversalGrid, degree: int):
    keys = grid.degree_keys(degree)
    offsets, total = {}, 0
    for key in keys:
        offsets[key] = total
        total += grid.cells[key].count
    return keys, offsets, total


@dataclass(frozen=True)
class LeafBlocks:
    """delta on image coefficients as one dense block per leaf label.

    Transport never leaves a leaf, so delta couples only coefficients on
    the same global label.  Each block is (label, rows, cols, matrix): the
    matrix maps the degree-n coefficients at positions cols to the
    degree-(n+1) ones at positions rows.  Rows of labels without a block
    are zero.
    """

    shape: tuple  # (n_dst, n_src)
    blocks: tuple

    def __matmul__(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape[:1] + np.shape(vec)[1:], dtype=np.complex128)
        for _, rows, cols, mat in self.blocks:
            out[rows] = mat @ vec[cols]
        return out

    def toarray(self) -> np.ndarray:
        return self @ np.eye(self.shape[1])

    def singular_values(self) -> np.ndarray:
        """The union of the blocks' singular values, descending, padded with
        zeros to min(shape); one stacked SVD per block shape."""
        n = min(self.shape)
        by_shape: dict = {}
        for *_, mat in self.blocks:
            by_shape.setdefault(mat.shape, []).append(mat)
        sv = [
            np.linalg.svd(np.stack(mats), compute_uv=False).ravel()
            for mats in by_shape.values()
        ]
        return np.sort(np.concatenate(sv + [np.zeros(n)]))[::-1][:n]


def _group_by_label(labels: np.ndarray) -> dict:
    """label -> the ascending indices that carry it."""
    order = np.argsort(labels, kind="stable")
    uniq, starts = np.unique(labels[order], return_index=True)
    return dict(zip(uniq.tolist(), np.split(order, starts[1:])))


def delta_matrix(grid: TransversalGrid, degree: int) -> tuple:
    """delta on image coefficients as LeafBlocks, with index maps.

    Coefficients parameterize each cell's image tuples by the component in
    the first member's trivialization, one per retained leaf label.  Each
    face's transport factors come from one batched LeafTransport call.
    """
    src_keys, src_off, n_src = _block_offsets(grid, degree)
    dst_keys, dst_off, n_dst = _block_offsets(grid, degree + 1)
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0, complex)]
    for key in dst_keys:
        cg = grid.cells[key]
        if cg.closed:
            continue
        ref = grid.nerve.cells[key].indices[0]
        for j, (face_key, _) in enumerate(grid.nerve.faces[key]):
            fcg = grid.cells[face_key]
            if fcg.closed or fcg.count == 0:
                continue
            beta0 = grid.nerve.cells[face_key].indices[0]
            # positions of the cell's labels that the face carries too
            fpos = np.searchsorted(fcg.label_idx, cg.label_idx)
            pos = np.flatnonzero(
                fcg.label_idx[np.minimum(fpos, fcg.count - 1)] == cg.label_idx
            )
            fpos = fpos[pos]
            lam = grid.transition_at_basepoints(key, beta0, ref)[pos]
            fac = grid.leaf_transport.factor(
                beta0, *grid.segment(beta0, face_key, key, fpos)
            )
            rows.append(dst_off[key] + pos)
            cols.append(src_off[face_key] + fpos)
            vals.append((-1) ** j * lam * fac)
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    row_label, col_label = (
        np.concatenate([grid.cells[k].label_idx for k in keys] + [np.empty(0, int)])
        for keys in (dst_keys, src_keys)
    )
    by_row, by_col, by_entry = (
        _group_by_label(lab) for lab in (row_label, col_label, row_label[rows])
    )
    blocks = []
    for g in np.intersect1d(row_label, col_label):
        r, c = by_row[g], by_col[g]
        e = by_entry.get(g, r[:0])  # in entry order, as np.add.at needs
        mat = np.zeros((len(r), len(c)), dtype=np.complex128)
        place = np.searchsorted(r, rows[e]), np.searchsorted(c, cols[e])
        np.add.at(mat, place, vals[e])
        blocks.append((int(g), r, c, mat))
    op = LeafBlocks((n_dst, n_src), tuple(blocks))
    return op, (src_keys, src_off, n_src), (dst_keys, dst_off, n_dst)


def vector_to_cochain(grid, degree: int, vec: np.ndarray) -> TrivCochain:
    keys, off, _ = _block_offsets(grid, degree)
    out = zero_cochain(grid, degree)
    for key in keys:
        cg = grid.cells[key]
        if cg.count:
            out.data[key] = psi(grid, key, vec[off[key] : off[key] + cg.count])
    return out


@dataclass(frozen=True)
class DegreeRank:
    degree: int
    dim_cochains: int
    delta_shape: tuple
    delta_rank: int
    sv_head: tuple
    sv_tail: tuple
    sv_gap: float | None  # sv[rank-1] / sv[rank]; None when there is no gap
    betti: int
    betti_per_leaf: float | None

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "dim_cochains": self.dim_cochains,
            "delta_shape": list(self.delta_shape),
            "delta_rank": self.delta_rank,
            "sv_head": list(self.sv_head),
            "sv_tail": list(self.sv_tail),
            "sv_gap": self.sv_gap,
            "betti": self.betti,
            "betti_per_leaf": self.betti_per_leaf,
        }


@dataclass(frozen=True)
class RankReport:
    degrees: tuple
    n_labels: int
    n_labels_retained: int
    threshold: float
    counters: dict = field(default_factory=dict, compare=False)  # work done

    def betti(self, degree: int) -> int:
        return self.degrees[degree].betti

    def as_dict(self) -> dict:
        return {
            "degrees": [d.as_dict() for d in self.degrees],
            "n_labels": self.n_labels,
            "n_labels_retained": self.n_labels_retained,
            "threshold": self.threshold,
        }


def _numerical_rank(sv: np.ndarray, threshold: float):
    """Rank of an operator from its descending singular values: those above
    threshold times the largest one."""
    if sv.size == 0:
        return 0, (), (), None
    cut = threshold * sv[0] if sv[0] > 0 else threshold
    rank = int(np.sum(sv > cut))
    head = tuple(float(s) for s in sv[:3])
    tail = tuple(float(s) for s in sv[max(0, rank - 1) : rank + 2])
    gap = (
        float(sv[rank - 1] / sv[rank])
        if 0 < rank < len(sv) and sv[rank] > 0
        else None
    )
    return rank, head, tail, gap


def cohomology_ranks(
    cover: TrivializationCover,
    polarization: Polarization,
    n_labels: int,
    threshold: float = 1e-8,
    max_degree: int = 2,
    labels: np.ndarray | None = None,
) -> RankReport:
    """Betti numbers of the discretized trivialization complex.

    Ranks come from singular values with the stated relative threshold; the
    report keeps the spectrum edges and the gap at the cut so borderline
    decisions are auditable.
    """
    if cover.source.nerve is None:
        raise ConfigurationError("cover has no nerve")
    if max_degree > cover.source.nerve.max_degree - 1:
        raise ConfigurationError(
            f"degree cap {max_degree} exceeds nerve bound "
            f"{cover.source.nerve.max_degree - 1}"
        )
    base = polarization.root
    if labels is None:
        labels = half_offset_labels(base.label_range[0], base.label_range[1], n_labels)
    grid = TransversalGrid.build(cover, polarization, labels)
    for key in grid.degree_keys(0):
        cg = grid.cells[key]
        if cg.count == 0 and not cg.closed:
            raise ResolutionError(
                f"grid of {n_labels} labels resolves no leaf in element {key[0][0]}"
            )
    mats = [delta_matrix(grid, n)[0] for n in range(max_degree + 1)]
    rank_info = [_numerical_rank(m.singular_values(), threshold) for m in mats]
    retained = grid.n_labels_retained
    ranks = []
    for n, mat in enumerate(mats):
        rank, head, tail, gap = rank_info[n]
        betti = mat.shape[1] - rank - (rank_info[n - 1][0] if n > 0 else 0)
        ranks.append(
            DegreeRank(
                degree=n,
                dim_cochains=mat.shape[1],
                delta_shape=mat.shape,
                delta_rank=rank,
                sv_head=head,
                sv_tail=tail,
                sv_gap=gap,
                betti=betti,
                betti_per_leaf=(betti / retained) if retained else None,
            )
        )
    transport = grid.leaf_transport
    return RankReport(
        degrees=tuple(ranks),
        n_labels=int(n_labels),
        n_labels_retained=retained,
        threshold=threshold,
        counters={
            "transport_integrals": transport.integrals_computed,
            "transport_batches": transport.batches,
            "leaf_blocks": sum(len(m.blocks) for m in mats),
            "svd_calls": sum(len({b[3].shape for b in m.blocks}) for m in mats),
        },
    )
