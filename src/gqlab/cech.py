"""The trivialization complex and its cohomology.

Polarized functions on a cover element solve a transport equation along
each leaf, so they are determined by one complex value per leaf crossing
the element; the discretization stores exactly those values on a shared
transversal grid of leaf labels.  The lambda-weighted restriction maps, the
differential, and the projection onto tuples representing honest sections
all act on these per-leaf values, with parallel-transport factors supplied
by adaptive quadrature of the connection potential along the leaf: the
transport integrals of one call share one quadrature loop.

Čech ranks are computed from the differential on the image subspaces (one
coefficient per leaf label per nerve cell, taken in the trivialization of
the cell's first member).  Transport never leaves a leaf, so it is
assembled as one dense block per leaf label, and its singular values are
the union of the blocks' (docs/conventions.md, "Ranks").  Each degree is
assembled in one pass: its leaf segments gathered from per-cell frame
tables, one transport call (one quadrature loop) for all of its entries,
one transition evaluation per distinct pair of elements, and one
accumulation per block shape into a stack of blocks.
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


@dataclass(frozen=True)
class CellGrid:
    label_idx: np.ndarray  # indices into the global label array
    c_cell: np.ndarray  # label values lifted into the cell frame
    t_bp: float  # leaf parameter of the basepoints: mid-cell
    closed: bool  # leaf closes inside the cell: no nonzero polarized values
    base_points: np.ndarray  # canonical coords of the leaf basepoints, (L, 2)

    @property
    def count(self) -> int:
        return len(self.label_idx)

    def position(self, global_idx):
        """Position of a global label index, or of an array of them; a label
        the cell does not carry raises, naming the smallest such label."""
        pos = np.searchsorted(self.label_idx, global_idx)
        if self.count:
            found = self.label_idx[np.minimum(pos, self.count - 1)] == global_idx
        else:
            found = np.zeros(np.shape(global_idx), dtype=bool)
        if not np.all(found):
            missing = np.min(np.asarray(global_idx)[~found])
            raise LeafMismatchError(f"label {missing} does not cross the cell")
        return int(pos) if np.ndim(pos) == 0 else pos


@dataclass(frozen=True)
class TransversalGrid:
    """Shared leaf discretization of a cover for one polarization.

    build makes it complete: every cell's labels and basepoints, the nerve
    keys by degree, and the leaf transport whose integral cache is the only
    state that changes after construction.
    """

    cover: TrivializationCover
    polarization: Polarization
    labels: np.ndarray
    cells: dict  # nerve cell key -> CellGrid
    closed_cells: tuple
    keys_by_degree: dict = field(repr=False)  # degree -> sorted nerve keys
    leaf_transport: LeafTransport = field(repr=False, compare=False)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, cover, polarization, labels) -> "TransversalGrid":
        labels = np.asarray(labels, dtype=float)
        pol = polarization
        base = pol.root
        manifold = cover.manifold
        period = pol.leaf_period
        rows = []  # per cell: key, kept labels, their lifts, t_bp, closed
        if base.kind == "axis":
            la, ta = base.label_axis, base.leaf_axis
            boxes = [cell.box for cell in cover.nerve.cells.values()]
            lifts, insides = manifold.lift_labels(
                labels, la, [b.lo[la] for b in boxes], [b.hi[la] for b in boxes]
            )
        for j, (key, cell) in enumerate(cover.nerve.cells.items()):
            if base.kind == "axis":
                lifted = lifts[:, j]
                kept = np.flatnonzero(insides[:, j])
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
                kept = kept[:0]
            rows.append((key, kept, lifted[kept], 0.5 * (t_lo + t_hi), closed))
        # the basepoints of every cell in one curve call; it acts point by
        # point, so each cell gets what a call on its own labels gives
        counts = [len(kept) for _, kept, *_ in rows]
        c = np.concatenate([c_cell for _, _, c_cell, *_ in rows] + [np.empty(0)])
        t = np.repeat([t_bp for *_, t_bp, _ in rows], counts)
        points = manifold.reduce(pol.curve_points(c, t))
        parts = np.split(points, np.cumsum(counts)[:-1])
        cells = {key: CellGrid(*row, part) for (key, *row), part in zip(rows, parts)}
        by_degree: dict = {}
        for key in sorted(cover.nerve.cells):
            by_degree.setdefault(len(key[0]) - 1, []).append(key)
        return cls(
            cover=cover,
            polarization=pol,
            labels=labels,
            cells=cells,
            closed_cells=tuple(key for key, *_, closed in rows if closed),
            keys_by_degree={d: tuple(keys) for d, keys in by_degree.items()},
            leaf_transport=LeafTransport(cover, pol),
        )

    @property
    def nerve(self):
        return self.cover.nerve

    def degree_keys(self, n: int) -> tuple:
        """The keys of the nerve cells of degree n, sorted."""
        return self.keys_by_degree.get(n, ())

    @property
    def n_labels_retained(self) -> int:
        used = set()
        for key in self.degree_keys(0):
            used.update(self.cells[key].label_idx.tolist())
        return len(used)

    # -- geometry helpers ----------------------------------------------------

    def transition_at_basepoints(self, key, a: int, b: int) -> np.ndarray:
        return self.cover.transition(a, b, self.cells[key].base_points)

    def sub_cell_for(self, super_key, sub_indices: tuple):
        """Nerve cell of sub_indices whose overlap contains the super cell."""
        sup = self.nerve.cells[super_key]
        manifold = self.cover.manifold
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
                return key, off
        raise ConfigurationError(
            f"no cell of {sub_indices} contains the overlap {super_key}"
        )

    # -- parallel transport --------------------------------------------------

    def frames(self, keys):
        """The leaf parameter of the basepoints and the shift of the labels
        of every cell of keys, all of one degree, in the frame of each of
        its members: two (cells, members) arrays t and shift.  In member
        m's frame the leaf segment from cell f to cell k runs from t[f, m]
        to t[k, m], at the labels c_cell of f plus shift[f, m]."""
        base = self.polarization.root
        periods = self.cover.manifold.periods
        la, lab = (base.leaf_axis, base.label_axis) if base.kind == "axis" else (1, 0)
        p_leaf = periods[la] or 0.0
        p_lab = (periods[lab] or 0.0) if base.kind == "axis" else 0.0
        cells = [(self.cells[key].t_bp, self.nerve.cells[key].shifts) for key in keys]
        t = [[t_bp + s[la] * p_leaf for s in shifts] for t_bp, shifts in cells]
        shift = [[s[lab] * p_lab for s in shifts] for _, shifts in cells]
        return np.array(t), np.array(shift)


# ---------------------------------------------------------------------------
# Cochain data


@dataclass(frozen=True)
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
    if cg_sub.closed or cg_sup.closed:
        return np.zeros((len(sup.indices), cg_sup.count), dtype=np.complex128)
    pos_sub = cg_sub.position(cg_sup.label_idx)
    (t0,), (shift,) = grid.frames([sub_key])
    t1 = grid.frames([super_key])[0][0, [sup.indices.index(m) for m in sub.indices]]
    count = cg_sup.count
    integrals = grid.leaf_transport.integral(
        np.array(sub.indices).repeat(count),
        t0.repeat(count),
        t1.repeat(count),
        (cg_sub.c_cell[pos_sub] + shift[:, None]).ravel(),
    )
    moved = values[:, pos_sub] * np.exp(-1j * integrals).reshape(n1, count)
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
    are zero.  The matrices are views into stacks, one (n, rows, cols)
    array per block shape.
    """

    shape: tuple  # (n_dst, n_src)
    blocks: tuple  # (label, rows, cols, matrix), ascending label
    stacks: tuple
    transition_batches: int = 0  # cover.transition calls made to assemble it

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
        sv = [np.linalg.svd(stack, compute_uv=False).ravel() for stack in self.stacks]
        return np.sort(np.concatenate(sv + [np.zeros(n)]))[::-1][:n]


def _coefficient_table(grid: TransversalGrid, keys, total: int):
    """cells x global labels: the coefficient index of each cell's label,
    -1 where the cell does not carry it; and the label of each index."""
    idx = [grid.cells[key].label_idx for key in keys]
    labels = np.concatenate(idx + [np.empty(0, int)])
    table = np.full((len(keys), len(grid.labels)), -1)
    table[np.repeat(np.arange(len(keys)), [len(i) for i in idx]), labels] = (
        np.arange(total)
    )
    return table, labels


def _by_label(labels: np.ndarray, n_labels: int):
    """Counts per label, each index's rank among the indices carrying its
    label, and per label the slice of the ascending order it occupies."""
    counts = np.bincount(labels, minlength=n_labels)
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(counts) - counts
    rank = np.empty(len(labels), dtype=int)
    rank[order] = np.arange(len(labels)) - np.repeat(starts, counts)
    return counts, rank, order, starts


def delta_matrix(grid: TransversalGrid, degree: int) -> tuple:
    """delta on image coefficients as LeafBlocks, with index maps.

    Coefficients parameterize each cell's image tuples by the component in
    the first member's trivialization, one per retained leaf label.  The
    degree is assembled in one pass (docs/conventions.md, "Ranks"): its
    entries, in (cell, face, label) order, come from one broadcast of
    cells x labels tables; transitions are evaluated once per distinct
    element pair, and the transport integrals of all entries are one
    LeafTransport.integral call.
    """
    src_keys, src_off, n_src = _block_offsets(grid, degree)
    dst_keys, dst_off, n_dst = _block_offsets(grid, degree + 1)
    index_maps = (src_keys, src_off, n_src), (dst_keys, dst_off, n_dst)
    if n_dst == 0 or n_src == 0:
        return LeafBlocks((n_dst, n_src), (), ()), *index_maps
    n_labels = len(grid.labels)
    dst_tab, row_label = _coefficient_table(grid, dst_keys, n_dst)
    src_tab, col_label = _coefficient_table(grid, src_keys, n_src)
    src_index = {key: i for i, key in enumerate(src_keys)}
    faces = np.array(  # cells x faces, in the nerve's face order
        [[src_index[f] for f, _ in grid.nerve.faces[key]] for key in dst_keys]
    )
    face_tab = src_tab[faces]  # cells x faces x labels
    cell, j, g = np.nonzero((dst_tab[:, None, :] >= 0) & (face_tab >= 0))
    rows, cols = dst_tab[cell, g], face_tab[cell, j, g]
    # face j drops the cell's j-th member, so the face's first member, beta0,
    # sits at position 1 of the cell for face 0 and at position 0 otherwise
    at = (j == 0).astype(int)
    members = np.array([grid.nerve.cells[key].indices for key in dst_keys])
    beta0, ref = members[cell, at], members[cell, 0]

    # lambda_{beta0, ref} at the cell's basepoints; ones when beta0 == ref
    lam = np.ones(len(rows), dtype=np.complex128)
    moved = np.flatnonzero(beta0 != ref)
    n_elem = len(grid.cover.elements)
    codes, which = np.unique(beta0[moved] * n_elem + ref[moved], return_inverse=True)
    if len(codes):
        base = np.concatenate([grid.cells[key].base_points for key in dst_keys])
        for u, code in enumerate(codes.tolist()):
            e = moved[which == u]
            lam[e] = grid.cover.transition(*divmod(code, n_elem), base[rows[e]])
    # transport in beta0's frame from the face's basepoints to the cell's,
    # on the face's labels: one integral call for the whole degree
    face = faces[cell, j]
    face_t, face_shift = grid.frames(src_keys)
    cell_t = grid.frames(dst_keys)[0]
    c_cell = np.concatenate([grid.cells[key].c_cell for key in src_keys])
    integrals = grid.leaf_transport.integral(
        beta0, face_t[face, 0], cell_t[cell, at], c_cell[cols] + face_shift[face, 0]
    )
    sign = 1 - 2 * (j % 2)
    vals = sign * lam * np.exp(-1j * integrals)

    # one zero stack per block shape, filled in entry order
    n_rows, row_rank, row_order, row_start = _by_label(row_label, n_labels)
    n_cols, col_rank, col_order, col_start = _by_label(col_label, n_labels)
    labels = np.flatnonzero((n_rows > 0) & (n_cols > 0))
    shapes, stack_of = np.unique(
        n_rows[labels] * (n_src + 1) + n_cols[labels], return_inverse=True
    )
    sizes, slot, _, _ = _by_label(stack_of, len(shapes))
    stacks = tuple(
        np.zeros((size, *divmod(shape, n_src + 1)), dtype=np.complex128)
        for size, shape in zip(sizes.tolist(), shapes.tolist())
    )
    block_of = np.full(n_labels, -1)
    block_of[labels] = np.arange(len(labels))
    entry_block = block_of[g]
    entry_stack = stack_of[entry_block]
    for s, stack in enumerate(stacks):
        e = np.flatnonzero(entry_stack == s)
        place = slot[entry_block[e]], row_rank[rows[e]], col_rank[cols[e]]
        np.add.at(stack, place, vals[e])
    blocks = []
    for g, s, k, r0, c0 in zip(
        *(a.tolist() for a in (labels, stack_of, slot, row_start[labels], col_start[labels]))
    ):
        mat = stacks[s][k]
        r, c = mat.shape
        blocks.append((g, row_order[r0 : r0 + r], col_order[c0 : c0 + c], mat))
    op = LeafBlocks((n_dst, n_src), tuple(blocks), stacks, len(codes))
    return op, *index_maps


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
    grid: TransversalGrid | None = None,
) -> RankReport:
    """Betti numbers of the discretized trivialization complex.

    Ranks come from singular values with the stated relative threshold; the
    report keeps the spectrum edges and the gap at the cut so borderline
    decisions are auditable.  The complex lives on `grid`, a
    TransversalGrid of this cover and polarization with n_labels labels;
    by default one is built on the half-offset labels of the polarization's
    label range.  A grid handed in keeps its transport integrals for the
    caller to reuse.
    """
    if max_degree > cover.nerve.max_degree - 1:
        raise ConfigurationError(
            f"degree cap {max_degree} exceeds nerve bound "
            f"{cover.nerve.max_degree - 1}"
        )
    if grid is None:
        lo, hi = polarization.root.label_range
        grid = TransversalGrid.build(
            cover, polarization, half_offset_labels(lo, hi, n_labels)
        )
    elif grid.cover is not cover or grid.polarization is not polarization:
        raise ConfigurationError("grid is for another cover or polarization")
    elif len(grid.labels) != n_labels:
        raise ConfigurationError(
            f"grid holds {len(grid.labels)} labels, not {n_labels}"
        )
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
            "svd_calls": sum(len(m.stacks) for m in mats),
            "transition_batches": sum(m.transition_batches for m in mats),
        },
    )
