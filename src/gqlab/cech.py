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
one transition call for all of them (one evaluator run per distinct
transition formula), and one accumulation per block shape into a stack of
blocks.  The pointwise differential on cochains (delta, through res) is an
independent implementation of the same operator, on tuples over all
members of each cell; it too makes one transport call and one transition
call per degree, and the block assembly is tested against it.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .geometry import LeafFrame, Polarization
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


class CellGrid(NamedTuple):
    label_idx: np.ndarray  # indices into the global label array
    c_cell: np.ndarray  # label values lifted into the cell frame
    t_bp: float  # leaf parameter of the basepoints: mid-cell
    closed: bool  # leaf closes inside the cell: no nonzero polarized values
    base_points: np.ndarray  # canonical coords of the leaf basepoints, (L, 2)

    @property
    def count(self) -> int:
        return len(self.label_idx)


class TransversalGrid(NamedTuple):
    """Shared leaf discretization of a cover for one polarization.

    build makes it complete: every cell's labels and basepoints, the nerve
    keys by degree, the LeafFrame of the nerve's cells (how leaves cross
    them, the rule the leaf atlas uses too), and the leaf transport whose
    integral cache is the only state that changes after construction.
    """

    cover: TrivializationCover
    polarization: Polarization
    labels: np.ndarray
    cells: dict  # nerve cell key -> CellGrid
    closed_cells: tuple
    keys_by_degree: dict  # degree -> sorted nerve keys
    frame: LeafFrame  # of the nerve's cells
    leaf_transport: LeafTransport

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, cover, polarization, labels) -> "TransversalGrid":
        labels = np.asarray(labels, dtype=float)
        pol = polarization
        manifold = cover.manifold
        keys = list(cover.nerve.cells)
        frame = LeafFrame.of(
            manifold, pol, [cell.box for cell in cover.nerve.cells.values()]
        )
        lifted, inside = frame.lift(labels)
        # a cell that holds a whole leaf carries no nonzero polarized values
        kept = [np.flatnonzero(col) for col in (inside & ~frame.whole).T]
        c_cells = [lifted[idx, j] for j, idx in enumerate(kept)]
        t_bps = (0.5 * (frame.leaf_lo + frame.leaf_hi)).tolist()
        closed = frame.whole.tolist()
        # the basepoints of every cell in one curve call; it acts point by
        # point, so each cell gets what a call on its own labels gives
        counts = [len(idx) for idx in kept]
        c = np.concatenate(c_cells + [np.empty(0)])
        points = manifold.reduce(pol.curve_points(c, np.repeat(t_bps, counts)))
        parts = np.split(points, np.cumsum(counts)[:-1])
        cells = {
            key: CellGrid(*row)
            for key, *row in zip(keys, kept, c_cells, t_bps, closed, parts)
        }
        by_degree: dict = {}
        for key in sorted(keys):
            by_degree.setdefault(len(key[0]) - 1, []).append(key)
        return cls(
            cover=cover,
            polarization=pol,
            labels=labels,
            cells=cells,
            closed_cells=tuple(key for key, shut in zip(keys, closed) if shut),
            keys_by_degree={d: tuple(ks) for d, ks in by_degree.items()},
            frame=frame,
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

    def sub_cell_for(self, super_key, sub_indices: tuple):
        """Nerve cell of sub_indices whose overlap contains the super cell,
        and the shift of its first member in the super cell's frame: the
        face of the super cell that drops the other members, one at a time."""
        sup = self.nerve.cells[super_key]
        key = super_key
        for m in sup.indices:
            if m not in sub_indices and len(key[0]) > 1:
                key = self.nerve.faces[key][key[0].index(m)][0]
        if not sub_indices or key[0] != tuple(sub_indices):
            raise ConfigurationError(
                f"{tuple(sub_indices)} is not a sub-tuple of {sup.indices}"
            )
        return key, sup.shifts[sup.indices.index(sub_indices[0])]

    # -- parallel transport --------------------------------------------------

    def frames(self, keys):
        """The leaf parameter of the basepoints and the shift of the labels
        of every cell of keys, all of one degree, in the frame of each of
        its members: two (cells, members) arrays t and shift.  In member
        m's frame the leaf segment from cell f to cell k runs from t[f, m]
        to t[k, m], at the labels c_cell of f plus shift[f, m]."""
        t_bp = np.array([self.cells[key].t_bp for key in keys])
        dt, shift = self.frame.offsets([self.nerve.cells[key].shifts for key in keys])
        return t_bp[:, None] + dt, shift


def half_offset_grid(cover, polarization, count: int) -> TransversalGrid:
    """The grid of `count` half-offset labels across the label range of
    the polarization's root, which a pushforward shares: the grid of
    `cohomology`, and of both sides of theorem 1."""
    lo, hi = polarization.root.label_range
    return TransversalGrid.build(cover, polarization, half_offset_labels(lo, hi, count))


# ---------------------------------------------------------------------------
# Cochain data


class TrivCochain(NamedTuple):
    degree: int
    data: dict  # cell key -> ndarray (degree + 1, n_labels(cell))

    def norm(self) -> float:
        vals = [np.max(np.abs(v)) for v in self.data.values() if v.size]
        return float(max(vals)) if vals else 0.0


def zero_cochain(grid: TransversalGrid, degree: int) -> TrivCochain:
    data = {
        key: np.zeros((degree + 1, grid.cells[key].count), dtype=np.complex128)
        for key in grid.degree_keys(degree)
    }
    return TrivCochain(degree, data)


def _side_by_side(grid: TransversalGrid, keys, degree: int, values) -> TrivCochain:
    """The cochain of degree on keys whose tuples sit side by side in the
    columns of values, one cell after another in key order (views)."""
    data, start = {}, 0
    for key in keys:
        stop = start + grid.cells[key].count
        data[key], start = values[:, start:stop], stop
    return TrivCochain(degree, data)


def random_projected_cochain(grid, degree: int, rng) -> TrivCochain:
    """A random cochain in the image: each cell's tuple drawn from rng in key
    order, then all of them projected by one project_to_image call."""
    keys = list(grid.degree_keys(degree))
    raw = [np.empty((degree + 1, 0))]
    for key in keys:
        shape = (degree + 1, grid.cells[key].count)
        raw.append(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    projected = project_to_image(grid, keys, np.concatenate(raw, axis=1))
    return _side_by_side(grid, keys, degree, projected)


# ---------------------------------------------------------------------------
# Operations


def _member_transitions(grid: TransversalGrid, keys) -> np.ndarray:
    """lambda_{a_k a_j} between the members a of every cell of keys, all of
    one degree, at the cell's basepoints: a (members, members, labels)
    array, the cells' labels side by side in key order.  One transition
    call, which evaluates each distinct transition formula once."""
    cells = [grid.cells[key] for key in keys]
    members = np.repeat(_members(keys), [cg.count for cg in cells], axis=0).T
    base = np.concatenate([cg.base_points for cg in cells])
    n = len(members)
    lam = grid.cover.transition(
        np.repeat(members, n, axis=0).ravel(),
        np.concatenate([members] * n).ravel(),
        np.concatenate([base] * (n * n)),
    )
    return lam.reshape(n, n, len(base))


def _members(keys) -> np.ndarray:
    """The member indices of nerve cells of one degree, a (cells, members)
    array."""
    return np.array([key[0] for key in keys], dtype=int).reshape(len(keys), -1)


def _distinct(keys) -> tuple:
    """The distinct keys, in order of first appearance, and the index of
    each key among them."""
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    return list(index), np.array([index[key] for key in keys], dtype=int)


def project_to_image(grid: TransversalGrid, key, tup: np.ndarray) -> np.ndarray:
    """Average a tuple into the image of the section representation.

    Components become f_j = (1/(n+1)) sum_k lambda_{a_k a_j} f_k; the map is
    idempotent and fixes exactly the tuples representing honest sections.
    key is one cell, or a list of cells of one degree whose tuples sit side
    by side in the columns of tup; either way the transitions are one
    transition call at the cells' basepoints.
    """
    n1 = tup.shape[0]
    out = np.zeros(tup.shape, dtype=np.complex128)
    if tup.shape[1]:
        lam = _member_transitions(grid, key if isinstance(key, list) else [key])
        for k in range(n1):
            out += lam[k] * tup[k]
    return out / n1


def psi(grid: TransversalGrid, key, g: np.ndarray) -> np.ndarray:
    """Tuple representation of a section given in the cell's reference
    trivialization (the first member)."""
    indices, base = key[0], grid.cells[key].base_points
    out = np.empty((len(indices), len(g)), dtype=np.complex128)
    for j, b in enumerate(indices):
        out[j] = grid.cover.transition(indices[0], b, base) * g
    return out


def phi(grid: TransversalGrid, key, tup: np.ndarray) -> np.ndarray:
    """Left inverse of psi: average back to the reference trivialization."""
    indices, base = key[0], grid.cells[key].base_points
    acc = np.zeros(tup.shape[1], dtype=np.complex128)
    for j, b in enumerate(indices):
        acc += grid.cover.transition(b, indices[0], base) * tup[j]
    return acc / len(indices)


def res(grid: TransversalGrid, sub_key, super_key, values) -> np.ndarray:
    """Weighted restriction from a sub-tuple's overlap to a super-tuple's.

    Component j on the super tuple is (1/(n+1)) sum_k lambda_{sub_k, sup_j}
    f_k, each f_k first transported along its own element from the
    sub-cell's basepoints to the super-cell's; a pair with a closed cell
    gives zeros.  One pair of keys with the sub cell's (n+1, count) values
    gives the restriction.  Lists of keys, pair by pair (subs of one
    degree, supers of one degree), with a mapping from each sub key to its
    values (a cochain's data) give the restrictions of all pairs side by
    side in the columns of one array.  Either way the entries (pair, super
    label, sub member) are gathered from tables of the distinct cells:
    one frames call per degree, one transport call and one transition
    call (docs/conventions.md, "Ranks").
    """
    if not isinstance(sub_key, list):
        sub_key, super_key, values = [sub_key], [super_key], {sub_key: values}
    subs, sub_of = _distinct(sub_key)
    sups, sup_of = _distinct(super_key)
    sub, sup = _members(subs)[sub_of], _members(sups)[sup_of]  # per pair
    same = sup[:, :, None] == sub[:, None, :]  # pairs x super x sub members
    outside = np.flatnonzero(~same.any(axis=1).all(axis=1))
    if len(outside):
        b = outside[0]
        raise ConfigurationError(
            f"{sub_key[b][0]} is not a sub-tuple of {super_key[b][0]}"
        )
    sub_cells = [grid.cells[key] for key in subs]
    sup_cells = [grid.cells[key] for key in sups]
    n1, n = sub.shape[1], sup.shape[1]
    sup_count = np.array([cg.count for cg in sup_cells], dtype=int)
    n_sup = sup_count[sup_of]
    out = np.zeros((n, int(n_sup.sum())), dtype=np.complex128)
    if not out.shape[1]:
        return out
    # entry: a pair and a label of its super cell, at position `row` of the
    # super cells' labels side by side, and at column `col` of the sub
    # cells' values side by side (-1 where the sub cell does not carry it)
    pair = np.repeat(np.arange(len(sub_key)), n_sup)
    shift_rows = (np.cumsum(sup_count) - sup_count)[sup_of] - (np.cumsum(n_sup) - n_sup)
    row = np.arange(len(pair)) + np.repeat(shift_rows, n_sup)
    labels = np.concatenate([cg.label_idx for cg in sup_cells])[row]
    sub_table, _ = _coefficient_table(grid, subs, sum(cg.count for cg in sub_cells))
    col = sub_table[sub_of[pair], labels]
    closed = np.array([cg.closed for cg in sub_cells])[sub_of[pair]]
    if np.any((col < 0) & ~closed):
        missing = labels[(col < 0) & ~closed].min()
        raise LeafMismatchError(f"label {missing} does not cross the cell")
    e = np.flatnonzero(col >= 0)
    pe, col, row = pair[e], col[e], row[e]
    s, u = sub_of[pe], sup_of[pe]
    at = same.argmax(axis=1)[pe].T  # each sub member's place in the super cell
    # transport of every sub member in its own frame, from the sub cell's
    # basepoints to the super cell's
    t0, shift = grid.frames(subs)
    t1 = grid.frames(sups)[0]
    c_sub = np.concatenate([cg.c_cell for cg in sub_cells])
    integrals = grid.leaf_transport.integral(
        sub[pe].T.ravel(), t0[s].T.ravel(), t1[u, at].ravel(),
        (c_sub[col] + shift[s].T).ravel(),
    )
    f = np.concatenate([values[key] for key in subs], axis=1)
    moved = f[:, col] * np.exp(-1j * integrals).reshape(n1, len(e))
    lam = _member_transitions(grid, sups)
    lam = lam[at[:, None, :], np.arange(n)[None, :, None], row]
    acc = np.zeros((n, len(e)), dtype=np.complex128)
    for k in range(n1):
        acc += lam[k] * moved[k]
    out[:, e] = acc / n1
    return out


def delta(grid: TransversalGrid, cochain: TrivCochain) -> TrivCochain:
    """The twisted Cech differential via the restriction maps: on each cell,
    the alternating sum over its faces j of res(face j, cell), all cells
    and faces of the degree in one res call.  A degree whose cells are all
    closed is zero."""
    degree = cochain.degree + 1
    if degree > grid.nerve.max_degree:
        raise ConfigurationError(f"nerve holds no degree-{degree} cells")
    keys = list(grid.degree_keys(degree))
    total = sum(grid.cells[key].count for key in keys)
    if not total:
        return zero_cochain(grid, degree)
    faces = [grid.nerve.faces[key][j][0] for j in range(degree + 1) for key in keys]
    terms = res(grid, faces, keys * (degree + 1), cochain.data)
    terms = terms.reshape(degree + 1, degree + 1, total)
    acc = np.zeros((degree + 1, total), dtype=np.complex128)
    for j in range(degree + 1):
        acc += terms[:, j] if j % 2 == 0 else -terms[:, j]
    return _side_by_side(grid, keys, degree, acc)


# ---------------------------------------------------------------------------
# Matrix assembly and ranks


def _block_offsets(grid: TransversalGrid, degree: int):
    keys = grid.degree_keys(degree)
    offsets, total = {}, 0
    for key in keys:
        offsets[key] = total
        total += grid.cells[key].count
    return keys, offsets, total


class LeafBlocks(NamedTuple):
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
    transition_batches: int = 0  # transition formulas evaluated to assemble it

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
    cells x labels tables; the transitions of all entries are one
    cover.transition call, and their transport integrals one
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

    # lambda_{beta0, ref} at the cell's basepoints, ones when beta0 == ref:
    # one transition call for the degree
    lam = np.ones(len(rows), dtype=np.complex128)
    moved = np.flatnonzero(beta0 != ref)
    formulas = 0
    if len(moved):
        cover = grid.cover
        formulas = len(set(cover.transition_formulas(beta0[moved], ref[moved]).tolist()))
        base = np.concatenate([grid.cells[key].base_points for key in dst_keys])
        lam[moved] = cover.transition(beta0[moved], ref[moved], base[rows[moved]])
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
    op = LeafBlocks((n_dst, n_src), tuple(blocks), stacks, formulas)
    return op, *index_maps


def vector_to_cochain(grid, degree: int, vec: np.ndarray) -> TrivCochain:
    keys, off, _ = _block_offsets(grid, degree)
    out = zero_cochain(grid, degree)
    for key in keys:
        cg = grid.cells[key]
        if cg.count:
            out.data[key] = psi(grid, key, vec[off[key] : off[key] + cg.count])
    return out


class DegreeRank(NamedTuple):
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


class RankReport(NamedTuple):
    degrees: tuple
    n_labels: int
    n_labels_retained: int
    threshold: float
    counters: Mapping = MappingProxyType({})  # work done

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
    grid: TransversalGrid, threshold: float = 1e-8, max_degree: int = 2
) -> RankReport:
    """Betti numbers of the discretized trivialization complex on grid.

    Ranks come from singular values with the stated relative threshold; the
    report keeps the spectrum edges and the gap at the cut so borderline
    decisions are auditable.  The grid keeps its transport integrals for
    the caller to reuse.
    """
    nerve_bound = grid.nerve.max_degree - 1
    if max_degree > nerve_bound:
        raise ConfigurationError(
            f"degree cap {max_degree} exceeds nerve bound {nerve_bound}"
        )
    n_labels = len(grid.labels)
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
        n_labels=n_labels,
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
