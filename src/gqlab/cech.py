"""The trivialization complex and its cohomology.

Polarized functions on a cover element solve a transport equation along
each leaf, so they are determined by one complex value per leaf crossing
the element; the discretization stores exactly those values on a shared
transversal grid of leaf labels.  The lambda-weighted restriction maps
and the differential act on these per-leaf values, with
parallel-transport factors supplied by adaptive quadrature of the
connection potential along the leaf: the transport integrals of one call
share one quadrature loop.

The grid keeps, per nerve degree, one column per quantity over the
degree's (cell, label) entries, cell after cell in the nerve's row order
(GridDegree); every operation gathers from these columns and the nerve's
tables, by row.

The differential acts on the image subspaces: one coefficient per leaf
label per nerve cell, taken in the trivialization of the cell's first
member, which psi turns into the tuple over all members.  Transport never
leaves a leaf, so the differential is assembled as one dense block per
leaf label, and its singular values, from which the Čech ranks come, are
the union of the blocks' (docs/conventions.md, "Ranks").  Each degree is
assembled in one pass: its leaf segments gathered from per-degree frame
tables, one transport call (one quadrature loop) for all of its entries,
one transition call for all of them (one evaluator run per distinct
transition formula), and one accumulation per block shape into a stack of
blocks.  The ranks, delta on coefficient vectors and so theorem 1's
commutation check all read these blocks, the one implementation of the
differential; the tests check the blocks against a per-face reference.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import trace
from .geometry import LeafFrame, Polarization
from .prequantum import ConfigurationError, TrivializationCover
from .record import read_only
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


class GridDegree(NamedTuple):
    """The retained leaf labels of the cells of one nerve degree, as
    read-only columns: one entry per (cell, label), cell after cell in the
    nerve's row order, labels ascending within a cell."""

    starts: np.ndarray  # (cells + 1,): cell r's entries are starts[r]:starts[r + 1]
    cells: np.ndarray  # the row of each entry's cell
    label_idx: np.ndarray  # each entry's index into the grid's labels
    c_cell: np.ndarray  # each entry's label lifted into its cell's frame
    base_points: np.ndarray  # (entries, 2): canonical coords of the leaf basepoints
    t_bp: np.ndarray  # (cells,): leaf parameter of the basepoints, mid-cell
    closed: np.ndarray  # (cells,): the leaf closes inside: no nonzero polarized values


# the columns of a degree without cells, which grids share
_NO_CELLS = GridDegree(*read_only(
    np.zeros(1, dtype=int), np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0),
    np.empty((0, 2)), np.empty(0), np.empty(0, dtype=bool),
))


class TransversalGrid(NamedTuple):
    """Shared leaf discretization of a cover for one polarization.

    build makes it complete: one GridDegree per nerve degree, with every
    cell's labels and basepoints, the LeafFrame of the nerve's cells,
    degree after degree (how leaves cross them, the rule the leaf atlas
    uses too), and the leaf transport whose integral cache is the only
    state that changes after construction.
    """

    cover: TrivializationCover
    polarization: Polarization
    labels: np.ndarray
    degrees: tuple  # the GridDegree of each nerve degree
    frame: LeafFrame  # of the nerve's cells, degree after degree
    leaf_transport: LeafTransport

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, cover, polarization, labels) -> "TransversalGrid":
        """The grid of labels: one crossing mask of every nerve cell and
        label, whose nonzero entries, cell by cell, are the columns of
        every degree, and one curve call for all their basepoints."""
        labels = np.asarray(labels, dtype=float)
        pol, manifold, tables = polarization, cover.manifold, cover.nerve.degrees
        frame = LeafFrame.of(
            manifold, pol,
            np.concatenate([table.lo for table in tables]),
            np.concatenate([table.hi for table in tables]),
        )
        lifted, inside = frame.lift(labels)
        # a cell that holds a whole leaf carries no nonzero polarized values
        cell, label = np.nonzero((inside & ~frame.whole).T)
        c = lifted[label, cell]
        t_bp = 0.5 * (frame.leaf_lo + frame.leaf_hi)
        # the basepoints of every cell in one curve call; it acts point by
        # point, so each cell gets what a call on its own labels gives
        points = manifold.reduce(pol.curve_points(c, t_bp[cell]))
        bounds = np.cumsum([0] + [len(table.keys) for table in tables]).tolist()
        starts = np.searchsorted(cell, np.arange(bounds[-1] + 1))
        degrees = []
        for lo, hi in zip(bounds, bounds[1:]):
            if lo == hi:
                degrees.append(_NO_CELLS)
                continue
            a, b = int(starts[lo]), int(starts[hi])
            degrees.append(GridDegree(*read_only(
                starts[lo : hi + 1] - a, cell[a:b] - lo, label[a:b], c[a:b],
                points[a:b], t_bp[lo:hi], frame.whole[lo:hi],
            )))
        return cls(
            cover=cover,
            polarization=pol,
            labels=labels,
            degrees=tuple(degrees),
            frame=frame,
            leaf_transport=LeafTransport(cover, pol),
        )

    @property
    def nerve(self):
        return self.cover.nerve

    def degree_keys(self, n: int) -> tuple:
        """The keys of the nerve cells of degree n, sorted."""
        return self.cover.nerve.degrees[n].keys if n < len(self.degrees) else ()

    def span(self, key) -> tuple:
        """(degree, slice): the entries of the cell key in its degree's
        columns."""
        degree, row = self.nerve.locate(key)
        starts = self.degrees[degree].starts
        return degree, slice(int(starts[row]), int(starts[row + 1]))

    @property
    def n_labels_retained(self) -> int:
        return int(np.count_nonzero(np.bincount(self.degrees[0].label_idx, minlength=1)))

    # -- geometry helpers ----------------------------------------------------

    def sub_cell_for(self, super_key, sub_indices: tuple):
        """Nerve cell of sub_indices whose overlap contains the super cell,
        and the shift of its first member in the super cell's frame: the
        face of the super cell that drops the other members, one at a time."""
        nerve = self.nerve
        sup_degree, sup_row = nerve.locate(super_key)
        degree, row, members = sup_degree, sup_row, list(super_key[0])
        for m in super_key[0]:
            if m not in sub_indices and len(members) > 1:
                j = members.index(m)
                row = int(nerve.degree(degree).faces[row, j])
                degree -= 1
                del members[j]
        if not sub_indices or tuple(members) != tuple(sub_indices):
            raise ConfigurationError(
                f"{tuple(sub_indices)} is not a sub-tuple of {super_key[0]}"
            )
        shifts = nerve.degree(sup_degree).shifts[sup_row, super_key[0].index(sub_indices[0])]
        return nerve.degree(degree).keys[row], tuple(shifts.tolist())

    # -- parallel transport --------------------------------------------------

    def frames(self, n: int):
        """The leaf parameter of the basepoints and the shift of the labels
        of every cell of degree n, in the frame of each of its members:
        two (cells, members) arrays t and shift.  In member m's frame the
        leaf segment from cell f to cell k runs from t[f, m] to t[k, m],
        at the labels c_cell of f plus shift[f, m]."""
        dt, shift = self.frame.offsets(self.nerve.degree(n).shifts)
        return self.degrees[n].t_bp[:, None] + dt, shift


def half_offset_grid(cover, polarization, count: int) -> TransversalGrid:
    """The grid of `count` half-offset labels across the label range of
    the polarization's root, which a pushforward shares: the grid of
    `cohomology`, and of both sides of theorem 1."""
    lo, hi = polarization.root.label_range
    return TransversalGrid.build(cover, polarization, half_offset_labels(lo, hi, count))


# ---------------------------------------------------------------------------
# Operations


def _member_transitions(grid: TransversalGrid, degree: int, entries) -> np.ndarray:
    """lambda_{a_k a_j} between the members a of the cell of each of the
    given entries of a degree's columns, at the entry's basepoint: a
    (members, members, entries) array.  One transition call, which
    evaluates each distinct transition formula once."""
    columns = grid.degrees[degree]
    members = grid.nerve.degree(degree).members[columns.cells[entries]].T
    base = columns.base_points[entries]
    n = len(members)
    lam = grid.cover.transition(
        np.repeat(members, n, axis=0).ravel(),
        np.concatenate([members] * n).ravel(),
        np.concatenate([base] * (n * n)),
    )
    return lam.reshape(n, n, len(base))


def _entries(grid: TransversalGrid, keys) -> tuple:
    """(degree, entries): the entries of the cells of keys, all of one
    degree, side by side in the degree's columns."""
    spans = [grid.span(key) for key in keys]
    entries = [np.arange(span.start, span.stop) for _, span in spans]
    return spans[0][0], np.concatenate(entries)


def psi(grid: TransversalGrid, key, g: np.ndarray) -> np.ndarray:
    """Tuple representation of a section given in the cell's reference
    trivialization (the first member): component j is lambda_{a_0 a_j} g.

    key is one cell, or a list of cells of one degree whose coefficients
    sit side by side in g; either way the transitions are one transition
    call at the cells' basepoints.
    """
    degree, entries = _entries(grid, key if isinstance(key, list) else [key])
    columns = grid.degrees[degree]
    members = grid.nerve.degree(degree).members[columns.cells[entries]].T
    lam = grid.cover.transition(
        np.broadcast_to(members[0], members.shape).ravel(),
        members.ravel(),
        np.concatenate([columns.base_points[entries]] * len(members)),
    )
    return lam.reshape(members.shape) * g


def phi(grid: TransversalGrid, key, tup: np.ndarray) -> np.ndarray:
    """Left inverse of psi: average back to the reference trivialization."""
    degree, span = grid.span(key)
    indices, base = key[0], grid.degrees[degree].base_points[span]
    acc = np.zeros(tup.shape[1], dtype=np.complex128)
    for j, b in enumerate(indices):
        acc += grid.cover.transition(b, indices[0], base) * tup[j]
    return acc / len(indices)


def res(grid: TransversalGrid, sub_key, super_key, values) -> np.ndarray:
    """Weighted restriction from a sub-tuple's overlap to a super-tuple's.

    Component j on the super tuple is (1/(n+1)) sum_k lambda_{sub_k, sup_j}
    f_k, each f_k first transported along its own element from the
    sub-cell's basepoints to the super-cell's; a pair with a closed cell
    gives zeros.  values are the sub cell's (n+1, count) values.
    """
    (sub_degree, sub), (sup_degree, sup) = map(grid.nerve.locate, (sub_key, super_key))
    pairs = _pairs(grid, (sub_degree, np.array([sub])), (sup_degree, np.array([sup])))
    f = np.zeros((sub_degree + 1, grid.degrees[sub_degree].starts[-1]), dtype=np.complex128)
    f[:, grid.span(sub_key)[1]] = values
    return _restrict(grid, pairs, f)


def _pairs(grid: TransversalGrid, subs: tuple, sups: tuple) -> tuple:
    """Pairs of cells, the subs and the supers given as (degree, rows):
    (subs, sups, the members of each, and where each super member is each
    sub member, pairs x super x sub members).  A sub that is not a
    sub-tuple of its super raises."""
    nerve = grid.nerve
    sub = nerve.degree(subs[0]).members[subs[1]]
    sup = nerve.degree(sups[0]).members[sups[1]]
    same = sup[:, :, None] == sub[:, None, :]
    outside = np.flatnonzero(~same.any(axis=1).all(axis=1))
    if len(outside):
        b = outside[0]
        raise ConfigurationError(
            f"{tuple(sub[b].tolist())} is not a sub-tuple of {tuple(sup[b].tolist())}"
        )
    return subs, sups, sub, sup, same


def _restrict(grid: TransversalGrid, pairs: tuple, f: np.ndarray) -> np.ndarray:
    """res of the pairs of cells of _pairs, with the values f of the whole
    sub degree side by side in its columns.

    The entries (pair, super label, sub member) are gathered from the
    degrees' tables: one frames call per degree, one transport call and
    one transition call (docs/conventions.md, "Ranks").
    """
    (sub_degree, sub_row), (sup_degree, sup_row), sub, sup, same = pairs
    sub_cols, sup_cols = grid.degrees[sub_degree], grid.degrees[sup_degree]
    n1, n = sub.shape[1], sup.shape[1]
    n_sup = np.diff(sup_cols.starts)[sup_row]
    out = np.zeros((n, int(n_sup.sum())), dtype=np.complex128)
    if not out.shape[1]:
        return out
    # entry: a pair and a label of its super cell, at entry `row` of the
    # super degree's columns and at entry `col` of the sub degree's (-1
    # where the sub cell does not carry it)
    pair = np.repeat(np.arange(len(sub_row)), n_sup)
    shift_rows = sup_cols.starts[sup_row] - (np.cumsum(n_sup) - n_sup)
    row = np.arange(len(pair)) + np.repeat(shift_rows, n_sup)
    labels = sup_cols.label_idx[row]
    col = _coefficient_table(sub_cols, len(grid.labels))[sub_row[pair], labels]
    closed = sub_cols.closed[sub_row[pair]]
    if np.any((col < 0) & ~closed):
        missing = labels[(col < 0) & ~closed].min()
        raise LeafMismatchError(f"label {missing} does not cross the cell")
    e = np.flatnonzero(col >= 0)
    pe, col, row = pair[e], col[e], row[e]
    s, u = sub_row[pe], sup_row[pe]
    at = same.argmax(axis=1)[pe].T  # each sub member's place in the super cell
    # transport of every sub member in its own frame, from the sub cell's
    # basepoints to the super cell's
    t0, shift = grid.frames(sub_degree)
    t1 = grid.frames(sup_degree)[0]
    integrals = grid.leaf_transport.integral(
        sub[pe].T.ravel(), t0[s].T.ravel(), t1[u, at].ravel(),
        (sub_cols.c_cell[col] + shift[s].T).ravel(),
    )
    moved = f[:, col] * np.exp(-1j * integrals).reshape(n1, len(e))
    entries, where = np.unique(row, return_inverse=True)
    lam = _member_transitions(grid, sup_degree, entries)
    lam = lam[at[:, None, :], np.arange(n)[None, :, None], where]
    acc = np.zeros((n, len(e)), dtype=np.complex128)
    for k in range(n1):
        acc += lam[k] * moved[k]
    out[:, e] = acc / n1
    return out


# ---------------------------------------------------------------------------
# Matrix assembly and ranks


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


def _coefficient_table(columns: GridDegree, n_labels: int) -> np.ndarray:
    """cells x global labels: the coefficient index (entry) of each cell's
    label, -1 where the cell does not carry it."""
    table = np.full((len(columns.starts) - 1, n_labels), -1)
    table[columns.cells, columns.label_idx] = np.arange(len(columns.cells))
    return table


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
    """delta on image coefficients as LeafBlocks, with index maps: per
    degree, (keys, starts, total), cell r's coefficients at starts[r] ..
    starts[r + 1] - 1.

    Coefficients parameterize each cell's image tuples by the component in
    the first member's trivialization, one per retained leaf label: the
    entries of the degree's grid columns.  The degree is assembled in one
    pass (docs/conventions.md, "Ranks"): its entries, in (cell, face,
    label) order, come from one broadcast of cells x labels tables and the
    nerve's face table; the transitions of all entries are one
    cover.transition call, and their transport integrals one
    LeafTransport.integral call.  An open face that lacks a label its cell
    carries raises LeafMismatchError, naming the smallest such label.
    """
    src, dst = grid.degrees[degree], grid.degrees[degree + 1]
    n_src, n_dst = len(src.cells), len(dst.cells)
    index_maps = (
        (grid.degree_keys(degree), src.starts, n_src),
        (grid.degree_keys(degree + 1), dst.starts, n_dst),
    )
    if n_dst == 0 or n_src == 0:
        return LeafBlocks((n_dst, n_src), (), ()), *index_maps
    n_labels = len(grid.labels)
    dst_tab = _coefficient_table(dst, n_labels)
    src_tab = _coefficient_table(src, n_labels)
    cells = grid.nerve.degree(degree + 1)
    face_tab = src_tab[cells.faces]  # cells x faces x labels
    carried, found = dst_tab[:, None, :] >= 0, face_tab >= 0
    # a cell lies inside each of its faces, so an open face carries every
    # label of the cell
    lacking = carried & ~found & ~src.closed[cells.faces][:, :, None]
    if lacking.any():
        missing = np.nonzero(lacking)[2].min()
        raise LeafMismatchError(f"label {missing} does not cross the cell")
    cell, j, g = np.nonzero(carried & found)
    rows, cols = dst_tab[cell, g], face_tab[cell, j, g]
    # face j drops the cell's j-th member, so the face's first member, beta0,
    # sits at position 1 of the cell for face 0 and at position 0 otherwise
    at = (j == 0).astype(int)
    beta0, ref = cells.members[cell, at], cells.members[cell, 0]

    # lambda_{beta0, ref} at the cell's basepoints, ones when beta0 == ref:
    # one transition call for the degree
    lam = np.ones(len(rows), dtype=np.complex128)
    moved = np.flatnonzero(beta0 != ref)
    if len(moved):
        lam[moved] = grid.cover.transition(beta0[moved], ref[moved], dst.base_points[rows[moved]])
    # transport in beta0's frame from the face's basepoints to the cell's,
    # on the face's labels: one integral call for the whole degree
    face = cells.faces[cell, j]
    face_t, face_shift = grid.frames(degree)
    cell_t = grid.frames(degree + 1)[0]
    integrals = grid.leaf_transport.integral(
        beta0, face_t[face, 0], cell_t[cell, at], src.c_cell[cols] + face_shift[face, 0]
    )
    sign = 1 - 2 * (j % 2)
    vals = sign * lam * np.exp(-1j * integrals)

    # one zero stack per block shape, filled in entry order
    n_rows, row_rank, row_order, row_start = _by_label(dst.label_idx, n_labels)
    n_cols, col_rank, col_order, col_start = _by_label(src.label_idx, n_labels)
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
    op = LeafBlocks((n_dst, n_src), tuple(blocks), stacks)
    return op, *index_maps


def delta(grid: TransversalGrid, degree: int, vec: np.ndarray) -> np.ndarray:
    """The twisted Cech differential of vec, image coefficients of degree:
    the degree-(degree + 1) coefficients that the blocks of delta_matrix
    give.  A degree whose cells are all closed maps to zeros."""
    grid.nerve.require_degree(degree + 1, "delta")
    return delta_matrix(grid, degree)[0] @ vec


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
    the caller to reuse.  Counts the blocks (leaf_blocks) and the stacked
    SVDs (svd_calls) of the operators.
    """
    nerve_bound = grid.nerve.max_degree - 1
    if max_degree > nerve_bound:
        raise ConfigurationError(
            f"degree cap {max_degree} exceeds nerve bound {nerve_bound}"
        )
    n_labels = len(grid.labels)
    elements = grid.degrees[0]
    starts = elements.starts
    unresolved = np.flatnonzero((starts[1:] == starts[:-1]) & ~elements.closed)
    if len(unresolved):
        element = grid.nerve.degree(0).members[unresolved[0], 0]
        raise ResolutionError(
            f"grid of {n_labels} labels resolves no leaf in element {element}"
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
    trace.count("leaf_blocks", sum(len(m.blocks) for m in mats))
    trace.count("svd_calls", sum(len(m.stacks) for m in mats))
    return RankReport(
        degrees=tuple(ranks),
        n_labels=n_labels,
        n_labels_retained=retained,
        threshold=threshold,
    )
