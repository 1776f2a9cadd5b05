"""The trivialization complex and its cohomology.

Polarized functions on a cover element solve a transport equation along
each leaf, so they are determined by one complex value per leaf crossing
the element; the discretization stores exactly those values on a shared
transversal grid of leaf labels.  The differential, the alternating sum
of the lambda-weighted restrictions to each cell from its faces, acts on
these per-leaf values, with parallel-transport factors supplied by
adaptive quadrature of the connection potential along the leaf, or its
closed form where the potential does not vary along it: the transport
integrals of one call share one quadrature call per distinct integrand.

The grid keeps, per nerve degree, one column per quantity over the
degree's (cell, label) entries, cell after cell in the nerve's row order
(GridDegree); every operation gathers from these columns and the nerve's
tables, by row.

The differential acts on the image subspaces: one coefficient per leaf
label per nerve cell, taken in the trivialization of the cell's first
member, which psi turns into the tuple over all members.  Transport never
leaves a leaf, so the differential is one dense block per leaf label
(LeafBlocks), and its singular values, from which the Čech ranks come,
are the union of the blocks' (docs/conventions.md, "Ranks").  The grid's
build computes the entries of every degree in one pass: their leaf
segments gathered from per-degree frame tables, one transport call for
the entries of all degrees, and one transition call for all of them (one
evaluator run per distinct transition formula); then it stacks each
degree's entries into its blocks, and keeps only the blocks.  They are
the one implementation of the differential, which delta_matrix hands
out, the ranks decompose and delta applies; the tests check them against
a per-face reference.
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
    uses too), and the LeafBlocks of every degree of the differential the
    nerve reaches.  Nothing in a grid changes after build.
    """

    cover: TrivializationCover
    polarization: Polarization
    labels: np.ndarray
    degrees: tuple  # the GridDegree of each nerve degree
    frame: LeafFrame  # of the nerve's cells, degree after degree
    operators: tuple  # the LeafBlocks of delta from each degree but the last
    # per degree of delta, the smallest label an open face lacks though its
    # cell carries it, -1 when there is none; the degree has no blocks then
    missing: tuple

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, cover, polarization, labels) -> "TransversalGrid":
        """The grid of labels: one crossing mask of every nerve cell and
        label, whose nonzero entries, cell by cell, are the columns of
        every degree, and one curve call for all their basepoints; then
        of_columns.  The grid keeps a read-only copy of labels."""
        labels = read_only(np.array(labels, dtype=float))
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
        return cls.of_columns(cover, pol, labels, tuple(degrees), frame)

    @classmethod
    def of_columns(cls, cover, polarization, labels, degrees, frame) -> "TransversalGrid":
        """The grid of the columns of each degree, with the blocks of delta
        from every degree but the last, assembled in one pass
        (docs/conventions.md, "Ranks").  The tables of each degree with
        coefficients (coefficients by cell and label, basepoint parameters
        and label shifts by cell and member) and its order by label are
        built once, for both degrees of delta that read them, and a degree
        without coefficients builds none; the entries of every degree are
        gathered from the tables, their transitions are one
        cover.transition call and their transport integrals one
        LeafTransport.integral call, and each degree's entries are stacked
        into its blocks.  A degree whose open face lacks a label its cell
        carries keeps that label in missing, for delta_matrix to raise, and
        no blocks.  Counts the blocks (leaf_blocks)."""
        n_labels = len(labels)
        transport = LeafTransport(cover, polarization)
        orders, tables = [], []
        for columns, table in zip(degrees, cover.nerve.degrees):
            if len(columns.cells) == 0:  # no coefficients, so no delta reads it
                orders.append(None)
                tables.append(None)
                continue
            orders.append(_by_label(columns.label_idx, n_labels))
            # the coefficients by cell and label, and per cell and member t
            # and shift: in member m's frame the leaf segment from cell f to
            # cell k runs from t[f, m] to t[k, m], at the labels c_cell of f
            # plus shift[f, m]
            dt, shift = frame.offsets(table.shifts)
            tables.append(
                (_coefficient_table(columns, n_labels), columns.t_bp[:, None] + dt, shift)
            )
        parts = [
            -1 if src is None or dst is None else _delta_part(
                cover.nerve.degree(n + 1), degrees[n], degrees[n + 1], src, dst
            )
            for n, (src, dst) in enumerate(zip(tables, tables[1:]))
        ]
        gathered = [part for part in parts if not isinstance(part, int)]
        if gathered:
            rows, cols, g, sign, beta0, ref, t0, t1, c, points = (
                np.concatenate(column) for column in zip(*gathered)
            )
            # lambda_{beta0, ref} at the cells' basepoints, ones when
            # beta0 == ref, and the transport in beta0's frame from the
            # face's basepoints to the cell's, on the face's labels: one
            # call each for the entries of every degree
            lam = np.ones(len(rows), dtype=np.complex128)
            moved = np.flatnonzero(beta0 != ref)
            if len(moved):
                lam[moved] = cover.transition(beta0[moved], ref[moved], points)
            values = sign * lam * np.exp(-1j * transport.integral(beta0, t0, t1, c))
            ends = np.cumsum([0] + [len(part[0]) for part in gathered]).tolist()
            split = (
                tuple(column[a:b] for column in (rows, cols, g, values))
                for a, b in zip(ends, ends[1:])
            )
        operators = tuple(
            LeafBlocks((len(dst.cells), len(src.cells)), ()) if isinstance(part, int)
            else _stack_blocks(*next(split), orders[n + 1], orders[n])
            for n, (part, src, dst) in enumerate(zip(parts, degrees, degrees[1:]))
        )
        trace.count("leaf_blocks", sum(len(ls) for op in operators for ls, *_ in op.stacks))
        missing = tuple(part if isinstance(part, int) else -1 for part in parts)
        return cls(cover, polarization, labels, degrees, frame, operators, missing)

    @property
    def nerve(self):
        return self.cover.nerve

    def degree_keys(self, n: int) -> tuple:
        """The keys of the nerve cells of degree n, sorted."""
        return self.cover.nerve.degrees[n].keys if n < len(self.degrees) else ()

    @property
    def n_labels_retained(self) -> int:
        return int(np.count_nonzero(np.bincount(self.degrees[0].label_idx)))


def _delta_part(cells, src, dst, src_tables, dst_tables):
    """The entries of delta from the degree of src (GridDegree) into the
    degree of dst, whose nerve cells are cells, in (cell, face, label)
    order from one broadcast of the cells x labels coefficient tables
    through the nerve's face table, as columns (rows, cols, labels, signs,
    beta0, ref, t0, t1, c, points): each entry's transport segment from t0
    to t1 in beta0's frame at the face label c, and the basepoints of the
    entries with beta0 != ref.  The tables of a degree are its
    coefficients by cell and label and its frame tables t and shift.  An
    open face that lacks a label its cell carries stands for no entries,
    as the smallest such label."""
    (src_tab, face_t, face_shift), (dst_tab, cell_t, _) = src_tables, dst_tables
    face_tab = src_tab[cells.faces]  # cells x faces x labels
    carried, found = dst_tab[:, None, :] >= 0, face_tab >= 0
    # a cell lies inside each of its faces, so an open face carries every
    # label of the cell
    lacking = carried & ~found & ~src.closed[cells.faces][:, :, None]
    if lacking.any():
        return int(np.nonzero(lacking)[2].min())
    cell, j, g = np.nonzero(carried & found)
    rows, cols = dst_tab[cell, g], face_tab[cell, j, g]
    # face j drops the cell's j-th member, so the face's first member, beta0,
    # sits at position 1 of the cell for face 0 and at position 0 otherwise
    at = (j == 0).astype(int)
    beta0, ref = cells.members[cell, at], cells.members[cell, 0]
    face = cells.faces[cell, j]
    return (
        rows, cols, g, 1 - 2 * (j % 2), beta0, ref, face_t[face, 0], cell_t[cell, at],
        src.c_cell[cols] + face_shift[face, 0], dst.base_points[rows[beta0 != ref]],
    )


def half_offset_grid(cover, polarization, count: int) -> TransversalGrid:
    """The grid of `count` half-offset labels across the label range of
    the polarization's root, which a pushforward shares: the grid of
    `cohomology`, and of both sides of theorem 1."""
    lo, hi = polarization.root.label_range
    return TransversalGrid.build(cover, polarization, half_offset_labels(lo, hi, count))


# ---------------------------------------------------------------------------
# Operations


def psi(grid: TransversalGrid, degree: int, g: np.ndarray) -> np.ndarray:
    """Tuple representation of sections given in each cell's reference
    trivialization (the first member): component j is lambda_{a_0 a_j} g.

    g holds a coefficient per entry of the degree's columns; the
    transitions are one transition call at the entries' basepoints.
    """
    columns = grid.degrees[degree]
    members = grid.nerve.degree(degree).members[columns.cells].T
    lam = grid.cover.transition(
        np.broadcast_to(members[0], members.shape).ravel(),
        members.ravel(),
        np.concatenate([columns.base_points] * len(members)),
    )
    return lam.reshape(members.shape) * g


# ---------------------------------------------------------------------------
# Matrix assembly and ranks


class LeafBlocks(NamedTuple):
    """delta on image coefficients as one dense block per leaf label.

    Transport never leaves a leaf, so delta couples only coefficients on
    the same global label.  The blocks of one shape form a stack
    (labels, rows, cols, blocks), ascending label: block i maps the
    degree-n coefficients at positions cols[i] to the degree-(n+1) ones at
    positions rows[i] on leaf label labels[i].  Rows of labels without a
    block are zero.  The arrays are read-only.
    """

    shape: tuple  # (n_dst, n_src)
    stacks: tuple  # (labels (n,), rows (n, r), cols (n, c), blocks (n, r, c))

    def singular_values(self) -> np.ndarray:
        """The union of the blocks' singular values, descending, padded with
        zeros to min(shape); one stacked SVD per block shape."""
        n = min(self.shape)
        sv = [np.linalg.svd(blocks, compute_uv=False).ravel() for *_, blocks in self.stacks]
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


def _stack_blocks(rows, cols, g, vals, row_orders, col_orders) -> LeafBlocks:
    """The LeafBlocks of the entries (rows, cols, labels g, vals) of delta
    from one degree into the next, with the _by_label orders of the two
    degrees' coefficients: one zero stack per block shape, filled by one
    np.add.at in entry order; a block's rows and cols are its label's slice
    of the ascending order of each degree."""
    n_rows, row_rank, row_order, row_start = row_orders
    n_cols, col_rank, col_order, col_start = col_orders
    n_src = len(col_rank)
    labels = np.flatnonzero((n_rows > 0) & (n_cols > 0))
    shapes, stack_of = np.unique(
        n_rows[labels] * (n_src + 1) + n_cols[labels], return_inverse=True
    )
    sizes, slot, by_stack, first = _by_label(stack_of, len(shapes))
    block_of = np.full(len(n_rows), -1)
    block_of[labels] = np.arange(len(labels))
    entry_block = block_of[g]
    entry_stack = stack_of[entry_block]
    stacks = []
    for s, (size, shape, lo) in enumerate(zip(sizes.tolist(), shapes.tolist(), first.tolist())):
        r, c = divmod(shape, n_src + 1)
        block_labels = labels[by_stack[lo : lo + size]]
        blocks = np.zeros((size, r, c), dtype=np.complex128)
        e = np.flatnonzero(entry_stack == s)
        np.add.at(blocks, (slot[entry_block[e]], row_rank[rows[e]], col_rank[cols[e]]), vals[e])
        block_rows = row_order[row_start[block_labels, None] + np.arange(r)]
        block_cols = col_order[col_start[block_labels, None] + np.arange(c)]
        stacks.append(read_only(block_labels, block_rows, block_cols, blocks))
    return LeafBlocks((len(row_rank), n_src), tuple(stacks))


def delta_matrix(grid: TransversalGrid, degree: int) -> tuple:
    """delta on image coefficients as LeafBlocks, with index maps: per
    degree, (keys, starts, total), cell r's coefficients at starts[r] ..
    starts[r + 1] - 1.

    Coefficients parameterize each cell's image tuples by the component in
    the first member's trivialization, one per retained leaf label: the
    entries of the degree's grid columns.  The blocks are the grid's, which
    its build stacked; delta_matrix computes nothing.  An open face that
    lacks a label its cell carries raises LeafMismatchError, naming the
    smallest such label.
    """
    grid.nerve.require_degree(degree + 1, "delta_matrix")
    src, dst = grid.degrees[degree], grid.degrees[degree + 1]
    if grid.missing[degree] >= 0:
        raise LeafMismatchError(f"label {grid.missing[degree]} does not cross the cell")
    return (
        grid.operators[degree],
        (grid.degree_keys(degree), src.starts, len(src.cells)),
        (grid.degree_keys(degree + 1), dst.starts, len(dst.cells)),
    )


def delta(op: LeafBlocks, vec: np.ndarray) -> np.ndarray:
    """The twisted Cech differential op (delta_matrix's) applied to vec,
    image coefficients of its source degree, one batched matmul per stack;
    vec may carry trailing axes.  A degree whose cells are all closed maps
    to zeros."""
    out = np.zeros(op.shape[:1] + vec.shape[1:], dtype=np.complex128)
    for _, rows, cols, blocks in op.stacks:
        prod = np.matmul(blocks, vec[cols].reshape(*cols.shape, -1))
        out[rows] = prod.reshape(rows.shape + vec.shape[1:])
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


class RankReport(NamedTuple):
    degrees: tuple  # a DegreeRank per degree
    n_labels: int
    n_labels_retained: int
    threshold: float

    @property
    def negative_degrees(self) -> tuple:
        """The degrees whose Betti number is negative, which no complex
        has: ranks that cannot be sound."""
        return tuple(d.degree for d in self.degrees if d.betti < 0)

    def as_dict(self) -> dict:
        # its tuples are written as JSON arrays
        return {**self._asdict(), "degrees": [d._asdict() for d in self.degrees]}


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
    decisions are auditable.  Counts the stacked SVDs (svd_calls) of the
    grid's blocks.
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
    trace.count("svd_calls", sum(len(m.stacks) for m in mats))
    return RankReport(
        degrees=tuple(ranks),
        n_labels=n_labels,
        n_labels_retained=retained,
        threshold=threshold,
    )
