"""Per-cell views of the nerve's and the transversal grid's tables, and
the per-face reference for the differential.

The program keeps one table per degree; tests that check cells one at a
time read them through these views: a Cell per nerve cell (its members,
comp, box, shifts, and its samples as Nerve.samples computes them), the
faces as (face key, base) pairs, and a GridCell per grid cell.  A cell's
row and its grid entries are found by key (cell_row, cell_span), and
cell_psi is cech.psi on some cells of a degree.  element_segments gives a
stretch of leaf in each element it crosses, line leaves too, which the
program does not thread.

The reference restricts image tuples one (sub cell, super cell) pair at a
time (pointwise_res) and sums those restrictions over the faces of each
cell (pointwise_delta).  The blocks of cech.delta_matrix are checked
against it, and criterion res-laws checks it obeys the restriction laws.
grid_delta assembles one degree's operator and applies it, and phi, the
left inverse of cech.psi on one cell, averages a tuple back to the cell's
reference trivialization.
"""

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from gqlab.cech import delta, delta_matrix, psi
from gqlab.geometry import Box, LeafFrame
from gqlab.transport import LeafTransport


class Cell(NamedTuple):
    indices: tuple  # strictly increasing element indices
    comp: int  # component number within this index tuple
    box: Box  # in the frame of the first member
    shifts: tuple  # per member: integer period multiples into its frame
    samples: np.ndarray  # interior points, reduced

    @property
    def key(self):
        return (self.indices, self.comp)

    @property
    def degree(self) -> int:
        return len(self.indices) - 1


def nerve_cells(nerve, manifold) -> dict:
    """key -> Cell of every nerve cell, degree after degree, in key order;
    a cell's samples are its part of Nerve.samples, empty when it has
    none."""
    out = {}
    for n, table in enumerate(nerve.degrees):
        s = nerve.samples(n, manifold)
        ends = np.cumsum(s.sizes).tolist()
        samples = {key: s.points[end - size : end]
                   for key, size, end in zip(s.keys, s.sizes.tolist(), ends)}
        for row, key in enumerate(table.keys):
            out[key] = Cell(
                key[0], key[1],
                Box(tuple(table.lo[row].tolist()), tuple(table.hi[row].tolist())),
                tuple(map(tuple, table.shifts[row].tolist())),
                samples.get(key, np.empty((0, 2))),
            )
    return out


def nerve_faces(nerve) -> dict:
    """key -> ((face key, base), ...) of every cell of degree 1 and up."""
    out = {}
    for below, table in zip(nerve.degrees, nerve.degrees[1:]):
        for key, faces, bases in zip(table.keys, table.faces.tolist(), table.bases.tolist()):
            out[key] = tuple((below.keys[f], tuple(b)) for f, b in zip(faces, bases))
    return out


def degree_cells(nerve, manifold, n: int) -> list:
    """The Cells of degree n, in key order."""
    return [cell for cell in nerve_cells(nerve, manifold).values() if cell.degree == n]


def element_segments(cover, pol, labels) -> list:
    """(element, t0, t1, lifted label) for each label, in order, and each
    element its leaf crosses, in element order: the element's whole leaf
    window, as LeafFrame gives it."""
    elements = cover.nerve.degree(0)
    frame = LeafFrame.of(cover.manifold, pol, elements.lo, elements.hi)
    lifted, inside = frame.lift(labels)
    return [
        (int(elements.members[p, 0]), float(frame.leaf_lo[p]), float(frame.leaf_hi[p]),
         float(lifted[c, p]))
        for c, p in zip(*np.nonzero(inside))
    ]


class GridCell(NamedTuple):
    label_idx: np.ndarray  # indices into the global label array
    c_cell: np.ndarray  # label values lifted into the cell frame
    t_bp: float  # leaf parameter of the basepoints: mid-cell
    closed: bool  # leaf closes inside the cell: no nonzero polarized values
    base_points: np.ndarray  # canonical coords of the leaf basepoints, (L, 2)

    @property
    def count(self) -> int:
        return len(self.label_idx)


def cell_row(nerve, key) -> tuple:
    """(degree, row) of the nerve cell key; a key the nerve lacks raises
    KeyError."""
    degree = len(key[0]) - 1
    keys = nerve.degrees[degree].keys if 0 <= degree < len(nerve.degrees) else ()
    row = bisect_left(keys, key)
    if row == len(keys) or keys[row] != key:
        raise KeyError(f"no nerve cell {key}")
    return degree, row


def cell_span(grid, key) -> tuple:
    """(degree, slice): the entries of the cell key in its degree's
    columns."""
    degree, row = cell_row(grid.nerve, key)
    starts = grid.degrees[degree].starts
    return degree, slice(int(starts[row]), int(starts[row + 1]))


def cell_psi(grid, keys, g):
    """cech.psi on the cells keys, all of one degree, whose coefficients
    sit side by side in g: psi of the whole degree, with zeros on the other
    cells, read at the cells' entries."""
    spans = [cell_span(grid, key) for key in keys]
    degree = spans[0][0]
    entries = np.concatenate([np.arange(span.start, span.stop) for _, span in spans])
    coefficients = np.zeros(int(grid.degrees[degree].starts[-1]), dtype=np.complex128)
    coefficients[entries] = g
    return psi(grid, degree, coefficients)[:, entries]


def grid_cell(grid, key) -> GridCell:
    """The grid's entries of the cell key."""
    degree, span = cell_span(grid, key)
    columns = grid.degrees[degree]
    row = cell_row(grid.nerve, key)[1]
    return GridCell(
        columns.label_idx[span], columns.c_cell[span], float(columns.t_bp[row]),
        bool(columns.closed[row]), columns.base_points[span],
    )


def grid_cells(grid) -> dict:
    """key -> GridCell of every nerve cell."""
    return {key: grid_cell(grid, key) for table in grid.nerve.degrees for key in table.keys}


# --- the per-face reference ---------------------------------------------------


def cell_transition(grid, key, a, b):
    """lambda_ab at the basepoints of a cell."""
    return grid.cover.transition(a, b, grid_cell(grid, key).base_points)


def cell_frame(grid, key):
    """The leaf parameter of a cell's basepoints and the shift of its
    labels in the frame of each of its members: (t, shift), one value per
    member.  In member m's frame the leaf segment from cell f to cell k
    runs from t of f to t of k at m, at the labels c_cell of f plus the
    shift of f at m."""
    degree, row = cell_row(grid.nerve, key)
    dt, shift = grid.frame.offsets(grid.nerve.degree(degree).shifts[row])
    return grid.degrees[degree].t_bp[row] + dt, shift


def pointwise_res(grid, transport, sub_key, super_key, values):
    """The weighted restriction of the sub cell's tuple values, (n+1,
    count), to the super cell: component j is (1/(n+1)) sum_k
    lambda_{sub_k, sup_j} f_k, each f_k first transported along its own
    element from the sub cell's basepoints to the super cell's; a closed
    cell gives zeros.  One transport call per pair, one transition call
    per member pair."""
    sub, sup = sub_key[0], super_key[0]
    cg_sub, cg_sup = grid_cell(grid, sub_key), grid_cell(grid, super_key)
    n1, count = len(sub), cg_sup.count
    if cg_sub.closed or cg_sup.closed:
        return np.zeros((len(sup), count), dtype=np.complex128)
    pos_sub = np.searchsorted(cg_sub.label_idx, cg_sup.label_idx)
    assert np.array_equal(cg_sub.label_idx[pos_sub], cg_sup.label_idx)
    t0, shift = cell_frame(grid, sub_key)
    t1 = cell_frame(grid, super_key)[0][[sup.index(m) for m in sub]]
    integrals = transport.integral(
        np.array(sub).repeat(count), t0.repeat(count), t1.repeat(count),
        (cg_sub.c_cell[pos_sub] + shift[:, None]).ravel(),
    )
    moved = values[:, pos_sub] * np.exp(-1j * integrals).reshape(n1, count)
    out = np.zeros((len(sup), count), dtype=np.complex128)
    for j, bj in enumerate(sup):
        for k, ak in enumerate(sub):
            out[j] += cell_transition(grid, super_key, ak, bj) * moved[k]
    return out / n1


def phi(grid, key, tup):
    """Left inverse of cech.psi on one cell: average the tuple back to the
    reference trivialization (the first member)."""
    indices, base = key[0], grid_cell(grid, key).base_points
    acc = np.zeros(tup.shape[1], dtype=np.complex128)
    for j, b in enumerate(indices):
        acc += grid.cover.transition(b, indices[0], base) * tup[j]
    return acc / len(indices)


def cell_tuples(grid, degree, vec):
    """Cell key -> the tuple over the cell's members of the coefficients
    vec of degree, by psi cell by cell."""
    starts = grid.degrees[degree].starts.tolist()
    return {
        key: cell_psi(grid, [key], vec[start:stop])
        for key, start, stop in zip(grid.degree_keys(degree), starts, starts[1:])
    }


def grid_delta(grid, degree, vec):
    """delta on the coefficients vec of degree: the operator delta_matrix
    assembles, applied."""
    return delta(delta_matrix(grid, degree)[0], vec)


def pointwise_delta(grid, degree, tuples):
    """delta on the tuples of degree (cell key -> (n+1, count) array) as
    the alternating sum of its per-face restrictions: the tuples of
    degree + 1."""
    transport = LeafTransport(grid.cover, grid.polarization)
    faces = nerve_faces(grid.nerve)
    out = {}
    for key in grid.degree_keys(degree + 1):
        acc = np.zeros((degree + 2, grid_cell(grid, key).count), dtype=np.complex128)
        for j, (face_key, _) in enumerate(faces[key]):
            term = pointwise_res(grid, transport, face_key, key, tuples[face_key])
            acc += term if j % 2 == 0 else -term
        out[key] = acc
    return out
