"""Per-cell views of the nerve's and the transversal grid's tables.

The program keeps one table per degree; tests that check cells one at a
time read them through these views: a Cell per nerve cell (its members,
comp, box, shifts and samples, as the per-cell nerve kept them), the faces
as (face key, base) pairs, and a GridCell per grid cell.
"""

from typing import NamedTuple

import numpy as np

from gqlab.geometry import Box


class Cell(NamedTuple):
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


def nerve_cells(nerve) -> dict:
    """key -> Cell of every nerve cell, degree after degree, in key order."""
    out = {}
    for table in nerve.degrees:
        ends = np.cumsum(table.sizes).tolist()
        for row, (key, end) in enumerate(zip(table.keys, ends)):
            out[key] = Cell(
                key[0], key[1],
                Box(tuple(table.lo[row].tolist()), tuple(table.hi[row].tolist())),
                tuple(map(tuple, table.shifts[row].tolist())),
                table.samples[end - table.sizes[row] : end],
            )
    return out


def nerve_faces(nerve) -> dict:
    """key -> ((face key, base), ...) of every cell of degree 1 and up."""
    out = {}
    for below, table in zip(nerve.degrees, nerve.degrees[1:]):
        for key, faces, bases in zip(table.keys, table.faces.tolist(), table.bases.tolist()):
            out[key] = tuple((below.keys[f], tuple(b)) for f, b in zip(faces, bases))
    return out


def degree_cells(nerve, n: int) -> list:
    """The Cells of degree n, in key order."""
    return [cell for cell in nerve_cells(nerve).values() if cell.degree == n]


class GridCell(NamedTuple):
    label_idx: np.ndarray  # indices into the global label array
    c_cell: np.ndarray  # label values lifted into the cell frame
    t_bp: float  # leaf parameter of the basepoints: mid-cell
    closed: bool  # leaf closes inside the cell: no nonzero polarized values
    base_points: np.ndarray  # canonical coords of the leaf basepoints, (L, 2)

    @property
    def count(self) -> int:
        return len(self.label_idx)


def grid_cell(grid, key) -> GridCell:
    """The grid's entries of the cell key."""
    degree, span = grid.span(key)
    columns = grid.degrees[degree]
    row = grid.nerve.degree(degree).row(key)
    return GridCell(
        columns.label_idx[span], columns.c_cell[span], float(columns.t_bp[row]),
        bool(columns.closed[row]), columns.base_points[span],
    )


def grid_cells(grid) -> dict:
    """key -> GridCell of every nerve cell."""
    return {key: grid_cell(grid, key) for table in grid.nerve.degrees for key in table.keys}
