"""Covers, local-data laws, refinement."""

import math
import re

import numpy as np
import pytest

from gqlab import catalog, kernels, trace
from gqlab import expr as ex
from gqlab.prequantum import (
    MAX_DEGREE,
    ConfigurationError,
    LocalData,
    LocalDataReport,
    RefinementError,
    _degree_table,
    _lookup,
    _period_vec,
    _shift_candidates,
    build_nerve,
    check_local_data,
    pullback,
    refine,
    split_boxes,
)
from gqlab.geometry import Box, Symplectomorphism, pushforward_polarization
from gqlab.transport import LeafTransport

from cells import Cell, degree_cells, element_segments, nerve_cells, nerve_faces

BUILTINS = [
    ("plane", {}),
    ("plane", {"granularity": 2}),
    ("cylinder", {}),
    ("torus", {"k": 1}),
    ("torus", {"k": 3}),
    ("sphere", {"k": 1}),
    ("sphere", {"k": 4}),
    ("disk", {}),
]


@pytest.mark.parametrize("name,params", BUILTINS)
def test_builtin_covers_satisfy_local_data_laws(models, name, params):
    rep = check_local_data(models(name, **params).cover, tol=1e-10)
    assert rep.passed, rep.as_dict()


def _inside(cover, index, pts):
    """Whether each canonical point lies in element index of a cover that
    is not a pullback: in the element's box once unrolled into its frame
    (within 1e-9), and in the domain."""
    box = cover.elements[index]
    lifted = cover.member_points(index, pts)  # nan where no unrolling reaches
    inside = (lifted >= np.array(box.lo) - 1e-9) & (lifted <= np.array(box.hi) + 1e-9)
    return inside.all(axis=1) & cover.manifold.in_domain(pts)


def _coverage_gaps(cover, grid=40):
    """The number of window grid points that lie in no element."""
    pts = cover.manifold.sample_grid(grid)
    covered = np.zeros(len(pts), dtype=bool)
    for a in range(len(cover.elements)):
        covered |= _inside(cover, a, pts)
    return int(np.sum(~covered))


def _refinement_gaps(fine, coarse, assignment, samples=6):
    """The fine elements with a grid sample outside their coarse element."""
    return [
        a
        for a, box in enumerate(fine.elements)
        if not _inside(coarse, assignment[a], fine.manifold.reduce(box.grid(samples))).all()
    ]


@pytest.mark.parametrize("name,params", BUILTINS)
def test_builtin_covers_cover_the_manifold(models, name, params):
    assert _coverage_gaps(models(name, **params).cover) == 0


def test_plane_single_element_residuals_vanish(models):
    rep = check_local_data(models("plane").cover, tol=1e-12)
    assert rep.cocycle_max == 0.0
    assert rep.curvature_max <= 1e-15
    assert rep.compatibility_max == 0.0


def _scaled_transition(cover, pair, factor):
    """A copy of the cover with the transition of pair scaled by factor."""
    transitions = dict(cover.data.transitions)
    transitions[pair] = ex.mul(ex.Num(factor), transitions[pair])
    return cover._replace(data=cover.data._replace(transitions=transitions))


def test_corrupted_transition_fails_cocycle(models):
    cover = _scaled_transition(models("torus", k=1).cover, (0, 1), 1.01)
    rep = check_local_data(cover, tol=1e-8)
    assert not rep.passed
    assert 0.005 < rep.cocycle_max < 0.02
    assert 0.005 < rep.inverse_max < 0.02


@pytest.mark.parametrize("factor", [float("nan"), 0.0])
def test_transition_without_a_value_fails_the_check(models, factor):
    # the residuals are NaN on that pair; Python's max() would drop them
    cover = _scaled_transition(models("torus", k=1).cover, (0, 1), factor)
    with np.errstate(invalid="ignore", divide="ignore"):
        rep = check_local_data(cover, tol=1e-8)
    assert not rep.passed
    assert math.isnan(rep.compatibility_max)


def test_transition_antisymmetry_on_random_samples(models):
    exm = models("torus", k=2)
    cover = exm.cover
    rng = np.random.default_rng(5)
    for cell in degree_cells(cover.nerve, cover.manifold, 1):
        a, b = cell.indices
        lo, hi = np.array(cell.box.lo), np.array(cell.box.hi)
        pts = cover.manifold.reduce(rng.uniform(lo, hi, size=(100, 2)))
        prod = cover.transition(a, b, pts) * cover.transition(b, a, pts)
        assert np.max(np.abs(prod - 1.0)) < 1e-12


def test_transitions_are_well_defined_on_the_manifold(models):
    # evaluation must not depend on the coordinate representative
    for name, params in (("torus", {"k": 3}), ("sphere", {"k": 2})):
        cover = models(name, **params).cover
        periods = np.array([p or 0.0 for p in cover.manifold.periods])
        rng = np.random.default_rng(2)
        for cell in degree_cells(cover.nerve, cover.manifold, 1):
            a, b = cell.indices
            pts = cell.samples
            shifted = pts + periods * rng.integers(-2, 3, size=pts.shape)
            diff = cover.transition(a, b, pts) - cover.transition(a, b, shifted)
            assert np.max(np.abs(diff)) < 1e-12


def test_nerve_closed_under_faces(models):
    # face j of every cell is a row of the degree below whose members are
    # the cell's without its j-th
    for name, params in (("torus", {"k": 1}), ("circle-flat", {})):
        nerve = models(name, **params).cover.nerve
        for below, table in zip(nerve.degrees, nerve.degrees[1:]):
            assert table.faces.shape == table.members.shape
            assert np.all((table.faces >= 0) & (table.faces < len(below.keys)))
            for j in range(table.members.shape[1]):
                dropped = np.delete(table.members, j, axis=1)
                assert np.array_equal(below.members[table.faces[:, j]], dropped)


def test_self_refinement_is_identity(models):
    cover = models("torus", k=1).cover
    fine, refmap = refine(cover, cover.elements)
    assert dict(refmap) == {a: a for a in range(len(cover.elements))}
    with pytest.raises(TypeError):
        refmap[0] = 1
    assert _refinement_gaps(fine, cover, refmap) == []


def test_refine_keeps_target_boxes_as_elements(models):
    # a target box that fits its source element as given is stored as given
    cover = models("torus", k=2).cover
    boxes = list(cover.elements)
    fine, _ = refine(cover, boxes)
    assert list(fine.elements) == boxes


def test_split_refinement_passes_checks(models):
    cover = models("torus", k=2).cover
    fine, refmap = refine(cover, split_boxes(cover))
    assert len(fine.elements) == 4 * len(cover.elements)
    assert _refinement_gaps(fine, cover, refmap) == []
    rep = check_local_data(fine, tol=1e-10)
    assert rep.passed, rep.as_dict()
    assert _coverage_gaps(fine) == 0


def test_refinement_functoriality(models):
    """Refining twice equals refining once by the composite map."""
    cover = models("plane", granularity=2).cover
    fine1, map1 = refine(cover, split_boxes(cover))
    fine2, map2 = refine(fine1, split_boxes(fine1))
    composite = {f: map1[map2[f]] for f in map2}
    direct, dmap = refine(cover, fine2.elements)
    assert composite == dict(dmap)
    rng = np.random.default_rng(1)
    for a, box in enumerate(fine2.elements):
        pts = cover.manifold.reduce(rng.uniform(box.lo, box.hi, size=(20, 2)))
        t2 = fine2.potential(a, pts)
        td = direct.potential(a, pts)
        assert max(np.max(np.abs(a - b)) for a, b in zip(t2, td)) == 0.0
    for cell in degree_cells(fine2.nerve, fine2.manifold, 1):
        a, b = cell.indices
        pts = cell.samples
        diff = fine2.transition(a, b, pts) - direct.transition(a, b, pts)
        assert np.max(np.abs(diff)) == 0.0


def test_overhanging_target_is_rejected(models):
    cover = models("torus", k=1).cover
    huge = Box((-1.0, -1.0), (5.0, 5.0))
    with pytest.raises(RefinementError, match="element 0"):
        refine(cover, [huge])


@pytest.mark.parametrize("name,params,spec", [("torus", {"k": 2}, "translate:0.7,0.3"),
                                              ("plane", {"granularity": 2}, "shear")])
def test_refine_refuses_a_pullback_cover(models, name, params, spec):
    # a pullback's element boxes are not its elements: its nerve says it
    # was pulled back, and refine reads that
    exm = models(name, **params)
    pulled = pullback(exm.cover, catalog.make_map(exm, spec))
    assert pulled.nerve.pulled_by and not exm.cover.nerve.pulled_by
    with pytest.raises(RefinementError, match="^refine operates on base covers$"):
        refine(pulled, split_boxes(pulled))
    refine(exm.cover, split_boxes(exm.cover))


def test_torus_rejects_degenerate_granularity():
    with pytest.raises(ConfigurationError):
        catalog.example("torus", k=1, granularity=2)


def test_unknown_example_rejected():
    with pytest.raises(ConfigurationError):
        catalog.example("klein-bottle")


# ---------------------------------------------------------------------------
# Nerve identity: the table build against per-cell constructions.  Each
# reference gives (cells, faces): key -> Cell and key -> ((face key, base),
# ...), in its own enumeration order.


def _inset_samples(manifold, lo, hi, degree):
    """The samples of each box (rows of lo, hi) of one degree, as the
    nerve built them one array per cell: an inset ij meshgrid of
    np.linspace axes; points outside the domain (the disk) dropped."""
    n = max(3, 10 - 2 * degree)
    inset = 1e-3 * (hi - lo)
    axes = np.linspace(lo + inset, hi - inset, n, axis=1)
    grid = np.empty((len(lo), n, n, 2))
    grid[..., 0] = axes[:, :, None, 0]
    grid[..., 1] = axes[:, None, :, 1]
    grid = grid.reshape(len(lo), n * n, 2)
    if manifold.disk_radius is None:
        return list(grid)
    keep = manifold.in_domain(manifold.reduce(grid.reshape(-1, 2)))
    return [pts[k] for pts, k in zip(grid, keep.reshape(len(lo), n * n))]


def _intersect(a, b):
    """The common box of boxes a and b, or None when it is narrower than
    1e-9 on an axis."""
    lo = tuple(max(u, v) for u, v in zip(a.lo, b.lo))
    hi = tuple(min(u, v) for u, v in zip(a.hi, b.hi))
    return None if any(h - l < 1e-9 for l, h in zip(lo, hi)) else Box(lo, hi)


def _face_links(cells):
    """The faces of per-cell shapes: deleting the j-th index lands in the
    cell whose shifts are the remaining ones less the first of them."""
    by_shape = {(cell.indices, cell.shifts): key for key, cell in cells.items()}
    faces = {}
    for cell in cells.values():
        links = []
        for j in range(len(cell.indices)) if cell.degree else ():
            sub = cell.shifts[:j] + cell.shifts[j + 1:]
            norm = tuple((a - sub[0][0], b - sub[0][1]) for a, b in sub)
            links.append((by_shape[(cell.indices[:j] + cell.indices[j + 1:], norm)], sub[0]))
        if links:
            faces[cell.key] = tuple(links)
    return faces


def _per_cell_nerve(manifold, elements, max_degree=MAX_DEGREE):
    """The nerve as build_nerve made it one cell record at a time: each
    degree's candidates broadcast as the tables do, then registered cell
    by cell in (frontier cell, element, shift) order, with a per-cell face
    link loop."""
    shift_cands = _shift_candidates(manifold)
    offsets = -np.array(shift_cands) * _period_vec(manifold)
    ids = list(range(len(elements)))
    id_arr = np.array(ids)
    el_lo = np.array([box.lo for box in elements], dtype=float).reshape(-1, 2)
    el_hi = np.array([box.hi for box in elements], dtype=float).reshape(-1, 2)
    shifted_lo = el_lo[:, None, :] + offsets
    shifted_hi = el_hi[:, None, :] + offsets
    cells, comps = {}, {}

    def register(degree, indices, shifts, boxes, lo, hi):
        out = []
        samples = _inset_samples(manifold, lo, hi, degree)
        for idx, sh, box, pts in zip(indices, shifts, boxes, samples):
            comp = comps.get(idx, 0)
            comps[idx] = comp + 1
            cell = Cell(indices=idx, comp=comp, box=box, shifts=sh, samples=pts)
            cells[cell.key] = cell
            out.append(cell)
        return out

    frontier = register(0, [(i,) for i in ids], [((0, 0),)] * len(elements),
                        list(elements), el_lo, el_hi)
    lo, hi = el_lo, el_hi
    position = {i: p for p, i in enumerate(ids)}
    for degree in range(1, max_degree + 1):
        if not frontier:
            break
        last = np.array([cell.indices[-1] for cell in frontier])
        if degree == 1:
            new_lo = np.maximum(lo[:, None, None, :], shifted_lo)
            new_hi = np.minimum(hi[:, None, None, :], shifted_hi)
            keep = ~np.any(new_hi - new_lo < 1e-9, axis=-1)
            keep &= (id_arr > last[:, None])[:, :, None]
            f, e, s = np.nonzero(keep)
            lo, hi = new_lo[f, e, s], new_hi[f, e, s]
            pair_e, pair_s = e, s
            n_pairs = np.bincount(f, minlength=len(ids))
            pair_start = np.cumsum(n_pairs) - n_pairs
        else:
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
            [Box(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())],
            lo, hi,
        )
    return cells, _face_links(cells)


def _reference_nerve(manifold, elements, max_tuple=MAX_DEGREE + 1):
    """The nerve built one (frontier cell, element, shift) triple at a time
    with Box operations."""
    periods = _period_vec(manifold)
    cells = {}

    def register(indices, shifts, box):
        comp = 0
        while (indices, comp) in cells:
            comp += 1
        pts = box.grid(max(3, 10 - 2 * (len(indices) - 1)))
        samples = pts[manifold.in_domain(manifold.reduce(pts))]
        cells[(indices, comp)] = Cell(indices, comp, box, shifts, samples)
        return cells[(indices, comp)]

    frontier = [register((a,), ((0, 0),), box) for a, box in enumerate(elements)]
    for _size in range(2, max_tuple + 1):
        new = []
        for cell in frontier:
            for a, box in enumerate(elements):
                if a <= cell.indices[-1]:
                    continue
                for s in _shift_candidates(manifold):
                    shift = (-s[0] * periods[0], -s[1] * periods[1])
                    inter = _intersect(cell.box, box.shifted(shift))
                    if inter is not None:
                        new.append(register(cell.indices + (a,), cell.shifts + (s,), inter))
        frontier = new
    return cells, _face_links(cells)


def _assert_same_nerve(got, want, manifold, max_degree=MAX_DEGREE):
    """The tables of got hold the reference's cells, bit for bit: keys
    sorted within each degree, members, comps, boxes and shifts, and face
    keys with their bases; and Nerve.samples gives each cell's reference
    samples (cell frame) reduced."""
    want_cells, want_faces = want
    assert got.max_degree == max_degree
    for degree, table in enumerate(got.degrees):
        assert list(table.keys) == sorted(table.keys)
        assert all(len(key[0]) == degree + 1 for key in table.keys)
    cells = nerve_cells(got, manifold)
    assert sorted(cells) == sorted(want_cells)
    for key, w in want_cells.items():
        g = cells[key]
        assert (g.indices, g.comp, g.shifts) == (w.indices, w.comp, w.shifts)
        for mine, theirs in ((g.box.lo, w.box.lo), (g.box.hi, w.box.hi)):
            assert np.array(mine, float).tobytes() == np.array(theirs, float).tobytes()
        reduced = manifold.reduce(w.samples)
        assert g.samples.dtype == reduced.dtype
        assert g.samples.shape == reduced.shape, key
        assert g.samples.tobytes() == reduced.tobytes(), key
    assert nerve_faces(got) == want_faces


def _wide_circle_cover():
    """Four elements each 0.8 of the torus period wide: every pair and
    triple overlaps in several components, so the children of a degree
    interleave by index tuple and the table must sort them."""
    exm = catalog.example("torus", k=1)
    period = 2.0 * math.pi
    elements = [
        Box((i * period / 4, 0.3 * i), (i * period / 4 + 0.8 * period, 0.3 * i + 0.75 * period))
        for i in range(4)
    ]
    return exm.manifold, elements


def _table_cases(models):
    cases = [(f"torus-g{g}", models("torus", k=3, granularity=g).cover) for g in (3, 4, 5)]
    cases += [(f"{name}{params}", models(name, **params).cover) for name, params in (
        ("cylinder", {}), ("sphere", {"k": 3}), ("disk", {}),
        ("plane", {"granularity": 1}), ("plane", {"granularity": 2}), ("circle-flat", {}),
    )]
    torus = models("torus", k=2).cover
    cases.append(("torus-refined", refine(torus, split_boxes(torus))[0]))
    return cases


def test_nerve_tables_match_the_per_cell_build(models):
    for name, cover in _table_cases(models):
        got = build_nerve(cover.manifold, cover.elements)
        want = _per_cell_nerve(cover.manifold, cover.elements)
        _assert_same_nerve(got, want, cover.manifold)
        _assert_same_nerve(cover.nerve, want, cover.manifold)
    manifold, elements = _wide_circle_cover()
    nerve = build_nerve(manifold, elements)
    assert max(nerve.degree(3).comps) >= 3  # several components per tuple
    _assert_same_nerve(nerve, _per_cell_nerve(manifold, elements), manifold)


@pytest.mark.parametrize("name,params,spec", [
    ("torus", {"k": 2}, "translate:0.7,0.3"), ("sphere", {"k": 3}, "rot:1.0"),
    ("disk", {}, "rot:0.7"), ("plane", {"granularity": 2}, "shear"),
])
def test_pullback_nerve_matches_the_per_cell_build(models, name, params, spec):
    # the pullback keeps the source tables; each cell's samples are its
    # source samples pulled back one cell at a time
    exm = models(name, **params)
    phi = catalog.make_map(exm, spec)
    manifold = exm.manifold
    cells, faces = _per_cell_nerve(manifold, exm.cover.elements)
    moved = {
        key: cell._replace(samples=manifold.reduce(phi.apply_inverse(manifold.reduce(cell.samples))))
        for key, cell in cells.items()
    }
    _assert_same_nerve(pullback(exm.cover, phi).nerve, (moved, faces), manifold)


@pytest.mark.parametrize("name,params,spec", [
    ("plane", {"granularity": 2}, None), ("cylinder", {}, None), ("torus", {"k": 3}, None),
    ("sphere", {"k": 3}, None), ("disk", {}, None),
    ("torus", {"k": 2}, "translate:0.7,0.3"), ("sphere", {"k": 3}, "rot:1.0"),
])
def test_nerve_samples_are_computed_on_read_to_the_eager_bits(models, name, params, spec):
    # the nerve stores no samples: Nerve.samples computes each degree's on
    # read, and gives what the eager build handed out, bit for bit: the
    # cells with samples in key order, their sizes, each cell's per-cell
    # samples (pulled back by the map first, for a pullback) reduced, and
    # the members at each point
    exm = models(name, **params)
    manifold, cover = exm.manifold, exm.cover
    cells, _ = _per_cell_nerve(manifold, cover.elements)
    if spec is not None:
        phi = catalog.make_map(exm, spec)
        cover = pullback(cover, phi)
        cells = {
            key: cell._replace(samples=manifold.reduce(phi.apply_inverse(manifold.reduce(cell.samples))))
            for key, cell in cells.items()
        }
    assert not any("samples" in table._fields for table in cover.nerve.degrees)
    for n in range(cover.nerve.max_degree + 1):
        got = cover.nerve.samples(n, manifold)
        want = sorted((key, cell) for key, cell in cells.items()
                      if cell.degree == n and len(cell.samples))
        assert got.keys == tuple(key for key, _ in want)
        assert got.sizes.tolist() == [len(cell.samples) for _, cell in want]
        points = [cell.samples for _, cell in want] or [np.empty((0, 2))]
        assert got.points.tobytes() == manifold.reduce(np.concatenate(points)).tobytes()
        members = np.array([key[0] for key, _ in want], dtype=int).reshape(-1, n + 1)
        # one cell gives its one row, so the accessors get scalars
        members = members[0] if len(want) == 1 else members.repeat(got.sizes, axis=0)
        assert np.array_equal(got.members, members)


def test_a_face_missing_from_the_table_raises(models):
    # the lookup answers -1 for a code it lacks, and a table with a face
    # -1 is refused by the one check on it
    cover = models("torus", k=2).cover
    table = cover.nerve.degree(2)
    codes, rows = np.array([3, 8, 12]), np.array([2, 0, 1])
    assert _lookup(codes, rows, np.array([[8, 4], [12, 3]])).tolist() == [[0, -1], [1, 2]]
    faces = table.faces.copy()
    faces[5, 1] = -1
    columns = (table.members, table.comps, table.lo, table.hi, table.shifts)
    with pytest.raises(ConfigurationError, match=re.escape(f"closed under faces at {table.keys[5]}")):
        _degree_table(*(np.array(c) for c in columns), faces, np.array(table.bases))
    whole = _degree_table(*(np.array(c) for c in columns),
                          np.array(table.faces), np.array(table.bases))
    assert whole.keys == table.keys
    assert all(np.array_equal(a, b) for a, b in zip(whole[1:], table[1:]))


NERVE_CASES = (
    [("torus", {"k": k, "granularity": g}) for k in (1, 3, 8) for g in (3, 4, 5)]
    + [("cylinder", {"granularity": g}) for g in (2, 3, 4, 5)]
    + [("sphere", {"k": 1}), ("sphere", {"k": 3}), ("disk", {}),
       ("plane", {"granularity": 1}), ("plane", {"granularity": 2}),
       ("circle-flat", {})]
)


@pytest.mark.parametrize("name,params", NERVE_CASES)
def test_nerve_matches_pairwise_construction(models, name, params):
    cover = models(name, **params).cover
    _assert_same_nerve(
        build_nerve(cover.manifold, cover.elements),
        _reference_nerve(cover.manifold, cover.elements),
        cover.manifold,
    )


@pytest.mark.parametrize("name,params", [
    ("torus", {"k": 2}), ("cylinder", {}), ("sphere", {"k": 2}), ("disk", {}),
])
def test_nerve_matches_pairwise_construction_after_refine(models, name, params):
    fine, _ = refine(models(name, **params).cover,
                     split_boxes(models(name, **params).cover))
    _assert_same_nerve(fine.nerve, _reference_nerve(fine.manifold, fine.elements),
                       fine.manifold)


def _dense_nerve(manifold, elements, max_tuple=MAX_DEGREE + 1):
    """The nerve as one dense broadcast per degree: every frontier cell
    against every element under every shift, the (frontier cell, element,
    shift) survivors in order."""
    shift_cands = _shift_candidates(manifold)
    offsets = -np.array(shift_cands) * _period_vec(manifold)
    ids = np.arange(len(elements))
    el_lo = np.array([box.lo for box in elements], dtype=float).reshape(-1, 2)
    el_hi = np.array([box.hi for box in elements], dtype=float).reshape(-1, 2)
    shifted_lo = el_lo[:, None, :] + offsets
    shifted_hi = el_hi[:, None, :] + offsets
    cells, comps = {}, {}

    def register(degree, indices, shifts, boxes, lo, hi):
        out = []
        samples = _inset_samples(manifold, lo, hi, degree)
        for idx, sh, box, pts in zip(indices, shifts, boxes, samples):
            comp = comps[idx] = comps.get(idx, -1) + 1
            cells[(idx, comp)] = Cell(idx, comp, box, sh, pts)
            out.append(cells[(idx, comp)])
        return out

    frontier = register(0, [(i,) for i in ids.tolist()], [((0, 0),)] * len(elements),
                        list(elements), el_lo, el_hi)
    lo, hi = el_lo, el_hi
    for degree in range(1, max_tuple):
        new_lo = np.maximum(lo[:, None, None, :], shifted_lo)
        new_hi = np.minimum(hi[:, None, None, :], shifted_hi)
        last = np.array([cell.indices[-1] for cell in frontier], dtype=int)
        keep = ~np.any(new_hi - new_lo < 1e-9, axis=-1)
        keep &= (ids > last[:, None])[:, :, None]
        f, e, s = np.nonzero(keep)
        lo, hi = new_lo[f, e, s], new_hi[f, e, s]
        frontier = register(
            degree,
            [frontier[i].indices + (int(ids[j]),) for i, j in zip(f, e)],
            [frontier[i].shifts + (shift_cands[j],) for i, j in zip(f, s)],
            [Box(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())],
            lo, hi,
        )
    return cells, _face_links(cells)


DENSE_CASES = (
    [("torus", {"k": 2, "granularity": g}) for g in range(3, 9)]
    + [("cylinder", {"granularity": g}) for g in (3, 4, 5)]
    + [("sphere", {"k": k}) for k in range(2, 7)]
    + [("disk", {}), ("plane", {"granularity": 1}), ("plane", {"granularity": 2})]
)


@pytest.mark.parametrize("name,params", DENSE_CASES)
def test_nerve_matches_the_dense_broadcast(models, name, params):
    # a cell's candidates are its first member's overlaps; the dense
    # broadcast tries every element under every shift
    cover = models(name, **params).cover
    _assert_same_nerve(
        build_nerve(cover.manifold, cover.elements),
        _dense_nerve(cover.manifold, cover.elements),
        cover.manifold,
    )


def test_refined_nerve_matches_the_dense_broadcast(models):
    fine, _ = refine(models("torus", k=2).cover, split_boxes(models("torus", k=2).cover))
    assert len(fine.nerve.degree(3).keys)  # the refined torus has cells of every degree
    _assert_same_nerve(fine.nerve, _dense_nerve(fine.manifold, fine.elements),
                       fine.manifold)


# ---------------------------------------------------------------------------
# Nerve depth: a shallower nerve is the deeper one cut off, and each reader
# of degree-n cells refuses a nerve that stops below n


@pytest.mark.parametrize("name,params", [
    ("torus", {"k": 2}), ("cylinder", {}), ("sphere", {"k": 2}),
    ("plane", {"granularity": 2}), ("disk", {}),
])
def test_shallow_nerve_is_the_full_nerve_cut_off(models, name, params):
    cover = models(name, **params).cover
    full_cells, full_faces = _per_cell_nerve(cover.manifold, cover.elements)
    for depth in range(MAX_DEGREE):
        got = build_nerve(cover.manifold, cover.elements, depth)
        assert got.max_degree == depth
        want = (
            {key: cell for key, cell in full_cells.items() if cell.degree <= depth},
            {key: f for key, f in full_faces.items() if len(key[0]) <= depth + 1},
        )
        _assert_same_nerve(got, want, cover.manifold, depth)
        shallow = catalog.example(name, nerve_degree=depth, **params).cover
        _assert_same_nerve(shallow.nerve, want, cover.manifold, depth)


def _per_cell_local_data(cover, tol=1e-8):
    """check_local_data cell by cell, with one call per law, cell and
    member: the reference for its batched laws."""
    manifold = cover.manifold
    worst = {"cocycle": 0.0, "inverse": 0.0, "curvature": 0.0, "compatibility": 0.0}

    def fold(law, resid):
        worst[law] = float(np.maximum(worst[law], np.max(resid)))

    checked = 0
    for cell in nerve_cells(cover.nerve, manifold).values():
        pts = cell.samples
        if len(pts) == 0 or cell.degree > 2:
            continue
        checked += 1
        if cell.degree == 0:
            (a,) = cell.indices
            omega = cover.omega.eval(manifold, pts)
            fold("curvature", np.abs(cover.curvature(a, pts) - omega))
        elif cell.degree == 1:
            a, b = cell.indices
            lam_ab = cover.transition(a, b, pts)
            lam_ba = cover.transition(b, a, pts)
            fold("inverse", np.abs(lam_ab * lam_ba - 1.0))
            ta, tb = cover.potential(a, pts), cover.potential(b, pts)
            dlog = cover.transition_dlog(a, b, pts)
            for comp in range(2):
                fold("compatibility", np.abs(ta[comp] - tb[comp] + 1j * dlog[comp]))
        else:
            a, b, c = cell.indices
            fold("cocycle", np.abs(
                cover.transition(a, b, pts) * cover.transition(b, c, pts)
                - cover.transition(a, c, pts)
            ))
    return LocalDataReport(
        cocycle_max=worst["cocycle"],
        inverse_max=worst["inverse"],
        curvature_max=worst["curvature"],
        compatibility_max=worst["compatibility"],
        tol=tol,
        cells_checked=checked,
    )


_MAP_OF_KIND = {
    "identity": "identity", "shear": "shear", "rot": "rot:1.0",
    "translate": "translate:0.7,0.3", "pshift": "pshift:0.3",
}


def _law_check_covers(models):
    """(name, cover) of every builtin cover, its pullback under each map
    kind of its model, a refined torus, and corrupted copies: one
    transition scaled by each factor the check tests use."""
    covers = []
    for name, params in BUILTINS:
        exm = models(name, **params)
        name = f"{name}{params}"
        covers.append((name, exm.cover))
        for kind in exm.map_specs:
            spec = _MAP_OF_KIND[kind]
            phi = catalog.make_map(exm, spec)
            covers.append((f"{name}-{spec}", pullback(exm.cover, phi)))
        if exm.cover.data.transitions:
            pair = sorted(exm.cover.data.transitions)[0]
            for factor in (1.01, float("nan"), 0.0):
                bad = _scaled_transition(exm.cover, pair, factor)
                covers.append((f"{name}-{pair}x{factor}", bad))
    torus = models("torus", k=2).cover
    covers.append(("torus-refined", refine(torus, split_boxes(torus))[0]))
    return covers


def test_batched_local_data_equals_the_per_cell_check(models):
    kinds = set()
    failing = 0
    for name, cover in _law_check_covers(models):
        with np.errstate(invalid="ignore", divide="ignore"):
            got = check_local_data(cover)
            want = _per_cell_local_data(cover)
        # repr tells NaNs apart from numbers and keeps every bit
        assert repr(got.as_dict()) == repr(want.as_dict()), name
        assert got.cells_checked == want.cells_checked > 0, name
        kinds.update(k for k in _MAP_OF_KIND.values() if name.endswith(k))
        failing += not got.passed
    assert kinds == set(_MAP_OF_KIND.values())
    assert failing >= 3 * 6  # three corruptions of each builtin with overlaps


def test_local_data_check_counts_its_evaluator_runs(models, monkeypatch):
    cover = models("torus", k=3).cover
    check_local_data(cover)  # compiles the cover's programs
    with trace.counting() as counts:
        _, runs = _evaluator_runs(monkeypatch, lambda: check_local_data(cover))
    assert counts == {"formula_runs": len(runs)}
    # the 9 elements share one potential formula, so the curvature call,
    # the two potential calls and omega run once each; the two inverse
    # calls, the dlog call and the three cocycle calls run once per
    # distinct transition formula among their pairs
    assert len(set(cover.data.potentials.values())) == 1 < len(cover.elements)

    def formulas(pairs):
        return len({cover.data.transition_expr(i, j) for i, j in pairs})

    cells = [c for c in nerve_cells(cover.nerve, cover.manifold).values() if c.degree <= 2]
    pairs = [c.indices for c in cells if c.degree == 1]
    triples = [c.indices for c in cells if c.degree == 2]
    assert len(runs) == (
        4 + 2 * formulas(pairs) + formulas((b, a) for a, b in pairs)
        + formulas((a, b) for a, b, _ in triples)
        + formulas((b, c) for _, b, c in triples)
        + formulas((a, c) for a, _, c in triples)
    )
    # a cell by cell check runs 2, 5 and 3 programs per cell of degree 0, 1, 2
    assert len(runs) < sum((2, 5, 3)[c.degree] for c in cells) / 10


def test_check_local_data_refuses_a_nerve_below_degree_2(models):
    # without degree-2 cells the cocycle law would go unchecked and pass
    cover = models("torus", k=1).cover
    lam = dict(cover.data.transitions)
    lam[(0, 1)] = ex.mul(ex.Num(1.01), lam[(0, 1)])
    corrupt = cover._replace(data=LocalData(lam, cover.data.potentials))
    assert not check_local_data(corrupt).passed
    for depth in (0, 1):
        nerve = build_nerve(cover.manifold, cover.elements, depth)
        with pytest.raises(ConfigurationError, match="degree-2"):
            check_local_data(corrupt._replace(nerve=nerve))
    # cells above degree 2 carry no law, so depth 2 checks what depth 3 does
    nerve = build_nerve(cover.manifold, cover.elements, 2)
    assert check_local_data(cover._replace(nerve=nerve)) == check_local_data(cover)


def test_refine_builds_its_nerve_at_least_to_degree_1(models):
    for depth, want in ((0, 1), (1, 1), (2, 2), (3, 3)):
        cover = catalog.example("torus", k=2, nerve_degree=depth).cover
        fine, _ = refine(cover, split_boxes(cover))
        assert fine.nerve.max_degree == want
        deep, _ = refine(models("torus", k=2).cover, split_boxes(cover))
        assert fine.data == deep.data


def test_torus_transitions_equal_the_per_pair_construction(models):
    def row_offset(int_a, int_b):
        for nu in (0, 1, -1):
            lo = max(int_a[0], int_b[0] + nu * 2.0 * math.pi)
            hi = min(int_a[1], int_b[1] + nu * 2.0 * math.pi)
            if hi - lo > 1e-9:
                return nu
        return None

    def reference(layout, k):
        x1 = ex.Var("x1")
        out = {}
        for a in range(len(layout)):
            for b in range(len(layout)):
                nu_row = row_offset(layout[a].interval(1), layout[b].interval(1))
                nu_col = row_offset(layout[a].interval(0), layout[b].interval(0))
                if a == b or nu_row is None or nu_col is None:
                    continue
                out[(a, b)] = ex.ONE if nu_row == 0 else ex.call(
                    "exp", ex.mul(ex.Imag(), ex.mul(ex.Num(float(k * nu_row)), x1))
                )
        return out

    pairs = 0
    for k in (1, 3):
        for g in range(3, 9):
            exm = models("torus", k=k, granularity=g)
            cover, build = exm.cover, exm.data_builder
            for layout in (cover.elements,
                           split_boxes(cover),
                           [box.shifted((0.7, -2.0)) for box in cover.elements]):
                got = build(layout).transitions
                want = reference(layout, k)
                assert list(got.items()) == list(want.items()), (k, g)
                pairs += len(got)
            # one formula object per row offset
            assert len({id(lam) for lam in cover.data.transitions.values()}) <= 3
    assert pairs > 3000


# ---------------------------------------------------------------------------
# Pullback covers

# Every map the catalog offers other than the identity, with an argument
# that moves points.
PULLBACKS = [
    ("plane", {}, "shear"),
    ("plane", {}, "rot:0.3"),
    ("plane", {}, "translate:0.5,0.25"),
    ("plane", {"granularity": 2}, "shear"),
    ("cylinder", {}, "translate:1.5"),
    ("cylinder", {}, "pshift:0.4"),
    ("torus", {"k": 2}, "translate:0.7,0.3"),
    ("sphere", {"k": 2}, "rot:1.0"),
    ("disk", {}, "rot:0.7"),
]


def test_pullback_cases_cover_every_catalog_map(models):
    params = {"torus": {"k": 1}, "sphere": {"k": 1}}
    offered = {
        (name, spec)
        for name in catalog.EXAMPLE_NAMES
        for spec in models(name, **params.get(name, {})).map_specs
        if spec != "identity"
    }
    assert {(name, spec.partition(":")[0]) for name, _, spec in PULLBACKS} == offered


def _close(got, want):
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name,params,spec", PULLBACKS)
def test_pullback_data_is_the_chain_through_the_map(models, monkeypatch, name, params, spec):
    exm = models(name, **params)
    src, pol = exm.cover, exm.polarization()
    phi = catalog.make_map(exm, spec)
    pulled = pullback(src, phi)
    assert check_local_data(pulled).passed
    manifold = src.manifold
    cells = [
        (cell, cell.samples)
        for cell in nerve_cells(pulled.nerve, manifold).values()
        if cell.degree <= 1 and len(cell.samples)
    ]
    for cell, pts in cells:
        up = manifold.reduce(phi.apply(pts))
        jac = phi.jacobian(pts)
        for a in cell.indices:
            s0, s1 = src.potential(a, up)
            t0, t1 = pulled.potential(a, pts)
            _close(t0, s0 * jac[:, 0, 0] + s1 * jac[:, 1, 0])
            _close(t1, s0 * jac[:, 0, 1] + s1 * jac[:, 1, 1])
        if cell.degree == 1:
            a, b = cell.indices
            _close(pulled.transition(a, b, pts), src.transition(a, b, up))
            _close(pulled.transition(b, a, pts), src.transition(b, a, up))

    # the pulled data are formulas: compiling and reading them evaluates
    # no map
    pulled = pullback(src, phi)
    transport = LeafTransport(pulled, pushforward_polarization(phi, pol))
    element, t0, t1, c_elem = element_segments(src, pol, np.linspace(*exm.census_range, 3))[0]

    def refuse(*args, **kwargs):
        raise AssertionError("the map was evaluated")

    for method in ("apply", "apply_inverse", "jacobian"):
        monkeypatch.setattr(Symplectomorphism, method, refuse)
    for cell, pts in cells:
        for a in cell.indices:
            pulled.potential(a, pts)
            pulled.curvature(a, pts)
        if cell.degree == 1:
            a, b = cell.indices
            pulled.transition(a, b, pts)
            pulled.transition_dlog(a, b, pts)
    ts = np.linspace(t0, t1, 5)
    values = transport.integrand(element)(np.array([c_elem]), ts)
    assert np.all(np.isfinite(values))


# ---------------------------------------------------------------------------
# Batched transitions


def _transition_cases(models):
    # a granularity-5 torus has pairs of elements that do not overlap
    builtins = BUILTINS + [("torus", {"k": 2, "granularity": 5})]
    cases = [(f"{name}{params}", models(name, **params).cover) for name, params in builtins]
    for name, params, spec in PULLBACKS:
        exm = models(name, **params)
        cases.append((f"{name}{params}-{spec}", pullback(exm.cover, catalog.make_map(exm, spec))))
    return cases


def test_pullback_transition_cases_cover_the_catalog_maps():
    assert {spec.partition(":")[0] for _, _, spec in PULLBACKS} == {
        "translate", "pshift", "rot", "shear"
    }


def _mixed_pairs(cover, rng):
    """(a, b, pts): the samples of every cell of degree 0 and 1 of cover,
    reduced, each with its first and last member as (a, b) and again as
    (b, a), shuffled; a == b on degree 0.  Both members hold the point."""
    manifold = cover.manifold
    a, b, pts = [], [], []
    for cell in nerve_cells(cover.nerve, manifold).values():
        if cell.degree > 1 or len(cell.samples) == 0:
            continue
        x = cell.samples
        first, last = cell.indices[0], cell.indices[-1]  # equal in degree 0
        for i, j in ((first, last), (last, first)):
            a += [i] * len(x)
            b += [j] * len(x)
            pts.append(x)
    order = rng.permutation(len(a))
    return np.array(a)[order], np.array(b)[order], np.concatenate(pts)[order]


def _evaluator_runs(monkeypatch, call):
    """call's result and the programs it ran."""
    runs = []
    evaluate = kernels.evaluate

    def counted(e, values):
        runs.append(e)
        return evaluate(e, values)

    monkeypatch.setattr(kernels, "evaluate", counted)
    try:
        return call(), runs
    finally:
        monkeypatch.undo()


def test_batched_transitions_equal_the_per_pair_calls_bit_for_bit(models, monkeypatch):
    rng = np.random.default_rng(5)
    moved = missing_checked = 0
    for name, cover in _transition_cases(models):
        cover = cover._replace()  # compiles its own formulas
        a, b, pts = _mixed_pairs(cover, rng)
        assert np.any(a == b), name
        moved += int(np.sum(a != b))

        got, runs = _evaluator_runs(monkeypatch, lambda: cover.transition(a, b, pts))
        formulas = {cover.data.transition_expr(i, j) for i, j in zip(a, b) if i != j}
        assert len(runs) == len(formulas), name
        for i, j in set(zip(a.tolist(), b.tolist())):
            rows = np.flatnonzero((a == i) & (b == j))
            want = cover.transition(i, j, pts[rows])
            assert got[rows].tobytes() == want.tobytes(), (name, i, j)
        assert np.all(got[a == b] == 1.0)

        empty = cover.transition(np.array([], int), np.array([], int), np.empty((0, 2)))
        assert empty.shape == (0,) and empty.dtype == np.complex128
        n = len(cover.elements)
        gaps = [(i, j) for i in range(n) for j in range(n)
                if i != j and (i, j) not in cover.data.transitions]
        for i, j in gaps[:1]:
            with pytest.raises(ConfigurationError, match=rf"\({i}, {j}\)"):
                cover.transition(np.array([0, i]), np.array([0, j]), pts[:2])
        missing_checked += len(gaps[:1])
    assert moved > 10000 and missing_checked > 0


def test_batched_element_accessors_equal_the_per_element_calls_bit_for_bit(
    models, monkeypatch
):
    # potential and curvature on one element per point, transition_dlog on
    # one pair per point: one run per distinct formula, and the bits of a
    # call on each element or pair alone
    rng = np.random.default_rng(7)
    shared = 0
    for name, cover in _transition_cases(models):
        cover = cover._replace()  # compiles its own formulas
        a, b, pts = _mixed_pairs(cover, rng)
        potentials = {cover.data.potentials[i] for i in a.tolist()}
        shared += len(potentials) < len(set(a.tolist()))
        calls = {
            "potential": (lambda i, j, x: cover.potential(i, x), len(potentials)),
            "curvature": (lambda i, j, x: (cover.curvature(i, x),), len(potentials)),
            "transition_dlog": (
                cover.transition_dlog,
                len({cover.data.transition_expr(i, j) for i, j in zip(a, b) if i != j}),
            ),
        }
        for accessor, (call, formulas) in calls.items():
            with trace.counting() as counts:
                got, runs = _evaluator_runs(monkeypatch, lambda: call(a, b, pts))
            assert len(runs) == formulas == counts["formula_runs"], (name, accessor)
            assert all(part.shape == (len(pts),) for part in got), (name, accessor)
            for i, j in set(zip(a.tolist(), b.tolist())):
                rows = np.flatnonzero((a == i) & (b == j))
                for g, w in zip(got, call(i, j, pts[rows])):
                    assert g[rows].tobytes() == w.tobytes(), (name, accessor, i, j)
        dlog = cover.transition_dlog(a, b, pts)
        assert all(np.all(part[a == b] == 0.0) for part in dlog), name
    assert shared > 0  # elements that share a potential formula run it once
