"""The trivialization complex: transport, projections, delta, ranks."""

import math

import numpy as np
import pytest

from gqlab import catalog, cech
from gqlab.action import build_complementary
from gqlab.bohr import bs_census
from gqlab.cech import (
    LeafMismatchError,
    ResolutionError,
    TransversalGrid,
    cohomology_ranks,
    delta,
    delta_matrix,
    half_offset_labels,
    phi,
    project_to_image,
    psi,
    random_projected_cochain,
    res,
    vector_to_cochain,
    zero_cochain,
)
from gqlab.geometry import pushforward_polarization
from gqlab.prequantum import ConfigurationError
from gqlab.transport import LeafTransport

TWO_PI = 2.0 * math.pi


def _grid(models, name, n=24, **params):
    exm = models(name, **params)
    pol = exm.polarization()
    labels = half_offset_labels(pol.label_range[0], pol.label_range[1], n)
    return exm, TransversalGrid.build(exm.cover, pol, labels)


# --- transport --------------------------------------------------------------


def test_full_loop_integral_matches_closed_form(models):
    # (k/2pi) c integrated over a full leaf loop is k c, to quadrature
    exm = models("torus", k=1)
    pol = exm.polarization()
    transport = LeafTransport(exm.cover, pol)
    c = 1.3
    val = transport.integral([0], [0.0], [TWO_PI], np.array([c]))
    assert val.shape == (1,) and abs(val[0] - 1 * c) < 1e-10
    factor = np.exp(-1j * transport.integral([0], [0.0], [TWO_PI], np.array([c])))
    assert factor.shape == (1,) and abs(factor[0] - np.exp(-1j * c)) < 1e-10


def _segment(grid, member, from_key, to_key, pos_from):
    """(c_elem, t0, t1) of the leaf segment between two cells' basepoints,
    in the member element's frame, read off the nerve cell by cell: the
    reference for the tables of TransversalGrid.frames."""
    cf, ct = grid.cells[from_key], grid.cells[to_key]
    base = grid.polarization.root
    la = 1 if base.kind != "axis" else base.leaf_axis
    periods = grid.cover.manifold.periods
    p_leaf = periods[la] or 0.0
    nerve = grid.nerve.cells
    sh_f = nerve[from_key].shifts[nerve[from_key].indices.index(member)]
    sh_t = nerve[to_key].shifts[nerve[to_key].indices.index(member)]
    t0 = cf.t_bp + sh_f[la] * p_leaf
    t1 = ct.t_bp + sh_t[la] * p_leaf
    c_elem = cf.c_cell[pos_from]
    if base.kind == "axis":
        lab = base.label_axis
        c_elem = c_elem + sh_f[lab] * (periods[lab] or 0.0)
    return c_elem, t0, t1


def _one(transport, member, c, t0, t1):
    """The integral of one entry, as a batch of one."""
    return transport.integral([member], [t0], [t1], [c])[0]


# --- image projection and the psi/phi pair ----------------------------------


def test_project_is_idempotent_and_fixes_image(models):
    exm, grid = _grid(models, "torus", n=16, k=1)
    rng = np.random.default_rng(0)
    for key in grid.degree_keys(1) + grid.degree_keys(2):
        L = grid.cells[key].count
        if L == 0:
            continue
        n1 = len(key[0])
        raw = rng.normal(size=(n1, L)) + 1j * rng.normal(size=(n1, L))
        once = project_to_image(grid, key, raw)
        twice = project_to_image(grid, key, once)
        assert np.max(np.abs(twice - once)) < 1e-10
        g = rng.normal(size=L) + 1j * rng.normal(size=L)
        image = psi(grid, key, g)
        assert np.max(np.abs(project_to_image(grid, key, image) - image)) < 1e-12


def test_project_on_single_element_is_identity(models):
    exm, grid = _grid(models, "plane", n=8)
    key = ((0,), 0)
    raw = np.ones((1, grid.cells[key].count), dtype=complex) * (2 + 1j)
    assert np.array_equal(project_to_image(grid, key, raw), raw)


def test_psi_phi_inverse_pair(models):
    exm, grid = _grid(models, "torus", n=16, k=2)
    rng = np.random.default_rng(1)
    for key in grid.degree_keys(1) + grid.degree_keys(2) + grid.degree_keys(3):
        L = grid.cells[key].count
        if L == 0:
            continue
        g = rng.normal(size=L) + 1j * rng.normal(size=L)
        tup = psi(grid, key, g)
        assert np.max(np.abs(phi(grid, key, tup) - g)) < 1e-12
        again = psi(grid, key, phi(grid, key, tup))
        assert np.max(np.abs(again - tup)) < 1e-12


def test_psi_output_satisfies_image_characterization(models):
    exm, grid = _grid(models, "torus", n=16, k=3)
    key = grid.degree_keys(1)[0]
    g = np.ones(grid.cells[key].count, dtype=complex)
    tup = psi(grid, key, g)
    indices = key[0]
    for j in range(len(indices)):
        avg = np.zeros_like(g)
        for k in range(len(indices)):
            lam = grid.transition_at_basepoints(key, indices[k], indices[j])
            avg += lam * tup[k]
        assert np.max(np.abs(avg / len(indices) - tup[j])) < 1e-12


# --- restriction maps --------------------------------------------------------


def test_res_identity_on_image(models):
    exm, grid = _grid(models, "torus", n=16, k=1)
    rng = np.random.default_rng(2)
    for key in grid.degree_keys(1)[:6]:
        L = grid.cells[key].count
        if L == 0:
            continue
        tup = psi(grid, key, rng.normal(size=L) + 1j * rng.normal(size=L))
        back = res(grid, key, key, tup)
        assert np.max(np.abs(back - tup)) < 1e-12


def test_res_composition_law(models):
    exm, grid = _grid(models, "torus", n=16, k=2)
    rng = np.random.default_rng(3)
    checked = 0
    for key in grid.degree_keys(2):
        if grid.cells[key].count == 0:
            continue
        a, b, c = key[0]
        sub_key, _ = grid.sub_cell_for(key, (a,))
        mid_key, _ = grid.sub_cell_for(key, (a, b))
        L = grid.cells[sub_key].count
        tup = psi(grid, sub_key, rng.normal(size=L) + 1j * rng.normal(size=L))
        direct = res(grid, sub_key, key, tup)
        via = res(grid, mid_key, key, res(grid, sub_key, mid_key, tup))
        assert np.max(np.abs(direct - via)) < 1e-10
        checked += 1
    assert checked >= 10


def test_res_rejects_non_subtuple(models):
    exm, grid = _grid(models, "torus", n=12, k=1)
    pair = grid.degree_keys(1)[0]
    other = ((pair[0][1] + 1,), 0)
    with pytest.raises(ConfigurationError):
        res(grid, pair, other, np.zeros((2, 1), dtype=complex))


def test_untwisted_res_is_plain_averaging(models):
    exm, grid = _grid(models, "circle-flat", n=5)
    key = ((0, 1), 0)
    sub_key, _ = grid.sub_cell_for(key, (0,))
    L = grid.cells[sub_key].count
    vals = (np.arange(L) + 1.0 + 0.5j).reshape(1, L)
    out = res(grid, sub_key, key, vals)
    Lp = grid.cells[key].count
    positions = [grid.cells[sub_key].position(int(g)) for g in grid.cells[key].label_idx]
    expected = vals[0][positions]
    assert np.array_equal(out[0], expected)
    assert np.array_equal(out[1], expected)


# --- the differential ---------------------------------------------------------


def test_delta_of_zero_is_zero(models):
    exm, grid = _grid(models, "torus", n=12, k=1)
    z = zero_cochain(grid, 0)
    assert delta(grid, z).norm() == 0.0


def test_delta_reduces_to_classical_coboundary_untwisted(models):
    """With lambda = 1 and theta = 0 the differential is bit-for-bit the
    classical Cech coboundary on the same nerve."""
    exm, grid = _grid(models, "circle-flat", n=4)
    rng = np.random.default_rng(4)
    values = {0: rng.normal(size=4) + 1j * rng.normal(size=4),
              1: rng.normal(size=4) + 1j * rng.normal(size=4)}
    c = zero_cochain(grid, 0)
    for el, vals in values.items():
        cg = grid.cells[((el,), 0)]
        c.data[((el,), 0)][0] = vals[cg.label_idx]
    d = delta(grid, c)
    for comp in (0, 1):
        key = ((0, 1), comp)
        cg = grid.cells[key]
        f0 = values[0][cg.label_idx]
        f1 = values[1][cg.label_idx]
        classical = f1 - f0  # (delta c)_{ab} = c_b - c_a
        assert np.array_equal(d.data[key][0], classical)
        assert np.array_equal(d.data[key][1], classical)


@pytest.mark.parametrize(
    "name,params",
    [("plane", {"granularity": 2}), ("cylinder", {}), ("torus", {"k": 1}),
     ("torus", {"k": 3}), ("circle-flat", {})],
)
def test_delta_squared_vanishes(models, name, params):
    exm, grid = _grid(models, name, n=12, **params)
    rng = np.random.default_rng(5)
    for degree in (0, 1):
        if not grid.degree_keys(degree + 2):
            continue
        for _ in range(10):
            c = random_projected_cochain(grid, degree, rng)
            dd = delta(grid, delta(grid, c))
            assert dd.norm() < 1e-10 * (1.0 + c.norm())


def test_delta_beyond_nerve_degree_errors(models):
    exm, grid = _grid(models, "torus", n=12, k=1)
    c3 = zero_cochain(grid, 3)
    with pytest.raises(ConfigurationError):
        delta(grid, c3)


def test_matrix_delta_matches_pointwise_delta(models):
    exm, grid = _grid(models, "torus", n=16, k=2)
    rng = np.random.default_rng(6)
    for degree in (0, 1):
        mat, (_, _, n_src), _ = delta_matrix(grid, degree)
        vec = rng.normal(size=n_src) + 1j * rng.normal(size=n_src)
        c = vector_to_cochain(grid, degree, vec)
        direct = delta(grid, c)
        via_matrix = vector_to_cochain(grid, degree + 1, mat @ vec)
        worst = 0.0
        for key in direct.data:
            if direct.data[key].size:
                worst = max(
                    worst,
                    float(np.max(np.abs(direct.data[key] - via_matrix.data[key]))),
                )
        assert worst < 1e-10


# --- cohomology ranks ---------------------------------------------------------


def test_plane_ranks(models):
    exm = models("plane")
    rep = cohomology_ranks(exm.cover, exm.polarization(), 16)
    assert [d.betti for d in rep.degrees] == [16, 0, 0]
    assert rep.degrees[0].betti_per_leaf == 1.0


def test_untwisted_circle_ranks_match_classical(models):
    exm = models("circle-flat")
    rep = cohomology_ranks(exm.cover, exm.polarization(), 8)
    assert rep.n_labels_retained == 8
    assert [d.betti for d in rep.degrees] == [8, 8, 0]
    assert rep.degrees[0].betti_per_leaf == 1.0
    assert rep.degrees[1].betti_per_leaf == 1.0


def test_torus_ranks_stable_under_grid_and_refinement(models):
    from gqlab.prequantum import refine, split_boxes

    exm = models("torus", k=2)
    pol = exm.polarization()
    base = cohomology_ranks(exm.cover, pol, 32)
    doubled = cohomology_ranks(exm.cover, pol, 64)
    fine, _ = refine(exm.cover, split_boxes(exm.cover))
    refined = cohomology_ranks(fine, pol, 32)
    for a, b, c in zip(base.degrees, doubled.degrees, refined.degrees):
        assert a.betti_per_leaf == b.betti_per_leaf == c.betti_per_leaf
        assert a.betti == c.betti  # same label grid


def test_resolution_error_when_grid_misses_an_element(models):
    exm = models("torus", k=1)
    with pytest.raises(ResolutionError):
        cohomology_ranks(exm.cover, exm.polarization(), 1)


def test_degree_cap_validated(models):
    exm = models("torus", k=1)
    with pytest.raises(ConfigurationError):
        cohomology_ranks(exm.cover, exm.polarization(), 16, max_degree=3)


def test_rank_report_shapes(models):
    exm = models("torus", k=1)
    rep = cohomology_ranks(exm.cover, exm.polarization(), 24)
    doc = rep.as_dict()
    assert doc["threshold"] == 1e-8
    for entry in doc["degrees"]:
        assert entry["delta_shape"][1] == entry["dim_cochains"]


# --- per-leaf blocks ------------------------------------------------------------


def _with_bs_labels(k, n):
    """A generic half-offset torus grid plus the BS heights 2 pi m / k."""
    generic = half_offset_labels(0.0, TWO_PI, n)
    return np.sort(np.concatenate([generic, TWO_PI * np.arange(k) / k]))


def _position_labels(grid, degree):
    return np.concatenate(
        [grid.cells[key].label_idx for key in grid.degree_keys(degree)]
    )


def _rank(sv, threshold=1e-8):
    return int(np.sum(sv > threshold * sv[0])) if sv.size and sv[0] > 0 else 0


def _blocks_cases():
    cases = []
    for k in (1, 2, 3):
        for g in (3, 4):
            cases.append(("torus", {"k": k, "granularity": g}, "generic"))
            cases.append(("torus", {"k": k, "granularity": g}, "bs"))
    return cases + [("cylinder", {}, "generic"), ("torus", {"k": 2}, "pullback")]


def _blocks_grid(models, name, params, kind):
    exm = models(name, **params)
    pol = exm.polarization()
    cover = exm.cover
    labels = half_offset_labels(pol.label_range[0], pol.label_range[1], 16)
    if kind == "bs":
        labels = _with_bs_labels(params["k"], 16)
    elif kind == "pullback":
        translate = catalog.make_map(exm, f"translate:{math.pi},0")
        cover = build_complementary(translate, exm.cover).base
        pol = pushforward_polarization(translate, pol)
    return TransversalGrid.build(cover, pol, labels)


@pytest.mark.parametrize("name,params,kind", _blocks_cases())
def test_leaf_blocks_match_pointwise_delta(models, name, params, kind):
    grid = _blocks_grid(models, name, params, kind)
    rng = np.random.default_rng(7)
    for degree in (0, 1, 2):
        op, (_, _, n_src), (_, _, n_dst) = delta_matrix(grid, degree)
        assert op.shape == (n_dst, n_src)
        vec = rng.normal(size=n_src) + 1j * rng.normal(size=n_src)
        c = vector_to_cochain(grid, degree, vec)
        direct = delta(grid, c)
        via_blocks = vector_to_cochain(grid, degree + 1, op @ vec)
        for key, want in direct.data.items():
            assert np.allclose(via_blocks.data[key], want, atol=1e-10, rtol=0)


@pytest.mark.parametrize("name,params,kind", _blocks_cases())
def test_leaf_blocks_spectrum_matches_dense_svd(models, name, params, kind):
    grid = _blocks_grid(models, name, params, kind)
    for degree in (0, 1, 2):
        op, _, _ = delta_matrix(grid, degree)
        sv = op.singular_values()
        sv_dense = np.linalg.svd(op.toarray(), compute_uv=False)
        assert _rank(sv) == _rank(sv_dense)
        assert np.all(np.abs(sv[:3] - sv_dense[:3]) <= 1e-12 * sv_dense[:3])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_sheaf_cohomology_sits_on_the_bs_leaves(models, k):
    exm = models("torus", k=k)
    pol = exm.polarization()
    generic = half_offset_labels(0.0, TWO_PI, 16)
    grid = TransversalGrid.build(exm.cover, pol, generic)
    rep = cohomology_ranks(exm.cover, pol, 16, grid=grid)
    assert [d.betti for d in rep.degrees] == [0, 0, 0]
    labels = _with_bs_labels(k, 16)
    grid = TransversalGrid.build(exm.cover, pol, labels)
    rep = cohomology_ranks(exm.cover, pol, len(labels), grid=grid)
    assert [d.betti for d in rep.degrees] == [k, k, 0]
    # degree 0: the labels whose coefficients delta does not fill
    op, _, _ = delta_matrix(grid, 0)
    cut = rep.threshold * op.singular_values()[0]
    block_rank = {
        g: int(np.sum(np.linalg.svd(mat, compute_uv=False) > cut))
        for g, _, _, mat in op.blocks
    }
    col_label = _position_labels(grid, 0)
    kernel = [
        labels[g]
        for g in np.unique(col_label)
        if np.sum(col_label == g) > block_rank.get(g, 0)
    ]
    census = bs_census(exm.cover, pol, (0.0, TWO_PI), 33)
    assert len(kernel) == census.q_bs_smooth == k
    assert np.allclose(kernel, sorted(census.bs_locations), atol=1e-8, rtol=0)


# --- batched transport and block assembly ------------------------------------


def _face_segments(grid):
    """(member, c_elem, t0, t1) of every face segment delta_matrix uses."""
    for key in grid.degree_keys(1):
        cg = grid.cells[key]
        for face_key, _ in grid.nerve.faces[key]:
            fcg = grid.cells[face_key]
            carried = cg.label_idx[np.isin(cg.label_idx, fcg.label_idx)]
            if fcg.closed or carried.size == 0:
                continue
            member = grid.nerve.cells[face_key].indices[0]
            yield (member,) + _segment(
                grid, member, face_key, key, fcg.position(carried)
            )


@pytest.mark.parametrize("kind", ["generic", "pullback"])
def test_label_array_integral_matches_scalar_calls(models, kind):
    grid = _blocks_grid(models, "torus", {"k": 2}, kind)
    segments = list(_face_segments(grid))
    assert segments
    batched = LeafTransport(grid.cover, grid.polarization)
    scalar = LeafTransport(grid.cover, grid.polarization)  # one label a call
    for member, c_elem, t0, t1 in segments:
        n = len(c_elem)
        got = batched.integral([member] * n, [t0] * n, [t1] * n, c_elem)
        want = np.array([_one(scalar, member, c, t0, t1) for c in c_elem])
        assert got.shape == c_elem.shape
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    # one quadrature call per segment at most; later one-label calls hit
    # the cache
    assert batched.batches <= len(segments) < batched.integrals_computed
    batches = batched.batches
    for member, c_elem, t0, t1 in segments:
        n = len(c_elem)
        vals = batched.integral([member] * n, [t0] * n, [t1] * n, c_elem)
        for c, val in zip(c_elem, vals):
            assert _one(batched, member, c, t0, t1) == val
    assert batched.batches == batches


def test_label_array_integral_of_empty_interval_or_no_labels(models):
    exm = models("torus", k=2)
    transport = LeafTransport(exm.cover, exm.polarization())
    got = transport.integral([0] * 3, [0.3] * 3, [0.3] * 3, np.array([0.5, 1.0, 1.5]))
    assert got.shape == (3,) and np.all(got == 0)
    assert transport.integral([], [], [], np.empty(0)).shape == (0,)
    assert transport.batches == 0


@pytest.mark.parametrize("kind", ["generic", "pullback"])
def test_entry_integrals_group_by_segment(models, kind):
    # shuffled entries with repeats: one quadrature row per distinct entry
    # missing from the cache, all of them in one quadrature call
    grid = _blocks_grid(models, "torus", {"k": 2}, kind)
    rng = np.random.default_rng(5)
    rows = [
        (member, t0, t1, c)
        for member, c_elem, t0, t1 in _face_segments(grid)
        for c in c_elem[: 1 + len(c_elem) // 2]
    ]
    rows += [rows[i] for i in rng.integers(len(rows), size=len(rows))]  # repeats
    entries = np.array(rows)[rng.permutation(len(rows))]
    segments = {(int(m), t0, t1) for m, t0, t1, _ in entries.tolist()}
    distinct = {(int(m), t0, t1, c) for m, t0, t1, c in entries.tolist() if t0 != t1}
    assert len(segments) > 1 and len(distinct) < len(entries)

    transport = LeafTransport(grid.cover, grid.polarization)
    got = transport.integral(*entries.T)
    assert transport.batches == 1 and transport.integrals_computed == len(distinct)
    # every entry is its one-entry batch, bit for bit
    one = LeafTransport(grid.cover, grid.polarization)
    want = [_one(one, int(m), c, t0, t1) for m, t0, t1, c in entries.tolist()]
    assert got.view(float).tolist() == np.array(want).view(float).tolist()
    # the cache answers a second batch in another order without quadrature
    again = transport.integral(*entries[::-1].T)
    assert np.array_equal(again, got[::-1]) and transport.batches == 1
    assert transport.integral([], [], [], []).shape == (0,)
    # a batch with some misses makes one more call, for the misses alone
    extra = entries[entries[:, 1] != entries[:, 2]][:3].copy()
    extra[:, 3] += 1e-3
    transport.integral(*np.concatenate([entries, extra]).T)
    misses = {(int(m), t0, t1, c) for m, t0, t1, c in extra.tolist()} - distinct
    assert transport.batches == 2
    assert transport.integrals_computed == len(distinct) + len(misses) > len(distinct)


def _reference_blocks(grid, degree):
    """delta_matrix's blocks assembled label by label, with one one-label
    transport call per entry."""
    src_keys, src_off, _ = cech._block_offsets(grid, degree)
    dst_keys, dst_off, _ = cech._block_offsets(grid, degree + 1)
    transport = LeafTransport(grid.cover, grid.polarization)
    rows, cols, vals = [], [], [np.empty(0, complex)]
    for key in dst_keys:
        cg = grid.cells[key]
        if cg.closed:
            continue
        ref = grid.nerve.cells[key].indices[0]
        for j, (face_key, _) in enumerate(grid.nerve.faces[key]):
            fcg = grid.cells[face_key]
            beta0 = grid.nerve.cells[face_key].indices[0]
            lam = grid.transition_at_basepoints(key, beta0, ref)
            pos_face, fac = [], []
            for pos, gidx in enumerate(cg.label_idx):
                if fcg.closed or gidx not in fcg.label_idx:
                    continue
                fpos = fcg.position(int(gidx))
                c, t0, t1 = _segment(grid, beta0, face_key, key, fpos)
                rows.append(dst_off[key] + pos)
                cols.append(src_off[face_key] + fpos)
                pos_face.append(pos)
                fac.append(np.exp(-1j * transport.integral([beta0], [t0], [t1], [c]))[0])
            # the products of delta_matrix, one array per face
            vals.append((-1) ** j * lam[pos_face] * np.array(fac, complex))
    rows, cols, vals = np.array(rows, int), np.array(cols, int), np.concatenate(vals)
    row_label = np.concatenate([grid.cells[k].label_idx for k in dst_keys] + [[]])
    col_label = np.concatenate([grid.cells[k].label_idx for k in src_keys] + [[]])
    blocks = []
    for g in np.intersect1d(row_label, col_label):
        r, c = np.flatnonzero(row_label == g), np.flatnonzero(col_label == g)
        e = row_label[rows] == g if rows.size else np.zeros(0, bool)
        mat = np.zeros((len(r), len(c)), dtype=np.complex128)
        np.add.at(mat, (np.searchsorted(r, rows[e]), np.searchsorted(c, cols[e])), vals[e])
        blocks.append((int(g), r, c, mat))
    return blocks


def _assembly_grids(models):
    from gqlab.prequantum import refine, split_boxes

    def grid(exm, cover=None, pol=None, n=16):
        pol = pol or exm.polarization()
        labels = half_offset_labels(pol.label_range[0], pol.label_range[1], n)
        return TransversalGrid.build(cover or exm.cover, pol, labels)

    torus, cyl = models("torus", k=2), models("cylinder")
    plane = models("plane", granularity=2)
    translate = catalog.make_map(torus, f"translate:{math.pi},0")
    pshift = catalog.make_map(cyl, "pshift:1")
    return {
        "torus": grid(torus, n=33),
        "torus-bs": TransversalGrid.build(
            torus.cover, torus.polarization(), _with_bs_labels(2, 16)
        ),
        "cylinder": grid(cyl),
        "plane-vertical": grid(plane, pol=plane.polarization("vertical")),
        "plane-horizontal": grid(plane, pol=plane.polarization("horizontal")),
        "sphere": grid(models("sphere", k=3)),
        "disk": grid(models("disk")),
        "torus-refined": grid(torus, cover=refine(torus.cover, split_boxes(torus.cover))[0]),
        "torus-pullback": grid(
            torus,
            cover=build_complementary(translate, torus.cover).base,
            pol=pushforward_polarization(translate, torus.polarization()),
        ),
        "cylinder-pullback": grid(
            cyl,
            cover=build_complementary(pshift, cyl.cover).base,
            pol=pushforward_polarization(pshift, cyl.polarization()),
        ),
        # the sizes of the perfbench ranks workload
        "torus-k3-g5": grid(models("torus", k=3, granularity=5), n=64),
        "cylinder-g5": grid(models("cylinder", granularity=5), n=128),
    }


def test_delta_matrix_blocks_equal_the_per_label_assembly(models):
    n_blocks = 0
    for name, grid in _assembly_grids(models).items():
        for degree in range(min(3, grid.nerve.max_degree)):
            got = delta_matrix(grid, degree)[0].blocks
            want = _reference_blocks(grid, degree)
            assert len(got) == len(want), (name, degree)
            for (g, r, c, mat), (g2, r2, c2, mat2) in zip(got, want):
                assert g == g2 and np.array_equal(r, r2) and np.array_equal(c, c2)
                assert np.array_equal(mat, mat2), (name, degree, g)
            n_blocks += len(got)
    assert n_blocks > 150


def test_stacked_block_spectrum_is_the_per_block_union(models):
    for name, grid in _assembly_grids(models).items():
        for degree in range(min(3, grid.nerve.max_degree)):
            op = delta_matrix(grid, degree)[0]
            sv = [np.linalg.svd(b[3], compute_uv=False) for b in op.blocks]
            n = min(op.shape)
            want = np.sort(np.concatenate(sv + [np.zeros(n)]))[::-1][:n]
            assert np.array_equal(op.singular_values(), want), (name, degree)


def test_grid_basepoints_equal_a_curve_call_per_cell(models):
    # build places every cell's basepoints in one curve call; each cell
    # gets, bit for bit, what a call on its own labels gives
    for name, grid in _assembly_grids(models).items():
        pol, manifold = grid.polarization, grid.cover.manifold
        for key, cg in grid.cells.items():
            own = manifold.reduce(pol.curve_points(cg.c_cell, np.full(cg.count, cg.t_bp)))
            assert cg.base_points.shape == (cg.count, 2), (name, key)
            assert cg.base_points.tobytes() == own.tobytes(), (name, key)


def test_cell_position_of_label_arrays(models):
    exm, grid = _grid(models, "torus", n=12, k=2)
    cg = grid.cells[grid.degree_keys(0)[0]]
    assert np.array_equal(cg.position(cg.label_idx[::-1]), np.arange(cg.count)[::-1])
    assert cg.position(int(cg.label_idx[1])) == 1
    absent = np.setdiff1d(np.arange(12), cg.label_idx)
    with pytest.raises(LeafMismatchError, match=f"label {absent[0]} "):
        cg.position(np.concatenate([cg.label_idx, absent[::-1]]))
    with pytest.raises(LeafMismatchError, match=f"label {absent[0]} "):
        cg.position(int(absent[0]))
    assert cg.position(np.empty(0, int)).shape == (0,)
    empty = cech.CellGrid(np.empty(0, int), np.empty(0), 0.5, True, np.empty((0, 2)))
    assert empty.position(np.empty(0, int)).shape == (0,)
    for idx in (3, np.array([5, 3])):
        with pytest.raises(LeafMismatchError, match="label 3 "):
            empty.position(idx)


@pytest.mark.parametrize("kind", ["generic", "pullback"])
def test_batched_res_matches_per_label_transport(models, kind):
    grid = _blocks_grid(models, "torus", {"k": 2}, kind)
    transport = LeafTransport(grid.cover, grid.polarization)
    rng = np.random.default_rng(3)
    checked = 0
    for key in grid.degree_keys(1):
        sup, cg_sup = grid.nerve.cells[key], grid.cells[key]
        for face_key, _ in grid.nerve.faces[key]:
            cg_sub = grid.cells[face_key]
            sub = grid.nerve.cells[face_key].indices
            vals = rng.normal(size=(len(sub), cg_sub.count)) + 0j
            moved = np.zeros((len(sub), cg_sup.count), dtype=complex)
            for k, member in enumerate(sub):
                for p, gidx in enumerate(cg_sup.label_idx):
                    q = cg_sub.position(int(gidx))
                    c, t0, t1 = _segment(grid, member, face_key, key, q)
                    moved[k, p] = vals[k, q] * np.exp(-1j * _one(transport, member, c, t0, t1))
            ref = sup.indices[0]  # component 0 of the super tuple
            want = sum(
                grid.transition_at_basepoints(key, a, ref) * moved[k]
                for k, a in enumerate(sub)
            ) / len(sub)
            got = res(grid, face_key, key, vals)[0]
            assert np.allclose(got, want, atol=1e-14, rtol=0)
            checked += cg_sup.count
    assert checked > 0


def test_closed_degrees_assemble_the_empty_operator(models):
    grids = _assembly_grids(models)
    for name in ("sphere", "disk"):
        grid = grids[name]
        assert set(grid.closed_cells) == set(grid.nerve.cells)
        for degree in range(min(3, grid.nerve.max_degree)):
            op, (_, _, n_src), (_, _, n_dst) = delta_matrix(grid, degree)
            assert op.shape == (n_dst, n_src) == (0, 0)
            assert op.blocks == () and op.stacks == ()
            assert op.singular_values().shape == (0,)
            assert op.transition_batches == 0


def _assembly_work(grid, degree):
    """The distinct leaf segments and non-identity element pairs of the
    entries of one degree, found pair by pair."""
    segments, pairs = set(), set()
    for key in grid.degree_keys(degree + 1):
        cg = grid.cells[key]
        ref = grid.nerve.cells[key].indices[0]
        for face_key, _ in grid.nerve.faces[key]:
            fcg = grid.cells[face_key]
            carried = cg.label_idx[np.isin(cg.label_idx, fcg.label_idx)]
            if carried.size == 0:
                continue
            beta0 = grid.nerve.cells[face_key].indices[0]
            _, t0, t1 = _segment(grid, beta0, face_key, key, fcg.position(carried))
            segments.add((beta0, t0, t1))
            if beta0 != ref:
                pairs.add((beta0, ref))
    return segments, pairs


@pytest.mark.parametrize(
    "name,params,n", [("torus", {"k": 2, "granularity": 4}, 48), ("cylinder", {}, 35)]
)
def test_delta_matrix_sweeps_each_segment_and_pair_once(models, monkeypatch, name,
                                                        params, n):
    from gqlab.prequantum import TrivializationCover

    exm = models(name, **params)
    pol = exm.polarization()
    labels = half_offset_labels(pol.label_range[0], pol.label_range[1], n)
    grid = TransversalGrid.build(exm.cover, pol, labels)
    calls = {"integral": [], "transition": []}
    integral, transition = LeafTransport.integral, TrivializationCover.transition

    def counted_integral(self, elements, t0, t1, labels):
        calls["integral"].append(
            {(int(m), a, b) for m, a, b in zip(elements, t0.tolist(), t1.tolist())}
        )
        return integral(self, elements, t0, t1, labels)

    def counted_transition(self, a, b, pts):
        calls["transition"].append((a, b))
        return transition(self, a, b, pts)

    monkeypatch.setattr(LeafTransport, "integral", counted_integral)
    monkeypatch.setattr(TrivializationCover, "transition", counted_transition)
    checked = 0
    for degree in range(3):
        for found in calls.values():
            found.clear()
        batches = grid.leaf_transport.batches
        op = delta_matrix(grid, degree)[0]
        segments, pairs = _assembly_work(grid, degree)
        checked += len(calls["integral"]) > 0 and len(calls["transition"]) > 0
        # one integral call, and at most one quadrature sweep, per degree,
        # on the leaf segments the entries need
        assert len(calls["integral"]) <= 1
        assert grid.leaf_transport.batches - batches <= 1
        assert set().union(*calls["integral"]) <= segments
        assert len(calls["transition"]) == len(set(calls["transition"]))
        assert set(calls["transition"]) <= pairs
        assert op.transition_batches == len(calls["transition"])
    assert checked


@pytest.mark.parametrize("name,k", [("torus", 1), ("torus", 2), ("torus", 3),
                                    ("cylinder", None)])
def test_bs_betti_numbers_survive_refinement_and_label_shifts(models, name, k):
    from gqlab.prequantum import refine, split_boxes

    exm = models(name, k=k) if k else models(name)
    pol = exm.polarization()
    lo, hi = pol.label_range
    if name == "torus":
        labels, n_bs = _with_bs_labels(k, 16), k
    else:  # BS at the integer momenta
        bs = np.arange(np.ceil(lo), hi)
        labels = np.sort(np.concatenate([half_offset_labels(lo, hi, 16), bs]))
        n_bs = len(bs)

    def betti(cover, labels):
        grid = TransversalGrid.build(cover, pol, labels)
        rep = cohomology_ranks(cover, pol, len(labels), grid=grid)
        return [d.betti for d in rep.degrees]

    want = betti(exm.cover, labels)
    assert want == [n_bs, n_bs, 0]
    fine, _ = refine(exm.cover, split_boxes(exm.cover))
    assert betti(fine, labels) == want
    if name == "torus":  # labels one period up name the same leaves
        assert betti(exm.cover, labels + TWO_PI) == want
