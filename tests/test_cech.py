"""The trivialization complex: transport, the psi/phi pair, res, delta, ranks."""

import itertools
import math

import numpy as np
import pytest

from gqlab import catalog, trace
from gqlab.action import build_complementary
from gqlab.bohr import LeafAtlas, bs_census
from gqlab.cech import (
    LeafMismatchError,
    ResolutionError,
    TransversalGrid,
    cohomology_ranks,
    delta,
    delta_matrix,
    half_offset_grid,
    half_offset_labels,
    phi,
    psi,
    res,
)
from gqlab.geometry import LeafFrame, pushforward_polarization
from gqlab.prequantum import ConfigurationError, pullback, refine, split_boxes
from gqlab.transport import LeafTransport

from cells import degree_cells, grid_cell, grid_cells, nerve_cells, nerve_faces

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
    cf, ct = grid_cell(grid, from_key), grid_cell(grid, to_key)
    base = grid.polarization.root
    la = 1 if base.kind != "axis" else base.leaf_axis
    periods = grid.cover.manifold.periods
    p_leaf = periods[la] or 0.0
    nerve = nerve_cells(grid.nerve)
    sh_f = nerve[from_key].shifts[nerve[from_key].indices.index(member)]
    sh_t = nerve[to_key].shifts[nerve[to_key].indices.index(member)]
    t0 = cf.t_bp + sh_f[la] * p_leaf
    t1 = ct.t_bp + sh_t[la] * p_leaf
    c_elem = cf.c_cell[pos_from]
    if base.kind == "axis":
        lab = base.label_axis
        c_elem = c_elem + sh_f[lab] * (periods[lab] or 0.0)
    return c_elem, t0, t1


def _lam(grid, key, a, b):
    """lambda_ab at the basepoints of a cell."""
    return grid.cover.transition(a, b, grid_cell(grid, key).base_points)


def _one(transport, member, c, t0, t1):
    """The integral of one entry, as a batch of one."""
    return transport.integral([member], [t0], [t1], [c])[0]


# --- the psi/phi pair ---------------------------------------------------------


def test_psi_phi_inverse_pair(models):
    exm, grid = _grid(models, "torus", n=16, k=2)
    rng = np.random.default_rng(1)
    for key in grid.degree_keys(1) + grid.degree_keys(2) + grid.degree_keys(3):
        L = grid_cell(grid, key).count
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
    g = np.ones(grid_cell(grid, key).count, dtype=complex)
    tup = psi(grid, key, g)
    indices = key[0]
    for j in range(len(indices)):
        avg = np.zeros_like(g)
        for k in range(len(indices)):
            lam = _lam(grid, key, indices[k], indices[j])
            avg += lam * tup[k]
        assert np.max(np.abs(avg / len(indices) - tup[j])) < 1e-12


# --- restriction maps --------------------------------------------------------


def test_res_identity_on_image(models):
    exm, grid = _grid(models, "torus", n=16, k=1)
    rng = np.random.default_rng(2)
    for key in grid.degree_keys(1)[:6]:
        L = grid_cell(grid, key).count
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
        if grid_cell(grid, key).count == 0:
            continue
        a, b, c = key[0]
        sub_key, _ = grid.sub_cell_for(key, (a,))
        mid_key, _ = grid.sub_cell_for(key, (a, b))
        L = grid_cell(grid, sub_key).count
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
    L = grid_cell(grid, sub_key).count
    vals = (np.arange(L) + 1.0 + 0.5j).reshape(1, L)
    out = res(grid, sub_key, key, vals)
    Lp = grid_cell(grid, key).count
    sub_labels = grid_cell(grid, sub_key).label_idx
    positions = np.searchsorted(sub_labels, grid_cell(grid, key).label_idx)
    expected = vals[0][positions]
    assert np.array_equal(out[0], expected)
    assert np.array_equal(out[1], expected)


# --- the differential ---------------------------------------------------------


def _coefficients(grid, degree, rng):
    """A random coefficient vector of degree."""
    n = int(grid.degrees[degree].starts[-1])
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_delta_of_zero_is_zero(models):
    exm, grid = _grid(models, "torus", n=12, k=1)
    z = np.zeros(grid.degrees[0].starts[-1], dtype=complex)
    d = delta(grid, 0, z)
    assert d.shape == (grid.degrees[1].starts[-1],) and not d.any()


def test_delta_reduces_to_classical_coboundary_untwisted(models):
    """With lambda = 1 and theta = 0 the differential is bit-for-bit the
    classical Cech coboundary on the same nerve."""
    exm, grid = _grid(models, "circle-flat", n=4)
    rng = np.random.default_rng(4)
    values = {0: rng.normal(size=4) + 1j * rng.normal(size=4),
              1: rng.normal(size=4) + 1j * rng.normal(size=4)}
    c = np.zeros(grid.degrees[0].starts[-1], dtype=complex)
    for el, vals in values.items():
        key = ((el,), 0)
        c[grid.span(key)[1]] = vals[grid_cell(grid, key).label_idx]
    d = delta(grid, 0, c)
    for comp in (0, 1):
        key = ((0, 1), comp)
        cg = grid_cell(grid, key)
        f0 = values[0][cg.label_idx]
        f1 = values[1][cg.label_idx]
        classical = f1 - f0  # (delta c)_{ab} = c_b - c_a
        tup = psi(grid, key, d[grid.span(key)[1]])
        assert np.array_equal(tup[0], classical)
        assert np.array_equal(tup[1], classical)


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
            v = _coefficients(grid, degree, rng)
            dd = delta(grid, degree + 1, delta(grid, degree, v))
            size = np.max(np.abs(v), initial=0.0)
            assert np.max(np.abs(dd), initial=0.0) < 1e-10 * (1.0 + size)


def test_delta_beyond_nerve_degree_errors(models):
    exm, grid = _grid(models, "torus", n=12, k=1)
    with pytest.raises(ConfigurationError, match="degree-4"):
        delta(grid, 3, np.zeros(grid.degrees[3].starts[-1], dtype=complex))


# --- the block differential against its per-face reference -------------------


def _frame_of(grid, key):
    """The row of TransversalGrid.frames for one cell: (t, shift)."""
    degree, row = grid.nerve.locate(key)
    t, shift = grid.frames(degree)
    return t[row], shift[row]


def _pointwise_res(grid, transport, sub_key, super_key, values):
    """res one (sub, super) pair at a time: one transport call per pair,
    one transition call per member pair."""
    sub, sup = sub_key[0], super_key[0]
    cg_sub, cg_sup = grid_cell(grid, sub_key), grid_cell(grid, super_key)
    n1, count = len(sub), cg_sup.count
    if cg_sub.closed or cg_sup.closed:
        return np.zeros((len(sup), count), dtype=np.complex128)
    pos_sub = np.searchsorted(cg_sub.label_idx, cg_sup.label_idx)
    assert np.array_equal(cg_sub.label_idx[pos_sub], cg_sup.label_idx)
    t0, shift = _frame_of(grid, sub_key)
    t1 = _frame_of(grid, super_key)[0][[sup.index(m) for m in sub]]
    integrals = transport.integral(
        np.array(sub).repeat(count), t0.repeat(count), t1.repeat(count),
        (cg_sub.c_cell[pos_sub] + shift[:, None]).ravel(),
    )
    moved = values[:, pos_sub] * np.exp(-1j * integrals).reshape(n1, count)
    out = np.zeros((len(sup), count), dtype=np.complex128)
    for j, bj in enumerate(sup):
        for k, ak in enumerate(sub):
            out[j] += _lam(grid, super_key, ak, bj) * moved[k]
    return out / n1


def _tuples(grid, degree, vec):
    """Cell key -> the tuple over the cell's members of the coefficients
    vec of degree, by psi cell by cell."""
    starts = grid.degrees[degree].starts.tolist()
    return {
        key: psi(grid, key, vec[start:stop])
        for key, start, stop in zip(grid.degree_keys(degree), starts, starts[1:])
    }


def _pointwise_delta(grid, degree, tuples):
    """delta on the tuples of degree (cell key -> (n+1, count) array) as
    the alternating sum of its per-face restrictions: the tuples of
    degree + 1.  The reference for the blocks of delta_matrix."""
    transport = LeafTransport(grid.cover, grid.polarization)
    faces = nerve_faces(grid.nerve)
    out = {}
    for key in grid.degree_keys(degree + 1):
        acc = np.zeros((degree + 2, grid_cell(grid, key).count), dtype=np.complex128)
        for j, (face_key, _) in enumerate(faces[key]):
            term = _pointwise_res(grid, transport, face_key, key, tuples[face_key])
            acc += term if j % 2 == 0 else -term
        out[key] = acc
    return out


def _max_difference(got, want):
    assert list(got) == list(want)
    return max((float(np.max(np.abs(got[k] - want[k]))) for k in want if want[k].size),
               default=0.0)


_POINTWISE_CASES = [
    *(("torus", {"k": k, "granularity": g}, f"translate:2*pi/{k},0")
      for k in (1, 2, 3) for g in (3, 4)),
    ("cylinder", {}, "pshift:1"),
    ("sphere", {"k": 3}, "rot:1.0"),
    ("disk", {}, "rot:0.5"),
    ("plane", {"granularity": 1}, "shear"),
    ("plane", {"granularity": 2}, "shear"),
]


@pytest.mark.parametrize("side", ["source", "complementary"])
@pytest.mark.parametrize("name,params,spec", _POINTWISE_CASES)
def test_delta_and_projection_equal_the_per_face_reference(models, monkeypatch, name,
                                                           params, spec, side):
    # psi, the projection of coefficients onto image tuples, is bit for bit
    # its per-cell form; delta is the per-face differential on those tuples
    from gqlab.prequantum import TrivializationCover

    exm = models(name, **params)
    pol = exm.polarization()
    labels = half_offset_labels(pol.label_range[0], pol.label_range[1], 16)
    cover = exm.cover
    if side == "complementary":  # the target side of theorem 1
        phi_map = catalog.make_map(exm, spec)
        cover = build_complementary(phi_map, exm).base
        pol = pushforward_polarization(phi_map, pol)
    grid = TransversalGrid.build(cover, pol, labels)
    calls = {"integral": 0, "transition": 0}
    integral, transition = LeafTransport.integral, TrivializationCover.transition

    def counted_integral(self, *args):
        calls["integral"] += 1
        return integral(self, *args)

    def counted_transition(self, *args):
        calls["transition"] += 1
        return transition(self, *args)

    monkeypatch.setattr(LeafTransport, "integral", counted_integral)
    monkeypatch.setattr(TrivializationCover, "transition", counted_transition)
    nonzero = 0
    # degree 2 sums three face members, where the order of the sums shows
    for degree in (0, 1, 2):
        v = _coefficients(grid, degree, np.random.default_rng(degree))
        per_cell = _tuples(grid, degree, v)
        if per_cell:  # a degree without cells has no psi call to make
            calls.update(integral=0, transition=0)
            tuples = psi(grid, list(per_cell), v)
            assert calls["integral"] == 0 and calls["transition"] <= 1
            assert tuples.tobytes() == np.concatenate(list(per_cell.values()), axis=1).tobytes()
        calls.update(integral=0, transition=0)
        d = delta(grid, degree, v)
        assert calls["integral"] <= 1 and calls["transition"] <= 1
        got = _tuples(grid, degree + 1, d)
        assert _max_difference(got, _pointwise_delta(grid, degree, per_cell)) < 1e-10
        nonzero += int(np.count_nonzero(d))
    # every cell of the sphere and the disk is closed, and the one-element
    # plane has no overlaps
    closed_or_single = name in ("sphere", "disk") or params == {"granularity": 1}
    assert (nonzero > 0) == (not closed_or_single)


def test_matrix_delta_matches_pointwise_delta(models):
    exm, grid = _grid(models, "torus", n=16, k=2)
    rng = np.random.default_rng(6)
    for degree in (0, 1):
        vec = _coefficients(grid, degree, rng)
        via_matrix = _tuples(grid, degree + 1, delta(grid, degree, vec))
        direct = _pointwise_delta(grid, degree, _tuples(grid, degree, vec))
        assert _max_difference(via_matrix, direct) < 1e-10


# --- cohomology ranks ---------------------------------------------------------


def test_plane_ranks(models):
    exm = models("plane")
    rep = cohomology_ranks(half_offset_grid(exm.cover, exm.polarization(), 16))
    assert [d.betti for d in rep.degrees] == [16, 0, 0]
    assert rep.degrees[0].betti_per_leaf == 1.0


def test_untwisted_circle_ranks_match_classical(models):
    exm = models("circle-flat")
    rep = cohomology_ranks(half_offset_grid(exm.cover, exm.polarization(), 8))
    assert rep.n_labels_retained == 8
    assert [d.betti for d in rep.degrees] == [8, 8, 0]
    assert rep.degrees[0].betti_per_leaf == 1.0
    assert rep.degrees[1].betti_per_leaf == 1.0


def test_torus_ranks_stable_under_grid_and_refinement(models):
    from gqlab.prequantum import refine, split_boxes

    exm = models("torus", k=2)
    pol = exm.polarization()
    base = cohomology_ranks(half_offset_grid(exm.cover, pol, 32))
    doubled = cohomology_ranks(half_offset_grid(exm.cover, pol, 64))
    fine, _ = refine(exm.cover, split_boxes(exm.cover))
    refined = cohomology_ranks(half_offset_grid(fine, pol, 32))
    for a, b, c in zip(base.degrees, doubled.degrees, refined.degrees):
        assert a.betti_per_leaf == b.betti_per_leaf == c.betti_per_leaf
        assert a.betti == c.betti  # same label grid


def test_resolution_error_when_grid_misses_an_element(models):
    exm = models("torus", k=1)
    with pytest.raises(ResolutionError):
        cohomology_ranks(half_offset_grid(exm.cover, exm.polarization(), 1))


def test_degree_cap_validated(models):
    exm = models("torus", k=1)
    with pytest.raises(ConfigurationError):
        grid = half_offset_grid(exm.cover, exm.polarization(), 16)
        cohomology_ranks(grid, max_degree=3)


def test_rank_report_shapes(models):
    exm = models("torus", k=1)
    rep = cohomology_ranks(half_offset_grid(exm.cover, exm.polarization(), 24))
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
        [grid_cell(grid, key).label_idx for key in grid.degree_keys(degree)]
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
        cover = build_complementary(translate, exm).base
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
        direct = _pointwise_delta(grid, degree, _tuples(grid, degree, vec))
        via_blocks = _tuples(grid, degree + 1, op @ vec)
        for key, want in direct.items():
            assert np.allclose(via_blocks[key], want, atol=1e-10, rtol=0)


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
    rep = cohomology_ranks(grid)
    assert [d.betti for d in rep.degrees] == [0, 0, 0]
    labels = _with_bs_labels(k, 16)
    grid = TransversalGrid.build(exm.cover, pol, labels)
    rep = cohomology_ranks(grid)
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
    faces = nerve_faces(grid.nerve)
    for key in grid.degree_keys(1):
        cg = grid_cell(grid, key)
        for face_key, _ in faces[key]:
            fcg = grid_cell(grid, face_key)
            carried = cg.label_idx[np.isin(cg.label_idx, fcg.label_idx)]
            if fcg.closed or carried.size == 0:
                continue
            member = face_key[0][0]
            yield (member,) + _segment(
                grid, member, face_key, key, np.searchsorted(fcg.label_idx, carried)
            )


@pytest.mark.parametrize("kind", ["generic", "pullback"])
def test_label_array_integral_matches_scalar_calls(models, kind):
    grid = _blocks_grid(models, "torus", {"k": 2}, kind)
    segments = list(_face_segments(grid))
    assert segments
    batched = LeafTransport(grid.cover, grid.polarization)
    scalar = LeafTransport(grid.cover, grid.polarization)  # one label a call
    with trace.counting() as counts:
        got = [batched.integral([member] * len(c_elem), [t0] * len(c_elem),
                                [t1] * len(c_elem), c_elem)
               for member, c_elem, t0, t1 in segments]
    for (member, c_elem, t0, t1), vals in zip(segments, got):
        want = np.array([_one(scalar, member, c, t0, t1) for c in c_elem])
        assert vals.shape == c_elem.shape
        assert np.all(np.abs(vals - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    # one quadrature call per segment at most; later one-label calls hit
    # the cache
    assert counts["transport_batches"] <= len(segments) < counts["transport_integrals"]
    with trace.counting() as again:
        for member, c_elem, t0, t1 in segments:
            n = len(c_elem)
            vals = batched.integral([member] * n, [t0] * n, [t1] * n, c_elem)
            for c, val in zip(c_elem, vals):
                assert _one(batched, member, c, t0, t1) == val
    assert again == {}


def test_label_array_integral_of_empty_interval_or_no_labels(models):
    exm = models("torus", k=2)
    transport = LeafTransport(exm.cover, exm.polarization())
    with trace.counting() as counts:
        got = transport.integral([0] * 3, [0.3] * 3, [0.3] * 3, np.array([0.5, 1.0, 1.5]))
        assert transport.integral([], [], [], np.empty(0)).shape == (0,)
    assert got.shape == (3,) and np.all(got == 0)
    assert counts == {}  # no quadrature call


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
    with trace.counting() as counts:
        got = transport.integral(*entries.T)
    assert counts == {"transport_integrals": len(distinct), "transport_batches": 1}
    # every entry is its one-entry batch, bit for bit
    one = LeafTransport(grid.cover, grid.polarization)
    want = [_one(one, int(m), c, t0, t1) for m, t0, t1, c in entries.tolist()]
    assert got.view(float).tolist() == np.array(want).view(float).tolist()
    # the cache answers a second batch in another order without quadrature
    with trace.counting() as counts:
        again = transport.integral(*entries[::-1].T)
        assert transport.integral([], [], [], []).shape == (0,)
    assert np.array_equal(again, got[::-1]) and counts == {}
    # a batch with some misses makes one more call, for the misses alone
    extra = entries[entries[:, 1] != entries[:, 2]][:3].copy()
    extra[:, 3] += 1e-3
    with trace.counting() as counts:
        transport.integral(*np.concatenate([entries, extra]).T)
    misses = {(int(m), t0, t1, c) for m, t0, t1, c in extra.tolist()} - distinct
    assert counts == {"transport_integrals": len(misses), "transport_batches": 1}
    assert misses


def _reference_blocks(grid, degree):
    """delta_matrix's blocks assembled label by label, with one one-label
    transport call per entry."""
    src_keys, dst_keys = grid.degree_keys(degree), grid.degree_keys(degree + 1)
    src_off = dict(zip(src_keys, grid.degrees[degree].starts.tolist()))
    dst_off = dict(zip(dst_keys, grid.degrees[degree + 1].starts.tolist()))
    faces = nerve_faces(grid.nerve)
    transport = LeafTransport(grid.cover, grid.polarization)
    rows, cols, vals = [], [], [np.empty(0, complex)]
    for key in dst_keys:
        cg = grid_cell(grid, key)
        if cg.closed:
            continue
        ref = key[0][0]
        for j, (face_key, _) in enumerate(faces[key]):
            fcg = grid_cell(grid, face_key)
            beta0 = face_key[0][0]
            lam = _lam(grid, key, beta0, ref)
            pos_face, fac = [], []
            for pos, gidx in enumerate(cg.label_idx):
                if fcg.closed or gidx not in fcg.label_idx:
                    continue
                fpos = int(np.searchsorted(fcg.label_idx, gidx))
                c, t0, t1 = _segment(grid, beta0, face_key, key, fpos)
                rows.append(dst_off[key] + pos)
                cols.append(src_off[face_key] + fpos)
                pos_face.append(pos)
                fac.append(np.exp(-1j * transport.integral([beta0], [t0], [t1], [c]))[0])
            # the products of delta_matrix, one array per face
            vals.append((-1) ** j * lam[pos_face] * np.array(fac, complex))
    rows, cols, vals = np.array(rows, int), np.array(cols, int), np.concatenate(vals)
    row_label = np.concatenate([grid_cell(grid, k).label_idx for k in dst_keys] + [[]])
    col_label = np.concatenate([grid_cell(grid, k).label_idx for k in src_keys] + [[]])
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
            cover=build_complementary(translate, torus).base,
            pol=pushforward_polarization(translate, torus.polarization()),
        ),
        "cylinder-pullback": grid(
            cyl,
            cover=build_complementary(pshift, cyl).base,
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
        for key, cg in grid_cells(grid).items():
            own = manifold.reduce(pol.curve_points(cg.c_cell, np.full(cg.count, cg.t_bp)))
            assert cg.base_points.shape == (cg.count, 2), (name, key)
            assert cg.base_points.tobytes() == own.tobytes(), (name, key)


def _per_cell_grid(grid):
    """key -> (label_idx, c_cell, t_bp, closed) of every cell, found cell
    by cell from its box as the grid found them one flatnonzero at a time."""
    pol, manifold = grid.polarization, grid.cover.manifold
    out = {}
    for key, cell in nerve_cells(grid.nerve).items():
        lo, hi = np.array([cell.box.lo]), np.array([cell.box.hi])
        frame = LeafFrame.of(manifold, pol, lo, hi)
        lifted, inside = frame.lift(grid.labels)
        closed = bool(frame.whole[0])
        kept = np.flatnonzero(inside[:, 0] & ~closed)
        t_bp = float(0.5 * (frame.leaf_lo[0] + frame.leaf_hi[0]))
        out[key] = (kept, lifted[kept, 0], t_bp, closed)
    return out


def test_grid_columns_equal_the_per_cell_grid(models):
    # the one crossing mask's nonzero entries, cell by cell, are each
    # cell's own labels, lifted labels and basepoint parameter
    for name, grid in _assembly_grids(models).items():
        for degree, columns in enumerate(grid.degrees):
            table = grid.nerve.degree(degree)
            assert len(columns.starts) == len(table.keys) + 1, name
            assert np.array_equal(np.diff(columns.starts), np.bincount(
                columns.cells, minlength=len(table.keys)))
        want = _per_cell_grid(grid)
        for key, cg in grid_cells(grid).items():
            label_idx, c_cell, t_bp, closed = want[key]
            assert cg.label_idx.tobytes() == label_idx.tobytes(), (name, key)
            assert cg.c_cell.tobytes() == c_cell.tobytes(), (name, key)
            assert (cg.t_bp, cg.closed) == (t_bp, closed), (name, key)


def _frame_cases(models):
    """(name, cover, polarization) of each model, and of its pushforward
    by a map on the pullback cover."""
    cases = []
    for name, params, spec in [
        ("plane", {"granularity": 2}, "shear"),
        ("cylinder", {}, "pshift:0.3"),
        ("torus", {"k": 2}, "translate:pi,0"),
        ("sphere", {"k": 3}, "rot:1.0"),
        ("disk", {}, "rot:0.5"),
        ("plane", {"granularity": 1}, "rot:0.3"),
    ]:
        exm = models(name, **params)
        pol = exm.polarization()
        phi = catalog.make_map(exm, spec)
        cases.append((f"{name}{params}", exm.cover, pol))
        cases.append((f"{name}{params}-{spec}", pullback(exm.cover, phi),
                      pushforward_polarization(phi, pol)))
    return cases


def test_grid_cells_cross_leaves_as_the_atlas_elements_do(models):
    # the grid's degree-0 cells and the atlas's elements are the same
    # boxes: they agree on which labels cross, lifted where, and on which
    # boxes hold a whole leaf
    for name, cover, pol in _frame_cases(models):
        lo, hi = pol.root.label_range
        grid = TransversalGrid.build(cover, pol, half_offset_labels(lo, hi, 24))
        atlas = LeafAtlas(cover, pol)
        lifted, inside = atlas.frame.lift(grid.labels)
        for p, cell in enumerate(degree_cells(cover.nerve, 0)):
            cg = grid_cell(grid, cell.key)
            assert cg.closed == bool(atlas.frame.whole[p]), (name, cell.key)
            if not cg.closed:
                assert np.array_equal(cg.label_idx, np.flatnonzero(inside[:, p])), name
                assert cg.c_cell.tobytes() == lifted[cg.label_idx, p].tobytes(), name
            else:
                assert cg.count == 0, (name, cell.key)


def test_sub_cell_for_follows_the_faces_of_the_refined_torus(models):
    torus = models("torus", k=2)
    fine = refine(torus.cover, split_boxes(torus.cover))[0]
    pol = torus.polarization()
    grid = TransversalGrid.build(fine, pol, half_offset_labels(0.0, TWO_PI, 8))
    periods = [p or 0.0 for p in fine.manifold.periods]
    checked = 0
    cells = nerve_cells(fine.nerve)
    for key, sup in cells.items():
        for n in range(1, len(sup.indices) + 1):
            for sub in itertools.combinations(sup.indices, n):
                sub_key, off = grid.sub_cell_for(key, sub)
                assert sub_key[0] == sub
                box = cells[sub_key].box
                shifted = sup.box.shifted((off[0] * periods[0], off[1] * periods[1]))
                for a in range(2):
                    assert box.lo[a] <= shifted.lo[a] + 1e-12, (key, sub)
                    assert shifted.hi[a] <= box.hi[a] + 1e-12, (key, sub)
                checked += 1
        others = [m for m in range(len(fine.elements)) if m not in sup.indices]
        for bad in ((), (others[0],), tuple(reversed(sup.indices))[:2] if sup.degree else ()):
            with pytest.raises(ConfigurationError):
                grid.sub_cell_for(key, bad)
    assert checked > 1000


def _without(grid, key, drop):
    """The grid with the entries of cell key at the labels drop removed,
    and the cell closed when closed is set."""
    degree, span = grid.span(key)
    columns = grid.degrees[degree]
    keep = np.ones(len(columns.cells), dtype=bool)
    keep[span] = ~np.isin(columns.label_idx[span], drop)
    row = grid.nerve.degree(degree).row(key)
    starts = columns.starts.copy()
    starts[row + 1 :] -= int(np.count_nonzero(~keep))
    trimmed = columns._replace(
        starts=starts, cells=columns.cells[keep], label_idx=columns.label_idx[keep],
        c_cell=columns.c_cell[keep], base_points=columns.base_points[keep],
    )
    degrees = list(grid.degrees)
    degrees[degree] = trimmed
    return grid._replace(degrees=tuple(degrees))


def test_res_names_the_smallest_label_its_sub_cell_lacks(models):
    exm, grid = _grid(models, "torus", n=12, k=2)
    key = next(k for k in grid.degree_keys(1) if grid_cell(grid, k).count >= 2)
    face_key = nerve_faces(grid.nerve)[key][0][0]
    carried = grid_cell(grid, key).label_idx
    broken = _without(grid, face_key, carried[:2])
    trimmed = grid_cell(broken, face_key)
    with pytest.raises(LeafMismatchError, match=f"label {carried[0]} "):
        res(broken, face_key, key, np.ones((1, trimmed.count), dtype=complex))
    # in a batch too: delta assembles from every face at once
    with pytest.raises(LeafMismatchError, match=f"label {carried[0]} "):
        delta(broken, 0, np.zeros(broken.degrees[0].starts[-1], dtype=complex))
    # a closed sub cell carries no labels and restricts to zeros
    shut = _without(grid, face_key, grid_cell(grid, face_key).label_idx)
    degree, row = grid.nerve.locate(face_key)
    closed = shut.degrees[degree].closed.copy()
    closed[row] = True
    degrees = list(shut.degrees)
    degrees[degree] = degrees[degree]._replace(closed=closed)
    shut = shut._replace(degrees=tuple(degrees))
    out = res(shut, face_key, key, np.empty((1, 0), dtype=complex))
    assert out.shape == (2, grid_cell(grid, key).count) and not out.any()


@pytest.mark.parametrize("kind", ["generic", "pullback"])
def test_batched_res_matches_per_label_transport(models, kind):
    grid = _blocks_grid(models, "torus", {"k": 2}, kind)
    transport = LeafTransport(grid.cover, grid.polarization)
    rng = np.random.default_rng(3)
    checked = 0
    faces = nerve_faces(grid.nerve)
    for key in grid.degree_keys(1):
        cg_sup = grid_cell(grid, key)
        for face_key, _ in faces[key]:
            cg_sub = grid_cell(grid, face_key)
            sub = face_key[0]
            vals = rng.normal(size=(len(sub), cg_sub.count)) + 0j
            moved = np.zeros((len(sub), cg_sup.count), dtype=complex)
            for k, member in enumerate(sub):
                for p, gidx in enumerate(cg_sup.label_idx):
                    q = int(np.searchsorted(cg_sub.label_idx, gidx))
                    c, t0, t1 = _segment(grid, member, face_key, key, q)
                    moved[k, p] = vals[k, q] * np.exp(-1j * _one(transport, member, c, t0, t1))
            ref = key[0][0]  # component 0 of the super tuple
            want = sum(
                _lam(grid, key, a, ref) * moved[k]
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
        assert all(columns.closed.all() for columns in grid.degrees)
        for degree in range(min(3, grid.nerve.max_degree)):
            with trace.counting() as counts:
                op, (_, _, n_src), (_, _, n_dst) = delta_matrix(grid, degree)
            assert op.shape == (n_dst, n_src) == (0, 0)
            assert op.blocks == () and op.stacks == ()
            assert op.singular_values().shape == (0,)
            assert counts == {}  # no formula run, no integral


def _assembly_work(grid, degree):
    """The distinct leaf segments and non-identity element pairs of the
    entries of one degree, found pair by pair."""
    segments, pairs = set(), set()
    faces = nerve_faces(grid.nerve)
    for key in grid.degree_keys(degree + 1):
        cg = grid_cell(grid, key)
        ref = key[0][0]
        for face_key, _ in faces[key]:
            fcg = grid_cell(grid, face_key)
            carried = cg.label_idx[np.isin(cg.label_idx, fcg.label_idx)]
            if carried.size == 0:
                continue
            beta0 = face_key[0][0]
            pos = np.searchsorted(fcg.label_idx, carried)
            _, t0, t1 = _segment(grid, beta0, face_key, key, pos)
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
        calls["transition"].append(set(zip(np.asarray(a).tolist(), np.asarray(b).tolist())))
        return transition(self, a, b, pts)

    monkeypatch.setattr(LeafTransport, "integral", counted_integral)
    monkeypatch.setattr(TrivializationCover, "transition", counted_transition)
    checked = 0
    for degree in range(3):
        for found in calls.values():
            found.clear()
        with trace.counting() as counts:
            delta_matrix(grid, degree)
        segments, pairs = _assembly_work(grid, degree)
        checked += len(calls["integral"]) > 0 and len(calls["transition"]) > 0
        # one integral call, and at most one quadrature sweep, per degree,
        # on the leaf segments the entries need
        assert len(calls["integral"]) <= 1
        assert counts.get("transport_batches", 0) <= 1
        assert set().union(*calls["integral"]) <= segments
        # one transition call per degree, on the element pairs the entries
        # need, with one evaluator run per distinct formula among them
        assert len(calls["transition"]) <= 1
        called = set().union(*calls["transition"])
        assert called <= pairs
        formulas = {grid.cover.data.transition_expr(a, b) for a, b in called}
        assert counts.get("formula_runs", 0) == len(formulas)
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
        rep = cohomology_ranks(grid)
        return [d.betti for d in rep.degrees]

    want = betti(exm.cover, labels)
    assert want == [n_bs, n_bs, 0]
    fine, _ = refine(exm.cover, split_boxes(exm.cover))
    assert betti(fine, labels) == want
    if name == "torus":  # labels one period up name the same leaves
        assert betti(exm.cover, labels + TWO_PI) == want
