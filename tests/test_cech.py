"""The trivialization complex: transport, projections, delta, ranks."""

import math

import numpy as np
import pytest

from gqlab import catalog, cech
from gqlab.action import build_complementary
from gqlab.bohr import bs_census
from gqlab.cech import (
    LeafMismatchError,
    PolarizedFunction,
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


# --- propagation ------------------------------------------------------------


def test_propagate_with_zero_potential_is_constant(models):
    exm, grid = _grid(models, "circle-flat", n=6)
    cg = grid.cells[((0,), 0)]
    c = grid.labels[cg.label_idx[2]]
    f = PolarizedFunction(0, np.zeros(cg.count, dtype=complex))
    f.values[2] = 1.5 + 0.5j
    frm = np.array([1.0, c])
    to = np.array([2.0, c])
    assert abs(cech.propagate(grid, f, frm, to) - (1.5 + 0.5j)) < 1e-15


def test_full_loop_integral_matches_closed_form(models):
    # (k/2pi) c integrated over a full leaf loop is k c, to quadrature
    exm = models("torus", k=1)
    pol = exm.polarization()
    transport = LeafTransport(exm.cover, pol)
    c = 1.3
    val = transport.integral(0, c, 0.0, TWO_PI)
    assert abs(val - 1 * c) < 1e-10
    factor = transport.factor(0, c, 0.0, TWO_PI)
    assert abs(factor - np.exp(-1j * c)) < 1e-10


def test_propagate_round_trip(models):
    exm, grid = _grid(models, "torus", n=12, k=2)
    cg = grid.cells[((4,), 0)]
    pos = cg.count // 2
    c = grid.labels[cg.label_idx[pos]]
    f = PolarizedFunction(4, np.zeros(cg.count, dtype=complex))
    f.values[pos] = 2.0 - 1.0j
    box = exm.cover.elements[4].box
    frm = np.array([box.lo[0] + 0.2, c])
    to = np.array([box.hi[0] - 0.2, c])
    out = cech.propagate(grid, f, frm, to)
    back = cech.propagate(grid, PolarizedFunction(4, _put(cg, pos, out)), to, frm)
    assert abs(back - (2.0 - 1.0j)) < 1e-12
    assert abs(abs(out) - abs(2.0 - 1.0j)) < 1e-12  # transport is unitary


def _put(cg, pos, value):
    vals = np.zeros(cg.count, dtype=complex)
    vals[pos] = value
    return vals


def test_propagate_rejects_leaf_mismatch(models):
    exm, grid = _grid(models, "torus", n=12, k=1)
    cg = grid.cells[((0,), 0)]
    f = PolarizedFunction(0, np.zeros(cg.count, dtype=complex))
    c = grid.labels[cg.label_idx[0]]
    with pytest.raises(LeafMismatchError):
        cech.propagate(grid, f, np.array([0.5, c]), np.array([0.5, c + 0.3]))


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
    rep = cohomology_ranks(exm.cover, pol, 16, labels=generic)
    assert [d.betti for d in rep.degrees] == [0, 0, 0]
    labels = _with_bs_labels(k, 16)
    rep = cohomology_ranks(exm.cover, pol, len(labels), labels=labels)
    assert [d.betti for d in rep.degrees] == [k, k, 0]
    # degree 0: the labels whose coefficients delta does not fill
    grid = TransversalGrid.build(exm.cover, pol, labels)
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
