"""The trivialization complex: transport, the psi/phi pair, delta, ranks.

delta's blocks are checked against the per-face reference of cells.py,
which restricts image tuples one (face, cell) pair at a time; phi, psi's
left inverse, lives there too."""

import math

import numpy as np
import pytest

from gqlab import catalog, trace
from gqlab import expr as ex
from gqlab import transport as transport_module
from gqlab.action import build_complementary
from gqlab.bohr import LeafAtlas, bs_census, enumerate_leaves
from gqlab.cech import (
    LeafMismatchError,
    ResolutionError,
    TransversalGrid,
    cohomology_ranks,
    delta,
    delta_matrix,
    half_offset_grid,
    half_offset_labels,
    psi,
)
from gqlab.geometry import LeafFrame, pushforward_polarization
from gqlab.prequantum import ConfigurationError, LocalData, TrivializationCover, pullback
from gqlab.quadrature import integrate
from gqlab.transport import LeafTransport

from cells import (
    cell_psi,
    cell_row,
    cell_span,
    cell_tuples,
    cell_transition,
    degree_cells,
    grid_cell,
    grid_cells,
    grid_delta,
    nerve_cells,
    nerve_faces,
    phi,
    pointwise_delta,
)

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

    def shift(key):  # the member's shift in the cell key
        degree, row = cell_row(grid.nerve, key)
        return grid.nerve.degree(degree).shifts[row, key[0].index(member)].tolist()

    sh_f, sh_t = shift(from_key), shift(to_key)
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


# --- the psi/phi pair ---------------------------------------------------------


def test_psi_phi_inverse_pair(models):
    exm, grid = _grid(models, "torus", n=16, k=2)
    rng = np.random.default_rng(1)
    for key in grid.degree_keys(1) + grid.degree_keys(2) + grid.degree_keys(3):
        L = grid_cell(grid, key).count
        if L == 0:
            continue
        g = rng.normal(size=L) + 1j * rng.normal(size=L)
        tup = cell_psi(grid, [key], g)
        assert np.max(np.abs(phi(grid, key, tup) - g)) < 1e-12
        again = cell_psi(grid, [key], phi(grid, key, tup))
        assert np.max(np.abs(again - tup)) < 1e-12


def test_psi_output_satisfies_image_characterization(models):
    exm, grid = _grid(models, "torus", n=16, k=3)
    key = grid.degree_keys(1)[0]
    g = np.ones(grid_cell(grid, key).count, dtype=complex)
    tup = cell_psi(grid, [key], g)
    indices = key[0]
    for j in range(len(indices)):
        avg = np.zeros_like(g)
        for k in range(len(indices)):
            lam = cell_transition(grid, key, indices[k], indices[j])
            avg += lam * tup[k]
        assert np.max(np.abs(avg / len(indices) - tup[j])) < 1e-12


# --- the differential ---------------------------------------------------------


def _coefficients(grid, degree, rng):
    """A random coefficient vector of degree."""
    n = int(grid.degrees[degree].starts[-1])
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_delta_of_zero_is_zero(models):
    exm, grid = _grid(models, "torus", n=12, k=1)
    z = np.zeros(grid.degrees[0].starts[-1], dtype=complex)
    d = grid_delta(grid, 0, z)
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
        c[cell_span(grid, key)[1]] = vals[grid_cell(grid, key).label_idx]
    d = grid_delta(grid, 0, c)
    for comp in (0, 1):
        key = ((0, 1), comp)
        cg = grid_cell(grid, key)
        f0 = values[0][cg.label_idx]
        f1 = values[1][cg.label_idx]
        classical = f1 - f0  # (delta c)_{ab} = c_b - c_a
        tup = cell_psi(grid, [key], d[cell_span(grid, key)[1]])
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
            dd = grid_delta(grid, degree + 1, grid_delta(grid, degree, v))
            size = np.max(np.abs(v), initial=0.0)
            assert np.max(np.abs(dd), initial=0.0) < 1e-10 * (1.0 + size)


def test_delta_beyond_nerve_degree_errors(models):
    exm, grid = _grid(models, "torus", n=12, k=1)
    with pytest.raises(ConfigurationError, match="degree-4"):
        delta_matrix(grid, 3)


# --- the block differential against its per-face reference -------------------


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
        per_cell = cell_tuples(grid, degree, v)
        if per_cell:  # a degree without cells has no psi call to make
            calls.update(integral=0, transition=0)
            tuples = psi(grid, degree, v)
            assert calls["integral"] == 0 and calls["transition"] <= 1
            assert tuples.tobytes() == np.concatenate(list(per_cell.values()), axis=1).tobytes()
        calls.update(integral=0, transition=0)
        d = grid_delta(grid, degree, v)
        assert calls["integral"] <= 1 and calls["transition"] <= 1
        got = cell_tuples(grid, degree + 1, d)
        assert _max_difference(got, pointwise_delta(grid, degree, per_cell)) < 1e-10
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
        via_matrix = cell_tuples(grid, degree + 1, grid_delta(grid, degree, vec))
        direct = pointwise_delta(grid, degree, cell_tuples(grid, degree, vec))
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


def _blocks(op):
    """(label, rows, cols, matrix) of every block of op, ascending label."""
    return sorted((b for stack in op.stacks for b in zip(*stack)), key=lambda b: b[0])


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
        direct = pointwise_delta(grid, degree, cell_tuples(grid, degree, vec))
        via_blocks = cell_tuples(grid, degree + 1, delta(op, vec))
        for key, want in direct.items():
            assert np.allclose(via_blocks[key], want, atol=1e-10, rtol=0)


@pytest.mark.parametrize("name,params,kind", _blocks_cases())
def test_leaf_blocks_spectrum_matches_dense_svd(models, name, params, kind):
    grid = _blocks_grid(models, name, params, kind)
    for degree in (0, 1, 2):
        op, _, _ = delta_matrix(grid, degree)
        sv = op.singular_values()
        sv_dense = np.linalg.svd(delta(op, np.eye(op.shape[1])), compute_uv=False)
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
    op = grid.operators[0]
    cut = rep.threshold * op.singular_values()[0]
    block_rank = {
        g: int(np.sum(np.linalg.svd(mat, compute_uv=False) > cut))
        for g, _, _, mat in _blocks(op)
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
    # each call integrates its live entries, in one quadrature call at most
    rows = [len(c_elem) if t0 != t1 else 0 for _, c_elem, t0, t1 in segments]
    assert counts["transport_batches"] == sum(map(bool, rows)) <= len(segments)
    assert counts["transport_integrals"] == sum(rows) > len(segments)
    # a repeated call, and each of its entries as a batch of one, give the
    # same bits
    for (member, c_elem, t0, t1), vals in zip(segments, got):
        n = len(c_elem)
        again = batched.integral([member] * n, [t0] * n, [t1] * n, c_elem)
        assert again.tobytes() == vals.tobytes()
        for c, val in zip(c_elem, vals):
            assert _one(batched, member, c, t0, t1) == val


def test_label_array_integral_of_empty_interval_or_no_labels(models):
    exm = models("torus", k=2)
    transport = LeafTransport(exm.cover, exm.polarization())
    with trace.counting() as counts:
        got = transport.integral([0] * 3, [0.3] * 3, [0.3] * 3, np.array([0.5, 1.0, 1.5]))
        assert transport.integral([], [], [], np.empty(0)).shape == (0,)
    assert got.shape == (3,) and np.all(got == 0)
    assert counts == {}  # no quadrature call


def _entries(grid, seed):
    """Shuffled (member, t0, t1, c) rows of the face segments of grid, half
    of each segment's labels, with repeats."""
    rng = np.random.default_rng(seed)
    rows = [
        (member, t0, t1, c)
        for member, c_elem, t0, t1 in _face_segments(grid)
        for c in c_elem[: 1 + len(c_elem) // 2]
    ]
    rows += [rows[i] for i in rng.integers(len(rows), size=len(rows))]  # repeats
    return np.array(rows)[rng.permutation(len(rows))]


@pytest.mark.parametrize("kind", ["generic", "pullback"])
def test_entry_integrals_group_by_segment(models, kind):
    # shuffled entries with repeats: one quadrature row per live entry, a
    # repeated entry integrated again; the torus's integrands, and those of
    # its translation's pullback, do not read t, so every row is taken in
    # closed form, all of them in one quadrature call
    grid = _blocks_grid(models, "torus", {"k": 2}, kind)
    entries = _entries(grid, 5)
    segments = {(int(m), t0, t1) for m, t0, t1, _ in entries.tolist()}
    live = int((entries[:, 1] != entries[:, 2]).sum())
    distinct = {(int(m), t0, t1, c) for m, t0, t1, c in entries.tolist() if t0 != t1}
    assert len(segments) > 1 and len(distinct) < live < len(entries)

    transport = LeafTransport(grid.cover, grid.polarization)
    assert not any(transport.integrand(m).along for m, _, _ in segments)
    counted = {"transport_integrals": live, "transport_exact": live, "transport_batches": 1,
               "quadrature_bisections": 0}
    with trace.counting() as counts:
        got = transport.integral(*entries.T)
    assert counts == counted
    # every entry is its one-entry batch, bit for bit
    one = LeafTransport(grid.cover, grid.polarization)
    want = [_one(one, int(m), c, t0, t1) for m, t0, t1, c in entries.tolist()]
    assert got.view(float).tolist() == np.array(want).view(float).tolist()
    # a second batch in another order integrates every live entry once
    # more, in one call, and gives the same bits
    with trace.counting() as counts:
        again = transport.integral(*entries[::-1].T)
        assert transport.integral([], [], [], []).shape == (0,)
    assert again.tobytes() == got[::-1].tobytes()
    assert counts == counted
    # a batch with new entries makes one call, for every live entry
    extra = entries[entries[:, 1] != entries[:, 2]][:3].copy()
    extra[:, 3] += 1e-3
    with trace.counting() as counts:
        more = transport.integral(*np.concatenate([entries, extra]).T)
    assert counts == {"transport_integrals": live + 3, "transport_exact": live + 3,
                      "transport_batches": 1, "quadrature_bisections": 0}
    assert more[: len(entries)].tobytes() == got.tobytes()


@pytest.mark.parametrize("kind", ["generic", "pullback"])
def test_entry_integrals_do_not_depend_on_call_history(models, kind):
    grid = _blocks_grid(models, "torus", {"k": 2}, kind)
    entries = _entries(grid, 7)
    fresh = LeafTransport(grid.cover, grid.polarization).integral(*entries.T)
    # the same entries after an unrelated call, and reversed
    transport = LeafTransport(grid.cover, grid.polarization)
    other = entries[entries[:, 1] != entries[:, 2]][:5].copy()
    other[:, 3] += 0.25
    transport.integral(*other.T)
    assert transport.integral(*entries.T).tobytes() == fresh.tobytes()
    assert transport.integral(*entries[::-1].T).tobytes() == fresh[::-1].tobytes()
    # entries that differ only in the sign of a zero label are each a row
    member, t0, t1 = entries[entries[:, 1] != entries[:, 2]][0, :3].tolist()
    with trace.counting() as counts:
        signed = transport.integral([member] * 3, [t0] * 3, [t1] * 3, [0.0, -0.0, 0.0])
    assert counts == {"transport_integrals": 3, "transport_exact": 3, "transport_batches": 1,
                      "quadrature_bisections": 0}
    assert signed[0].tobytes() == signed[2].tobytes()
    # an all-empty batch makes no quadrature call
    with trace.counting() as counts:
        empty = transport.integral(entries[:, 0], entries[:, 1], entries[:, 1],
                                   entries[:, 3])
    assert counts == {} and empty.tobytes() == bytes(16 * len(entries))


def _loop_integrals(transport, elements, t0, t1, labels):
    """transport.integral's rows, each by the Gauss-Kronrod loop, whether
    its integrand reads t or not."""
    elements, cs = np.asarray(elements, dtype=int), np.asarray(labels, dtype=float)

    def f(ts):
        vals = np.empty(ts.shape, dtype=np.complex128)
        for member in set(elements.tolist()):
            r = np.flatnonzero(elements == member)
            vals[r] = transport.integrand(member)(cs[r], ts[r])
        return vals

    return integrate(f, np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))


# each builtin model, with a cover that has face entries, and a map of
# each of its specs
_MAPPED = {
    "plane": ({"granularity": 2}, ("identity", "shear", "rot:0.3", "translate:0.5,0.25")),
    "cylinder": ({}, ("identity", "translate:1.5", "pshift:0.4")),
    "torus": ({"k": 3}, ("identity", "translate:0.7,0.3")),
    "sphere": ({"k": 2}, ("identity", "rot:1.0")),
    "disk": ({}, ("identity", "rot:0.7")),
}


def _transport_batches(models):
    """(case, transport, batches) on every builtin model and on its pullback
    by each map spec: a census batch of sampled leaves and a grid's face
    entries, each as (elements, t0, t1, labels) columns, those that are not
    empty."""
    for name, (params, specs) in _MAPPED.items():
        exm = models(name, **params)
        assert {spec.partition(":")[0] for spec in specs} == set(exm.map_specs)
        pol = exm.polarization()
        pairs = [(name, exm.cover, pol)]
        for spec in specs:
            phi = catalog.make_map(exm, spec)
            pairs.append((f"{name}-{spec}", pullback(exm.cover, phi),
                          pushforward_polarization(phi, pol)))
        for case, cover, pol in pairs:
            _, leaves, _ = enumerate_leaves(LeafAtlas(cover, pol), exm.census_range, 24)
            grid = TransversalGrid.build(cover, pol, half_offset_labels(*exm.census_range, 16))
            faces = [(m, t0, t1, c) for m, c_elem, t0, t1 in _face_segments(grid)
                     for c in c_elem.tolist()]
            batches = [(leaves.elements, leaves.t0, leaves.t1, leaves.lifted),
                       tuple(np.array(col) for col in zip(*faces))]
            yield case, LeafTransport(cover, pol), [b for b in batches if len(b) and len(b[0])]


def test_closed_form_rows_agree_with_the_quadrature_loop(models):
    # a row whose integrand does not read t is v (t1 - t0), the loop's
    # value to 1e-14 relative; a row that reads t is the loop's, bit for bit
    rows = {False: 0, True: 0}  # rows checked, by whether they read t
    for case, transport, batches in _transport_batches(models):
        for elements, t0, t1, labels in batches:
            got = transport.integral(elements, t0, t1, labels)
            want = _loop_integrals(transport, elements, t0, t1, labels)
            along = np.array([transport.integrand(int(m)).along for m in elements])
            exact = ~along
            assert np.all(np.abs(got - want)[exact] <= 1e-14 * np.abs(want)[exact]), case
            assert got[along].tobytes() == want[along].tobytes(), case
            rows[False] += int(exact.sum())
            rows[True] += int(along.sum())
    assert rows[False] > rows[True] > 0


def test_a_mixed_batch_splits_by_integrand_and_keeps_each_row(models, monkeypatch):
    # on a torus whose even elements carry an integrand that reads t and
    # whose odd ones do not, a census batch makes one quadrature call per
    # integrand, in the order of their first members, the odd ones' in
    # closed form, and each row is its one-row batch
    exm = models("torus", k=2)
    cover, pol = exm.cover, exm.polarization()
    wave = ex.parse_expr("0.3*cos(x1 + 2*x2)", set(cover.manifold.coords))
    potentials = {a: (ex.add(theta[0], wave), theta[1]) if a % 2 == 0 else theta
                  for a, theta in cover.data.potentials.items()}
    mixed = TrivializationCover(
        manifold=cover.manifold, omega=cover.omega, elements=cover.elements,
        data=LocalData(cover.data.transitions, potentials), nerve=cover.nerve,
    )
    _, leaves, _ = enumerate_leaves(LeafAtlas(mixed, pol), exm.census_range, 12)
    columns = (leaves.elements, leaves.t0, leaves.t1, leaves.lifted)
    live = leaves.t0 != leaves.t1
    odd = live & (leaves.elements % 2 == 1)
    assert odd.any() and (live & ~odd).any()

    calls = []

    def counted(f, a, b, constant=False):
        calls.append((len(np.atleast_1d(a)), constant))
        return integrate(f, a, b, constant=constant)

    transport = LeafTransport(mixed, pol)
    monkeypatch.setattr(transport_module, "integrate", counted)
    with trace.counting() as counts:
        got = transport.integral(*columns)
    assert calls == [(int((live & ~odd).sum()), False), (int(odd.sum()), True)]
    assert counts == {"transport_integrals": int(live.sum()),
                      "transport_exact": int(odd.sum()), "transport_batches": 2,
                      "quadrature_bisections": 0}
    one = LeafTransport(mixed, pol)
    want = [_one(one, int(m), c, t0, t1) for m, t0, t1, c in zip(*map(np.ndarray.tolist, columns))]
    assert got.view(float).tolist() == np.array(want).view(float).tolist()


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
            lam = cell_transition(grid, key, beta0, ref)
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
            got = _blocks(delta_matrix(grid, degree)[0])
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
            sv = [np.linalg.svd(b[3], compute_uv=False) for b in _blocks(op)]
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
    for key, cell in nerve_cells(grid.nerve, manifold).items():
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
        for p, cell in enumerate(degree_cells(cover.nerve, cover.manifold, 0)):
            cg = grid_cell(grid, cell.key)
            assert cg.closed == bool(atlas.frame.whole[p]), (name, cell.key)
            if not cg.closed:
                assert np.array_equal(cg.label_idx, np.flatnonzero(inside[:, p])), name
                assert cg.c_cell.tobytes() == lifted[cg.label_idx, p].tobytes(), name
            else:
                assert cg.count == 0, (name, cell.key)


def _of_degrees(grid, degrees):
    """The grid of the same cover and labels with the columns degrees:
    their label orders and delta's entries assembled anew."""
    return TransversalGrid.of_columns(grid.cover, grid.polarization, grid.labels,
                                      tuple(degrees), grid.frame)


def _without(grid, key, drop):
    """The grid with the entries of cell key at the labels drop removed."""
    degree, span = cell_span(grid, key)
    columns = grid.degrees[degree]
    keep = np.ones(len(columns.cells), dtype=bool)
    keep[span] = ~np.isin(columns.label_idx[span], drop)
    row = cell_row(grid.nerve, key)[1]
    starts = columns.starts.copy()
    starts[row + 1 :] -= int(np.count_nonzero(~keep))
    trimmed = columns._replace(
        starts=starts, cells=columns.cells[keep], label_idx=columns.label_idx[keep],
        c_cell=columns.c_cell[keep], base_points=columns.base_points[keep],
    )
    degrees = list(grid.degrees)
    degrees[degree] = trimmed
    return _of_degrees(grid, degrees)


def test_res_names_the_smallest_label_its_sub_cell_lacks(models):
    exm, grid = _grid(models, "torus", n=12, k=2)
    key = next(k for k in grid.degree_keys(1) if grid_cell(grid, k).count >= 2)
    face_key = nerve_faces(grid.nerve)[key][0][0]
    carried = grid_cell(grid, key).label_idx
    broken = _without(grid, face_key, carried[:2])
    # delta assembles from every face at once, and names the smallest label
    with pytest.raises(LeafMismatchError, match=f"label {carried[0]} "):
        grid_delta(broken, 0, np.zeros(broken.degrees[0].starts[-1], dtype=complex))
    # a closed face carries no labels and adds nothing to its cells
    shut = _without(grid, face_key, grid_cell(grid, face_key).label_idx)
    degree, row = cell_row(grid.nerve, face_key)
    closed = shut.degrees[degree].closed.copy()
    closed[row] = True
    degrees = list(shut.degrees)
    degrees[degree] = degrees[degree]._replace(closed=closed)
    shut = _of_degrees(shut, degrees)
    v = _coefficients(shut, 0, np.random.default_rng(8))
    got = cell_tuples(shut, 1, grid_delta(shut, 0, v))
    assert got[key].any()
    assert _max_difference(got, pointwise_delta(shut, 0, cell_tuples(shut, 0, v))) < 1e-10



def test_cohomology_ranks_refuses_in_order_before_a_leaf_mismatch(models):
    # build keeps a mismatch for delta_matrix to raise, so the checks that
    # cohomology_ranks makes first still come first: the degree cap, then
    # an element that resolves no leaf
    exm, grid = _grid(models, "torus", n=12, k=2)
    key = next(k for k in grid.degree_keys(1) if grid_cell(grid, k).count >= 2)
    face_key = nerve_faces(grid.nerve)[key][0][0]
    carried = grid_cell(grid, key).label_idx
    broken = _without(grid, face_key, carried[:2])
    assert broken.missing[0] == carried[0] and broken.operators[0].stacks == ()
    with pytest.raises(ConfigurationError, match="degree cap 3 exceeds nerve bound 2"):
        cohomology_ranks(broken, max_degree=3)
    with pytest.raises(LeafMismatchError, match=f"label {carried[0]} "):
        cohomology_ranks(broken)
    # the element keeps no label: unresolved, and its cells' labels mismatch
    bare = _without(grid, face_key, grid_cell(grid, face_key).label_idx)
    assert bare.missing[0] >= 0
    with pytest.raises(LeafMismatchError):
        delta_matrix(bare, 0)
    with pytest.raises(ConfigurationError, match="degree cap"):
        cohomology_ranks(bare, max_degree=3)
    with pytest.raises(ResolutionError, match="resolves no leaf in element"):
        cohomology_ranks(bare)


def test_delta_is_stacked_once_per_grid(models, monkeypatch):
    # build stacks the blocks of each degree of delta that has entries, once;
    # delta_matrix hands out the grid's blocks, and the ranks and theorem
    # 1's commutation check apply them without stacking anew
    from gqlab import action, cech
    from gqlab.action import verify_theorem_1

    stack, make_grid = cech._stack_blocks, action.half_offset_grid
    stacked, grids = [], []

    def counted(*args):
        stacked.append(stack(*args))
        return stacked[-1]

    def built(*args):
        grids.append(make_grid(*args))
        return grids[-1]

    def with_entries(grid):
        return [op for op, src, dst in zip(grid.operators, grid.degrees, grid.degrees[1:])
                if len(src.cells) and len(dst.cells)]

    monkeypatch.setattr(cech, "_stack_blocks", counted)
    monkeypatch.setattr(action, "half_offset_grid", built)
    exm = models("torus", k=2)
    pol = exm.polarization()
    grid = half_offset_grid(exm.cover, pol, 16)
    ops = with_entries(grid)
    assert len(ops) == len(grid.operators) == grid.nerve.max_degree
    assert len(stacked) == len(ops) and all(a is b for a, b in zip(stacked, ops))
    stacked.clear()
    for degree in range(grid.nerve.max_degree):
        assert delta_matrix(grid, degree)[0] is grid.operators[degree]
    cohomology_ranks(grid)
    assert stacked == []
    # theorem 1 stacks only in its two grids' builds
    comp = build_complementary(catalog.make_map(exm, f"translate:{math.pi:.17g},0"), exm)
    assert verify_theorem_1(comp, pol, grid_n=16).passed
    ops = [op for g in grids for op in with_entries(g)]
    assert len(grids) == 2 and len(stacked) == len(ops) > 0
    assert all(a is b for a, b in zip(stacked, ops))
    # a degree without coefficients on either side stacks nothing
    sphere = models("sphere", k=2)
    stacked.clear()
    grid = half_offset_grid(sphere.cover, sphere.polarization(), 16)
    assert with_entries(grid) == [] and stacked == []
    assert all(op.stacks == () for op in grid.operators)


def test_closed_degrees_assemble_the_empty_operator(models):
    grids = _assembly_grids(models)
    for name in ("sphere", "disk"):
        grid = grids[name]
        assert all(columns.closed.all() for columns in grid.degrees)
        for degree in range(min(3, grid.nerve.max_degree)):
            with trace.counting() as counts:
                op, (_, _, n_src), (_, _, n_dst) = delta_matrix(grid, degree)
            assert op.shape == (n_dst, n_src) == (0, 0)
            assert op.stacks == ()
            assert op.singular_values().shape == (0,)
            assert counts == {}  # no formula run, no integral


def _assembly_work(grid, degree):
    """The distinct leaf segments and non-identity element pairs of the
    entries of one degree, found pair by pair, and the number of entries:
    one per (cell, face, label) the cell and its face both carry."""
    segments, pairs, entries = set(), set(), 0
    faces = nerve_faces(grid.nerve)
    for key in grid.degree_keys(degree + 1):
        cg = grid_cell(grid, key)
        ref = key[0][0]
        for face_key, _ in faces[key]:
            fcg = grid_cell(grid, face_key)
            carried = cg.label_idx[np.isin(cg.label_idx, fcg.label_idx)]
            entries += carried.size
            if carried.size == 0:
                continue
            beta0 = face_key[0][0]
            pos = np.searchsorted(fcg.label_idx, carried)
            _, t0, t1 = _segment(grid, beta0, face_key, key, pos)
            segments.add((beta0, t0, t1))
            if beta0 != ref:
                pairs.add((beta0, ref))
    return segments, pairs, entries


@pytest.mark.parametrize(
    "name,params,n", [("torus", {"k": 2, "granularity": 4}, 48), ("cylinder", {}, 35)]
)
def test_delta_matrix_sweeps_each_segment_and_pair_once(models, monkeypatch, name,
                                                        params, n):
    # the grid's build makes one transport call and one transition call for
    # the entries of every degree, on the union of the segments and the
    # element pairs they need; a row two degrees share is integrated in
    # each; delta_matrix hands out the grid's blocks, and makes neither call
    from gqlab.prequantum import TrivializationCover

    exm = models(name, **params)
    pol = exm.polarization()
    labels = half_offset_labels(pol.label_range[0], pol.label_range[1], n)
    calls = {"integral": [], "transition": []}
    integral, transition = LeafTransport.integral, TrivializationCover.transition

    def counted_integral(self, elements, t0, t1, labels):
        calls["integral"].append(np.column_stack([elements, labels, t0, t1]).astype(float))
        return integral(self, elements, t0, t1, labels)

    def counted_transition(self, a, b, pts):
        calls["transition"].append(set(zip(np.asarray(a).tolist(), np.asarray(b).tolist())))
        return transition(self, a, b, pts)

    monkeypatch.setattr(LeafTransport, "integral", counted_integral)
    monkeypatch.setattr(TrivializationCover, "transition", counted_transition)
    with trace.counting() as counts:
        grid = TransversalGrid.build(exm.cover, pol, labels)
    work = [_assembly_work(grid, degree) for degree in range(grid.nerve.max_degree)]
    segments = set().union(*(segs for segs, _, _ in work))
    pairs = set().union(*(pairs for _, pairs, _ in work))
    assert len(calls["integral"]) == 1 and counts["transport_batches"] == 1
    (rows,) = calls["integral"]
    assert {(int(m), a, b) for m, _, a, b in rows.tolist()} == segments

    def distinct(rows):  # the live rows, told apart by their bits
        return {row.tobytes() for row in rows if row[2] != row[3]}

    # every live row is integrated, in closed form: neither model's
    # integrands read t
    live = int((rows[:, 2] != rows[:, 3]).sum())
    assert counts["transport_integrals"] == counts["transport_exact"] == live
    # the call holds the entries degree after degree; a row two degrees
    # share (the torus has some) is integrated in each
    ends = np.cumsum([entries for _, _, entries in work])
    assert ends[-1] == len(rows)
    shared = sum(map(len, map(distinct, np.split(rows, ends[:-1])))) - len(distinct(rows))
    assert shared > 0 if name == "torus" else shared == 0
    # one evaluator run per distinct transition formula among the pairs
    assert len(calls["transition"]) == 1 and calls["transition"][0] == pairs
    formulas = {grid.cover.data.transition_expr(a, b) for a, b in pairs}
    assert counts["formula_runs"] == len(formulas)
    for found in calls.values():
        found.clear()
    with trace.counting() as counts:
        for degree in range(grid.nerve.max_degree):
            delta_matrix(grid, degree)
    assert calls == {"integral": [], "transition": []} and counts == {}


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
