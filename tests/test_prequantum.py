"""Covers, local-data laws, refinement, serialization."""

import math

import numpy as np
import pytest

from gqlab import catalog
from gqlab import expr as ex
from gqlab.prequantum import (
    MAX_TUPLE,
    ConfigurationError,
    Nerve,
    NerveCell,
    RefinementError,
    _period_vec,
    _shift_candidates,
    build_nerve,
    check_local_data,
    cover_from_json,
    cover_to_json,
    coverage_gaps,
    pullback,
    refine,
    split_boxes,
    verify_refinement,
)
from gqlab.bohr import enumerate_leaves
from gqlab.geometry import Box, Symplectomorphism, pushforward_polarization
from gqlab.transport import LeafTransport

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


@pytest.mark.parametrize("name,params", BUILTINS)
def test_builtin_covers_cover_the_manifold(models, name, params):
    assert coverage_gaps(models(name, **params).cover) == 0


def test_plane_single_element_residuals_vanish(models):
    rep = check_local_data(models("plane").cover, tol=1e-12)
    assert rep.cocycle_max == 0.0
    assert rep.curvature_max <= 1e-15
    assert rep.compatibility_max == 0.0


def test_corrupted_transition_fails_cocycle():
    exm = catalog.example("torus", k=1)
    lam = exm.cover.data.transitions[(0, 1)]
    exm.cover.data.transitions[(0, 1)] = ex.mul(ex.Num(1.01), lam)
    rep = check_local_data(exm.cover, tol=1e-8)
    assert not rep.passed
    assert 0.005 < rep.cocycle_max < 0.02
    assert 0.005 < rep.inverse_max < 0.02


@pytest.mark.parametrize("factor", [float("nan"), 0.0])
def test_transition_without_a_value_fails_the_check(factor):
    # the residuals are NaN on that pair; Python's max() would drop them
    exm = catalog.example("torus", k=1)
    lam = exm.cover.data.transitions[(0, 1)]
    exm.cover.data.transitions[(0, 1)] = ex.mul(ex.Num(factor), lam)
    with np.errstate(invalid="ignore", divide="ignore"):
        rep = check_local_data(exm.cover, tol=1e-8)
    assert not rep.passed
    assert math.isnan(rep.compatibility_max)


def test_transition_antisymmetry_on_random_samples(models):
    exm = models("torus", k=2)
    cover = exm.cover
    rng = np.random.default_rng(5)
    for cell in cover.nerve.degree(1):
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
        for cell in cover.nerve.degree(1):
            a, b = cell.indices
            pts = cover.manifold.reduce(cell.samples)
            shifted = pts + periods * rng.integers(-2, 3, size=pts.shape)
            diff = cover.transition(a, b, pts) - cover.transition(a, b, shifted)
            assert np.max(np.abs(diff)) < 1e-12


def test_nerve_closed_under_faces(models):
    nerve = models("torus", k=1).cover.nerve
    for key, cell in nerve.cells.items():
        if cell.degree == 0:
            continue
        for face_key, _ in nerve.faces[key]:
            assert face_key in nerve.cells


def test_self_refinement_is_identity(models):
    cover = models("torus", k=1).cover
    fine, refmap = refine(cover, [el.box for el in cover.elements])
    assert refmap.assignment == {el.index: el.index for el in cover.elements}
    assert verify_refinement(fine, cover, refmap) == 0.0


def test_split_refinement_passes_checks(models):
    cover = models("torus", k=2).cover
    fine, refmap = refine(cover, split_boxes(cover))
    assert len(fine.elements) == 4 * len(cover.elements)
    assert verify_refinement(fine, cover, refmap) == 0.0
    rep = check_local_data(fine, tol=1e-10)
    assert rep.passed, rep.as_dict()
    assert coverage_gaps(fine) == 0


def test_refinement_functoriality(models):
    """Refining twice equals refining once by the composite map."""
    cover = models("plane", granularity=2).cover
    fine1, map1 = refine(cover, split_boxes(cover))
    fine2, map2 = refine(fine1, split_boxes(fine1))
    composite = {f: map1(map2(f)) for f in map2.assignment}
    direct, dmap = refine(cover, [el.box for el in fine2.elements])
    assert composite == dmap.assignment
    rng = np.random.default_rng(1)
    for el in fine2.elements:
        pts = cover.manifold.reduce(
            rng.uniform(el.box.lo, el.box.hi, size=(20, 2))
        )
        t2 = fine2.potential(el.index, pts)
        td = direct.potential(el.index, pts)
        assert max(np.max(np.abs(a - b)) for a, b in zip(t2, td)) == 0.0
    for cell in fine2.nerve.degree(1):
        a, b = cell.indices
        pts = cover.manifold.reduce(cell.samples)
        diff = fine2.transition(a, b, pts) - direct.transition(a, b, pts)
        assert np.max(np.abs(diff)) == 0.0


def test_overhanging_target_is_rejected(models):
    cover = models("torus", k=1).cover
    huge = Box((-1.0, -1.0), (5.0, 5.0))
    with pytest.raises(RefinementError, match="element 0"):
        refine(cover, [huge])


def test_cover_serialization_round_trips_bitwise(models):
    for name, params in (("torus", {"k": 2}), ("plane", {"granularity": 2}),
                         ("sphere", {"k": 3})):
        cover = models(name, **params).cover
        text = cover_to_json(cover)
        back = cover_from_json(text)
        assert cover_to_json(back) == text
        assert check_local_data(back, tol=1e-10).passed


def test_check_requires_nerve():
    exm = catalog.example("plane")
    exm.cover.nerve = None
    with pytest.raises(ConfigurationError):
        check_local_data(exm.cover)


def test_torus_rejects_degenerate_granularity():
    with pytest.raises(ConfigurationError):
        catalog.example("torus", k=1, granularity=2)


def test_unknown_example_rejected():
    with pytest.raises(ConfigurationError):
        catalog.example("klein-bottle")


# ---------------------------------------------------------------------------
# Nerve identity: the broadcast build against the pairwise construction


def _reference_nerve(cover, max_tuple=MAX_TUPLE):
    """The nerve built one (frontier cell, element, shift) triple at a time
    with Box operations, in the enumeration order build_nerve keeps."""
    manifold = cover.manifold
    periods = _period_vec(manifold)
    cells, by_shape, faces = {}, {}, {}

    def register(indices, shifts, box):
        comp = 0
        while (indices, comp) in cells:
            comp += 1
        pts = box.grid(max(3, 10 - 2 * (len(indices) - 1)))
        samples = pts[manifold.in_domain(manifold.reduce(pts))]
        cells[(indices, comp)] = NerveCell(indices, comp, box, shifts, samples)
        by_shape[(indices, shifts)] = (indices, comp)
        return cells[(indices, comp)]

    frontier = [register((el.index,), ((0, 0),), el.box) for el in cover.elements]
    for _size in range(2, max_tuple + 1):
        new = []
        for cell in frontier:
            for el in cover.elements:
                if el.index <= cell.indices[-1]:
                    continue
                for s in _shift_candidates(manifold):
                    shift = (-s[0] * periods[0], -s[1] * periods[1])
                    inter = cell.box.intersect(el.box.shifted(shift))
                    if inter is not None:
                        new.append(register(cell.indices + (el.index,),
                                            cell.shifts + (s,), inter))
        frontier = new
    for cell in cells.values():
        links = []
        for j in range(len(cell.indices)) if cell.degree else ():
            sub = cell.shifts[:j] + cell.shifts[j + 1:]
            norm = tuple((a - sub[0][0], b - sub[0][1]) for a, b in sub)
            links.append((by_shape[(cell.indices[:j] + cell.indices[j + 1:], norm)], sub[0]))
        if links:
            faces[cell.key] = tuple(links)
    return Nerve(cells=cells, faces=faces, max_degree=max_tuple - 1)


def _assert_same_nerve(got, want):
    assert list(got.cells) == list(want.cells)  # keys and their order
    assert got.max_degree == want.max_degree
    for key, w in want.cells.items():
        g = got.cells[key]
        assert (g.indices, g.comp, g.shifts) == (w.indices, w.comp, w.shifts)
        assert g.box == w.box, key
        for mine, theirs in ((g.box.lo, w.box.lo), (g.box.hi, w.box.hi)):
            assert np.array(mine, float).tobytes() == np.array(theirs, float).tobytes()
        assert g.samples.dtype == w.samples.dtype
        assert g.samples.shape == w.samples.shape, key
        assert g.samples.tobytes() == w.samples.tobytes(), key
    assert list(got.faces.items()) == list(want.faces.items())


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
    _assert_same_nerve(build_nerve(cover), _reference_nerve(cover))


@pytest.mark.parametrize("name,params", [
    ("torus", {"k": 2}), ("cylinder", {}), ("sphere", {"k": 2}), ("disk", {}),
])
def test_nerve_matches_pairwise_construction_after_refine(models, name, params):
    fine, _ = refine(models(name, **params).cover,
                     split_boxes(models(name, **params).cover))
    _assert_same_nerve(fine.nerve, _reference_nerve(fine))


@pytest.mark.parametrize("name,params", [
    ("torus", {"k": 3}), ("cylinder", {}), ("plane", {"granularity": 2}),
])
def test_nerve_matches_pairwise_construction_after_json_round_trip(
    models, name, params
):
    back = cover_from_json(cover_to_json(models(name, **params).cover))
    _assert_same_nerve(back.nerve, _reference_nerve(back))


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
        (cell, manifold.reduce(cell.samples))
        for cell in pulled.nerve.cells.values()
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
    seg = enumerate_leaves(src, pol, exm.census_range, 3, False)[0].segments[0]

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
    ts = np.linspace(seg.t0, seg.t1, 5)
    values = transport.integrand(seg.element)(np.array([seg.c_elem]), ts)
    assert np.all(np.isfinite(values))
