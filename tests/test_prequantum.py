"""Covers, local-data laws, refinement, serialization."""

import math

import numpy as np
import pytest

from gqlab import catalog
from gqlab import expr as ex
from gqlab.prequantum import (
    ConfigurationError,
    RefinementError,
    check_local_data,
    cover_from_json,
    cover_to_json,
    coverage_gaps,
    refine,
    split_boxes,
    verify_refinement,
)
from gqlab.geometry import Box

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
