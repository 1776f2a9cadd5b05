"""Manifolds, symplectomorphism checks, polarization pushforward."""

import math

import numpy as np
import pytest

from gqlab import catalog
from gqlab import expr as ex
from gqlab.geometry import (
    check_symplectomorphism,
    eval_at,
    pushforward_polarization,
)


def test_identity_map_passes(models):
    exm = models("torus", k=1)
    phi = catalog.make_map(exm, "identity")
    rep = check_symplectomorphism(exm.manifold, exm.omega, phi)
    assert rep.symplectic_max == 0.0 and rep.inverse_max == 0.0 and rep.passed


def test_torus_translation_passes(models):
    exm = models("torus", k=2)
    phi = catalog.make_map(exm, "translate:0.7,0.3")
    rep = check_symplectomorphism(exm.manifold, exm.omega, phi)
    assert rep.symplectic_max < 1e-12 and rep.passed


def test_plane_shear_is_symplectic(models):
    exm = models("plane")
    phi = catalog.make_map(exm, "shear")
    rep = check_symplectomorphism(exm.manifold, exm.omega, phi)
    assert rep.symplectic_max < 1e-12
    assert rep.inverse_max < 1e-12
    det = np.linalg.det(phi.jacobian(exm.manifold.sample_grid(5)))
    assert np.max(np.abs(det - 1.0)) < 1e-12


def test_non_symplectic_map_fails(models):
    exm = models("plane")
    coords = exm.manifold.coords
    bad = catalog.Symplectomorphism(
        "stretch",
        (ex.mul(ex.Num(2.0), ex.Var("x")), ex.Var("y")),
        (ex.mul(ex.Num(0.5), ex.Var("x")), ex.Var("y")),
        coords,
    )
    rep = check_symplectomorphism(exm.manifold, exm.omega, bad)
    assert not rep.passed and rep.symplectic_max > 0.5


def test_reduction_is_idempotent(models):
    exm = models("torus", k=1)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-20, 20, size=(50, 2))
    once = exm.manifold.reduce(pts)
    assert np.allclose(exm.manifold.reduce(once), once)
    assert np.all((once >= 0) & (once < 2 * math.pi))


def test_pushforward_identity_keeps_fiber_map(models):
    exm = models("plane")
    pol = exm.polarization()
    phi = catalog.make_map(exm, "identity")
    pushed = pushforward_polarization(phi, pol)
    pts = exm.manifold.sample_grid(6)
    assert np.allclose(pushed.label_of(pts), pol.label_of(pts))


def test_pushforward_rotation_turns_vertical_into_horizontal(models):
    exm = models("plane")
    pol = exm.polarization("vertical")
    phi = catalog.make_map(exm, f"rot:{math.pi / 2}")
    pushed = pushforward_polarization(phi, pol)
    xs = np.linspace(-2, 2, 10)
    grid = np.array([(x, y) for x in xs for y in xs])
    vals = eval_at(pushed.fiber_map, pol.coords, grid).real
    # fiber map of the rotated polarization evaluates as -y on the grid
    assert np.max(np.abs(vals - (-grid[:, 1]))) < 1e-12


def test_pushforward_translation_preserves_torus_leaves(models):
    exm = models("torus", k=1)
    pol = exm.polarization()
    phi = catalog.make_map(exm, "translate:0.9,0")
    pushed = pushforward_polarization(phi, pol)
    pts = exm.manifold.sample_grid(7)
    assert np.allclose(pushed.label_of(pts), pol.label_of(pts))


def _assert_leaves_lie_on_their_labels(pol):
    """label_of(curve_points(c, t)) == c for labels across the label range
    and parameters along one turn."""
    lo, hi = pol.label_range
    ts = np.linspace(0.0, 2 * math.pi, 9)
    for c in lo + (hi - lo) * np.array([0.1, 0.35, 0.5, 0.8, 0.95]):
        labels = pol.label_of(pol.curve_points(c, ts))
        assert np.max(np.abs(labels - c)) < 1e-12, (pol.name, c)


@pytest.mark.parametrize(
    "name,params",
    [
        ("plane", {}),
        ("plane", {"granularity": 2}),
        ("torus", {"k": 2}),
        ("cylinder", {}),
        ("sphere", {"k": 3}),
        ("disk", {}),
        ("circle-flat", {}),
    ],
)
def test_builtin_leaves_are_level_sets_of_the_fiber_map(models, name, params):
    for pol in models(name, **params).polarizations.values():
        _assert_leaves_lie_on_their_labels(pol)


@pytest.mark.parametrize(
    "name,params,map_spec",
    [
        ("plane", {}, "shear"),
        ("plane", {}, "rot:0.8"),
        ("torus", {"k": 2}, "translate:0.6,0.2"),
        ("sphere", {"k": 2}, "rot:1.1"),
        ("disk", {}, "rot:0.5"),
    ],
)
def test_pushforward_leaves_are_level_sets_of_the_fiber_map(models, name, params, map_spec):
    """The pushed leaf curves phi^-1(curve) lie on the level sets of f o phi."""
    exm = models(name, **params)
    phi = catalog.make_map(exm, map_spec)
    _assert_leaves_lie_on_their_labels(pushforward_polarization(phi, exm.polarization()))


def test_wrap_difference_shortest_representative(models):
    exm = models("torus", k=1)
    a = np.array([[6.2, 0.1]])
    b = np.array([[0.1, 6.2]])
    d = exm.manifold.wrap_difference(a, b)
    assert np.allclose(d, [[6.2 - 0.1 - 2 * math.pi, 0.1 - 6.2 + 2 * math.pi]])


def test_disk_domain_filtering(models):
    exm = models("disk")
    pts = exm.manifold.sample_grid(9)
    assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 < exm.manifold.disk_radius**2)


def test_map_check_flags_points_leaving_domain(models):
    exm = models("disk")
    coords = exm.manifold.coords
    shift = catalog.Symplectomorphism(
        "slide",
        (ex.add(ex.Var("x"), ex.Num(1.0)), ex.Var("y")),
        (ex.sub(ex.Var("x"), ex.Num(1.0)), ex.Var("y")),
        coords,
    )
    rep = check_symplectomorphism(exm.manifold, exm.omega, shift)
    assert rep.flagged > 0  # image leaves the disk for outer samples
