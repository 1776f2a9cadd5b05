"""Leaves, holonomy, and the Bohr-Sommerfeld census."""

import math

import numpy as np
import pytest

from gqlab import catalog
from gqlab.bohr import (
    CoverageError,
    HolonomyUndefinedError,
    Leaf,
    bs_census,
    enumerate_leaves,
    holonomy,
    lattice_count,
)

TWO_PI = 2.0 * math.pi


def test_cylinder_leaf_enumeration(models):
    exm = models("cylinder")
    leaves = enumerate_leaves(exm.cover, exm.polarization(), (-2.5, 2.5), 11)
    circles = [l for l in leaves if l.topology == "circle"]
    assert len(circles) == 11 and len(leaves) == 11  # no singular leaves
    assert np.allclose([l.label for l in circles], np.linspace(-2.5, 2.5, 11))


def test_sphere_enumeration_includes_poles(models):
    exm = models("sphere", k=2)
    leaves = enumerate_leaves(exm.cover, exm.polarization(), (0.25, 1.75), 7)
    points = [l for l in leaves if l.topology == "point"]
    assert len(points) == 2 and all(l.singular for l in points)
    assert sorted(l.label for l in points) == [0.0, 2.0]


def test_torus_loops_close_through_the_cover(models):
    exm = models("torus", k=1)
    pol = exm.polarization()
    leaves = enumerate_leaves(exm.cover, pol, (0.0, TWO_PI), 8)
    assert len(leaves) == 8
    for leaf in leaves:
        total = sum(seg.t1 - seg.t0 for seg in leaf.segments)
        assert abs(total - TWO_PI) < 1e-9  # the loop closes
        assert len(leaf.switch_points) == len(leaf.segments)
        for j, pt in enumerate(leaf.switch_points):
            a = leaf.segments[j].element
            b = leaf.segments[(j + 1) % len(leaf.segments)].element
            assert exm.cover.contains(a, pt)[0] and exm.cover.contains(b, pt)[0]


def test_plane_line_leaves(models):
    exm = models("plane")
    leaves = enumerate_leaves(exm.cover, exm.polarization(), (-2.0, 2.0), 5)
    assert all(l.topology == "line" for l in leaves)
    with pytest.raises(HolonomyUndefinedError):
        holonomy(exm.cover, exm.polarization(), leaves[0])


def test_point_leaf_holonomy_is_trivial(models):
    exm = models("sphere", k=1)
    point = [
        l
        for l in enumerate_leaves(exm.cover, exm.polarization(), (0.3, 0.7), 3)
        if l.topology == "point"
    ][0]
    h = holonomy(exm.cover, exm.polarization(), point)
    assert h.holonomy == 1.0 and h.action == 0.0


def test_cylinder_action_closed_form(models):
    exm = models("cylinder")
    pol = exm.polarization()
    leaf = enumerate_leaves(exm.cover, pol, (1.0, 1.0), 1)[0]
    h = holonomy(exm.cover, pol, leaf)
    assert abs(h.action - TWO_PI) < 1e-10  # loop integral of p dx at p = 1
    assert abs(h.holonomy - 1.0) < 1e-10 and abs(h.phase) < 1e-10
    assert h.nearest_multiple == 1 and abs(h.residual) < 1e-10


def test_torus_holonomy_closed_form(models):
    exm = models("torus", k=3)
    pol = exm.polarization()
    for c, is_bs in ((2 * math.pi / 5, False), (2 * math.pi / 3, True)):
        leaf = enumerate_leaves(exm.cover, pol, (c, c), 1)[0]
        h = holonomy(exm.cover, pol, leaf)
        assert abs(h.holonomy - np.exp(-1j * 3 * c)) < 1e-10
        assert (abs(h.phase) < 1e-10) == is_bs
        assert abs(h.action - 3 * c) < 1e-10


@pytest.mark.parametrize(
    "name,params,crange",
    [
        ("torus", {"k": 2}, (0.0, TWO_PI)),
        ("cylinder", {}, (-2.5, 2.5)),
        ("sphere", {"k": 3}, (0.25, 2.75)),
        ("disk", {}, (0.25, 4.5)),
    ],
)
def test_holonomy_is_unitary(models, name, params, crange):
    exm = models(name, **params)
    pol = exm.polarization()
    for leaf in enumerate_leaves(exm.cover, pol, crange, 9):
        if leaf.topology == "line":
            continue
        h = holonomy(exm.cover, pol, leaf)
        assert abs(abs(h.holonomy) - 1.0) < 1e-10


def test_holonomy_independent_of_starting_segment(models):
    exm = models("torus", k=2)
    pol = exm.polarization()
    leaf = enumerate_leaves(exm.cover, pol, (1.1, 1.1), 1)[0]
    h = holonomy(exm.cover, pol, leaf)
    for shift in range(1, len(leaf.segments)):
        rotated = Leaf(
            leaf.label,
            leaf.topology,
            leaf.segments[shift:] + leaf.segments[:shift],
            np.vstack([leaf.switch_points[shift:], leaf.switch_points[:shift]]),
        )
        h2 = holonomy(exm.cover, pol, rotated)
        assert abs(h.holonomy - h2.holonomy) < 1e-10


def test_holonomy_invariant_under_refinement(models):
    from gqlab.prequantum import refine, split_boxes

    exm = models("torus", k=2)
    pol = exm.polarization()
    fine, _ = refine(exm.cover, split_boxes(exm.cover))
    for c in (0.7, 2.9, 5.1):
        leaf = enumerate_leaves(exm.cover, pol, (c, c), 1)[0]
        leaf_f = enumerate_leaves(fine, pol, (c, c), 1)[0]
        assert len(leaf_f.segments) > len(leaf.segments)
        h = holonomy(exm.cover, pol, leaf)
        hf = holonomy(fine, pol, leaf_f)
        assert abs(h.holonomy - hf.holonomy) < 1e-10


def test_census_counts(models):
    exm = models("torus", k=1)
    rep = bs_census(exm.cover, exm.polarization(), (0.0, TWO_PI), 16)
    assert rep.q_bs == 1 and rep.q_bs_smooth == 1

    exm3 = models("torus", k=3)
    rep3 = bs_census(exm3.cover, exm3.polarization(), (0.0, TWO_PI), 24)
    assert rep3.q_bs == 3
    assert np.allclose(sorted(rep3.bs_locations), [0, TWO_PI / 3, 2 * TWO_PI / 3],
                       atol=1e-9)


@pytest.mark.parametrize(
    "k, count, crange",
    [
        (3, 33, (0.05, 6.3332)),
        (8, 16, (0.1, 6.3832)),
    ],
)
def test_census_closes_a_period_window(models, k, count, crange):
    # the BS height 2 pi lies between the last sample and the first sample
    # plus one period, so only the wrap-around bracket can find it
    exm = models("torus", k=k)
    rep = bs_census(exm.cover, exm.polarization(), crange, count)
    want = [TWO_PI * m / k for m in range(1, k + 1)]
    want = sorted(c if c < crange[1] else c - TWO_PI for c in want)
    assert rep.q_bs == k
    assert np.allclose(sorted(rep.bs_locations), want, atol=1e-8, rtol=0)
    assert all(crange[0] - 1e-9 <= c < crange[1] for c in rep.bs_locations)


def test_census_monotone_under_range_growth(models):
    exm = models("cylinder")
    pol = exm.polarization()
    small = bs_census(exm.cover, pol, (-1.2, 1.2), 11)
    large = bs_census(exm.cover, pol, (-2.5, 2.5), 21)
    for c in small.bs_locations:
        assert min(abs(c - u) for u in large.bs_locations) < 1e-9


def test_census_entry_flags(models):
    exm = models("sphere", k=2)
    rep = bs_census(exm.cover, exm.polarization(), (0.25, 1.75), 13)
    smooth_bs = [e for e in rep.entries if e.is_bs and not e.leaf.singular]
    singular = [e for e in rep.entries if e.leaf.singular]
    assert len(singular) == 2 and all(e.is_bs for e in singular)
    assert rep.q_bs_singular == 2
    # the sampled grid happens to contain z = 1 (sampled BS circle)
    assert any(abs(e.leaf.label - 1.0) < 1e-12 for e in smooth_bs)


def test_lines_excluded_by_default(models):
    exm = models("plane")
    rep = bs_census(exm.cover, exm.polarization(), (-2, 2), 9)
    assert rep.q_bs == 0 and rep.lines_excluded == 9
    rep2 = bs_census(exm.cover, exm.polarization(), (-2, 2), 9, include_lines=True)
    assert rep2.q_bs == 9 and rep2.lines_excluded == 0


def test_coverage_error_outside_cover(models):
    exm = models("cylinder")  # p window 3.5 + pad
    with pytest.raises(CoverageError):
        enumerate_leaves(exm.cover, exm.polarization(), (9.0, 9.0), 1)


def test_lattice_count():
    assert lattice_count(0.0, 3.0) == 4
    assert lattice_count(0.5, 0.7) == 0
    assert lattice_count(-1.2, 1.2) == 3
    assert lattice_count(2.0, 1.0) == 0
    assert lattice_count(1.0 - 1e-12, 1.0 + 1e-12) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_sphere_census_against_lattice_oracle(models, k):
    exm = models("sphere", k=k)
    rep = bs_census(exm.cover, exm.polarization(), exm.census_range, 4 * k + 9)
    assert rep.q_bs_smooth == lattice_count(1e-6, k - 1e-6) == k - 1
    assert rep.q_bs == lattice_count(0.0, float(k)) == k + 1
