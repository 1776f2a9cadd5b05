"""Leaves, holonomy, and the Bohr-Sommerfeld census."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gqlab import bohr, catalog
from gqlab.bohr import (
    CoverageError,
    HolonomyUndefinedError,
    Leaf,
    _brent_root,
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


@pytest.mark.parametrize(
    "k,crange,want",
    [
        (2, (0.1, 3.2), [math.pi]),
        (3, (0.2, 4.3), [TWO_PI / 3, 2 * TWO_PI / 3]),
    ],
)
def test_census_samples_the_end_of_a_window_below_one_period(models, k, crange, want):
    # the last BS height lies between the last half-open sample and the
    # window end; a window narrower than one period samples its end
    exm = models("torus", k=k)
    rep = bs_census(exm.cover, exm.polarization(), crange, 33)
    assert rep.q_bs == len(want)
    assert np.allclose(rep.bs_locations, want, atol=1e-8, rtol=0)


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


# ---------------------------------------------------------------------------
# Root solving


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize(
    "f, a, b, root",
    [
        (math.sin, 3.0, 3.5, math.pi),
        (lambda x: math.exp(x) - 2.0, -5.0, 5.0, math.log(2.0)),
        (lambda x: math.atan(1e6 * (x - 0.3)), 0.0, 1.0, 0.3),  # steep
        (lambda x: (x - 0.7) ** 3, 0.0, 1.0, 0.7),  # flat: a triple root
        (lambda x: math.tanh(x - 2.0) * 1e-9, 1.0, 4.0, 2.0),  # flat bracket
        (lambda x: 1.0 - math.cos(x) - 1e-3, 0.0, 1.5, math.acos(1.0 - 1e-3)),
    ],
)
def test_brent_root_on_closed_forms(f, a, b, root):
    bisections = math.ceil(math.log2((b - a) / 1e-12))
    for lo, hi in ((a, b), (b, a)):
        g, calls = _counted(f)
        got = _brent_root(g, lo, f(lo), hi, f(hi), 1e-12)
        assert abs(got - root) <= 1e-12
        assert got in calls  # the root is a label f was evaluated at
        assert len(calls) <= 3 * bisections


def test_brent_root_at_a_bracket_end():
    g, calls = _counted(lambda x: x - 0.3)
    assert _brent_root(g, 0.3, 0.0, 1.0, 0.7, 1e-12) == 0.3
    assert _brent_root(g, -1.0, -1.3, 0.3, 0.0, 1e-12) == 0.3
    assert calls == []


def test_brent_root_returns_on_an_exact_zero():
    # zero on a whole interval: the first label inside it ends the search
    g, calls = _counted(lambda x: min(0.0, x - 0.49) + max(0.0, x - 0.51))
    got = _brent_root(g, 0.0, -0.49, 1.0, 0.49, 1e-12)
    assert 0.49 <= got <= 0.51 and calls[-1] == got
    assert [x for x in calls if 0.49 <= x <= 0.51] == [got]
    # a secant step that lands on the root exactly
    g, calls = _counted(lambda x: x - 0.25)
    assert _brent_root(g, 0.0, -0.25, 1.0, 0.75, 1e-12) == 0.25
    assert calls == [0.25]


@pytest.mark.parametrize("root", [Fraction(100003, 10), -Fraction(500000001, 10)])
def test_brent_root_stops_at_the_float_spacing_of_large_labels(root):
    # the spacing of floats near these roots exceeds xtol, so the bracket
    # can only close down to neighbouring floats; f has the exact sign
    def f(x):
        if len(calls) > 200:
            raise RuntimeError("root search does not stop")
        calls.append(x)
        return float(Fraction(x) - root)

    calls = []
    a = math.floor(root)
    got = _brent_root(f, a, f(a), a + 1, f(a + 1), 1e-12)
    assert abs(Fraction(got) - root) <= math.ulp(float(root))


def _in_window(labels, lo, period):
    return sorted(lo + (c - lo) % period for c in labels)


def _assert_located(rep, want):
    got = sorted(rep.bs_locations)
    assert len(got) == len(want)
    assert np.max(np.abs(np.array(got) - want), initial=0.0) <= 1e-11
    # Brent: about 37 holonomies a bracket would mean bisection
    assert rep.root_holonomy_evaluations <= 12 * rep.root_brackets


@pytest.mark.parametrize("k", range(1, 9))
def test_census_locations_on_the_torus(models, k):
    exm = models("torus", k=k)
    pol = exm.polarization()
    labels = [TWO_PI * m / k for m in range(k)]
    for count in (24, 48, 96):
        for lo in (0.0, 0.37 * TWO_PI / k, 1.9):
            rep = bs_census(exm.cover, pol, (lo, lo + TWO_PI), count)
            _assert_located(rep, _in_window(labels, lo, TWO_PI))
            assert rep.q_bs == k


@pytest.mark.parametrize("crange", [(-2.5, 2.5), (-1.7, 1.9), (-3.2, 0.45)])
def test_census_locations_on_the_cylinder(models, crange):
    exm = models("cylinder")
    rep = bs_census(exm.cover, exm.polarization(), crange, 33)
    want = [m for m in range(-4, 5) if crange[0] < m < crange[1]]
    _assert_located(rep, want)
    assert rep.root_brackets >= len(want)


@pytest.mark.parametrize("k", range(2, 7))
def test_census_locations_on_the_sphere(models, k):
    exm = models("sphere", k=k)
    for crange in ((0.3, k - 0.25), (0.45, k - 0.6)):
        rep = bs_census(exm.cover, exm.polarization(), crange, 4 * k + 9)
        _assert_located(rep, list(range(1, k)))
        assert rep.q_bs_singular == 2


def test_census_minus_one_crossing_gives_no_location(models):
    # the torus k=1 holonomy exp(-i c) is -1 at c = pi, the only crossing
    exm = models("torus", k=1)
    rep = bs_census(exm.cover, exm.polarization(), (2.5, 3.8), 9)
    assert rep.root_brackets == 1 and rep.root_holonomy_evaluations > 0
    assert rep.bs_locations == () and rep.q_bs == 0


def test_census_computes_each_holonomy_once(models, monkeypatch):
    calls = []
    real = bohr.holonomy

    def counting(*args, **kwargs):
        calls.append(args[2].label)
        return real(*args, **kwargs)

    monkeypatch.setattr(bohr, "holonomy", counting)
    exm = models("torus", k=3)
    rep = bs_census(exm.cover, exm.polarization(), (0.05, 6.3332), 33)
    assert rep.q_bs == 3
    # the final +1/-1 test reuses the holonomies of the search
    assert len(calls) == len(rep.entries) + rep.root_holonomy_evaluations
    assert len(set(calls)) == len(calls)
