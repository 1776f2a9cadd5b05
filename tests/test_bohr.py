"""Leaves, holonomy, and the Bohr-Sommerfeld census."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gqlab import bohr, catalog
from gqlab import expr as ex
from gqlab.action import build_complementary
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
from gqlab.geometry import pushforward_polarization
from gqlab.prequantum import LocalData, TrivializationCover, pullback

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


def _batch(leaves) -> list:
    """The leaves of a holonomy call: one Leaf or a sequence of them."""
    return [leaves] if isinstance(leaves, Leaf) else list(leaves)


def test_census_computes_each_holonomy_once(models, monkeypatch):
    calls = []
    real = bohr.holonomy

    def counting(cover, pol, leaves, transport=None):
        calls.extend(leaf.label for leaf in _batch(leaves))
        return real(cover, pol, leaves, transport)

    monkeypatch.setattr(bohr, "holonomy", counting)
    exm = models("torus", k=3)
    rep = bs_census(exm.cover, exm.polarization(), (0.05, 6.3332), 33)
    assert rep.q_bs == 3
    # the final +1/-1 test reuses the holonomies of the search
    assert len(calls) == len(rep.entries) + rep.root_holonomy_evaluations
    assert len(set(calls)) == len(calls)


# ---------------------------------------------------------------------------
# Batched census: prefetched transport and lockstep root solving


def _bracket_cases(seed: int) -> tuple:
    """Disjoint brackets (a, fa, b, fb) of a piecewise function f: smooth,
    steep, flat, exact-zero, zero-at-an-end and wrap-around cases, one per
    unit-10 cell of the label line."""
    rng = np.random.default_rng(seed)
    shapes, brackets = [], []
    for i in range(40):
        base = 10.0 * i
        r = base + rng.uniform(3.0, 7.0)
        kind = ("smooth", "steep", "cubic", "plateau", "end", "wrap")[i % 6]
        w0, w1 = rng.uniform(0.2, 1.4, size=2)
        if kind == "smooth":
            g = lambda x, r=r: math.sin(x - r)
        elif kind == "steep":
            g = lambda x, r=r: math.atan(1e6 * (x - r))
        elif kind == "cubic":
            g = lambda x, r=r: (x - r) ** 3
        elif kind == "plateau":
            g = lambda x, r=r: min(0.0, x - r + 0.01) + max(0.0, x - r - 0.01)
        elif kind == "end":
            g = lambda x, r=r: x - r
            w0 = 0.0
        else:  # sin(k x) of period P: last sample round to first + P
            k = int(rng.integers(1, 4))
            period = TWO_PI / k
            g = lambda x, k=k, r=r: math.sin(k * (x - r))
            # samples a little below the zero at r + P / 2 and a little
            # above the zero at r, as a window [r, r + P) closes
            c_last, c_first = r + 0.5 * period - 0.1 * w0, r + 0.1 * w1
            shapes.append(g)
            brackets.append((c_last, g(c_last), c_first + period, g(c_first)))
            continue
        shapes.append(g)
        a, b = r - w0, r + w1
        brackets.append((a, g(a), b, g(b)) if rng.random() < 0.5 else (b, g(b), a, g(a)))

    def f(x: float) -> float:
        return shapes[int(x // 10.0)](x)

    return brackets, f


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_brackets_take_the_steps_they_take_alone(seed):
    brackets, f = _bracket_cases(seed)
    alone = []
    for a, fa, b, fb in brackets:
        g, calls = _counted(f)
        root = _brent_root(g, a, fa, b, fb, 1e-12)
        alone.append((root, len(set(calls) - {a, b})))
    batches = []

    def holonomies_at(labels):
        batches.append(len(labels))
        return [complex(1.0, f(c)) for c in labels]

    solved = bohr._lockstep_roots(
        [(a, complex(1.0, fa), b, complex(1.0, fb)) for a, fa, b, fb in brackets],
        holonomies_at,
    )
    together = [(root, len(hols) - 2) for root, hols in solved]
    assert together == alone
    # one batch per lockstep step, holding each unfinished bracket once
    assert len(batches) == max(n for _, n in alone)
    assert batches == sorted(batches, reverse=True)
    assert sum(batches) == sum(n for _, n in alone)
    assert any(n == 0 for _, n in alone)  # brackets with a zero at an end


def _census_cases(models):
    cases = []
    for k in range(1, 9):
        exm = models("torus", k=k)
        cases.append((f"torus-{k}", exm.cover, exm.polarization(),
                      (0.4, 0.4 + TWO_PI), 24))
    cyl = models("cylinder")
    cases.append(("cylinder", cyl.cover, cyl.polarization(), (-2.5, 2.5), 33))
    for k in range(2, 7):
        exm = models("sphere", k=k)
        cases.append((f"sphere-{k}", exm.cover, exm.polarization(),
                      (0.3, k - 0.25), 4 * k + 9))
    disk = models("disk")
    cases.append(("disk", disk.cover, disk.polarization(), disk.census_range, 17))
    sph = models("sphere", k=3)
    phi = catalog.make_map(sph, "rot:1")
    comp = build_complementary(phi, sph.cover)
    pushed = pushforward_polarization(phi, sph.polarization())
    cases.append(("sphere-3-rot:1", comp.base, pushed, (0.3, 2.75), 21))
    return cases


def test_census_holonomies_equal_fresh_transport_bit_for_bit(models, monkeypatch):
    # every holonomy of a census, sampled or root-solved, reads prefetched
    # integrals; it equals a per-leaf holonomy with a fresh transport exactly
    seen = []
    real = bohr.holonomy

    def recording(cover, pol, leaves, transport=None):
        out = real(cover, pol, leaves, transport)
        got = [out] if isinstance(leaves, Leaf) else out
        seen.extend((cover, pol, leaf, h) for leaf, h in zip(_batch(leaves), got))
        return out

    monkeypatch.setattr(bohr, "holonomy", recording)
    for name, cover, pol, crange, count in _census_cases(models):
        seen.clear()
        rep = bs_census(cover, pol, crange, count)
        assert rep.root_holonomy_evaluations > 0 or name.startswith("disk"), name
        assert rep.transport_batches < rep.transport_integrals, name
        for cover_, pol_, leaf, got in seen:
            assert real(cover_, pol_, leaf) == got, (name, leaf.label)


@pytest.mark.parametrize(
    "name,params,crange,count,include_lines",
    [
        ("torus", {"k": 3}, (0.05, 6.3332), 33, False),  # wrap bracket
        ("torus", {"k": 5}, (-4.0, 9.0), 80, False),  # two periods wide
        ("cylinder", {}, (-1.7, 1.9), 33, False),
        ("sphere", {"k": 4}, (0.3, 3.75), 25, False),  # point leaves
        ("plane", {}, (-2.0, 2.0), 9, True),  # line leaves
    ],
)
def test_census_holonomy_calls_add_up(models, monkeypatch, name, params, crange,
                                      count, include_lines):
    # holonomy calls of a census minus its sampled non-line leaves are the
    # root-solving evaluations it reports
    calls = []
    real = bohr.holonomy

    def counting(cover, pol, leaves, transport=None):
        calls.extend(leaf.label for leaf in _batch(leaves))
        return real(cover, pol, leaves, transport)

    monkeypatch.setattr(bohr, "holonomy", counting)
    exm = models(name, **params)
    rep = bs_census(exm.cover, exm.polarization(), crange, count,
                    include_lines=include_lines)
    sampled = sum(1 for e in rep.entries if e.leaf.topology != "line")
    assert len(calls) - sampled == rep.root_holonomy_evaluations


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_census_counts_each_leaf_once_on_wide_periodic_windows(models, k):
    # labels c and c + 2 pi are the same torus leaf
    exm = models("torus", k=k)
    pol = exm.polarization()
    for periods in (1.5, 2.0, 2.5, 3.2):
        for lo in (-7.0, 0.0, 0.3 * TWO_PI / k, 2.9):
            hi = lo + periods * TWO_PI
            rep = bs_census(exm.cover, pol, (lo, hi), int(12 * k * periods) + 3)
            assert rep.q_bs_smooth == rep.q_bs == k, (periods, lo)
            # k distinct leaves, each at a multiple of 2 pi / k
            phases = np.sort(np.mod(np.array(rep.bs_locations) * k / TWO_PI, k))
            assert np.allclose(phases, np.round(phases), atol=1e-8)
            assert len(set(np.round(phases).astype(int) % k)) == k


# ---------------------------------------------------------------------------
# Leaf atlas and batched holonomy, against per-label references


def _reference_candidates(cover, pol, c):
    """(element, t0, t1, lifted label) per element the leaf c crosses."""
    out = []
    if pol.kind == "radial":
        for el in cover.elements:
            half = min(el.box.hi[0], el.box.hi[1], -el.box.lo[0], -el.box.lo[1])
            if 0.0 < c < 0.5 * half * half:
                out.append((el.index, 0.0, TWO_PI, c))
        return out
    la, ta = pol.label_axis, pol.leaf_axis
    period_label = cover.manifold.periods[la]
    for el in cover.elements:
        lo, hi = el.box.interval(la)
        c_lift = c
        if period_label is not None:
            mid = 0.5 * (lo + hi)
            c_lift = c + period_label * round((mid - c) / period_label)
        if lo + 1e-9 < c_lift < hi - 1e-9:
            t0, t1 = el.box.interval(ta)
            out.append((el.index, t0, t1, c_lift))
    return out


def _reference_circle(cover, pol, c, phi=None):
    """One circle leaf threaded on its own, scalar by scalar; with phi,
    its switch points are moved through phi^{-1}."""
    period = pol.leaf_period
    cands = _reference_candidates(cover, pol, c)
    if not cands:
        raise CoverageError(f"leaf {c} crosses no cover element")
    for idx, t0, t1, c_elem in cands:
        if t1 - t0 >= period - 1e-9:
            start = t0 + 0.5 * ((t1 - t0) - period)
            seg = bohr.LeafSegment(idx, start, start + period, c_elem)
            return Leaf(c, "circle", (seg,), np.empty((0, 2)))
    items = []
    for idx, t0, t1, c_elem in cands:
        a = math.fmod(t0, period)
        if a < 0:
            a += period
        items.append((a, a + (t1 - t0), idx, t0 - a, c_elem))
    items.sort()
    start = items[0]
    placements, switches, cur_end = [start], [], start[1]
    guard, closed = 4 * len(items) + 4, False
    while guard and not closed:
        guard -= 1
        best = None
        for it in items:
            for s in (0.0, period):
                a, b = it[0] + s, it[1] + s
                if a < cur_end - 1e-12 and b > cur_end + 1e-12:
                    cand = (b, -it[2], -s, a, it, s)
                    if best is None or cand > best:
                        best = cand
        if best is None:
            raise CoverageError(f"cover leaves a gap on the leaf {c} near t={cur_end}")
        _, _, _, a, it, s = best
        switches.append(0.5 * (a + cur_end))
        if it is start and s == period:
            closed = True
        else:
            placements.append((a, it[1] + s, it[2], it[3] - s, it[4]))
            cur_end = it[1] + s
    if not closed:
        raise CoverageError(f"leaf {c} did not close while threading the cover")
    segments, u_prev = [], switches[-1] - period
    for (_, _, idx, off, c_elem), u_next in zip(placements, switches):
        segments.append(bohr.LeafSegment(idx, u_prev + off, u_next + off, c_elem))
        u_prev = u_next
    pts = pol.curve_points(c, np.array(switches))
    if phi is not None:
        pts = phi.apply_inverse(pts)
    return Leaf(c, "circle", tuple(segments), cover.manifold.reduce(pts))


def _reference_line(cover, pol, c, phi=None):
    cands = _reference_candidates(cover, pol, c)
    if not cands:
        raise CoverageError(f"leaf {c} crosses no cover element")
    cands.sort(key=lambda r: (r[1], r[0]))
    segments, switches = [], []
    idx, t0, t1, c_elem = cands[0]
    cur_end, cur = t1, (idx, t0, c_elem)
    for nidx, n0, n1, nc in cands[1:]:
        if n0 >= cur_end - 1e-12:
            raise CoverageError(f"cover leaves a gap on the line leaf {c}")
        if n1 <= cur_end:
            continue
        switch = 0.5 * (n0 + cur_end)
        segments.append(bohr.LeafSegment(cur[0], cur[1], switch, cur[2]))
        switches.append(switch)
        cur, cur_end = (nidx, switch, nc), n1
    segments.append(bohr.LeafSegment(cur[0], cur[1], cur_end, cur[2]))
    pts = pol.curve_points(c, np.array(switches))
    if phi is not None:
        pts = phi.apply_inverse(pts)
    return Leaf(c, "line", tuple(segments), cover.manifold.reduce(pts))


def _source(cover):
    """The cover a pullback cover was pulled back from, or the cover."""
    return cover.pullback_of[0] if cover.pullback_of is not None else cover


def _reference_leaf(cover, pol, c):
    """The leaf through c threaded per label; on a pullback cover threaded
    on the source, with its switch points moved through phi^{-1}."""
    phi = None
    if cover.pullback_of is not None:
        cover, phi = cover.pullback_of
        pol = pol.base
    if pol.leaf_period is None:
        return _reference_line(cover, pol, c, phi)
    return _reference_circle(cover, pol, c, phi)


def _bits(x) -> str:
    return float(x).hex()


def _assert_same_leaf(got, want):
    assert _bits(got.label) == _bits(want.label)
    assert got.topology == want.topology
    assert len(got.segments) == len(want.segments)
    for s, r in zip(got.segments, want.segments):
        assert s.element == r.element
        assert [_bits(v) for v in (s.t0, s.t1, s.c_elem)] == [
            _bits(v) for v in (r.t0, r.t1, r.c_elem)
        ]
    assert got.switch_points.shape == want.switch_points.shape
    assert got.switch_points.dtype == want.switch_points.dtype
    assert got.switch_points.tobytes() == want.switch_points.tobytes()


def _atlas_cases(models):
    """(name, cover, polarization, labels): census-range labels, labels
    within 1e-9 of the elements' label edges, and on the torus labels
    shifted by a period."""
    cases = []

    def labels_for(cover, pol, lo, hi, periodic):
        labels = list(np.linspace(lo, hi, 13))
        geom = _source(cover)
        root = pol.root
        if root.kind == "radial":
            for el in geom.elements:
                b = el.box
                half = min(b.hi[0], b.hi[1], -b.lo[0], -b.lo[1])
                edge = 0.5 * half * half
                labels += [edge - 5e-10, edge - 2e-9, edge + 5e-10]
        else:
            for el in geom.elements:
                for edge in el.box.interval(root.label_axis):
                    labels += [edge + d for d in (-2e-9, -9e-10, -5e-10, 0.0,
                                                  5e-10, 9e-10, 1.1e-9, 2e-9)]
        if periodic:
            labels += [c + TWO_PI for c in labels[:13]] + [c - TWO_PI for c in labels[:5]]
        return labels

    for k in range(1, 9):
        exm = models("torus", k=k)
        pol = exm.polarization()
        cases.append((f"torus-{k}", exm.cover, pol,
                      labels_for(exm.cover, pol, 0.0, TWO_PI, True)))
    for name, params in [("cylinder", {}), ("disk", {}), ("plane", {})] + [
        ("sphere", {"k": k}) for k in range(2, 7)
    ]:
        exm = models(name, **params)
        pol = exm.polarization()
        lo, hi = exm.census_range
        cases.append((name + str(params.get("k", "")), exm.cover, pol,
                      labels_for(exm.cover, pol, lo, hi, False)))
    for name, params, spec in [
        ("sphere", {"k": 3}, "rot:1"),
        ("cylinder", {}, "pshift:1"),
        ("torus", {"k": 2}, "translate:pi,0"),
        ("plane", {"granularity": 2}, "shear"),
    ]:
        exm = models(name, **params)
        phi = catalog.make_map(exm, spec)
        comp = build_complementary(phi, exm.cover)
        pushed = pushforward_polarization(phi, exm.polarization())
        lo, hi = exm.census_range
        cases.append((f"{name}-{spec}", comp.base, pushed,
                      labels_for(comp.base, pushed, lo, hi, name == "torus")))
    return cases


def test_atlas_leaves_equal_per_label_threading(models, monkeypatch):
    threaded = []
    real_circle, real_line = bohr._thread_circle, bohr._thread_line
    monkeypatch.setattr(bohr, "_thread_circle",
                        lambda *a: threaded.append(a) or real_circle(*a))
    monkeypatch.setattr(bohr, "_thread_line",
                        lambda *a: threaded.append(a) or real_line(*a))
    for name, cover, pol, labels in _atlas_cases(models):
        want, failing = {}, {}
        for c in labels:
            try:
                want[c] = _reference_leaf(cover, pol, c)
            except CoverageError as exc:
                failing[c] = str(exc)
        good = [c for c in labels if c in want]
        assert len(good) > 13, name
        threaded.clear()
        atlas = bohr.LeafAtlas(cover, pol)
        for got, c in zip(atlas.leaves(good), good):
            _assert_same_leaf(got, want[c])
        # one threading per membership pattern, and none on a second pass
        src, root = _source(cover), pol.root
        patterns = {
            frozenset(r[0] for r in _reference_candidates(src, root, c)) for c in good
        }
        assert atlas.threadings == len(threaded) == len(patterns), name
        for got, c in zip(atlas.leaves(good[::-1]), good[::-1]):
            _assert_same_leaf(got, want[c])
        assert atlas.threadings == len(threaded) == len(patterns), name
        for c, message in failing.items():
            with pytest.raises(CoverageError) as exc:
                atlas.leaves([good[0], c, good[-1]])
            assert str(exc.value) == message, name


def test_atlas_names_a_label_that_crosses_no_element(models):
    exm = models("cylinder")  # labels lie within 3.5 + pad
    atlas = bohr.LeafAtlas(exm.cover, exm.polarization())
    with pytest.raises(CoverageError, match=r"^leaf 9\.0 crosses no cover element$"):
        atlas.leaves([0.5, 9.0, 1.0, -9.5])
    other = models("torus", k=1)
    with pytest.raises(bohr.ConfigurationError):
        enumerate_leaves(other.cover, other.polarization(), (0.0, 1.0), 3, atlas=atlas)


def _reference_holonomy(cover, pol, leaf, transport):
    """The holonomy of one leaf as a product of scalars, one one-entry
    integral and one single-point transition call at a time."""
    if leaf.topology == "point":
        return bohr.HolonomyResult(1.0 + 0.0j, 0.0, 0.0, 0, 0.0)
    action, hol = 0.0, 1.0 + 0.0j
    for seg in leaf.segments:
        val = complex(transport.integral([seg.element], [seg.t0], [seg.t1], [seg.c_elem])[0])
        action += val.real
        hol *= np.exp(-1j * val)
    nseg = len(leaf.segments)
    for j in range(len(leaf.switch_points)):
        a = leaf.segments[j].element
        b = leaf.segments[(j + 1) % nseg].element
        lam = cover.transition(a, b, leaf.switch_points[j])[0]
        hol *= lam
        action -= math.atan2(lam.imag, lam.real)
    nearest = int(round(action / TWO_PI))
    return bohr.HolonomyResult(complex(hol), math.atan2(hol.imag, hol.real), action,
                               nearest, action - TWO_PI * nearest)


def _same_result(got, want) -> bool:
    return (
        type(got.holonomy) is complex
        and [_bits(v) for v in (got.holonomy.real, got.holonomy.imag, got.phase,
                                got.action, got.residual)]
        == [_bits(v) for v in (want.holonomy.real, want.holonomy.imag, want.phase,
                               want.action, want.residual)]
        and got.nearest_multiple == want.nearest_multiple
    )


def _gauged(cover):
    """The cover in another gauge: transitions lambda_ab exp(i (f_b - f_a))
    and potentials theta_a - d f_a, with f_a varying along the leaves, so
    that transitions at switch points are not 1.  Holonomies stay."""
    c0, c1 = cover.manifold.coords
    names = set(cover.manifold.coords)
    f = {
        a: ex.parse_expr(f"{0.3 + 0.11 * a}*sin({c0} + 2*{c1}) + {0.7 * a}", names)
        for a in cover.data.potentials
    }
    transitions = {
        (a, b): ex.mul(lam, ex.call("exp", ex.mul(ex.Imag(), ex.sub(f[b], f[a]))))
        for (a, b), lam in cover.data.transitions.items()
    }
    potentials = {
        a: (ex.sub(t0, ex.differentiate(f[a], c0)), ex.sub(t1, ex.differentiate(f[a], c1)))
        for a, (t0, t1) in cover.data.potentials.items()
    }
    return TrivializationCover(
        manifold=cover.manifold, omega=cover.omega, elements=cover.elements,
        data=LocalData(transitions, potentials), nerve=cover.nerve,
    )


def _gauged_cases(models):
    """(name, cover, polarization, label range, the ungauged pair) on gauged
    covers and on pullbacks of them."""
    cases = []
    for name, params, crange in [
        ("torus", {"k": 3}, (0.0, TWO_PI)),
        ("torus", {"k": 8}, (0.0, TWO_PI)),
        ("cylinder", {}, (-2.5, 2.5)),
        ("sphere", {"k": 4}, (0.3, 3.75)),
    ]:
        exm = models(name, **params)
        pol = exm.polarization()
        cases.append((name, _gauged(exm.cover), pol, crange, (exm.cover, pol)))
    for name, params, spec, crange in [
        ("sphere", {"k": 3}, "rot:1", (0.3, 2.75)),
        ("cylinder", {}, "pshift:1", (-2.5, 2.5)),
        ("torus", {"k": 2}, "translate:pi,0", (0.0, TWO_PI)),
    ]:
        exm = models(name, **params)
        phi = catalog.make_map(exm, spec)
        pushed = pushforward_polarization(phi, exm.polarization())
        cases.append((f"{name}-{spec}", pullback(_gauged(exm.cover), phi), pushed,
                      crange, (pullback(exm.cover, phi), pushed)))
    return cases


def test_batched_holonomy_equals_the_per_leaf_product_bit_for_bit(models):
    # NumPy's array complex multiply and np.arctan2 round differently from
    # scalar products and math.atan2 on some inputs; the batch must not
    cases = [
        (name, cover, pol, (labels[0], labels[12]), None)
        for name, cover, pol, labels in _atlas_cases(models)
        if pol.leaf_period is not None
    ] + _gauged_cases(models)
    switches = gauged_switches = 0
    for name, cover, pol, crange, plain in cases:
        leaves = enumerate_leaves(cover, pol, crange, 60)
        transport = bohr.LeafTransport(cover, pol)
        got = holonomy(cover, pol, leaves, transport)
        batches = transport.transition_batches
        for leaf, h in zip(leaves, got):
            want = _reference_holonomy(cover, pol, leaf, transport)
            assert _same_result(h, want), (name, leaf.label, h, want)
            assert _same_result(holonomy(cover, pol, leaf, transport), want)
        pairs = {
            (leaf.segments[j].element, leaf.segments[(j + 1) % len(leaf.segments)].element)
            for leaf in leaves for j in range(len(leaf.switch_points))
        }
        assert batches == sum(a != b for a, b in pairs), name
        switches += sum(len(leaf.switch_points) for leaf in leaves)
        if plain is not None:  # a change of gauge leaves every holonomy
            base = holonomy(*plain, enumerate_leaves(*plain, crange, 60))
            for h, h0 in zip(got, base):
                assert abs(h.holonomy - h0.holonomy) < 1e-10, name
            gauged_switches += sum(len(leaf.switch_points) for leaf in leaves)
    assert gauged_switches > 500 and switches > 2000
