"""Leaves, holonomy, and the Bohr-Sommerfeld census."""

import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from gqlab import bohr, catalog, kernels, program, trace
from gqlab import expr as ex
from gqlab.action import build_complementary
from gqlab.bohr import (
    CoverageError,
    HolonomyUndefinedError,
    LeafAtlas,
    bs_census,
    enumerate_leaves,
    holonomy,
    lattice_count,
    leaf_actions,
)
from gqlab.cli import main
from gqlab.geometry import pushforward_polarization
from gqlab.prequantum import LocalData, TrivializationCover, pullback
from gqlab.transport import LeafTransport

from trees import free_vars

TWO_PI = 2.0 * math.pi
EPS = 2.0**-52


def nearest_multiple(action: float) -> int:
    """The scalar floor rule, the oracle of bohr.nearest_multiples: the m
    for which 2 pi m is nearest to action, the lower one within 1e-9
    multiples of an odd multiple of pi."""
    x = action / TWO_PI
    lower = math.floor(x)
    return lower if x - lower <= 0.5 + 1e-9 else lower + 1


class HolonomyResult(NamedTuple):
    """One circle leaf's report fields, by the scalar formulas: the oracle of
    the census's columns."""

    holonomy: complex
    phase: float
    action: float
    nearest_multiple: int
    residual: float

    @classmethod
    def of(cls, hol: complex, action: float):
        """The phase is -residual, +0.0 at a zero residual as at a point
        leaf, and never reads the holonomy."""
        nearest = nearest_multiple(action)
        residual = action - TWO_PI * nearest
        return cls(hol, 0.0 - residual, action, nearest, residual)


def _holonomies(cover, pol, crange, count):
    """The labels of a sampled label range and their HolonomyResults, one
    holonomy batch on a fresh transport."""
    labels, leaves, _ = enumerate_leaves(LeafAtlas(cover, pol), crange, count)
    actions, hols = holonomy(LeafTransport(cover, pol), leaves)
    return labels, list(map(HolonomyResult.of, hols.tolist(), actions.tolist()))


def test_cylinder_leaf_enumeration(models):
    exm = models("cylinder")
    pol = exm.polarization()
    labels, leaves, points = enumerate_leaves(LeafAtlas(exm.cover, pol), (-2.5, 2.5), 11)
    assert pol.leaf_period is not None  # circle leaves
    assert len(labels) == 11 and points == []  # no singular leaves
    assert leaves.labels.tobytes() == labels.tobytes()  # one leaf a label, in order
    assert np.allclose(labels, np.linspace(-2.5, 2.5, 11))


def test_sphere_enumeration_includes_poles(models):
    exm = models("sphere", k=2)
    pol = exm.polarization()
    _, _, points = enumerate_leaves(LeafAtlas(exm.cover, pol), (0.25, 1.75), 7)
    assert len(points) == 2
    assert sorted(c for c, _ in points) == [0.0, 2.0]
    assert [p for _, p in points] == [tuple(map(float, p)) for p in pol.singular_points]


def test_torus_loops_close_through_the_cover(models):
    exm = models("torus", k=1)
    pol = exm.polarization()
    labels, leaves, _ = enumerate_leaves(LeafAtlas(exm.cover, pol), (0.0, TWO_PI), 8)
    assert len(labels) == 8 == len(leaves.labels)
    for leaf in _each(leaves):
        k = len(leaf.elements)
        assert abs(np.sum(leaf.t1 - leaf.t0) - TWO_PI) < 1e-9  # the loop closes
        assert leaf.switch_points.shape == (k, 2)
        for j in range(k):
            a, b = leaf.elements[j], leaf.elements[(j + 1) % k]
            # on the torus an element holds a point iff the point lifts into it
            for el in (a, b):
                point = leaf.switch_points[j : j + 1]
                assert not np.isnan(exm.cover.member_points(el, point)).any()


def test_plane_line_leaves(models):
    # a line leaf is not threaded: its label is sampled, the batch is empty
    # and no membership pattern is threaded
    exm = models("plane")
    pol = exm.polarization()
    with trace.counting() as counts:
        labels, leaves, _ = enumerate_leaves(LeafAtlas(exm.cover, pol), (-2.0, 2.0), 5)
    assert pol.leaf_period is None  # line leaves
    assert labels.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0] and leaves.k.size == 0
    assert counts["leaf_patterns"] == 0


def test_atlas_refuses_line_leaves_by_name(models):
    # a line leaf has no holonomy: the atlas threads none, and says so,
    # whether or not the label crosses an element; no labels still give
    # the empty batch that a census of line leaves takes
    exm = models("plane")
    atlas = LeafAtlas(exm.cover, exm.polarization())
    for labels in ([0.5], [-2.0, 0.0, 100.0]):
        with pytest.raises(HolonomyUndefinedError, match=r"\(line\) leaves"):
            atlas.leaves(labels)
    assert atlas.leaves([]).k.size == 0


def test_point_leaf_holonomy_is_trivial(models):
    exm = models("sphere", k=1)
    rep = bs_census(exm.cover, exm.polarization(), (0.3, 0.7), 3)
    points = [r for r in rep.as_dict()["leaves"] if r["topology"] == "point"]
    assert points and all(r["singular"] and r["is_bs"] for r in points)
    for r in points:
        assert r["holonomy"] == [1.0, 0.0] and r["action"] == 0.0


def test_cylinder_action_closed_form(models):
    exm = models("cylinder")
    _, (h,) = _holonomies(exm.cover, exm.polarization(), (1.0, 1.0), 1)
    assert abs(h.action - TWO_PI) < 1e-10  # loop integral of p dx at p = 1
    assert abs(h.holonomy - 1.0) < 1e-10 and abs(h.phase) < 1e-10
    assert h.nearest_multiple == 1 and abs(h.residual) < 1e-10


def test_a_tie_takes_the_lower_multiple():
    # an odd multiple of pi is a tie: whatever its last bit, the lower
    # multiple wins and the residual is +pi
    for m, lower in ((3, 1), (-5, -3)):
        for action in (m * math.pi * (1 - 2.0**-52), m * math.pi,
                       m * math.pi * (1 + 2.0**-52)):
            assert nearest_multiple(action) == lower
            assert abs(action - TWO_PI * lower - math.pi) < 1e-14
    # within 1e-9 multiples of the tie, and beyond it
    x = 2.5 * TWO_PI
    assert nearest_multiple(x * (1 + 1e-10)) == 2
    assert nearest_multiple(x * (1 + 1e-9)) == 3
    assert nearest_multiple(x * (1 - 1e-9)) == 2
    others = (0.0, 2.9 * math.pi, 3.1 * math.pi, -0.9 * math.pi)
    assert [nearest_multiple(a) for a in others] == [0, 1, 2, 0]
    # the census's array rule gives the scalar rule's multiples
    actions = [m * math.pi * (1 + e) for m in (3, -5) for e in (-2.0**-52, 0.0, 2.0**-52)]
    actions += [x * (1 + 1e-10), x * (1 + 1e-9), x * (1 - 1e-9), *others]
    got = bohr.nearest_multiples(np.array(actions)).tolist()
    assert got == list(map(nearest_multiple, actions))


def _located(labels: list, actions: list, flux: list) -> list:
    """Whether the census locates each sampled leaf, by its rule in scalar
    form, for a census that takes no refinement round: the actions, in
    label order, are unwrapped by the trapezoid rule on the flux A', and a
    leaf is located when r, its unwrapped action U less the nearest
    multiple of 2 pi, lies within ROUNDING (|U| + |c A'(c)|)."""
    n, located = 0.0, []
    for i, (c, a, f) in enumerate(zip(labels, actions, flux)):
        if i:
            step = (a - actions[i - 1]) - 0.5 * (f + flux[i - 1]) * (c - labels[i - 1])
            n -= round(step / TWO_PI)
        u = a + TWO_PI * n
        r = a + TWO_PI * (n - round(u / TWO_PI))
        located.append(abs(r) <= bohr.ROUNDING * (abs(u) + abs(c * f)))
    return located


def _oracle_rows(rep, located: list) -> list:
    """A census report's leaf rows by the scalar formulas, from its columns;
    located says which sampled circle leaves are BS."""

    def row(c, topology, hol, action, is_bs):
        h = HolonomyResult.of(hol, action)
        return {"label": c, "topology": topology, "singular": topology == "point",
                "is_bs": is_bs, "holonomy": [hol.real, hol.imag],
                "phase": h.phase, "action": action, "nearest_multiple": h.nearest_multiple,
                "residual": h.residual}

    return (
        [row(c, "circle", h, a, bs) for c, h, a, bs in
         zip(rep.labels.tolist(), rep.holonomies.tolist(), rep.actions.tolist(), located)]
        + [{"label": c, "topology": "line", "singular": False, "is_bs": not rep.lines_excluded}
           for c in rep.lines]
        + [row(c, "point", 1.0 + 0.0j, 0.0, True) for c, _ in rep.points]
    )


def _typed_bits(rows) -> list:
    """Rows with each value as its type and, for a float, its float.hex."""

    def bits(v):
        if isinstance(v, list):
            return [bits(x) for x in v]
        return type(v).__name__, v.hex() if isinstance(v, float) else v

    return [{key: bits(v) for key, v in r.items()} for r in rows]


@pytest.mark.parametrize("name,params,crange,include_lines", [
    *(("torus", {"k": k}, None, False) for k in (1, 2, 3)),
    ("cylinder", {}, None, False),
    *(("sphere", {"k": k}, None, False) for k in (2, 3, 4)),
    ("disk", {}, None, False),
    # far labels, on the cylinder `bs --range 1e10:10000000002` builds
    ("cylinder", {"p_max": 10000000003.0}, (1e10, 10000000002.0), False),
    ("plane", {}, None, False),
    ("plane", {}, None, True),
])
def test_census_rows_are_the_scalar_formulas_of_its_columns(models, name, params, crange,
                                                            include_lines):
    exm = models(name, **params)
    pol = exm.polarization()
    crange = crange or exm.census_range
    rep, counts = _counted_census(exm.cover, pol, crange, 33, include_lines=include_lines)
    assert counts["census_refinements"] == 0  # as _located asks
    # the columns are the holonomy batch of the sampled labels, read-only
    atlas = LeafAtlas(exm.cover, pol)
    labels, leaves, points = enumerate_leaves(atlas, crange, 33)
    closed = pol.leaf_period is not None
    transport = LeafTransport(exm.cover, pol)
    actions, hols = holonomy(transport, leaves if closed else atlas.leaves([]))
    assert rep.labels.tobytes() == (labels if closed else actions).tobytes()
    assert rep.lines == (() if closed else tuple(labels.tolist()))
    assert rep.actions.tobytes() == actions.tobytes()
    assert rep.holonomies.tobytes() == hols.tobytes()
    assert rep.points == tuple(points)
    for column in (rep.labels, rep.actions, rep.holonomies, rep.is_bs):
        assert not column.flags.writeable
    circles = rep.labels.tolist()
    located = _located(circles, rep.actions.tolist(), transport.flux(rep.labels).tolist())
    assert rep.is_bs.dtype == bool and rep.is_bs.tolist() == located
    leaves = rep.as_dict()["leaves"]
    assert len(leaves) == len(labels) + len(points)
    assert _typed_bits(leaves) == _typed_bits(_oracle_rows(rep, located))


def _torus_windows(k: int) -> list:
    """The (window, count) pairs of the torus census tests: period windows
    at three offsets and three counts, and for k <= 4 wider windows."""
    windows = [((lo, lo + TWO_PI), count) for count in (24, 48, 96)
               for lo in (0.0, 0.37 * TWO_PI / k, 1.9)]
    if k <= 4:
        windows += [((lo, lo + periods * TWO_PI), int(12 * k * periods) + 3)
                    for periods in (1.5, 2.0, 2.5, 3.2)
                    for lo in (-7.0, 0.0, 0.3 * TWO_PI / k, 2.9)]
    return windows


_WINDOWS = [  # (model, params, [(window, count)]) of the census windows below
    *(("torus", {"k": k}, _torus_windows(k)) for k in range(1, 9)),
    ("cylinder", {}, [((-2.5, 2.5), 33), ((-1.7, 1.9), 33), ((-3.2, 0.45), 33),
                      ((-2.5, 2.5), 11), ((-1.2, 1.2), 11)]),
    ("cylinder", {"p_max": 1000003.5}, [((999999.5, 1000002.5), 7)]),
    *(("sphere", {"k": k}, [((0.3, k - 0.25), 4 * k + 9), ((0.45, k - 0.6), 4 * k + 9)])
      for k in range(2, 7)),
    ("sphere", {"k": 2}, [((0.25, 1.75), 13)]),
    ("disk", {}, [((0.25, 4.87), 33)]),
]


@pytest.mark.parametrize("name,params,windows", _WINDOWS)
def test_a_sampled_leaf_is_bs_exactly_where_the_census_locates_it(models, name, params,
                                                                    windows):
    # below labels of 10^6 a located sample is its own location, so the BS
    # rows are the sampled labels that are a location, up to whole periods
    exm = models(name, **params)
    pol = exm.polarization()
    period = pol.label_range[1] - pol.label_range[0] if pol.label_periodic else None
    for crange, count in windows:
        rep = bs_census(exm.cover, pol, crange, count)
        located = [any(abs(math.remainder(c - u, period) if period else c - u) < 1e-9
                       for u in rep.bs_locations) for c in rep.labels.tolist()]
        assert rep.is_bs.tolist() == located, (crange, count)


@pytest.mark.parametrize("name,params,crange,count", [
    ("cylinder", {"p_max": 10000000003.0}, (1e10, 10000000002.0), 3),
    ("cylinder", {"p_max": 1e13 + 4.0}, (1e13, 1e13 + 3.0), 301),
    ("torus", {"k": 3}, (TWO_PI * 1e12, TWO_PI * 1e12 + TWO_PI), 1001),
])
def test_a_sampled_location_of_a_far_label_is_bs(models, name, params, crange, count):
    # far out several samples in a row can be located at one multiple: each
    # is BS, and the one with the least residual is the location
    exm = models(name, **params)
    rep = bs_census(exm.cover, exm.polarization(), crange, count)
    bs = rep.labels[rep.is_bs].tolist()
    assert {c for c in rep.labels.tolist() if c in rep.bs_locations} <= set(bs)
    assert len(bs) >= rep.q_bs_smooth


def test_bs_rows_read_the_census_verdict_at_far_labels(capsys):
    # |residual| at 1e10 is about 1e-6, far above a tolerance of 1e-8 and
    # within the action's rounding: the census locates all three samples,
    # and their rows say so
    argv = ["bs", "--example", "cylinder", "--range", "1e10:10000000002", "--count", "3",
            "--json"]
    assert main(argv) == 0
    census = json.loads(capsys.readouterr().out)["payload"]["census"]
    assert census["q_bs"] == 3
    assert census["bs_locations"] == [1e10, 10000000001.0, 10000000002.0]
    assert [r["is_bs"] for r in census["leaves"]] == [True, True, True]
    assert "tol" not in census


@pytest.mark.parametrize("name,params,windows", _WINDOWS + [
    ("cylinder", {}, [((1e-13, 3.0000000000001), 4)]),
    ("cylinder", {"p_max": 10000000003.0}, [((1e10, 10000000002.0), 3)]),
    ("cylinder", {"p_max": 1e13 + 4.0}, [((1e13, 1e13 + 3.0), 301)]),
    ("torus", {"k": 3}, [((TWO_PI * 1e12, TWO_PI * 1e12 + TWO_PI), 1001)]),
    *(("torus", {"k": k}, [((0.0, TWO_PI), 24)]) for k in (1, 2, 3)),
])
def test_a_sampled_label_among_the_locations_is_bs(models, name, params, windows):
    # whether its rounding locates it or a root search closes on it
    exm = models(name, **params)
    for crange, count in windows:
        rep = bs_census(exm.cover, exm.polarization(), crange, count)
        found = set(rep.bs_locations)
        assert all(bs for c, bs in zip(rep.labels.tolist(), rep.is_bs.tolist()) if c in found)


def test_a_root_search_that_closes_on_a_sample_makes_its_row_bs(capsys):
    # each integer crossing lies 1e-13 below a sample: the root search
    # closes on the sample, whose |residual| 6.3e-13 is within the search's
    # 1e-12 and above the sample's rounding
    argv = ["bs", "--example", "cylinder", "--range", "0.0000000000001:3.0000000000001",
            "--count", "4", "--json"]
    assert main(argv) == 0
    census = json.loads(capsys.readouterr().out)["payload"]["census"]
    assert census["bs_locations"] == [1.0000000000001, 2.0000000000001, 3.0000000000001]
    assert [r["is_bs"] for r in census["leaves"]] == [False, True, True, True]


def test_an_empty_batch_gives_float_actions_and_complex_holonomies(models, capsys):
    # np.bincount gives ints on empty input; a batch of no leaves is still
    # a batch of actions and holonomies
    exm = models("torus", k=3)
    pol = exm.polarization()
    transport, leaves = LeafTransport(exm.cover, pol), LeafAtlas(exm.cover, pol).leaves([])
    assert leaf_actions(transport, leaves)[0].dtype == np.float64
    actions, hols = holonomy(transport, leaves)
    assert (actions.dtype, hols.dtype, len(actions), len(hols)) == (
        np.float64, np.complex128, 0, 0)
    # both samples of this sphere census are poles, so its batch is empty
    assert main(["bs", "--example", "sphere", "--k", "2", "--range", "0:2",
                 "--count", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["census"]["q_bs"] == 2


def test_census_rows_follow_the_scalar_formulas_on_edge_actions(models):
    # ties within 1e-9 multiples of an odd multiple of pi, negative actions,
    # signed zeros, and holonomies at -1 whatever the sign of their
    # imaginary part: a phase is -residual, so -pi at every tie
    exm = models("torus", k=2)
    rep = bs_census(exm.cover, exm.polarization(), exm.census_range, 5)
    actions = [m * math.pi + TWO_PI * d for m in (1, 3, -1, -5, 7)
               for d in (-1.5e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 1.5e-9)]
    actions += [math.pi * (1 + e) for e in (-2.0**-52, 2.0**-52)]
    # an action whose x - floor(x) is 0.5 + 1e-9 exactly, the last of a
    # tie, and one whose phase is exactly 1e-8
    edge = len(actions)
    actions += [3.141592659872978, -1e-8]
    actions += [-0.3, -TWO_PI, -7.5, -1e-300, -0.0, 0.0, 1e-12, -1e-12]
    hols = [complex(math.cos(a), -math.sin(a)) for a in actions]
    hols += [complex(-1.0, 0.0), complex(-1.0, -0.0), complex(-1.0, 1e-17),
             complex(-1.0, -1e-17), complex(1.0, -0.0), complex(0.0, -0.0)]
    actions += [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, -0.0, 0.0]
    n = len(actions)
    located = [i % 3 == 0 for i in range(n)]  # the rows echo the census's column
    synthetic = rep._replace(labels=np.linspace(0.0, 1.0, n), actions=np.array(actions),
                             holonomies=np.array(hols), is_bs=np.array(located))
    leaves = synthetic.as_dict()["leaves"]
    assert _typed_bits(leaves) == _typed_bits(_oracle_rows(synthetic, located))
    phases = [r["phase"] for r in leaves[n - 6 : n - 2]]
    assert phases == [-math.pi] * 4
    assert all(r["phase"] == -r["residual"] for r in leaves)
    # pi less or plus 2 pi d: the tie holds to d = 5e-10, not at 1.5e-9
    assert [leaves[i]["nearest_multiple"] for i in (0, 1, 2, 3, 4, 6)] == [0] * 5 + [1]
    assert leaves[edge]["nearest_multiple"] == 0
    assert leaves[edge + 1]["phase"] == 1e-8


def test_tie_leaves_report_residual_plus_pi(models):
    # leaf 3 pi / 2 of the Chern-2 torus has action 3 pi and holonomy -1
    exm = models("torus", k=2)
    rep = bs_census(exm.cover, exm.polarization(), (0.0, TWO_PI), 24)
    ties = [r for r in rep.as_dict()["leaves"] if abs(abs(r["phase"]) - math.pi) < 1e-9]
    assert len(ties) == 2
    for r in ties:
        assert abs(r["residual"] - math.pi) < 1e-9
        assert r["nearest_multiple"] == math.floor(r["action"] / TWO_PI)


@pytest.mark.parametrize("name,params,crange,count,tied", [
    ("torus", {"k": 2}, (0.0, TWO_PI), 24, [0.5 * math.pi, 1.5 * math.pi]),
    # the cylinder's action is 2 pi c, so every half-integer label ties
    ("cylinder", {}, (-2.5, 2.5), 11, [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]),
])
def test_tie_leaves_report_phase_minus_pi(models, name, params, crange, count, tied):
    # a tie's residual is +pi, so its phase is -pi exactly, whatever the
    # sign of its holonomy's imaginary part
    exm = models(name, **params)
    rep = bs_census(exm.cover, exm.polarization(), crange, count)
    ties = [r for r in rep.as_dict()["leaves"] if abs(abs(r["residual"]) - math.pi) < 1e-9]
    assert np.allclose([r["label"] for r in ties], tied, rtol=0, atol=1e-12)
    assert all(r["residual"] == math.pi and r["phase"] == -math.pi for r in ties)
    if name == "cylinder":  # the imaginary parts of the holonomies take both signs
        assert {math.copysign(1.0, r["holonomy"][1]) for r in ties} == {-1.0, 1.0}


def test_torus_holonomy_closed_form(models):
    exm = models("torus", k=3)
    pol = exm.polarization()
    for c, is_bs in ((2 * math.pi / 5, False), (2 * math.pi / 3, True)):
        _, (h,) = _holonomies(exm.cover, pol, (c, c), 1)
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
    _, results = _holonomies(exm.cover, exm.polarization(), crange, 9)
    assert len(results) == 9
    for h in results:
        assert abs(abs(h.holonomy) - 1.0) < 1e-10


def _rotated(leaf, shift):
    """A one-leaf batch threaded from its segment shift on."""
    def turn(a):
        return np.roll(a, -shift, axis=0)

    return leaf._replace(elements=turn(leaf.elements), t0=turn(leaf.t0), t1=turn(leaf.t1),
                         lifted=turn(leaf.lifted), switch_points=turn(leaf.switch_points),
                         switch_pairs=turn(leaf.switch_pairs))


def _pairs_of_segments(leaves):
    """The (before, after) elements of each switch, from the segment
    columns: switch j of a leaf joins its segments j and j + 1, cyclically."""
    pairs, first = [], 0
    for k, s in zip(leaves.k.tolist(), leaves.s.tolist()):
        els = leaves.elements[first : first + k].tolist()
        pairs += [(els[j], els[(j + 1) % k]) for j in range(s)]
        first += k
    return pairs


def test_holonomy_independent_of_starting_segment(models):
    exm = models("torus", k=2)
    pol = exm.polarization()
    _, leaf = enumerate_leaves(LeafAtlas(exm.cover, pol), (1.1, 1.1), 1)[:2]
    assert len(leaf.labels) == 1 and leaf.s.tolist() == leaf.k.tolist()
    _, h = holonomy(LeafTransport(exm.cover, pol), leaf)
    for shift in range(1, len(leaf.elements)):
        rotated = _rotated(leaf, shift)
        assert list(map(tuple, rotated.switch_pairs.tolist())) == _pairs_of_segments(rotated)
        _, h2 = holonomy(LeafTransport(exm.cover, pol), rotated)
        assert abs(h[0] - h2[0]) < 1e-10


def test_holonomy_invariant_under_refinement(models):
    from gqlab.prequantum import refine, split_boxes

    exm = models("torus", k=2)
    pol = exm.polarization()
    fine, _ = refine(exm.cover, split_boxes(exm.cover))
    for c in (0.7, 2.9, 5.1):
        leaf = LeafAtlas(exm.cover, pol).leaves([c])
        leaf_f = LeafAtlas(fine, pol).leaves([c])
        assert len(leaf_f.elements) > len(leaf.elements)
        _, (h,) = _holonomies(exm.cover, pol, (c, c), 1)
        _, (hf,) = _holonomies(fine, pol, (c, c), 1)
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
        enumerate_leaves(LeafAtlas(exm.cover, exm.polarization()), (9.0, 9.0), 1)


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
# Root solving: bohr._crossings on one bracket.  The test_brent_root_* names
# date from when the search past the first batch was Brent's method; they
# now check the bisection that replaced it.


def _root(f, a: float, fa: float, b: float, fb: float) -> tuple:
    """The root bohr._crossings gives the one bracket (a, fa, b, fb) of f,
    a < b, and the labels of each batch it asked f for."""
    batches = []

    def actions_at(labels):
        batches.append(list(labels))
        return [f(c) for c in labels]

    (root,) = bohr._crossings([(a, fa, b, fb)], actions_at)
    return root, batches


def _most_labels(a: float, b: float) -> int:
    """The probe pair, then one bisection a batch down to 1e-12."""
    return 2 + math.ceil(math.log2((b - a) / bohr.CROSSING_XTOL))


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
    # each f is monotone on its bracket; scaled to at most 1 there, it stays
    # within pi of its secant line, so every value is on its own branch
    scale = 1.0 / max(abs(f(a)), abs(f(b)))
    got, batches = _root(lambda x: scale * f(x), a, scale * f(a), b, scale * f(b))
    assert abs(got - root) <= 1e-12
    assert any(got in labels for labels in batches)  # a label f was evaluated at
    assert len(batches) > 1  # the secant estimate missed: bisection ran
    assert sum(map(len, batches)) <= _most_labels(a, b)


def test_brent_root_at_a_bracket_end():
    # a crossing at an end: one probe lies inside, and the end is the root
    for bracket in ((0.3, 0.0, 1.0, 0.7), (-1.0, -1.3, 0.3, 0.0)):
        got, batches = _root(lambda x: x - 0.3, *bracket)
        assert got == 0.3 and len(batches) == 1


def test_brent_root_returns_on_an_exact_zero():
    # zero on a short interval the secant estimate misses: the first
    # midpoint inside it ends the search
    def f(x):
        return min(0.0, x - 0.2) + max(0.0, 10.0 * (x - 0.21))

    got, batches = _root(f, 0.0, f(0.0), 1.0, f(1.0))
    assert 0.2 <= got <= 0.21 and f(got) == 0.0
    assert batches[-1] == [got] and len(batches) > 2
    assert [x for labels in batches for x in labels if 0.2 <= x <= 0.21] == [got]


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
    got, _ = _root(f, a, f(a), a + 1, f(a + 1))
    assert abs(Fraction(got) - root) <= math.ulp(float(root))


def _in_window(labels, lo, period):
    return sorted(lo + (c - lo) % period for c in labels)


def _counted_census(*args, **kwargs) -> tuple:
    """bs_census's report, and the counts it made."""
    with trace.counting() as counts:
        rep = bs_census(*args, **kwargs)
    return rep, counts


def _assert_located(census, want):
    rep, counts = census
    got = sorted(rep.bs_locations)
    assert len(got) == len(want)
    assert np.max(np.abs(np.array(got) - want), initial=0.0) <= 1e-11
    # the probe pair closes each bracket; bisection would take about 37
    assert counts["root_holonomy_evaluations"] <= 12 * counts["root_brackets"]
    return rep, counts


@pytest.mark.parametrize("k", range(1, 9))
def test_census_locations_on_the_torus(models, k):
    exm = models("torus", k=k)
    pol = exm.polarization()
    labels = [TWO_PI * m / k for m in range(k)]
    for count in (24, 48, 96):
        for lo in (0.0, 0.37 * TWO_PI / k, 1.9):
            census = _counted_census(exm.cover, pol, (lo, lo + TWO_PI), count)
            rep, _ = _assert_located(census, _in_window(labels, lo, TWO_PI))
            assert rep.q_bs == k


@pytest.mark.parametrize("crange", [(-2.5, 2.5), (-1.7, 1.9), (-3.2, 0.45)])
def test_census_locations_on_the_cylinder(models, crange):
    exm = models("cylinder")
    census = _counted_census(exm.cover, exm.polarization(), crange, 33)
    want = [m for m in range(-4, 5) if crange[0] < m < crange[1]]
    rep, counts = _assert_located(census, want)
    # one bracket per location that is not a sample
    sampled = {e.leaf.label for e in rep.entries}
    assert counts["root_brackets"] == len(set(rep.bs_locations) - sampled)


def test_census_counts_a_sample_exactly_on_a_multiple_of_2pi(models):
    # at 1000001 the unwrapped action is 2 pi m to the last bit, so r is 0,
    # within the action's rounding, and the sample itself is the location;
    # its holonomy reads a phase of about 1e-9 there (the cylinder is the
    # one `bs --range 999999.5:1000002.5` builds)
    exm = models("cylinder", p_max=1000003.5)
    rep = bs_census(exm.cover, exm.polarization(), (999999.5, 1000002.5), 7)
    assert rep.q_bs_smooth == 3
    assert [round(c) for c in rep.bs_locations] == [1000000, 1000001, 1000002]
    assert all(abs(c - round(c)) < 1e-8 for c in rep.bs_locations)


@pytest.mark.parametrize("j", range(14))
def test_census_finds_every_integer_on_cylinder_windows_aligned_at_10_to_the_j(j):
    # samples at multiples of the step hit the BS labels, the integers, where
    # r rounds to either sign; a window holds 3 or 4 of them
    base = 10.0**j
    exm = catalog.example("cylinder", p_max=base + 4.0)
    pol = exm.polarization()
    for off in (-0.5, -0.25, 0.0, 0.25, 0.5):
        for step in (1.0, 0.5, 0.25, 0.125):
            lo, hi = base + off, base + off + 3.0
            rep = bs_census(exm.cover, pol, (lo, hi), int(3.0 / step) + 1)
            want = range(math.ceil(lo), math.floor(hi) + 1)
            assert [round(c) for c in rep.bs_locations] == list(want), (off, step)
            assert all(abs(c - round(c)) <= 1e-8 * c for c in rep.bs_locations)


def test_bs_finds_the_integers_of_a_cylinder_window_far_from_0(capsys):
    # a width-2 window, which the aligned windows above do not cover
    argv = ["bs", "--example", "cylinder", "--range", "1e6:1000002", "--count", "9", "--json"]
    assert main(argv) == 0
    census = json.loads(capsys.readouterr().out)["payload"]["census"]
    assert census["bs_locations"] == [1000000.0, 1000001.0, 1000002.0]


@pytest.mark.parametrize("base, count", [(1e13, 301), (1e12, 3001)])
def test_census_counts_each_integer_once_when_samples_are_finer_than_the_rounding(
    base, count
):
    # the rounding at 10^13 is about 0.02 in the label: several samples in a
    # row are located at each integer, and they are one location
    exm = catalog.example("cylinder", p_max=base + 4.0)
    rep = bs_census(exm.cover, exm.polarization(), (base, base + 3.0), count)
    assert rep.bs_locations == (base, base + 1.0, base + 2.0, base + 3.0)


@pytest.mark.parametrize("k", [1, 3])
def test_census_counts_k_leaves_on_a_fine_torus_period_far_out(models, k):
    # at 2 pi 10^12 the rounding is about 0.005 in the label, more than a
    # step of 2 pi / 1001; a run of located samples can reach the closing
    # step and go on into the first samples, and is still one location
    exm = models("torus", k=k)
    pol = exm.polarization()
    for i in range(-6, 7):
        lo = TWO_PI * 1e12 + 0.001 * i
        assert bs_census(exm.cover, pol, (lo, lo + TWO_PI), 1001).q_bs == k, i


@pytest.mark.parametrize("j", [6, 9, 11, 12])
def test_census_counts_k_leaves_on_a_period_window_from_a_far_bs_label(models, j):
    # once rounded, (2 pi 10^9, 2 pi 10^9 + 2 pi) is 3e-7 narrower than a
    # period: it is still one period, and its two ends are one leaf
    lo = TWO_PI * 10.0**j
    for k in range(1, 9):
        exm = models("torus", k=k)
        rep = bs_census(exm.cover, exm.polarization(), (lo, lo + TWO_PI), 4 * k + 9)
        assert rep.q_bs == k, k


@pytest.mark.parametrize("k", [1, 3, 8])
def test_census_locations_on_torus_windows_many_periods_out(models, k):
    # labels c and c + 2 pi N are the same leaf: k BS leaves per period
    # window, whatever N, each at a multiple of 2 pi / k to the label's
    # rounding; a half-period window starting on a BS label holds both ends
    exm = models("torus", k=k)
    pol = exm.polarization()
    for j in range(4, 13):
        for off in (0.37 * TWO_PI / k, 1.9):
            lo = TWO_PI * 10.0**j + off
            rep = bs_census(exm.cover, pol, (lo, lo + TWO_PI), 24)
            phases = np.array(rep.bs_locations) * k / TWO_PI
            assert rep.q_bs == k and len(set(np.round(phases) % k)) == k, (j, off)
            assert np.max(np.abs(phases - np.round(phases))) <= 1e-3
        lo = TWO_PI * 10.0**j
        rep = bs_census(exm.cover, pol, (lo, lo + 0.5 * TWO_PI), 24)
        assert rep.q_bs == k // 2 + 1, j


@pytest.mark.parametrize("k", [4, 5, 7, 8])
def test_census_counts_both_ends_of_torus_windows_between_bs_labels(models, k):
    # a BS label away from 0 lifts into the elements with a rounding that
    # the flux carries into the action (r is -1.2e-14 at -26 pi / 7 for
    # k = 7, where |U| is 2 pi): the location rule weighs r against it too
    exm = models("torus", k=k)
    pol = exm.polarization()
    for j in range(-2 * k, 2 * k + 1):
        lo, hi = TWO_PI * j / k, TWO_PI * (j + 1) / k
        for crange in ((lo, hi), (-hi, -lo)):
            rep = bs_census(exm.cover, pol, crange, 2)
            assert rep.q_bs == 2, crange
            assert np.allclose(rep.bs_locations, crange)


@pytest.mark.parametrize(
    "argv",
    [
        ("cylinder", "--range", "1:2"),
        ("torus", "--k", "2", "--range", "0:1"),
        ("sphere", "--k", "3", "--range", "1:2"),
        ("sphere", "--k", "3", "--range", "0.5:2.5"),
    ],
)
def test_a_single_sample_window_wider_than_one_label_is_refused(capsys, argv):
    # one sample cannot tell how many BS labels such a window holds
    assert main(["bs", "--example", *argv, "--count", "1"]) == 2
    lo, hi = map(float, argv[-1].split(":"))
    assert f"range {lo}:{hi} needs count >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, params, c, q_bs",
    [
        ("cylinder", {}, 1.0, 1),
        ("torus", {"k": 2}, 0.0, 1),
        ("sphere", {"k": 3}, 1.0, 3),  # two poles and label 1
    ],
)
def test_a_single_sample_window_counts_its_sample(models, name, params, c, q_bs):
    exm = models(name, **params)
    rep = bs_census(exm.cover, exm.polarization(), (c, c), 1)
    assert rep.q_bs == q_bs and rep.bs_locations == (c,)


def test_a_single_sample_torus_period_counts_k_leaves(capsys):
    argv = ["bs", "--example", "torus", "--k", "2", "--range", f"0:{TWO_PI!r}",
            "--count", "1", "--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["payload"]["census"]["q_bs"] == 2


@pytest.mark.parametrize("k", range(2, 7))
def test_census_locations_on_the_sphere(models, k):
    exm = models("sphere", k=k)
    for crange in ((0.3, k - 0.25), (0.45, k - 0.6)):
        census = _counted_census(exm.cover, exm.polarization(), crange, 4 * k + 9)
        rep, _ = _assert_located(census, list(range(1, k)))
        assert rep.q_bs_singular == 2


def test_census_minus_one_crossing_gives_no_location(models):
    # the torus k=1 holonomy exp(-i c) is -1 at c = pi, the only crossing of
    # the real axis; the action crosses no multiple of 2 pi, so no bracket
    exm = models("torus", k=1)
    rep, counts = _counted_census(exm.cover, exm.polarization(), (2.5, 3.8), 9)
    assert counts["root_brackets"] == 0 and counts["root_holonomy_evaluations"] == 0
    assert rep.bs_locations == () and rep.q_bs == 0


def test_census_computes_each_holonomy_once(models, monkeypatch):
    # every batch, the sampled one that holonomy takes and the root steps,
    # passes through leaf_actions
    calls = []
    real = bohr.leaf_actions

    def counting(transport, leaves):
        calls.extend(leaves.labels.tolist())
        return real(transport, leaves)

    monkeypatch.setattr(bohr, "leaf_actions", counting)
    exm = models("torus", k=3)
    rep, counts = _counted_census(exm.cover, exm.polarization(), (0.05, 6.3332), 33)
    assert rep.q_bs == 3 and counts["census_refinements"] == 0
    # every label a search evaluates is read
    assert len(calls) == len(rep.entries) + counts["root_holonomy_evaluations"]
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("k", range(1, 9))
def test_census_steps_add_up_to_the_volume(models, monkeypatch, k):
    # over one label period the unwrapped action steps by the integral of
    # omega over the torus, 2 pi k, whatever the sampling: the unwrapping
    # the census settles on, that of its last _branches call, changes by it
    # between the first sample and the first one a period on
    settled = []
    real = bohr._branches

    def recording(rows):
        branches, missed = real(rows)
        settled.append((rows, branches))
        return branches, missed

    monkeypatch.setattr(bohr, "_branches", recording)
    exm = models("torus", k=k)
    pol = exm.polarization()
    for crange, count in (((0.0, TWO_PI), 24), ((0.4, 0.4 + TWO_PI), 33),
                          ((-1.9, TWO_PI - 1.9), 10), ((0.0, TWO_PI), 3)):
        rep = bs_census(exm.cover, pol, crange, count)
        rows, branches = settled[-1]
        change = rows[-1, 1] - rows[0, 1] + TWO_PI * branches[-1]
        assert abs(change - TWO_PI * k) <= 1e-9, (crange, count)
        assert rep.q_bs_smooth == k, (crange, count)


@pytest.mark.parametrize("count", [10, 3])
def test_coarse_counts_find_every_bs_leaf(models, count):
    # the phase steps by 1.6 pi (count 10) or 16 pi / 3 (count 3) between
    # samples, yet the flux puts each step on its branch: no refinement
    exm = models("torus", k=8)
    census = _counted_census(exm.cover, exm.polarization(), exm.census_range, count)
    rep, counts = _assert_located(census, [TWO_PI * m / 8 for m in range(8)])
    assert rep.q_bs == 8 and counts["census_refinements"] == 0


def test_a_flux_the_steps_disagree_with_exits_1(capsys, monkeypatch):
    # a flux three times too large misses the action steps of the coarse
    # Chern-8 census by more than pi/2 at every refinement round
    real = LeafTransport.flux
    monkeypatch.setattr(LeafTransport, "flux", lambda self, labels: 3.0 * real(self, labels))
    argv = ["bs", "--example", "torus", "--k", "8", "--count", "3"]
    assert main(argv + ["--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    message = report["payload"]["census"]["unresolved"]
    assert "between labels 0.0 and 0.13" in message
    assert f"after {bohr.REFINE_ROUNDS} refinement rounds" in message
    # the report counts the work done before the census gave up
    counters = report["timing"]["counters"]
    assert counters["census_refinements"] == bohr.REFINE_ROUNDS
    assert counters["transport_integrals"] > 0
    assert main(argv) == 1
    assert capsys.readouterr().out.startswith("census unresolved: the leaf action between")
    # theorem 2 runs two censuses: it fails with the census's reason
    argv = ["act", "--example", "torus", "--k", "8", "--map", "translate:pi,0",
            "--verify", "thm2", "--count", "3", "--json"]
    assert main(argv) == 1
    thm2 = json.loads(capsys.readouterr().out)["payload"]["thm2"]
    assert thm2["status"] == "census-unresolved" and thm2["pass"] is False
    # with the same flux, a finer census resolves its steps in a few rounds
    exm = catalog.example("torus", k=8)
    _, counts = _counted_census(exm.cover, exm.polarization(), exm.census_range, 24)
    assert 0 < counts["census_refinements"] <= bohr.REFINE_ROUNDS


# ---------------------------------------------------------------------------
# Batched census: prefetched transport and root solving in shared batches


def _bracket_cases(seed: int) -> tuple:
    """Disjoint brackets (a, fa, b, fb), a < b, of a piecewise function f:
    smooth, steep, flat, exact-zero, zero-at-an-end and wrap-around cases,
    one per unit-10 cell of the label line."""
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
            r = base + 0.5 + (r - base - 3.0) / 8.0  # [r, r + P] inside the cell
            g = lambda x, k=k, r=r: math.sin(k * (x - r))
            # samples a little below the zero at r + P and a little above
            # the zero at r, as a window [r, r + P) closes
            c_last, c_first = r + period - 0.1 * w0, r + 0.1 * w1
            shapes.append(g)
            brackets.append((c_last, g(c_last), c_first + period, g(c_first)))
            continue
        shapes.append(g)
        a, b = r - w0, r + w1
        brackets.append((a, g(a), b, g(b)))

    def f(x: float) -> float:
        return shapes[int(x // 10.0)](x)

    return brackets, f


def _batched(brackets, f) -> tuple:
    """bohr._crossings on brackets (a, fa, b, fb) in distinct unit-10 cells
    of the label line: (roots, batches), a batch being the labels it asked
    for by cell, in the order asked."""
    batches = []

    def actions_at(labels):
        batch = {}
        for c in labels:
            batch.setdefault(int(c // 10.0), []).append(c)
        batches.append(batch)
        return [f(c) for c in labels]

    return bohr._crossings(brackets, actions_at), batches


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_brackets_take_the_steps_they_take_alone(seed):
    brackets, f = _bracket_cases(seed)
    alone = [_root(f, *bracket) for bracket in brackets]
    roots, batches = _batched(brackets, f)
    assert roots == [root for root, _ in alone]
    # batch j holds batch j of every bracket still open
    for cell, (_, steps) in enumerate(alone):
        assert [batch[cell] for batch in batches if cell in batch] == steps
    sizes = [len(batch) for batch in batches]
    assert len(batches) == max(len(steps) for _, steps in alone)
    assert sizes == sorted(sizes, reverse=True)
    # the first batch asks for two labels a bracket, PROBE either side of
    # one point; a bisection after it asks for one
    for cell, labels in batches[0].items():
        a, _, b, _ = brackets[cell]
        assert len(labels) <= 2 and all(a < c < b for c in labels)
        assert labels[-1] - labels[0] <= bohr.CROSSING_XTOL
    assert all(len(labels) == 1 for batch in batches[1:] for labels in batch.values())
    # every root is within 1e-12 of a sign change of f, within bisection's
    # bound on the labels
    for root, (a, _, b, _), (_, steps) in zip(roots, brackets, alone):
        assert f(root - 1e-12) * f(root + 1e-12) <= 0.0
        assert sum(map(len, steps)) <= _most_labels(a, b)
    finished = [len(steps) for _, steps in alone]
    assert 1 in finished and max(finished) > 1


def test_lockstep_asks_no_probe_outside_the_bracket():
    # crossings within 1e-12 of a bracket end: the secant estimate is the
    # crossing, and a label PROBE past the end is never asked for
    brackets, shapes, crossings = [], [], []
    offsets = [0.0, 0.3e-13, 1e-13, 2.5e-13, 4.9e-13, 5e-13, 5.1e-13, 7e-13, 1e-12]
    for i, d in enumerate(offsets * 4):
        lo, hi = 10.0 * i + 1.0, 10.0 * i + 2.0
        r = hi - d if i % 2 else lo + d
        slope = (0.3, -0.3, 2.0, -2.0)[i // len(offsets)]
        g = lambda x, r=r, slope=slope: slope * (x - r)
        shapes.append(g)
        crossings.append(r)
        brackets.append((lo, g(lo), hi, g(hi)))

    def f(x):
        return shapes[int(x // 10.0)](x)

    roots, batches = _batched(brackets, f)
    assert len(batches) == 1  # a linear action closes every bracket at once
    assert np.max(np.abs(np.array(roots) - crossings)) <= 1e-12
    skipped = 0
    for cell, labels in batches[0].items():
        lo, _, hi, _ = brackets[cell]
        assert all(lo < c < hi for c in labels)
        skipped += len(labels) < 2
    assert skipped > 0  # the case arose


@pytest.mark.parametrize(
    "start,turn,sign",
    [
        (0.7, -1.3, 1.0),  # 0.7 pi down through 0 to -0.55 pi: +1
        (0.45, 1.2, -1.0),  # 0.45 pi up through pi to 1.7 pi: -1
        (-0.9, 1.75, 1.0),  # -0.9 pi up through 0 to 0.9 pi: +1
    ],
)
def test_crossing_search_when_the_phase_takes_the_long_way_round(start, turn, sign):
    # the action steps by more than pi across the bracket and is not linear,
    # so the secant estimate misses and bisection continues; sent the action
    # less its target on the principal branch, the search still returns the
    # crossing of the action itself
    def action(c):
        return math.pi * (start + turn * c + 0.05 * c * c)

    target = 0.0 if sign > 0 else math.pi  # the holonomy is +1 or -1 there

    def f(c):
        return math.remainder(action(c) - target, TWO_PI)

    u0, u1 = action(0.0) - target, action(1.0) - target
    root, steps = _root(f, 0.0, u0, 1.0, u1)
    # action(c) = target: 0.05 c^2 + turn c + start - target / pi = 0
    q = start - target / math.pi
    want = 2.0 * q / (-turn - math.copysign(math.sqrt(turn * turn - 0.2 * q), turn))
    assert 0.0 < want < 1.0 and abs(root - want) <= 1e-12
    assert math.copysign(1.0, math.cos(action(root))) == sign
    assert 1 < len(steps) and sum(map(len, steps)) <= _most_labels(0.0, 1.0)


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
    comp = build_complementary(phi, sph)
    pushed = pushforward_polarization(phi, sph.polarization())
    cases.append(("sphere-3-rot:1", comp.base, pushed, (0.3, 2.75), 21))
    return cases


def test_census_holonomies_equal_fresh_transport_bit_for_bit(models, monkeypatch):
    # every holonomy of a census, sampled, and every action, sampled or
    # root-solved, equals a per-leaf holonomy with a fresh transport exactly
    seen, acted = [], []
    real, real_actions = bohr.holonomy, bohr.leaf_actions

    def recording(transport, leaves):
        actions, hols = real(transport, leaves)
        seen.extend(
            (transport.cover, transport.polarization, leaf, action, hol)
            for leaf, action, hol in zip(_each(leaves), actions, hols)
        )
        return actions, hols

    def recording_actions(transport, leaves):
        got = real_actions(transport, leaves)
        acted.extend((transport.cover, transport.polarization, leaf, action)
                     for leaf, action in zip(_each(leaves), got[0].tolist()))
        return got

    monkeypatch.setattr(bohr, "holonomy", recording)
    monkeypatch.setattr(bohr, "leaf_actions", recording_actions)
    for name, cover, pol, crange, count in _census_cases(models):
        seen.clear()
        acted.clear()
        _, counts = _counted_census(cover, pol, crange, count)
        assert counts["root_holonomy_evaluations"] > 0 or name.startswith("disk"), name
        assert counts["transport_batches"] < counts["transport_integrals"], name
        assert len(acted) == len(seen) + counts["root_holonomy_evaluations"], name
        # the fresh batches below pass through the recorders too
        census_seen, census_acted = list(seen), list(acted)
        for cover_, pol_, one, action, hol in census_seen:
            fresh = real(LeafTransport(cover_, pol_), one)
            assert _same_bits(fresh, (action, hol)), (name, one.labels[0])
        for cover_, pol_, one, action in census_acted:
            fresh = real(LeafTransport(cover_, pol_), one)[0].tolist()
            assert [_bits(a) for a in fresh] == [_bits(action)], (name, one.labels[0])


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
    # the action labels of a census less its sampled circle leaves are the
    # root-solving evaluations it reports
    calls = []
    batches = []  # those that read actions alone
    holonomies = []
    real, real_actions = bohr.holonomy, bohr.leaf_actions

    def counting(transport, leaves):
        calls.extend(leaves.labels.tolist())
        if len(holonomies) == 1:  # after the sampled batch
            batches.append(len(leaves.labels))
        return real_actions(transport, leaves)

    def counting_holonomies(transport, leaves):
        got = real(transport, leaves)
        holonomies.append(len(leaves.labels))
        return got

    monkeypatch.setattr(bohr, "leaf_actions", counting)
    monkeypatch.setattr(bohr, "holonomy", counting_holonomies)
    exm = models(name, **params)
    rep, counts = _counted_census(exm.cover, exm.polarization(), crange, count,
                                  include_lines=include_lines)
    sampled = sum(1 for e in rep.entries if e.leaf.topology == "circle")
    assert counts["census_refinements"] == 0
    assert len(calls) - sampled == counts["root_holonomy_evaluations"]
    # one batch of sampled leaves, the census's only holonomy batch, then
    # one per batch of the crossing searches
    assert holonomies == [sampled]
    assert len(batches) == counts["root_steps"]


@pytest.mark.parametrize(
    "name,params,crange,count,flux",
    [
        ("torus", {"k": 3}, (0.05, 6.3332), 33, 1.0),  # wrap bracket
        ("sphere", {"k": 4}, (0.3, 3.75), 25, 1.0),  # point leaves
        ("torus", {"k": 8}, (0.0, TWO_PI), 24, 3.0),  # refinement rounds
    ],
)
def test_census_builds_no_per_row_record(models, monkeypatch, name, params, crange, count,
                                         flux):
    # the census, its root searches and its refinement rounds keep the
    # sampled leaves as the holonomy batch's arrays: no Leaf or Entry is
    # built until a reader asks for the report's entries
    made = {"Leaf": 0, "Entry": 0}
    for cls_name in made:
        real = getattr(bohr, cls_name)

        def __new__(cls, *args, _real=real, _name=cls_name, **kwargs):
            made[_name] += 1
            return _real.__new__(cls, *args, **kwargs)

        monkeypatch.setattr(bohr, cls_name, type(cls_name, (real,), {"__new__": __new__}))
    real_flux = LeafTransport.flux
    monkeypatch.setattr(LeafTransport, "flux", lambda self, cs: flux * real_flux(self, cs))
    exm = models(name, **params)
    rep, counts = _counted_census(exm.cover, exm.polarization(), crange, count)
    assert (counts["census_refinements"] > 0) == (flux != 1.0)
    assert counts["root_holonomy_evaluations"] > 0 or counts["census_refinements"] > 0
    assert made == {"Leaf": 0, "Entry": 0}
    # the sampled leaves are columns; the rest of the report holds no record
    columns = (rep.labels, rep.actions, rep.holonomies, rep.is_bs)
    assert all(type(c) is np.ndarray and c.shape == (count,) for c in columns)
    # each sample's verdict reaches its own row, past the refinement midpoints
    assert rep.is_bs.tolist() == [c in rep.bs_locations for c in rep.labels.tolist()]
    assert rep.lines == () and len(rep.points) == rep.q_bs_singular
    for field in rep[len(columns):]:
        assert isinstance(field, (int, float, tuple)) and not hasattr(field, "_fields")
    # one Leaf and one Entry per report row, on read
    rows = len(rep.entries)
    assert rows == count + len(rep.points) and made == {"Leaf": rows, "Entry": rows}


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


def _one_per_leaf_by_scan(locations: list, period) -> tuple:
    """The reference of bohr._one_per_leaf: every location in label order,
    kept unless it is one leaf with a location kept before it."""

    def same_leaf(c, u):
        gap = math.remainder(c - u, period) if period else c - u
        return abs(gap) < bohr._label_slack(c, u)

    kept = []
    for c in sorted(locations):
        if not any(same_leaf(c, u) for u in kept):
            kept.append(c)
    return tuple(kept)


@pytest.mark.parametrize("seed", range(12))
def test_one_location_per_leaf_keeps_what_the_scan_keeps(seed):
    # leaves well apart, each located 1-3 times, shifted by whole periods
    # (on a periodic label) and jittered within the label slack; a leaf at
    # offset 0 has copies on both sides of the period's end
    rng = np.random.default_rng(seed)
    for period in (TWO_PI, None):
        base = float(rng.choice([0.0, -50.0, 1e3, 1e6]))
        width = period or 40.0
        offsets = width / 500 * np.sort(rng.choice(500, size=rng.integers(1, 30), replace=False))
        locations = []
        for offset in offsets.tolist():
            for _ in range(rng.integers(1, 4)):
                c = base + offset + (rng.integers(-2, 3) * period if period else 0.0)
                locations.append(c + rng.uniform(-0.25, 0.25) * bohr._label_slack(c, c))
        rng.shuffle(locations)
        want = _one_per_leaf_by_scan(locations, period)
        assert len(want) == len(offsets)
        assert bohr._one_per_leaf(locations, period) == want


def test_census_of_a_torus_of_many_leaves_locates_each_once(models):
    k = 2000
    exm = models("torus", k=k)
    rep = bs_census(exm.cover, exm.polarization(), exm.census_range, 5)
    assert rep.q_bs == k
    assert np.allclose(rep.bs_locations, TWO_PI * np.arange(k) / k, atol=1e-8, rtol=0)


# ---------------------------------------------------------------------------
# Leaf atlas and batched holonomy, against per-label references


class RefLeaf(NamedTuple):
    """One leaf threaded on its own: segments (element, t0, t1, lifted
    label) in leaf order and switch points, entry j joining segments j and
    j + 1."""

    label: float
    topology: str
    segments: tuple
    switch_points: np.ndarray


def _reference_candidates(cover, pol, c):
    """(element, t0, t1, lifted label) per element the leaf c crosses."""
    out = []
    if pol.kind == "radial":
        for a, box in enumerate(cover.elements):
            half = min(box.hi[0], box.hi[1], -box.lo[0], -box.lo[1])
            if 0.0 < c < 0.5 * half * half:
                out.append((a, 0.0, TWO_PI, c))
        return out
    la, ta = pol.label_axis, pol.leaf_axis
    period_label = cover.manifold.periods[la]
    for a, box in enumerate(cover.elements):
        lo, hi = box.interval(la)
        c_lift = c
        if period_label is not None:
            mid = 0.5 * (lo + hi)
            c_lift = c + period_label * round((mid - c) / period_label)
        if lo + 1e-9 < c_lift < hi - 1e-9:
            t0, t1 = box.interval(ta)
            out.append((a, t0, t1, c_lift))
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
            return RefLeaf(c, "circle", ((idx, start, start + period, c_elem),),
                           np.empty((0, 2)))
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
        segments.append((idx, u_prev + off, u_next + off, c_elem))
        u_prev = u_next
    pts = pol.curve_points(c, np.array(switches))
    if phi is not None:
        pts = phi.apply_inverse(pts)
    return RefLeaf(c, "circle", tuple(segments), cover.manifold.reduce(pts))


def _source(cover, pulled):
    """The cover a pullback cover was pulled back from, or the cover;
    pulled is (source cover, map), or None for a cover of no map."""
    return cover if pulled is None else pulled[0]


def _reference_leaf(cover, pol, c, pulled=None):
    """The circle leaf through c threaded per label; on a pullback cover,
    pulled = (source cover, map), threaded on the source, with its switch
    points moved through phi^{-1}."""
    if pulled is None:
        return _reference_circle(cover, pol, c)
    source, phi = pulled
    return _reference_circle(source, pol.base, c, phi)


def _bits(x) -> str:
    return float(x).hex()


def _same_bits(got, want) -> bool:
    """Whether an (action, holonomy) pair of arrays of one label holds
    the bits of a scalar pair."""
    (action,), (hol,) = (v.tolist() for v in got)
    return [_bits(v) for v in (action, hol.real, hol.imag)] == [
        _bits(v) for v in (want[0], want[1].real, want[1].imag)
    ]


def _one(leaves, i):
    """Leaf i of a batch as a batch of its own."""
    k_end, s_end = leaves.k[: i + 1].sum(), leaves.s[: i + 1].sum()
    seg = slice(k_end - leaves.k[i], k_end)
    return bohr.Leaves(leaves.labels[i : i + 1], leaves.k[i : i + 1], leaves.s[i : i + 1],
                       leaves.elements[seg], leaves.t0[seg], leaves.t1[seg], leaves.lifted[seg],
                       leaves.switch_points[s_end - leaves.s[i] : s_end],
                       leaves.switch_pairs[s_end - leaves.s[i] : s_end])


def _each(leaves) -> list:
    """The leaves of a batch, each a batch of its own, in label order."""
    return [_one(leaves, i) for i in range(len(leaves.labels))]


def _assert_same_leaf(leaf, topology, want):
    """A one-leaf batch of the given topology is the leaf want."""
    assert [_bits(c) for c in leaf.labels.tolist()] == [_bits(want.label)]
    assert topology == want.topology
    assert leaf.k.tolist() == [len(want.segments)]
    assert leaf.s.tolist() == [len(want.switch_points)]
    for j, r in enumerate(want.segments):
        assert leaf.elements[j] == r[0]
        got = (leaf.t0[j], leaf.t1[j], leaf.lifted[j])
        assert [_bits(v) for v in got] == [_bits(v) for v in r[1:]]
    got = leaf.switch_points
    assert got.shape == want.switch_points.shape
    assert got.dtype == want.switch_points.dtype
    assert got.tobytes() == want.switch_points.tobytes()


def _assert_same_leaves(leaves, labels, topology, want):
    """A batch of labels holds every label once, in their order, each the
    leaf want[label], and its flat columns hold its leaves and no more."""
    assert len(leaves.labels) == len(labels)
    assert len(leaves.elements) == len(leaves.t0) == len(leaves.t1) == len(leaves.lifted)
    assert len(leaves.elements) == leaves.k.sum() and len(leaves.switch_points) == leaves.s.sum()
    for leaf, c in zip(_each(leaves), labels):
        _assert_same_leaf(leaf, topology, want[c])


def _atlas_cases(models):
    """(name, cover, polarization, labels, pulled) on every model with
    circle leaves, and pullbacks: census-range labels, labels within 1e-9
    of the elements' label edges, and on the torus labels shifted by a
    period; pulled is (source cover, map) on a pullback cover, else
    None."""
    cases = []

    def labels_for(cover, pol, lo, hi, periodic):
        labels = list(np.linspace(lo, hi, 13))
        root = pol.root
        if root.kind == "radial":
            for b in cover.elements:
                half = min(b.hi[0], b.hi[1], -b.lo[0], -b.lo[1])
                edge = 0.5 * half * half
                labels += [edge - 5e-10, edge - 2e-9, edge + 5e-10]
        else:
            for box in cover.elements:
                for edge in box.interval(root.label_axis):
                    labels += [edge + d for d in (-2e-9, -9e-10, -5e-10, 0.0,
                                                  5e-10, 9e-10, 1.1e-9, 2e-9)]
        if periodic:
            labels += [c + TWO_PI for c in labels[:13]] + [c - TWO_PI for c in labels[:5]]
        return labels

    for k in range(1, 9):
        exm = models("torus", k=k)
        pol = exm.polarization()
        cases.append((f"torus-{k}", exm.cover, pol,
                      labels_for(exm.cover, pol, 0.0, TWO_PI, True), None))
    for name, params in [("cylinder", {}), ("disk", {})] + [
        ("sphere", {"k": k}) for k in range(2, 7)
    ]:
        exm = models(name, **params)
        pol = exm.polarization()
        lo, hi = exm.census_range
        cases.append((name + str(params.get("k", "")), exm.cover, pol,
                      labels_for(exm.cover, pol, lo, hi, False), None))
    for name, params, spec in [
        ("sphere", {"k": 3}, "rot:1"),
        ("cylinder", {}, "pshift:1"),
        ("torus", {"k": 2}, "translate:pi,0"),
    ]:
        exm = models(name, **params)
        phi = catalog.make_map(exm, spec)
        comp = build_complementary(phi, exm)
        pushed = pushforward_polarization(phi, exm.polarization())
        lo, hi = exm.census_range
        cases.append((f"{name}-{spec}", comp.base, pushed,
                      labels_for(exm.cover, pushed, lo, hi, name == "torus"),
                      (exm.cover, phi)))
    return cases


def test_atlas_leaves_equal_per_label_threading(models, monkeypatch):
    threaded = []
    real_circle = bohr._thread_circle
    monkeypatch.setattr(bohr, "_thread_circle",
                        lambda *a: threaded.append(a) or real_circle(*a))
    for name, cover, pol, labels, pulled in _atlas_cases(models):
        want, failing = {}, {}
        for c in labels:
            try:
                want[c] = _reference_leaf(cover, pol, c, pulled)
            except CoverageError as exc:
                failing[c] = str(exc)
        good = [c for c in labels if c in want]
        assert len(good) > 13, name
        threaded.clear()
        with trace.counting() as counts:
            atlas = bohr.LeafAtlas(cover, pol)
            _assert_same_leaves(atlas.leaves(good), good, "circle", want)
        # one threading per membership pattern, and none on a second pass
        src, root = _source(cover, pulled), pol.root
        patterns = {
            frozenset(r[0] for r in _reference_candidates(src, root, c)) for c in good
        }
        assert counts["leaf_patterns"] == len(threaded) == len(patterns), name
        with trace.counting() as again:
            _assert_same_leaves(atlas.leaves(good[::-1]), good[::-1], "circle", want)
        assert again == {} and len(threaded) == len(patterns), name
        for c, message in failing.items():
            with pytest.raises(CoverageError) as exc:
                atlas.leaves([good[0], c, good[-1]])
            assert str(exc.value) == message, name


def test_atlas_names_a_label_that_crosses_no_element(models):
    exm = models("cylinder")  # labels lie within 3.5 + pad
    atlas = bohr.LeafAtlas(exm.cover, exm.polarization())
    with pytest.raises(CoverageError, match=r"^leaf 9\.0 crosses no cover element$"):
        atlas.leaves([0.5, 9.0, 1.0, -9.5])
    # line leaves, which are not threaded, are named alike: the first label
    # off the cover, in sample order
    exm = models("plane", granularity=2)
    for pol in exm.polarizations.values():
        atlas = LeafAtlas(exm.cover, pol)
        with pytest.raises(CoverageError, match=r"^leaf 5\.0 crosses no cover element$"):
            enumerate_leaves(atlas, (3.0, 7.0), 3)
        atlas.check_crossing([-4.3, 0.0, 4.3])
        with pytest.raises(CoverageError, match=r"^leaf -4\.5 crosses no cover element$"):
            atlas.check_crossing([0.0, -4.5, 9.0])


def test_atlas_leaves_of_no_labels_are_empty_columns(models):
    # an empty batch on circle and on line leaves alike, as a line census
    # takes: every column empty, and holonomy gives empty arrays without
    # asking whether leaves close
    for name, params in (("torus", {"k": 3}), ("plane", {})):
        exm = models(name, **params)
        pol = exm.polarization()
        leaves = LeafAtlas(exm.cover, pol).leaves([])
        assert [col.shape for col in leaves] == [(0,)] * 7 + [(0, 2)] * 2, name
        assert [col.dtype.kind for col in leaves] == list("fiiiffffi"), name
        transport = LeafTransport(exm.cover, pol)
        actions, hols = holonomy(transport, leaves)
        assert actions.shape == hols.shape == (0,) and hols.dtype == np.complex128, name


@pytest.mark.parametrize("name,params", [("sphere", {"k": 3}), ("disk", {})])
def test_batch_with_no_switch_points(models, name, params):
    # one element holds each leaf whole: one segment a leaf, no switch
    # point and no transition in the batch, and each holonomy is its leaf's
    exm = models(name, **params)
    pol = exm.polarization()
    labels = np.linspace(*exm.census_range, 9)
    leaves = LeafAtlas(exm.cover, pol).leaves(labels)
    assert leaves.k.tolist() == [1] * 9 and leaves.s.tolist() == [0] * 9
    assert leaves.switch_points.shape == leaves.switch_pairs.shape == (0, 2)
    transport = LeafTransport(exm.cover, pol)
    with trace.counting() as counts:
        actions, hols = holonomy(transport, leaves)
    assert counts.get("formula_runs", 0) == 0
    for c, one, action, hol in zip(labels.tolist(), _each(leaves), actions.tolist(),
                                   hols.tolist()):
        want = _reference_holonomy(exm.cover, pol, _reference_leaf(exm.cover, pol, c),
                                   transport)
        assert _same_result(HolonomyResult.of(hol, action), want), c
        assert _same_bits(holonomy(transport, one), (want.action, want.holonomy)), c


def _joined(*batches):
    """Batches of leaves as one batch, leaf after leaf."""
    return bohr.Leaves(*(np.concatenate(cols) for cols in zip(*batches)))


def test_holonomy_of_a_batch_mixing_leaves_with_and_without_switch_points(models):
    # no builtin circle cover mixes the two, so a leaf of the torus joins
    # one taken a whole period in its first segment's trivialization: its
    # factor alone, no switch; each leaf of the mixed batch is its own
    # batch.  The gauge makes every transition at a switch point differ
    # from 1, so a switch read from the wrong segments shows
    exm = models("torus", k=3)
    cover, pol = _gauged(exm.cover), exm.polarization()
    transport = LeafTransport(cover, pol)
    leaves = LeafAtlas(cover, pol).leaves([0.7, 2.9])
    first = _one(leaves, 0)
    whole = first._replace(k=np.array([1]), s=np.array([0]), elements=first.elements[:1],
                           t0=first.t0[:1], t1=first.t0[:1] + TWO_PI,
                           lifted=first.lifted[:1], switch_points=np.zeros((0, 2)),
                           switch_pairs=np.zeros((0, 2), dtype=int))
    batch = _joined(whole, first, whole, _one(leaves, 1), whole)
    assert batch.s.tolist() == [0, 3, 0, 3, 0]
    assert list(map(tuple, batch.switch_pairs.tolist())) == _pairs_of_segments(batch)
    actions, hols = holonomy(transport, batch)
    for i, one in enumerate(_each(batch)):
        assert _same_bits(holonomy(transport, one), (actions[i], hols[i])), i


@pytest.mark.parametrize("name,params", [("torus", {"k": 3}), ("cylinder", {}),
                                         ("sphere", {"k": 4})])
def test_labels_in_any_order_come_back_in_that_order(models, name, params):
    # a batch keeps the order of its labels, repeats included, and each
    # action and holonomy is bit for bit that of the sorted batch
    exm = models(name, **params)
    pol = exm.polarization()
    atlas, transport = LeafAtlas(exm.cover, pol), LeafTransport(exm.cover, pol)
    labels = np.linspace(*exm.census_range, 17)
    actions, hols = holonomy(transport, atlas.leaves(labels))
    for order in (np.arange(17)[::-1], np.random.default_rng(7).permutation(17),
                  np.array([4, 0, 16, 4, 9, 0, 3])):
        leaves = atlas.leaves(labels[order])
        assert leaves.labels.tobytes() == labels[order].tobytes()
        got = holonomy(transport, leaves)
        assert got[0].tobytes() == actions[order].tobytes()
        assert got[1].tobytes() == hols[order].tobytes()


def _reference_holonomy(cover, pol, leaf, transport):
    """The holonomy of one leaf as a product of scalars, one one-entry
    integral and one single-point transition call at a time."""
    action, hol = 0.0, 1.0 + 0.0j
    for element, t0, t1, c_elem in leaf.segments:
        val = complex(transport.integral([element], [t0], [t1], [c_elem])[0])
        action += val.real
        hol *= np.exp(-1j * val)
    nseg = len(leaf.segments)
    for j in range(len(leaf.switch_points)):
        a = leaf.segments[j][0]
        b = leaf.segments[(j + 1) % nseg][0]
        lam = cover.transition(a, b, leaf.switch_points[j])[0]
        hol *= lam
        action -= math.atan2(lam.imag, lam.real)
    return HolonomyResult.of(complex(hol), action)


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
    """(name, cover, polarization, label range, the ungauged pair, pulled)
    on gauged covers and on pullbacks of them; pulled is (source cover,
    map) on a pullback, else None."""
    cases = []
    for name, params, crange in [
        ("torus", {"k": 3}, (0.0, TWO_PI)),
        ("torus", {"k": 8}, (0.0, TWO_PI)),
        ("cylinder", {}, (-2.5, 2.5)),
        ("sphere", {"k": 4}, (0.3, 3.75)),
    ]:
        exm = models(name, **params)
        pol = exm.polarization()
        cases.append((name, _gauged(exm.cover), pol, crange, (exm.cover, pol), None))
    for name, params, spec, crange in [
        ("sphere", {"k": 3}, "rot:1", (0.3, 2.75)),
        ("cylinder", {}, "pshift:1", (-2.5, 2.5)),
        ("torus", {"k": 2}, "translate:pi,0", (0.0, TWO_PI)),
    ]:
        exm = models(name, **params)
        phi = catalog.make_map(exm, spec)
        pushed = pushforward_polarization(phi, exm.polarization())
        gauged = _gauged(exm.cover)
        cases.append((f"{name}-{spec}", pullback(gauged, phi), pushed,
                      crange, (pullback(exm.cover, phi), pushed), (gauged, phi)))
    return cases


def test_bisections_of_a_holonomy_batch_are_counted_leaf_by_leaf(models):
    # the gauged sphere's leaves need bisections, the gauged torus's and
    # cylinder's do not; a batch counts what its leaves count one by one
    bisected = set()
    for name, cover, pol, crange, *_ in _gauged_cases(models):
        _, leaves, _ = enumerate_leaves(LeafAtlas(cover, pol), crange, 12)
        transport = LeafTransport(cover, pol)
        with trace.counting() as batch:
            holonomy(transport, leaves)
        with trace.counting() as one_by_one:
            for one in _each(leaves):
                holonomy(transport, one)
        assert batch["quadrature_bisections"] == one_by_one["quadrature_bisections"], name
        if batch["quadrature_bisections"]:
            bisected.add(name)
    assert bisected == {"sphere", "sphere-rot:1"}


def test_batched_holonomy_equals_the_per_leaf_product_bit_for_bit(models):
    # each leaf of a batch is, bit for bit, the leaf as a batch of its own,
    # and its action is the scalar loop's; its holonomy, exp(-i action)
    # times its modulus, is the scalar product of its factors to within
    # the rounding of an action that size, 8 eps (1 + |action|)
    cases = [
        (name, cover, pol, (labels[0], labels[12]), None, pulled)
        for name, cover, pol, labels, pulled in _atlas_cases(models)
    ] + _gauged_cases(models)
    switches = gauged_switches = 0
    worst = 0.0  # the largest holonomy difference, in units of the bound's eps (1 + |action|)
    for name, cover, pol, crange, plain, pulled in cases:
        labels, leaves, _ = enumerate_leaves(LeafAtlas(cover, pol), crange, 60)
        transport = LeafTransport(cover, pol)
        with trace.counting() as counts:
            actions, hols = holonomy(transport, leaves)
        for c, one, action, hol in zip(labels.tolist(), _each(leaves), actions.tolist(),
                                       hols.tolist()):
            leaf = _reference_leaf(cover, pol, c, pulled)
            want = _reference_holonomy(cover, pol, leaf, transport)
            assert _bits(action) == _bits(want.action), (name, c)
            worst = max(worst, abs(hol - want.holonomy) / (EPS * (1.0 + abs(action))))
            assert _same_bits(holonomy(transport, one), (action, hol)), (name, c)
        pairs = {
            (one.elements[j], one.elements[(j + 1) % len(one.elements)])
            for one in _each(leaves) for j in range(len(one.switch_points))
        }
        # one evaluator run per distinct transition formula among the pairs
        formulas = {cover.data.transition_expr(a, b) for a, b in pairs if a != b}
        assert counts.get("formula_runs", 0) == len(formulas), name
        switches += len(leaves.switch_points)
        if plain is not None:  # a change of gauge leaves every holonomy
            base = holonomy(
                LeafTransport(*plain), enumerate_leaves(LeafAtlas(*plain), crange, 60)[1]
            )[1]
            assert np.all(np.abs(hols - base) < 1e-10), name
            gauged_switches += len(leaves.switch_points)
    assert worst <= 8.0
    assert gauged_switches > 500 and switches > 2000


def _threaded(cover, pol, labels):
    """The leaves of the labels that thread on the cover."""
    atlas = LeafAtlas(cover, pol)

    def threads(c):
        try:
            atlas.leaves([c])
        except CoverageError:
            return False
        return True

    return atlas.leaves([c for c in labels if threads(c)])


def test_leaf_actions_equal_the_holonomy_actions_bit_for_bit(models):
    # on every builtin model, gauged cover and pullback: the batch, and each
    # leaf as a batch of its own, whose lone column np.add.reduce would sum
    # pairwise
    cases = [case[:4] for case in _atlas_cases(models)]
    cases += [(name, cover, pol, np.linspace(*crange, 41))
              for name, cover, pol, crange, *_ in _gauged_cases(models)]
    widest = 0
    for name, cover, pol, labels in cases:
        leaves = _threaded(cover, pol, labels)
        transport = LeafTransport(cover, pol)
        actions = holonomy(transport, leaves)[0]
        assert leaf_actions(transport, leaves)[0].tobytes() == actions.tobytes(), name
        for i, one in enumerate(_each(leaves)):
            got = leaf_actions(transport, one)[0]
            assert got.tobytes() == actions[i : i + 1].tobytes(), (name, one.labels[0])
        widest = max(widest, int((leaves.k + leaves.s).max()))
    # no builtin leaf takes 8 steps, where a pairwise sum starts to round
    # otherwise; gauged torus leaves cut into 8 to 23 uneven segments take
    # as many, and each action is the scalar loop's, alone and in a batch
    assert widest < 8
    exm = models("torus", k=3)
    cover, pol = _gauged(exm.cover), exm.polarization()
    transport = LeafTransport(cover, pol)
    rng = np.random.default_rng(5)
    for c in np.linspace(0.1, 6.1, 16):
        leaf = _one(LeafAtlas(cover, pol).leaves([c]), 0)
        k = rng.integers(8, 24)
        start = leaf.t0[0]
        t = np.concatenate([[start], start + np.sort(rng.uniform(0, TWO_PI, k - 1)),
                            [start + TWO_PI]])
        wide = leaf._replace(k=np.array([k]), s=np.array([0]),
                             elements=leaf.elements[:1].repeat(k), t0=t[:-1], t1=t[1:],
                             lifted=leaf.lifted[:1].repeat(k), switch_points=np.zeros((0, 2)),
                             switch_pairs=np.zeros((0, 2), dtype=int))
        acc = 0.0
        for x in transport.integral(wide.elements, wide.t0, wide.t1, wide.lifted).real.tolist():
            acc += x
        assert [_bits(a) for a in leaf_actions(transport, wide)[0].tolist()] == [_bits(acc)], c
        mixed = leaf_actions(transport, _joined(leaf, wide, leaf))[0].tolist()
        assert _bits(mixed[1]) == _bits(acc), c


def test_switch_pairs_join_the_segments_of_each_switch(models):
    # switch j of a leaf joins its segments j and j + 1, the last switch of
    # a circle leaf its last segment and its first
    for name, cover, pol, labels, _ in _atlas_cases(models):
        leaves = _threaded(cover, pol, labels)
        assert leaves.switch_pairs.dtype.kind == "i", name
        assert list(map(tuple, leaves.switch_pairs.tolist())) == _pairs_of_segments(leaves), name


@pytest.mark.parametrize(
    "name,params,crange,count,flux",
    [
        ("torus", {"k": 3}, (0.05, 6.3332), 33, 1.0),  # root steps
        ("sphere", {"k": 4}, (0.3, 3.75), 25, 1.0),
        ("torus", {"k": 8}, (0.0, TWO_PI), 24, 3.0),  # refinement rounds
    ],
)
def test_census_root_and_refinement_steps_form_no_complex_holonomy(
        models, monkeypatch, name, params, crange, count, flux):
    # the sampled batch is the census's one holonomy call, and the later
    # batches, refinement rounds and root steps, call leaf_actions only
    steps = []
    real, real_actions = bohr.holonomy, bohr.leaf_actions

    def holonomy_(transport, leaves):
        steps.append("holonomy")
        return real(transport, leaves)

    def leaf_actions_(transport, leaves):
        steps.append(len(leaves.labels))
        return real_actions(transport, leaves)

    monkeypatch.setattr(bohr, "holonomy", holonomy_)
    monkeypatch.setattr(bohr, "leaf_actions", leaf_actions_)
    real_flux = LeafTransport.flux
    monkeypatch.setattr(LeafTransport, "flux", lambda self, cs: flux * real_flux(self, cs))
    exm = models(name, **params)
    _, counts = _counted_census(exm.cover, exm.polarization(), crange, count)
    assert steps[:2] == ["holonomy", count]
    batches = steps[2:]
    assert all(type(n) is int for n in batches) and batches
    assert len(batches) == counts["root_steps"] + counts["census_refinements"]
    assert (counts["census_refinements"] > 0) == (flux != 1.0)


def test_an_integrand_that_does_not_read_t_is_evaluated_once_per_label(models, monkeypatch):
    # the run is bit for bit what the program gives at every node; an
    # integral of its segments evaluates it once per label, at the
    # segment's midpoint, if it does not read t, and at 15 nodes per
    # subinterval if it does
    cases = [(name, models(name, **params)) for name, params in
             [("torus", {"k": 3}), ("cylinder", {}), ("sphere", {"k": 4}), ("disk", {})]]
    cases = [(name, exm.cover, exm.polarization()) for name, exm in cases]
    cases += [(name, cover, pol) for name, cover, pol, *_ in _gauged_cases(models)]
    points = []  # the points of each evaluation of an integrand
    real = kernels.evaluate

    def counting(prog, values):
        points.append(len(values["c"]))
        return real(prog, values)

    rng = np.random.default_rng(3)
    along = set()
    for name, cover, pol in cases:
        transport = LeafTransport(cover, pol)
        (u, v), (x, y) = cover.manifold.coords, pol.curve
        for member, theta in cover.data.potentials.items():
            sub = {u: x, v: y}
            integrand = ex.add(ex.mul(ex.substitute(theta[0], sub), ex.differentiate(x, "t")),
                               ex.mul(ex.substitute(theta[1], sub), ex.differentiate(y, "t")))
            prog = program.compile_expr(integrand, ("c", "t"))
            cs, ts = rng.uniform(0.2, 1.9, 4), rng.uniform(-3.0, 3.0, (4, 15))
            run = transport.integrand(member)
            want = real(prog, {"c": np.repeat(cs, 15), "t": ts.ravel()})
            reads_t = "t" in free_vars(integrand)
            assert run.along == reads_t
            assert run(cs, ts).tobytes() == want.reshape(4, 15).tobytes()
            points.clear()
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "evaluate", counting)
                transport.integral([member] * 4, np.zeros(4), np.full(4, 0.5), cs)
            if reads_t:
                assert points and all(n % 60 == 0 for n in points), name
            else:
                assert points == [4], name
            along.add(reads_t)
    assert along == {True, False}
