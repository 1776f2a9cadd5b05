"""Complementary covers, the chain map, both theorems and their leaf pairing."""

import json
import math

import numpy as np
import pytest

from gqlab import action, catalog, cech, program, trace
from gqlab import expr as ex
from gqlab.action import (
    CocycleObstruction,
    InternalConsistencyError,
    ComplementaryCover,
    build_complementary,
    verify_theorem_1,
    verify_theorem_2,
)
from gqlab.bohr import (
    HolonomyUndefinedError,
    LeafAtlas,
    bs_census,
    enumerate_leaves,
    holonomy,
)
from gqlab.cech import TransversalGrid, half_offset_labels, psi
from gqlab.geometry import as_points, eval_at, pushforward_polarization
from gqlab.prequantum import ConfigurationError, TrivializationCover, check_local_data
from gqlab.quadrature import integrate
from gqlab.transport import LeafTransport

from cells import degree_cells, grid_delta, nerve_cells
from trees import free_vars

TWO_PI = 2.0 * math.pi


def test_identity_complementary_reproduces_original_data(models):
    exm = models("torus", k=2)
    phi = catalog.make_map(exm, "identity")
    comp = build_complementary(phi, exm)
    assert isinstance(comp, ComplementaryCover)
    assert comp.certificate_max < 1e-12
    assert all(abs(w - 1.0) < 1e-12 for w in comp.tree_solution.values())
    for cell in degree_cells(exm.cover.nerve, exm.manifold, 1):
        pts = cell.samples
        a, b = cell.indices
        diff = comp.base.transition(a, b, pts) - exm.cover.transition(a, b, pts)
        assert np.max(np.abs(diff)) < 1e-12
    for cell in degree_cells(exm.cover.nerve, exm.manifold, 0):
        pts = cell.samples
        t0 = comp.base.potential(cell.indices[0], pts)
        t1 = exm.cover.potential(cell.indices[0], pts)
        assert max(np.max(np.abs(a - b)) for a, b in zip(t0, t1)) < 1e-12


def test_plane_shear_complementary_succeeds(models):
    exm = models("plane", granularity=2)
    phi = catalog.make_map(exm, "shear")
    comp = build_complementary(phi, exm)
    assert isinstance(comp, ComplementaryCover)
    # the shear gauges by a genuine quadratic phase; certificate is honest
    assert comp.certificate_max < 1e-9
    assert check_local_data(comp.base, 1e-9).passed


def test_torus_translation_obstruction_matches_theory(models):
    exm = models("torus", k=2)
    a = 0.7
    phi = catalog.make_map(exm, f"translate:{a},0")
    result = build_complementary(phi, exm)
    assert isinstance(result, CocycleObstruction)
    assert result.deviation > 1e-6
    assert result.constancy_max < 1e-8
    # cycle products realize the flat-difference holonomy exp(-+ i k a)
    expected = {np.exp(1j * 2 * a), np.exp(-1j * 2 * a)}
    assert min(abs(result.cycle_product - e) for e in expected) < 1e-9
    assert len(result.witness_cycle) >= 3


def test_torus_translation_solvable_when_k_a_in_two_pi_z(models):
    exm = models("torus", k=2)
    phi = catalog.make_map(exm, f"translate:{math.pi:.17g},0")
    comp = build_complementary(phi, exm)
    assert isinstance(comp, ComplementaryCover)
    assert comp.certificate_max < 1e-9
    assert check_local_data(comp.base, 1e-9).passed


def test_cylinder_momentum_shift_dichotomy(models):
    exm = models("cylinder")
    frac = build_complementary(catalog.make_map(exm, "pshift:0.4"), exm)
    assert isinstance(frac, CocycleObstruction)
    assert abs(frac.cycle_product - np.exp(2j * math.pi * 0.4)) < 1e-9 or abs(
        frac.cycle_product - np.exp(-2j * math.pi * 0.4)
    ) < 1e-9
    whole = build_complementary(catalog.make_map(exm, "pshift:1.0"), exm)
    assert isinstance(whole, ComplementaryCover)


def _per_row_integrate(f, a, b):
    """One adaptive integral of one row per target, as the construction ran
    before its gauge integrals were batched: f sees the row's nodes in
    every row, and only the row's own values are read."""
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    m = len(a)
    return np.array(
        [
            integrate(lambda ts, j=j: f(np.repeat(ts, m, axis=0))[j : j + 1], a[j], b[j])[0]
            for j in range(m)
        ],
        dtype=np.complex128,
    )


@pytest.mark.parametrize(
    "name, params, spec",
    [
        ("torus", {"k": 2}, f"translate:{math.pi:.17g},0"),
        ("torus", {"k": 2}, "translate:0.7,0"),
        ("cylinder", {}, "pshift:1"),
        ("cylinder", {}, "pshift:0.4"),
        ("plane", {"granularity": 2}, "shear"),
        # the only builtin gauge form whose y leg depends on the target's x
        ("plane", {"granularity": 2}, "rot:0.3"),
    ],
)
def test_batched_gauge_integrals_match_scalar_construction(
    models, monkeypatch, name, params, spec
):
    exm = models(name, **params)
    phi = catalog.make_map(exm, spec)
    batched = build_complementary(phi, exm)
    monkeypatch.setattr(action, "integrate", _per_row_integrate)
    scalar = build_complementary(phi, exm)
    assert type(batched) is type(scalar)
    assert batched.constants.keys() == scalar.constants.keys()
    for key, val in scalar.constants.items():
        assert abs(batched.constants[key] - val) < 1e-12
    if isinstance(scalar, CocycleObstruction):
        assert batched.witness_cycle == scalar.witness_cycle
        assert abs(batched.cycle_product - scalar.cycle_product) < 1e-12
    else:
        assert batched.certificate_max < 1e-9
        assert batched.tree_solution.keys() == scalar.tree_solution.keys()
        for v, w in scalar.tree_solution.items():
            assert abs(batched.tree_solution[v] - w) < 1e-12


def _per_cell_gauge_potentials(naive, pulled, elements, pts, closed_form=True, sizes=None):
    """f_a at the targets as the construction computed it before its gauge
    integrals were gathered by element: per overlap cell and member, both
    legs at every target, each node reduced to canonical coordinates and
    lifted back into the element to evaluate the gauge form as one
    two-part program.  With closed_form, a leg whose component does not
    read the leg's variable is that component at the leg's start times
    the leg's length, and an empty leg is 0; without it, every leg is
    integrated.  The targets are laid out as overlap_constants passes
    them: each cell's samples for its first member, then each cell's
    samples for its second; or in runs of one element each, of the given
    sizes."""
    manifold = naive.manifold
    if sizes is None:
        sizes = np.tile(naive.nerve.samples(1, manifold).sizes, 2)
    assert len(pts) == sizes.sum()
    out = np.empty(len(pts), dtype=np.complex128)
    ends = np.cumsum(sizes).tolist()
    for start, end in zip([0] + ends[:-1], ends):
        assert np.all(elements[start:end] == elements[start])
        a = int(elements[start])
        diffs = tuple(
            ex.BinOp("-", tn, tp)
            for tn, tp in zip(naive.data.potentials[a], pulled.data.potentials[a])
        )
        prog = program.compile_expr(diffs, manifold.coords)
        exact = [
            closed_form and c not in free_vars(d) for c, d in zip(manifold.coords, diffs)
        ]
        box = naive.elements[a]
        base = box.center()

        def gauge_form(pts, a=a, prog=prog):
            lifted = naive.member_points(a, pts)
            if np.any(np.isnan(lifted)):
                raise ConfigurationError(
                    f"potential of element {a} requested outside the element"
                )
            return eval_at(prog, manifold.coords, lifted)

        def f_alpha(targets, base=base, box=box, gauge_form=gauge_form, exact=exact):
            lift = manifold.lift_into(as_points(targets), box)
            x0s, x1s = lift[:, 0], lift[:, 1]

            def leg0(ts):
                pts = np.column_stack([ts.ravel(), np.full(ts.size, base[1])])
                return gauge_form(manifold.reduce(pts))[0].reshape(ts.shape)

            def leg1(ts):
                pts = np.column_stack([np.repeat(x0s, ts.shape[1]), ts.ravel()])
                return gauge_form(manifold.reduce(pts))[1].reshape(ts.shape)

            def leg(g, start, stops, closed):
                if not closed:
                    return integrate(g, start, stops)
                at_start = g(np.full((len(stops), 1), start))[:, 0]
                return np.where(stops != start, at_start * (stops - start), 0)

            return leg(leg0, base[0], x0s, exact[0]) + leg(leg1, base[1], x1s, exact[1])

        out[start:end] = f_alpha(pts[start:end])
    return out


@pytest.mark.parametrize(
    "name, params, spec",
    [
        ("torus", {"k": 2}, f"translate:{math.pi:.17g},0"),
        ("torus", {"k": 2}, "translate:0.7,0"),
        ("cylinder", {}, "pshift:1"),
        ("cylinder", {}, "pshift:0.4"),
        ("sphere", {"k": 3}, "rot:1.0"),
        ("plane", {"granularity": 2}, "shear"),
        ("plane", {"granularity": 2}, "rot:0.3"),
    ],
)
def test_gauge_integrals_by_element_match_the_per_cell_construction(
    models, monkeypatch, name, params, spec
):
    # one quadrature per element for the legs that need it, x legs once per
    # distinct x0, closed-form legs where a component does not read its
    # leg's variable, the gauge form evaluated in the element frame: the
    # same bits as per cell
    exm = models(name, **params)
    phi = catalog.make_map(exm, spec)
    with trace.counting() as counters:
        by_element = build_complementary(phi, exm)
    monkeypatch.setattr(action, "gauge_potentials", _per_cell_gauge_potentials)
    per_cell = build_complementary(phi, exm)
    assert type(by_element) is type(per_cell)
    assert by_element.constants == per_cell.constants
    assert by_element.constancy_max == per_cell.constancy_max
    if isinstance(per_cell, ComplementaryCover):
        assert by_element.tree_solution == per_cell.tree_solution
        assert by_element.certificate_max == per_cell.certificate_max
    else:
        assert by_element.witness_cycle == per_cell.witness_cycle
        assert by_element.cycle_product == per_cell.cycle_product
    assert 0 < counters["gauge_exact"] + counters["gauge_integrals"]
    assert 15 * counters["gauge_integrals"] <= counters["gauge_nodes"]


# the components of the gauge form that do not read their leg's variable,
# (x leg, y leg), the same on every element of the cover
@pytest.mark.parametrize(
    "name, params, spec, closed",
    [
        ("torus", {"k": 2}, f"translate:{math.pi:.17g},0", (True, True)),
        ("torus", {"k": 2}, "translate:0.7,0", (True, True)),
        ("cylinder", {}, "pshift:1", (True, True)),
        ("cylinder", {}, "pshift:0.4", (True, True)),
        ("sphere", {"k": 3}, "rot:1.0", (True, True)),
        ("plane", {"granularity": 2}, "shear", (True, False)),
        ("plane", {"granularity": 2}, "rot:0.3", (False, False)),
        ("disk", {}, "rot:0.7", (False, False)),
    ],
)
def test_closed_form_gauge_legs_equal_their_integrals(
    models, monkeypatch, name, params, spec, closed
):
    exm = models(name, **params)
    phi = catalog.make_map(exm, spec)
    covers = []
    overlap_constants = action.overlap_constants

    def kept(naive, pulled):
        covers.append((naive, pulled))
        return overlap_constants(naive, pulled)

    monkeypatch.setattr(action, "overlap_constants", kept)
    build_complementary(phi, exm)
    ((naive, pulled),) = covers
    # every element's own samples: the disk has no overlap
    s0 = naive.nerve.samples(0, naive.manifold)
    elements = np.repeat([cell[0] for cell, _ in s0.keys], s0.sizes)
    pts = s0.points
    got = action.gauge_potentials(naive, pulled, elements, pts)
    want = _per_cell_gauge_potentials(
        naive, pulled, elements, pts, closed_form=False, sizes=s0.sizes
    )
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    for a in np.unique(elements).tolist():
        # every leg that is not empty is closed or integrated, as its
        # component reads its variable or not
        rows = elements == a
        lifted = naive.member_points(a, pts[rows])
        center = naive.elements[a].center()
        live = (
            np.count_nonzero(np.unique(lifted[:, 0]) != center[0]),
            np.count_nonzero(lifted[:, 1] != center[1]),
        )
        with trace.counting() as counts:
            action.gauge_potentials(naive, pulled, elements[rows], pts[rows])
        assert min(live) > 0
        assert counts.get("gauge_exact", 0) == sum(n for n, c in zip(live, closed) if c)
        assert counts.get("gauge_integrals", 0) == sum(
            n for n, c in zip(live, closed) if not c
        )


def _per_cell_overlap_constants(naive, pulled):
    """Steps 2 and 3 of build_complementary as the construction ran before
    it read each degree's samples in one accessor call per cover: per
    cell, one curvature call per cover on each element, and one transition
    call per cover on each overlap.  The reference for overlap_constants."""
    manifold, nerve = naive.manifold, naive.nerve
    closed_max = 0.0
    for cell in nerve_cells(nerve, manifold).values():
        if cell.degree != 0 or len(cell.samples) == 0:
            continue
        pts = cell.samples
        resid = np.abs(
            naive.curvature(cell.indices[0], pts) - pulled.curvature(cell.indices[0], pts)
        )
        closed_max = max(closed_max, float(np.max(resid)))
    if closed_max > action.CLOSEDNESS_TOL:
        raise InternalConsistencyError(f"gauge 1-form is not closed ({closed_max:.3e})")
    cells = [
        (key, cell, cell.samples)
        for key, cell in sorted(nerve_cells(nerve, manifold).items())
        if cell.degree == 1 and len(cell.samples)
    ]
    # one gauge_potentials call: each cell's samples for a, then for b
    elements = [np.repeat(cell.indices, len(pts)) for _, cell, pts in cells]
    targets = [np.tile(pts, (2, 1)) for *_, pts in cells]
    f = action.gauge_potentials(
        naive, pulled, np.concatenate([np.empty(0, int)] + elements),
        np.concatenate([np.empty((0, 2))] + targets),
    )
    f_cells = np.split(f, np.cumsum([len(t) for t in targets])[:-1])
    constants, constancy_max, ratios = {}, 0.0, {}
    for (key, cell, pts), f_cell in zip(cells, f_cells):
        a, b = cell.indices
        f_a, f_b = np.split(f_cell, 2)
        ratio = (
            naive.transition(a, b, pts)
            * np.exp(-1j * (f_a - f_b))
            / pulled.transition(a, b, pts)
        )
        mean = complex(np.mean(ratio))
        spread = float(np.max(np.abs(ratio - mean)))
        constancy_max = max(constancy_max, spread)
        if spread > 1e-8 * (1.0 + abs(mean)):
            raise InternalConsistencyError(f"overlap {key} is not constant ({spread:.3e})")
        constants[(a, b, cell.comp)] = mean
        ratios[key] = ratio
    return closed_max, constants, constancy_max, ratios


# every map the catalog offers, with both sides of the obstruction
# dichotomy where a model has two, and the identity
COMPLEMENTARY_CASES = [
    ("plane", {}, "identity"),
    ("plane", {}, "shear"),
    ("plane", {}, "rot:0.3"),
    ("plane", {}, "translate:0.5,0.25"),
    ("plane", {"granularity": 2}, "shear"),
    ("plane", {"granularity": 2}, "rot:0.3"),
    ("cylinder", {}, "translate:1.5"),
    ("cylinder", {}, "pshift:0.4"),
    ("cylinder", {}, "pshift:1"),
    ("torus", {"k": 2}, "translate:0.7,0"),
    ("torus", {"k": 2}, f"translate:{math.pi:.17g},0"),
    ("torus", {"k": 3, "granularity": 4}, "translate:0.7,0.3"),
    ("sphere", {"k": 3}, "rot:1.0"),
    ("disk", {}, "rot:0.7"),
]


def test_complementary_cases_cover_every_catalog_map(models):
    params = {"torus": {"k": 1}, "sphere": {"k": 1}}
    offered = {
        (name, spec)
        for name in catalog.EXAMPLE_NAMES
        for spec in models(name, **params.get(name, {})).map_specs
        if spec != "identity"
    }
    cases = {(name, spec.partition(":")[0]) for name, _, spec in COMPLEMENTARY_CASES}
    assert cases - {("plane", "identity")} == offered


@pytest.mark.parametrize("name, params, spec", COMPLEMENTARY_CASES)
def test_overlap_constants_match_the_per_cell_construction(
    models, monkeypatch, name, params, spec
):
    # one accessor call per cover and degree, and the means, spreads and
    # maxima on each cell's slice: every value keeps its bits
    exm = models(name, **params)
    phi = catalog.make_map(exm, spec)
    with trace.counting() as batched_counts:
        batched = build_complementary(phi, exm)
    monkeypatch.setattr(action, "overlap_constants", _per_cell_overlap_constants)
    with trace.counting() as per_cell_counts:
        per_cell = build_complementary(phi, exm)
    assert type(batched) is type(per_cell)
    # repr tells NaNs apart from numbers and keeps every bit
    assert repr(batched.constants) == repr(per_cell.constants)
    assert repr(batched.as_dict()) == repr(per_cell.as_dict())
    for counter in ("gauge_integrals", "gauge_nodes"):  # 0 where no cell needs one
        assert per_cell_counts.get(counter, 0) == batched_counts[counter]
    if isinstance(per_cell, ComplementaryCover):
        assert repr(batched.tree_solution) == repr(per_cell.tree_solution)
    else:
        assert batched.witness_cycle == per_cell.witness_cycle
        assert repr(batched.cycle_product) == repr(per_cell.cycle_product)


@pytest.mark.parametrize("name, params, spec", [
    ("plane", {}, "shear"),  # one element
    ("sphere", {"k": 3}, "rot:1.0"),  # two
    ("cylinder", {}, "pshift:1"),  # three
    ("torus", {"k": 2, "granularity": 4}, "translate:0.7,0"),  # sixteen, obstructed
])
def test_complementary_cover_makes_one_accessor_call_per_cover(
    models, monkeypatch, name, params, spec
):
    exm = models(name, **params)
    phi = catalog.make_map(exm, spec)
    calls = []

    def counting(accessor, method):
        def counted(self, *args):
            calls.append(accessor)
            return method(self, *args)
        return counted

    for accessor in ("curvature", "transition"):
        method = getattr(TrivializationCover, accessor)
        monkeypatch.setattr(TrivializationCover, accessor, counting(accessor, method))
    build_complementary(phi, exm)
    assert calls.count("curvature") == 2
    assert calls.count("transition") <= 2


def test_gauge_potential_outside_its_element_is_a_config_error(models):
    # the lifted targets are checked before any quadrature, so the error
    # names the element instead of a non-finite integration bound
    exm = models("torus", k=2)
    x, y = exm.cover.elements[0].center()
    outside = np.array([[x + math.pi, y]])
    assert np.isnan(exm.cover.member_points(0, outside)).all()  # both axes periodic
    inside = np.array([[x + 0.1, y]])
    with trace.counting() as counts, pytest.raises(
        ConfigurationError, match="element 0 requested outside"
    ):
        action.gauge_potentials(
            exm.cover, exm.cover, np.array([0, 0]), np.concatenate([inside, outside])
        )
    assert counts == {}  # nothing was integrated


def test_complementary_cover_refuses_a_nerve_without_overlaps(models):
    # the construction solves its constants over the degree-1 cells; a
    # degree-0 nerve has none and would leave the elements unconnected
    shallow = catalog.example("torus", k=2, nerve_degree=0)
    phi = catalog.make_map(shallow, "translate:pi,0")
    with pytest.raises(ConfigurationError, match="degree-1"):
        build_complementary(phi, shallow)
    at_1 = build_complementary(phi, catalog.example("torus", k=2, nerve_degree=1))
    full = build_complementary(phi, models("torus", k=2))
    assert at_1.as_dict() == full.as_dict()


def _grids_for(exm, phi, comp, n):
    pol = exm.polarization()
    pushed = pushforward_polarization(phi, pol)
    labels = half_offset_labels(pol.label_range[0], pol.label_range[1], n)
    return (
        TransversalGrid.build(exm.cover, pol, labels),
        TransversalGrid.build(comp.base, pushed, labels),
    )


def test_chain_map_commutes_with_delta(models):
    # the chain map is the identity on coefficients; in tuple form the two
    # sides' differentials agree on every member of every cell
    exm = models("torus", k=2)
    phi = catalog.make_map(exm, f"translate:{math.pi:.17g},0")
    comp = build_complementary(phi, exm)
    gs, gd = _grids_for(exm, phi, comp, 16)
    rng = np.random.default_rng(1)
    for degree in (0, 1):
        n = int(gs.degrees[degree].starts[-1])
        assert n == gd.degrees[degree].starts[-1]
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = psi(gd, degree + 1, grid_delta(gd, degree, v))
        rhs = psi(gs, degree + 1, grid_delta(gs, degree, v))
        assert lhs.shape == (degree + 2, gs.degrees[degree + 1].starts[-1])
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def _complementary(exm, spec):
    """The complementary cover of the map spec over the example."""
    comp = build_complementary(catalog.make_map(exm, spec), exm)
    assert isinstance(comp, ComplementaryCover)
    return comp


def _circle_pairs(rep) -> list:
    return [p for p in rep.payload["leaf_pairs"] if p["topology"] == "circle"]


def test_transport_leaf_identity(models):
    # the identity carries each leaf to itself with its holonomy
    exm = models("sphere", k=2)
    pol = exm.polarization()
    rep = verify_theorem_2(_complementary(exm, "identity"), pol, (0.4, 1.2), count=3)
    pairs = _circle_pairs(rep)
    assert np.allclose([p["label"] for p in pairs], [0.4, 0.8, 1.2], atol=1e-12)
    for pair in pairs:
        c = pair["label"]
        _, leaves, _ = enumerate_leaves(LeafAtlas(exm.cover, pol), (c, c), 1)
        (h1,) = holonomy(LeafTransport(exm.cover, pol), leaves)[1].tolist()
        assert pair["holonomy_source"] == [h1.real, h1.imag]
        assert abs(complex(*pair["holonomy_source"])
                   - complex(*pair["holonomy_target"])) < 1e-12


def test_transport_leaf_sphere_rotation_preserves_holonomy(models):
    exm = models("sphere", k=3)
    pol = exm.polarization()
    phi = catalog.make_map(exm, "rot:1.3")
    pushed = pushforward_polarization(phi, pol)
    rep = verify_theorem_2(build_complementary(phi, exm), pol, (0.4, 2.2), count=4)
    pairs = _circle_pairs(rep)
    assert np.allclose([p["label"] for p in pairs], [0.4, 1.0, 1.6, 2.2], atol=1e-12)
    for pair in pairs:
        c = pair["label"]
        here = complex(*pair["holonomy_source"])
        there = complex(*pair["holonomy_target"])
        assert abs(here - there) < 1e-9
        # a latitude circle maps to itself as a set: phi-preimages of its
        # points still lie on the latitude circle of the pushed polarization
        ts = np.linspace(0.0, TWO_PI, 7)
        down = phi.apply_inverse(pol.curve_points(c, ts))
        assert np.max(np.abs(pushed.label_of(down) - c)) < 1e-12


def test_transport_leaf_shear_maps_lines_to_lines(models):
    exm = models("plane")
    pol = exm.polarization()
    phi = catalog.make_map(exm, "shear")
    comp = build_complementary(phi, exm)
    pushed = pushforward_polarization(phi, pol)
    labels, moved, _ = enumerate_leaves(LeafAtlas(comp.base, pushed), (0.5, 0.5), 1)
    # a line leaf: its label is sampled, and no leaf is threaded
    assert pushed.leaf_period is None and labels.tolist() == [0.5] and moved.k.size == 0
    with pytest.raises(HolonomyUndefinedError):  # and the atlas threads none
        LeafAtlas(comp.base, pushed).leaves(labels)
    # so the census pairing has no pair to compare across the map
    rep = verify_theorem_2(comp, pol, (-1.0, 1.0), count=5)
    assert rep.passed and rep.payload["leaf_pairs"] == []


def test_leaf_transport_round_trip_is_identity_on_labels(models):
    exm = models("torus", k=1)
    pol = exm.polarization()
    phi = catalog.make_map(exm, "translate:%.17g,0" % TWO_PI)  # k a in 2 pi Z
    comp = build_complementary(phi, exm)
    assert isinstance(comp, ComplementaryCover)
    pushed = pushforward_polarization(phi, pol)
    labels = enumerate_leaves(LeafAtlas(exm.cover, pol), (0, TWO_PI), 6)[0]
    back = enumerate_leaves(LeafAtlas(comp.base, pushed), (0, TWO_PI), 6)[0]
    assert np.allclose(sorted(labels), sorted(back), atol=1e-10)


def test_theorem_1_identity(models):
    exm = models("torus", k=1)
    rep = verify_theorem_1(_complementary(exm, "identity"), exm.polarization(), grid_n=24)
    assert rep.status == "ok" and rep.passed
    assert rep.payload["ranks"]["source"] == rep.payload["ranks"]["target"]


def test_theorem_1_plane_shear(models):
    exm = models("plane")
    rep = verify_theorem_1(_complementary(exm, "shear"), exm.polarization(), grid_n=32)
    assert rep.passed
    assert rep.payload["ranks"]["source"] == [32, 0, 0]
    assert rep.payload["commutation_residual"] < 1e-9


def test_theorem_1_two_element_plane_shear(models):
    exm = models("plane", granularity=2)
    rep = verify_theorem_1(_complementary(exm, "shear"), exm.polarization(), grid_n=24)
    assert rep.passed and rep.payload["ranks"]["equal"]
    assert rep.payload["commutation_residual"] < 1e-9


@pytest.mark.parametrize(
    "name,params,spec",
    [("torus", {"k": 2}, f"translate:{math.pi:.17g},0"), ("plane", {"granularity": 2}, "shear")],
)
def test_theorem_1_assembles_each_degree_once_per_side(models, monkeypatch, name, params,
                                                       spec):
    # the commutation check applies the operators the ranks assembled
    exm = models(name, **params)
    comp = _complementary(exm, spec)
    assemble, degrees = cech.delta_matrix, []

    def counted(grid, degree):
        degrees.append(degree)
        return assemble(grid, degree)

    monkeypatch.setattr(cech, "delta_matrix", counted)
    rep = verify_theorem_1(comp, exm.polarization())
    assert rep.passed
    assert sorted(degrees) == [0, 0, 1, 1, 2, 2]


def test_theorem_1_obstructed_reports_hypothesis_failure(capsys):
    # act finds the obstruction once; each theorem it verifies reports it
    from gqlab import cli

    argv = ["act", "--example", "torus", "--k", "2", "--map", "translate:0.7,0"]
    for which in ("thm1", "thm2", "thm1,thm2"):
        code = cli.main(argv + ["--verify", which, "--json"])
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert code == 1
        assert payload["status"] == "hypothesis-failed"
        for w in which.split(","):
            rep = payload[w]
            assert rep["theorem"] == int(w[-1])
            assert rep["status"] == "hypothesis-failed" and not rep["pass"]
            assert rep["witness"] is not None and rep["witness"]["deviation"] > 1e-6


def test_theorem_1_builds_one_grid_per_side(models, monkeypatch):
    exm = models("torus", k=2)
    phi = catalog.make_map(exm, f"translate:{math.pi:.17g},0")
    comp = build_complementary(phi, exm)
    # per grid build, its transport calls (the live entries of each) and
    # its transition calls; and those each delta_matrix makes
    build, integral, transition = (
        TransversalGrid.build.__func__, LeafTransport.integral, TrivializationCover.transition
    )
    matrix = cech.delta_matrix
    grids, inside, calls = [], [], {"integral": [], "transition": 0}

    def counted(cls, *args, **kwargs):
        calls.update(integral=[], transition=0)
        grids.append(build(cls, *args, **kwargs))
        inside.append((list(calls["integral"]), calls["transition"]))
        return grids[-1]

    def counted_integral(self, elements, t0, t1, labels):
        calls["integral"].append(int((np.asarray(t0) != np.asarray(t1)).sum()))
        return integral(self, elements, t0, t1, labels)

    def counted_transition(self, *args):
        calls["transition"] += 1
        return transition(self, *args)

    def counted_matrix(grid, degree):
        calls.update(integral=[], transition=0)
        out = matrix(grid, degree)
        assert calls == {"integral": [], "transition": 0}
        return out

    monkeypatch.setattr(TransversalGrid, "build", classmethod(counted))
    monkeypatch.setattr(LeafTransport, "integral", counted_integral)
    monkeypatch.setattr(TrivializationCover, "transition", counted_transition)
    monkeypatch.setattr(cech, "delta_matrix", counted_matrix)
    with trace.counting() as counts:
        rep = verify_theorem_1(comp, exm.polarization(), grid_n=16)
    assert rep.passed and len(grids) == 2
    assert counts["grid_builds"] == 2
    assert grids[0].cover is exm.cover and grids[1].cover is comp.base
    # each build makes one transport call and one transition call for the
    # entries of every degree; delta_matrix makes neither, and the
    # commutation check adds no integral; no integrand of either side reads
    # t, so each build's rows are one closed-form quadrature call
    assert [(len(found), n) for found, n in inside] == [(1, 1), (1, 1)]
    assert counts["transport_integrals"] == sum(found[0] for found, _ in inside) > 0
    assert counts["transport_exact"] == counts["transport_integrals"]
    assert counts["transport_batches"] == 2


def test_theorem_1_fails_on_a_corrupted_target_transition(models):
    exm = models("torus", k=2)
    phi = catalog.make_map(exm, f"translate:{math.pi:.17g},0")
    comp = build_complementary(phi, exm)
    data = comp.base.data
    pair = sorted(data.transitions)[0]
    transitions = dict(data.transitions)
    transitions[pair] = ex.mul(ex.Num(1.01), transitions[pair])
    base = comp.base._replace(data=data._replace(transitions=transitions))
    corrupted = comp._replace(base=base)
    pol = exm.polarization()
    assert verify_theorem_1(comp, pol, grid_n=16).passed
    rep = verify_theorem_1(corrupted, pol, grid_n=16)
    assert rep.status == "ok" and not rep.passed
    assert rep.payload["commutation_residual"] > 1e-6


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (0, 2), (2, 0)])
def test_theorem_1_fails_on_either_orientation_of_a_corrupted_transition(models, a, b):
    # the blocks read lambda_{a,b} only for a > b; the tuple form of the
    # commutation check reads both orientations
    exm = models("torus", k=2)
    comp = build_complementary(catalog.make_map(exm, f"translate:{math.pi:.17g},0"), exm)
    data = comp.base.data
    transitions = dict(data.transitions)
    transitions[a, b] = ex.mul(ex.Num(1.01), transitions[a, b])
    base = comp.base._replace(data=data._replace(transitions=transitions))
    rep = verify_theorem_1(comp._replace(base=base), exm.polarization(), grid_n=16)
    assert rep.status == "ok" and not rep.passed
    assert rep.payload["commutation_residual"] > 1e-6


def test_theorem_1_fails_when_a_betti_number_is_negative(models, monkeypatch):
    # ranks that leave a negative Betti number are unsound, even where the
    # two sides agree on them
    real = action.cohomology_ranks

    def lowered(grid, threshold=1e-8, max_degree=2):
        rep = real(grid, threshold, max_degree)
        low = rep.degrees[1]._replace(betti=rep.degrees[1].betti - 9)
        return rep._replace(degrees=(rep.degrees[0], low, *rep.degrees[2:]))

    exm = models("torus", k=2)
    comp = build_complementary(catalog.make_map(exm, f"translate:{math.pi:.17g},0"), exm)
    assert verify_theorem_1(comp, exm.polarization(), grid_n=16).passed
    monkeypatch.setattr(action, "cohomology_ranks", lowered)
    rep = verify_theorem_1(comp, exm.polarization(), grid_n=16)
    assert rep.payload["ranks"]["equal"] and min(rep.payload["ranks"]["source"]) < 0
    assert rep.status == "ok" and not rep.passed


def test_theorem_reuses_only_a_cover_built_for_its_map(models):
    exm = models("cylinder")
    phi = catalog.make_map(exm, "pshift:1")
    comp = build_complementary(phi, exm)
    # the theorem reads the map and both covers from the complementary cover
    rep = verify_theorem_2(comp, exm.polarization(), exm.census_range)
    assert rep.passed and rep.payload["complementary"] == comp.as_dict()


def test_theorem_2_identity(models):
    exm = models("sphere", k=2)
    rep = verify_theorem_2(
        _complementary(exm, "identity"), exm.polarization(), exm.census_range
    )
    assert rep.passed
    assert rep.payload["q_bs"]["source"] == rep.payload["q_bs"]["target"]


def test_theorem_2_sphere_rotation(models):
    exm = models("sphere", k=3)
    rep = verify_theorem_2(
        _complementary(exm, "rot:1.0"), exm.polarization(), exm.census_range
    )
    assert rep.passed
    assert rep.payload["q_bs"] == {"source": 4, "target": 4}
    assert rep.payload["holonomy_max_difference"] < 1e-9
    assert len(rep.payload["bs_locations"]["source"]) == 2  # interior circles


def test_theorem_2_disk_rotation(models):
    exm = models("disk")
    rep = verify_theorem_2(
        _complementary(exm, "rot:0.9"), exm.polarization(), exm.census_range
    )
    assert rep.passed and rep.payload["q_bs"]["source"] == 5


@pytest.mark.parametrize(
    "name,params,spec",
    [
        ("sphere", {"k": 3}, "rot:1.0"),
        ("disk", {}, "rot:0.9"),
        ("torus", {"k": 2}, "translate:3.141592653589793,0"),
    ],
)
def test_theorem_2_leaf_pairs_reuse_the_census_integrals(models, monkeypatch, name,
                                                         params, spec):
    # the leaf-pair loop reads every segment integral from the transports
    # the two censuses filled: it makes no quadrature call
    from gqlab import transport as transport_mod

    transports, by_census = [], []  # each census's transport integrals
    real_init = transport_mod.LeafTransport.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        transports.append(self)

    real_census = action.bs_census

    def census(*args, **kwargs):
        with trace.counting() as counts:
            rep = real_census(*args, **kwargs)
        by_census.append(counts["transport_integrals"])
        return rep

    monkeypatch.setattr(transport_mod.LeafTransport, "__init__", recording_init)
    monkeypatch.setattr(action, "bs_census", census)
    exm = models(name, **params)
    phi = catalog.make_map(exm, spec)
    pol = exm.polarization()
    comp = build_complementary(phi, exm)
    with trace.counting() as counts:
        rep = verify_theorem_2(comp, pol, exm.census_range)
    assert rep.passed and len(by_census) == 2 and len(transports) == 2
    assert all(n > 0 for n in by_census)
    assert counts["transport_integrals"] == sum(by_census)
    # and the pairs are the holonomies a fresh transport gives, exactly
    pushed = pushforward_polarization(phi, pol)
    atlas, moved = LeafAtlas(exm.cover, pol), LeafAtlas(comp.base, pushed)
    labels, _, points = enumerate_leaves(atlas, exm.census_range, 33)
    labels_there, _, points_there = enumerate_leaves(moved, exm.census_range, 33)
    assert labels.tolist() == labels_there.tolist()
    assert [c for c, _ in points] == [c for c, _ in points_there]
    assert len(rep.payload["leaf_pairs"]) == len(labels) + len(points)
    for pair in rep.payload["leaf_pairs"]:
        c = pair["label"]
        if pair["topology"] == "point":  # trivial holonomy on both sides
            assert c in [u for u, _ in points]
            assert pair["holonomy_source"] == pair["holonomy_target"] == [1.0, 0.0]
            continue
        assert c in labels.tolist()
        (here,) = holonomy(LeafTransport(exm.cover, pol), atlas.leaves([c]))[1].tolist()
        (there,) = holonomy(LeafTransport(comp.base, pushed), moved.leaves([c]))[1].tolist()
        assert pair["holonomy_source"] == [here.real, here.imag]
        assert pair["holonomy_target"] == [there.real, there.imag]


def test_theorem_2_names_a_label_the_censuses_do_not_share(models, monkeypatch,
                                                            capsys):
    # the leaf pairs zip the two censuses; a target census that samples
    # another label is a fault of the program, not a failed theorem
    from gqlab import cli

    calls = []

    def census(*args, **kwargs):
        rep = bs_census(*args, **kwargs)
        calls.append(rep)
        if len(calls) % 2:
            return rep
        labels = rep.labels.copy()
        labels[3] = 0.1234
        return rep._replace(labels=labels)

    monkeypatch.setattr(action, "bs_census", census)
    exm = models("torus", k=2)
    with pytest.raises(InternalConsistencyError, match="0.1234"):
        verify_theorem_2(
            _complementary(exm, "translate:pi,0"), exm.polarization(), exm.census_range
        )
    code = cli.main(["act", "--example", "torus", "--k", "2",
                     "--map", "translate:pi,0", "--verify", "thm2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal invariant violation:") and "0.1234" in err
