"""Complementary covers, the chain map, both theorems and their leaf pairing."""

import math

import numpy as np
import pytest

from gqlab import action, catalog, cech, program
from gqlab import expr as ex
from gqlab.action import (
    CocycleObstruction,
    InternalConsistencyError,
    ComplementaryCover,
    build_complementary,
    chain_map,
    verify_theorem_1,
    verify_theorem_2,
)
from gqlab.bohr import HolonomyUndefinedError, bs_census, enumerate_leaves, holonomy
from gqlab.cech import TransversalGrid, delta, half_offset_labels, random_projected_cochain
from gqlab.geometry import as_points, eval_at, pushforward_polarization
from gqlab.prequantum import ConfigurationError, check_local_data
from gqlab.quadrature import integrate

TWO_PI = 2.0 * math.pi


def test_identity_complementary_reproduces_original_data(models):
    exm = models("torus", k=2)
    phi = catalog.make_map(exm, "identity")
    comp = build_complementary(phi, exm.cover)
    assert isinstance(comp, ComplementaryCover)
    assert comp.certificate_max < 1e-12
    assert all(abs(w - 1.0) < 1e-12 for w in comp.tree_solution.values())
    for cell in exm.cover.nerve.degree(1):
        pts = exm.manifold.reduce(cell.samples)
        a, b = cell.indices
        diff = comp.base.transition(a, b, pts) - exm.cover.transition(a, b, pts)
        assert np.max(np.abs(diff)) < 1e-12
    for cell in exm.cover.nerve.degree(0):
        pts = exm.manifold.reduce(cell.samples)
        t0 = comp.base.potential(cell.indices[0], pts)
        t1 = exm.cover.potential(cell.indices[0], pts)
        assert max(np.max(np.abs(a - b)) for a, b in zip(t0, t1)) < 1e-12


def test_plane_shear_complementary_succeeds(models):
    exm = models("plane", granularity=2)
    phi = catalog.make_map(exm, "shear")
    comp = build_complementary(phi, exm.cover)
    assert isinstance(comp, ComplementaryCover)
    # the shear gauges by a genuine quadratic phase; certificate is honest
    assert comp.certificate_max < 1e-9
    assert check_local_data(comp.base, 1e-9).passed


def test_torus_translation_obstruction_matches_theory(models):
    exm = models("torus", k=2)
    a = 0.7
    phi = catalog.make_map(exm, f"translate:{a},0")
    result = build_complementary(phi, exm.cover)
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
    comp = build_complementary(phi, exm.cover)
    assert isinstance(comp, ComplementaryCover)
    assert comp.certificate_max < 1e-9
    assert check_local_data(comp.base, 1e-9).passed


def test_cylinder_momentum_shift_dichotomy(models):
    exm = models("cylinder")
    frac = build_complementary(catalog.make_map(exm, "pshift:0.4"), exm.cover)
    assert isinstance(frac, CocycleObstruction)
    assert abs(frac.cycle_product - np.exp(2j * math.pi * 0.4)) < 1e-9 or abs(
        frac.cycle_product - np.exp(-2j * math.pi * 0.4)
    ) < 1e-9
    whole = build_complementary(catalog.make_map(exm, "pshift:1.0"), exm.cover)
    assert isinstance(whole, ComplementaryCover)


def _per_row_integrate(f, a, b, tol=1e-12, max_depth=24):
    """One adaptive integral of one row per target, as the construction ran
    before its gauge integrals were batched: f sees the row's nodes in
    every row, and only the row's own values are read."""
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    m = len(a)
    return np.array(
        [
            integrate(
                lambda ts, j=j: f(np.repeat(ts, m, axis=0))[j : j + 1],
                a[j], b[j], tol, max_depth,
            )[0]
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
    batched = build_complementary(phi, exm.cover)
    monkeypatch.setattr(action, "integrate", _per_row_integrate)
    scalar = build_complementary(phi, exm.cover)
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


def _per_cell_gauge_potentials(naive, pulled, targets, counters):
    """f_a at each overlap cell's samples as the construction computed it
    before its gauge integrals were gathered by element: per cell, both
    legs at every target, each node reduced to canonical coordinates and
    lifted back into the element to evaluate the gauge form as one
    two-part program."""
    manifold = naive.manifold
    out = {}
    for a, parts in targets.items():
        pairs = zip(naive.data.potentials[a], pulled.data.potentials[a])
        prog = program.compile_expr(
            tuple(ex.BinOp("-", tn, tp) for tn, tp in pairs), manifold.coords
        )
        box = naive.elements[a].box
        base = box.center()

        def gauge_form(pts, a=a, prog=prog):
            lifted = naive.member_points(a, pts)
            if np.any(np.isnan(lifted)):
                raise ConfigurationError(
                    f"potential of element {a} requested outside the element"
                )
            return eval_at(prog, manifold.coords, lifted)

        def f_alpha(targets, base=base, box=box, gauge_form=gauge_form):
            lift = manifold.lift_into(as_points(targets), box)
            x0s, x1s = lift[:, 0], lift[:, 1]

            def leg0(ts):
                pts = np.column_stack([ts.ravel(), np.full(ts.size, base[1])])
                return gauge_form(manifold.reduce(pts))[0].reshape(ts.shape)

            def leg1(ts):
                pts = np.column_stack([np.repeat(x0s, ts.shape[1]), ts.ravel()])
                return gauge_form(manifold.reduce(pts))[1].reshape(ts.shape)

            return integrate(leg0, base[0], x0s) + integrate(leg1, base[1], x1s)

        out[a] = [f_alpha(pts) for pts in parts]
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
    # one quadrature per element, x legs once per distinct x0, the gauge
    # form evaluated in the element frame: the same bits as per cell
    exm = models(name, **params)
    phi = catalog.make_map(exm, spec)
    by_element = build_complementary(phi, exm.cover)
    monkeypatch.setattr(action, "gauge_potentials", _per_cell_gauge_potentials)
    per_cell = build_complementary(phi, exm.cover)
    assert type(by_element) is type(per_cell)
    assert by_element.constants == per_cell.constants
    assert by_element.constancy_max == per_cell.constancy_max
    if isinstance(per_cell, ComplementaryCover):
        assert by_element.tree_solution == per_cell.tree_solution
        assert by_element.certificate_max == per_cell.certificate_max
    else:
        assert by_element.witness_cycle == per_cell.witness_cycle
        assert by_element.cycle_product == per_cell.cycle_product
    counters = by_element.counters
    assert 0 < counters["gauge_integrals"] < counters["gauge_nodes"]


def test_gauge_potential_outside_its_element_is_a_config_error(models):
    # the lifted targets are checked before any quadrature, so the error
    # names the element instead of a non-finite integration bound
    exm = models("torus", k=2)
    box = exm.cover.elements[0].box
    x, y = box.center()
    outside = np.array([[x + math.pi, y]])
    assert not exm.cover.contains(0, outside).any()
    inside = np.array([[x + 0.1, y]])
    counters = {"gauge_integrals": 0, "gauge_nodes": 0}
    with pytest.raises(ConfigurationError, match="element 0 requested outside"):
        action.gauge_potentials(
            exm.cover, exm.cover, {0: [inside, outside]}, counters
        )
    assert counters == {"gauge_integrals": 0, "gauge_nodes": 0}


def test_non_contractible_cover_rejected(models):
    import dataclasses

    exm = models("plane")
    el, *rest = exm.cover.elements
    cover = dataclasses.replace(
        exm.cover, elements=(dataclasses.replace(el, contractible=False), *rest)
    )
    with pytest.raises(ConfigurationError, match="contractible"):
        build_complementary(catalog.make_map(exm, "identity"), cover)


def _grids_for(exm, phi, comp, n):
    pol = exm.polarization()
    pushed = pushforward_polarization(phi, pol)
    labels = half_offset_labels(pol.label_range[0], pol.label_range[1], n)
    return (
        TransversalGrid.build(exm.cover, pol, labels),
        TransversalGrid.build(comp.base, pushed, labels),
    )


def test_chain_map_identity_and_linearity(models):
    exm = models("torus", k=1)
    phi = catalog.make_map(exm, "identity")
    comp = build_complementary(phi, exm.cover)
    gs, gd = _grids_for(exm, phi, comp, 16)
    rng = np.random.default_rng(0)
    c = random_projected_cochain(gs, 0, rng)
    moved = chain_map(c, phi, comp, gs, gd)
    assert all(np.array_equal(c.data[k], moved.data[k]) for k in c.data)
    z = random_projected_cochain(gs, 0, rng)
    for k in z.data:
        z.data[k][:] = 0
    assert chain_map(z, phi, comp, gs, gd).norm() == 0.0


def test_chain_map_commutes_with_delta(models):
    exm = models("torus", k=2)
    phi = catalog.make_map(exm, f"translate:{math.pi:.17g},0")
    comp = build_complementary(phi, exm.cover)
    gs, gd = _grids_for(exm, phi, comp, 16)
    rng = np.random.default_rng(1)
    for degree in (0, 1):
        c = random_projected_cochain(gs, degree, rng)
        lhs = delta(gd, chain_map(c, phi, comp, gs, gd))
        rhs = chain_map(delta(gs, c), phi, comp, gs, gd)
        worst = max(
            (np.max(np.abs(lhs.data[k] - rhs.data[k]))
             for k in lhs.data if lhs.data[k].size),
            default=0.0,
        )
        assert worst < 1e-9


def _circle_pairs(rep) -> list:
    return [p for p in rep.payload["leaf_pairs"] if p["topology"] == "circle"]


def test_transport_leaf_identity(models):
    # the identity carries each leaf to itself with its holonomy
    exm = models("sphere", k=2)
    pol = exm.polarization()
    rep = verify_theorem_2(exm, catalog.make_map(exm, "identity"),
                           crange=(0.4, 1.2), count=3)
    pairs = _circle_pairs(rep)
    assert np.allclose([p["label"] for p in pairs], [0.4, 0.8, 1.2], atol=1e-12)
    for pair in pairs:
        c = pair["label"]
        h1 = holonomy(exm.cover, pol, enumerate_leaves(exm.cover, pol, (c, c), 1)[0])
        assert pair["holonomy_source"] == [h1.holonomy.real, h1.holonomy.imag]
        assert abs(complex(*pair["holonomy_source"])
                   - complex(*pair["holonomy_target"])) < 1e-12


def test_transport_leaf_sphere_rotation_preserves_holonomy(models):
    exm = models("sphere", k=3)
    pol = exm.polarization()
    phi = catalog.make_map(exm, "rot:1.3")
    pushed = pushforward_polarization(phi, pol)
    rep = verify_theorem_2(exm, phi, crange=(0.4, 2.2), count=4)
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
    comp = build_complementary(phi, exm.cover)
    pushed = pushforward_polarization(phi, pol)
    moved = enumerate_leaves(comp.base, pushed, (0.5, 0.5), 1)[0]
    assert moved.topology == "line" and moved.label == 0.5
    with pytest.raises(HolonomyUndefinedError):
        holonomy(comp.base, pushed, moved)
    # so the census pairing has no pair to compare across the map
    rep = verify_theorem_2(exm, phi, crange=(-1.0, 1.0), count=5,
                           complementary=comp)
    assert rep.passed and rep.payload["leaf_pairs"] == []


def test_leaf_transport_round_trip_is_identity_on_labels(models):
    exm = models("torus", k=1)
    pol = exm.polarization()
    phi = catalog.make_map(exm, "translate:%.17g,0" % TWO_PI)  # k a in 2 pi Z
    comp = build_complementary(phi, exm.cover)
    assert isinstance(comp, ComplementaryCover)
    pushed = pushforward_polarization(phi, pol)
    labels = [l.label for l in enumerate_leaves(exm.cover, pol, (0, TWO_PI), 6)]
    back = [
        l.label for l in enumerate_leaves(comp.base, pushed, (0, TWO_PI), 6)
    ]
    assert np.allclose(sorted(labels), sorted(back), atol=1e-10)


def test_theorem_1_identity(models):
    exm = models("torus", k=1)
    rep = verify_theorem_1(exm, catalog.make_map(exm, "identity"), grid_n=24)
    assert rep.status == "ok" and rep.passed
    assert rep.payload["ranks"]["source"] == rep.payload["ranks"]["target"]


def test_theorem_1_plane_shear(models):
    exm = models("plane")
    rep = verify_theorem_1(exm, catalog.make_map(exm, "shear"), grid_n=32)
    assert rep.passed
    assert rep.payload["ranks"]["source"] == [32, 0, 0]
    assert rep.payload["commutation_residual"] < 1e-9


def test_theorem_1_two_element_plane_shear(models):
    exm = models("plane", granularity=2)
    rep = verify_theorem_1(exm, catalog.make_map(exm, "shear"), grid_n=24)
    assert rep.passed and rep.payload["ranks"]["equal"]
    assert rep.payload["commutation_residual"] < 1e-9


def test_theorem_1_obstructed_reports_hypothesis_failure(models):
    exm = models("torus", k=2)
    rep = verify_theorem_1(exm, catalog.make_map(exm, "translate:0.7,0"))
    assert rep.status == "hypothesis-failed" and not rep.passed
    assert rep.witness is not None and rep.witness["deviation"] > 1e-6


def test_theorem_1_builds_one_grid_per_side(models, monkeypatch):
    exm = models("torus", k=2)
    phi = catalog.make_map(exm, f"translate:{math.pi:.17g},0")
    comp = build_complementary(phi, exm.cover)
    build = TransversalGrid.build.__func__
    grids = []

    def counted(cls, *args, **kwargs):
        grids.append(build(cls, *args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(TransversalGrid, "build", classmethod(counted))
    rep = verify_theorem_1(exm, phi, grid_n=16, complementary=comp)
    assert rep.passed and len(grids) == 2
    assert rep.counters["grid_builds"] == 2
    # the commutation check's transport integrals are counted with the ranks'
    assert rep.counters["transport_integrals"] == sum(
        g.leaf_transport.integrals_computed for g in grids
    )
    # a handed-in grid gives the report a grid of its own gives
    pol = exm.polarization()
    for grid, cover, polarization in zip(
        grids, (exm.cover, comp.base), (pol, pushforward_polarization(phi, pol))
    ):
        assert grid.cover is cover
        given = cech.cohomology_ranks(cover, grid.polarization, 16, grid=grid)
        own = cech.cohomology_ranks(cover, polarization, 16)
        assert given.as_dict() == own.as_dict()
    with pytest.raises(ConfigurationError, match="another cover"):
        cech.cohomology_ranks(comp.base, pol, 16, grid=grids[0])
    with pytest.raises(ConfigurationError, match="holds 16 labels"):
        cech.cohomology_ranks(exm.cover, pol, 8, grid=grids[0])


def test_theorem_1_fails_on_a_corrupted_target_transition(models):
    import dataclasses

    exm = models("torus", k=2)
    phi = catalog.make_map(exm, f"translate:{math.pi:.17g},0")
    comp = build_complementary(phi, exm.cover)
    data = comp.base.data
    pair = sorted(data.transitions)[0]
    transitions = dict(data.transitions)
    transitions[pair] = ex.mul(ex.Num(1.01), transitions[pair])
    base = dataclasses.replace(
        comp.base, data=dataclasses.replace(data, transitions=transitions)
    )
    corrupted = dataclasses.replace(comp, base=base)
    assert verify_theorem_1(exm, phi, grid_n=16, complementary=comp).passed
    rep = verify_theorem_1(exm, phi, grid_n=16, complementary=corrupted)
    assert rep.status == "ok" and not rep.passed
    assert rep.payload["commutation_residual"] > 1e-6


def test_theorem_reuses_only_a_cover_built_for_its_map(models):
    exm = models("cylinder")
    phi = catalog.make_map(exm, "pshift:1")
    comp = build_complementary(phi, exm.cover)
    rep = verify_theorem_2(exm, phi, complementary=comp)
    assert rep.passed and rep.payload["complementary"] == comp.as_dict()
    other = catalog.make_map(exm, "pshift:2")
    with pytest.raises(ConfigurationError, match="another map"):
        verify_theorem_2(exm, other, complementary=comp)


def test_theorem_2_identity(models):
    exm = models("sphere", k=2)
    rep = verify_theorem_2(exm, catalog.make_map(exm, "identity"))
    assert rep.passed
    assert rep.payload["q_bs"]["source"] == rep.payload["q_bs"]["target"]


def test_theorem_2_sphere_rotation(models):
    exm = models("sphere", k=3)
    rep = verify_theorem_2(exm, catalog.make_map(exm, "rot:1.0"))
    assert rep.passed
    assert rep.payload["q_bs"] == {"source": 4, "target": 4}
    assert rep.payload["holonomy_max_difference"] < 1e-9
    assert len(rep.payload["bs_locations"]["source"]) == 2  # interior circles


def test_theorem_2_disk_rotation(models):
    exm = models("disk")
    rep = verify_theorem_2(exm, catalog.make_map(exm, "rot:0.9"))
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

    transports, after_censuses = [], []
    real_init = transport_mod.LeafTransport.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        transports.append(self)

    real_census = action.bs_census

    def census(*args, **kwargs):
        rep = real_census(*args, **kwargs)
        after_censuses.append([t.integrals_computed for t in transports])
        return rep

    monkeypatch.setattr(transport_mod.LeafTransport, "__init__", recording_init)
    monkeypatch.setattr(action, "bs_census", census)
    exm = models(name, **params)
    phi = catalog.make_map(exm, spec)
    rep = verify_theorem_2(exm, phi)
    assert rep.passed and len(after_censuses) == 2 and len(transports) == 2
    assert all(t.integrals_computed > 0 for t in transports)
    assert [t.integrals_computed for t in transports] == after_censuses[-1]
    # and the pairs are the holonomies a fresh transport gives, exactly
    pol = exm.polarization()
    comp = build_complementary(phi, exm.cover)
    pushed = pushforward_polarization(phi, pol)
    leaves = {leaf.label: leaf for leaf in enumerate_leaves(
        exm.cover, pol, exm.census_range, 33)}
    moved = {leaf.label: leaf for leaf in enumerate_leaves(
        comp.base, pushed, exm.census_range, 33)}
    assert len(rep.payload["leaf_pairs"]) == len(leaves) == len(moved)
    for pair in rep.payload["leaf_pairs"]:
        here = holonomy(exm.cover, pol, leaves[pair["label"]]).holonomy
        there = holonomy(comp.base, pushed, moved[pair["label"]]).holonomy
        assert pair["holonomy_source"] == [here.real, here.imag]
        assert pair["holonomy_target"] == [there.real, there.imag]


def test_theorem_2_names_a_label_the_censuses_do_not_share(models, monkeypatch,
                                                            capsys):
    # the leaf pairs zip the two censuses; a target census that samples
    # another label is a fault of the program, not a failed theorem
    from dataclasses import replace

    from gqlab import cli

    calls = []

    def census(*args, **kwargs):
        rep = bs_census(*args, **kwargs)
        calls.append(rep)
        if len(calls) % 2:
            return rep
        entries = list(rep.entries)
        entries[3] = replace(entries[3], leaf=replace(entries[3].leaf, label=0.1234))
        return replace(rep, entries=tuple(entries))

    monkeypatch.setattr(action, "bs_census", census)
    exm = models("torus", k=2)
    with pytest.raises(InternalConsistencyError, match="0.1234"):
        verify_theorem_2(exm, catalog.make_map(exm, "translate:pi,0"))
    code = cli.main(["act", "--example", "torus", "--k", "2",
                     "--map", "translate:pi,0", "--verify", "thm2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal invariant violation:") and "0.1234" in err
