"""The symplectomorphism action on quantizations.

build_complementary carries out the gauge-fixing construction: starting
from naive local data on the pulled-back cover, it integrates the exact
gauge 1-form on each element, extracts the locally constant cocycle by
which the gauged transitions differ from the pulled-back ones, and solves
the coboundary problem over the nerve graph by spanning tree.  Independent
cycles with product away from 1 are the topological obstruction; they are
returned as a witness instead of a cover.

The theorem verifications compare the two computable quantizations across
the map: equal cohomology ranks plus a chain map commuting with the
differential, and a Bohr-Sommerfeld census bijection with matching
holonomies.  The target side is the pullback cover with the pushforward
polarization, which carry phi between them (pulled-back formulas, moved
leaf curves and singular points), so no point is moved through the map
here: the chain map is the identity on the coefficients of the two grids,
theorem 1 applies the two sides' differentials (the blocks that their
grids keep) to one coefficient vector and compares them in tuple form, and theorem 2 pairs the leaves of the source census with those of
the target census, label by label.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import kernels, program, trace
# enumerate_leaves and holonomy stay bound here: perfbench/tracing.py wraps
# action.enumerate_leaves and action.holonomy
from .bohr import UnresolvedCensusError, bs_census, enumerate_leaves, holonomy  # noqa: F401
# delta stays bound here: perfbench/tracing.py wraps action.delta
from .cech import cohomology_ranks, delta, half_offset_grid, psi
from .geometry import (
    Polarization,
    Symplectomorphism,
    pushforward_polarization,
)
from .prequantum import (
    ConfigurationError,
    TrivializationCover,
    pullback,
)
from .quadrature import integrate


# the gauge 1-form of build_complementary must be closed to CLOSEDNESS_TOL;
# theorem 1 passes when the chain map commutes with the differential to
# COMMUTATION_TOL, theorem 2 when paired holonomies agree to HOLONOMY_TOL
CLOSEDNESS_TOL = 1e-9
COMMUTATION_TOL = 1e-9
HOLONOMY_TOL = 1e-9


class InternalConsistencyError(RuntimeError):
    """Builtin data violated an identity the construction relies on."""


class CocycleObstruction(NamedTuple):
    constants: Mapping  # (a, b, comp) -> complex, a < b; read-only
    witness_cycle: tuple  # element indices around an unsolvable cycle
    cycle_product: complex
    deviation: float  # |product - 1|
    constancy_max: float

    def as_dict(self) -> dict:
        return {
            "witness_cycle": list(self.witness_cycle),
            "cycle_product": [self.cycle_product.real, self.cycle_product.imag],
            "deviation": self.deviation,
            "constancy_max": self.constancy_max,
            "constants": {
                f"{a},{b},{comp}": [v.real, v.imag]
                for (a, b, comp), v in sorted(self.constants.items())
            },
        }


class ComplementaryCover(NamedTuple):
    base: TrivializationCover  # pullback cover carrying the exact pulled-back data
    source: TrivializationCover
    phi: Symplectomorphism
    constants: Mapping  # the solved cocycle e; read-only
    tree_solution: Mapping  # w per element with w_b / w_a = e_ab; read-only
    gauge_closedness_max: float
    constancy_max: float
    certificate_max: float  # gauged naive data vs pulled-back data, sampled

    def as_dict(self) -> dict:
        return {
            "gauge_closedness_max": self.gauge_closedness_max,
            "constancy_max": self.constancy_max,
            "certificate_max": self.certificate_max,
            "tree_solution": {
                str(a): [w.real, w.imag] for a, w in sorted(self.tree_solution.items())
            },
        }


def gauge_potentials(naive, pulled, elements: np.ndarray, pts):
    """f_a, the primitive of the closed gauge 1-form theta_naive - phi^* theta
    on element a that vanishes at the element's center, at each canonical
    point of pts, (n, 2), for a = elements[i]; returns the (n,) values.

    The path to a target runs along x from the center (x_c, y_c) to the
    target's x0, then along y at x0, both legs in the element's own frame
    (docs/conventions.md, "Gauge integrals").  The x legs depend only on
    x0 and are taken once per distinct x0, the y legs once per target; an
    empty leg is 0 and is not evaluated.  A leg whose component of the
    gauge form does not read the leg's variable is that component's value
    at the leg's start times the leg's length: g_0(x_c, y_c) (x0 - x_c)
    for an x leg, g_1(x0, y_c) (x1 - y_c) for a y leg.  The other legs are
    the rows of one integrate call per element.  Counts the closed-form
    legs (gauge_exact), the integrated ones (gauge_integrals) and the
    points at which the gauge form was evaluated (gauge_nodes).
    """
    coords = naive.manifold.coords
    out = np.empty(len(pts), dtype=np.complex128)
    for a in np.flatnonzero(np.bincount(elements)).tolist():
        rows = np.flatnonzero(elements == a)
        lifted = naive.member_points(a, pts[rows])
        if np.any(np.isnan(lifted)):
            raise ConfigurationError(
                f"potential of element {a} requested outside the element"
            )
        # BinOp, not ex.sub, which folds 0 - x into -x and can flip the sign
        # of a zero that the difference of the two potentials keeps
        diffs = [
            ex.BinOp("-", tn, tp)
            for tn, tp in zip(naive.data.potentials[a], pulled.data.potentials[a])
        ]
        g_x, g_y = (program.compile_expr(d, coords) for d in diffs)
        exact_x, exact_y = coords[0] not in g_x.reads, coords[1] not in g_y.reads
        x_base, y_base = naive.elements[a].center()
        x0s, x_leg = np.unique(lifted[:, 0], return_inverse=True)
        x_legs = np.zeros(len(x0s), dtype=np.complex128)
        y_legs = np.zeros(len(lifted), dtype=np.complex128)
        lx = np.flatnonzero(x0s != x_base)  # the legs that are not empty
        ly = np.flatnonzero(lifted[:, 1] != y_base)
        if exact_x and lx.size:  # one value at the center serves every x leg
            g0 = kernels.evaluate(g_x, {coords[0]: x_base, coords[1]: y_base})
            x_legs[lx] = g0 * (x0s[lx] - x_base)
            trace.count("gauge_exact", lx.size)
            trace.count("gauge_nodes")
            lx = lx[:0]
        if exact_y and ly.size:
            g1 = kernels.evaluate(g_y, {coords[0]: lifted[ly, 0], coords[1]: y_base})
            y_legs[ly] = g1 * (lifted[ly, 1] - y_base)
            trace.count("gauge_exact", ly.size)
            trace.count("gauge_nodes", ly.size)
            ly = ly[:0]
        if lx.size + ly.size:  # the other legs, the x legs first, in one call
            x_y = lifted[ly, 0]

            def legs(ts):
                """g_x at (t, y_base) on the x legs, g_y at (x0, t) on the y legs."""
                n = ts.shape[1]
                tx, ty = ts[: lx.size].ravel(), ts[lx.size :].ravel()
                vals = np.concatenate(
                    [
                        kernels.evaluate(g_x, {coords[0]: tx, coords[1]: y_base}),
                        kernels.evaluate(g_y, {coords[0]: np.repeat(x_y, n), coords[1]: ty}),
                    ]
                )
                trace.count("gauge_nodes", ts.size)
                return vals.reshape(ts.shape)

            starts = np.repeat([x_base, y_base], [lx.size, ly.size])
            legs_int = integrate(legs, starts, np.concatenate([x0s[lx], lifted[ly, 1]]))
            x_legs[lx], y_legs[ly] = legs_int[: lx.size], legs_int[lx.size :]
            trace.count("gauge_integrals", lx.size + ly.size)
        out[rows] = x_legs[x_leg] + y_legs
    return out


def overlap_constants(naive, pulled) -> tuple:
    """Steps 2 and 3 of build_complementary on the nerve naive and pulled
    share: (gauge_closedness_max, constants, constancy_max, ratios), with
    the ratio samples of each overlap cell by key.  The gauge counters read
    0 when no overlap needs a gauge integral.

    Each step makes one accessor call per cover on all the samples of its
    degree; the maxima, means and spreads are taken cell by cell, on
    slices, so every value is the one a cell-by-cell construction gives.
    """
    manifold, nerve = naive.manifold, naive.nerve
    trace.count("gauge_exact", 0)
    trace.count("gauge_integrals", 0)
    trace.count("gauge_nodes", 0)
    # Step 2: the gauge 1-form g = theta_naive - phi^* theta must be closed;
    # a cell whose residual has no value drops out of the fold
    s0 = nerve.samples(0, manifold)
    (el,) = s0.members.T
    resid = np.abs(naive.curvature(el, s0.points) - pulled.curvature(el, s0.points))
    cell_resids = np.split(resid, np.cumsum(s0.sizes)[:-1])
    closed_max = max([0.0] + [float(np.max(r)) for r in cell_resids])
    if closed_max > CLOSEDNESS_TOL:
        raise InternalConsistencyError(
            f"gauge 1-form is not closed (residual {closed_max:.3e}); "
            "naive pulled-back data is inconsistent"
        )

    # Step 3: constants e = lambda_naive e^{-i(f_a - f_b)} / phi^* lambda,
    # which must be constant on each overlap.
    s1 = nerve.samples(1, manifold)
    if not s1.keys:  # one element: no overlaps
        return closed_max, {}, 0.0, {}
    a, b = s1.members.T
    n = len(s1.points)
    f = gauge_potentials(  # each cell's samples for a, then each cell's for b
        naive, pulled, np.broadcast_to(s1.members, (n, 2)).T.ravel(),
        np.concatenate([s1.points] * 2),
    )
    ratios = (
        naive.transition(a, b, s1.points)
        * np.exp(-1j * (f[:n] - f[n:]))
        / pulled.transition(a, b, s1.points)
    )
    constants = {}
    constancy_max = 0.0
    cell_ratios = {}
    for key, ratio in zip(s1.keys, np.split(ratios, np.cumsum(s1.sizes)[:-1])):
        mean = complex(np.mean(ratio))
        spread = float(np.max(np.abs(ratio - mean)))
        constancy_max = max(constancy_max, spread)
        if spread > 1e-8 * (1.0 + abs(mean)):
            raise InternalConsistencyError(
                f"cocycle constant on overlap {key} is not constant "
                f"(spread {spread:.3e})"
            )
        constants[(*key[0], key[1])] = mean
        cell_ratios[key] = ratio
    return closed_max, constants, constancy_max, cell_ratios


def build_complementary(phi: Symplectomorphism, example):
    """Complementary cover for phi over example.cover, or the obstruction
    witness.

    Mirrors the existence argument: (1) instantiate naive local data on the
    pulled-back elements with example.data_builder, (2) gauge its potentials
    onto the pullback of the source potentials by integrating the (verified
    closed) difference along axis-aligned two-segment paths, (3) compare
    gauged transitions with pulled-back ones, check the ratios are constant
    on each overlap component (overlap_constants), and solve them as a
    coboundary over the nerve graph.  Any independent cycle whose product
    of constants is away from 1 certifies that no complementary cover
    exists for this choice.
    """
    cover = example.cover
    cover.nerve.require_degree(1, "build_complementary")
    pulled = pullback(cover, phi)
    naive = TrivializationCover(
        manifold=cover.manifold,
        omega=cover.omega,
        elements=pulled.elements,
        data=example.data_builder(pulled.elements),
        nerve=pulled.nerve,
    )
    closed_max, constants, constancy_max, certificate_samples = overlap_constants(naive, pulled)

    # Step 4: solve w_b / w_a = e_ab over the nerve graph by spanning tree.
    n_elem = len(cover.elements)
    w = {0: 1.0 + 0.0j}
    parent = {0: None}
    edges = sorted(constants)
    adjacency = {}
    for a, b, comp in edges:
        adjacency.setdefault(a, []).append((b, (a, b, comp), False))
        adjacency.setdefault(b, []).append((a, (a, b, comp), True))
    queue = [0]
    tree_edges = set()
    while queue:
        v = queue.pop(0)
        for u, edge, reverse in adjacency.get(v, []):
            if u in w:
                continue
            e_val = constants[edge]
            w[u] = w[v] / e_val if reverse else w[v] * e_val
            parent[u] = (v, edge)
            tree_edges.add(edge)
            queue.append(u)
    if len(w) != n_elem:
        missing = sorted(set(range(n_elem)) - set(w))
        raise ConfigurationError(f"nerve graph is disconnected at {missing}")

    def path_to_root(v):
        path = []
        while parent[v] is not None:
            path.append(v)
            v = parent[v][0]
        path.append(v)
        return path

    worst = None
    for a, b, comp in edges:
        if (a, b, comp) in tree_edges:
            continue
        product = constants[(a, b, comp)] * w[a] / w[b]
        dev = abs(product - 1.0)
        if worst is None or dev > worst[0]:
            pa, pb = path_to_root(a), path_to_root(b)
            while len(pa) > 1 and len(pb) > 1 and pa[-1] == pb[-1] and pa[-2] == pb[-2]:
                pa.pop()
                pb.pop()
            cycle = pb + list(reversed(pa))[1:]
            worst = (dev, complex(product), tuple(cycle))
    if worst is not None and worst[0] > 1e-6:
        return CocycleObstruction(
            constants=MappingProxyType(constants),
            witness_cycle=worst[2],
            cycle_product=worst[1],
            deviation=worst[0],
            constancy_max=constancy_max,
        )

    # Step 5: certificate that the gauged naive data equals the pullback.
    cert = 0.0
    for key, ratio in certificate_samples.items():
        a, b = key[0]
        resid = np.abs(ratio * w[a] / w[b] - 1.0)
        cert = max(cert, float(np.max(resid)))
    return ComplementaryCover(
        base=pulled,
        source=cover,
        phi=phi,
        constants=MappingProxyType(constants),
        tree_solution=MappingProxyType(w),
        gauge_closedness_max=closed_max,
        constancy_max=constancy_max,
        certificate_max=cert,
    )


# ---------------------------------------------------------------------------
# Theorem verification


class CorrespondenceReport(NamedTuple):
    theorem: int
    status: str  # ok | hypothesis-failed | census-unresolved
    passed: bool
    witness: dict | None = None
    payload: Mapping = MappingProxyType({})

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "status": self.status,
            "pass": self.passed,
            "witness": self.witness,
            **self.payload,
        }


def verify_theorem_1(
    comp: ComplementaryCover,
    pol: Polarization,
    grid_n: int = 32,
    threshold: float = 1e-8,
    seed: int = 0,
) -> CorrespondenceReport:
    """Sheaf-quantization invariance at one cover: per-degree rank equality
    between (comp.source, pol) and (comp.base, comp.phi(pol)), plus the
    chain map commuting with the differential.

    The chain map is the identity on coefficients: the pullback grid's
    basepoints are the phi-preimages of the source ones, where f o phi
    takes the values of f.  So the check draws a random coefficient vector
    v per degree from seed and compares psi(delta_dst v) with
    psi(delta_src v), with the blocks each grid keeps, in tuple form, which
    reads the transitions of every overlap in both orientations."""
    pushed = pushforward_polarization(comp.phi, pol)
    # one grid per side, on the same labels; its blocks serve the ranks
    # and the commutation check
    grid_src = half_offset_grid(comp.source, pol, grid_n)
    grid_dst = half_offset_grid(comp.base, pushed, grid_n)
    trace.count("grid_builds", 2)
    ranks_src = cohomology_ranks(grid_src, threshold)
    ranks_dst = cohomology_ranks(grid_dst, threshold)
    equal = all(
        a.betti == b.betti for a, b in zip(ranks_src.degrees, ranks_dst.degrees)
    )
    rng = np.random.default_rng(seed)
    commute = 0.0
    for degree in (0, 1):
        if not grid_src.degree_keys(degree + 1):
            continue
        n = int(grid_src.degrees[degree].starts[-1])
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = psi(grid_dst, degree + 1, delta(grid_dst.operators[degree], v))
        rhs = psi(grid_src, degree + 1, delta(grid_src.operators[degree], v))
        commute = max(commute, float(np.max(np.abs(lhs - rhs), initial=0.0)))
    sound = not (ranks_src.negative_degrees or ranks_dst.negative_degrees)  # dimensions
    passed = equal and sound and commute < COMMUTATION_TOL
    return CorrespondenceReport(
        theorem=1,
        status="ok",
        passed=passed,
        payload={
            "ranks": {
                "source": [d.betti for d in ranks_src.degrees],
                "target": [d.betti for d in ranks_dst.degrees],
                "equal": equal,
            },
            "rank_report_source": ranks_src.as_dict(),
            "rank_report_target": ranks_dst.as_dict(),
            "commutation_residual": commute,
            "complementary": comp.as_dict(),
        },
    )


def _leaf_columns(census) -> tuple:
    """A census's leaf labels in report order, and its closed leaves'
    labels, topologies and holonomies: the sampled circle leaves, then the
    point leaves, whose holonomy is 1."""
    circles, points = census.labels.tolist(), [c for c, _ in census.points]
    return (circles + list(census.lines) + points, circles + points,
            ["circle"] * len(circles) + ["point"] * len(points),
            census.holonomies.tolist() + [1.0 + 0.0j] * len(points))


def verify_theorem_2(
    comp: ComplementaryCover,
    pol: Polarization,
    crange: tuple,
    count: int = 33,
) -> CorrespondenceReport:
    """Bohr-Sommerfeld invariance: the leaf map is a label-preserving
    bijection matching holonomies, and the BS censuses agree.

    comp.phi carries the leaf of P through a label to the leaf of phi(P)
    through the same label, so the two censuses sample the same labels, and
    the leaf pairs are their label and holonomy columns side by side, the
    point leaves after them: the source holonomy in comp.source, the target
    one in comp.base.  A sampled label that differs between them raises
    InternalConsistencyError."""
    pushed = pushforward_polarization(comp.phi, pol)
    try:
        census_src = bs_census(comp.source, pol, crange, count)
        census_dst = bs_census(comp.base, pushed, crange, count)
    except UnresolvedCensusError as exc:
        return CorrespondenceReport(
            2, "census-unresolved", False, payload={"unresolved": str(exc)}
        )
    (labels, closed, kinds, hols), (there_labels, _, _, there_hols) = (
        _leaf_columns(census) for census in (census_src, census_dst)
    )
    if len(labels) != len(there_labels):
        raise InternalConsistencyError(
            f"censuses sample {len(labels)} and {len(there_labels)} leaves across the map"
        )
    for c, u in zip(labels, there_labels):
        if c != u:
            raise InternalConsistencyError(f"census leaf {c!r} meets label {u!r} across the map")
    hol_max = 0.0
    pairs = []
    for c, kind, here, there in zip(closed, kinds, hols, there_hols):
        diff = abs(here - there)
        hol_max = max(hol_max, diff)
        pairs.append(
            {
                "label": c,
                "topology": kind,
                "holonomy_source": [here.real, here.imag],
                "holonomy_target": [there.real, there.imag],
                "difference": diff,
            }
        )
    locs_src = np.array(census_src.bs_locations)
    locs_dst = np.array(census_dst.bs_locations)
    bijection = len(locs_src) == len(locs_dst) and (
        len(locs_src) == 0 or float(np.max(np.abs(locs_src - locs_dst))) < 1e-8
    )
    passed = (
        bijection
        and census_src.q_bs == census_dst.q_bs
        and hol_max < HOLONOMY_TOL
    )
    return CorrespondenceReport(
        theorem=2,
        status="ok",
        passed=passed,
        payload={
            "q_bs": {"source": census_src.q_bs, "target": census_dst.q_bs},
            "bs_locations": {
                "source": list(census_src.bs_locations),
                "target": list(census_dst.bs_locations),
            },
            "holonomy_max_difference": hol_max,
            "leaf_pairs": pairs,
            "complementary": comp.as_dict(),
        },
    )
