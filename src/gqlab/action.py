"""The symplectomorphism action on quantizations.

build_complementary carries out the gauge-fixing construction: starting
from naive local data on the pulled-back cover, it integrates the exact
gauge 1-form on each element, extracts the locally constant cocycle by
which the gauged transitions differ from the pulled-back ones, and solves
the coboundary problem over the nerve graph by spanning tree.  Independent
cycles with product away from 1 are the topological obstruction; they are
returned as a witness instead of a cover.

The theorem verifications compare the two computable quantizations across
the map: equal cohomology ranks plus a commuting chain map, and a
Bohr-Sommerfeld census bijection with matching holonomies.  The target
side is the pullback cover with the pushforward polarization, which carry
phi between them (pulled-back formulas, moved leaf curves and singular
points), so no point is moved through the map here: theorem 2 pairs the
leaves of the source census with those of the target census, label by
label.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import kernels, program
# enumerate_leaves and holonomy stay bound here: perfbench/tracing.py wraps
# action.enumerate_leaves and action.holonomy
from .bohr import bs_census, enumerate_leaves, holonomy  # noqa: F401
from .cech import (
    TransversalGrid,
    TrivCochain,
    cohomology_ranks,
    delta,
    half_offset_labels,
    random_projected_cochain,
)
from .geometry import (
    Symplectomorphism,
    pushforward_polarization,
)
from .prequantum import (
    ConfigurationError,
    TrivializationCover,
    pullback,
)
from .quadrature import integrate


class InternalConsistencyError(RuntimeError):
    """Builtin data violated an identity the construction relies on."""


@dataclass(frozen=True)
class CocycleObstruction:
    constants: dict  # (a, b, comp) -> complex, a < b
    witness_cycle: tuple  # element indices around an unsolvable cycle
    cycle_product: complex
    deviation: float  # |product - 1|
    constancy_max: float
    counters: dict = field(default_factory=dict, compare=False)  # work done

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


@dataclass(frozen=True)
class ComplementaryCover:
    base: TrivializationCover  # pullback cover carrying the exact pulled-back data
    source: TrivializationCover
    phi: Symplectomorphism
    constants: dict  # the solved cocycle e
    tree_solution: dict  # w per element with w_b / w_a = e_ab
    gauge_closedness_max: float
    constancy_max: float
    certificate_max: float  # gauged naive data vs pulled-back data, sampled
    counters: dict = field(default_factory=dict, compare=False)  # work done

    def as_dict(self) -> dict:
        return {
            "gauge_closedness_max": self.gauge_closedness_max,
            "constancy_max": self.constancy_max,
            "certificate_max": self.certificate_max,
            "tree_solution": {
                str(a): [w.real, w.imag] for a, w in sorted(self.tree_solution.items())
            },
        }


def gauge_potentials(naive, pulled, targets: dict, counters: dict) -> dict:
    """f_a, the primitive of the closed gauge 1-form theta_naive - phi^* theta
    on element a that vanishes at the element's center, at targets[a]: a
    list of (n, 2) arrays of canonical points.  Returns the values in the
    same layout, a list of (n,) arrays per element.

    The path to a target runs along x from the center to the target's x0,
    then along y at x0, both legs in the element's own frame
    (docs/conventions.md, "Gauge integrals").  One integrate call per
    element integrates the x leg once per distinct x0 and the y leg once per
    target, one row per leg that is not empty.  counters gains the leg
    integrals and the points evaluated.
    """
    coords = naive.manifold.coords
    out = {}
    for a, parts in targets.items():
        lifted = naive.member_points(a, np.concatenate(parts))
        if np.any(np.isnan(lifted)):
            raise ConfigurationError(
                f"potential of element {a} requested outside the element"
            )
        # BinOp, not ex.sub, which folds 0 - x into -x and can flip the sign
        # of a zero that the difference of the two potentials keeps
        g_x, g_y = (
            program.compile_expr(ex.BinOp("-", tn, tp), coords)
            for tn, tp in zip(naive.data.potentials[a], pulled.data.potentials[a])
        )
        x_base, y_base = naive.elements[a].box.center()
        x0s, x_leg = np.unique(lifted[:, 0], return_inverse=True)
        # the x legs, then the y legs; empty legs are 0 and not evaluated
        starts = np.repeat([x_base, y_base], [len(x0s), len(lifted)])
        ends = np.concatenate([x0s, lifted[:, 1]])
        live = np.flatnonzero(starts != ends)
        n_x = int(np.count_nonzero(live < len(x0s)))  # the live x legs
        x_y = lifted[live[n_x:] - len(x0s), 0]

        def legs(ts):
            """g_x at (t, y_base) on the x legs, g_y at (x0, t) on the y legs."""
            n = ts.shape[1]
            tx, ty = ts[:n_x].ravel(), ts[n_x:].ravel()
            vals = np.concatenate(
                [
                    kernels.evaluate(g_x, {coords[0]: tx + 0j, coords[1]: y_base + 0j}),
                    kernels.evaluate(
                        g_y, {coords[0]: np.repeat(x_y, n) + 0j, coords[1]: ty + 0j}
                    ),
                ]
            )
            counters["gauge_nodes"] += ts.size
            return vals.reshape(ts.shape)

        legs_int = np.zeros(len(starts), dtype=np.complex128)
        legs_int[live] = integrate(legs, starts[live], ends[live])
        counters["gauge_integrals"] += len(live)
        f = legs_int[: len(x0s)][x_leg] + legs_int[len(x0s) :]
        out[a] = np.split(f, np.cumsum([len(p) for p in parts[:-1]]))
    return out


def build_complementary(
    phi: Symplectomorphism,
    cover: TrivializationCover,
    naive_builder=None,
    tol: float = 1e-9,
):
    """Complementary cover for phi, or the obstruction witness.

    Mirrors the existence argument: (1) instantiate naive local data on the
    pulled-back elements, (2) gauge its potentials onto the pullback of the
    source potentials by integrating the (verified closed) difference along
    axis-aligned two-segment paths, (3) compare gauged transitions with
    pulled-back ones, check the ratios are constant on each overlap
    component, and solve them as a coboundary over the nerve graph.  Any
    independent cycle whose product of constants is away from 1 certifies
    that no complementary cover exists for this choice.
    """
    if cover.pullback_of is not None:
        raise ConfigurationError("complementary covers are built over base covers")
    for el in cover.elements:
        if not el.contractible:
            raise ConfigurationError(
                f"element {el.index} is not contractible; the construction "
                "requires a good cover"
            )
    builder = naive_builder or cover.meta.get("data_builder")
    if builder is None:
        raise ConfigurationError(
            "no naive pulled-back data available for this cover"
        )
    manifold = cover.manifold
    pulled = pullback(cover, phi)
    nerve = pulled.nerve
    naive = TrivializationCover(
        manifold=manifold,
        omega=cover.omega,
        elements=pulled.elements,
        data=builder([el.box for el in pulled.elements]),
        nerve=nerve,
        meta={"name": f"naive-pullback({cover.meta.get('name')})"},
    )

    # Step 2: the gauge 1-form g = theta_naive - phi^* theta must be closed.
    closed_max = 0.0
    for key, cell in nerve.cells.items():
        if cell.degree != 0 or len(cell.samples) == 0:
            continue
        pts = manifold.reduce(cell.samples)
        resid = np.abs(
            naive.curvature(cell.indices[0], pts)
            - pulled.curvature(cell.indices[0], pts)
        )
        closed_max = max(closed_max, float(np.max(resid)))
    if closed_max > tol:
        raise InternalConsistencyError(
            f"gauge 1-form is not closed (residual {closed_max:.3e}); "
            "naive pulled-back data is inconsistent"
        )

    # Step 3: constants e = lambda_naive e^{-i(f_a - f_b)} / phi^* lambda.
    cells = [
        (key, cell, manifold.reduce(cell.samples))
        for key, cell in sorted(nerve.cells.items())
        if cell.degree == 1 and len(cell.samples)
    ]
    targets: dict = {}
    for _, cell, pts in cells:
        for a in cell.indices:
            targets.setdefault(a, []).append(pts)
    counters = {"gauge_integrals": 0, "gauge_nodes": 0}
    # each element's values come back in the order its cells were added
    f_alpha = {
        a: iter(values)
        for a, values in gauge_potentials(naive, pulled, targets, counters).items()
    }
    constants = {}
    constancy_max = 0.0
    certificate_samples = {}
    for key, cell, pts in cells:
        a, b = cell.indices
        f_a, f_b = next(f_alpha[a]), next(f_alpha[b])
        ratio = (
            naive.transition(a, b, pts)
            * np.exp(-1j * (f_a - f_b))
            / pulled.transition(a, b, pts)
        )
        mean = complex(np.mean(ratio))
        spread = float(np.max(np.abs(ratio - mean)))
        constancy_max = max(constancy_max, spread)
        if spread > 1e-8 * (1.0 + abs(mean)):
            raise InternalConsistencyError(
                f"cocycle constant on overlap {key} is not constant "
                f"(spread {spread:.3e})"
            )
        constants[(a, b, cell.comp)] = mean
        certificate_samples[key] = ratio

    # Step 4: solve w_b / w_a = e_ab over the nerve graph by spanning tree.
    n_elem = len(cover.elements)
    w = {0: 1.0 + 0.0j}
    parent = {0: None}
    order = [0]
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
            order.append(u)
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
            constants=constants,
            witness_cycle=worst[2],
            cycle_product=worst[1],
            deviation=worst[0],
            constancy_max=constancy_max,
            counters=counters,
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
        constants=constants,
        tree_solution=w,
        gauge_closedness_max=closed_max,
        constancy_max=constancy_max,
        certificate_max=cert,
        counters=counters,
    )


# ---------------------------------------------------------------------------
# Chain map


def chain_map(
    cochain: TrivCochain,
    phi: Symplectomorphism,
    complementary: ComplementaryCover,
    grid_src: TransversalGrid,
    grid_dst: TransversalGrid,
) -> TrivCochain:
    """Composition with phi, as a cochain on the complementary cover.

    Grid basepoints of the pullback cover are the phi-preimages of the
    source basepoints, so the component functions f o phi take the same
    values there; the data transports verbatim onto the transported grid.
    """
    if complementary.phi is not phi:
        raise ConfigurationError("chain_map must use the complementary cover's map")
    if grid_dst.cover is not complementary.base:
        raise ConfigurationError("destination grid is not on the complementary cover")
    if len(grid_src.labels) != len(grid_dst.labels) or np.any(
        grid_src.labels != grid_dst.labels
    ):
        raise ConfigurationError("chain_map requires matching label grids")
    return TrivCochain(cochain.degree, {k: v.copy() for k, v in cochain.data.items()})


# ---------------------------------------------------------------------------
# Theorem verification


@dataclass(frozen=True)
class CorrespondenceReport:
    theorem: int
    status: str  # ok | hypothesis-failed
    passed: bool
    witness: dict | None = None
    payload: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict, compare=False)  # work done

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "status": self.status,
            "pass": self.passed,
            "witness": self.witness,
            **self.payload,
        }


def _complementary_or_report(example, phi, theorem: int, built=None):
    """The complementary cover, or the hypothesis-failed report; `built` is
    a result of build_complementary(phi, example.cover) to reuse."""
    if built is None:
        built = build_complementary(phi, example.cover)
    elif isinstance(built, ComplementaryCover) and (
        built.phi is not phi or built.source is not example.cover
    ):
        raise ConfigurationError("complementary cover is for another map or cover")
    if isinstance(built, CocycleObstruction):
        return None, CorrespondenceReport(
            theorem=theorem,
            status="hypothesis-failed",
            passed=False,
            witness=built.as_dict(),
        )
    return built, None


def verify_theorem_1(
    example,
    phi: Symplectomorphism,
    pol_name: str | None = None,
    grid_n: int = 32,
    threshold: float = 1e-8,
    seed: int = 0,
    commutation_tol: float = 1e-9,
    complementary=None,
) -> CorrespondenceReport:
    """Sheaf-quantization invariance at one cover: per-degree rank equality
    between (cover, P) and (complementary, phi(P)), plus the chain map
    commuting with the differential on random projected cochains.
    `complementary` reuses a build_complementary result for this phi."""
    comp, failed = _complementary_or_report(example, phi, 1, complementary)
    if failed is not None:
        return failed
    pol = example.polarization(pol_name)
    pushed = pushforward_polarization(phi, pol)
    # one grid per side serves the ranks and then, from its transport
    # cache, the commutation check
    labels = half_offset_labels(pol.label_range[0], pol.label_range[1], grid_n)
    grid_src = TransversalGrid.build(example.cover, pol, labels)
    grid_dst = TransversalGrid.build(comp.base, pushed, labels)
    ranks_src = cohomology_ranks(example.cover, pol, grid_n, threshold, grid=grid_src)
    ranks_dst = cohomology_ranks(comp.base, pushed, grid_n, threshold, grid=grid_dst)
    equal = all(
        a.betti == b.betti for a, b in zip(ranks_src.degrees, ranks_dst.degrees)
    )
    rng = np.random.default_rng(seed)
    commute = 0.0
    for degree in (0, 1):
        if not grid_src.degree_keys(degree + 1):
            continue
        c = random_projected_cochain(grid_src, degree, rng)
        lhs = delta(grid_dst, chain_map(c, phi, comp, grid_src, grid_dst))
        rhs_src = delta(grid_src, c)
        rhs = chain_map(rhs_src, phi, comp, grid_src, grid_dst)
        for key in lhs.data:
            if lhs.data[key].size:
                commute = max(
                    commute, float(np.max(np.abs(lhs.data[key] - rhs.data[key])))
                )
    passed = equal and commute < commutation_tol
    counters = Counter(grid_builds=2)
    for rep in (ranks_src, ranks_dst):
        counters.update(rep.counters)
    # the grids' transport counts include the commutation check's misses
    transports = (grid_src.leaf_transport, grid_dst.leaf_transport)
    counters["transport_integrals"] = sum(t.integrals_computed for t in transports)
    counters["transport_batches"] = sum(t.batches for t in transports)
    return CorrespondenceReport(
        theorem=1,
        status="ok",
        passed=passed,
        counters=dict(counters),
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


def verify_theorem_2(
    example,
    phi: Symplectomorphism,
    pol_name: str | None = None,
    crange: tuple | None = None,
    count: int = 33,
    tol: float = 1e-8,
    holonomy_tol: float = 1e-9,
    complementary=None,
) -> CorrespondenceReport:
    """Bohr-Sommerfeld invariance: the leaf map is a label-preserving
    bijection matching holonomies, and the BS censuses agree.

    phi carries the leaf of P through a label to the leaf of phi(P) through
    the same label, so the two censuses sample the same labels and the leaf
    pairs are their closed entries side by side: the source holonomy in
    the cover, the target one in the complementary cover.  A sampled label
    that differs between them raises InternalConsistencyError.
    `complementary` reuses a build_complementary result for this phi."""
    comp, failed = _complementary_or_report(example, phi, 2, complementary)
    if failed is not None:
        return failed
    pol = example.polarization(pol_name)
    pushed = pushforward_polarization(phi, pol)
    crange = crange or example.census_range
    census_src = bs_census(example.cover, pol, crange, count, tol)
    census_dst = bs_census(comp.base, pushed, crange, count, tol)
    if len(census_src.entries) != len(census_dst.entries):
        raise InternalConsistencyError(
            f"censuses sample {len(census_src.entries)} and "
            f"{len(census_dst.entries)} leaves across the map"
        )
    hol_max = 0.0
    pairs = []
    for src, dst in zip(census_src.entries, census_dst.entries):
        if src.leaf.label != dst.leaf.label:
            raise InternalConsistencyError(
                f"census leaf {src.leaf.label!r} meets label "
                f"{dst.leaf.label!r} across the map"
            )
        if src.leaf.topology == "line":
            continue
        here, there = src.holonomy.holonomy, dst.holonomy.holonomy
        diff = abs(here - there)
        hol_max = max(hol_max, diff)
        pairs.append(
            {
                "label": src.leaf.label,
                "topology": src.leaf.topology,
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
        and hol_max < holonomy_tol
    )
    counters = Counter(census_src.counters)
    counters.update(census_dst.counters)
    return CorrespondenceReport(
        theorem=2,
        status="ok",
        passed=passed,
        counters=dict(counters),
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
