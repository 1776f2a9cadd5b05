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
Bohr-Sommerfeld census bijection with matching holonomies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# enumerate_leaves stays bound here: perfbench/tracing.py wraps
# action.enumerate_leaves
from .bohr import Leaf, bs_census, enumerate_leaves, holonomy  # noqa: F401
from .cech import (
    TransversalGrid,
    TrivCochain,
    cohomology_ranks,
    delta,
    half_offset_labels,
    random_projected_cochain,
)
from .geometry import (
    Polarization,
    Symplectomorphism,
    as_points,
    pushforward_polarization,
)
from .prequantum import (
    ConfigurationError,
    CoverElement,
    Nerve,
    NerveCell,
    TrivializationCover,
    check_local_data,
)
from .transport import LeafTransport
# integrate stays bound here: perfbench/tracing.py wraps action.integrate
from .quadrature import integrate, integrate_many  # noqa: F401


class InternalConsistencyError(RuntimeError):
    """Builtin data violated an identity the construction relies on."""


@dataclass(frozen=True)
class CocycleObstruction:
    constants: dict  # (a, b, comp) -> complex, a < b
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


@dataclass
class ComplementaryCover:
    base: TrivializationCover  # pullback cover carrying the exact pulled-back data
    source: TrivializationCover
    phi: Symplectomorphism
    constants: dict  # the solved cocycle e
    tree_solution: dict  # w per element with w_b / w_a = e_ab
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


def _shift_vector(phi: Symplectomorphism, manifold) -> np.ndarray | None:
    """Constant translation vector of phi, if it is one."""
    pts = manifold.window.grid(3)
    diff = phi.apply(pts) - pts
    if np.max(np.abs(diff - diff[0])) < 1e-12:
        return diff[0]
    return None


def _pullback_skeleton(cover: TrivializationCover, phi: Symplectomorphism):
    """Pullback cover shell: same combinatorics, transported samples."""
    manifold = cover.manifold
    shift = _shift_vector(phi, manifold)
    elements = []
    for el in cover.elements:
        box = el.box if shift is None else el.box.shifted(tuple(-shift))
        elements.append(
            CoverElement(el.index, box, el.contractible, f"pulled-{el.name}")
        )
    cells = {}
    for key, cell in cover.nerve.cells.items():
        samples = manifold.reduce(
            phi.apply_inverse(manifold.reduce(cell.samples))
        )
        cells[key] = NerveCell(
            indices=cell.indices,
            comp=cell.comp,
            box=cell.box,
            shifts=cell.shifts,
            samples=samples,
        )
    nerve = Nerve(cells=cells, faces=cover.nerve.faces, max_degree=cover.nerve.max_degree)
    return elements, nerve


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
    elements, nerve = _pullback_skeleton(cover, phi)
    naive = TrivializationCover(
        manifold=manifold,
        omega=cover.omega,
        elements=elements,
        data=builder([el.box for el in elements]),
        nerve=nerve,
        meta={"name": f"naive-pullback({cover.meta.get('name')})"},
    )
    pullback = TrivializationCover(
        manifold=manifold,
        omega=cover.omega,
        elements=elements,
        data=naive.data,  # never consulted; accessors delegate to the source
        nerve=nerve,
        pullback_of=(cover, phi),
        meta={"name": f"pullback({cover.meta.get('name')})"},
    )

    # Step 2: the gauge 1-form g = theta_naive - phi^* theta must be closed.
    closed_max = 0.0
    for key, cell in nerve.cells.items():
        if cell.degree != 0 or len(cell.samples) == 0:
            continue
        pts = manifold.reduce(cell.samples)
        resid = np.abs(
            naive.curvature(cell.indices[0], pts)
            - pullback.curvature(cell.indices[0], pts)
        )
        closed_max = max(closed_max, float(np.max(resid)))
    if closed_max > tol:
        raise InternalConsistencyError(
            f"gauge 1-form is not closed (residual {closed_max:.3e}); "
            "naive pulled-back data is inconsistent"
        )

    def gauge_form(a: int, pts: np.ndarray):
        ga = naive.potential(a, pts)
        gb = pullback.potential(a, pts)
        return ga[0] - gb[0], ga[1] - gb[1]

    def f_alpha(a: int, targets: np.ndarray) -> np.ndarray:
        """Integral of the gauge form from the element basepoint, two legs:
        along x to each target's x0, then along y at that x0."""
        box = naive.elements[a].box
        base = box.center()
        lift = manifold.lift_into(as_points(targets), box)
        x0s, x1s = lift[:, 0], lift[:, 1]

        def leg0(ts, owner):
            pts = np.column_stack([ts, np.full(len(ts), base[1])])
            return gauge_form(a, manifold.reduce(pts))[0]

        def leg1(ts, owner):
            pts = np.column_stack([x0s[owner], ts])
            return gauge_form(a, manifold.reduce(pts))[1]

        return integrate_many(leg0, base[0], x0s) + integrate_many(leg1, base[1], x1s)

    # Step 3: constants e = lambda_naive e^{-i(f_a - f_b)} / phi^* lambda.
    constants = {}
    constancy_max = 0.0
    certificate_samples = {}
    for key, cell in sorted(nerve.cells.items()):
        if cell.degree != 1 or len(cell.samples) == 0:
            continue
        a, b = cell.indices
        pts = manifold.reduce(cell.samples)
        ratio = (
            naive.transition(a, b, pts)
            * np.exp(-1j * (f_alpha(a, pts) - f_alpha(b, pts)))
            / pullback.transition(a, b, pts)
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
        )

    # Step 5: certificate that the gauged naive data equals the pullback.
    cert = 0.0
    for key, ratio in certificate_samples.items():
        a, b = key[0]
        resid = np.abs(ratio * w[a] / w[b] - 1.0)
        cert = max(cert, float(np.max(resid)))
    return ComplementaryCover(
        base=pullback,
        source=cover,
        phi=phi,
        constants=constants,
        tree_solution=w,
        gauge_closedness_max=closed_max,
        constancy_max=constancy_max,
        certificate_max=cert,
    )


# ---------------------------------------------------------------------------
# Chain map and leaf transport


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


def transport_leaf(
    leaf: Leaf,
    phi: Symplectomorphism,
    complementary: ComplementaryCover,
    pol: Polarization,
    pol_pushed: Polarization,
    transport: LeafTransport | None = None,
):
    """Image leaf under phi^{-1} with its holonomy in the complementary cover.
    `transport` is a LeafTransport of the complementary cover and pol_pushed
    whose cached integrals the holonomy may reuse."""
    manifold = complementary.base.manifold
    switch = (
        manifold.reduce(phi.apply_inverse(leaf.switch_points))
        if len(leaf.switch_points)
        else leaf.switch_points
    )
    point = (
        tuple(phi.apply_inverse(np.array([leaf.point]))[0])
        if leaf.point is not None
        else None
    )
    moved = Leaf(leaf.label, leaf.topology, leaf.segments, switch, leaf.singular, point)
    if moved.topology == "line":
        return moved, None
    return moved, holonomy(complementary.base, pol_pushed, moved, transport)


# ---------------------------------------------------------------------------
# Theorem verification


@dataclass
class CorrespondenceReport:
    theorem: int
    status: str  # ok | hypothesis-failed
    passed: bool
    witness: dict | None = None
    payload: dict = field(default_factory=dict)

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
    ranks_src = cohomology_ranks(example.cover, pol, grid_n, threshold)
    ranks_dst = cohomology_ranks(comp.base, pushed, grid_n, threshold)
    equal = all(
        a.betti == b.betti for a, b in zip(ranks_src.degrees, ranks_dst.degrees)
    )
    labels = half_offset_labels(
        pol.label_range[0], pol.label_range[1], grid_n
    )
    grid_src = TransversalGrid.build(example.cover, pol, labels)
    grid_dst = TransversalGrid.build(comp.base, pushed, labels)
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
    `complementary` reuses a build_complementary result for this phi."""
    comp, failed = _complementary_or_report(example, phi, 2, complementary)
    if failed is not None:
        return failed
    pol = example.polarization(pol_name)
    pushed = pushforward_polarization(phi, pol)
    crange = crange or example.census_range
    # the leaf pairs below read the source census's holonomies and the
    # target census's segment integrals
    transport_dst = LeafTransport(comp.base, pushed)
    census_src = bs_census(example.cover, pol, crange, count, tol)
    census_dst = bs_census(
        comp.base, pushed, crange, count, tol, transport=transport_dst
    )
    hol_max = 0.0
    pairs = []
    for entry in census_src.entries:
        leaf, here = entry.leaf, entry.holonomy
        if leaf.topology == "line":
            continue
        moved, there = transport_leaf(leaf, phi, comp, pol, pushed, transport_dst)
        diff = abs(here.holonomy - there.holonomy)
        hol_max = max(hol_max, diff)
        pairs.append(
            {
                "label": leaf.label,
                "topology": leaf.topology,
                "holonomy_source": [here.holonomy.real, here.holonomy.imag],
                "holonomy_target": [there.holonomy.real, there.holonomy.imag],
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
