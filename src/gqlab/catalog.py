"""Builtin model catalog: manifolds, covers with local data, polarizations,
and symplectomorphism factories, addressable by the name strings used in
the CLI and in config JSON.

Every cover here is constructed to satisfy the local-data laws exactly
under the conventions in docs/conventions.md (curvature dtheta = omega,
compatibility theta_a - theta_b = -i dlambda/lambda, parallel transport
factor exp(-i integral theta)); the consistency checker is the oracle for
that claim.  Each family also knows how to re-instantiate its local data on
a translated/pulled-back element layout, which is what seeds the
complementary-cover construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .expr import Imag, Num, Pi, Var, call, mul, parse_expr
from .geometry import (
    Box,
    Manifold,
    Polarization,
    SymplecticForm,
    Symplectomorphism,
    identity_map,
)
from .prequantum import (
    ConfigurationError,
    CoverElement,
    LocalData,
    TrivializationCover,
    build_nerve,
)

TWO_PI = 2.0 * math.pi

EXAMPLE_NAMES = ("plane", "cylinder", "torus", "sphere", "disk")


@dataclass
class Example:
    """A fully assembled model: cover, form, polarizations, map factory."""

    name: str
    params: dict
    manifold: Manifold
    omega: SymplecticForm
    cover: TrivializationCover
    polarizations: dict
    default_polarization: str
    map_specs: tuple  # names accepted by make_map
    census_range: tuple
    data_builder: object = field(repr=False, default=None)  # boxes -> LocalData

    def polarization(self, name: str | None = None) -> Polarization:
        key = name or self.default_polarization
        if key in ("default", None):
            key = self.default_polarization
        if key not in self.polarizations:
            raise ConfigurationError(
                f"unknown polarization {key!r} for {self.name}; "
                f"have {sorted(self.polarizations)}"
            )
        return self.polarizations[key]


def _require_positive_k(k) -> int:
    if not isinstance(k, (int, np.integer)) or k <= 0:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    return int(k)


def _finish(cover: TrivializationCover) -> TrivializationCover:
    cover.nerve = build_nerve(cover)
    return cover


# ---------------------------------------------------------------------------
# plane


def _plane_example(granularity: int = 1, half_width: float = 4.0) -> Example:
    x, y = Var("x"), Var("y")
    manifold = Manifold(
        name="plane",
        coords=("x", "y"),
        periods=(None, None),
        window=Box((-half_width, -half_width), (half_width, half_width)),
    )
    omega = SymplecticForm(Num(1.0))
    pad = 0.4
    big = half_width + pad
    if granularity == 1:
        elements = [
            CoverElement(0, Box((-big, -big), (big, big)), True, "u0")
        ]
        # theta = (x dy - y dx) / 2
        data = LocalData(
            transitions={},
            potentials={0: (mul(Num(-0.5), y), mul(Num(0.5), x))},
        )
    elif granularity == 2:
        strip = 0.6
        elements = [
            CoverElement(0, Box((-big, -big), (strip, big)), True, "left"),
            CoverElement(1, Box((-strip, -big), (big, big)), True, "right"),
        ]
        # left: theta = x dy, right: theta = -y dx; the forced transition is
        # exp(i x y) since theta_L - theta_R = d(xy).
        lam = call("exp", mul(Imag(), mul(x, y)))
        lam_inv = call("exp", ex.neg(mul(Imag(), mul(x, y))))
        data = LocalData(
            transitions={(0, 1): lam, (1, 0): lam_inv},
            potentials={0: (ex.ZERO, x), 1: (ex.neg(y), ex.ZERO)},
        )
    else:
        raise ConfigurationError("plane granularity must be 1 or 2")

    def data_builder(boxes):
        return LocalData(
            transitions=dict(data.transitions),
            potentials=dict(data.potentials),
        )

    cover = TrivializationCover(
        manifold=manifold,
        omega=omega,
        elements=elements,
        data=data,
        meta={"name": "plane", "granularity": granularity,
              "data_builder": data_builder},
    )
    vertical = Polarization(
        name="vertical",
        fiber_map=x,
        generator=(ex.ZERO, ex.ONE),
        coords=("x", "y"),
        kind="axis",
        curve=(Var("c"), Var("t")),
        leaf_axis=1,
        label_axis=0,
        leaf_period=None,
        label_range=(-half_width, half_width),
    )
    horizontal = Polarization(
        name="horizontal",
        fiber_map=y,
        generator=(ex.ONE, ex.ZERO),
        coords=("x", "y"),
        kind="axis",
        curve=(Var("t"), Var("c")),
        leaf_axis=0,
        label_axis=1,
        leaf_period=None,
        label_range=(-half_width, half_width),
    )
    return Example(
        name="plane",
        params={"granularity": granularity},
        manifold=manifold,
        omega=omega,
        cover=_finish(cover),
        polarizations={"vertical": vertical, "horizontal": horizontal},
        default_polarization="vertical",
        map_specs=("identity", "shear", "rot", "translate"),
        census_range=(-3.5, 3.5),
        data_builder=data_builder,
    )


# ---------------------------------------------------------------------------
# torus


def _torus_row_offset(int_a: tuple, int_b: tuple) -> int | None:
    """Multiple nu of the period with lift_a = lift_b + nu * period on the
    overlap of two unrolled intervals; None when they do not meet."""

    def meets(a, b):
        return min(a[1], b[1]) - max(a[0], b[0]) > 1e-9

    for nu in (0, 1, -1):
        if meets(int_a, (int_b[0] + nu * TWO_PI, int_b[1] + nu * TWO_PI)):
            return nu
    return None


def _torus_example(k: int, granularity: int = 3) -> Example:
    k = _require_positive_k(k)
    g = int(granularity)
    if g < 3:
        raise ConfigurationError(
            "torus cover needs granularity >= 3 for single-component overlaps"
        )
    m = min(0.3, 0.9 * math.pi / g)
    x1, x2 = Var("x1"), Var("x2")
    manifold = Manifold(
        name="torus",
        coords=("x1", "x2"),
        periods=(TWO_PI, TWO_PI),
        window=Box((0.0, 0.0), (TWO_PI, TWO_PI)),
    )
    # theta = (k/2pi) x2 dx1 on every patch (branch from the patch frame),
    # hence omega = d theta = -(k/2pi) dx1 ^ dx2.
    omega = SymplecticForm(Num(-k / TWO_PI))
    theta = (mul(Num(k / TWO_PI), x2), ex.ZERO)

    def interval(n: int) -> tuple:
        return (n * TWO_PI / g - m, (n + 1) * TWO_PI / g + m)

    boxes = []
    for row in range(g):
        for col in range(g):
            i1, i2 = interval(col), interval(row)
            boxes.append(Box((i1[0], i2[0]), (i1[1], i2[1])))

    def data_builder(layout):
        transitions = {}
        potentials = {b: theta for b in range(len(layout))}
        for a in range(len(layout)):
            for b in range(len(layout)):
                if a == b:
                    continue
                nu_row = _torus_row_offset(
                    layout[a].interval(1), layout[b].interval(1)
                )
                nu_col = _torus_row_offset(
                    layout[a].interval(0), layout[b].interval(0)
                )
                if nu_row is None or nu_col is None:
                    continue  # no overlap, no transition
                if nu_row == 0:
                    transitions[(a, b)] = ex.ONE
                else:
                    transitions[(a, b)] = call(
                        "exp", mul(Imag(), mul(Num(float(k * nu_row)), x1))
                    )
        return LocalData(transitions=transitions, potentials=potentials)

    elements = [
        CoverElement(idx, box, True, f"r{idx // g}c{idx % g}")
        for idx, box in enumerate(boxes)
    ]
    cover = TrivializationCover(
        manifold=manifold,
        omega=omega,
        elements=elements,
        data=data_builder(boxes),
        meta={"name": "torus", "k": k, "granularity": g,
              "data_builder": data_builder},
    )
    pol = Polarization(
        name="horizontal-circles",
        fiber_map=x2,
        generator=(ex.ONE, ex.ZERO),
        coords=("x1", "x2"),
        kind="axis",
        curve=(Var("t"), Var("c")),
        leaf_axis=0,
        label_axis=1,
        leaf_period=TWO_PI,
        label_range=(0.0, TWO_PI),
        label_periodic=True,
    )
    return Example(
        name="torus",
        params={"k": k, "granularity": g},
        manifold=manifold,
        omega=omega,
        cover=_finish(cover),
        polarizations={"horizontal-circles": pol},
        default_polarization="horizontal-circles",
        map_specs=("identity", "translate"),
        census_range=(0.0, TWO_PI),
        data_builder=data_builder,
    )


# ---------------------------------------------------------------------------
# cylinder


def _cylinder_example(p_max: float = 3.5, granularity: int = 3) -> Example:
    g = int(granularity)
    if g < 2:
        raise ConfigurationError("cylinder cover needs granularity >= 2")
    m = min(0.35, 0.9 * math.pi / g)
    x, p = Var("x"), Var("p")
    manifold = Manifold(
        name="cylinder",
        coords=("x", "p"),
        periods=(TWO_PI, None),
        window=Box((0.0, -p_max), (TWO_PI, p_max)),
    )
    # theta = p dx, so omega = dp ^ dx = -(dx ^ dp).
    omega = SymplecticForm(Num(-1.0))
    pad = 0.2
    boxes = [
        Box(
            (n * TWO_PI / g - m, -p_max - pad),
            ((n + 1) * TWO_PI / g + m, p_max + pad),
        )
        for n in range(g)
    ]

    def data_builder(layout):
        transitions = {}
        for a in range(len(layout)):
            for b in range(len(layout)):
                if a != b:
                    transitions[(a, b)] = ex.ONE
        return LocalData(
            transitions=transitions,
            potentials={n: (p, ex.ZERO) for n in range(len(layout))},
        )

    elements = [
        CoverElement(n, box, True, f"arc{n}") for n, box in enumerate(boxes)
    ]
    cover = TrivializationCover(
        manifold=manifold,
        omega=omega,
        elements=elements,
        data=data_builder(boxes),
        meta={"name": "cylinder", "p_max": p_max, "granularity": g,
              "data_builder": data_builder},
    )
    pol = Polarization(
        name="momentum-circles",
        fiber_map=p,
        generator=(ex.ONE, ex.ZERO),
        coords=("x", "p"),
        kind="axis",
        curve=(Var("t"), Var("c")),
        leaf_axis=0,
        label_axis=1,
        leaf_period=TWO_PI,
        label_range=(-p_max, p_max),
    )
    return Example(
        name="cylinder",
        params={"p_max": p_max, "granularity": g},
        manifold=manifold,
        omega=omega,
        cover=_finish(cover),
        polarizations={"momentum-circles": pol},
        default_polarization="momentum-circles",
        map_specs=("identity", "translate", "pshift"),
        census_range=(-2.5, 2.5),
        data_builder=data_builder,
    )


# ---------------------------------------------------------------------------
# sphere (moment coordinates)


def _sphere_example(k: int) -> Example:
    k = _require_positive_k(k)
    z, phi = Var("z"), Var("phi")
    manifold = Manifold(
        name="sphere",
        coords=("z", "phi"),
        periods=(None, TWO_PI),
        window=Box((0.0, 0.0), (float(k), TWO_PI)),
    )
    omega = SymplecticForm(Num(1.0))  # omega = dz ^ dphi, total area 2 pi k
    boxes = [
        Box((0.0, 0.0), (0.65 * k, TWO_PI)),  # north patch, contains z = 0 pole
        Box((0.35 * k, 0.0), (float(k), TWO_PI)),  # south patch
    ]

    def data_builder(layout):
        anchors = [
            0.0 if box.lo[0] <= 1e-9 else float(k) for box in layout
        ]
        transitions = {}
        potentials = {}
        for a, box in enumerate(layout):
            # theta = (z - anchor) dphi vanishes at the pole the patch owns
            potentials[a] = (ex.ZERO, ex.sub(z, Num(anchors[a])))
            for b in range(len(layout)):
                if a == b:
                    continue
                diff = anchors[b] - anchors[a]
                if diff == 0.0:
                    transitions[(a, b)] = ex.ONE
                else:
                    transitions[(a, b)] = call(
                        "exp", mul(Imag(), mul(Num(diff), phi))
                    )
        return LocalData(transitions=transitions, potentials=potentials)

    elements = [
        CoverElement(0, boxes[0], True, "north"),
        CoverElement(1, boxes[1], True, "south"),
    ]
    cover = TrivializationCover(
        manifold=manifold,
        omega=omega,
        elements=elements,
        data=data_builder(boxes),
        meta={"name": "sphere", "k": k, "data_builder": data_builder},
    )
    pol = Polarization(
        name="latitude",
        fiber_map=z,
        generator=(ex.ZERO, ex.ONE),
        coords=("z", "phi"),
        kind="axis",
        curve=(Var("c"), Var("t")),
        leaf_axis=1,
        label_axis=0,
        leaf_period=TWO_PI,
        label_range=(0.0, float(k)),
        singular_points=((0.0, 0.0), (float(k), 0.0)),
    )
    delta = 0.25
    return Example(
        name="sphere",
        params={"k": k},
        manifold=manifold,
        omega=omega,
        cover=_finish(cover),
        polarizations={"latitude": pol},
        default_polarization="latitude",
        map_specs=("identity", "rot"),
        census_range=(delta, k - delta),
        data_builder=data_builder,
    )


# ---------------------------------------------------------------------------
# disk


def _disk_example(radius: float = 3.2) -> Example:
    x, y = Var("x"), Var("y")
    manifold = Manifold(
        name="disk",
        coords=("x", "y"),
        periods=(None, None),
        window=Box((-radius, -radius), (radius, radius)),
        disk_radius=radius,
    )
    omega = SymplecticForm(Num(1.0))
    pad = 0.2
    big = radius + pad
    elements = [CoverElement(0, Box((-big, -big), (big, big)), True, "u0")]
    theta = (mul(Num(-0.5), y), mul(Num(0.5), x))

    def data_builder(layout):
        return LocalData(transitions={}, potentials={0: theta})

    cover = TrivializationCover(
        manifold=manifold,
        omega=omega,
        elements=elements,
        data=data_builder(None),
        meta={"name": "disk", "radius": radius, "data_builder": data_builder},
    )
    half_r2 = 0.5 * radius * radius
    c, t = Var("c"), Var("t")
    rad = call("sqrt", mul(Num(2.0), c))
    pol = Polarization(
        name="radial-circles",
        fiber_map=mul(Num(0.5), ex.add(mul(x, x), mul(y, y))),
        generator=(ex.neg(y), x),
        coords=("x", "y"),
        kind="radial",
        curve=(mul(rad, call("cos", t)), mul(rad, call("sin", t))),
        leaf_axis=None,
        label_axis=None,
        leaf_period=TWO_PI,
        label_range=(0.0, half_r2),
        singular_points=((0.0, 0.0),),
    )
    return Example(
        name="disk",
        params={"radius": radius},
        manifold=manifold,
        omega=omega,
        cover=_finish(cover),
        polarizations={"radial-circles": pol},
        default_polarization="radial-circles",
        map_specs=("identity", "rot"),
        census_range=(0.25, half_r2 - 0.25),
        data_builder=data_builder,
    )


# ---------------------------------------------------------------------------
# untwisted circle fixture (flat data; degenerate omega)


def untwisted_circle_example() -> Example:
    """Two-arc cover of a circle of leaves with lambda = 1, theta = 0.

    The pair overlap has two components, so the complex degenerates to the
    classical constant-coefficient Cech complex of the circle nerve.
    """
    x, p = Var("x"), Var("p")
    manifold = Manifold(
        name="circle-flat",
        coords=("x", "p"),
        periods=(TWO_PI, None),
        window=Box((0.0, -1.0), (TWO_PI, 1.0)),
    )
    omega = SymplecticForm(ex.ZERO)
    boxes = [
        Box((-0.4, -1.2), (math.pi + 0.4, 1.2)),
        Box((math.pi - 0.4, -1.2), (TWO_PI + 0.4, 1.2)),
    ]
    zero_form = (ex.ZERO, ex.ZERO)

    def data_builder(layout):
        return LocalData(
            transitions={(0, 1): ex.ONE, (1, 0): ex.ONE},
            potentials={0: zero_form, 1: zero_form},
        )

    elements = [
        CoverElement(0, boxes[0], True, "arc0"),
        CoverElement(1, boxes[1], True, "arc1"),
    ]
    cover = TrivializationCover(
        manifold=manifold,
        omega=omega,
        elements=elements,
        data=data_builder(boxes),
        meta={"name": "circle-flat", "data_builder": data_builder},
    )
    pol = Polarization(
        name="momentum-circles",
        fiber_map=p,
        generator=(ex.ONE, ex.ZERO),
        coords=("x", "p"),
        kind="axis",
        curve=(Var("t"), Var("c")),
        leaf_axis=0,
        label_axis=1,
        leaf_period=TWO_PI,
        label_range=(-1.0, 1.0),
    )
    return Example(
        name="circle-flat",
        params={},
        manifold=manifold,
        omega=omega,
        cover=_finish(cover),
        polarizations={"momentum-circles": pol},
        default_polarization="momentum-circles",
        map_specs=("identity",),
        census_range=(-0.9, 0.9),
        data_builder=data_builder,
    )


# ---------------------------------------------------------------------------
# public entry points


def example(name: str, **params) -> Example:
    builders = {
        "plane": _plane_example,
        "cylinder": _cylinder_example,
        "torus": _torus_example,
        "sphere": _sphere_example,
        "disk": _disk_example,
    }
    if name not in builders:
        raise ConfigurationError(
            f"unknown example {name!r}; choose from {sorted(builders)}"
        )
    try:
        return builders[name](**params)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for {name}: {exc}") from None


def builtin_cover(name: str, **params) -> TrivializationCover:
    """The trivialization cover of a builtin example (spec surface)."""
    return example(name, **params).cover


_MAP_ARITY = {"identity": 0, "shear": 0, "rot": 1, "translate": 2, "pshift": 1}


def make_map(ex_: Example, spec: str) -> Symplectomorphism:
    """Build a symplectomorphism from a spec string like 'rot:0.7'.

    Accepted forms per example are listed in Example.map_specs; arguments
    follow a colon, comma separated.
    """
    name, _, argtext = spec.partition(":")
    if name not in ex_.map_specs:
        raise ConfigurationError(
            f"map {name!r} is not defined for {ex_.name}; have {ex_.map_specs}"
        )
    try:
        args = [float(v) for v in argtext.split(",")] if argtext else []
    except ValueError:
        raise ConfigurationError(f"map arguments in {spec!r} must be numbers") from None
    if len(args) > _MAP_ARITY[name] or not all(math.isfinite(v) for v in args):
        raise ConfigurationError(
            f"map {name!r} takes at most {_MAP_ARITY[name]} finite arguments, "
            f"got {spec!r}"
        )
    coords = ex_.manifold.coords
    u, v = Var(coords[0]), Var(coords[1])
    if name == "identity":
        return identity_map(ex_.manifold)
    if name == "shear":
        return Symplectomorphism("shear", (ex.add(u, v), v), (ex.sub(u, v), v), coords)
    if name == "rot" and ex_.name in ("plane", "disk"):
        (a,) = args or (math.pi / 2,)
        ca, sa = Num(math.cos(a)), Num(math.sin(a))
        fwd = (ex.sub(mul(ca, u), mul(sa, v)), ex.add(mul(sa, u), mul(ca, v)))
        inv = (ex.add(mul(ca, u), mul(sa, v)), ex.sub(mul(ca, v), mul(sa, u)))
        return Symplectomorphism(f"rot:{a}", fwd, inv, coords)
    if name == "rot":  # sphere: rotate about the polar axis
        (a,) = args or (1.0,)
        return Symplectomorphism(
            f"rot:{a}", (u, ex.add(v, Num(a))), (u, ex.sub(v, Num(a))), coords
        )
    if name == "translate":
        if len(args) == 1:
            args = [args[0], 0.0]
        a, b = args or (0.0, 0.0)
        fwd = (ex.add(u, Num(a)), ex.add(v, Num(b)))
        inv = (ex.sub(u, Num(a)), ex.sub(v, Num(b)))
        return Symplectomorphism(f"translate:{a},{b}", fwd, inv, coords)
    if name == "pshift":
        (b,) = args or (0.5,)
        return Symplectomorphism(
            f"pshift:{b}", (u, ex.add(v, Num(b))), (u, ex.sub(v, Num(b))), coords
        )
    raise ConfigurationError(f"unhandled map spec {spec!r}")
