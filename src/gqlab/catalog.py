"""Builtin model catalog: manifolds, covers with local data, polarizations,
and symplectomorphism factories, addressable by the name strings used in
the CLI.

Every cover here is constructed to satisfy the local-data laws exactly
under the conventions in docs/conventions.md (curvature dtheta = omega,
compatibility theta_a - theta_b = -i dlambda/lambda, parallel transport
factor exp(-i integral theta)); the consistency checker is the oracle for
that claim.  Each family also knows how to re-instantiate its local data on
a translated/pulled-back element layout (Example.data_builder), which is
what seeds the complementary-cover construction.  Its transitions are on
the pairs the layout's nerve holds (Nerve.pairs): no search of its own.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from types import MappingProxyType

import numpy as np

from . import expr as ex
from .expr import Imag, Num, Var, call, mul, parse_expr
from .geometry import (
    Box,
    Manifold,
    Polarization,
    SymplecticForm,
    Symplectomorphism,
    TWO_PI,
    axis_polarization,
    identity_map,
)
from .prequantum import (
    MAX_DEGREE,
    ConfigurationError,
    LocalData,
    TrivializationCover,
    build_nerve,
)
from .record import Record

EXAMPLE_NAMES = ("plane", "cylinder", "torus", "sphere", "disk")
# the parameters each model takes from the command line: the Chern number
# k, the cover's granularity, the cylinder's half height p_max
PARAMETERS = {
    "plane": ("granularity",),
    "cylinder": ("granularity", "p_max"),
    "torus": ("k", "granularity"),
    "sphere": ("k",),
    "disk": (),
}


class Example(Record):
    """A fully assembled model: cover, form, polarizations, map factory.

    data_builder gives the family's local data on any layout of element
    boxes (a list of Boxes, one per element index) and its overlapping
    pairs (Nerve.pairs), with transitions on those pairs; the cover's data
    is its value on the cover's own boxes and nerve.
    """

    def __init__(
        self,
        name: str,
        manifold: Manifold,
        omega: SymplecticForm,
        cover: TrivializationCover,
        data_builder: Callable,  # (list of Boxes, Nerve.pairs) -> LocalData
        polarizations: MappingProxyType,  # name -> Polarization
        default_polarization: str,
        map_specs: tuple,  # names accepted by make_map
        census_range: tuple,
    ):
        self._set(locals())

    def polarization(self, name: str | None = None) -> Polarization:
        key = self.default_polarization if name in (None, "", "default") else name
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


def _assemble(
    manifold: Manifold,
    omega: SymplecticForm,
    boxes: list,
    data_builder: Callable,
    polarizations: tuple,
    map_specs: tuple,
    census_range: tuple,
    nerve_degree: int = MAX_DEGREE,
) -> Example:
    """The model on `manifold`: one cover element per box, with the nerve
    built to nerve_degree and the family's local data on those boxes and
    the nerve's pairs.  The first of `polarizations` is the default."""
    nerve = build_nerve(manifold, boxes, nerve_degree)
    cover = TrivializationCover(
        manifold=manifold,
        omega=omega,
        elements=boxes,
        data=data_builder(boxes, nerve.pairs),
        nerve=nerve,
    )
    return Example(
        name=manifold.name,
        manifold=manifold,
        omega=omega,
        cover=cover,
        data_builder=data_builder,
        polarizations=MappingProxyType({pol.name: pol for pol in polarizations}),
        default_polarization=polarizations[0].name,
        map_specs=map_specs,
        census_range=census_range,
    )


# ---------------------------------------------------------------------------
# plane


def _plane_example(granularity: int = 1, nerve_degree: int = MAX_DEGREE) -> Example:
    x, y = Var("x"), Var("y")
    manifold = Manifold(
        name="plane",
        coords=("x", "y"),
        periods=(None, None),
        window=Box((-4.0, -4.0), (4.0, 4.0)),
    )
    big = 4.4  # the window and a pad of 0.4
    if granularity == 1:
        boxes = [Box((-big, -big), (big, big))]
        # theta = (x dy - y dx) / 2
        data = LocalData(
            transitions={},
            potentials={0: (mul(Num(-0.5), y), mul(Num(0.5), x))},
        )
    elif granularity == 2:
        strip = 0.6
        boxes = [Box((-big, -big), (strip, big)), Box((-strip, -big), (big, big))]
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

    def data_builder(layout, pairs):
        return data

    return _assemble(
        manifold, SymplecticForm(Num(1.0)), boxes, data_builder,
        (
            axis_polarization("vertical", manifold, leaf_axis=1),
            axis_polarization("horizontal", manifold, leaf_axis=0),
        ),
        map_specs=("identity", "shear", "rot", "translate"),
        census_range=(-3.5, 3.5),
        nerve_degree=nerve_degree,
    )


# ---------------------------------------------------------------------------
# torus


def _torus_example(
    k: int, granularity: int = 3, nerve_degree: int = MAX_DEGREE
) -> Example:
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
    theta = (mul(Num(k / TWO_PI), x2), ex.ZERO)

    cuts = [(n * TWO_PI / g - m, (n + 1) * TWO_PI / g + m) for n in range(g)]
    boxes = [Box((i1[0], i2[0]), (i1[1], i2[1])) for i2 in cuts for i1 in cuts]

    # the transition across row offset nu (lift_a = lift_b + nu * period) is
    # exp(i k nu x1), one formula per offset; a pair of shift s has nu = -s[1]
    by_offset = {
        nu: ex.ONE if nu == 0 else call("exp", mul(Imag(), mul(Num(float(k * nu)), x1)))
        for nu in (0, 1, -1)
    }

    def data_builder(layout, pairs):
        a, b, shift = pairs
        transitions = {
            (i, j): by_offset[-s]
            for i, j, s in zip(a.tolist(), b.tolist(), shift[:, 1].tolist())
        }
        potentials = {n: theta for n in range(len(layout))}
        return LocalData(transitions=transitions, potentials=potentials)

    return _assemble(
        manifold, SymplecticForm(Num(-k / TWO_PI)), boxes, data_builder,
        (axis_polarization("horizontal-circles", manifold, leaf_axis=0),),
        map_specs=("identity", "translate"),
        census_range=(0.0, TWO_PI),
        nerve_degree=nerve_degree,
    )


# ---------------------------------------------------------------------------
# cylinder


def _cylinder_example(
    p_max: float = 3.5, granularity: int = 3, nerve_degree: int = MAX_DEGREE
) -> Example:
    g = int(granularity)
    if g < 2:
        raise ConfigurationError("cylinder cover needs granularity >= 2")
    m = min(0.35, 0.9 * math.pi / g)
    p = Var("p")
    manifold = Manifold(
        name="cylinder",
        coords=("x", "p"),
        periods=(TWO_PI, None),
        window=Box((0.0, -p_max), (TWO_PI, p_max)),
    )
    pad = 0.2
    boxes = [
        Box(
            (n * TWO_PI / g - m, -p_max - pad),
            ((n + 1) * TWO_PI / g + m, p_max + pad),
        )
        for n in range(g)
    ]

    def data_builder(layout, pairs):
        a, b, _ = pairs
        return LocalData(
            transitions=dict.fromkeys(zip(a.tolist(), b.tolist()), ex.ONE),
            potentials={a: (p, ex.ZERO) for a in range(len(layout))},
        )

    # theta = p dx, so omega = dp ^ dx = -(dx ^ dp).
    return _assemble(
        manifold, SymplecticForm(Num(-1.0)), boxes, data_builder,
        (axis_polarization("momentum-circles", manifold, leaf_axis=0),),
        map_specs=("identity", "translate", "pshift"),
        census_range=(-2.5, 2.5),
        nerve_degree=nerve_degree,
    )


# ---------------------------------------------------------------------------
# sphere (moment coordinates)


def _sphere_example(k: int, nerve_degree: int = MAX_DEGREE) -> Example:
    k = _require_positive_k(k)
    z, phi = Var("z"), Var("phi")
    manifold = Manifold(
        name="sphere",
        coords=("z", "phi"),
        periods=(None, TWO_PI),
        window=Box((0.0, 0.0), (float(k), TWO_PI)),
    )
    boxes = [
        Box((0.0, 0.0), (0.65 * k, TWO_PI)),  # north patch, contains z = 0 pole
        Box((0.35 * k, 0.0), (float(k), TWO_PI)),  # south patch
    ]

    def data_builder(layout, pairs):
        anchors = [0.0 if box.lo[0] <= 1e-9 else float(k) for box in layout]
        a, b, _ = pairs
        transitions = {}
        for i, j in zip(a.tolist(), b.tolist()):
            diff = anchors[j] - anchors[i]
            transitions[(i, j)] = (
                ex.ONE if diff == 0.0 else call("exp", mul(Imag(), mul(Num(diff), phi)))
            )
        # theta = (z - anchor) dphi vanishes at the pole the patch owns
        potentials = {i: (ex.ZERO, ex.sub(z, Num(anchor))) for i, anchor in enumerate(anchors)}
        return LocalData(transitions=transitions, potentials=potentials)

    poles = ((0.0, 0.0), (float(k), 0.0))
    delta = 0.25
    # omega = dz ^ dphi, total area 2 pi k
    return _assemble(
        manifold, SymplecticForm(Num(1.0)), boxes, data_builder,
        (axis_polarization("latitude", manifold, leaf_axis=1, singular_points=poles),),
        map_specs=("identity", "rot"),
        census_range=(delta, k - delta),
        nerve_degree=nerve_degree,
    )


# ---------------------------------------------------------------------------
# disk


def _disk_example(nerve_degree: int = MAX_DEGREE) -> Example:
    radius = 3.2
    x, y = Var("x"), Var("y")
    manifold = Manifold(
        name="disk",
        coords=("x", "y"),
        periods=(None, None),
        window=Box((-radius, -radius), (radius, radius)),
        disk_radius=radius,
    )
    big = radius + 0.2
    boxes = [Box((-big, -big), (big, big))]
    theta = (mul(Num(-0.5), y), mul(Num(0.5), x))

    def data_builder(layout, pairs):
        return LocalData(transitions={}, potentials={0: theta})

    half_r2 = 0.5 * radius * radius
    t = Var("t")
    rad = call("sqrt", mul(Num(2.0), Var("c")))
    pol = Polarization(
        name="radial-circles",
        fiber_map=mul(Num(0.5), ex.add(mul(x, x), mul(y, y))),
        coords=("x", "y"),
        kind="radial",
        curve=(mul(rad, call("cos", t)), mul(rad, call("sin", t))),
        leaf_period=TWO_PI,
        label_range=(0.0, half_r2),
        singular_points=((0.0, 0.0),),
    )
    return _assemble(
        manifold, SymplecticForm(Num(1.0)), boxes, data_builder, (pol,),
        map_specs=("identity", "rot"),
        census_range=(0.25, half_r2 - 0.25),
        nerve_degree=nerve_degree,
    )


# ---------------------------------------------------------------------------
# untwisted circle fixture (flat data; degenerate omega)


def untwisted_circle_example() -> Example:
    """Two-arc cover of a circle of leaves with lambda = 1, theta = 0.

    The pair overlap has two components, so the complex degenerates to the
    classical constant-coefficient Cech complex of the circle nerve.
    """
    manifold = Manifold(
        name="circle-flat",
        coords=("x", "p"),
        periods=(TWO_PI, None),
        window=Box((0.0, -1.0), (TWO_PI, 1.0)),
    )
    boxes = [
        Box((-0.4, -1.2), (math.pi + 0.4, 1.2)),
        Box((math.pi - 0.4, -1.2), (TWO_PI + 0.4, 1.2)),
    ]
    zero_form = (ex.ZERO, ex.ZERO)

    def data_builder(layout, pairs):
        return LocalData(
            transitions={(0, 1): ex.ONE, (1, 0): ex.ONE},
            potentials={0: zero_form, 1: zero_form},
        )

    return _assemble(
        manifold, SymplecticForm(ex.ZERO), boxes, data_builder,
        (axis_polarization("momentum-circles", manifold, leaf_axis=0),),
        map_specs=("identity",),
        census_range=(-0.9, 0.9),
    )


# ---------------------------------------------------------------------------
# public entry points


def example(name: str, nerve_degree: int = MAX_DEGREE, **params) -> Example:
    """The builtin model `name` with its cover's nerve built to degree
    nerve_degree: 0 for leaf threading alone, 2 for the local-data laws,
    n + 1 for cohomology through degree n.  params are keywords of
    PARAMETERS[name]."""
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
    return builders[name](nerve_degree=nerve_degree, **params)


_MAP_ARITY = {"identity": 0, "shear": 0, "rot": 1, "translate": 2, "pshift": 1}


def _map_argument(text: str, spec: str) -> float:
    """Value of one map argument: a real constant in the expression
    language, such as 0.7, pi or 2*pi/3."""
    try:
        node = parse_expr(text, set())
    except ex.ParseError as exc:
        raise ConfigurationError(
            f"map argument {text!r} in {spec!r} is not a constant: {exc}"
        ) from None
    if isinstance(node, Num):  # a literal keeps its float exactly, -0.0 too
        return node.value
    with np.errstate(all="ignore"):
        value = complex(ex.evaluate(node, {}))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigurationError(f"map argument {text!r} in {spec!r} is not finite")
    if value.imag != 0.0:
        raise ConfigurationError(f"map argument {text!r} in {spec!r} is not real")
    return value.real


def make_map(ex_: Example, spec: str) -> Symplectomorphism:
    """Build a symplectomorphism from a spec string like 'rot:0.7'.

    Accepted forms per example are listed in Example.map_specs; arguments
    follow a colon, comma separated, each a real constant expression
    (translate:2*pi/3,0).
    """
    name, _, argtext = spec.partition(":")
    if name not in ex_.map_specs:
        raise ConfigurationError(
            f"map {name!r} is not defined for {ex_.name}; have {ex_.map_specs}"
        )
    args = [_map_argument(v, spec) for v in argtext.split(",")] if argtext else []
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
