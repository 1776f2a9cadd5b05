"""Model manifolds, symplectic forms, polarizations, symplectomorphisms.

All models are 2-dimensional with global coordinates plus periodicity
flags; a periodic axis identifies x with x + period.  Polarizations are
fibrations given by an explicit fiber map whose level sets are the leaves,
with an explicit leaf-curve parameterization (this is what makes leaf
enumeration and path integrals exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from . import kernels, program

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    pass


def as_points(pts) -> np.ndarray:
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, 2)
    return arr


@dataclass(frozen=True)
class Box:
    """Closed coordinate rectangle; bounds live in unrolled coordinates,
    so on a periodic axis lo may be negative or hi may exceed the period."""

    lo: tuple
    hi: tuple

    def width(self, axis: int) -> float:
        return self.hi[axis] - self.lo[axis]

    def center(self) -> tuple:
        return tuple(0.5 * (l + h) for l, h in zip(self.lo, self.hi))

    def interval(self, axis: int) -> tuple:
        return (self.lo[axis], self.hi[axis])

    def shifted(self, vec) -> "Box":
        return Box(
            tuple(l + v for l, v in zip(self.lo, vec)),
            tuple(h + v for h, v in zip(self.hi, vec)),
        )

    def intersect(self, other: "Box", min_width: float = 1e-9):
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(h - l < min_width for l, h in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def contains(self, pts, tol: float = 1e-12) -> np.ndarray:
        arr = as_points(pts)
        ok = np.ones(len(arr), dtype=bool)
        for axis in range(2):
            ok &= (arr[:, axis] >= self.lo[axis] - tol) & (
                arr[:, axis] <= self.hi[axis] + tol
            )
        return ok

    def grid(self, n: int) -> np.ndarray:
        """Deterministic interior sample grid, (n*n, 2)."""
        axes = [
            np.linspace(self.lo[a] + 1e-3 * self.width(a),
                        self.hi[a] - 1e-3 * self.width(a), n)
            for a in range(2)
        ]
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class Manifold:
    name: str
    coords: tuple  # two coordinate names
    periods: tuple  # per axis: period or None
    window: Box  # bounded sampling region (fundamental domain if periodic)
    disk_radius: float | None = None  # for the disk model: x^2+y^2 < R^2

    def reduce(self, pts) -> np.ndarray:
        """Canonical representative: periodic coordinates into [0, P)."""
        arr = as_points(pts).copy()
        for axis, period in enumerate(self.periods):
            if period is not None:
                arr[:, axis] = np.mod(arr[:, axis], period)
        return arr

    def lift_into(self, pts, box: Box, tol: float = 1e-9) -> np.ndarray:
        """Representative of each point in the box frame (periodic unrolling).

        Periodic coordinates are shifted by whole periods toward the box;
        rows whose periodic coordinates cannot reach the box become nan.
        Non-periodic coordinates pass through (membership is a separate
        question, answered against the box bounds by the caller).
        """
        arr = as_points(pts).copy()
        for axis, period in enumerate(self.periods):
            if period is None:
                continue
            lo, hi = box.lo[axis], box.hi[axis]
            mid = 0.5 * (lo + hi)
            arr[:, axis] += period * np.round((mid - arr[:, axis]) / period)
            bad = (arr[:, axis] < lo - tol) | (arr[:, axis] > hi + tol)
            arr[bad] = np.nan
        return arr

    def lift_labels(self, labels, axis: int, lo, hi) -> tuple:
        """Leaf labels on a label axis lifted into intervals (lo, hi) of it:
        (lifted, inside), both (labels, intervals).

        On a periodic axis a label moves by whole periods toward each
        interval's midpoint, as lift_into moves points; it is inside when
        it lies strictly within the interval, 1e-9 clear of either end.
        """
        labels = np.asarray(labels, dtype=float)[:, None]
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        period = self.periods[axis]
        if period is None:
            lifted = np.repeat(labels, len(lo), axis=1)
        else:
            mid = 0.5 * (lo + hi)
            lifted = labels + period * np.round((mid - labels) / period)
        return lifted, (lo + 1e-9 < lifted) & (lifted < hi - 1e-9)

    def wrap_difference(self, a, b) -> np.ndarray:
        """Per-axis difference a - b, shortest representative mod periods."""
        d = as_points(a) - as_points(b)
        for axis, period in enumerate(self.periods):
            if period is not None:
                d[:, axis] = np.mod(d[:, axis] + 0.5 * period, period) - 0.5 * period
        return d

    def in_domain(self, pts) -> np.ndarray:
        arr = as_points(pts)
        if self.disk_radius is None:
            return np.ones(len(arr), dtype=bool)
        return arr[:, 0] ** 2 + arr[:, 1] ** 2 < self.disk_radius**2 - 1e-12

    def sample_grid(self, n: int) -> np.ndarray:
        pts = self.window.grid(n)
        return pts[self.in_domain(pts)]


@dataclass(frozen=True)
class SymplecticForm:
    """omega = W dc0 ^ dc1 in the model coordinates."""

    coefficient: ex.Expr

    def eval(self, manifold: Manifold, pts) -> np.ndarray:
        arr = as_points(pts)
        return eval_at(self.coefficient, manifold.coords, arr)


def eval_at(e, coords: tuple, pts: np.ndarray, extra: dict | None = None):
    """Evaluate an expression, or a program over coords, at (n, 2) points."""
    values = {coords[0]: pts[:, 0] + 0j, coords[1]: pts[:, 1] + 0j}
    if extra:
        values.update(extra)
    out = kernels.evaluate(e, values)
    if np.ndim(out) == 0:
        out = np.full(len(pts), out, dtype=np.complex128)
    return out


def _rows(vals: np.ndarray) -> np.ndarray:
    """Real parts of a tuple program's (outputs, n) result as (n, outputs)."""
    return np.ascontiguousarray(vals.real.T)


@dataclass(frozen=True)
class Symplectomorphism:
    name: str
    forward: tuple  # two Exprs in the model coordinates
    inverse: tuple
    coords: tuple

    @cached_property
    def _programs(self) -> dict:
        """The map and its Jacobian (entries row by row), forward and
        inverse, each one tuple program: ("map" | "jacobian", inverse)."""
        out = {}
        for inverse in (False, True):
            comps = self.inverse if inverse else self.forward
            out[("map", inverse)] = program.compile_expr(comps, self.coords)
            out[("jacobian", inverse)] = program.compile_expr(
                tuple(e for row in self.jacobian_exprs(inverse) for e in row),
                self.coords,
            )
        return out

    def apply(self, pts) -> np.ndarray:
        prog = self._programs[("map", False)]
        return _rows(eval_at(prog, self.coords, as_points(pts)))

    def apply_inverse(self, pts) -> np.ndarray:
        prog = self._programs[("map", True)]
        return _rows(eval_at(prog, self.coords, as_points(pts)))

    def jacobian_exprs(self, inverse: bool = False):
        comps = self.inverse if inverse else self.forward
        return tuple(
            tuple(ex.differentiate(c, name) for name in self.coords) for c in comps
        )

    def jacobian(self, pts, inverse: bool = False) -> np.ndarray:
        """DPhi at pts, shape (n, 2, 2)."""
        prog = self._programs[("jacobian", inverse)]
        return _rows(eval_at(prog, self.coords, as_points(pts))).reshape(-1, 2, 2)


def identity_map(manifold: Manifold) -> Symplectomorphism:
    x, y = (ex.Var(c) for c in manifold.coords)
    return Symplectomorphism("identity", (x, y), (x, y), manifold.coords)


@dataclass(frozen=True)
class Polarization:
    """Fibration polarization: leaves are level sets of fiber_map.

    The leaf through label c is the curve t -> curve(c, t); for 'axis'
    polarizations the curve runs along one coordinate axis at transverse
    value c, for 'radial' it is the circle of squared radius 2c, and a
    pushforward wraps a base polarization composed with a map.
    """

    name: str
    fiber_map: ex.Expr
    generator: tuple
    coords: tuple
    kind: str  # axis | radial | pushforward
    curve: tuple  # two Exprs in variables ("c", "t")
    leaf_axis: int | None = None
    label_axis: int | None = None
    leaf_period: float | None = None
    label_range: tuple = (0.0, 1.0)
    label_periodic: bool = False
    singular_points: tuple = ()
    base: "Polarization | None" = None
    map: Symplectomorphism | None = None

    @property
    def root(self) -> "Polarization":
        return self.base.root if self.base is not None else self

    def label_of(self, pts) -> np.ndarray:
        vals = eval_at(self.fiber_map, self.coords, as_points(pts)).real
        if self.label_periodic:
            period = self.label_range[1] - self.label_range[0]
            vals = self.label_range[0] + np.mod(vals - self.label_range[0], period)
        return vals

    @cached_property
    def _curve_program(self) -> program.Program:
        """The two leaf-curve components as one program over ("c", "t")."""
        return program.compile_expr(self.curve, ("c", "t"))

    def curve_points(self, c, ts) -> np.ndarray:
        """Points curve(c, t), (n, 2), for a 1-d array ts and a label c
        that is a scalar or an array like ts."""
        values = {
            "c": np.asarray(c, dtype=float) + 0j,
            "t": np.asarray(ts, dtype=float) + 0j,
        }
        return _rows(kernels.evaluate(self._curve_program, values))

    def generator_at(self, pts) -> np.ndarray:
        arr = as_points(pts)
        return np.column_stack(
            [eval_at(g, self.coords, arr).real for g in self.generator]
        )


@dataclass(frozen=True)
class MapCheckReport:
    symplectic_max: float
    inverse_max: float
    samples: int
    flagged: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.symplectic_max < self.tol and self.inverse_max < self.tol


def check_symplectomorphism(
    manifold: Manifold,
    omega: SymplecticForm,
    phi: Symplectomorphism,
    samples: int = 400,
    tol: float = 1e-8,
) -> MapCheckReport:
    """Sampled verification that phi preserves omega and inverts correctly.

    In dimension 2 the symplectic condition is W(phi(x)) det Dphi(x) = W(x).
    Samples whose image leaves the model domain are flagged, not fatal.
    """
    if samples < 1:
        raise GeometryError("samples must be >= 1")
    n = max(2, int(math.isqrt(samples)))
    pts = manifold.sample_grid(n)
    image = phi.apply(pts)
    ok = manifold.in_domain(image)
    flagged = int(np.sum(~ok))
    pts, image = pts[ok], image[ok]
    w_here = omega.eval(manifold, pts).real
    w_image = omega.eval(manifold, manifold.reduce(image)).real
    det = np.linalg.det(phi.jacobian(pts))
    sympl = float(np.max(np.abs(w_image * det - w_here))) if len(pts) else 0.0
    back = phi.apply_inverse(image)
    inv = (
        float(np.max(np.abs(manifold.wrap_difference(back, pts))))
        if len(pts)
        else 0.0
    )
    return MapCheckReport(sympl, inv, len(pts), flagged, tol)


def pushforward_polarization(phi: Symplectomorphism, pol: Polarization) -> Polarization:
    """The polarization phi(P), with P's leaf data transported through phi.

    Fiber map becomes f o phi (so labels are preserved leafwise), the
    generator is Dphi^{-1}(phi(x)) X(phi(x)), and leaf curves are the
    phi^{-1}-images of the base curves.
    """
    coords = pol.coords
    fwd = {name: comp for name, comp in zip(coords, phi.forward)}
    fiber = ex.substitute(pol.fiber_map, fwd)
    jac_inv = tuple(
        tuple(ex.substitute(ex.differentiate(comp, name), fwd) for name in coords)
        for comp in phi.inverse
    )
    gen_at_phi = tuple(ex.substitute(g, fwd) for g in pol.generator)
    generator = tuple(
        ex.add(ex.mul(jac_inv[i][0], gen_at_phi[0]), ex.mul(jac_inv[i][1], gen_at_phi[1]))
        for i in range(2)
    )
    curve_map = {name: comp for name, comp in zip(coords, pol.curve)}
    curve = tuple(ex.substitute(comp, curve_map) for comp in phi.inverse)
    singular = tuple(
        tuple(phi.apply_inverse(np.array([p]))[0]) for p in pol.singular_points
    )
    return Polarization(
        name=f"{phi.name}*{pol.name}",
        fiber_map=fiber,
        generator=generator,
        coords=coords,
        kind="pushforward",
        curve=curve,
        leaf_axis=None,
        label_axis=None,
        leaf_period=pol.leaf_period,
        label_range=pol.label_range,
        label_periodic=pol.label_periodic,
        singular_points=singular,
        base=pol,
        map=phi,
    )
