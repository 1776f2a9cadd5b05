"""Model manifolds, symplectic forms, polarizations, symplectomorphisms.

All models are 2-dimensional with global coordinates plus periodicity
flags; a periodic axis identifies x with x + period.  Polarizations are
fibrations given by an explicit fiber map whose level sets are the leaves,
with an explicit leaf-curve parameterization (this is what makes leaf
enumeration and path integrals exact).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import kernels, program
from .record import Record, read_only

TWO_PI = 2.0 * math.pi


def as_points(pts) -> np.ndarray:
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, 2)
    return arr


class Box(NamedTuple):
    """Closed coordinate rectangle; bounds live in unrolled coordinates,
    so on a periodic axis lo may be negative or hi may exceed the period."""

    lo: tuple
    hi: tuple

    def center(self) -> tuple:
        return tuple(0.5 * (l + h) for l, h in zip(self.lo, self.hi))

    def interval(self, axis: int) -> tuple:
        return (self.lo[axis], self.hi[axis])

    def shifted(self, vec) -> "Box":
        return Box(
            tuple(l + v for l, v in zip(self.lo, vec)),
            tuple(h + v for h, v in zip(self.hi, vec)),
        )

    def grid(self, n: int) -> np.ndarray:
        """Deterministic interior sample grid (inset_grids), (n*n, 2)."""
        return inset_grids(np.array([self.lo], float), np.array([self.hi], float), n)[0]


def inset_grids(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """The interior sample grid of each box (rows of lo, hi), (boxes, n*n,
    2): the ij meshgrid of n points per axis, inset by 1e-3 of the box's
    width."""
    inset = 1e-3 * (hi - lo)
    start, stop = lo + inset, hi - inset
    # np.linspace(start, stop, n, axis=1), bit for bit: i * step + start,
    # and stop itself last
    axes = np.arange(n, dtype=float)[:, None] * ((stop - start) / (n - 1))[:, None, :]
    axes += start[:, None, :]
    axes[:, -1] = stop  # (boxes, n, 2)
    grid = np.empty((len(lo), n, n, 2))
    grid[..., 0] = axes[:, :, None, 0]
    grid[..., 1] = axes[:, None, :, 1]
    return grid.reshape(len(lo), n * n, 2)


class Manifold(NamedTuple):
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

    def lift_into(self, pts, box) -> np.ndarray:
        """Representative of each point in the box frame (periodic unrolling).

        box is a Box, or a pair (lo, hi) of corner arrays indexed by axis
        first: (2,) for one box, (2, n) for one box per point.  Periodic
        coordinates are shifted by whole periods toward the box; rows whose
        periodic coordinates cannot reach it, to 1e-9, become nan.
        Non-periodic coordinates pass through (membership is a separate
        question, answered against the box bounds by the caller).
        """
        arr = as_points(pts).copy()
        for axis, period in enumerate(self.periods):
            if period is None:
                continue
            lo, hi = box[0][axis], box[1][axis]
            mid = 0.5 * (lo + hi)
            arr[:, axis] += period * np.round((mid - arr[:, axis]) / period)
            bad = (arr[:, axis] < lo - 1e-9) | (arr[:, axis] > hi + 1e-9)
            arr[bad] = np.nan
        return arr

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


class SymplecticForm(NamedTuple):
    """omega = W dc0 ^ dc1 in the model coordinates."""

    coefficient: ex.Expr

    def eval(self, manifold: Manifold, pts) -> np.ndarray:
        arr = as_points(pts)
        return eval_at(self.coefficient, manifold.coords, arr)


def eval_at(e, coords: tuple, pts: np.ndarray):
    """Evaluate an expression, or a program over coords, at (n, 2) points."""
    values = {coords[0]: pts[:, 0], coords[1]: pts[:, 1]}
    return kernels.evaluate(e, values)


def _rows(vals: np.ndarray) -> np.ndarray:
    """Real parts of a tuple program's (outputs, n) result as (n, outputs)."""
    return np.ascontiguousarray(vals.real.T)


class Symplectomorphism(Record):
    def __init__(self, name: str, forward: tuple, inverse: tuple, coords: tuple):
        # forward and inverse: two Exprs each, in the model coordinates
        self._set(locals())

    @cached_property
    def _programs(self) -> dict:
        """The map, its inverse and its Jacobian (entries row by row), each
        one tuple program: "map", "inverse" and "jacobian"."""
        return {
            "map": program.compile_expr(self.forward, self.coords),
            "inverse": program.compile_expr(self.inverse, self.coords),
            "jacobian": program.compile_expr(
                tuple(e for row in self.jacobian_exprs() for e in row), self.coords
            ),
        }

    def apply(self, pts) -> np.ndarray:
        return _rows(eval_at(self._programs["map"], self.coords, as_points(pts)))

    def apply_inverse(self, pts) -> np.ndarray:
        return _rows(eval_at(self._programs["inverse"], self.coords, as_points(pts)))

    def jacobian_exprs(self):
        return tuple(
            tuple(ex.differentiate(c, name) for name in self.coords) for c in self.forward
        )

    def jacobian(self, pts) -> np.ndarray:
        """DPhi at pts, shape (n, 2, 2)."""
        prog = self._programs["jacobian"]
        return _rows(eval_at(prog, self.coords, as_points(pts))).reshape(-1, 2, 2)


def identity_map(manifold: Manifold) -> Symplectomorphism:
    x, y = (ex.Var(c) for c in manifold.coords)
    return Symplectomorphism("identity", (x, y), (x, y), manifold.coords)


class Polarization(Record):
    """Fibration polarization: leaves are level sets of fiber_map.

    The leaf through label c is the curve t -> curve(c, t); for 'axis'
    polarizations the curve runs along one coordinate axis at transverse
    value c (see axis_polarization), for 'radial' it is the circle of
    squared radius 2c, and a pushforward wraps a base polarization composed
    with a map.
    """

    def __init__(
        self,
        name: str,
        fiber_map: ex.Expr,
        coords: tuple,
        kind: str,  # axis | radial | pushforward
        curve: tuple,  # two Exprs in variables ("c", "t")
        leaf_axis: int | None = None,
        label_axis: int | None = None,
        leaf_period: float | None = None,
        label_range: tuple = (0.0, 1.0),
        label_periodic: bool = False,
        singular_points: tuple = (),
        base: Polarization | None = None,
    ):
        self._set(locals())

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
        values = {"c": np.asarray(c, dtype=float), "t": np.asarray(ts, dtype=float)}
        return _rows(kernels.evaluate(self._curve_program, values))


def axis_polarization(
    name: str, manifold: Manifold, leaf_axis: int, singular_points: tuple = ()
) -> Polarization:
    """The polarization whose leaves run along coordinate axis leaf_axis.

    The other axis is the label axis and the fiber map its coordinate: the
    leaf at label c is the curve (t, c) or (c, t).  The leaf period is the
    manifold's period on the leaf axis, the label range the window's
    interval on the label axis, and labels wrap when that axis is periodic.
    """
    label_axis = 1 - leaf_axis
    c, t = ex.Var("c"), ex.Var("t")
    return Polarization(
        name=name,
        fiber_map=ex.Var(manifold.coords[label_axis]),
        coords=manifold.coords,
        kind="axis",
        curve=(t, c) if leaf_axis == 0 else (c, t),
        leaf_axis=leaf_axis,
        label_axis=label_axis,
        leaf_period=manifold.periods[leaf_axis],
        label_range=manifold.window.interval(label_axis),
        label_periodic=manifold.periods[label_axis] is not None,
        singular_points=singular_points,
    )


class LeafFrame(NamedTuple):
    """How the leaves of a polarization cross a list of coordinate boxes:
    the one rule that the leaf atlas and the transversal grid share.

    LeafFrame.of reads the root polarization, so a pushforward crosses its
    boxes as its base does.  Each box gets a label window, a leaf-parameter
    window and a flag saying whether it holds a whole leaf (its leaf window
    spans the leaf period, to 1e-9).  An axis polarization's windows are the
    box's intervals on its label and leaf axes, and a leaf crosses a box
    when its label, lifted by whole periods toward the window's midpoint,
    lies in the window 1e-9 clear of either end.  A radial polarization's
    leaf c, the circle of squared radius 2c about the origin, crosses a box
    that holds the whole circle: the label window is (0, half^2 / 2), half
    the distance from the origin to the box's nearest side, open with no
    margin, and the leaf window is one turn.  A period shift of a nerve
    cell's frame moves the leaf parameter along the leaf axis and the label
    along the label axis, by the manifold's periods there; radial leaves
    live on a plane and do not move.  The arrays are read-only.
    """

    label_lo: np.ndarray  # per box
    label_hi: np.ndarray
    leaf_lo: np.ndarray
    leaf_hi: np.ndarray
    whole: np.ndarray  # per box: it holds a whole leaf
    label_period: float | None  # labels lift by whole periods when set
    margin: float  # how far clear of a label window's ends a label must be
    shift_axes: tuple  # (leaf, label): the axes a frame shift moves along
    shift_periods: tuple  # (leaf, label): by how far, per unit shift

    @classmethod
    def of(cls, manifold: Manifold, pol: Polarization, lo, hi) -> "LeafFrame":
        """The frame of the boxes whose corners are the rows of lo and hi."""
        root = pol.root
        if root.kind == "radial":
            half = np.min(np.column_stack([hi, -lo]), axis=1)
            windows = (np.zeros(len(lo)), 0.5 * half * half,
                       np.zeros(len(lo)), np.full(len(lo), TWO_PI))
            rules = (None, 0.0, (0, 0), (0.0, 0.0))
        else:
            label_axis, leaf_axis = root.label_axis, root.leaf_axis
            windows = (lo[:, label_axis], hi[:, label_axis],
                       lo[:, leaf_axis], hi[:, leaf_axis])
            axes = (leaf_axis, label_axis)
            periods = tuple(manifold.periods[a] or 0.0 for a in axes)
            rules = (manifold.periods[label_axis], 1e-9, axes, periods)
        period = root.leaf_period
        if period is None:
            whole = np.zeros(len(lo), dtype=bool)
        else:
            whole = windows[3] - windows[2] >= period - 1e-9
        return cls(*read_only(*windows, whole), *rules)

    def lift(self, labels) -> tuple:
        """(lifted, inside), both (labels, boxes): each label lifted into
        every box's label window, and whether its leaf crosses the box."""
        labels = np.asarray(labels, dtype=float)[:, None]
        lo, hi, period = self.label_lo, self.label_hi, self.label_period
        if period is None:
            lifted = np.repeat(labels, len(lo), axis=1)
        else:
            mid = 0.5 * (lo + hi)
            lifted = labels + period * np.round((mid - labels) / period)
        return lifted, (lo + self.margin < lifted) & (lifted < hi - self.margin)

    def offsets(self, shifts) -> tuple:
        """The leaf-parameter and label offsets of integer frame shifts,
        an array (..., 2)."""
        shifts = np.asarray(shifts)
        (leaf_axis, label_axis), (p_leaf, p_label) = self.shift_axes, self.shift_periods
        return shifts[..., leaf_axis] * p_leaf, shifts[..., label_axis] * p_label


class MapCheckReport(NamedTuple):
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
    tol: float = 1e-8,
) -> MapCheckReport:
    """Sampled verification that phi preserves omega and inverts correctly.

    In dimension 2 the symplectic condition is W(phi(x)) det Dphi(x) = W(x).
    Samples whose image leaves the model domain are flagged, not fatal.
    """
    pts = manifold.sample_grid(20)
    image = phi.apply(pts)
    ok = manifold.in_domain(image)
    flagged = len(ok) - int(np.count_nonzero(ok))
    if flagged:
        pts, image = pts[ok], image[ok]
    w_here = omega.eval(manifold, pts).real
    w_image = omega.eval(manifold, manifold.reduce(image)).real
    # the 2x2 determinants in closed form: np.linalg.det calls LAPACK once
    # per matrix, which cost as much as the rest of the check, and act runs
    # the check on every call
    (a, b), (c, d) = phi.jacobian(pts).transpose(1, 2, 0)
    det = a * d - b * c
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

    Fiber map becomes f o phi (so labels are preserved leafwise), and leaf
    curves are the phi^{-1}-images of the base curves.
    """
    coords = pol.coords
    fwd = {name: comp for name, comp in zip(coords, phi.forward)}
    fiber = ex.substitute(pol.fiber_map, fwd)
    curve_map = {name: comp for name, comp in zip(coords, pol.curve)}
    curve = tuple(ex.substitute(comp, curve_map) for comp in phi.inverse)
    singular = tuple(
        tuple(phi.apply_inverse(np.array([p]))[0]) for p in pol.singular_points
    )
    return Polarization(
        name=f"{phi.name}*{pol.name}",
        fiber_map=fiber,
        coords=coords,
        kind="pushforward",
        curve=curve,
        leaf_period=pol.leaf_period,
        label_range=pol.label_range,
        label_periodic=pol.label_periodic,
        singular_points=singular,
        base=pol,
    )
