"""Adaptive Gauss quadrature for vectorized complex integrands.

Error control pairs a 7-point and a 15-point Gauss-Legendre rule per
subinterval and bisects where they disagree.  The integrand is expected to
map a 1-d array of parameter values to a complex array, so node batches of
every active subinterval are evaluated in a single call — this is what
feeds the expression-evaluation kernel.  After Shampine's vectorized quadgk
the batch extends across a family of integrands in two ways: integrate
takes a vector-valued integrand whose rows share one subdivision of a
common interval, and integrate_many runs one loop over the subintervals of
many intervals at once.
"""

from __future__ import annotations

import cmath

import numpy as np

_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)


class QuadratureError(RuntimeError):
    pass


def _nodes(los: np.ndarray, his: np.ndarray):
    """Midpoints, half-widths, and the 7-point nodes of every subinterval
    followed by their 15-point nodes."""
    mids = 0.5 * (los + his)
    halfs = 0.5 * (his - los)
    nodes = np.concatenate(
        [
            (mids[:, None] + halfs[:, None] * _X7[None, :]).ravel(),
            (mids[:, None] + halfs[:, None] * _X15[None, :]).ravel(),
        ]
    )
    return mids, halfs, nodes


def _estimates(vals, halfs: np.ndarray, tol: float):
    """15-point estimate, 7/15 disagreement and acceptance per subinterval."""
    vals = np.asarray(vals, dtype=np.complex128)
    n = len(halfs)
    i7 = halfs * (vals[: 7 * n].reshape(n, 7) @ _W7)
    i15 = halfs * (vals[7 * n :].reshape(n, 15) @ _W15)
    err = np.abs(i15 - i7)
    return i15, err, err <= tol * (1.0 + np.abs(i15))


def _require_finite(finite: np.ndarray, los: np.ndarray, his: np.ndarray):
    """Raise on the first subinterval whose 15-point estimate is not finite,
    rather than bisect it down to max_depth (and, in a shared subdivision,
    every other row with it)."""
    if not finite.all():
        j = np.flatnonzero(~finite)[0]
        raise QuadratureError(f"non-finite estimate on [{los[j]}, {his[j]}]")


def integrate(f, a: float, b: float, tol: float = 1e-12, max_depth: int = 24):
    """Integral of f (vectorized, complex-valued) over [a, b].

    Tolerance is absolute-plus-relative: a subinterval is accepted when the
    7/15 point estimates agree within tol * (1 + |I_15|).  f may also be
    vector-valued, returning an (m, len(ts)) array; the result is then the
    (m,) integrals of its rows, which share one subdivision (see
    _integrate_rows).  A non-finite estimate raises at once.
    """
    if a == b:
        probe = np.asarray(f(np.empty(0)))
        if probe.ndim == 2:
            return np.zeros(len(probe), dtype=np.complex128)
        return 0.0 + 0.0j
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    intervals = [(a, b, 0)]
    total = 0.0 + 0.0j
    while intervals:
        los = np.array([iv[0] for iv in intervals])
        his = np.array([iv[1] for iv in intervals])
        mids, halfs, nodes = _nodes(los, his)
        vals = f(nodes)
        if getattr(vals, "ndim", 1) == 2:
            return sign * _integrate_rows(f, vals, los, his, tol, max_depth)
        i15, err, keep = _estimates(vals, halfs, tol)
        next_intervals = []
        for j, (lo, hi, depth) in enumerate(intervals):
            if keep[j]:
                total += i15[j]
            elif not cmath.isfinite(i15[j]):
                raise QuadratureError(f"non-finite estimate on [{lo}, {hi}]")
            elif depth >= max_depth:
                raise QuadratureError(
                    f"no convergence on [{lo}, {hi}] (err {err[j]:.3e})"
                )
            else:
                mid = mids[j]
                next_intervals.append((lo, mid, depth + 1))
                next_intervals.append((mid, hi, depth + 1))
        intervals = next_intervals
    if not cmath.isfinite(total):  # an infinite estimate passes the test
        raise QuadratureError(f"non-finite estimate on [{a}, {b}]")
    return sign * total


def _integrate_rows(f, vals, los, his, tol: float, max_depth: int):
    """Integrals of the rows of a vector-valued f over [los[0], his[0]],
    given vals = f at the nodes of that interval.

    The rows share subintervals: one is accepted when every row passes the
    test of integrate, and accepted estimates are added in integrate's
    order, so a row matches a scalar integrate of it whenever the shared
    subdivision is its own.
    """
    m = len(vals)
    total = np.zeros(m, dtype=np.complex128)
    mids, halfs, _ = _nodes(los, his)
    depth = 0
    while True:
        # _estimates per row: each row's sums are the matrix-vector products
        # a 1-d call on that row makes, so its estimates are bit-identical
        n = len(halfs)
        vals = np.asarray(vals, dtype=np.complex128)
        i7 = halfs * (vals[:, : 7 * n].reshape(m, n, 7) @ _W7)
        i15 = halfs * (vals[:, 7 * n :].reshape(m, n, 15) @ _W15)
        err = np.abs(i15 - i7)
        _require_finite(np.isfinite(i15).all(axis=0), los, his)
        keep = (err <= tol * (1.0 + np.abs(i15))).all(axis=0)
        for j in np.flatnonzero(keep):
            total += i15[:, j]
        split = ~keep
        if not split.any():
            return total
        if depth >= max_depth:
            j = np.flatnonzero(split)[0]
            raise QuadratureError(
                f"no convergence on [{los[j]}, {his[j]}] (err {err[:, j].max():.3e})"
            )
        los = np.column_stack([los[split], mids[split]]).ravel()
        his = np.column_stack([mids[split], his[split]]).ravel()
        depth += 1
        mids, halfs, nodes = _nodes(los, his)
        vals = f(nodes)


def integrate_many(f, a, b, tol: float = 1e-12, max_depth: int = 24):
    """Integrals of f over [a_j, b_j] for every target j, in one loop.

    a and b broadcast to a common 1-d shape.  f(ts, owner) receives the
    nodes of every active subinterval together with the target index of
    each node.  Each subinterval meets the same acceptance test as in
    integrate, a non-finite estimate raises at once, and target j agrees
    with integrate(lambda t: f(t, j), a_j, b_j) up to rounding.
    """
    a, b = np.broadcast_arrays(
        np.atleast_1d(np.asarray(a, dtype=float)),
        np.atleast_1d(np.asarray(b, dtype=float)),
    )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise QuadratureError("integration bounds must be finite")
    totals = np.zeros(a.shape, dtype=np.complex128)
    sign = np.where(b < a, -1.0, 1.0)
    live = np.flatnonzero(a != b)
    los = np.minimum(a, b)[live]
    his = np.maximum(a, b)[live]
    owner = live
    depth = 0
    while len(owner):
        mids, halfs, nodes = _nodes(los, his)
        node_owner = np.concatenate([np.repeat(owner, 7), np.repeat(owner, 15)])
        i15, err, keep = _estimates(f(nodes, node_owner), halfs, tol)
        _require_finite(np.isfinite(i15), los, his)
        # in subinterval order per target, as integrate accumulates them
        np.add.at(totals, owner[keep], i15[keep])
        split = ~keep
        if not split.any():
            break
        if depth >= max_depth:
            j = np.flatnonzero(split)[0]
            raise QuadratureError(
                f"no convergence on [{los[j]}, {his[j]}] (err {err[j]:.3e})"
            )
        # children stay next to each other, so every target keeps the
        # left-to-right order integrate uses
        los = np.column_stack([los[split], mids[split]]).ravel()
        his = np.column_stack([mids[split], his[split]]).ravel()
        owner = np.repeat(owner[split], 2)
        depth += 1
    return sign * totals
