"""Adaptive Gauss quadrature for batches of vectorized complex integrands.

Error control pairs a 7-point and a 15-point Gauss-Legendre rule per
subinterval and bisects where they disagree.  After Shampine's vectorized
quadgk every integrand is a batch, and the nodes of every active
subinterval go to it in one call, which is what feeds the
expression-evaluation kernel.  There are two loops: integrate takes a
vector-valued integrand, f(ts) of shape (m, len(ts)), whose m rows share
one subdivision of a common interval; integrate_many runs one loop over
the subintervals of many intervals at once, each target with its own
subdivision.
"""

from __future__ import annotations

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
    """15-point estimate, 7/15 disagreement and acceptance per row of
    vals (m, 22 n) and subinterval."""
    vals = np.asarray(vals, dtype=np.complex128)
    m, n = len(vals), len(halfs)
    i7 = halfs * (vals[:, : 7 * n].reshape(m, n, 7) @ _W7)
    i15 = halfs * (vals[:, 7 * n :].reshape(m, n, 15) @ _W15)
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
    """Integrals of the rows of a vector-valued f over [a, b].

    f maps a 1-d array ts of parameter values to an (m, len(ts)) complex
    array; the result is the (m,) integrals of its rows, which share one
    subdivision.  Tolerance is absolute-plus-relative: a subinterval is
    accepted when, in every row, the 7/15 point estimates agree within
    tol * (1 + |I_15|).  Accepted estimates are added left to right in
    bisection order, and each row's sums are the matrix-vector products a
    one-row f makes, so a row is bit-identical to its one-row integral
    whenever the shared subdivision is its own.  A non-finite estimate
    raises at once.
    """
    if a == b:
        return np.zeros(len(f(np.empty(0))), dtype=np.complex128)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    los, his = np.array([a]), np.array([b])
    total = 0.0  # the (m,) row sums from the first accepted subinterval on
    depth = 0
    while True:
        mids, halfs, nodes = _nodes(los, his)
        i15, err, keep = _estimates(f(nodes), halfs, tol)
        _require_finite(np.isfinite(i15).all(axis=0), los, his)
        keep = keep.all(axis=0)
        for j in np.flatnonzero(keep):
            total += i15[:, j]
        split = ~keep
        if not split.any():
            return sign * total
        if depth >= max_depth:
            j = np.flatnonzero(split)[0]
            raise QuadratureError(
                f"no convergence on [{los[j]}, {his[j]}] (err {err[:, j].max():.3e})"
            )
        los = np.column_stack([los[split], mids[split]]).ravel()
        his = np.column_stack([mids[split], his[split]]).ravel()
        depth += 1


def integrate_many(f, a, b, tol: float = 1e-12, max_depth: int = 24):
    """Integrals of f over [a_j, b_j] for every target j, in one loop.

    a and b broadcast to a common 1-d shape.  f(ts, owner) receives the
    nodes of every active subinterval together with the target index of
    each node.  Each subinterval meets the same acceptance test as in
    integrate, a non-finite estimate raises at once, and target j agrees
    with a one-row integrate of f(., j) over [a_j, b_j] up to rounding.
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
        i15, err, keep = (x[0] for x in _estimates([f(nodes, node_owner)], halfs, tol))
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
