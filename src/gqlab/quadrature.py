"""Adaptive Gauss quadrature for batches of vectorized complex integrands.

Error control pairs a 7-point and a 15-point Gauss-Legendre rule per
subinterval and bisects where they disagree.  After Shampine's vectorized
quadgk every integrand is a batch: integrate takes m rows, each with its
own interval, and hands the nodes of every active subinterval of every
row to the integrand in one call per bisection level, which is what feeds
the expression-evaluation kernel.  The rows share the subdivision tree by
position, but each row is accepted on its own, and its nodes, sums and
decisions are computed element by element, so a row is bit for bit what
a one-row call gives, whatever it is batched with.
"""

from __future__ import annotations

import numpy as np

_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
_X = np.concatenate([_X7, _X15])  # the 22 nodes of a subinterval


class QuadratureError(RuntimeError):
    pass


def integrate(f, a, b, tol: float = 1e-12, max_depth: int = 24):
    """Integrals of the rows of f, row r over [a[r], b[r]].

    a and b broadcast to a common (m,) shape.  f maps an (m, k) array of
    nodes, row r on row r's own subintervals, to the (m, k) complex values
    of the rows there.  Tolerance is absolute-plus-relative: a row is
    accepted on a subinterval when its 7/15 point estimates agree within
    tol * (1 + |I_15|); the subintervals on which any row is still open are
    bisected.  Once a row is accepted on a subinterval, its later values
    there are never added, checked or split on, and a row with a == b
    starts accepted with integral 0.  Accepted estimates are added left to
    right in bisection order.  A non-finite estimate of an open row raises
    at once.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    los = np.minimum(a, b).reshape(-1, 1)  # row r's subintervals, by position
    his = np.maximum(a, b).reshape(-1, 1)
    if not (np.isfinite(los).all() and np.isfinite(his).all()):
        raise QuadratureError("integration bounds must be finite")
    m = len(los)
    sign = np.where(b < a, -1.0, 1.0).reshape(m)
    active = (a != b).reshape(m, 1)  # row r still open on subinterval j
    totals = np.zeros(m, dtype=np.complex128)
    depth = 0
    while active.any():
        n = los.shape[1]
        mids, halfs = 0.5 * (los + his), 0.5 * (his - los)
        nodes = mids[:, :, None] + halfs[:, :, None] * _X
        vals = np.asarray(f(nodes.reshape(m, 22 * n)), dtype=np.complex128)
        vals = vals.reshape(m, n, 22)
        # summed elementwise: a matrix product rounds by batch shape
        i7 = halfs * (vals[:, :, :7] * _W7).sum(-1)
        i15 = halfs * (vals[:, :, 7:] * _W15).sum(-1)
        bad = active & ~np.isfinite(i15)
        if bad.any():
            j, r = divmod(int(np.flatnonzero(bad.T)[0]), m)
            raise QuadratureError(f"non-finite estimate on [{los[r, j]}, {his[r, j]}]")
        err = np.abs(i15 - i7)
        keep = err <= tol * (1.0 + np.abs(i15))
        # each row's sum runs left to right; the zeros of rows not accepted
        # on a subinterval add exactly nothing to a total that is never -0
        added = np.where(active & keep, i15, 0.0)
        totals = np.add.accumulate(
            np.concatenate([totals[:, None], added], axis=1), axis=1
        )[:, -1]
        active &= ~keep
        split = active.any(axis=0)
        if not split.any():
            break
        if depth >= max_depth:
            j = int(np.flatnonzero(split)[0])
            r = int(np.flatnonzero(active[:, j])[0])
            raise QuadratureError(
                f"no convergence on [{los[r, j]}, {his[r, j]}] "
                f"(err {err[active[:, j], j].max():.3e})"
            )
        # the children of a subinterval stay next to each other, so every
        # row keeps its left-to-right order
        los = np.stack([los[:, split], mids[:, split]], axis=-1).reshape(m, -1)
        his = np.stack([mids[:, split], his[:, split]], axis=-1).reshape(m, -1)
        active = np.repeat(active[:, split], 2, axis=1)
        depth += 1
    return sign * totals
