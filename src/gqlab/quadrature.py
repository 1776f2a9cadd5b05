"""Adaptive Gauss-Kronrod quadrature for batches of vectorized complex integrands.

Error control is the nested 7/15-point Gauss-Kronrod pair of QUADPACK
(Piessens et al., 1983): the 15 Kronrod nodes of a subinterval hold the 7
Gauss nodes, so one evaluation of 15 points gives both estimates, and a
subinterval is bisected where they disagree.  After Shampine's vectorized
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

from . import trace

# The 7-point Gauss-Legendre rule on [-1, 1], bit for bit what
# numpy.polynomial.legendre.leggauss(7) gives (tests/test_quadrature.py
# checks it); as literals they spare every process the import of
# numpy.polynomial.
_X7 = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
])
_W7 = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
    0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
])
# The 15 nodes of the Kronrod extension of that rule (QUADPACK's qk15): the
# 7 Gauss nodes first, so that the Gauss rule reads a slice, then the 8
# Kronrod nodes.  The Gauss nodes are _X7's: QUADPACK's decimal
# 0.9491079123427585245... rounds to a double 1 ulp below leggauss's.
_X = np.concatenate([_X7, [
    -0.9914553711208126, -0.8648644233597691, -0.5860872354676911, -0.20778495500789848,
    0.20778495500789848, 0.5860872354676911, 0.8648644233597691, 0.9914553711208126,
]])
_WK = np.array([  # the Kronrod weights of _X
    0.06309209262997856, 0.14065325971552592, 0.19035057806478542, 0.20948214108472782,
    0.19035057806478542, 0.14065325971552592, 0.06309209262997856,
    0.022935322010529224, 0.10479001032225019, 0.1690047266392679, 0.20443294007529889,
    0.20443294007529889, 0.1690047266392679, 0.10479001032225019, 0.022935322010529224,
])


class QuadratureError(RuntimeError):
    pass


def integrate(f, a, b, constant=False):
    """Integrals of the rows of f, row r over [a[r], b[r]].

    a and b broadcast to a common (m,) shape.  f maps an (m, k) array of
    nodes, row r on row r's own subintervals, to the (m, k) complex values
    of the rows there.  A row is accepted on a subinterval when its Gauss
    and Kronrod estimates agree, |K15 - G7| <= 1e-12 (1 + |K15|), and there
    it adds K15; subintervals where any row is open are bisected.  Once
    accepted on a subinterval, a row's later values there are never added,
    checked or split on; a row with a == b starts accepted with integral
    +0.  Accepted estimates are added left to right in bisection order.

    With constant, the caller says that no row reads its variable: f is
    called once, on each row's midpoint as an (m, 1) array, and row r is
    its value v[r] times b[r] - a[r], in closed form.

    A non-finite estimate of an open row raises QuadratureError at once,
    and so does a row still open after 24 bisections.  Counts the open
    subintervals of the rows that it bisects (quadrature_bisections).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    los = np.minimum(a, b).reshape(-1, 1)  # row r's subintervals, by position
    his = np.maximum(a, b).reshape(-1, 1)
    if not (np.isfinite(los).all() and np.isfinite(his).all()):
        raise QuadratureError("integration bounds must be finite")
    m = len(los)
    trace.count("quadrature_bisections", 0)
    active = (a != b).reshape(m, 1)  # row r still open on subinterval j
    if constant:
        if not active.any():
            return np.zeros(m, dtype=np.complex128)
        vals = np.asarray(f(0.5 * (los + his)), dtype=np.complex128).reshape(m, 1)
        k15 = np.where(active, vals, 0.0) * (b - a).reshape(m, 1)
        _check_finite(k15, active, los, his)
        return k15[:, 0]
    sign = np.where(b < a, -1.0, 1.0).reshape(m)
    totals = np.zeros(m, dtype=np.complex128)
    depth = 0
    while active.any():
        n = los.shape[1]
        mids, halfs = 0.5 * (los + his), 0.5 * (his - los)
        nodes = mids[:, :, None] + halfs[:, :, None] * _X
        vals = np.asarray(f(nodes.reshape(m, 15 * n)), dtype=np.complex128).reshape(m, n, 15)
        # summed elementwise: a matrix product rounds by batch shape
        g7 = halfs * (vals[:, :, :7] * _W7).sum(-1)
        k15 = halfs * (vals * _WK).sum(-1)
        _check_finite(k15, active, los, his)
        err = np.abs(k15 - g7)
        keep = (err <= 1e-12 * (1.0 + np.abs(k15))) & active  # accepted here
        # each row's sum runs left to right from its total; the zeros of rows
        # not accepted add exactly nothing to a total that is never -0
        added = np.where(keep, k15, 0.0)
        added[:, 0] += totals
        totals = np.add.accumulate(added, axis=1)[:, -1]
        active ^= keep
        if not active.any():
            break
        split = active.any(axis=0)
        if depth >= 24:
            j = int(np.flatnonzero(split)[0])
            r = int(np.flatnonzero(active[:, j])[0])
            raise QuadratureError(
                f"no convergence on [{los[r, j]}, {his[r, j]}] "
                f"(err {err[active[:, j], j].max():.3e})"
            )
        trace.count("quadrature_bisections", int(active.sum()))
        # the children of a subinterval stay next to each other, so every
        # row keeps its left-to-right order
        los = np.stack([los[:, split], mids[:, split]], axis=-1).reshape(m, -1)
        his = np.stack([mids[:, split], his[:, split]], axis=-1).reshape(m, -1)
        active = np.repeat(active[:, split], 2, axis=1)
        depth += 1
    return sign * totals


def _check_finite(k15, active, los, his) -> None:
    """Raise QuadratureError on the first open (row, subinterval) whose
    estimate is not finite, subinterval by subinterval."""
    bad = active & ~np.isfinite(k15)
    if bad.any():
        j, r = divmod(int(np.flatnonzero(bad.T)[0]), len(k15))
        raise QuadratureError(f"non-finite estimate on [{los[r, j]}, {his[r, j]}]")
