"""Parallel transport of polarized values along leaves.

One shared implementation of the transport factor exp(-i integral theta)
serves the cochain machinery, the holonomy computation, and the chain map,
so the sign conventions (docs/conventions.md) cannot drift apart.

The integrand theta(leaf'(t)) is composed symbolically, the potential
components substituted with the polarization's leaf curve, and compiled
once per element.  A pullback cover holds the pulled-back potentials as
formulas and is paired with the pushforward polarization, whose curve is
the preimage of the source curve, so it needs no other integrand.  The
integrand takes one leaf label or an array of labels, and integral takes
the labels of one segment as an array: their cache misses go to the
quadrature as one vector-valued integrand, labels by nodes.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from . import kernels, program
from .quadrature import integrate


class LeafTransport:
    def __init__(self, cover, polarization):
        self.cover = cover
        self.polarization = polarization
        self._integrands: dict = {}
        self._integrals: dict = {}
        self.integrals_computed = 0  # label integrals, cache misses
        self.batches = 0  # quadrature calls
        self.transition_batches = 0  # cover.transition calls of holonomies

    def integrand(self, member: int):
        run = self._integrands.get(member)
        if run is not None:
            return run
        coords = self.cover.manifold.coords
        theta = self.cover.data.potentials[member]
        curve = self.polarization.curve
        sub = {coords[0]: curve[0], coords[1]: curve[1]}
        integrand = ex.add(
            ex.mul(ex.substitute(theta[0], sub), ex.differentiate(curve[0], "t")),
            ex.mul(ex.substitute(theta[1], sub), ex.differentiate(curve[1], "t")),
        )
        prog = program.compile_expr(integrand, ("c", "t"))

        def pointwise(c, t):
            return kernels.evaluate(prog, {"c": c, "t": t})

        run = _over_labels(pointwise)
        self._integrands[member] = run
        return run

    def integral(self, member: int, c_elem, t0: float, t1: float):
        """Integral of theta_member along the leaf segment (element frame).

        c_elem may be a NumPy array of labels sharing the segment; the
        result is then an array, and the labels missing from the cache are
        integrated in one quadrature sweep that shares its subdivision.  An
        empty segment gives zero without quadrature.
        """
        t0, t1 = float(t0), float(t1)
        if isinstance(c_elem, np.ndarray):
            return self._integrals_of(member, c_elem, t0, t1)
        if t0 == t1:
            return 0j
        key = (member, float(c_elem), t0, t1)
        val = self._integrals.get(key)
        if val is None:
            run = self.integrand(member)
            val = complex(integrate(lambda ts: run(c_elem, ts), t0, t1))
            self._integrals[key] = val
            self.integrals_computed += 1
            self.batches += 1
        return val

    def _integrals_of(self, member: int, c_elem, t0: float, t1: float):
        labels = np.asarray(c_elem, dtype=float).tolist()
        if t0 == t1:
            return np.zeros(len(labels), dtype=np.complex128)
        cache = self._integrals
        keys = [(member, c, t0, t1) for c in labels]
        miss = [i for i, key in enumerate(keys) if key not in cache]
        if miss:
            run = self.integrand(member)
            cs = np.array([labels[i] for i in miss])
            vals = integrate(lambda ts: run(cs, ts), t0, t1)
            for i, val in zip(miss, vals.tolist()):
                cache[keys[i]] = val
            self.integrals_computed += len(miss)
            self.batches += 1
        return np.array([cache[key] for key in keys], dtype=np.complex128)

    def factor(self, member: int, c_elem, t0: float, t1: float):
        out = np.exp(-1j * self.integral(member, c_elem, t0, t1))
        return out if isinstance(c_elem, np.ndarray) else complex(out)


def _over_labels(pointwise):
    """The integrand run(c, ts) of a pointwise(c, t) on equal-length complex
    columns: (len(ts),) values for one label c, (len(c), len(ts)) for a
    NumPy array of labels."""

    def run(c_val, ts: np.ndarray) -> np.ndarray:
        if not isinstance(c_val, np.ndarray):
            return pointwise(complex(c_val), ts + 0j)
        m, n = len(c_val), len(ts)
        out = pointwise(np.repeat(c_val, n) + 0j, np.tile(ts, m) + 0j)
        return out.reshape(m, n)

    return run
