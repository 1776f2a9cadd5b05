"""Parallel transport of polarized values along leaves.

One shared implementation of the transport factor exp(-i integral theta)
serves the cochain machinery, the holonomy computation, and the chain map,
so the sign conventions (docs/conventions.md) cannot drift apart.

The integrand theta(leaf'(t)) is composed symbolically, the potential
components substituted with the polarization's leaf curve, and compiled
once per element.  A pullback cover holds the pulled-back potentials as
formulas and is paired with the pushforward polarization, whose curve is
the preimage of the source curve, so it needs no other integrand.  Every
call works on batches of labels: integral takes the labels of one leaf
segment as an array and sends its cache misses to the quadrature as one
vector-valued integrand, labels by nodes; integrals takes entries on many
segments, as holonomies and the differential need them, and makes one
integral call per distinct segment.
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
        """run(cs, ts): theta_member(leaf'(t)) at every label of the array
        cs and every node of ts, as a (len(cs), len(ts)) array."""
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

        def run(cs: np.ndarray, ts: np.ndarray) -> np.ndarray:
            m, n = len(cs), len(ts)
            columns = {"c": np.repeat(cs, n) + 0j, "t": np.tile(ts, m) + 0j}
            return kernels.evaluate(prog, columns).reshape(m, n)

        self._integrands[member] = run
        return run

    def integral(self, member: int, c_elem, t0: float, t1: float) -> np.ndarray:
        """Integrals of theta_member along the leaf segment [t0, t1], in the
        element frame, one per label of the array c_elem.

        The labels missing from the cache are integrated in one quadrature
        sweep that shares its subdivision.  An empty segment gives zeros
        without quadrature.
        """
        t0, t1 = float(t0), float(t1)
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

    def factor(self, member: int, c_elem, t0: float, t1: float) -> np.ndarray:
        return np.exp(-1j * self.integral(member, c_elem, t0, t1))

    def integrals(self, elements, t0, t1, labels) -> np.ndarray:
        """The integral of every entry i, a leaf segment (elements[i],
        t0[i], t1[i]) and a label labels[i], as integral gives it.

        Entries that share a leaf segment share one integral call, on the
        segment's distinct labels in ascending order, so its cache misses
        are one quadrature sweep.  The four arguments are equal-length
        sequences, one column each.
        """
        element = np.asarray(elements, dtype=int)
        t0, t1, label = (np.asarray(x, dtype=float) for x in (t0, t1, labels))
        order = np.lexsort((label, t1, t0, element))
        element, t0, t1, label = element[order], t0[order], t1[order], label[order]
        segment = np.ones(len(order), dtype=bool)
        segment[1:] = (
            (element[1:] != element[:-1]) | (t0[1:] != t0[:-1]) | (t1[1:] != t1[:-1])
        )
        first = segment.copy()
        first[1:] |= label[1:] != label[:-1]
        distinct = np.flatnonzero(first)
        vals = np.empty(len(distinct), dtype=np.complex128)
        edges = np.flatnonzero(segment[distinct]).tolist() + [len(distinct)]
        for lo, hi in zip(edges, edges[1:]):
            i = distinct[lo]
            vals[lo:hi] = self.integral(
                int(element[i]), label[distinct[lo:hi]], t0[i], t1[i]
            )
        out = np.empty(len(order), dtype=np.complex128)
        out[order] = vals[np.cumsum(first) - 1]
        return out
