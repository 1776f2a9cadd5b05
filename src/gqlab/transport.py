"""Parallel transport of polarized values along leaves.

One shared implementation of the transport factor exp(-i integral theta)
serves the cochain machinery, the holonomy computation, and the chain map,
so the sign conventions (docs/conventions.md) cannot drift apart.

The integrand theta(leaf'(t)) is composed symbolically, the potential
components substituted with the polarization's leaf curve, and compiled
once per element.  A pullback cover holds the pulled-back potentials as
formulas and is paired with the pushforward polarization, whose curve is
the preimage of the source curve, so it needs no other integrand.  Every
call works on a batch of entries, each a leaf segment (element, t0, t1)
and a label, as holonomies and the differential need them: integral
integrates the distinct entries missing from its cache in one quadrature
call, one row per entry, each row bit for bit its one-entry batch.
"""

from __future__ import annotations

from itertools import compress, repeat

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
        """run(cs, ts): theta_member(leaf'(t)) at the labels cs and the
        nodes ts, an array (len(cs), k) of each label's nodes or k nodes
        shared by all labels; returns (len(cs), k) values."""
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
            ts = np.broadcast_to(ts, (len(cs), np.shape(ts)[-1]))
            columns = {"c": np.repeat(cs, ts.shape[1]) + 0j, "t": ts.ravel() + 0j}
            return kernels.evaluate(prog, columns).reshape(ts.shape)

        self._integrands[member] = run
        return run

    def integral(self, elements, t0, t1, labels) -> np.ndarray:
        """The integral of theta along every entry i, the leaf segment
        (elements[i], t0[i], t1[i]) at the label labels[i] in the element
        frame.  The four arguments are equal-length sequences, one column
        each.

        An entry is cached under the bytes of its four values.  An empty
        segment gives 0 without quadrature.  The distinct entries missing
        from the cache go to one quadrature call, one row each, in which
        every element's integrand is evaluated once per bisection level, on
        that element's rows.
        """
        rows = np.empty((len(t0), 4))
        rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = elements, labels, t0, t1
        # bytes keys are hashed once each and never tracked by the garbage
        # collector, unlike tuples of floats
        keys = rows.view(np.dtype((np.void, 32))).ravel().tolist()
        cache = self._integrals
        vals = list(map(cache.get, keys))
        if None in vals:
            # the distinct misses, in order of appearance
            miss = dict.fromkeys([key for key, val in zip(keys, vals) if val is None])
            new = np.frombuffer(b"".join(miss), dtype=float).reshape(-1, 4)
            live = new[:, 2] != new[:, 3]  # an empty segment stays 0
            if live.any():
                new = new[live]
                members, cs = new[:, 0].astype(int), new[:, 1]
                runs = [
                    (self.integrand(member), np.flatnonzero(members == member))
                    for member in np.unique(members).tolist()
                ]

                def f(ts):
                    out = np.empty(ts.shape, dtype=np.complex128)
                    for run, r in runs:
                        out[r] = run(cs[r], ts[r])
                    return out

                got = integrate(f, new[:, 2], new[:, 3]).tolist()
                cache.update(zip(compress(miss, live.tolist()), got))
                self.integrals_computed += len(got)
                self.batches += 1
            vals = list(map(cache.get, keys, repeat(0j)))
        return np.array(vals, dtype=np.complex128)
