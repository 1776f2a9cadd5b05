"""Parallel transport of polarized values along leaves.

One shared implementation of the transport factor exp(-i integral theta)
serves the assembly of the differential and the holonomy computation, so
the sign conventions (docs/conventions.md) cannot drift apart.

The integrand theta(leaf'(t)) is composed symbolically, the potential
components substituted with the polarization's leaf curve, and compiled
once per element.  A pullback cover holds the pulled-back potentials as
formulas and is paired with the pushforward polarization, whose curve is
the preimage of the source curve, so it needs no other integrand.  Every
call works on a batch of entries, each a leaf segment (element, t0, t1)
and a label, as holonomies and the differential need them: integral
integrates the distinct entries missing from its cache in one quadrature
call, one row per entry, each row bit for bit its one-entry batch.  flux
gives the label derivative of the leaf action, the census's prediction of
how far the action steps between two labels.  Both count their quadrature
calls (transport_batches) and the rows integrated (transport_integrals).
"""

from __future__ import annotations

from itertools import compress, repeat

import numpy as np

from . import expr as ex
from . import kernels, program, trace
from .quadrature import integrate


def _runner(prog: program.Program):
    """run(cs, ts) of a program over ("c", "t"): its values at the labels cs
    and the nodes ts, an array (len(cs), k) of each label's nodes or k
    nodes shared by all labels, as a (len(cs), k) array.  The columns go to
    the evaluator as real arrays, which it casts into its stack as it
    loads them, without the copies that adding 0j would allocate."""

    def run(cs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        ts = np.broadcast_to(ts, (len(cs), np.shape(ts)[-1]))
        columns = {"c": np.repeat(cs, ts.shape[1]), "t": ts.ravel()}
        return kernels.evaluate(prog, columns).reshape(ts.shape)

    return run


class LeafTransport:
    def __init__(self, cover, polarization):
        self.cover = cover
        self.polarization = polarization
        self._integrands: dict = {}  # member, and its program -> run
        self._integrals: dict = {}
        self._flux = None  # (run of the flux integrand, whether it reads t)
        trace.count("transport_integrals", 0)  # 0 until it integrates
        trace.count("transport_batches", 0)

    def integrand(self, member: int):
        """run(cs, ts): theta_member(leaf'(t)) at the labels cs and the
        nodes ts, an array (len(cs), k) of each label's nodes or k nodes
        shared by all labels; returns (len(cs), k) values.  Members whose
        integrands are one formula share one run."""
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
        run = self._integrands.setdefault(prog, _runner(prog))
        self._integrands[member] = run
        return run

    def flux(self, labels) -> np.ndarray:
        """The label derivative of the leaf action at each label:
        A'(c) = integral of omega(d_c gamma, d_t gamma) dt over one leaf
        period, which no gauge choice changes.  One quadrature call, one
        row per label; the integrand is compiled on the first call.  An
        integrand that does not depend on t integrates to the period times
        its value, with no quadrature."""
        if self._flux is None:
            (u, v), (x, y) = self.cover.manifold.coords, self.polarization.curve
            w = ex.substitute(self.cover.omega.coefficient, {u: x, v: y})
            jac = ex.sub(
                ex.mul(ex.differentiate(x, "c"), ex.differentiate(y, "t")),
                ex.mul(ex.differentiate(y, "c"), ex.differentiate(x, "t")),
            )
            integrand = ex.mul(w, jac)
            run = _runner(program.compile_expr(integrand, ("c", "t")))
            self._flux = (run, "t" in ex.free_vars(integrand))
        run, along = self._flux
        cs = np.asarray(labels, dtype=float)
        period = self.polarization.leaf_period
        if not along:
            return period * run(cs, np.zeros(1))[:, 0].real
        trace.count("transport_integrals", len(cs))
        trace.count("transport_batches")
        return integrate(lambda ts: run(cs, ts), 0.0, np.full(len(cs), period)).real

    def integral(self, elements, t0, t1, labels) -> np.ndarray:
        """The integral of theta along every entry i, the leaf segment
        (elements[i], t0[i], t1[i]) at the label labels[i] in the element
        frame.  The four arguments are equal-length sequences, one column
        each.

        An entry is cached under the bytes of its four values.  An empty
        segment gives 0 without quadrature.  The distinct entries missing
        from the cache go to one quadrature call, one row each, in which
        every distinct integrand is evaluated once per bisection level, on
        the rows of the elements it belongs to.
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
                # one run per distinct integrand, on the rows of every
                # element whose integrand it is
                shared: dict = {}  # run -> its number
                number = np.zeros(members.max() + 1, dtype=int)  # by member
                for member in sorted(set(members.tolist())):
                    run = self.integrand(member)
                    number[member] = shared.setdefault(run, len(shared))
                row_run = number[members]
                runs = [(run, np.flatnonzero(row_run == j))
                        for run, j in shared.items()]

                def f(ts):
                    if len(runs) == 1:  # every row: no copies of rows
                        return runs[0][0](cs, ts)
                    out = np.empty(ts.shape, dtype=np.complex128)
                    for run, r in runs:
                        out[r] = run(cs[r], ts[r])
                    return out

                trace.count("transport_integrals", len(new))
                trace.count("transport_batches")
                got = integrate(f, new[:, 2], new[:, 3]).tolist()
                cache.update(zip(compress(miss, live.tolist()), got))
            vals = list(map(cache.get, keys, repeat(0j)))
        return np.array(vals, dtype=np.complex128)
