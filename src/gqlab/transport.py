"""Parallel transport of polarized values along leaves.

One shared implementation of the transport factor exp(-i integral theta)
serves the assembly of the differential and the holonomy computation, so
the sign conventions (docs/conventions.md) cannot drift apart.

The integrand theta(leaf'(t)) is composed symbolically, the potential
components substituted with the polarization's leaf curve, and compiled
once per distinct potential.  A pullback cover holds the pulled-back
potentials as formulas and is paired with the pushforward polarization,
whose curve is the preimage of the source curve, so it needs no other
integrand.  Every call works on a batch of entries, each a leaf segment
(element, t0, t1) and a label, as holonomies and the differential need
them: integral tells the call's entries apart by their bits and
integrates the distinct ones in one quadrature call, one row per entry,
each row bit for bit its one-entry batch.  It keeps no integral between
calls, so a result never depends on what was asked before.  flux gives
the label derivative of the leaf action, the census's prediction of how
far the action steps between two labels.  Both count their quadrature
calls (transport_batches) and the rows integrated (transport_integrals).
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from . import kernels, program, trace
from .quadrature import integrate


def _runner(prog: program.Program):
    """run(cs, ts) of a program over ("c", "t"): its values at the labels cs
    and the nodes ts, an array (len(cs), k) of each label's nodes or k
    nodes shared by all labels, as a (len(cs), k) array; a program that
    does not read t (by its reads) is evaluated once per label, its t
    column unread, and that value stands at every node.  The columns go to
    the evaluator as real arrays, which it casts into its rows as it loads
    them, without the copies that adding 0j would allocate."""

    along = "t" in prog.reads

    def run(cs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        shape = (len(cs), np.shape(ts)[-1])
        if not along:
            return np.broadcast_to(kernels.evaluate(prog, {"c": cs, "t": cs})[:, None], shape)
        columns = {"c": np.repeat(cs, shape[1]), "t": np.broadcast_to(ts, shape).ravel()}
        return kernels.evaluate(prog, columns).reshape(shape)

    return run


class LeafTransport:
    def __init__(self, cover, polarization):
        self.cover = cover
        self.polarization = polarization
        self._integrands: dict = {}  # member, potential and program -> run
        self._flux = None  # the flux integrand's program, and its run
        trace.count("transport_integrals", 0)  # 0 until it integrates
        trace.count("transport_batches", 0)

    def integrand(self, member: int):
        """run(cs, ts): theta_member(leaf'(t)) at the labels cs and the
        nodes ts, an array (len(cs), k) of each label's nodes or k nodes
        shared by all labels; returns (len(cs), k) values.  The integrand
        of each distinct potential is composed and compiled once, and
        members whose integrands are one formula share one run."""
        memo = self._integrands
        run = memo.get(member)
        if run is not None:
            return run
        theta = self.cover.data.potentials[member]
        run = memo.get(theta)
        if run is None:
            (u, v), (x, y) = self.cover.manifold.coords, self.polarization.curve
            sub = {u: x, v: y}
            integrand = ex.add(
                ex.mul(ex.substitute(theta[0], sub), ex.differentiate(x, "t")),
                ex.mul(ex.substitute(theta[1], sub), ex.differentiate(y, "t")),
            )
            prog = program.compile_expr(integrand, ("c", "t"))
            run = memo[theta] = memo.setdefault(prog, _runner(prog))
        memo[member] = run
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
            prog = program.compile_expr(ex.mul(w, jac), ("c", "t"))
            self._flux = (prog, _runner(prog))
        prog, run = self._flux
        cs = np.asarray(labels, dtype=float)
        period = self.polarization.leaf_period
        if "t" not in prog.reads:
            return period * run(cs, np.zeros(1))[:, 0].real
        trace.count("transport_integrals", len(cs))
        trace.count("transport_batches")
        return integrate(lambda ts: run(cs, ts), 0.0, np.full(len(cs), period)).real

    def integral(self, elements, t0, t1, labels) -> np.ndarray:
        """The integral of theta along every entry i, the leaf segment
        (elements[i], t0[i], t1[i]) at the label labels[i] in the element
        frame.  The four arguments are equal-length sequences, one column
        each.

        An empty segment gives 0 without quadrature.  The live entries are
        told apart by their bits (so -0.0 and 0.0 are two entries): a stable
        np.lexsort of their int64 bit patterns puts equal rows together,
        first appearance first.  The distinct ones, in order of first
        appearance, go to one quadrature call, one row each, in which every
        distinct integrand is evaluated once per bisection level on the rows
        of the elements it belongs to, once per label if it does not read t.
        Nothing is kept between calls.
        """
        rows = np.empty((len(t0), 4))
        rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = elements, labels, t0, t1
        out = np.zeros(len(rows), dtype=np.complex128)
        live = np.flatnonzero(rows[:, 2] != rows[:, 3])  # an empty segment is 0
        if not live.size:
            return out
        bits = rows[live].view(np.int64)
        order = np.lexsort(bits.T)
        ranked = bits[order]
        starts = np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])  # run starts
        first, heads = np.zeros(len(order), dtype=bool), order[starts]
        first[heads] = True
        at = np.empty_like(order)  # each live row's place among the first appearances
        at[order] = (first.cumsum() - 1)[heads][starts.cumsum() - 1]
        new = rows[live[first]]
        members, cs = new[:, 0].astype(int), new[:, 1]
        # one run per distinct integrand, on the rows of every element
        # whose integrand it is
        shared: dict = {}  # run -> its number
        number = np.zeros(members.max() + 1, dtype=int)  # by member
        for member in sorted(set(members.tolist())):
            run = self.integrand(member)
            number[member] = shared.setdefault(run, len(shared))
        row_run = number[members]
        runs = [(run, np.flatnonzero(row_run == j)) for run, j in shared.items()]

        def f(ts):
            if len(runs) == 1:  # every row: no copies of rows
                return runs[0][0](cs, ts)
            vals = np.empty(ts.shape, dtype=np.complex128)
            for run, r in runs:
                vals[r] = run(cs[r], ts[r])
            return vals

        trace.count("transport_integrals", len(new))
        trace.count("transport_batches")
        out[live] = integrate(f, new[:, 2], new[:, 3])[at]
        return out
