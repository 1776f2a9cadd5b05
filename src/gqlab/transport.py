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
them: integral integrates every live entry, one row each and bit for bit
its one-entry batch, those whose integrand does not read t in closed form
(transport_exact).  It keeps no integral between calls, so a result never
depends on what was asked before.  flux gives the label derivative of the
leaf action, the census's prediction of how far the action steps between
two labels.  Both count their quadrature calls (transport_batches) and
the rows integrated (transport_integrals).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import expr as ex
from . import kernels, program, trace
from .quadrature import integrate


def _runner(prog: program.Program):
    """run(cs, ts) of a program over ("c", "t"): its values at the labels cs
    and the nodes ts, an array (len(cs), k) of each label's nodes or k
    nodes shared by all labels, as a (len(cs), k) array; a program that
    does not read t (by its reads; run.along) is evaluated once per label,
    its t column unread, as the one column (len(cs), 1).  The columns go to
    the evaluator as real arrays, which it casts into its rows as it loads
    them, without the copies that adding 0j would allocate."""

    along = "t" in prog.reads

    def run(cs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        if not along:
            return kernels.evaluate(prog, {"c": cs, "t": cs})[:, None]
        shape = (len(cs), np.shape(ts)[-1])
        columns = {"c": np.repeat(cs, shape[1]), "t": np.broadcast_to(ts, shape).ravel()}
        return kernels.evaluate(prog, columns).reshape(shape)

    run.along = along
    return run


def _values(runs: list, cs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """integrate's f on rows at the labels cs and the nodes ts: each (run,
    its rows) of runs evaluated once, on its rows; all read t or none does."""
    if len(runs) == 1:  # every row: no copies of rows
        return runs[0][0](cs, ts)
    vals = np.empty((len(cs), ts.shape[1] if runs[0][0].along else 1), dtype=np.complex128)
    for run, r in runs:
        vals[r] = run(cs[r], ts[r])
    return vals


class LeafTransport:
    def __init__(self, cover, polarization):
        self.cover = cover
        self.polarization = polarization
        self._integrands: dict = {}  # member, potential and program -> run
        self._flux = None  # the flux integrand's run
        for name in ("transport_integrals", "transport_batches", "transport_exact"):
            trace.count(name, 0)  # 0 until it integrates

    def integrand(self, member: int):
        """run(cs, ts): theta_member(leaf'(t)) at the labels cs and the
        nodes ts, an array (len(cs), k) of each label's nodes or k nodes
        shared by all labels; returns (len(cs), k) values, or (len(cs), 1)
        if it does not read t.  The integrand of each distinct potential is
        composed and compiled once, and members whose integrands are one
        formula share one run."""
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
            self._flux = _runner(program.compile_expr(ex.mul(w, jac), ("c", "t")))
        run, cs = self._flux, np.asarray(labels, dtype=float)
        period = self.polarization.leaf_period
        if not run.along:
            return period * run(cs, np.zeros(1))[:, 0].real
        trace.count("transport_integrals", len(cs))
        trace.count("transport_batches")
        return integrate(lambda ts: run(cs, ts), 0.0, np.full(len(cs), period)).real

    def integral(self, elements, t0, t1, labels) -> np.ndarray:
        """The integral of theta along every entry i, the leaf segment
        (elements[i], t0[i], t1[i]) at the label labels[i] in the element
        frame.  The four arguments are equal-length sequences, one column
        each.

        An empty segment gives 0.  The live entries go to at most two
        quadrature calls, one row each: first those whose integrand does
        not read t, in closed form, so a row's path and bits depend on its
        own integrand alone.  A call evaluates each distinct integrand once
        per bisection level, on its elements' rows.  Nothing is kept.
        """
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        out = np.zeros(len(t0), dtype=np.complex128)
        live = np.flatnonzero(t0 != t1)  # an empty segment is 0
        if not live.size:
            return out
        members = np.asarray(elements, dtype=int)[live]
        cs, t0, t1 = np.asarray(labels, dtype=float)[live], t0[live], t1[live]
        shared: dict = {}  # each distinct integrand's run -> its number
        number = np.zeros(members.max() + 1, dtype=int)  # by member
        for member in sorted(set(members.tolist())):
            number[member] = shared.setdefault(self.integrand(member), len(shared))
        row_run = number[members]
        along = np.array([run.along for run in shared])[row_run]
        trace.count("transport_integrals", len(live))
        trace.count("transport_exact", int((~along).sum()))
        for reads_t in (False, True):  # the rows in closed form first
            rows = np.flatnonzero(along == reads_t)
            runs = [(run, np.flatnonzero(row_run[rows] == j))
                    for run, j in shared.items() if run.along == reads_t]
            if runs:
                trace.count("transport_batches")
                out[live[rows]] = integrate(partial(_values, runs, cs[rows]), t0[rows], t1[rows])
        return out
