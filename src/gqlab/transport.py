"""Parallel transport of polarized values along leaves.

One shared implementation of the transport factor exp(-i integral theta)
serves the cochain machinery, the holonomy computation, and the chain map,
so the sign conventions (docs/conventions.md) cannot drift apart.

For a base cover the integrand theta(leaf'(t)) is composed symbolically
(potential components substituted with the leaf curve) and compiled once
per element; for a pullback cover it is evaluated through the defining
chain: source curve, inverse map, pulled-back potential, inverse Jacobian,
with the source curve and its velocity compiled once as one program.
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

    def integrand(self, member: int):
        run = self._integrands.get(member)
        if run is not None:
            return run
        cover = self.cover
        base = self.polarization.root
        if cover.pullback_of is None:
            coords = cover.manifold.coords
            theta = cover.data.potentials[member]
            sub = {coords[0]: base.curve[0], coords[1]: base.curve[1]}
            integrand = ex.add(
                ex.mul(
                    ex.substitute(theta[0], sub),
                    ex.differentiate(base.curve[0], "t"),
                ),
                ex.mul(
                    ex.substitute(theta[1], sub),
                    ex.differentiate(base.curve[1], "t"),
                ),
            )
            prog = program.compile_expr(integrand, ("c", "t"))

            def run(c_val: float, ts: np.ndarray) -> np.ndarray:
                out = kernels.evaluate(prog, {"c": complex(c_val), "t": ts + 0j})
                if np.ndim(out) == 0:
                    out = np.full(len(ts), out, dtype=np.complex128)
                return np.asarray(out)

        else:
            src, phi = cover.pullback_of
            velocity = tuple(ex.differentiate(comp, "t") for comp in base.curve)
            prog = program.compile_expr(tuple(base.curve) + velocity, ("c", "t"))

            def run(c_val: float, ts: np.ndarray) -> np.ndarray:
                vals = kernels.evaluate(prog, {"c": complex(c_val), "t": ts + 0j}).real
                up = np.ascontiguousarray(vals[:2].T)
                vel = np.ascontiguousarray(vals[2:].T)
                down = cover.manifold.reduce(phi.apply_inverse(up))
                jac_inv = phi.jacobian(src.manifold.reduce(up), inverse=True)
                v = np.einsum("nab,nb->na", jac_inv, vel)
                t0, t1 = cover.potential(member, down)
                return t0 * v[:, 0] + t1 * v[:, 1]

        self._integrands[member] = run
        return run

    def integral(self, member: int, c_elem: float, t0: float, t1: float) -> complex:
        """Integral of theta_member along the leaf segment (element frame)."""
        key = (member, float(c_elem), float(t0), float(t1))
        val = self._integrals.get(key)
        if val is None:
            run = self.integrand(member)
            val = complex(integrate(lambda ts: run(c_elem, ts), t0, t1))
            self._integrals[key] = val
        return val

    def factor(self, member: int, c_elem: float, t0: float, t1: float) -> complex:
        return complex(np.exp(-1j * self.integral(member, c_elem, t0, t1)))
