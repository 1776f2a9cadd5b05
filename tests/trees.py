"""Reference walks over expression trees.

free_vars collects the variables a tree names, by a walk of its own; the
evaluator's programs collect them while they are compiled (Program.reads),
and tests check the two against each other.  node_by_node evaluates a tree
one NumPy ufunc per node, computing a repeated subtree again wherever it
occurs: a compiled program must equal it bit for bit.  subtrees lists the
distinct subtrees that a program computes.
"""

import numpy as np

from gqlab import expr as ex

_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt}


def free_vars(e) -> frozenset:
    if isinstance(e, ex.Var):
        return frozenset((e.name,))
    if isinstance(e, ex.Neg):
        return free_vars(e.arg)
    if isinstance(e, ex.BinOp):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, ex.Call):
        out = frozenset()
        for a in e.args:
            out |= free_vars(a)
        return out
    return frozenset()


def _power(e):
    """The integer p of a ^ p that a program raises to with **= p, or None."""
    p = ex._num(e.right)
    if p is not None and 2 <= abs(p) <= 32 and p == int(p):
        return int(p)
    return None


def node_by_node(e, cols: dict, n: int) -> np.ndarray:
    """e's complex128 (n,) values at the columns cols (name -> n values),
    one ufunc per node, every occurrence of a subtree computed anew."""
    if isinstance(e, ex.Var):
        return np.broadcast_to(np.asarray(cols[e.name], np.complex128), (n,)).copy()
    if isinstance(e, ex.Num):
        return np.full(n, complex(e.value))
    if isinstance(e, ex.Pi):
        return np.full(n, complex(np.pi))
    if isinstance(e, ex.Imag):
        return np.full(n, 1j)
    with np.errstate(all="ignore"):
        if isinstance(e, ex.Neg):
            return np.negative(node_by_node(e.arg, cols, n))
        if isinstance(e, ex.BinOp):
            left = node_by_node(e.left, cols, n)
            if e.op == "^":
                p = _power(e)
                if p is not None:  # as the program raises it: NumPy's **
                    return left**p  # takes a ** 2 as np.square(a)
                return np.power(left, node_by_node(e.right, cols, n))
            return _UFUNCS[e.op](left, node_by_node(e.right, cols, n))
        args = [node_by_node(a, cols, n) for a in e.args]
        if e.fn == "atan2":
            return np.arctan2(args[0].real, args[1].real).astype(np.complex128)
        return _UFUNCS[e.fn](*args)


def subtrees(e, out=None) -> set:
    """The distinct subtrees of e (or of a tuple of trees) that are not a
    variable or a constant, and not the integer exponent of a power."""
    out = set() if out is None else out
    for part in e if isinstance(e, tuple) else (e,):
        if isinstance(part, ex.Neg):
            out.add(part)
            subtrees(part.arg, out)
        elif isinstance(part, ex.BinOp):
            out.add(part)
            subtrees(part.left, out)
            if not (part.op == "^" and _power(part) is not None):
                subtrees(part.right, out)
        elif isinstance(part, ex.Call):
            out.add(part)
            subtrees(part.args, out)
    return out
