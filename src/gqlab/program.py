"""Compilation of expression trees to flat stack programs.

A program is the input of the evaluator in kernels.py: a postorder opcode
tape over a complex stack, with a constant pool and positional variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr as ex

OP_CONST = 0
OP_VAR = 1
OP_ADD = 2
OP_SUB = 3
OP_MUL = 4
OP_DIV = 5
OP_NEG = 6
OP_POW = 7
OP_POWI = 8
OP_EXP = 9
OP_LOG = 10
OP_SIN = 11
OP_COS = 12
OP_SQRT = 13
OP_ATAN2 = 14

_FN_OPS = {
    "exp": OP_EXP,
    "log": OP_LOG,
    "sin": OP_SIN,
    "cos": OP_COS,
    "sqrt": OP_SQRT,
    "atan2": OP_ATAN2,
}


@dataclass(frozen=True)
class Program:
    code: np.ndarray  # int32 (n, 2): opcode, argument
    consts: np.ndarray  # complex128 pool
    var_names: tuple
    max_stack: int

    @property
    def nvars(self) -> int:
        return len(self.var_names)


def _emit(e, code, consts, const_index, var_index):
    """Append postorder ops for e; return stack growth high-water mark."""
    if isinstance(e, ex.Num):
        key = complex(e.value)
    elif isinstance(e, ex.Pi):
        key = complex(math.pi)
    elif isinstance(e, ex.Imag):
        key = 1j
    else:
        key = None
    if key is not None:
        idx = const_index.setdefault(key, len(consts))
        if idx == len(consts):
            consts.append(key)
        code.append((OP_CONST, idx))
        return 1
    if isinstance(e, ex.Var):
        code.append((OP_VAR, var_index[e.name]))
        return 1
    if isinstance(e, ex.Neg):
        depth = _emit(e.arg, code, consts, const_index, var_index)
        code.append((OP_NEG, 0))
        return depth
    if isinstance(e, ex.BinOp):
        if e.op == "^":
            p = ex._num(e.right)
            if p is not None and p == int(p) and 2 <= abs(p) <= 32:
                depth = _emit(e.left, code, consts, const_index, var_index)
                code.append((OP_POWI, int(p)))
                return depth
        d1 = _emit(e.left, code, consts, const_index, var_index)
        d2 = _emit(e.right, code, consts, const_index, var_index)
        op = {"+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV, "^": OP_POW}[e.op]
        code.append((op, 0))
        return max(d1, 1 + d2)
    if isinstance(e, ex.Call):
        depth = 0
        for j, a in enumerate(e.args):
            depth = max(depth, j + _emit(a, code, consts, const_index, var_index))
        code.append((_FN_OPS[e.fn], 0))
        return depth
    raise TypeError(f"cannot compile {e!r}")


@lru_cache(maxsize=8192)
def compile_expr(e, var_names: tuple) -> Program:
    code: list = []
    consts: list = []
    var_index = {name: j for j, name in enumerate(var_names)}
    missing = ex.free_vars(e) - set(var_names)
    if missing:
        raise ValueError(f"unbound variables {sorted(missing)}")
    max_stack = _emit(e, code, consts, {}, var_index)
    return Program(
        code=np.array(code, dtype=np.int32).reshape(-1, 2),
        consts=np.array(consts, dtype=np.complex128),
        var_names=var_names,
        max_stack=max_stack,
    )
