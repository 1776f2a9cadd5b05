"""Compilation of expression trees to flat stack programs.

A program is the input of the evaluator in kernels.py: a postorder opcode
tape over a complex stack, with a constant pool and positional variables.
The tape and the pool are tuples of Python ints and complex numbers, so
the evaluator dispatches without unpacking NumPy scalars.

A program computes one expression or a tuple of them.  The parts of a
tuple are emitted one after another, the way the arguments of a function
call are: part j is computed on top of the finished parts 0..j-1 and ends
in stack row j.  Each part runs exactly the operations of its own
single-expression program, so its values are bit-identical to that
program's.

The objects that own formulas (maps, covers, polarizations, leaf
transport) compile them once and keep the program; compile_expr is also
an LRU cache, which serves one-off formulas.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

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


class Program(NamedTuple):
    code: tuple  # ((opcode, argument), ...) of Python ints
    consts: tuple  # pool of Python complex numbers
    var_names: tuple  # variable j is input column j
    max_stack: int
    outputs: int | None = None  # number of parts; None for one expression


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
        depth = _emit_parts(e.args, code, consts, const_index, var_index)
        code.append((_FN_OPS[e.fn], 0))
        return depth
    raise TypeError(f"cannot compile {e!r}")


def _emit_parts(parts, code, consts, const_index, var_index):
    """Emit parts one after another, part j ending in stack row j; return
    the stack high-water mark."""
    depth = 0
    for j, part in enumerate(parts):
        depth = max(depth, j + _emit(part, code, consts, const_index, var_index))
    return depth


@lru_cache(maxsize=8192)
def compile_expr(e, var_names: tuple) -> Program:
    """Program for an expression, or for a tuple of them (one output each)."""
    parts = e if isinstance(e, tuple) else (e,)
    missing = frozenset().union(*map(ex.free_vars, parts)) - set(var_names)
    if missing:
        raise ValueError(f"unbound variables {sorted(missing)}")
    code: list = []
    consts: list = []
    var_index = {name: j for j, name in enumerate(var_names)}
    max_stack = _emit_parts(parts, code, consts, {}, var_index)
    return Program(
        code=tuple(code),
        consts=tuple(consts),
        var_names=var_names,
        max_stack=max_stack,
        outputs=len(parts) if isinstance(e, tuple) else None,
    )
