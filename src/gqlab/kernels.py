"""The expression evaluator: a NumPy stack machine over compiled programs.

Operates on whole arrays per opcode: complex128 throughout, principal
branches for log/sqrt/pow, atan2 on real parts, and invalid operations
produce nan/inf rather than raising.
"""

from __future__ import annotations

import numpy as np

from .program import (
    OP_ADD,
    OP_ATAN2,
    OP_CONST,
    OP_COS,
    OP_DIV,
    OP_EXP,
    OP_LOG,
    OP_MUL,
    OP_NEG,
    OP_POW,
    OP_POWI,
    OP_SIN,
    OP_SQRT,
    OP_SUB,
    OP_VAR,
    compile_expr,
)


def run(prog, cols: np.ndarray) -> np.ndarray:
    """Evaluate prog at cols (nvars, n); returns complex128 (n,)."""
    n = cols.shape[1] if cols.ndim == 2 else 0
    stack = np.empty((prog.max_stack, n), dtype=np.complex128)
    top = -1
    with np.errstate(all="ignore"):
        for op, arg in prog.code:
            if op == OP_CONST:
                top += 1
                stack[top] = prog.consts[arg]
            elif op == OP_VAR:
                top += 1
                stack[top] = cols[arg]
            elif op == OP_ADD:
                stack[top - 1] += stack[top]
                top -= 1
            elif op == OP_SUB:
                stack[top - 1] -= stack[top]
                top -= 1
            elif op == OP_MUL:
                stack[top - 1] *= stack[top]
                top -= 1
            elif op == OP_DIV:
                stack[top - 1] /= stack[top]
                top -= 1
            elif op == OP_NEG:
                np.negative(stack[top], out=stack[top])
            elif op == OP_POW:
                stack[top - 1] **= stack[top]
                top -= 1
            elif op == OP_POWI:
                stack[top] **= int(arg)
            elif op == OP_EXP:
                np.exp(stack[top], out=stack[top])
            elif op == OP_LOG:
                np.log(stack[top], out=stack[top])
            elif op == OP_SIN:
                np.sin(stack[top], out=stack[top])
            elif op == OP_COS:
                np.cos(stack[top], out=stack[top])
            elif op == OP_SQRT:
                np.sqrt(stack[top], out=stack[top])
            elif op == OP_ATAN2:
                stack[top - 1] = np.arctan2(
                    stack[top - 1].real, stack[top].real
                ).astype(np.complex128)
                top -= 1
            else:  # pragma: no cover
                raise RuntimeError(f"bad opcode {op}")
    return stack[0].copy()


def evaluate(e, values: dict):
    """Evaluate an expression at named scalars or 1-d arrays."""
    names = tuple(sorted(values))
    prog = compile_expr(e, names)
    scalar = all(np.ndim(values[k]) == 0 for k in names)
    n = 1
    for k in names:
        if np.ndim(values[k]) > 0:
            n = len(values[k])
            break
    cols = np.empty((len(names), n), dtype=np.complex128)
    for j, k in enumerate(names):
        cols[j] = values[k]
    out = run(prog, cols)
    return complex(out[0]) if scalar else out
