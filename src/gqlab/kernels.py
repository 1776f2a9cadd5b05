"""The expression evaluator: a NumPy stack machine over compiled programs.

Operates on whole arrays per opcode: complex128 throughout, principal
branches for log/sqrt/pow, atan2 on real parts, and invalid operations
produce nan/inf rather than raising.  A tuple program leaves one row per
part; each row sees exactly the ufunc sequence of the part's own program.
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
    Program,
    compile_expr,
)


def run(prog, cols, n: int | None = None) -> np.ndarray:
    """Evaluate prog at cols, an (nvars, n) array or a sequence of nvars
    columns (arrays of length n or scalars, cast to complex as they are
    loaded); returns complex128 (n,), or (outputs, n) for a tuple
    program."""
    if n is None:
        n = cols.shape[1] if cols.ndim == 2 else 0
    stack = np.empty((prog.max_stack, n), dtype=np.complex128)
    consts = prog.consts
    top = -1
    with np.errstate(all="ignore"):
        for op, arg in prog.code:
            if op == OP_CONST:
                top += 1
                stack[top] = consts[arg]
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
                stack[top] **= arg
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
    if prog.outputs is None:
        return stack[0].copy()
    return stack[: prog.outputs].copy()


def evaluate(e, values: dict):
    """Evaluate an expression or a compiled program at named scalars or
    equal-length 1-d arrays.

    An expression is compiled over sorted(values); a program lays out its
    columns by its own var_names, which values must all name.  Returns a
    complex scalar for scalar inputs, else a complex (n,) array; a tuple
    program gives (outputs,) or (outputs, n).
    """
    if isinstance(e, Program):
        prog = e
        names = prog.var_names
    else:
        names = tuple(sorted(values))
        prog = compile_expr(e, names)
    scalar = True
    n = 1
    for k in names:
        if np.ndim(values[k]) > 0:
            scalar = False
            n = len(values[k])
            break
    # each input is cast into the stack as it is loaded: no (nvars, n)
    # complex copy of the inputs, which on large batches costs more than the
    # arithmetic
    out = run(prog, [values[k] for k in names], n)
    if not scalar:
        return out
    return complex(out[0]) if prog.outputs is None else out[:, 0]
