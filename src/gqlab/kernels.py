"""The expression evaluator: runs the straight-line NumPy function that
program.compile_expr generates for each program.

Works on whole arrays per node: complex128 throughout, principal branches
for log/sqrt/pow, atan2 on real parts, and invalid operations produce
nan/inf rather than raising.  A tuple program leaves one row per part;
each row sees exactly the ufunc sequence of the part's own program.
"""

from __future__ import annotations

import numpy as np

from .program import Program, compile_expr


def run(prog, cols, n: int | None = None) -> np.ndarray:
    """Evaluate prog at cols, an (nvars, n) array or a sequence of nvars
    columns (arrays of length n or scalars, cast to complex as they are
    loaded); returns complex128 (n,), or (outputs, n) for a tuple
    program."""
    if n is None:
        n = cols.shape[1] if cols.ndim == 2 else 0
    with np.errstate(all="ignore"):
        rows = prog.run(cols, n)
    if prog.outputs is None:
        return rows[0].copy()
    return rows[: prog.outputs].copy()


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
    # each input is cast into its row as it is loaded: no (nvars, n)
    # complex copy of the inputs, which on large batches costs more than the
    # arithmetic
    out = run(prog, [values[k] for k in names], n)
    if not scalar:
        return out
    return complex(out[0]) if prog.outputs is None else out[:, 0]
