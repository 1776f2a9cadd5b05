"""Compilation of expression trees to straight-line NumPy functions.

A program is the input of the evaluator in kernels.py.  compile_expr
walks the tree in postorder and writes one NumPy statement per node into
the source of a function run(cols, n): the function fills the rows of a
complex (rows, n) array s, reusing them as a stack whose every row is
fixed at compile time, and returns s.  Each statement is one line of this
table and nothing else:

    variable j              s[r] = cols[j]
    constant (pi, i, 2.5)   s[r] = kN
    a + b  (- * / ^)        s[r] += s[r+1]   (-=, *=, /=, **=)
    a ^ p, p an integer     s[r] **= p       (2 <= |p| <= 32)
    -a, exp log sin cos     np.negative(s[r], out=s[r]), np.exp(...), ...
      sqrt
    atan2(a, b)             s[r] = np.arctan2(s[r].real, s[r+1].real)

No input text reaches the source: a variable is named by its column
index and a constant by the name kN it is bound to in the function's
namespace, which holds only NumPy and those constants.  So formulas of
one shape have one source, and share the code compiled from it.  The
source is kept on the program, so an evaluator result can be explained by
reading it.

A program computes one expression or a tuple of them.  The parts of a
tuple are emitted one after another, the way the arguments of a function
call are: part j is computed on top of the finished parts 0..j-1 and ends
in row j.  Each part runs exactly the operations of its own
single-expression program, so its values are bit-identical to that
program's.

The objects that own formulas (maps, covers, polarizations, leaf
transport) compile them once and keep the program; compile_expr is also
an LRU cache, which serves one-off formulas.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex

_CALLS = {
    "exp": "np.exp(s[{r}], out=s[{r}])",
    "log": "np.log(s[{r}], out=s[{r}])",
    "sin": "np.sin(s[{r}], out=s[{r}])",
    "cos": "np.cos(s[{r}], out=s[{r}])",
    "sqrt": "np.sqrt(s[{r}], out=s[{r}])",
    "atan2": "s[{r}] = np.arctan2(s[{r}].real, s[{r1}].real)",
}


class Program(NamedTuple):
    run: Callable  # run(cols, n) -> complex128 (rows, n); row j is output j
    var_names: tuple  # variable j is input column j
    source: str  # the Python source of run
    outputs: int | None = None  # number of parts; None for one expression


def _emit(e, r, lines, consts, var_index) -> int:
    """Append the statements that leave e's value in row r; return the
    number of rows they use."""
    if isinstance(e, ex.Num):
        key = complex(e.value)
    elif isinstance(e, ex.Pi):
        key = complex(math.pi)
    elif isinstance(e, ex.Imag):
        key = 1j
    else:
        key = None
    if key is not None:
        name = consts.setdefault(key, f"k{len(consts)}")
        lines.append(f"s[{r}] = {name}")
        return r + 1
    if isinstance(e, ex.Var):
        lines.append(f"s[{r}] = cols[{var_index[e.name]}]")
        return r + 1
    if isinstance(e, ex.Neg):
        rows = _emit(e.arg, r, lines, consts, var_index)
        lines.append(f"np.negative(s[{r}], out=s[{r}])")
        return rows
    if isinstance(e, ex.BinOp):
        if e.op == "^":
            p = ex._num(e.right)
            if p is not None and p == int(p) and 2 <= abs(p) <= 32:
                rows = _emit(e.left, r, lines, consts, var_index)
                lines.append(f"s[{r}] **= {int(p)}")
                return rows
        op = "**" if e.op == "^" else e.op
        rows = _emit(e.left, r, lines, consts, var_index)
        rows = max(rows, _emit(e.right, r + 1, lines, consts, var_index))
        lines.append(f"s[{r}] {op}= s[{r + 1}]")
        return rows
    if isinstance(e, ex.Call):
        rows = _emit_parts(e.args, r, lines, consts, var_index)
        lines.append(_CALLS[e.fn].format(r=r, r1=r + 1))
        return rows
    raise TypeError(f"cannot compile {e!r}")


def _emit_parts(parts, r, lines, consts, var_index) -> int:
    """Emit parts one after another, part j ending in row r + j; return the
    number of rows they use."""
    rows = 0
    for j, part in enumerate(parts):
        rows = max(rows, _emit(part, r + j, lines, consts, var_index))
    return rows


@lru_cache(maxsize=8192)
def _code(source: str):
    """The code of a program's source, shared by every program that has
    that source: compile() costs several times what emitting it does."""
    return compile(source, "<gqlab program>", "exec")


@lru_cache(maxsize=8192)
def compile_expr(e, var_names: tuple) -> Program:
    """Program for an expression, or for a tuple of them (one output each)."""
    parts = e if isinstance(e, tuple) else (e,)
    missing = frozenset().union(*map(ex.free_vars, parts)) - set(var_names)
    if missing:
        raise ValueError(f"unbound variables {sorted(missing)}")
    lines: list = []
    consts: dict = {}  # complex value -> its name in the namespace
    var_index = {name: j for j, name in enumerate(var_names)}
    rows = _emit_parts(parts, 0, lines, consts, var_index)
    source = "\n    ".join(
        ["def run(cols, n):", f"s = np.empty(({rows}, n), np.complex128)"]
        + lines
        + ["return s\n"]
    )
    namespace = {"__builtins__": {}, "np": np}
    namespace.update((name, value) for value, name in consts.items())
    exec(_code(source), namespace)
    return Program(
        run=namespace["run"],
        var_names=var_names,
        source=source,
        outputs=len(parts) if isinstance(e, tuple) else None,
    )
