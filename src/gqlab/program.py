"""Compilation of expression trees to straight-line NumPy functions.

A program is the input of the evaluator in kernels.py.  compile_expr
walks the tree once to count its distinct subtrees and collect the
variables it reads, then in postorder writes NumPy statements into the
source of a function run(cols, n): the function fills the rows of a
complex (rows, n) array s, reusing its first rows as a stack whose every
row is fixed at compile time, and returns s.  Each statement is one line
of this table and nothing else:

    variable j              s[r] = cols[j]
    constant (pi, i, 2.5)   s[r] = kN
    a + b  (- * / ^)        s[r] += s[r+1]   (-=, *=, /=, **=)
    a ^ p, p an integer     s[r] **= p       (2 <= |p| <= 32)
    -a, exp log sin cos     np.negative(s[r], out=s[r]), np.exp(...), ...
      sqrt
    atan2(a, b)             s[r] = np.arctan2(s[r].real, s[r+1].real)
    kept subtree m, stored  s[-1-m] = s[r]
    kept subtree m, loaded  s[r] = s[-1-m]

A subtree that is not a variable or a constant and that the tree holds
more than once (by Expr equality) is computed once, where it first
occurs, and stored in a row of its own at the end of s, kept for the
rest of the run; every later occurrence loads that row, the way a
variable is loaded.  So each distinct subtree is computed by one
statement, with the ufuncs and inputs it would have had if computed
again: every value is bit-identical to a tree evaluated node by node.

No input text reaches the source: a variable is named by its column
index and a constant by the name kN it is bound to in the function's
namespace, which holds only NumPy and those constants.  So formulas of
one shape, with the same repeated subtrees, have one source, and share
the code compiled from it.  The source is kept on the program, so an
evaluator result can be explained by reading it, and so are the
variables it reads.

A program computes one expression or a tuple of them.  The parts of a
tuple are emitted one after another, the way the arguments of a function
call are: part j is computed on top of the finished parts 0..j-1 and ends
in row j.  A part may load a kept row that an earlier part stored: the
row holds what the part's own single-expression program computes there,
by the same operations on the same inputs, so the part's values are
bit-identical to that program's.

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
    reads: frozenset  # the names of the variables the program reads
    outputs: int | None = None  # number of parts; None for one expression


def _power(e) -> int | None:
    """p of a power a ^ p with p an integer, 2 <= |p| <= 32, else None."""
    p = ex._num(e.right)
    if p is not None and 2 <= abs(p) <= 32 and p == int(p):
        return int(p)
    return None


def _children(e) -> tuple:
    """The subtrees that e's statements compute."""
    if isinstance(e, ex.BinOp):
        if e.op == "^" and _power(e) is not None:
            return (e.left,)
        return (e.left, e.right)
    if isinstance(e, ex.Neg):
        return (e.arg,)
    if isinstance(e, ex.Call):
        return e.args
    return ()


def _scan(e, counts: dict, reads: set) -> None:
    """Count e and each distinct non-leaf subtree under it in counts, and add
    the variables it reads to reads.  A subtree seen before is counted again
    but not entered: its own subtrees are computed only where it is."""
    if isinstance(e, ex.Var):
        reads.add(e.name)
    elif isinstance(e, (ex.Neg, ex.BinOp, ex.Call)):
        if e in counts:
            counts[e] += 1
            return
        counts[e] = 1
        for child in _children(e):
            _scan(child, counts, reads)


class _Emitter:
    """The statements of one program, as they are written."""

    def __init__(self, counts: dict, var_index: dict):
        self.lines: list = []
        self.consts: dict = {}  # literal node -> (its name, its value)
        self.kept: dict = {}  # stored subtree -> its row
        self.counts = counts
        self.var_index = var_index

    def emit(self, e, r: int) -> int:
        """Append the statements that leave e's value in row r; return the
        number of stack rows they use."""
        lines = self.lines
        if isinstance(e, ex.Num):
            value = complex(e.value)
        elif isinstance(e, ex.Pi):
            value = complex(math.pi)
        elif isinstance(e, ex.Imag):
            value = 1j
        else:
            value = None
        if value is not None:
            # keyed by node, not value: Num keys on the sign of a zero, which
            # complex equality ignores
            name = self.consts.setdefault(e, (f"k{len(self.consts)}", value))[0]
            lines.append(f"s[{r}] = {name}")
            return r + 1
        if isinstance(e, ex.Var):
            lines.append(f"s[{r}] = cols[{self.var_index[e.name]}]")
            return r + 1
        row = self.kept.get(e)
        if row is not None:
            lines.append(f"s[{r}] = {row}")
            return r + 1
        rows = self.compute(e, r)
        if self.counts[e] > 1:
            row = self.kept[e] = f"s[-{len(self.kept) + 1}]"
            lines.append(f"{row} = s[{r}]")
        return rows

    def compute(self, e, r: int) -> int:
        lines = self.lines
        if isinstance(e, ex.Neg):
            rows = self.emit(e.arg, r)
            lines.append(f"np.negative(s[{r}], out=s[{r}])")
            return rows
        if isinstance(e, ex.BinOp):
            p = _power(e) if e.op == "^" else None
            if p is not None:
                rows = self.emit(e.left, r)
                lines.append(f"s[{r}] **= {p}")
                return rows
            op = "**" if e.op == "^" else e.op
            rows = max(self.emit(e.left, r), self.emit(e.right, r + 1))
            lines.append(f"s[{r}] {op}= s[{r + 1}]")
            return rows
        if isinstance(e, ex.Call):
            rows = self.emit_parts(e.args, r)
            lines.append(_CALLS[e.fn].format(r=r, r1=r + 1))
            return rows
        raise TypeError(f"cannot compile {e!r}")

    def emit_parts(self, parts, r: int) -> int:
        """Emit parts one after another, part j ending in row r + j; return
        the number of stack rows they use."""
        rows = 0
        for j, part in enumerate(parts):
            rows = max(rows, self.emit(part, r + j))
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
    counts: dict = {}  # distinct non-leaf subtree -> times it is needed
    reads: set = set()
    for part in parts:
        _scan(part, counts, reads)
    missing = reads - set(var_names)
    if missing:
        raise ValueError(f"unbound variables {sorted(missing)}")
    emitter = _Emitter(counts, {name: j for j, name in enumerate(var_names)})
    rows = emitter.emit_parts(parts, 0) + len(emitter.kept)
    source = "\n    ".join(
        ["def run(cols, n):", f"s = np.empty(({rows}, n), np.complex128)"]
        + emitter.lines
        + ["return s\n"]
    )
    namespace = {"__builtins__": {}, "np": np}
    namespace.update(emitter.consts.values())
    exec(_code(source), namespace)
    return Program(
        run=namespace["run"],
        var_names=var_names,
        source=source,
        reads=frozenset(reads),
        outputs=len(parts) if isinstance(e, tuple) else None,
    )
