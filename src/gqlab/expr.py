"""Small expression language for coordinate formulas.

Every formula in the workbench (symplectic coefficients, connection
potentials, transition functions, maps, leaf curves) is an immutable syntax
tree over named coordinates.  Trees support exact symbolic differentiation,
substitution, a canonical printer whose output re-parses to the same tree,
and compilation to a straight-line NumPy function for the array evaluator.

Supported nodes: numeric literals, ``pi``, the imaginary unit ``i``, named
variables, ``+ - * / ^`` (``**`` is accepted as a synonym for ``^``), unary
minus, and the functions ``exp log sin cos sqrt atan2``.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .record import Record


class ParseError(ValueError):
    """Raised for malformed sources; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


FUNCTIONS = {"exp": 1, "log": 1, "sin": 1, "cos": 1, "sqrt": 1, "atan2": 2}


_set = object.__setattr__


class Expr(Record):
    """Base class: a node is immutable, equals a node of its own type with
    equal fields, and hashes its fields once, when it is built.  Each
    node's __init__ sets its fields directly and then calls _seal, the
    quickest build for the nodes that parsing, differentiation and
    substitution make in bulk."""

    __slots__ = ("_key", "_hash")  # the tuple of the fields, and its hash

    def __init__(self):
        self._seal(())

    def _seal(self, key: tuple) -> None:
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)
        # -0.0 == 0.0, but the two are different literals: the key holds the
        # sign of a zero
        self._seal((value, value == 0 and math.copysign(1.0, value)))


class Pi(Expr):
    __slots__ = ()


class Imag(Expr):
    __slots__ = ()


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)
        self._seal((name,))


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)
        self._seal((arg,))


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):  # op: one of + - * / ^
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        self._seal((op, left, right))


class Call(Expr):
    __slots__ = ("fn", "args")

    def __init__(self, fn: str, args: tuple):
        _set(self, "fn", fn)
        _set(self, "args", args)
        self._seal((fn, args))


ZERO = Num(0.0)
ONE = Num(1.0)


def _num(e: Expr):
    """Literal float value of e, or None."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg) and isinstance(e.arg, Num):
        return -e.arg.value
    return None


# Smart constructors fold the identities that differentiation produces in
# bulk (x+0, x*1, x*0, x^1, ...); anything fancier is not worth the risk of
# changing evaluation semantics.  Two literals fold to one only when the
# result is finite: an overflow or 0/0 stays an operation, which the
# evaluator computes to the inf or nan it is.

def add(a: Expr, b: Expr) -> Expr:
    av, bv = _num(a), _num(b)
    if av is not None and bv is not None and math.isfinite(av + bv):
        return Num(av + bv)
    if av == 0.0:
        return b
    if bv == 0.0:
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    av, bv = _num(a), _num(b)
    if av is not None and bv is not None and math.isfinite(av - bv):
        return Num(av - bv)
    if bv == 0.0:
        return a
    if av == 0.0:
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    av, bv = _num(a), _num(b)
    if av is not None and bv is not None and math.isfinite(av * bv):
        return Num(av * bv)
    if av == 0.0 or bv == 0.0:
        return ZERO
    if av == 1.0:
        return b
    if bv == 1.0:
        return a
    if av == -1.0:
        return neg(b)
    if bv == -1.0:
        return neg(a)
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    av, bv = _num(a), _num(b)
    if av is not None and bv is not None:
        if bv != 0.0 and math.isfinite(av / bv):
            return Num(av / bv)
        return BinOp("/", a, b)
    if av == 0.0:
        return ZERO
    if bv == 1.0:
        return a
    return BinOp("/", a, b)


def neg(a: Expr) -> Expr:
    v = _num(a)
    if v is not None:
        return Num(-v)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(a: Expr, b: Expr) -> Expr:
    bv = _num(b)
    if bv == 1.0:
        return a
    if bv == 0.0:
        return ONE
    return BinOp("^", a, b)


def call(fn: str, *args: Expr) -> Expr:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    if len(args) != FUNCTIONS[fn]:
        raise ValueError(f"{fn} expects {FUNCTIONS[fn]} argument(s)")
    return Call(fn, tuple(args))


# ---------------------------------------------------------------------------
# Parsing


_TOKEN_NUMBER = "number"
_TOKEN_NAME = "name"


def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number {text!r}", i) from None
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is out of range", i)
            tokens.append((_TOKEN_NUMBER, value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append((_TOKEN_NAME, source[i:j], i))
            i = j
            continue
        if source.startswith("**", i):
            tokens.append(("^", "^", i))
            i += 2
            continue
        if ch in "+-*/^(),":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            node = BinOp(op, node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.parse_unary()
            node = BinOp(op, node, rhs)
        return node

    def parse_unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            # neg() folds literal negation, so "-1" parses to the literal
            return neg(self.parse_unary())
        if self.peek()[0] == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == _TOKEN_NUMBER:
            return Num(value)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == _TOKEN_NAME:
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", pos)
                self.advance()
                args = [self.parse_expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect(")")
                if len(args) != FUNCTIONS[value]:
                    raise ParseError(
                        f"{value} expects {FUNCTIONS[value]} argument(s)", pos
                    )
                return Call(value, tuple(args))
            if value == "pi":
                return Pi()
            if value == "i":
                return Imag()
            if self.variables is not None and value not in self.variables:
                raise ParseError(f"unknown identifier {value!r}", pos)
            return Var(value)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_expr(source: str, variables=None) -> Expr:
    """Parse a formula.  If `variables` is given, names outside it reject."""
    parser = _Parser(_tokenize(source), variables)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return node


# ---------------------------------------------------------------------------
# Printing

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _print(e: Expr) -> tuple[str, int]:
    if isinstance(e, Num):
        v = e.value
        if v == 0 and math.copysign(1.0, v) < 0:
            text = "-0"  # re-parses to neg(Num(0.0)), which is Num(-0.0)
        else:
            text = str(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        # a leading minus binds like unary negation, not like an atom
        prec = _PRECEDENCE["neg"] if text.startswith("-") else _PRECEDENCE["atom"]
        return text, prec
    if isinstance(e, Pi):
        return "pi", _PRECEDENCE["atom"]
    if isinstance(e, Imag):
        return "i", _PRECEDENCE["atom"]
    if isinstance(e, Var):
        return e.name, _PRECEDENCE["atom"]
    if isinstance(e, Neg):
        inner, prec = _print(e.arg)
        if prec < _PRECEDENCE["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PRECEDENCE["neg"]
    if isinstance(e, Call):
        args = ", ".join(_print(a)[0] for a in e.args)
        return f"{e.fn}({args})", _PRECEDENCE["atom"]
    if isinstance(e, BinOp):
        prec = _PRECEDENCE[e.op]
        ls, lp = _print(e.left)
        rs, rp = _print(e.right)
        # + - * / print left-associated (right operand parenthesized at
        # equal precedence); ^ is right-associative, so mirror on the left.
        if lp < prec or (e.op == "^" and lp <= prec):
            ls = f"({ls})"
        if rp < prec or (e.op != "^" and rp <= prec):
            rs = f"({rs})"
        return f"{ls} {e.op} {rs}" if e.op in "+-" else f"{ls}{e.op}{rs}", prec
    raise TypeError(f"not an expression: {e!r}")


def to_source(e: Expr) -> str:
    """Canonical text form; parse_expr(to_source(e)) == e."""
    return _print(e)[0]


# ---------------------------------------------------------------------------
# Calculus and structural operations


@lru_cache(maxsize=4096)
def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative with respect to the named coordinate."""
    if isinstance(e, (Num, Pi, Imag)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, name))
    if isinstance(e, BinOp):
        a, b = e.left, e.right
        da, db = differentiate(a, name), differentiate(b, name)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, b), mul(a, db))
        if e.op == "/":
            return div(sub(mul(da, b), mul(a, db)), mul(b, b))
        if e.op == "^":
            bv = _num(b)
            if bv is not None:
                # d(a^c) = c a^(c-1) da
                return mul(mul(b, pow_(a, Num(bv - 1.0))), da)
            # general power via a^b = exp(b log a)
            term = add(mul(db, call("log", a)), mul(b, div(da, a)))
            return mul(e, term)
    if isinstance(e, Call):
        if e.fn == "atan2":
            y, x = e.args
            dy, dx = differentiate(y, name), differentiate(x, name)
            denom = add(mul(x, x), mul(y, y))
            return div(sub(mul(x, dy), mul(y, dx)), denom)
        (a,) = e.args
        da = differentiate(a, name)
        if e.fn == "exp":
            return mul(e, da)
        if e.fn == "log":
            return div(da, a)
        if e.fn == "sin":
            return mul(call("cos", a), da)
        if e.fn == "cos":
            return neg(mul(call("sin", a), da))
        if e.fn == "sqrt":
            return div(da, mul(Num(2.0), e))
    raise TypeError(f"cannot differentiate {e!r}")


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace variables by expressions (simultaneous substitution)."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Neg):
        return neg(substitute(e.arg, mapping))
    if isinstance(e, BinOp):
        a = substitute(e.left, mapping)
        b = substitute(e.right, mapping)
        return {"+": add, "-": sub, "*": mul, "/": div, "^": pow_}[e.op](a, b)
    if isinstance(e, Call):
        return Call(e.fn, tuple(substitute(a, mapping) for a in e.args))
    return e


def evaluate(e: Expr, values: dict):
    """Evaluate at a point or at arrays of points (complex semantics).

    `values` maps variable names to scalars or equal-length 1-d arrays.
    Returns a complex scalar for scalar inputs, else a complex array.
    """
    from . import kernels

    return kernels.evaluate(e, values)
