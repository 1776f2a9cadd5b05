"""Expression language: parsing, printing, differentiation, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gqlab import expr as ex

from trees import free_vars


def test_literal_evaluation():
    e = ex.parse_expr("sin(x)*y")
    assert ex.evaluate(e, {"x": 0.0, "y": 5.0}) == 0.0


def test_euler_identity():
    e = ex.parse_expr("exp(i*t)")
    val = ex.evaluate(e, {"t": math.pi})
    assert abs(val - (-1.0 + 0.0j)) < 1e-15


def test_chern_coefficient_example():
    # direct arithmetic oracle: (k / 2 pi) * x2 at k=3, x2=2 pi/3
    e = ex.parse_expr("(k/(2*pi))*x2")
    expected = (3.0 / (2.0 * math.pi)) * (2.0 * math.pi / 3.0)
    val = ex.evaluate(e, {"k": 3.0, "x2": 2.0 * math.pi / 3.0})
    assert abs(val - expected) < 1e-15
    assert abs(val - 1.0) < 1e-15


def test_polynomial_derivative():
    e = ex.parse_expr("x^2")
    d = ex.differentiate(e, "x")
    assert ex.evaluate(d, {"x": 3.0}) == 6.0


def test_constant_derivative():
    assert ex.differentiate(ex.parse_expr("7.5"), "z") == ex.ZERO
    assert ex.differentiate(ex.parse_expr("pi"), "z") == ex.ZERO


def _richardson_fd(f, x, h=1e-4):
    def central(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def test_exp_derivative_against_richardson():
    e = ex.parse_expr("exp(2*x)")
    d = ex.differentiate(e, "x")
    symbolic = ex.evaluate(d, {"x": 0.5})

    fd = _richardson_fd(lambda x: ex.evaluate(e, {"x": x}).real, 0.5)
    assert abs(symbolic - fd) < 1e-8
    assert abs(symbolic - 2.0 * math.e) < 1e-12


@pytest.mark.parametrize(
    "source",
    [
        "x*y + sin(x)*cos(y)",
        "exp(x/2) - log(x^2 + 1)",
        "atan2(y, x)",
        "sqrt(x^2 + y^2 + 1)",
        "(x + y)^3 / (1 + x^2)",
        "x^y",
    ],
)
def test_derivative_matches_finite_differences(source):
    e = ex.parse_expr(source)
    rng = np.random.default_rng(7)
    for name in ("x", "y"):
        d = ex.differentiate(e, name)
        for _ in range(100):
            x, y = rng.uniform(0.3, 2.0, size=2)
            point = {"x": x, "y": y}

            def f(v):
                vals = dict(point)
                vals[name] = v
                return ex.evaluate(e, vals).real

            fd = _richardson_fd(f, point[name])
            sym = ex.evaluate(d, point).real
            assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))


def test_parse_error_reports_position():
    with pytest.raises(ex.ParseError) as err:
        ex.parse_expr("x + * y")
    assert err.value.position == 4


def test_unknown_identifier_rejected_with_declared_variables():
    with pytest.raises(ex.ParseError, match="unknown identifier"):
        ex.parse_expr("x + q", variables={"x", "y"})
    e = ex.parse_expr("x + q")  # without a declaration any name parses
    assert free_vars(e) == {"x", "q"}


def test_unknown_function_rejected():
    with pytest.raises(ex.ParseError, match="unknown function"):
        ex.parse_expr("tanh(x)")


def test_trailing_input_rejected():
    with pytest.raises(ex.ParseError, match="trailing"):
        ex.parse_expr("x + 1) * 2")


def test_power_is_right_associative_and_double_star_works():
    assert ex.parse_expr("2^3^2") == ex.parse_expr("2^(3^2)")
    assert ex.parse_expr("x**2") == ex.parse_expr("x^2")


def test_substitution_composes():
    e = ex.parse_expr("x^2 + y")
    composed = ex.substitute(e, {"x": ex.parse_expr("u + 1"), "y": ex.parse_expr("2*u")})
    got = ex.evaluate(composed, {"u": 3.0})
    assert abs(got - ((3 + 1) ** 2 + 6)) < 1e-12


# --- canonical printer round trip ------------------------------------------

_names = st.sampled_from(["x", "y", "t", "c"])
_leaves = st.one_of(
    st.floats(min_value=-10, max_value=10, allow_nan=False).map(
        lambda v: ex.Num(float(v))
    ),
    _names.map(ex.Var),
    st.just(ex.Pi()),
    st.just(ex.Imag()),
)


_OPS = {"+": ex.add, "-": ex.sub, "*": ex.mul, "/": ex.div, "^": ex.pow_}


def _exprs(depth):
    # built through the folding constructors, i.e. parser-canonical trees
    if depth == 0:
        return _leaves
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaves,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda t: _OPS[t[0]](t[1], t[2])
        ),
        sub.map(ex.neg),
        st.tuples(st.sampled_from(["exp", "log", "sin", "cos", "sqrt"]), sub).map(
            lambda t: ex.Call(t[0], (t[1],))
        ),
        st.tuples(sub, sub).map(lambda t: ex.Call("atan2", t)),
    )


@settings(max_examples=300, deadline=None)
@given(_exprs(4))
@example(ex.Num(-0.0))
@example(ex.mul(ex.Num(1e200), ex.Num(1e200)))
@example(ex.div(ex.Num(10.0), ex.Num(5e-324)))
@example(ex.div(ex.ZERO, ex.ZERO))
def test_printer_round_trip(e):
    assert ex.parse_expr(ex.to_source(e)) == e


def test_two_literals_fold_only_to_a_finite_literal():
    big, x = ex.Num(1e200), ex.Var("x")
    assert ex.mul(big, big) == ex.BinOp("*", big, big)
    assert ex.add(ex.Num(1.5e308), ex.Num(1.5e308)).op == "+"
    assert ex.sub(ex.Num(-1.5e308), ex.Num(1.5e308)).op == "-"
    assert ex.div(ex.Num(10.0), ex.Num(5e-324)).op == "/"
    assert ex.div(ex.ZERO, ex.ZERO) == ex.BinOp("/", ex.ZERO, ex.ZERO)
    assert ex.div(ex.Num(1.0), ex.ZERO).op == "/"
    assert ex.mul(ex.Num(2.0), ex.Num(3.0)) == ex.Num(6.0)
    assert ex.div(ex.ZERO, ex.Num(-4.0)) == ex.Num(-0.0)
    # the derivative of x/0 is 0/0, not 0
    assert ex.to_source(ex.differentiate(ex.parse_expr("x/0"), "x")) == "0/0"
    assert np.isnan(ex.evaluate(ex.differentiate(ex.parse_expr("x/0"), "x"), {"x": 1.0}))
    assert ex.to_source(ex.differentiate(ex.parse_expr("x*1e200*1e200"), "x")) == (
        "1e+200*1e+200")
    assert ex.evaluate(ex.mul(x, ex.mul(big, big)), {"x": 1.0}).real == math.inf


def test_signed_zero_literals_are_two_literals():
    x, y = ex.Var("x"), ex.Var("y")
    plus, minus = ex.Num(0.0), ex.Num(-0.0)
    assert plus != minus and hash(plus) != hash(minus)
    assert ex.Num(0) == plus and ex.Num(1.0) == ex.Num(1)
    assert ex.to_source(minus) == "-0" and ex.parse_expr("-0") == minus
    assert ex.to_source(ex.BinOp("-", x, minus)) == "x - -0"
    # what the evaluator and differentiate give does not depend on what
    # they were asked before
    ex.evaluate(ex.BinOp("+", x, plus), {"x": -0.0})
    got = ex.evaluate(ex.BinOp("+", x, minus), {"x": -0.0})
    assert math.copysign(1.0, got.real) == -1.0
    ex.differentiate(ex.BinOp("*", x, ex.BinOp("+", y, plus)), "x")
    d = ex.differentiate(ex.BinOp("*", x, ex.BinOp("+", y, minus)), "x")
    assert d == ex.BinOp("+", y, minus)


def test_a_quotient_of_constants_differentiates_to_zero():
    # at b = 5e-324, b * b underflows to 0 and the quotient rule gave 0/0;
    # with b < 0 it gave -0, now 0
    for source in ("10/5e-324", "1/-2", "pi/3", "(2*pi)/(1e-200*1e-200)"):
        assert ex.differentiate(ex.parse_expr(source), "x") == ex.ZERO, source
    # a quotient that varies keeps the quotient rule
    assert ex.to_source(ex.differentiate(ex.parse_expr("2/x"), "x")) == "-2/(x*x)"
    assert ex.to_source(ex.differentiate(ex.parse_expr("x/0"), "x")) == "0/0"


# -- how deep a source may nest, and its tree may be

# each shape at n levels nests n deep, or is a tree n operations deep
DEEP_SHAPES = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "sum": lambda n: "+".join(["x"] * (n + 1)),
    "quotient": lambda n: "/".join(["x"] * (n + 1)),
    "powers": lambda n: "^".join(["x"] * (n + 1)),
    "left powers": lambda n: "(" * (n - 1) + "x" + "^x)" * (n - 1) + "^x",
    "signs": lambda n: "-" * n + "x",
    "calls": lambda n: "sqrt(" * n + "x" + ")" * n,
    "atan2": lambda n: "atan2(x, " * n + "x" + ")" * n,
    "nested quotients": lambda n: "x/(" * n + "x" + ")" * n,
}


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_a_formula_at_the_depth_bound_runs_everywhere(shape):
    e = ex.parse_expr(DEEP_SHAPES[shape](ex.MAX_DEPTH))
    assert ex.parse_expr(ex.to_source(e)) == e
    d = ex.differentiate(e, "x")
    ex.to_source(d)
    for tree in (e, d):
        ex.substitute(tree, {"x": ex.parse_expr("y*y")})
        assert ex.evaluate(tree, {"x": np.array([0.5, 2.0])}).shape == (2,)


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_a_formula_past_the_depth_bound_is_refused(shape):
    with pytest.raises(ex.ParseError, match=f"than {ex.MAX_DEPTH} "):
        ex.parse_expr(DEEP_SHAPES[shape](ex.MAX_DEPTH + 1))


# -- the node contract: immutable, equal by type and fields, hashed once


def test_pi_and_imag_differ():
    assert ex.Pi() != ex.Imag()
    assert ex.Pi() == ex.Pi()


def test_equal_trees_built_separately_are_equal_and_hash_alike():
    a = ex.parse_expr("sin(x)*2 + pi - i/y")
    b = ex.parse_expr("sin(x)*2 + pi - i/y")
    assert a is not b
    assert a == b and hash(a) == hash(b)
    # the hash of a node is that of its field tuple
    assert hash(a) == hash((a.op, a.left, a.right))
    assert a != ex.parse_expr("sin(x)*2 + pi - i/z")


def test_nodes_of_different_types_with_equal_fields_differ():
    x = ex.Var("x")
    nodes = [ex.Expr(), ex.Pi(), ex.Imag(), ex.Num(x), ex.Var(x), ex.Neg(x)]
    for a in nodes:
        for b in nodes:
            assert (a == b) == (a is b)


def test_a_node_refuses_assignment():
    node = ex.parse_expr("x + 1")
    with pytest.raises(AttributeError):
        node.op = "-"
    with pytest.raises(AttributeError):
        del node.left
    with pytest.raises(AttributeError):
        node.extra = None
    assert ex.to_source(node) == "x + 1"


def test_node_reprs_name_their_fields():
    assert repr(ex.BinOp("+", ex.Var("x"), ex.Num(1.0))) == (
        "BinOp(op='+', left=Var(name='x'), right=Num(value=1.0))"
    )
    assert repr(ex.Call("sin", (ex.Var("x"),))) == "Call(fn='sin', args=(Var(name='x'),))"
    assert repr(ex.Num(2.5)) == "Num(value=2.5)"
    assert repr(ex.Pi()) == "Pi()"
