"""Expression language: parsing, printing, differentiation, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqlab import expr as ex


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
    assert ex.free_vars(e) == {"x", "q"}


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
def test_printer_round_trip(e):
    assert ex.parse_expr(ex.to_source(e)) == e


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
