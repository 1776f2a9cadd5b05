"""The array evaluator: scalar and array calls, deep programs, totality."""

import numpy as np

from gqlab import kernels
from gqlab import expr as ex
from gqlab.program import compile_expr


def test_program_deeper_than_64_evaluates():
    e = ex.Var("x")
    for _ in range(70):
        e = ex.BinOp("+", ex.Num(1.0), e)
    prog = compile_expr(e, ("x",))
    assert prog.max_stack > 64
    out = kernels.run(prog, np.array([[2.0 + 0j]]))
    assert abs(out[0] - 72.0) < 1e-12


def test_evaluate_scalar_and_array():
    e = ex.parse_expr("x^2 + 1")
    assert kernels.evaluate(e, {"x": 3.0}) == 10.0 + 0j
    out = kernels.evaluate(e, {"x": np.array([1.0, 2.0])})
    assert np.allclose(out, [2.0, 5.0])


def test_division_by_zero_is_total():
    e = ex.parse_expr("1/x")
    out = kernels.evaluate(e, {"x": np.array([0.0, 2.0])})
    assert not np.isfinite(out[0]) and out[1] == 0.5
