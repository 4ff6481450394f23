import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tactica.expr import (ExpressionError, NCPoly, compile_expression, compile_vector,
                          nc_evaluate, parse, variables)


def test_arithmetic_and_precedence():
    fn = compile_expression("1 + 2*3 - 4/2")
    assert fn() == 5.0
    assert compile_expression("2^3^2")() == 512.0  # right associative
    assert compile_expression("-2^2")() == -4.0
    assert compile_expression("(1+2)*3")() == 9.0


def test_functions():
    fn = compile_expression("sin(t) + cos(t)", scalars=("t",))
    assert fn(0.3) == pytest.approx(math.sin(0.3) + math.cos(0.3))
    assert compile_expression("min(2, 3) + max(4, 1)")() == 6.0
    assert compile_expression("abs(-2.5)")() == 2.5
    assert compile_expression("tanh(0)")() == 0.0
    assert compile_expression("exp(1)")() == pytest.approx(math.e)


def test_indexed_variables():
    fn = compile_expression("u0[0] + eps[0]*phi[1]", vectors={"u0": 1, "eps": 1, "phi": 2})
    assert fn([2.0], [3.0], [0.0, 4.0]) == 14.0


def test_scientific_notation_literals():
    assert compile_expression("1e-3 + 2.5E2")() == pytest.approx(0.001 + 250.0)


def test_unknown_variable_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("q + 1", scalars=("t",))


def test_index_out_of_range_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("phi[2]", vectors={"phi": 2})


def test_vector_variable_requires_index():
    with pytest.raises(ExpressionError):
        compile_expression("phi + 1", vectors={"phi": 2})


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError):
        parse("log(t)")
    with pytest.raises(ExpressionError):
        parse("sin(1, 2)")


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionError):
        parse("1 + 2 )")
    with pytest.raises(ExpressionError):
        parse("phi[1.5]")


def test_variables_listing():
    assert variables("u0[0] + eps[1]*t") == {("u0", 0), ("eps", 1), ("t", None)}


def test_compile_vector():
    vec = compile_vector(["t", "2*t"], scalars=("t",))
    assert vec.fn(3.0) == [3.0, 6.0]
    assert vec.dim == 2


@given(st.floats(min_value=-10, max_value=10, allow_nan=False),
       st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_compiled_matches_direct_evaluation(a, b):
    fn = compile_expression("x[0]*x[1] + sin(x[0]) - x[1]^2", vectors={"x": 2})
    assert fn([a, b]) == pytest.approx(a * b + math.sin(a) - b ** 2, nan_ok=False)


_LEAVES = st.sampled_from(["t", "phi[0]", "phi[1]", "0", "0.5", "2", "3.25", "1e308"])


def _grammar(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children).map(" ".join).map("({})".format),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh", "abs"]), children)
        .map(lambda p: f"{p[0]}({p[1]})"),
        st.tuples(st.sampled_from(["min", "max"]), children, children)
        .map(lambda p: f"{p[0]}({p[1]}, {p[2]})"),
        children.map("-{}".format))


def _outcome(fn, *args):
    try:
        return [repr(v) for v in fn(*args)]
    except Exception as exc:  # the first failing component decides, in both forms
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(sources=st.lists(st.recursive(_LEAVES, _grammar, max_leaves=8), min_size=1, max_size=4),
       t=st.floats(-3.0, 3.0), p=st.floats(-3.0, 3.0), as_array=st.booleans())
def test_compile_vector_matches_component_expressions(sources, t, p, as_array):
    # repr tells -0.0 from 0.0 and np.float64 from float, so equality is bit-identity.
    phi = np.array([p, -0.0]) if as_array else [p, -0.0]
    vectors = {"phi": 2}
    scalars = [compile_expression(src, ("t",), vectors) for src in sources]
    with np.errstate(all="ignore"):
        expected = _outcome(lambda *args: [f(*args) for f in scalars], t, phi)
        assert _outcome(compile_vector(sources, ("t",), vectors).fn, t, phi) == expected


# ---------------------------------------------------------------------------
# Noncommutative evaluation
# ---------------------------------------------------------------------------

def _letters(n):
    return {f"x{i + 1}": NCPoly.letter(i) for i in range(n)}


def test_nc_commutator_is_not_zero():
    poly = nc_evaluate("x1*x2 - x2*x1", _letters(2))
    assert poly.terms == {(0, 1): 1.0, (1, 0): -1.0}


def test_nc_scalars_and_powers():
    poly = nc_evaluate("2*x1^2 - 3", _letters(1))
    assert poly.terms == {(0, 0): 2.0, (): -3.0}


def test_nc_imaginary_unit():
    poly = nc_evaluate("i*x1", _letters(1))
    assert poly.terms == {(0,): 1j}


def test_nc_division_by_scalar_only():
    poly = nc_evaluate("x1/2", _letters(1))
    assert poly.terms == {(0,): 0.5}
    with pytest.raises(ExpressionError):
        nc_evaluate("x1/x2", _letters(2))


def test_nc_functions_rejected():
    with pytest.raises(ExpressionError):
        nc_evaluate("sin(x1)", _letters(1))


def test_nc_degree():
    assert nc_evaluate("x1*x2*x1", _letters(2)).degree() == 3


@given(st.integers(min_value=0, max_value=4))
def test_nc_power_matches_repeated_product(k):
    x = NCPoly.letter(0) + NCPoly.scalar(1.0)
    expected = NCPoly.scalar(1.0)
    for _ in range(k):
        expected = expected * x
    assert (x ** k) == expected


def test_lambda_is_a_legal_vector_variable():
    # "lambda" is a Python keyword; the compiler must still accept it as a
    # grammar variable name.
    fn = compile_expression("u0[0] + lambda[0]", vectors={"u0": 1, "lambda": 1})
    assert fn([1.0], [2.5]) == 3.5
