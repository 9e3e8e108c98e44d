import math

import numpy as np
import pytest

from g2inv import expr, jets
from g2inv.errors import ExprSyntaxError, SingularEvaluationError


def test_parse_call_structure():
    e = expr.parse("cosh(sqrt(6)*t1)")
    assert e == expr.Call("cosh", expr.BinOp(
        "*", expr.Call("sqrt", expr.Num(6.0)), expr.Var(0)))


def test_parse_precedence():
    e = expr.parse("t1^2 + t2")
    assert e == expr.BinOp("+", expr.BinOp("^", expr.Var(0), expr.Num(2.0)),
                           expr.Var(1))


def test_parse_pow_of_call():
    e = expr.parse("sinh(t2)^4")
    assert e == expr.BinOp("^", expr.Call("sinh", expr.Var(1)),
                           expr.Num(4.0))


def test_unary_minus_binds_looser_than_pow():
    e = expr.parse("-t1^2")
    assert e == expr.Neg(expr.BinOp("^", expr.Var(0), expr.Num(2.0)))


def test_chained_pow_rejected():
    with pytest.raises(ExprSyntaxError):
        expr.parse("2^t1^2")


def test_unknown_function():
    with pytest.raises(ExprSyntaxError):
        expr.parse("foo(t1)")


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("t1 + * t2")
    assert err.value.pos == 5


def test_validate_undeclared():
    assert expr.validate(expr.parse("Lambda*t1"), {"Lambda"}) == []
    problems = expr.validate(expr.parse("c*t1"), set())
    assert problems and "c" in problems[0]


def test_validate_nonconstant_exponent():
    problems = expr.validate(expr.parse("t1^t2"), set())
    assert problems and "exponent" in problems[0]


def test_eval_jet_bilinear():
    j = expr.eval_jet(expr.parse("t1*t2"), {}, (2, 3), 1)
    assert j.coeffs == (6.0, 3.0, 2.0)


def test_eval_scalar_matches_math():
    val = expr.eval_scalar(expr.parse("cosh(sqrt(6)*t1)"), {}, (0.5, 0.0))
    assert val == pytest.approx(math.cosh(math.sqrt(6) * 0.5), rel=1e-15)


def test_eval_singularity_mentions_expression():
    with pytest.raises(SingularEvaluationError) as err:
        expr.eval_jet(expr.parse("1/(t1-t1)"), {}, (1.0, 1.0), 1)
    assert "t1" in str(err.value)


def test_param_values():
    j = expr.eval_jet(expr.parse("c^2*t1"), {"c": 3.0}, (2.0, 0.0), 1)
    assert j.value == 18.0 and j.d(1, 0) == 9.0


CORPUS = [
    "cosh(sqrt(6)*t1)*sinh(t2)^4 + 2*cosh(t2)^2",
    "-t1^2 + t2/(1 + t1^2)",
    "exp(2*t1)*(4*t1^2 + 1)",
    "3*c^2*t1/(Lambda*(c^2*t1^3 + 1))",
    "tanh(0.3*t1 - t2) - sin(t1)*cos(t2)",
    "1/2",
    "-(2 + 0.5*sin(t1))",
]


@pytest.mark.parametrize("text", CORPUS)
def test_roundtrip_print_parse(text):
    ast = expr.parse(text)
    assert expr.parse(expr.to_string(ast)) == ast


def test_roundtrip_random_asts():
    rng = np.random.default_rng(11)

    def gen(depth):
        kind = rng.integers(6 if depth < 4 else 2)
        if kind == 0:
            return expr.Num(float(np.round(rng.uniform(0.1, 4.0), 3)))
        if kind == 1:
            return expr.Var(int(rng.integers(2)))
        if kind == 2:
            return expr.Neg(gen(depth + 1))
        if kind == 3:
            return expr.Call(["exp", "sin", "cosh"][rng.integers(3)],
                             gen(depth + 1))
        if kind == 4:
            return expr.BinOp("^", gen(depth + 1),
                              expr.Num(float(rng.integers(2, 4))))
        op = "+-*/"[rng.integers(4)]
        return expr.BinOp(op, gen(depth + 1), gen(depth + 1))

    for _ in range(200):
        ast = gen(0)
        assert expr.parse(expr.to_string(ast)) == ast


@pytest.mark.parametrize("text", [c for c in CORPUS if "c^2" not in c])
def test_eval_jet_vs_finite_differences(text):
    ast = expr.parse(text)
    point = (0.7, 0.4)
    analytic = expr.eval_jet(ast, {}, point, 2)
    fd = jets.finite_difference_jet(
        lambda p: expr.eval_scalar(ast, {}, p), point, 2)
    for k in range(6):
        assert analytic.coeffs[k] == pytest.approx(
            fd.coeffs[k], rel=1e-6, abs=1e-7)


def test_substitute_replaces_both_coordinates():
    e = expr.parse("sin(t1)*t2 - t1^2/(-t2)")
    r1, r2 = expr.parse("t2 + 1"), expr.parse("2*t1")
    assert expr.substitute(e, (r1, r2)) == expr.parse(
        "sin(t2 + 1)*(2*t1) - (t2 + 1)^2/(-(2*t1))")
    assert expr.substitute(expr.parse("3 + c"), (r1, r2)) \
        == expr.parse("3 + c")
