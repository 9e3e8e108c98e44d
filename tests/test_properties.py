"""Property tests: the expression printer round-trips through the parser,
and order-2 jets obey the ring laws, over generated inputs."""

import pytest
from hypothesis import given, settings, strategies as st

from g2inv import expr, jets

SETTINGS = settings(max_examples=200, deadline=None)

numbers = st.floats(min_value=0.0, allow_nan=False,
                    allow_infinity=False).map(abs).map(expr.Num)
leaves = st.one_of(numbers, st.integers(0, 1).map(expr.Var),
                   st.sampled_from(("a", "c", "Lambda", "k_2")).map(expr.Param))


def _compound(children):
    return st.one_of(
        children.map(expr.Neg),
        st.builds(expr.Call, st.sampled_from(sorted(expr.FUNCTIONS)),
                  children),
        st.builds(expr.BinOp, st.sampled_from("+-*/^"), children, children))


asts = st.recursive(leaves, _compound, max_leaves=12)


@SETTINGS
@given(asts)
def test_parse_inverts_to_string(e):
    assert expr.parse(expr.to_string(e)) == e


coeff = st.floats(-2.0, 2.0, allow_nan=False)


def order2_jets(value=coeff):
    return st.builds(lambda v, rest: jets.Jet2(2, (v, *rest)), value,
                     st.lists(coeff, min_size=5, max_size=5))


units = order2_jets(st.one_of(st.floats(-2.0, -0.5), st.floats(0.5, 2.0)))


def assert_close(x, y):
    assert x.coeffs == pytest.approx(y.coeffs, rel=1e-9, abs=1e-9)


@SETTINGS
@given(order2_jets(), units)
def test_division_undoes_multiplication(a, b):
    assert_close((a * b) / b, a)


@SETTINGS
@given(order2_jets(), order2_jets(), order2_jets())
def test_multiplication_distributes_over_addition(a, b, c):
    assert_close(a * (b + c), a * b + a * c)


@SETTINGS
@given(order2_jets())
def test_difference_with_itself_is_zero(a):
    assert (a - a).coeffs == (0.0,) * 6
