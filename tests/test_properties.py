"""Property tests: the expression printer round-trips through the parser,
the parsed DAG evaluates exactly like the tree it prints, order-2 jets
obey the ring laws and the dense product table multiplies like Jet2,
over generated inputs."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2inv import expr, jets
from g2inv.errors import G2InvError

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


def jets_of_order(order):
    size = len(jets._IDX[order])
    return st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size) \
        .map(lambda c: jets.Jet2(order, c))


jet_pairs = st.integers(0, jets.MAX_ORDER).flatmap(
    lambda n: st.tuples(jets_of_order(n), jets_of_order(n)))


@SETTINGS
@given(jet_pairs)
def test_dense_table_product_matches_jet_product(pair):
    # both sum the same terms w * a_p * b_q, in different orders, so they
    # agree to a few ulp of the terms' magnitude; relative to the product
    # itself they need not (cancellation: hundreds of ulp at order 3)
    a, b = pair
    table = jets.MUL_TENSOR[a.order]
    got = np.einsum("opq,p,q->o", table, a.coeffs, b.coeffs)
    want = np.array((a * b).coeffs)
    terms = np.einsum("opq,p,q->o", table, np.abs(a.coeffs),
                      np.abs(b.coeffs))
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 4 * eps * np.maximum(1.0, terms))


def _outcome(evaluate):
    """The coefficients' bits, or the error, of one evaluation."""
    try:
        value = evaluate()
    except (G2InvError, ArithmeticError, ValueError) as err:
        return type(err).__name__, str(err)
    coeffs = value.coeffs if isinstance(value, jets.Jet2) else (value,)
    return struct.pack(f"{len(coeffs)}d", *coeffs)


PARAMS = {"a": 0.7, "c": -1.3, "Lambda": 3.0, "k_2": 2.5}
points = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@SETTINGS
@given(asts, points)
def test_parsed_dag_evaluates_exactly_like_the_tree(e, point):
    # e is built by hand, so unshared; its parse is the interned DAG
    dag = expr.parse(expr.to_string(e))
    for order in range(3):
        assert _outcome(lambda: expr.eval_jet(dag, PARAMS, point, order)) \
            == _outcome(lambda: expr.eval_jet(e, PARAMS, point, order))
    assert _outcome(lambda: expr.eval_scalar(dag, PARAMS, point)) \
        == _outcome(lambda: expr.eval_scalar(e, PARAMS, point))


def test_parse_interns_repeated_subtrees():
    e = expr.parse("sin(t1)*sin(t1)")
    assert e.left is e.right
