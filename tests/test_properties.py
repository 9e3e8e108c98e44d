"""Property tests: the expression printer round-trips through the parser,
the parsed DAG evaluates exactly like the tree it prints, the float
evaluator gives the bits of order-0 jets, order-2 jets obey the ring
laws and the chain rule, and the dense product table multiplies like
Jet2, over generated inputs."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from g2inv import expr, jets
from g2inv.errors import G2InvError, SingularEvaluationError

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


def _order0(e, point):
    """eval_jet(e, PARAMS, point, 0).value, with the expression text that
    eval_jet adds to a context-free SingularEvaluationError taken off."""
    try:
        return expr.eval_jet(e, PARAMS, point, 0).value
    except SingularEvaluationError as err:
        if err.context != f"in {expr.to_string(e)!r}":
            raise
        raise SingularEvaluationError(err.what, err.value) from None


def _first_failure(outcomes):
    return next((o for o in outcomes if isinstance(o, tuple)), None)


# -0 * t1 at t1 > 0: the float product is -0.0, the jet product +0.0
NEGATIVE_ZERO_PRODUCT = expr.BinOp("*", expr.Neg(expr.Num(0.0)), expr.Var(0))


@SETTINGS
@given(st.lists(asts, min_size=1, max_size=3),
       st.lists(points, min_size=1, max_size=4))
@example([NEGATIVE_ZERO_PRODUCT], [(1.5, 0.0)])
def test_float_evaluator_gives_the_bits_of_order0_jets(es, pts):
    want = [[_outcome(lambda: _order0(e, p)) for p in pts] for e in es]
    assert [[_outcome(lambda: expr.eval_scalar(e, PARAMS, p)) for p in pts]
            for e in es] == want
    # a batch gives every value, or the error met first evaluating each
    # expression in turn at each point in turn
    failure = _first_failure(_first_failure(w) for w in want)
    if failure is None:
        values = [v for e_values in expr.eval_floats(es, PARAMS, pts)
                  for v in e_values]
        assert struct.pack(f"{len(values)}d", *values) \
            == b"".join(o for w in want for o in w)
    else:
        assert _outcome(lambda: expr.eval_floats(es, PARAMS, pts)) \
            == failure


def test_negative_zero_product_is_positive_zero():
    assert struct.pack("d", expr.eval_scalar(
        NEGATIVE_ZERO_PRODUCT, {}, (1.5, 0.0))) == struct.pack("d", 0.0)


unit = st.floats(-1.0, 1.0).map(lambda x: round(x, 3))


def _sums(functions):
    return st.lists(st.builds(
        lambda f, a, b, c, d: f"{a}*{f}({b}*t1 + {c}*t2 + {d})",
        st.sampled_from(functions), unit, unit, unit, unit),
        min_size=1, max_size=3).map(" + ".join)


smooth = _sums(("sin", "cos", "tanh", "exp"))
# maps with gradients below 2: an exp term in a map makes u(iota1, iota2)
# steep enough that the oracle's truncation passes any fixed tolerance
maps = st.builds(lambda a, b, c, rest: f"{a}*t1 + {b}*t2 + {c} + 0.3*({rest})",
                 unit, unit, unit, _sums(("sin", "cos", "tanh")))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(smooth, maps, maps,
       st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
def test_compose_map_matches_finite_differences(u_text, text1, text2, pt):
    # the chain rule of compose_map against the finite-difference oracle
    # on u(iota1(t), iota2(t))
    u, iota1, iota2 = (expr.parse(t) for t in (u_text, text1, text2))
    j1, j2 = (expr.eval_jet(i, {}, pt, 2) for i in (iota1, iota2))
    got = jets.compose_map(expr.eval_jet(u, {}, (j1.value, j2.value), 2),
                           j1, j2)
    fd = jets.finite_difference_jet(
        lambda p: expr.eval_scalar(u, {}, (expr.eval_scalar(iota1, {}, p),
                                           expr.eval_scalar(iota2, {}, p))),
        pt, 2)
    # the oracle's step**4 truncation scales with the whole jet, and on
    # these compositions it reaches 3e-6 of the jet's largest coefficient
    # (three steep tanh terms in step, at t1 = t2 = -0.25)
    scale = max(1.0, *map(abs, fd.coeffs))
    assert got.coeffs == pytest.approx(fd.coeffs, rel=1e-5, abs=1e-5 * scale)
