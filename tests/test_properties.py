"""Property tests: the expression printer round-trips through the parser,
the parsed DAG evaluates exactly like the tree it prints, parsing with
t1, t2 bound to two ASTs is substitution, each column
of a batch order-0 jet has the bits of eval_scalar at its point and the
fd oracle reports the error met first, order-2 jets obey the ring
laws and the chain rule, the dense product table multiplies like Jet2,
the generated product and quotient kernels give the bits of the loops
they unroll and their batch forms the float kernels' bits column by
column, a product with a constant gives the product kernel's bits,
and each column of a batch of points, packed jets or a
batch point of a metric, has the bits of its own point, over generated
inputs."""

import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from g2inv import (catalog, einstein, equivalence, expr, jets, metrics,
                   point_jets)
from g2inv.errors import G2InvError, SingularMetricError
from g2inv.invariants1 import (_invariant_vector, _pack, _unpack,
                               random_point_jets)
from g2inv.metrics import CATALOG_NAMES, default_domain, grid_points
from g2inv.transform import apply_to_metric, make_transform
from paper_checks import (frame_lengths, riemann_sectional_curvatures,
                          substitute)
from test_jets import reference_divide, reference_mul

SETTINGS = settings(max_examples=200, deadline=None)

numbers = st.floats(allow_nan=False, allow_infinity=False).map(expr.Num)
leaves = st.one_of(numbers, st.integers(0, 1).map(expr.Var),
                   st.sampled_from(("a", "c", "Lambda", "k_2")).map(expr.Param))


def _compound(children):
    return st.one_of(
        children.map(expr.Neg),
        st.builds(expr.Call, st.sampled_from(sorted(expr.FUNCTIONS)),
                  children),
        st.builds(expr.BinOp, st.sampled_from("+-*/^"), children, children))


asts = st.recursive(leaves, _compound, max_leaves=12)


def _read_back(e):
    """e as the parser reads its text: a negative number, -x, as the Neg
    of x."""
    if isinstance(e, expr.Num) and math.copysign(1.0, e.value) < 0.0:
        return expr.Neg(expr.Num(-e.value))
    return type(e)(*(_read_back(f) if isinstance(f, expr.Expr) else f
                     for f in vars(e).values()))


@SETTINGS
@given(asts)
@example(expr.BinOp("^", expr.Num(-2.0), expr.Num(2.0)))
@example(expr.BinOp("^", expr.Num(-0.0), expr.Var(0)))
def test_parse_inverts_to_string(e):
    assert expr.parse(expr.to_string(e)) == _read_back(e)


def _nodes(roots):
    """The distinct node objects of the ASTs."""
    seen, todo = {}, list(roots)
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(expr._children(node))
    return list(seen.values())


@SETTINGS
@given(asts, asts, asts)
@example(expr.BinOp("*", expr.Call("sin", expr.Var(0)),
                    expr.Call("sin", expr.Var(0))),
         expr.Var(1), expr.Num(2.0))
def test_parse_with_bound_coordinates_substitutes(e, r1, r2):
    # parsed, so that a negative number is a Neg as in the parser's output
    table = expr.Table()
    e, r1, r2 = (expr.parse(expr.to_string(x), table) for x in (e, r1, r2))
    got = expr.parse(expr.to_string(e), table, {"t1": r1, "t2": r2})
    assert got == substitute(e, (r1, r2))
    # each distinct subtree is one node: a shared one stays shared
    nodes = _nodes([got])
    assert len(set(nodes)) == len(nodes)


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


SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, -1e-310)
any_float = st.one_of(st.sampled_from(SPECIAL), st.floats())


@st.composite
def kernel_operands(draw):
    """An order and two coefficient tuples of that order, each coefficient
    a float or a length-B float64 vector (B shared), mixed freely as seed
    mixes a vector value with float derivatives."""
    order = draw(st.integers(0, jets.MAX_ORDER))
    width = draw(st.integers(1, 4))

    def coefficient():
        if draw(st.booleans()):
            return draw(any_float)
        return np.array(draw(st.lists(any_float, min_size=width,
                                      max_size=width)))

    size = len(jets._IDX[order])
    return order, *(tuple(coefficient() for _ in range(size))
                    for _ in range(2))


def _run(kernel, *args):
    """The kernel's coefficients, or the error it raised."""
    try:
        with np.errstate(all="ignore"):
            return kernel(*args)
    except ArithmeticError as err:
        return type(err).__name__


def _assert_same_bits(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is type(y) and np.shape(x) == np.shape(y)
        assert np.array_equal(x, y, equal_nan=True)
        # the sign of a NaN is no stable bit: which NaN operand a sum of
        # two NaNs returns moves with numpy's memory alignment and with
        # CPython's specialization of float + (the loop alone, run on one
        # input 3000 times, gives either sign)
        signed = ~np.isnan(y)
        assert np.array_equal(np.signbit(x) & signed, np.signbit(y) & signed)


@settings(max_examples=500, deadline=None)
@given(kernel_operands())
def test_product_kernel_is_the_table_loop_bit_for_bit(operands):
    order, a, b = operands
    _assert_same_bits(_run(jets._MUL_KERNEL[order], a, b),
                      _run(reference_mul, a, b, order))


@settings(max_examples=500, deadline=None)
@given(kernel_operands())
def test_quotient_kernel_is_the_recurrence_bit_for_bit(operands):
    order, a, b = operands
    _assert_same_bits(_run(jets._DIV_KERNEL[order], a, b),
                      _run(reference_divide, a, b, order))


@st.composite
def batch_kernel_operands(draw):
    """An order, a width B and two coefficient tuples of that order for
    the batch kernels: each value a length-B float64 vector, each
    derivative a float or such a vector, mixed freely as seed mixes
    them."""
    order = draw(st.integers(0, jets.MAX_ORDER))
    width = draw(st.integers(1, 4))

    def coefficient(k):
        if k and draw(st.booleans()):
            return draw(any_float)
        return np.array(draw(st.lists(any_float, min_size=width,
                                      max_size=width)))

    size = len(jets._IDX[order])
    return order, width, *(tuple(map(coefficient, range(size)))
                           for _ in range(2))


def _float_column(coeffs, col):
    """Column col of a batch jet's coefficients, as the float point's
    Python floats."""
    return tuple(float(c[col]) if isinstance(c, np.ndarray) else c
                 for c in coeffs)


@settings(max_examples=500, deadline=None)
@given(batch_kernel_operands())
@example((2, 3, (np.array([0.0, -0.0, 5e-324]), 1.0, -0.0, np.inf,
                 np.array([np.nan, -1e-310, 2.0]), 0.0),
          (np.array([-0.0, np.inf, -5e-324]), 0.0, 1.0, -0.0,
           np.array([1e308, -0.0, np.nan]), 5e-324)))
def test_batch_kernels_give_the_float_kernels_bits_column_by_column(
        operands):
    # the batch kernels are the float kernels' code with 0-d float64
    # array constants; a column whose float quotient divides by zero is
    # one _divide raises on before the kernel runs
    order, width, a, b = operands
    for batch, floats in ((jets._MUL_BATCH, jets._MUL_KERNEL),
                          (jets._DIV_BATCH, jets._DIV_KERNEL)):
        got = _run(batch[order], a, b)
        for col in range(width):
            want = _run(floats[order], _float_column(a, col),
                        _float_column(b, col))
            if want == "ZeroDivisionError":
                assert b[0][col] == 0.0
                continue
            assert all(type(x) is float for x in want)
            assert all(type(x) is np.ndarray and x.shape == (width,)
                       for x in got)
            _assert_same_bits(tuple(float(x[col]) for x in got), want)


def test_float_points_keep_python_float_coefficients():
    # a float point runs the float kernels: no numpy float64 reaches its
    # component jets, determinants or fundamentals, as products and
    # quotients of float jets give none
    def walk(x):
        if isinstance(x, jets.Jet2):
            yield x
        elif isinstance(x, (tuple, list, dict)):
            for y in (x.values() if isinstance(x, dict) else x):
                yield from walk(y)

    for name in CATALOG_NAMES:
        m = catalog(name)
        pj = point_jets(m, grid_points(default_domain(m), 1)[0], order=3)
        found = list(walk([pj.all_component_jets(), pj.det_h, pj.det_gt,
                           pj.fundamentals]))
        assert found and all(type(c) is float
                             for j in found for c in j.coeffs), name
    a = jets.Jet2(3, np.linspace(0.5, 2.0, 10))
    for got in (a * a, a / a, a * jets.constant(2.0, 3), a ** -2):
        assert all(type(c) is float for c in got.coeffs)


# finite, with magnitudes below DBL_MAX/3: past that a weighted zero term
# of the product kernel, w*a_p*0.0, overflows into NaN, where scaling by
# a constant leaves c*a_k (the jets module docstring)
finite = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, -1e-310)),
                   st.floats(-1e150, 1e150))


@st.composite
def scale_operands(draw):
    """An order, a float or batch jet of that order (its value a vector
    and its derivatives floats or vectors, as seed mixes them), c (an
    int, a float, or a float jet whose derivatives are zeros of either
    sign, or now and then not all zero) and which side c multiplies
    from."""
    order = draw(st.integers(0, jets.MAX_ORDER))
    width = draw(st.integers(2, 4))
    size = len(jets._IDX[order])
    batch = draw(st.booleans())

    def coefficient(k):
        if batch and (k == 0 or draw(st.booleans())):
            return np.array(draw(st.lists(finite, min_size=width,
                                          max_size=width)))
        return draw(finite)

    a = jets._jet(order, tuple(map(coefficient, range(size))))
    c = draw(st.one_of(st.integers(-10 ** 6, 10 ** 6), finite))
    if draw(st.booleans()):
        zeros = st.sampled_from((0.0, -0.0))
        derivatives = st.lists(st.one_of(zeros, finite) if draw(st.booleans())
                               else zeros, min_size=size - 1,
                               max_size=size - 1)
        c = jets._jet(order, (float(c), *draw(derivatives)))
    return order, width, a, c, draw(st.booleans())


@settings(max_examples=500, deadline=None)
@given(scale_operands())
@example((2, 3, jets._jet(2, (np.array([1.0, -2.0, 0.0]), -0.0, 1.0, 3.0,
                               np.array([-0.0, 5.0, 1e-300]), 0.0)),
          -0.0, True))
def test_product_with_a_constant_is_the_kernel_bit_for_bit(operands):
    order, width, a, c, left = operands
    k = c.coeffs if isinstance(c, jets.Jet2) else jets.constant(c, order).coeffs
    got = c * a if left else a * c
    want = jets._MUL_KERNEL[order](*((k, a.coeffs) if left else (a.coeffs, k)))
    assert len(got.coeffs) == len(want)
    # column by column: a float coefficient stands for the same float in
    # every column
    for x, y in zip(got.coeffs, want):
        assert np.broadcast_to(x, width).tobytes() \
            == np.broadcast_to(y, width).tobytes()


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


def _values(evaluate):
    """The error of evaluate(), or its coefficients, to compare with ==
    (NaN written "nan"): a number -x is a constant jet, while the Neg of
    x has derivatives -0.0."""
    try:
        value = evaluate()
    except (G2InvError, ArithmeticError, ValueError) as err:
        return type(err).__name__, str(err)
    coeffs = value.coeffs if isinstance(value, jets.Jet2) else (value,)
    return tuple("nan" if math.isnan(c) else c for c in coeffs)


@SETTINGS
@given(asts, points)
@example(expr.BinOp("^", expr.Num(-2.0), expr.Num(2.0)), (0.0, 0.0))
def test_parsed_dag_evaluates_exactly_like_the_tree(e, point):
    # e is built by hand, so unshared; its parse is the interned DAG, with
    # the bits of the tree it prints and the values of e
    dag, tree = expr.parse(expr.to_string(e)), _read_back(e)
    evaluations = [lambda x, k=k: expr.eval_jet(x, PARAMS, point, k)
                   for k in range(3)]
    for evaluate in evaluations + [
            lambda x: expr.eval_scalar(x, PARAMS, point)]:
        assert _outcome(lambda: evaluate(dag)) \
            == _outcome(lambda: evaluate(tree))
        assert _values(lambda: evaluate(dag)) == _values(lambda: evaluate(e))


def test_parse_interns_repeated_subtrees():
    e = expr.parse("sin(t1)*sin(t1)")
    assert e.left is e.right


def _first_failure(outcomes):
    return next((o for o in outcomes if isinstance(o, tuple)), None)


# -0 * t1 at t1 > 0: the float product is -0.0, the jet product +0.0
NEGATIVE_ZERO_PRODUCT = expr.BinOp("*", expr.Neg(expr.Num(0.0)), expr.Var(0))


# a batch point takes constant exponents only, as validate requires of a
# metric component
components = asts.filter(lambda e: not expr.validate(e, PARAMS))


@SETTINGS
@given(st.lists(components, min_size=1, max_size=3),
       st.lists(points, min_size=1, max_size=4))
@example([NEGATIVE_ZERO_PRODUCT], [(1.5, 0.0)])
def test_batch_order0_jets_give_the_bits_of_eval_scalar(es, pts):
    want = [[_outcome(lambda: expr.eval_scalar(e, PARAMS, p)) for p in pts]
            for e in es]
    batch = tuple(np.array(t) for t in zip(*pts))
    for e, w in zip(es, want):
        try:
            with np.errstate(all="ignore"):
                value = expr.eval_jet(e, PARAMS, batch, 0).value
        except (G2InvError, ArithmeticError, ValueError):
            assert _first_failure(w) is not None
        else:
            assert np.broadcast_to(value, len(pts)).tobytes() == b"".join(w)
    # the fd oracle's batch over these points fails with the error met
    # first evaluating each expression in turn at each point in turn
    failure = _first_failure(_first_failure(w) for w in want)
    if failure is not None:
        m = metrics.G2Metric(name="es", form="submersion", params=PARAMS,
                             components={}, asts=dict(enumerate(es)))
        with mock.patch.object(jets, "fd_points", lambda point, order: pts):
            assert _outcome(lambda: metrics._eval_components(
                m, pts[0], 0, "fd")) == failure


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


# -- a batch column is its point's own evaluation ---------------------------

def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _column(x, k):
    return np.asarray(x)[..., k]


def _array(layer):
    """A layer's array: a block jet's coefficients, stacked."""
    return np.array(layer.coeffs) if isinstance(layer, jets.Jet2) else layer


def _assert_columns_are_points(batch, points):
    """Every layer of the batch, column k, has the bits of points[k]."""
    layers = ["g4", "christoffel", "frame"] + ["riemann"] * (batch.order >= 2)
    ell = frame_lengths(batch)
    for k, pj in enumerate(points):
        for key, jet in pj.fields.items():
            assert _bits([_column(c, k) for c in batch.fields[key].coeffs]) \
                == _bits(jet.coeffs), key
        for flag, value in vars(pj.stratum).items():
            assert _column(getattr(batch.stratum, flag), k) == value, flag
        for layer in layers:
            assert _bits(_column(_array(getattr(batch, layer)), k)) \
                == _bits(_array(getattr(pj, layer))), layer
        assert _bits(_column(ell, k)) == _bits(frame_lengths(pj)), "ell"
        assert [_bits(_column(x, k)) for x in batch.oneill_tensors] \
            == [_bits(x) for x in pj.oneill_tensors], "oneill_tensors"
        if batch.order >= 2:
            assert _bits(_invariant_vector(batch, "order2_20")[:, k]) \
                == _bits(_invariant_vector(pj, "order2_20"))
            assert [_bits(_column(batch.second[key], k))
                    for key in ("K_Xi", "K_Xiperp")] \
                == [_bits(pj.second[key])
                    for key in ("K_Xi", "K_Xiperp")], "K"
            assert {key: _bits(_column(K, k)) for key, K in
                    riemann_sectional_curvatures(batch).items()} \
                == {key: _bits(K) for key, K in
                    riemann_sectional_curvatures(pj).items()}, "riemann K"
            assert [_bits(_column(K, k)) for K in
                    einstein.sectional_curvatures(batch)] \
                == [_bits(K) for K in einstein.sectional_curvatures(pj)], \
                "frame K"
            assert _bits(_column(einstein.ricci4(batch), k)) \
                == _bits(einstein.ricci4(pj)), "ricci4"


def _batch(points):
    """One batch PointJets of the points' packed jet coordinates, and the
    points rebuilt from the same coordinates one by one."""
    x = np.column_stack([_pack(pj) for pj in points])
    order = points[0].order
    return _unpack(x, order), [_unpack(col, order) for col in x.T]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=5))
def test_batch_columns_have_the_bits_of_their_points(order, seeds):
    batch, points = _batch([random_point_jets(s, order=order)
                            for s in seeds])
    _assert_columns_are_points(batch, points)


@pytest.mark.parametrize("order", [2, 3])
def test_catalog_points_batch_like_their_points(order):
    # every stratum: flat and ppwave points have C_rho = 0 (J1, J2 NaN in
    # the batch), det h and det gt of either sign
    pjs = []
    for name in CATALOG_NAMES:
        m = catalog(name)
        for pt in grid_points(default_domain(m), 2, margin=0.1):
            pjs.append(point_jets(m, pt, order=order))
    batch, points = _batch(pjs)
    _assert_columns_are_points(batch, points)
    sec = batch.second
    for k, pj in enumerate(points):
        for j, value in ((sec["J1"], pj.second["J1"]),
                         (sec["J2"], pj.second["J2"])):
            assert (np.isnan(j[k]) and value is None) \
                or _bits(j[k]) == _bits(value)


def test_batch_overflow_is_silent(capfd):
    # Python floats overflow to inf silently, so a batch column must too:
    # no RuntimeWarning, nothing on stderr, the scalar path's values
    x0 = _pack(random_point_jets(3, order=2))
    x = np.column_stack([x0, x0 * 1e160, x0])
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _unpack(x, 2)
        fields, stratum = batch.fields, batch.stratum
        big = _unpack(x[:, 1], 2)
        want = big.fields
    assert capfd.readouterr().err == ""
    assert not all(j.is_finite() for j in want.values())
    for key, jet in want.items():
        got = np.array([c[1] for c in fields[key].coeffs])
        assert np.array_equal(got, jet.coeffs, equal_nan=True), key
    assert stratum.sign_det_h[1] == big.stratum.sign_det_h


# -- a batch point of a metric is its points' own evaluations ---------------

def _affine_image(m, seed):
    """m under a seeded affine pseudogroup element (submersion form)."""
    rng = np.random.default_rng(seed)
    a = np.eye(2) + rng.uniform(-0.2, 0.2, (2, 2))
    shift, grad = rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.5, 0.5, (2, 2))
    row = "{:.6f}*t1 + {:.6f}*t2 + {:.6f}".format
    return apply_to_metric(m, make_transform(
        row(*a[0], shift[0]), row(*a[1], shift[1]), row(*grad[0], 0.0),
        row(*grad[1], 0.0), [[2.0, 1.0], [-1.0, 1.0]]))


# bfh and submersion forms; lambda_kundu has constant components and
# components of t1 alone
BATCH_METRICS = {"vdb": catalog("vdb"),
                 "vdb_image": _affine_image(catalog("vdb"), 11),
                 "lambda_kundu": catalog("lambda_kundu"),
                 "random_analytic": catalog("random_analytic", {"seed": 3})}


def _assert_evaluation_is_the_point(got, pj):
    """got, (point, generic, values, jac) at one point of
    equivalence._evaluate, has the bits of the evaluation of the
    PointJets pj."""
    point, generic, values, jac = got
    want_values, want_jac = equivalence._fundamentals(pj)
    assert _bits(point) == _bits(pj.point)
    assert generic == pj.stratum.generic
    assert _bits(values) == _bits(want_values)
    assert _bits(jac) == _bits(want_jac)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BATCH_METRICS)),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=6))
def test_batch_point_columns_have_the_bits_of_their_points(name, units):
    m = BATCH_METRICS[name]
    (a, b), (c, d) = default_domain(m)
    pts = [(a + u * (b - a), c + v * (d - c)) for u, v in units]
    batch = point_jets(m, tuple(np.array(pts).T))
    points = [point_jets(m, pt) for pt in pts]
    _assert_columns_are_points(batch, points)
    values, jac = equivalence._fundamentals(batch)
    for k, pj in enumerate(points):
        _assert_evaluation_is_the_point(
            ((batch.point[0][k], batch.point[1][k]), batch.stratum.generic[k],
             values[:, k], jac[..., k]), pj)
    ok, generic, values, jac = equivalence._evaluate(
        [m], [(0, *pt) for pt in pts], stratum=True)
    assert ok.all()
    for k, pj in enumerate(points):
        _assert_evaluation_is_the_point(
            (pts[k], generic[k], values[k], jac[k]), pj)


def test_singular_batch_column_fails_alone():
    # det h = t1^2 vanishes at t1 = 0: the batch fails, and its halves
    # are evaluated in turn until the failing point is alone
    m = catalog("diag_t1")
    pts = [(0.7, 0.1), (0.0, 0.3), (1.2, -0.4)]
    with pytest.raises(SingularMetricError):
        point_jets(m, tuple(np.array(pts).T))
    ok, generic, values, jac = equivalence._evaluate(
        [m], [(0, *pt) for pt in pts], stratum=True)
    assert ok.tolist() == [True, False, True]
    assert np.isnan(values[1]).all() and np.isnan(jac[1]).all()
    for k in (0, 2):
        _assert_evaluation_is_the_point(
            (pts[k], generic[k], values[k], jac[k]), point_jets(m, pts[k]))



@st.composite
def shared_components(draw):
    """Ten submersion components drawn from one pool of nodes, each new
    node built from earlier ones, so subtrees are shared within and
    across components."""
    pool = [expr.Var(0), expr.Var(1), expr.Param("a"), expr.Param("k_2"),
            draw(numbers)]

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(("neg", "call", "op", "op", "pow")))
        if kind == "neg":
            pool.append(expr.Neg(pick()))
        elif kind == "call":
            pool.append(expr.Call(
                draw(st.sampled_from(sorted(expr.FUNCTIONS))), pick()))
        elif kind == "op":
            pool.append(expr.BinOp(draw(st.sampled_from("+-*/")), pick(),
                                   pick()))
        else:
            pool.append(expr.BinOp("^", pick(), expr.Num(
                draw(st.sampled_from((2.0, 3.0, 0.5))))))
    return [pick() for _ in metrics.SUBMERSION_KEYS]


@SETTINGS
@given(shared_components(), points)
def test_defs_document_round_trips(roots, point):
    defs, texts = expr.to_strings(roots)
    doc = {"name": "dag", "form": "submersion", "params": PARAMS,
           "components": dict(zip(metrics.SUBMERSION_KEYS, texts))}
    if defs:  # a document without defs is written without the key
        doc["defs"] = defs
    m = metrics.load_metric(doc)
    again = metrics.load_metric(m.to_document())
    tree = metrics.load_metric({**doc, "defs": {}, "components": {
        k: expr.to_string(e) for k, e in zip(metrics.SUBMERSION_KEYS,
                                             roots)}})
    assert m.to_document() == doc and again.defs == defs
    assert len(_nodes(m.asts.values())) \
        == len(_nodes(again.asts.values())) == len(_nodes(tree.asts.values()))
    for key in metrics.SUBMERSION_KEYS:
        for order in range(4):
            want = _outcome(lambda: expr.eval_jet(
                tree.asts[key], PARAMS, point, order))
            for loaded in (m, again):
                assert _outcome(lambda: expr.eval_jet(
                    loaded.asts[key], PARAMS, point, order)) == want
