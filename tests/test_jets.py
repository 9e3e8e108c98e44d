import dataclasses
import math
import operator
from math import comb

import numpy as np
import pytest

from g2inv import catalog, equivalence, expr, invariants1, jets, \
    point_jets, transform
from g2inv.errors import SingularEvaluationError
from g2inv.metrics import CATALOG_NAMES, default_domain, grid_points
from paper_checks import riemann_sectional_curvatures


def test_seed_constant():
    j = jets.seed(5, None, 2)
    assert j.coeffs == (5.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_seed_coordinate():
    assert jets.seed(2, 0, 1).coeffs == (2.0, 1.0, 0.0)
    j = jets.seed(0, 1, 2)
    assert j.value == 0.0 and j.d(0, 1) == 1.0
    assert j.d(2, 0) == j.d(1, 1) == j.d(0, 2) == 0.0


def test_seed_order_out_of_range():
    with pytest.raises(ValueError):
        jets.seed(1, 0, 5)


def test_outside_input_is_coerced_and_checked():
    for coeffs in ([1, 2, 3], np.array([1.0, 2.0, 3.0]),
                   (np.float32(1.0), np.int64(2), np.float64(3.0))):
        j = jets.Jet2(1, coeffs)
        assert j.coeffs == (1.0, 2.0, 3.0)
        assert all(type(c) is float for c in j.coeffs)
        # results of jet arithmetic skip the coercion: they must be
        # Python floats already
        for r in (j * j + 1, j - 2.5, -j / j, jets.t_derivative(j, 1),
                  jets.truncate(j, 0), j ** 2, j ** 0.5,
                  jets.elementary("sin", j)):
            assert all(type(c) is float for c in r.coeffs)
    with pytest.raises(ValueError):
        jets.Jet2(4, [0.0] * 15)
    with pytest.raises(ValueError):
        jets.Jet2(1, [0.0, 1.0])
    with pytest.raises(ValueError):
        jets.Jet2(2, np.zeros(3))


def test_jets_built_from_numpy_values_hold_python_floats():
    vdb = point_jets(catalog("vdb"), (0.6, 1.1))
    probe = invariants1.random_point_jets(3, order=2)
    for pj in (probe,
               invariants1._unpack(invariants1._pack(probe) + 0.5, 2),
               transform.pushforward_jets(vdb, transform.random_transform(2)),
               point_jets(catalog("vdb"), (0.6, 1.1), method="fd")):
        # a pushforward carries the curl of F and no F
        for j in (*pj.gt, *(pj.F or ()), *pj.h, *pj.curl, pj.det_h,
                  pj.det_gt):
            assert all(type(c) is float for c in j.coeffs)


def test_operands_of_different_orders_are_rejected():
    a, b = jets.seed(0.5, 0, 1), jets.seed(np.array([0.5, 0.7]), 1, 2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError, match="jet order mismatch: 1 vs 2"):
            op(a, b)


def test_product_rule():
    j = jets.seed(2, 0, 1) * jets.seed(3, 1, 1)
    assert j.coeffs == (6.0, 3.0, 2.0)


def test_reciprocal():
    j = jets.constant(1.0, 1) / jets.seed(2, 0, 1)
    assert j.coeffs == (0.5, -0.25, 0.0)


def test_add_neg_is_zero():
    x = jets.elementary("sin", jets.seed(0.3, 0, 2)) * jets.seed(1.5, 1, 2)
    z = x + -x
    assert all(c == 0.0 for c in z.coeffs)


def test_div_by_zero_value():
    with pytest.raises(SingularEvaluationError):
        jets.constant(1, 1) / jets.constant(0, 1)


def test_exp_ln_cosh_tables():
    assert jets.elementary("exp", jets.seed(0, 0, 2)).coeffs == \
        (1.0, 1.0, 0.0, 1.0, 0.0, 0.0)
    assert jets.elementary("ln", jets.seed(1, 0, 2)).coeffs == \
        (0.0, 1.0, 0.0, -1.0, 0.0, 0.0)
    assert jets.elementary("cosh", jets.seed(0, 1, 2)).coeffs == \
        (1.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def test_ln_domain_error():
    with pytest.raises(SingularEvaluationError):
        jets.elementary("ln", jets.seed(-1.0, 0, 1))


@pytest.mark.parametrize("fname", ["sin", "cos", "tan"])
@pytest.mark.parametrize("v", [math.inf, -math.inf, np.array([0.5, math.inf])])
def test_trig_of_an_infinity_is_a_singular_evaluation(fname, v):
    # math's sin, cos and tan raise a ValueError there
    with pytest.raises(SingularEvaluationError, match=f"'{fname}'"):
        jets.elementary(fname, jets.seed(v, 0, 1))


def test_polynomial_exactness():
    # jets of t1^a t2^b reproduce the exact derivative table
    for a in range(3):
        for b in range(3 - a):
            x = jets.seed(1.3, 0, 2)
            y = jets.seed(0.7, 1, 2)
            j = x ** a * y ** b
            for (i, k) in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                if i > a or k > b:
                    expected = 0.0
                else:
                    expected = (math.factorial(a) / math.factorial(a - i)
                                * 1.3 ** (a - i)
                                * math.factorial(b) / math.factorial(b - k)
                                * 0.7 ** (b - k))
                assert j.d(i, k) == pytest.approx(expected, rel=1e-13)


def test_mul_commutes_and_associates():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.standard_normal((3, 6))
        a, b, d = (jets.Jet2(2, row) for row in c)
        ab = a * b
        ba = b * a
        assert np.allclose(ab.coeffs, ba.coeffs, rtol=1e-14, atol=1e-14)
        left = (a * b) * d
        right = a * (b * d)
        assert np.allclose(left.coeffs, right.coeffs, rtol=5e-13, atol=1e-12)


def test_division_inverts_multiplication():
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.standard_normal((2, 10))
        c[1][0] += 3.0  # keep the divisor away from zero
        a, b = jets.Jet2(3, c[0]), jets.Jet2(3, c[1])
        back = (a / b) * b
        assert np.allclose(back.coeffs, a.coeffs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("text, a, b", [("t1^-2", -2, 0),
                                        ("(t1*t2)^-3", -3, -3)])
def test_negative_integer_powers_are_the_closed_form(text, a, b):
    # t1^a t2^b differentiated in closed form: the falling factorials of
    # a and b, at a point and as a batch
    def falling(n, k):
        return math.prod(n - i for i in range(k))
    for t1, t2 in ((1.3, 0.7), (np.array([1.3, -0.6]), np.array([0.7, 2.1]))):
        j = expr.eval_jet(expr.parse(text), {}, (t1, t2), 2)
        for i, k in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            expected = falling(a, i) * t1 ** (a - i) \
                * falling(b, k) * t2 ** (b - k)
            assert np.allclose(j.d(i, k), expected, rtol=1e-13, atol=0.0)


def test_int_power_negative_base():
    j = jets.seed(-2.0, 0, 2) ** 3
    assert j.value == -8.0 and j.d(1, 0) == 12.0 and j.d(2, 0) == -12.0


def test_int_power_takes_no_square_past_its_highest_bit(monkeypatch):
    # a batch square under each_point's errstate: an unused a^4 of 1e400
    # would raise, and the batch would be split into single points
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        j = jets.seed(np.array([1e100, 2e100]), 0, 2) ** 2.0
    assert j.value.tolist() == [1e200, 4e200]
    a = jets.seed(1.5, 0, 2)
    square = a * a
    products, mul = [], jets.Jet2.__mul__
    monkeypatch.setattr(jets.Jet2, "__mul__",
                        lambda x, y: products.append(y) or mul(x, y))
    assert (a ** 4.0).coeffs == mul(square, square).coeffs
    assert len(products) == 2


@pytest.mark.parametrize("fn,point", [
    ("exp", 0.4), ("ln", 1.7), ("sqrt", 2.3), ("sin", 0.9), ("cos", 0.9),
    ("tan", 0.5), ("sinh", 0.8), ("cosh", 0.8), ("tanh", 0.6),
])
def test_elementary_vs_finite_differences(fn, point):
    ast_eval = lambda p: getattr(math, fn if fn != "ln" else "log")(
        p[0] * p[1])
    analytic = jets.elementary(
        fn, jets.seed(point, 0, 2) * jets.seed(1.1, 1, 2))
    fd = jets.finite_difference_jet(ast_eval, (point, 1.1), 2)
    for k in range(6):
        assert analytic.coeffs[k] == pytest.approx(
            fd.coeffs[k], rel=1e-6, abs=1e-8)


def test_fd_jet_bilinear():
    fd = jets.finite_difference_jet(lambda p: p[0] * p[1], (1, 1), 2)
    assert fd.d(1, 1) == pytest.approx(1.0, abs=1e-8)


def test_fd_jet_sinh():
    fd = jets.finite_difference_jet(lambda p: math.sinh(p[0]), (0.5, 0), 1)
    assert fd.d(1, 0) == pytest.approx(math.cosh(0.5), abs=1e-8)


def test_fd_jet_constant():
    fd = jets.finite_difference_jet(lambda p: 4.25, (0.3, 0.9), 2)
    assert fd.coeffs[0] == 4.25
    assert all(c == 0.0 for c in fd.coeffs[1:])


def test_order_1_fd_jets_are_the_order_2_jets_truncated():
    point = (0.64, 0.79)
    assert len(jets.fd_points(point, 1)) == 9
    assert set(jets.fd_points(point, 1)) < set(jets.fd_points(point, 2))
    for fn in (lambda p: math.sin(p[0] * p[1]), lambda p: p[0] / p[1]):
        one, two = (jets.finite_difference_jet(fn, point, n) for n in (1, 2))
        assert [c.hex() for c in one.coeffs] \
            == [c.hex() for c in two.coeffs[:3]]


def test_t_derivative_shifts():
    j = jets.elementary("exp", jets.seed(0.2, 0, 3) * jets.seed(0.5, 1, 3))
    d1 = jets.t_derivative(j, 0)
    assert d1.order == 2
    assert d1.value == j.d(1, 0)
    assert d1.d(1, 1) == j.d(2, 1)


def test_compose_map_roundtrip():
    # compose f with the identity map reproduces f
    f = jets.elementary("sin", jets.seed(0.4, 0, 2) + jets.seed(0.8, 1, 2))
    i1 = jets.seed(0.4, 0, 2)
    i2 = jets.seed(0.8, 1, 2)
    g = jets.compose_map(f, i1, i2)
    assert np.allclose(g.coeffs, f.coeffs, rtol=1e-14, atol=1e-15)


def test_overflow_is_a_singular_evaluation():
    with pytest.raises(SingularEvaluationError, match="overflow"):
        jets.elementary("exp", jets.seed(800.0, 0, 2))
    with pytest.raises(SingularEvaluationError, match="overflow"):
        jets.seed(1e200, 0, 2) ** 2.5


def test_underflow_is_a_singular_evaluation():
    # the second-derivative denominators v * sqrt(v) and v ** 2 underflow
    # to 0 for a tiny positive argument
    with pytest.raises(SingularEvaluationError, match="underflow"):
        jets.elementary("sqrt", jets.seed(1e-300, 0, 2))
    with pytest.raises(SingularEvaluationError, match="underflow"):
        jets.elementary("ln", jets.seed(5e-324, 0, 2))


# columns of every kind: ordinary values, -0.0 and 0.0, subnormals, and
# values where some function's float evaluation raises (sqrt and ln of
# 1e-300 and 5e-324 underflow, ln of 1e200 overflows in v ** 2, exp,
# sinh and cosh of 800 overflow, sqrt and ln of a value <= 0)
PARITY_VALUES = (0.3, -1.7, 2.5, 40.0, -0.0, 0.0, 5e-324, 2.2e-310, -2.2e-310,
                 1e-300, 1e200, 800.0, -800.0, -2.0)


def _float_elementary(fname, coeffs, order):
    """The float branch's coefficients, or None where it raises."""
    try:
        return jets.elementary(fname, jets.Jet2(order, coeffs)).coeffs
    except SingularEvaluationError:
        return None


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("fname", jets.ELEMENTARY_FUNCTIONS)
def test_batch_elementary_has_the_bits_and_errors_of_each_float(fname,
                                                                order):
    rng = np.random.default_rng(order)
    size = len(jets._IDX[order])
    columns = [[v, *rng.uniform(-1.0, 1.0, size - 1)] for v in PARITY_VALUES]
    alone = [_float_elementary(fname, c, order) for c in columns]
    ok = [k for k, got in enumerate(alone) if got is not None]
    assert ok  # every function has columns that evaluate
    # the whole mix, the columns that evaluate, and each that raises
    # among those that evaluate
    batches = [list(range(len(columns))), ok] + [
        ok + [k] for k, got in enumerate(alone) if got is None]
    for batch in batches:
        a = jets._jet(order, tuple(np.array([columns[k][i] for k in batch])
                                   for i in range(size)))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if any(alone[k] is None for k in batch):
                with pytest.raises(SingularEvaluationError):
                    jets.elementary(fname, a)
                continue
            got = jets.elementary(fname, a).coeffs
        for col, k in enumerate(batch):
            assert [float(c[col]).hex() for c in got] \
                == [c.hex() for c in alone[k]], (fname, order, columns[k])


@pytest.mark.parametrize("fname", ["sin", "cos", "sinh", "cosh"])
def test_an_order_0_jet_is_the_function_alone(fname, monkeypatch):
    # its partner (cos of sin, sinh of cosh, ...) is not called, and a
    # batch column and a float point both have the math function's bits
    f = getattr(math, fname)
    monkeypatch.setattr(math, jets._CYCLES[fname][0], None)
    values = [v for v in PARITY_VALUES if abs(v) < 100.0]
    batch = jets.elementary(fname, jets.seed(np.array(values), 0, 0))
    for k, v in enumerate(values):
        alone, = jets.elementary(fname, jets.seed(v, 0, 0)).coeffs
        assert alone.hex() == float(batch.value[k]).hex() == f(v).hex()


# -- the table loops the generated kernels unroll: the reference ------------

def reference_mul(a, b, order):
    """a * b on coefficient tuples by walking the product table."""
    out = [0.0] * len(a)
    for pos, pa, pb, w in jets._MUL[order]:
        out[pos] += w * a[pa] * b[pb]
    return tuple(out)


def reference_divide(num, g, order):
    """num / g on coefficient tuples by the Leibniz recurrence."""
    q = [0.0] * len(num)
    for out, (i, j) in enumerate(jets._IDX[order]):
        acc = num[out]
        for a in range(i + 1):
            for b in range(j + 1):
                if (a, b) == (i, j):
                    continue
                acc = acc - (comb(i, a) * comb(j, b)  # not -=: num's array
                             * q[jets._POS[order][(a, b)]]
                             * g[jets._POS[order][(i - a, j - b)]])
        q[out] = acc / g[0]
    return tuple(q)


def _flat_bits(x):
    """The bits of every number in a layer (records, dicts and arrays
    walked in order; None kept as None)."""
    if x is None:
        return [None]
    if dataclasses.is_dataclass(x):
        x = vars(x)
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (tuple, list)):
        return [b for v in x for b in _flat_bits(v)]
    return [np.asarray(x, dtype=float).tobytes()]


def _layers(m, pt):
    """Bits of pj.second, the Riemann-route K_Xi and K_Xiperp, pj.riemann
    and the fundamentals with their Jacobian at a point."""
    pj = point_jets(m, pt, order=2)
    return _flat_bits([pj.second, riemann_sectional_curvatures(pj),
                       pj.riemann, equivalence._fundamentals(pj)])


def test_reference_kernels_give_every_catalog_layer_bit_for_bit(monkeypatch):
    points = {name: grid_points(default_domain(catalog(name)), 2, 1,
                                margin=0.1) for name in CATALOG_NAMES}
    want = {name: [_layers(catalog(name), pt) for pt in pts]
            for name, pts in points.items()}
    monkeypatch.setattr(jets, "_MUL_KERNEL", {
        n: lambda a, b, n=n: reference_mul(a, b, n) for n in jets._IDX})
    monkeypatch.setattr(jets, "_DIV_KERNEL", {
        n: lambda a, b, n=n: reference_divide(a, b, n) for n in jets._IDX})
    for name, pts in points.items():
        assert [_layers(catalog(name), pt) for pt in pts] == want[name], name



def test_number_and_jet_sums_and_differences():
    a = jets.Jet2(2, (0.3, 1.1, -0.7, 0.2, 0.9, -1.3))
    assert (2.0 - a).coeffs == (2.0 - 0.3, -1.1, 0.7, -0.2, -0.9, 1.3)
    assert (a - 2.0).coeffs == (0.3 - 2.0, 1.1, -0.7, 0.2, 0.9, -1.3)
    assert (2.0 + a).coeffs == (a + 2.0).coeffs \
        == (2.3, 1.1, -0.7, 0.2, 0.9, -1.3)


# batch columns for scaling: -0.0 (0.0 + c*x makes it +0.0), the
# infinities, NaN, a subnormal and a value a large c overflows
SCALE_COLUMNS = (0.3, -1.7, -0.0, 0.0, math.inf, -math.inf, math.nan,
                 5e-324, 1.7e308)


def _scaled_bits(c, x):
    """The bits of 0.0 + c*x in Python floats, entry by entry of x (c a
    float, or an array of x's shape)."""
    c = np.broadcast_to(c, np.shape(x)).ravel().tolist()
    return np.array([0.0 + ci * xi for ci, xi
                     in zip(c, np.ravel(x).tolist())]).tobytes()


@pytest.mark.parametrize("c", [1.0, -2.5, 0.0, -0.0, 1e300, math.inf,
                               math.nan])
@pytest.mark.parametrize("order", range(4))
def test_batch_scaling_is_zero_plus_c_times_each_coefficient(order, c):
    rng = np.random.default_rng(order)
    a = tuple(rng.permutation(SCALE_COLUMNS)
              for _ in range(len(jets._IDX[order])))
    with np.errstate(all="ignore"):
        got = jets._scale(c, a, order).coeffs
    assert len(got) == len(a)
    for x, y in zip(a, got):
        assert y.shape == x.shape and y.tobytes() == _scaled_bits(c, x)
        if c in (1.0, -0.0):
            assert not np.signbit(y[x == 0.0]).any()


def test_batch_scaling_raises_where_a_column_overflows():
    a = (np.array([1.0, 1.7e308]), np.array([2.0, 3.0]), np.zeros(2))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        jets._scale(2.0, a, 1)


def test_mixed_block_and_vector_factor_scaling_is_per_coefficient():
    # a seed's vector value and float derivatives, a block jet's 2x2
    # entries and a vector c (as compose_map scales) are scaled one
    # coefficient at a time: floats stay Python floats, and each array is
    # its own, not a row of one stacked product
    t1 = np.array([0.3, -0.0, math.inf])
    got = (2.5 * jets.seed(t1, 0, 2)).coeffs
    assert got[0].tobytes() == _scaled_bits(2.5, t1)
    assert got[1:] == (2.5, 0.0, 0.0, 0.0, 0.0)
    assert all(type(x) is float for x in got[1:])
    rng = np.random.default_rng(0)
    block = tuple(rng.normal(size=(2, 2, 3)) for _ in range(3))
    c = np.array([0.5, -0.0, 2.0])
    for factor, a in ((-1.5, block), (c, tuple(rng.normal(size=(3, 3))))):
        got = jets._scale(factor, a, 1).coeffs
        for x, y in zip(a, got):
            assert y.base is None and y.tobytes() == _scaled_bits(factor, x)
