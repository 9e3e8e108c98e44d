import math

import numpy as np
import pytest

from g2inv import catalog, invariants1, jets, point_jets, transform
from g2inv.errors import SingularEvaluationError


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
        for j in pj.all_component_jets() + (pj.det_h, pj.det_gt):
            assert all(type(c) is float for c in j.coeffs)


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


def test_int_power_negative_base():
    j = jets.seed(-2.0, 0, 2) ** 3
    assert j.value == -8.0 and j.d(1, 0) == 12.0 and j.d(2, 0) == -12.0


@pytest.mark.parametrize("fn,point", [
    ("exp", 0.4), ("ln", 1.7), ("sqrt", 2.3), ("sin", 0.9), ("cos", 0.9),
    ("tan", 0.5), ("sinh", 0.8), ("cosh", 0.8), ("tanh", 0.6),
])
def test_elementary_vs_finite_differences(fn, point):
    ast_eval = lambda p: getattr(math, fn if fn != "ln" else "log")(
        p[0] * p[1])
    analytic = jets.elementary(
        fn, jets.seed(point, 0, 2) * jets.seed(1.1, 1, 2))
    fd = jets.finite_difference_jet(ast_eval, (point, 1.1), 2, h=1e-2)
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
