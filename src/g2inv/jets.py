"""Truncated Taylor (jet) arithmetic in two base variables.

A ``Jet2`` holds the value and the raw partial derivatives of a scalar
function of (t1, t2) up to a fixed order <= 3.  Coefficients are raw
derivatives d^{i+j} f / dt1^i dt2^j, NOT Taylor coefficients; the i!j!
factors appear only inside composition routines.  All operations are
exact to the stored order, which is what makes every downstream
curvature and invariant computation exact as well.

A coefficient is a float, or a length-B float64 vector for a batch of B
points, each column computed with the bits of its own point's floats.
"""

from __future__ import annotations

import functools
import math
from math import comb
from operator import add, neg, sub

import numpy as np

from .errors import SingularEvaluationError

MAX_ORDER = 3

# multi-index layout per order: graded, t1-degree first within a grade
_IDX = {}
_POS = {}
for _n in range(MAX_ORDER + 1):
    ids = []
    for deg in range(_n + 1):
        for j in range(deg + 1):
            ids.append((deg - j, j))
    _IDX[_n] = tuple(ids)
    _POS[_n] = {ij: k for k, ij in enumerate(ids)}


def _build_mul_table(order):
    table = []
    for out, (i, j) in enumerate(_IDX[order]):
        for a in range(i + 1):
            for b in range(j + 1):
                table.append((out,
                              _POS[order][(a, b)],
                              _POS[order][(i - a, j - b)],
                              float(comb(i, a) * comb(j, b))))
    return tuple(table)


_MUL = {n: _build_mul_table(n) for n in range(MAX_ORDER + 1)}


def _dense(table, size):
    out = np.zeros((size, size, size))
    for pos, pa, pb, w in table:
        out[pos, pa, pb] = w
    return out


# MUL_TENSOR[n][o, p, q]: weight of a_p * b_q in coefficient o of the
# product of two order-n jets, so on coefficient arrays (ncoeffs, ...)
# the product is np.einsum("opq,p...,q...->o...", MUL_TENSOR[n], a, b)
MUL_TENSOR = {n: _dense(_MUL[n], len(_IDX[n])) for n in _MUL}

# _DIFF[n][s]: positions, in the order-n layout, of the coefficients of
# the order-(n - 1) jet d/dt^(s+1); the layout is graded, so they serve
# every order >= n as well (np.take(c, _DIFF[n], axis=0) differentiates
# a coefficient array c along both t at once)
_DIFF = {n: tuple(tuple(_POS[n][(i + 1 - s, j + s)] for (i, j) in _IDX[n - 1])
                  for s in (0, 1))
         for n in range(1, MAX_ORDER + 1)}


class Jet2:
    """Immutable jet of a scalar function of (t1, t2)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs, _exact=False):
        """Outside input is coerced to a tuple of Python floats and its
        order and length are checked; results of jet arithmetic pass
        _exact=True with such a tuple already in hand."""
        if not _exact:
            coeffs = tuple(float(c) for c in coeffs)
            if order not in _IDX:
                raise ValueError(
                    f"jet order must be in 0..{MAX_ORDER}, got {order}")
            if len(coeffs) != len(_IDX[order]):
                raise ValueError(
                    f"order-{order} jet needs {len(_IDX[order])} "
                    f"coefficients, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Jet2 is immutable")

    @property
    def value(self):
        return self.coeffs[0]

    def d(self, i, j):
        """Raw partial derivative d^{i+j}/dt1^i dt2^j."""
        return self.coeffs[_POS[self.order][(i, j)]]

    def is_finite(self):
        if isinstance(self.value, float):
            return all(map(math.isfinite, self.coeffs))
        return bool(np.isfinite(self.coeffs).all())

    def __repr__(self):
        return f"Jet2(order={self.order}, coeffs={self.coeffs})"

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet2):
            if other.order != self.order:
                raise ValueError(
                    f"jet order mismatch: {self.order} vs {other.order}")
            return other
        if isinstance(other, (int, float)):
            return constant(float(other), self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.order, tuple(map(add, self.coeffs, o.coeffs)), True)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.order, tuple(map(neg, self.coeffs)), True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.order, tuple(map(sub, self.coeffs, o.coeffs)), True)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.order, tuple(map(sub, o.coeffs, self.coeffs)), True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        out = [0.0] * len(a)
        for pos, pa, pb, w in _MUL[self.order]:
            out[pos] += w * a[pa] * b[pb]
        return Jet2(self.order, tuple(out), True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _divide(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _divide(o, self)

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p == int(p)):
            return _int_power(self, int(p))
        if not isinstance(p, (int, float)):
            return NotImplemented
        if _any(self.value <= 0.0):
            raise SingularEvaluationError("pow", self.value,
                                          f"non-integer exponent {p}")
        v, p = self.value, float(p)
        try:
            derivs = [_pow(v, p)]
            fac = 1.0
            for k in range(1, self.order + 1):
                fac *= p - (k - 1)
                derivs.append(fac * _pow(v, p - k))
            return _compose(self, derivs)
        except OverflowError:
            raise SingularEvaluationError("pow", v, "overflow") from None


def constant(value, order):
    c = [0.0] * len(_IDX[order])
    c[0] = float(value)
    return Jet2(order, tuple(c), True)


def seed(value, var_index, order):
    """Constant jet (var_index None) or the coordinate jet of t1/t2; an
    ndarray value is a batch of points, its other coefficients floats."""
    if order not in _IDX:
        raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    c = [0.0] * len(_IDX[order])
    c[0] = value if isinstance(value, np.ndarray) else float(value)
    if var_index is not None:
        if var_index not in (0, 1):
            raise ValueError("var_index must be 0, 1 or None")
        if order >= 1:
            c[1 + var_index] = 1.0
    return Jet2(order, tuple(c), True)


def _any(hit):  # a test's bool for one point, any column for a batch
    return hit if isinstance(hit, bool) else hit.any()


def _pow(x, k):
    """x ** k by Python's float pow (C pow; OverflowError), per element."""
    return x ** k if isinstance(x, float) \
        else np.array([c ** k for c in x.tolist()])


def _divide(num, den):
    if _any(den.value == 0.0):
        raise SingularEvaluationError("div", den.value)
    order = num.order
    g = den.coeffs
    q = [0.0] * len(num.coeffs)
    for out, (i, j) in enumerate(_IDX[order]):
        acc = num.coeffs[out]
        for a in range(i + 1):
            for b in range(j + 1):
                if (a, b) == (i, j):
                    continue
                acc = acc - (comb(i, a) * comb(j, b)  # not -=: num's array
                             * q[_POS[order][(a, b)]]
                             * g[_POS[order][(i - a, j - b)]])
        q[out] = acc / g[0]
    return Jet2(order, tuple(q), True)


def _int_power(a, p):
    if p == 0:
        return constant(1.0, a.order)
    if p < 0:
        return _divide(constant(1.0, a.order), _int_power(a, -p))
    result = None
    base = a
    while p:
        if p & 1:
            result = base if result is None else result * base
        base = base * base
        p >>= 1
    return result


def _compose(a, derivs):
    """Jet of f(a) given derivs = [f(a0), f'(a0), ..., f^(n)(a0)]."""
    n = a.order
    d = derivs
    g = a.d
    out = [d[0]]
    if n >= 1:
        out += [d[1] * g(1, 0), d[1] * g(0, 1)]
    if n >= 2:
        out += [d[2] * _pow(g(1, 0), 2) + d[1] * g(2, 0),
                d[2] * g(1, 0) * g(0, 1) + d[1] * g(1, 1),
                d[2] * _pow(g(0, 1), 2) + d[1] * g(0, 2)]
    if n >= 3:
        out += [
            d[3] * _pow(g(1, 0), 3) + 3.0 * d[2] * g(1, 0) * g(2, 0)
            + d[1] * g(3, 0),
            d[3] * _pow(g(1, 0), 2) * g(0, 1)
            + d[2] * (g(2, 0) * g(0, 1) + 2.0 * g(1, 0) * g(1, 1))
            + d[1] * g(2, 1),
            d[3] * g(1, 0) * _pow(g(0, 1), 2)
            + d[2] * (g(0, 2) * g(1, 0) + 2.0 * g(0, 1) * g(1, 1))
            + d[1] * g(1, 2),
            d[3] * _pow(g(0, 1), 3) + 3.0 * d[2] * g(0, 1) * g(0, 2)
            + d[1] * g(0, 3),
        ]
    return Jet2(n, tuple(out), True)


ELEMENTARY_FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos", "tan",
                        "sinh", "cosh", "tanh")


def elementary(fname, a, p=None):
    """Jet of f(a) for a named elementary function (or pow_const with p)."""
    if fname == "pow_const":
        return a ** p
    v, n = a.value, a.order
    try:
        return _compose(a, _derivatives(fname, v, n) if isinstance(v, float)
                        else list(np.array([_derivatives(fname, x, n)
                                            for x in v.tolist()]).T))
    except (OverflowError, ZeroDivisionError) as err:
        raise _float_fault(fname, v, err) from None


def _values(fname, xs):
    """[f(x) for x in xs]: the values of elementary at order 0, errors
    included."""
    out = []
    try:
        for v in xs:
            out.append(_derivatives(fname, v, 0)[0])
    except (OverflowError, ZeroDivisionError) as err:
        raise _float_fault(fname, v, err) from None
    return out


def _float_fault(fname, v, err):
    # on ZeroDivisionError a derivative's denominator (v * s, v ** 2, ...)
    # underflowed to 0; _derivatives builds every derivative it lists, so
    # that happens at order 0 as well
    return SingularEvaluationError(
        fname, v, "overflow" if isinstance(err, OverflowError)
        else "underflow")


def _derivatives(fname, v, n):
    """[f(v), f'(v), ..., f^(n)(v)] for a named elementary function."""
    if fname == "exp":
        e = math.exp(v)
        d = [e] * (n + 1)
    elif fname == "ln":
        if v <= 0.0:
            raise SingularEvaluationError("ln", v)
        d = [math.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3][:n + 1]
    elif fname == "sqrt":
        if v <= 0.0:
            raise SingularEvaluationError("sqrt", v)
        s = math.sqrt(v)
        d = [s, 0.5 / s, -0.25 / (v * s), 0.375 / (v * v * s)][:n + 1]
    elif fname == "sin":
        s, c = math.sin(v), math.cos(v)
        d = [s, c, -s, -c][:n + 1]
    elif fname == "cos":
        s, c = math.sin(v), math.cos(v)
        d = [c, -s, -c, s][:n + 1]
    elif fname == "tan":
        c = math.cos(v)
        if c == 0.0:
            raise SingularEvaluationError("tan", v)
        t = math.tan(v)
        u = 1.0 + t * t
        d = [t, u, 2.0 * t * u, u * (2.0 + 6.0 * t * t)][:n + 1]
    elif fname == "sinh":
        s, c = math.sinh(v), math.cosh(v)
        d = [s, c, s, c][:n + 1]
    elif fname == "cosh":
        s, c = math.sinh(v), math.cosh(v)
        d = [c, s, c, s][:n + 1]
    elif fname == "tanh":
        t = math.tanh(v)
        u = 1.0 - t * t
        d = [t, u, -2.0 * t * u, -2.0 * u * (1.0 - 3.0 * t * t)][:n + 1]
    else:
        raise ValueError(f"unknown elementary function {fname!r}")
    return d


def sqrt_abs(a):
    """Jet of sqrt(|a|); a.value must be nonzero."""
    if _any(a.value == 0.0):
        raise SingularEvaluationError("sqrt_abs", 0.0)
    return elementary("sqrt", flip(a, a.value > 0.0))


def flip(a, keep):
    """a where keep holds, else -a: column by column on a batch."""
    if isinstance(keep, (bool, np.bool_)):
        return a if keep else -a
    return Jet2(a.order, tuple(np.where(keep, c, -c) for c in a.coeffs), True)


def t_derivative(a, s):
    """Jet of da/dt^(s+1), one order lower than a."""
    if a.order == 0:
        raise ValueError("cannot differentiate an order-0 jet")
    c = a.coeffs
    return Jet2(a.order - 1, tuple([c[k] for k in _DIFF[a.order][s]]), True)


def along(vec, jet):
    """Value of the derivative of the jet along the base vector (v1, v2)."""
    return (vec[0] * t_derivative(jet, 0).value
            + vec[1] * t_derivative(jet, 1).value)


def truncate(a, order):
    """Drop coefficients above the requested order."""
    if order > a.order:
        raise ValueError("cannot raise jet order by truncation")
    if order == a.order:
        return a
    return Jet2(order, a.coeffs[:len(_IDX[order])], True)


def compose_map(u, iota1, iota2):
    """Jet of u composed with the map (iota1, iota2).

    u is a jet at the point (iota1.value, iota2.value); iota1/iota2 are
    jets of the map components in the new base variables.  Works by
    summing the Taylor polynomial of u over the zero-value displacement
    jets, so it is exact to the common order.
    """
    n = u.order
    if iota1.order != n or iota2.order != n:
        raise ValueError("component jets must share the jet order")
    d1 = iota1 - iota1.value
    d2 = iota2 - iota2.value
    out = constant(0.0, n)
    pow1 = [constant(1.0, n)]
    pow2 = [constant(1.0, n)]
    for _ in range(n):
        pow1.append(pow1[-1] * d1)
        pow2.append(pow2[-1] * d2)
    for (i, j) in _IDX[n]:
        c = u.d(i, j) / (math.factorial(i) * math.factorial(j))
        out = out + c * (pow1[i] * pow2[j])
    return out


# step of the finite-difference jets (the oracle of point_jets(method="fd"))
FD_STEP = 1e-2


def _fd_quotients(at, order, h):
    """The jet coefficients as Richardson-extrapolated central differences
    of at(i, j, s), the value at (t1 + i*s, t2 + j*s), for s = h and h/2."""
    def richardson(est):
        return (4.0 * est(h / 2.0) - est(h)) / 3.0

    f0 = at(0, 0, h)
    coeffs = [f0]
    if order >= 1:
        coeffs.append(richardson(
            lambda s: (at(1, 0, s) - at(-1, 0, s)) / (2 * s)))
        coeffs.append(richardson(
            lambda s: (at(0, 1, s) - at(0, -1, s)) / (2 * s)))
    if order >= 2:
        coeffs.append(richardson(
            lambda s: (at(1, 0, s) - 2 * f0 + at(-1, 0, s)) / s ** 2))
        coeffs.append(richardson(
            lambda s: (at(1, 1, s) - at(1, -1, s)
                       - at(-1, 1, s) + at(-1, -1, s)) / (4 * s ** 2)))
        coeffs.append(richardson(
            lambda s: (at(0, 1, s) - 2 * f0 + at(0, -1, s)) / s ** 2))
    return coeffs


@functools.cache
def _fd_stencil(order, h):
    """The distinct (i, j, s) the quotients ask for, in the order they
    first ask: 1, 9 and 17 at orders 0, 1 and 2."""
    if order > 2:
        raise ValueError("finite-difference jets support order <= 2 only")
    asked = {}
    _fd_quotients(lambda *k: asked.setdefault(k, 0.0), order, h)
    return tuple(asked)


def _shift(t, i, s):
    return t if i == 0 else t + s if i > 0 else t - s


def _stencil_points(point, order, h):
    t1, t2 = float(point[0]), float(point[1])
    return [(_shift(t1, i, s), _shift(t2, j, s))
            for i, j, s in _fd_stencil(order, h)]


def fd_points(point, order):
    """The points finite_difference_jet evaluates at its default step,
    once each and in this order."""
    return _stencil_points(point, order, FD_STEP)


def finite_difference_jet(evalfn, point, order, h=FD_STEP):
    """Central-difference jet (order <= 2) with one Richardson level.

    Independent oracle for the analytic jet arithmetic; evalfn maps a
    (t1, t2) pair to a float and is called once on each stencil point, in
    the order of fd_points.
    """
    values = dict(zip(_fd_stencil(order, h),
                      map(evalfn, _stencil_points(point, order, h))))
    return Jet2(order, _fd_quotients(lambda *k: values[k], order, h))
