"""Truncated Taylor (jet) arithmetic in two base variables.

A ``Jet2`` holds the value and the raw partial derivatives of a scalar
function of (t1, t2) up to a fixed order <= 3.  Coefficients are raw
derivatives d^{i+j} f / dt1^i dt2^j, NOT Taylor coefficients; the i!j!
factors appear only inside composition routines.  All operations are
exact to the stored order, which is what makes every downstream
curvature and invariant computation exact as well.

A coefficient is a float, or a length-B float64 vector for a batch of B
points, each column computed with the bits of its own point's floats.
A block jet (block, part, fold, gradient) holds the jets of an array of
functions as one jet: each coefficient carries leading index axes (2x2,
4x4x4, or 2x2x3 for the terms of three sums) in front of a batch's
point axis.
The kernels are elementwise and broadcast, so one block operation gives
each entry the bits of its own operation, under the caller's numpy
error state (metrics.each_point sets it: silent at a float point, as
Python floats are), and part gives the entries back as Python floats.

Products and quotients run as straight-line code, one kernel per order
generated at import (Griewank & Walther, Evaluating Derivatives, 2008,
ch. 13): the product from the product table, each coefficient
0.0 + w*a_p*b_q + ... in table order, and the quotient from the Leibniz
recurrence, (n_k - c*q*g - ...) / g_0.  Either is the floating-point
sequence of the plain loop over its table, term for term, less the
exact multiplications by a unit weight.  A product or quotient with a
batch value runs the same code with its constants, the leading 0.0 and
the weights, bound as 0-d float64 arrays: numpy adds a vector to one
without first converting a Python float, and the sums are the same.

A product with a constant (a number, or a float jet with zero
derivatives against a batch jet) scales instead: coefficient k is
0.0 + c*a_k, the kernel's sum without its zero terms.  That is the
kernel's bits wherever a is finite and below DBL_MAX/3; where a holds
inf or NaN, or a weighted zero term w*a_p*0.0 would overflow, the
kernel gives NaN in derivative slots that scaling leaves c*a_k.  The
test is a class comparison of the values, free for two float jets.
"""

from __future__ import annotations

import functools
import math
import types
from math import comb
from operator import neg

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


def _compile(name, order, body):
    """name(a, b) of two order-`order` coefficient tuples, unpacked as
    a0, a1, ... and b0, b1, ..., running the body lines given."""
    unpack = ["".join(f"{v}{k}, " for k in range(len(_IDX[order]))) + "= " + v
              for v in "ab"]
    scope = {}
    exec(compile("\n    ".join([f"def {name}(a, b):", *unpack, *body]),
                 f"<jets.{name}>", "exec"), scope)
    return scope[name]


def _times(factor, *names):
    """factor * x * y ..., the factor dropped where it is 1 (exact)."""
    return " * ".join(([] if factor == 1 else [repr(factor)]) + list(names))


def _elementwise_kernel(name, op, order):
    """a op b, coefficient by coefficient."""
    return _compile(f"{name}{order}", order, [
        "return (" + "".join(f"a{k} {op} b{k}, "
                             for k in range(len(_IDX[order]))) + ")"])


def _mul_kernel(order):
    """a * b: coefficient k is 0.0 + w*a_p*b_q + ... over the rows of
    _MUL[order] for k, in table order.  The 0.0 makes a -0.0 sum +0.0."""
    terms = [[] for _ in _IDX[order]]
    for pos, pa, pb, w in _MUL[order]:
        terms[pos].append(_times(w, f"a{pa}", f"b{pb}"))
    return _compile(f"mul{order}", order, [
        "return (" + "".join(f"0.0 + {' + '.join(t)}, " for t in terms)
        + ")"])


def _div_kernel(order):
    """a / b: q_k = (a_k - c*q_(a,b)*b_rest - ...) / b_0 over the (a, b)
    below k's multi-index (i, j) in lexicographic order, c the binomial
    weight.  Only fresh values are bound: a coefficient may be a vector
    the caller still holds."""
    pos = _POS[order]
    body = []
    for k, (i, j) in enumerate(_IDX[order]):
        acc = f"a{k}"
        for a in range(i + 1):
            for b in range(j + 1):
                if (a, b) != (i, j):
                    acc += " - " + _times(comb(i, a) * comb(j, b),
                                          f"q{pos[(a, b)]}",
                                          f"b{pos[(i - a, j - b)]}")
        body.append(f"q{k} = ({acc}) / b0")
    return _compile(f"div{order}", order, body + [
        "return (" + "".join(f"q{k}, " for k in range(len(body))) + ")"])


_ADD_KERNEL = {n: _elementwise_kernel("add", "+", n) for n in _IDX}
_SUB_KERNEL = {n: _elementwise_kernel("sub", "-", n) for n in _IDX}
_MUL_KERNEL = {n: _mul_kernel(n) for n in _IDX}
_DIV_KERNEL = {n: _div_kernel(n) for n in _IDX}


def _on_arrays(kernel):
    """The kernel's code with its number constants bound as 0-d float64
    arrays (nothing is compiled again).  A term of float coefficients
    alone is a numpy float64, with its bits."""
    code = kernel.__code__
    return types.FunctionType(code.replace(co_consts=tuple(
        np.array(float(c)) if c.__class__ in (int, float) else c
        for c in code.co_consts)), {}, kernel.__name__)


_MUL_BATCH = {n: _on_arrays(k) for n, k in _MUL_KERNEL.items()}
_DIV_BATCH = {n: _on_arrays(k) for n, k in _DIV_KERNEL.items()}


# _DIFF[n][s]: positions, in the order-n layout, of the coefficients of
# the order-(n - 1) jet d/dt^(s+1)
_DIFF = {n: tuple(tuple(_POS[n][(i + 1 - s, j + s)] for (i, j) in _IDX[n - 1])
                  for s in (0, 1))
         for n in range(1, MAX_ORDER + 1)}


class Jet2:
    """Immutable jet of a scalar function of (t1, t2)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        """Outside input is coerced to a tuple of Python floats and its
        order and length are checked; results of jet arithmetic are
        built by _jet from a tuple already in that form."""
        coeffs = tuple(float(c) for c in coeffs)
        if order not in _IDX:
            raise ValueError(
                f"jet order must be in 0..{MAX_ORDER}, got {order}")
        if len(coeffs) != len(_IDX[order]):
            raise ValueError(
                f"order-{order} jet needs {len(_IDX[order])} "
                f"coefficients, got {len(coeffs)}")
        _set_order(self, order)
        _set_coeffs(self, coeffs)

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
        finite = np.isfinite(self.coeffs)
        return np.count_nonzero(finite) == finite.size

    def __repr__(self):
        return f"Jet2(order={self.order}, coeffs={self.coeffs})"

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if type(other) is Jet2:
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
        return _jet(self.order,
                    _ADD_KERNEL[self.order](self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.order, tuple(map(neg, self.coeffs)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _jet(self.order,
                    _SUB_KERNEL[self.order](self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _jet(self.order,
                    _SUB_KERNEL[self.order](o.coeffs, self.coeffs))

    def __mul__(self, other):
        if type(other) is not Jet2:
            if isinstance(other, (int, float)):
                return _scale(float(other), self.coeffs, self.order)
            return NotImplemented
        a, b, order = self.coeffs, other.coeffs, self.order
        if other.order != order:
            raise ValueError(f"jet order mismatch: {order} vs {other.order}")
        kind = a[0].__class__
        if kind is b[0].__class__:
            return _jet(order, (_MUL_KERNEL if kind is float
                                else _MUL_BATCH)[order](a, b))
        # a float and a batch jet, past order 0 (where the kernel scales)
        if order:
            if kind is float and not any(a[1:]):
                a, b = b, a
            if b[0].__class__ is float and not any(b[1:]):
                return _scale(b[0], a, order)
        return _jet(order, _MUL_BATCH[order](a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _divide(self, o)

    def __pow__(self, p):
        if isinstance(p, float) and not math.isfinite(p):
            raise SingularEvaluationError("pow", self.value,
                                          f"non-finite exponent {p}")
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


_new = object.__new__
_set_order = Jet2.order.__set__
_set_coeffs = Jet2.coeffs.__set__


def _jet(order, coeffs):
    """The Jet2 of a coefficient tuple in the stored form (floats or
    float64 vectors, as many as the order has): no coercion, no checks,
    and its slots set past the immutability guard."""
    jet = _new(Jet2)
    _set_order(jet, order)
    _set_coeffs(jet, coeffs)
    return jet


def _scale(c, a, order):
    """c * a for a constant c: the kernel's sum less its zero terms, 0.0 +
    c*x per coefficient x (one product of a batch jet's stacked vectors)."""
    if c.__class__ is float and a[0].__class__ is np.ndarray \
            and a[0].ndim == 1 and all(x.__class__ is np.ndarray for x in a):
        out = np.multiply(c, a)
        out += 0.0
        return _jet(order, tuple(out))
    return _jet(order, tuple([0.0 + c * x for x in a]))


def _spread(a, point):
    """a with every coefficient a vector as long as the coordinates of a
    batch point, so that constants and jets of one variable carry the
    point axis too: a float by np.full (not + 0.0, which would turn -0.0
    into 0.0), a vector as it is; a itself at a float point."""
    if not isinstance(point[0], np.ndarray):
        return a
    return _jet(a.order, tuple(c if getattr(c, "ndim", 0)
                               else np.full(len(point[0]), c)
                               for c in a.coeffs))


def block(rows):
    """The block jet of a nested list of jets of one order and kind
    (floats, or vectors of one batch), the nesting its index axes, or of
    block jets of one shape, whose index axes follow the nesting's."""
    first, depth = rows, 0
    while type(first) is not Jet2:
        first, depth = first[0], depth + 1

    def nest(x):
        return x.coeffs if type(x) is Jet2 else [nest(r) for r in x]
    c = np.array(nest(rows))
    return _jet(first.order, tuple(
        c.transpose(depth, *range(depth), *range(depth + 1, c.ndim))))


def part(a, index):
    """The block jet a at index of its index axes (numpy indexing, each
    coefficient alike); coefficients left single floats are Python
    floats, as at a float point."""
    coeffs = tuple([c[index] for c in a.coeffs])
    return _jet(a.order, coeffs if coeffs[0].ndim
                else tuple(map(float, coeffs)))


def fold(acc, terms, n):
    """acc + terms[index] + ... over the block jet's first n index axes,
    one at a time in row-major order, as a per-entry loop sums."""
    for index in np.ndindex(np.shape(terms.value)[:n]):
        acc = acc + part(terms, index)
    return acc


def constant(value, order):
    c = [0.0] * len(_IDX[order])
    c[0] = float(value)
    return _jet(order, tuple(c))


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
    return _jet(order, tuple(c))


def _any(hit):  # a test's bool for one point, any column for a batch
    return hit if isinstance(hit, bool) else np.count_nonzero(hit) > 0


def _pow(x, k):
    """x ** k by Python's float pow (C pow; OverflowError), per element."""
    return x ** k if isinstance(x, float) \
        else np.array([c ** k for c in x.tolist()])


def _divide(num, den):
    a, b = num.coeffs, den.coeffs
    if _any(b[0] == 0.0):
        raise SingularEvaluationError("div", b[0])
    floats = a[0].__class__ is float and b[0].__class__ is float
    return _jet(num.order, (_DIV_KERNEL if floats
                            else _DIV_BATCH)[num.order](a, b))


def _int_power(a, p):
    if p == 0:
        return constant(1.0, a.order)
    if p < 0:
        return _divide(constant(1.0, a.order), _int_power(a, -p))
    result = None
    base = a
    while True:
        if p & 1:
            result = base if result is None else result * base
        p >>= 1
        if not p:  # no square past the highest bit
            return result
        base = base * base


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
    return _jet(n, tuple(out))


ELEMENTARY_FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos", "tan",
                        "sinh", "cosh", "tanh")


def elementary(fname, a):
    """Jet of f(a) for a named elementary function."""
    v, n = a.value, a.order
    try:
        if isinstance(v, float):
            derivs = _derivatives(fname, v, n)
        else:
            with np.errstate(all="ignore"):  # inf and nan, as on floats
                derivs = _derivatives(fname, v, n)
        return _compose(a, derivs)
    except (OverflowError, ZeroDivisionError) as err:
        # on ZeroDivisionError a derivative's denominator (v * s, v ** 2,
        # ...) underflowed to 0; _derivatives builds every derivative it
        # lists, so that happens at order 0 as well
        raise SingularEvaluationError(
            fname, v, "overflow" if isinstance(err, OverflowError)
            else "underflow") from None


def _map(f, v):
    """f(v), per element on a batch: each column gets its float's call."""
    return f(v) if isinstance(v, float) \
        else np.fromiter(map(f, v.tolist()), float, len(v))


def _over(x, y):
    """x / y, with float division's ZeroDivisionError on a batch too."""
    if not isinstance(y, float) and (y == 0.0).any():
        raise ZeroDivisionError("float division by zero")
    return x / y


# sin, cos, sinh and cosh: f' is sign1 times the partner named, and
# f'' and f''' are sign2 times f and f'
_CYCLES = {"sin": ("cos", 1, -1), "cos": ("sin", -1, -1),
           "sinh": ("cosh", 1, 1), "cosh": ("sinh", 1, 1)}


def _derivatives(fname, v, n):
    """[f(v), f'(v), ..., f^(n)(v)] of a float, or of each batch column."""
    if fname in ("sin", "cos", "tan") and _any(abs(v) == math.inf):
        raise SingularEvaluationError(fname, v)  # math's raise ValueError
    if fname == "exp":
        e = _map(math.exp, v)
        d = [e] * (n + 1)
    elif fname == "ln":
        if _any(v <= 0.0):
            raise SingularEvaluationError("ln", v)
        d = [_map(math.log, v), 1.0 / v, _over(-1.0, _pow(v, 2)),
             _over(2.0, _pow(v, 3))][:n + 1]
    elif fname == "sqrt":
        if _any(v <= 0.0):
            raise SingularEvaluationError("sqrt", v)
        s = _map(math.sqrt, v)
        d = [s, 0.5 / s, _over(-0.25, v * s),
             _over(0.375, v * v * s)][:n + 1]
    elif fname in _CYCLES:
        partner, sign1, sign2 = _CYCLES[fname]
        f = _map(getattr(math, fname), v)
        if not n:  # the value alone: the partner is not evaluated
            return [f]
        g = _map(getattr(math, partner), v)
        g = g if sign1 > 0 else -g
        d = [f, g, f if sign2 > 0 else -f, g if sign2 > 0 else -g][:n + 1]
    elif fname == "tan":
        t = _map(math.tan, v)  # finite: no double is an odd multiple of pi/2
        u = 1.0 + t * t
        d = [t, u, 2.0 * t * u, u * (2.0 + 6.0 * t * t)][:n + 1]
    elif fname == "tanh":
        t = _map(math.tanh, v)
        u = 1.0 - t * t
        d = [t, u, -2.0 * t * u, -2.0 * u * (1.0 - 3.0 * t * t)][:n + 1]
    else:
        raise ValueError(f"unknown elementary function {fname!r}")
    return d


def sqrt_abs(a):
    """Jet of sqrt(|a|); a.value must be nonzero."""
    return elementary("sqrt", flip(a, a.value > 0.0))


def flip(a, keep):
    """a where keep holds, else -a: column by column on a batch."""
    if isinstance(keep, (bool, np.bool_)):
        return a if keep else -a
    return _jet(a.order, tuple(np.where(keep, c, -c) for c in a.coeffs))


def t_derivative(a, s):
    """Jet of da/dt^(s+1), one order lower than a."""
    if a.order == 0:
        raise ValueError("cannot differentiate an order-0 jet")
    c = a.coeffs
    return _jet(a.order - 1, tuple([c[k] for k in _DIFF[a.order][s]]))


def gradient(a, n):
    """The block jet of da/dx^e over e < n as a new first index axis, one
    order lower than a: x = (t1, t2, ...), and a depends on t1 and t2
    alone, so the entries e >= 2 are zeros."""
    c, zeros = a.coeffs, np.zeros((n - 2, *np.shape(a.value)))
    return _jet(a.order - 1, tuple(np.concatenate(([c[p], c[q]], zeros))
                                   for p, q in zip(*_DIFF[a.order])))


def along(vec, jet):
    """Value of the derivative of the jet along the base vector (v1, v2)."""
    return (vec[0] * t_derivative(jet, 0).value
            + vec[1] * t_derivative(jet, 1).value)


def truncate(a, order):
    """Drop coefficients above the requested order, order <= a.order."""
    return _jet(order, a.coeffs[:len(_IDX[order])])


def compose_map(u, iota1, iota2):
    """Jet of u composed with the map (iota1, iota2).

    u is a jet at the point (iota1.value, iota2.value); iota1/iota2 are
    jets of the map components in the new base variables, of u's order.
    Works by summing the Taylor polynomial of u over the zero-value
    displacement jets, so it is exact to that order.
    """
    n = u.order
    # iota - iota.value, coefficient by coefficient (x - 0.0 is x)
    d1, d2 = (_jet(n, (c[0] - c[0], *c[1:]))
              for c in (iota1.coeffs, iota2.coeffs))
    out = constant(0.0, n)
    pow1 = [constant(1.0, n)]
    pow2 = [constant(1.0, n)]
    for _ in range(n):
        pow1.append(pow1[-1] * d1)
        pow2.append(pow2[-1] * d2)
    for (i, j) in _IDX[n]:
        c = u.d(i, j) / (math.factorial(i) * math.factorial(j))
        # c * jet, which a vector c would make a numpy object array
        out = out + _scale(c, (pow1[i] * pow2[j]).coeffs, n)
    return out


# step of the finite-difference jets (the oracle of point_jets(method="fd"))
FD_STEP = 1e-2


def _fd_quotients(at, order):
    """The jet coefficients as Richardson-extrapolated central differences
    of at(i, j, s), the value at (t1 + i*s, t2 + j*s), for s = h and h/2,
    h = FD_STEP as it is at the call."""
    h = FD_STEP

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
    first ask: 1, 9 and 17 at orders 0, 1 and 2.  h is FD_STEP at the
    call, the step the quotients read, and keys the cache."""
    if order > 2:
        raise ValueError("finite-difference jets support order <= 2 only")
    asked = {}
    _fd_quotients(lambda *k: asked.setdefault(k, 0.0), order)
    return tuple(asked)


def _shift(t, i, s):
    return t if i == 0 else t + s if i > 0 else t - s


def fd_points(point, order):
    """The points finite_difference_jet evaluates, once each and in this
    order (each a batch, for a batch point)."""
    return [(_shift(point[0], i, s), _shift(point[1], j, s))
            for i, j, s in _fd_stencil(order, FD_STEP)]


def finite_difference_jet(evalfn, point, order):
    """Central-difference jet (order <= 2) with one Richardson level, at
    the step FD_STEP.

    Independent oracle for the analytic jet arithmetic; evalfn maps a
    (t1, t2) pair to a float and is called once on each stencil point, in
    the order of fd_points.  An evalfn giving a float64 vector, the
    values of several functions, gives their jets as one batch jet.
    """
    values = dict(zip(_fd_stencil(order, FD_STEP),
                      map(evalfn, fd_points(point, order))))
    coeffs = _fd_quotients(lambda *k: values[k], order)
    if isinstance(coeffs[0], np.ndarray):
        return _jet(order, tuple(coeffs))
    return Jet2(order, coeffs)
