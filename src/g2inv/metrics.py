"""Metric definitions, jet extraction, stratum flags and the catalog.

A metric with two commuting Killing fields d/dz1, d/dz2 is given by ten
component expressions of (t1, t2), either in the raw block form

    b_ij dt^i dt^j + 2 f_ik dt^i dz^k + h_kl dz^k dz^l          ("bfh")

or in the submersion form

    gt_ij dt^i dt^j + h_kl (dz^k + F_i^k dt^i)(dz^l + F_j^l dt^j)

with gt the orbit metric.  The submersion form is canonical internally;
bfh input is converted eagerly by the law

    gt_ij = b_ij - f_ik f_jl h^kl,    F_j^k = f_js h^sk,

written once, as the texts of SUBMERSION_LAWS: point_jets evaluates them
on jets, and transform.apply_to_metric parses them on a source's nodes.
"""

from __future__ import annotations

import importlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr, jets
from .errors import (G2InvError, MetricDefinitionError,
                     SingularEvaluationError, SingularMetricError)

BFH_KEYS = ("b11", "b12", "b22", "f11", "f12", "f21", "f22",
            "h11", "h12", "h22")
SUBMERSION_KEYS = ("gt11", "gt12", "gt22", "F11", "F12", "F21", "F22",
                   "h11", "h12", "h22")

# the bfh -> submersion law of the module docstring, h^kl by the
# adjugate: each text names the bfh components and the laws before it
SUBMERSION_LAWS = {
    "det": "h11*h22 - h12*h12",
    "hi11": "h22/det", "hi12": "-(h12/det)", "hi22": "h11/det",
    "F11": "f11*hi11 + f12*hi12", "F12": "f11*hi12 + f12*hi22",
    "F21": "f21*hi11 + f22*hi12", "F22": "f21*hi12 + f22*hi22",
    **{f"gt{i}{j}": f"b{i}{j} - (f{i}1*F{j}1 + f{i}2*F{j}2)"
       for i, j in ((1, 1), (1, 2), (2, 2))}}


def parse_laws(table, named):
    """Each bfh component (its node in named, else a Param) and each law,
    naming them and the laws before it, parsed into table."""
    named = {k: expr.parse(k, table, named) for k in BFH_KEYS} | named
    for key, text in SUBMERSION_LAWS.items():
        named[key] = expr.parse(text, table, named)
    return named


# the laws parsed once on the bfh components as Param nodes, which
# point_jets binds to their jets in the evaluation memo
_LAWS = parse_laws(expr.Table(), {})

# relative tolerance (times the magnitudes of the terms each adds) below
# which C_rho or ell_C count as zero: the stratum decision of classify
GENERIC_TOL = 1e-10


@dataclass(frozen=True)
class G2Metric:
    name: str
    form: str  # "bfh" | "submersion"
    params: dict
    components: dict  # key -> expression string
    asts: dict = field(repr=False, default=None)
    domain: tuple = None  # ((t1min, t1max), (t2min, t2max)) or None
    defs: dict = field(default_factory=dict)  # name -> expression string

    def to_document(self):
        doc = {"name": self.name, "form": self.form,
               "params": dict(self.params)}
        if self.defs:
            doc["defs"] = dict(self.defs)
        doc["components"] = dict(self.components)
        return doc


@contextmanager
def singular_on_overflow(what):
    """numpy overflow or invalid arithmetic in the block, or a Python
    float's overflow or zero division (of a denominator that underflowed
    to 0), is a SingularEvaluationError, not a RuntimeWarning and a NaN
    or a traceback; the float errors in jets.elementary's words."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as err:
        raise SingularEvaluationError(what, math.nan, str(err)) from None
    except OverflowError:
        raise SingularEvaluationError(what, math.nan, "overflow") from None
    except ZeroDivisionError:
        raise SingularEvaluationError(what, math.nan, "underflow") from None


def _layer(module, name):
    """A cached PointJets layer: g2inv.<module>.<name>(pj), looked up the
    first time the layer is read (those modules import this one, and a
    patched or traced function is the one called), run silent at a point
    or a batch, as on floats: what reads its inf or NaN names it."""
    def layer(pj):
        fn = getattr(importlib.import_module(f"g2inv.{module}"), name)
        with np.errstate(all="ignore"):
            return fn(pj)
    return cached_property(layer)


@dataclass(frozen=True)
class PointJets:
    """Jets of the canonical submersion components at one point (or a
    batch: coefficients are vectors, every layer has a trailing axis).

    gt = (gt11, gt12, gt22), F = (F11, F12, F21, F22) with F_i^k ordered
    (f_1^1, f_1^2, f_2^1, f_2^2), h = (h11, h12, h22); det jets cached.
    curl = (W^1, W^2), W^k = d2 F_1^k - d1 F_2^k one order lower, is all
    of F that any layer reads; a pushforward's F is None.

    The layers derived from the jets are cached properties, each computed
    at most once per point by the one function that owns it, in the
    order of the construction: fundamentals (the six fundamental
    invariants), derivations (the invariant differentiations X and
    Xperp), q_gamma_root (read by the first-order and on-shell relation
    suites), fields (the first-order invariants of the first-order
    relation suite), stratum (classify: which frames and relations
    apply), christoffel, riemann, frame and oneill_tensors (the
    Christoffel symbols, Riemann tensor, semi-invariant frame Y and
    O'Neill's T in the adapted basis X_i = d_ti - F_i^n d_zn, d_zk),
    second (the second-order invariants, K_Xi and K_Xiperp by the
    Gauss-curvature propositions).
    Callers read them and never mutate them.
    """
    point: tuple
    order: int
    gt: tuple
    F: tuple
    h: tuple
    det_h: jets.Jet2
    det_gt: jets.Jet2
    curl: tuple

    def all_component_jets(self):
        return self.gt + self.F + self.h

    @property
    def batch(self):
        """Whether the jets are a batch (coefficients are vectors)."""
        return isinstance(self.det_h.value, np.ndarray)

    fundamentals = _layer("invariants1", "fundamental_jets")
    derivations = _layer("invariants1", "derivations")
    q_gamma_root = _layer("invariants1", "q_gamma_root")
    fields = _layer("invariants1", "first_invariant_jets")
    stratum = _layer("metrics", "classify")
    christoffel = _layer("einstein", "christoffel4")
    riemann = _layer("einstein", "riemann4")
    frame = _layer("invariants1", "frame")
    oneill_tensors = _layer("invariants1", "oneill_tensors")
    second = _layer("invariants2", "second_invariants_from_jets")


@dataclass(frozen=True)
class StratumFlags:
    sign_det_h: int
    sign_det_gt: int
    c_rho_zero: bool
    ell_c_zero: bool
    generic: bool


def read_document(document, kind):
    """The JSON object at a path, or a dict; else MetricDefinitionError."""
    if isinstance(document, (str, bytes)):
        with open(document, "r", encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError,
                    RecursionError) as err:
                raise MetricDefinitionError(f"malformed JSON: {err}") from None
    if not isinstance(document, dict):
        raise MetricDefinitionError(f"{kind} document must be a JSON object")
    return document


def load_metric(document):
    """Build a validated G2Metric from a JSON document, dict, or path."""
    document = read_document(document, "metric")
    unknown = set(document) - {"name", "form", "params", "defs",
                               "components"}
    if unknown:
        raise MetricDefinitionError(f"unknown keys: {sorted(unknown)}")
    try:
        name = document["name"]
        form = document["form"]
        components = document["components"]
    except KeyError as err:
        raise MetricDefinitionError(f"missing key {err}") from None
    params = document.get("params", {})
    if form not in ("bfh", "submersion"):
        raise MetricDefinitionError(f"form must be bfh|submersion, got {form!r}")
    if not isinstance(params, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in params.values()):
        raise MetricDefinitionError("params must map names to numbers")
    for key, value in params.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise MetricDefinitionError(
                f"param {key!r} must be a finite float")
    if not isinstance(components, dict):
        raise MetricDefinitionError("components must be a JSON object")
    keys = BFH_KEYS if form == "bfh" else SUBMERSION_KEYS
    missing = [k for k in keys if k not in components]
    if missing:
        raise MetricDefinitionError(f"missing component {missing[0]}")
    unknown = set(components) - set(keys)
    if unknown:
        raise MetricDefinitionError(
            f"unknown component keys: {sorted(unknown)}")
    defs = document.get("defs", {})
    if not isinstance(defs, dict):
        raise MetricDefinitionError("defs must be a JSON object")
    _check_names("param", params, _RESERVED)
    _check_names("def", defs,
                 {**_RESERVED, **dict.fromkeys(params, "a param")})
    table, named = expr.Table(), {}

    def validated(where, ast):
        problems = expr.validate(ast, params, table)
        if problems:
            raise MetricDefinitionError(f"{where}: " + "; ".join(problems))
        return ast

    for key, text in defs.items():
        if not isinstance(text, str):
            raise MetricDefinitionError(f"def {key} must be a string")
        ast = expr.parse(text, table, named)
        if table.depth(ast) > expr.MAX_DEPTH:
            raise MetricDefinitionError(
                f"def {key}: nested deeper than {expr.MAX_DEPTH} levels")
        named[key] = validated(f"def {key}", ast)
    asts = {key: validated(f"component {key}", expr.parse(
        str(components[key]), table, named)) for key in keys}
    return G2Metric(name=str(name), form=form, params=dict(params),
                    components={k: str(components[k]) for k in keys},
                    asts=asts, defs=dict(defs))


# names a param or def may not take, with what they name already
_RESERVED = {"t1": "a coordinate", "t2": "a coordinate",
             **dict.fromkeys(expr.FUNCTIONS, "a function")}


def _check_names(kind, names, taken):
    for name in names:
        if name in taken:
            raise MetricDefinitionError(
                f"{kind} {name!r} shadows {taken[name]}")


def _stencil_values(m, points):
    """(component, point) array of the component values at the points,
    floats or batches, one order-0 eval_jet batch of all their columns;
    if that fails, the error met first evaluating each component in
    turn at each column in turn."""
    batch = tuple(np.ravel(t) for t in zip(*points))
    values, memo = np.empty((len(m.asts), len(batch[0]))), {}
    try:
        with np.errstate(all="ignore"):  # as floats: inf and nan, silent
            for row, ast in zip(values, m.asts.values()):
                row[:] = expr.eval_jet(ast, m.params, batch, 0, memo).value
        return values
    except (G2InvError, ArithmeticError, ValueError) as err:
        failure = err
    for ast in m.asts.values():
        for p in zip(*batch):
            expr.eval_scalar(ast, m.params, p)
    raise failure


def _eval_components(m, point, order, method):
    if method == "analytic":
        memo = {}
        return {key: expr.eval_jet(ast, m.params, point, order, memo)
                for key, ast in m.asts.items()}
    if method == "fd":
        # the ten components' values at one stencil point per evalfn call,
        # in the order of fd_points: one batch jet of their quotients
        points = jets.fd_points(point, order)
        values = _stencil_values(m, points).reshape(
            len(m.asts), len(points), *np.shape(point[0]))
        jet = jets.finite_difference_jet(
            lambda p, columns=iter(values.swapaxes(0, 1)): next(columns),
            point, order)
        return {key: jets.part(jet, k) for k, key in enumerate(m.asts)}
    raise ValueError(f"unknown jet method {method!r}")


def assemble(point, order, components, curl=None):
    """The PointJets at point of the ten submersion component jets, in
    SUBMERSION_KEYS order, then det h and det gt if given, else formed
    from them silently, as on floats, as is the curl W^k = d2 F_1^k -
    d1 F_2^k; given a curl (a pushforward's), gt and h alone, and F is
    None.  Nothing is checked: point_jets is the validating producer."""
    F, d = None, jets.t_derivative
    with np.errstate(all="ignore"):
        if curl is None:
            F = tuple(components[3:7])
            curl = tuple(d(F[k], 1) - d(F[2 + k], 0) for k in range(2))
            components = components[:3] + components[7:]
        gt, h, dets = (tuple(components[s]) for s in np.s_[0:3, 3:6, 6:])
        dets = dets or (h[0] * h[2] - h[1] * h[1],
                        gt[0] * gt[2] - gt[1] * gt[1])
    return PointJets(point=point, order=order, gt=gt, F=F, h=h,
                     det_h=dets[0], det_gt=dets[1], curl=curl)


def point_jets(m, point, order=2, method="analytic"):
    """Canonical submersion-form jets of the metric at a point.

    A point (t1s, t2s) of two float64 arrays of length B is a batch of B
    points: every coefficient of every jet is a length-B vector, column k
    with the bits of point_jets(m, (t1s[k], t2s[k])), and one singular
    column fails the whole batch.  method="fd" replaces analytic jets
    with central finite differences (order <= 2), the independent
    cross-check path.  A bfh metric's jets are converted by evaluating
    SUBMERSION_LAWS on them; det h is formed and checked before the law
    divides by it, and handed to assemble with det gt.

    On a batch, a constant component (a float jet, such as a "0") stays
    one through det h and the law, and is spread to the point axis after
    them: a product with it scales, as a product with a number does.
    That is the kernel's bits wherever the other factor is finite and
    below DBL_MAX/3 (the jets.py docstring).  Where that factor holds a
    larger coefficient, the kernel's NaN in a derivative slot, which
    fails the point alone, is a finite scaled coefficient in a batch.
    """
    if order not in range(1, jets.MAX_ORDER + 1):
        raise ValueError(
            f"point_jets order must be in 1..{jets.MAX_ORDER}, got {order!r}")
    batch = isinstance(point[0], np.ndarray)
    point = tuple(np.array(t, dtype=float) if batch else float(t)
                  for t in (point[0], point[1]))
    comp = {key: j if j.value.__class__ is float else jets._spread(j, point)
            for key, j in _eval_components(m, point, order, method).items()}
    h = (comp["h11"], comp["h12"], comp["h22"])
    det_h = h[0] * h[2] - h[1] * h[1]
    if jets._any(det_h.value == 0.0) or not det_h.is_finite():
        raise SingularMetricError(
            f"singular h for metric {m.name!r} at {point}")
    if m.form == "bfh":
        # the law on the jets, its inputs and det bound to checked jets
        memo = {id(_LAWS[k]): j for k, j in (*comp.items(), ("det", det_h))}
        comp |= {k: expr.eval_jet(_LAWS[k], {}, point, order, memo)
                 for k in SUBMERSION_KEYS[:7]}

    def spread(j):  # a constant, still a float jet on a batch
        return jets._spread(j, point) if j.value.__class__ is float else j

    gt, F, h = (tuple(spread(comp[k]) for k in SUBMERSION_KEYS[s])
                for s in np.s_[0:3, 3:7, 7:10])
    det_h = spread(det_h)
    det_gt = gt[0] * gt[2] - gt[1] * gt[1]
    if jets._any(det_gt.value == 0.0) or not det_gt.is_finite():
        raise SingularMetricError(
            f"singular orbit metric for {m.name!r} at {point}")
    pj = assemble(point, order, [*gt, *F, *h, det_h, det_gt])
    for j in pj.all_component_jets():
        if not j.is_finite():
            raise SingularMetricError(
                f"non-finite component jet for {m.name!r} at {point}")
    return pj


# the most columns each_point evaluates as one batch: peak memory grows
# with the batch (about 11 kB a column through the second-order layer)
MAX_BATCH = 256


def each_point(evaluate, items, stop=False):
    """evaluate's result at each item, or the G2InvError or
    ArithmeticError it raises there; evaluate(point) gives one result
    per column of its point, a sequence returned as it is when the items
    (a list, or an array of rows) run as one batch that does not raise,
    and else joined into a list.  The items run as batches of at most
    MAX_BATCH, and a batch that raises is halved, down to single items
    evaluated alone as floats: a failing item fails alone, with its own
    error.  With stop, the results end with the first failing item's
    error, a failing batch runs its first item alone before it is
    halved, and items after the first failing one run only in the
    batches that failed with it.  This is where numpy's error state is
    set: an item alone runs silent, as its Python floats do, and numpy
    overflow, invalid arithmetic and zero division raise in a batch, so
    an item that meets one runs alone and gives what it gives alone."""
    if not len(items):
        return []
    if len(items) > MAX_BATCH:
        parts = [items[start:start + MAX_BATCH]
                 for start in range(0, len(items), MAX_BATCH)]
    else:
        try:
            if len(items) == 1:
                with np.errstate(all="ignore"):
                    return evaluate(items[0])
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return evaluate(np.array(items).T)
        except (G2InvError, ArithmeticError) as err:
            if len(items) == 1:
                return [err]
        half = len(items) // 2
        parts = ([items[:1], items[1:half], items[half:]] if stop
                 else [items[:half], items[half:]])
    got = []
    for part in filter(len, parts):
        got.extend(each_point(evaluate, part, stop))
        if stop and isinstance(got[-1], Exception):
            break
    return got


def each_point_or_raise(evaluate, items):
    """each_point's results, raising the first failing item's error."""
    got = each_point(evaluate, items, stop=True)
    if got and isinstance(got[-1], Exception):
        raise got[-1]
    return got


def classify(pj):
    """Stratum flags deciding which frames and relations apply: C_rho =
    gt^ij sigma_i sigma_j and ell_C = h_kl C^k C^l are zero where at most
    GENERIC_TOL times the magnitudes of their terms (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 4.2), sigma_i's those of
    d_i det h / det h; <= keeps a point of zero terms (flat) on the zero
    stratum.  Values alone, and no F: one stratum at every jet order and
    in every psi gauge."""
    f = pj.fundamentals
    (g11, g12, g22), (h11, h12, h22) = (
        [np.abs(x.value) for x in f[k]] for k in ("gi", "h"))
    C1, C2 = (np.abs(f[k].value) for k in ("C1", "C2"))
    # the terms of d_i det h = d_i h11 h22 + h11 d_i h22 - 2 h12 d_i h12
    s1, s2 = ((np.abs(d[0].value) * h22 + h11 * np.abs(d[2].value)
               + 2.0 * h12 * np.abs(d[1].value)) / np.abs(f["det_h"].value)
              for d in f["dh"])
    # np.abs: numpy bools at a float point too, where ~True would be -2
    c_rho_zero = np.abs(f["C_rho"].value) <= GENERIC_TOL * (
        g11 * s1 * s1 + 2.0 * g12 * s1 * s2 + g22 * s2 * s2)
    ell_c_zero = np.abs(f["ell_C"].value) <= GENERIC_TOL * (
        h11 * C1 * C1 + 2.0 * h12 * C1 * C2 + h22 * C2 * C2)
    return StratumFlags(
        sign_det_h=(pj.det_h.value > 0) * 2 - 1,
        sign_det_gt=(pj.det_gt.value > 0) * 2 - 1,
        c_rho_zero=c_rho_zero,
        ell_c_zero=ell_c_zero,
        generic=~(c_rho_zero | ell_c_zero),
    )


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

_C6 = "cosh(sqrt(6)*t1)"

# the catalog families: name -> (sampling rectangle where the family is
# smooth and nondegenerate, params with their defaults, nonzero bfh
# components); random_analytic's components are drawn from its seed
_FAMILIES = {
    "flat": (((-1.0, 1.0), (-1.0, 1.0)), {}, {
        "b11": "1", "b22": "1", "h11": "1", "h22": "1"}),
    "diag_t1": (((0.5, 2.5), (-1.0, 1.0)), {}, {
        "b11": "1", "b22": "1", "h11": "t1", "h22": "t1"}),
    "vdb": (((0.3, 1.2), (0.7, 1.5)), {}, {
        "b11": f"{_C6}*sinh(t2)^4 + 2*{_C6}*sinh(t2)^2*cosh(t2)^2"
               f" + 3*cosh(t2)^4/{_C6}",
        "b22": f"-{_C6}*sinh(t2)^4",
        "f11": f"6*cosh(t2)^2/{_C6}",
        "f12": f"2*{_C6}*sinh(t2)^2*cosh(t2) + 6*cosh(t2)^3/{_C6}",
        "h11": f"12/{_C6}",
        "h12": f"12*cosh(t2)/{_C6}",
        "h22": f"2*{_C6}*sinh(t2)^2 + 12*cosh(t2)^2/{_C6}",
    }),
    # dt1 dt2 + R^2 (dz1 + W dz2)^2 + S^2 (dz2)^2 with R = S = cos(t1),
    # W = 2 t1; vacuum requires (W')^2 = -(2 S^2/R^2)(R''/R + S''/S),
    # here 4 = -2(-1 - 1)
    "ppwave1": (((-0.5, 0.5), (-0.5, 0.5)), {}, {
        "b12": "1/2",
        "h11": "cos(t1)^2",
        "h12": "2*t1*cos(t1)^2",
        "h22": "(4*t1^2 + 1)*cos(t1)^2",
    }),
    "ppwave2": (((-1.0, 1.0), (-1.0, 1.0)), {"c": 2.0}, {
        "b11": "1", "b22": "1",
        "f21": "c*t1",
        "h11": "c^2*t1^2/2",  # forced: psi_11 + psi_22 = c^2
        "h12": "1",
    }),
    "ppwave3": (((-1.0, 1.0), (-1.0, 1.0)), {"c": 1.0}, {
        "b11": "exp(t1)", "b22": "exp(t1)",
        "f21": "c*exp(t1)",
        "h11": "c^2*exp(t1)",  # forced: psi_11 + psi_22 = c^2 e^t1
        "h12": "1",
    }),
    # coordinates (r, y, u, v); psi = 0 solves the linear psi-equation
    # 2r(c+r^{3/2})^2 psi_rr + (c+r^{3/2})(2c+5r^{3/2}) psi_r
    # + 2r psi_yy = 0 trivially
    "lambda_kundu": (((0.6, 1.4), (-0.4, 0.4)), {"c": 1.0, "Lambda": 3.0}, {
        "b11": "-3/(4*Lambda*sqrt(t1)*(sqrt(t1)^3 + c))",
        "b22": "-3*(sqrt(t1)^3 + c)/(4*Lambda*sqrt(t1))",
        "f21": "-1/(sqrt(t1)*Lambda)",
        "h11": "-4/(3*Lambda*c*sqrt(t1))",
        "h12": "-t1",
    }),
    # coordinates (x, y, u, v); overall sign chosen so that the
    # residual R_ab - Lambda g_ab vanishes in the sphere-positive
    # Ricci convention; psi = x^3 solves the cylindrical equation
    # psi_xx - (2/x) psi_x + (3/Lambda) psi_yy = 0
    "lambda_kundu_c0": (((0.6, 1.4), (-0.4, 0.4)), {"Lambda": 3.0}, {
        "b11": "-3/(Lambda*t1^2)",
        "b22": "-1/t1^2",
        "f21": "-t1",
        "h11": "-(t1^6 + t1^3)/(2*t1^2)",  # psi = t1^3
        "h12": "-1/t1^2",
    }),
    "random_analytic": (((-0.9, 0.9), (-0.9, 0.9)), {"seed": 0}, None),
}
CATALOG_NAMES = tuple(_FAMILIES)
CATALOG_DOMAINS = {name: f[0] for name, f in _FAMILIES.items()}

_RANDOM_FORMS = (
    "{a:.6f}*sin({b:.6f}*t1 + {c:.6f}*t2 + {d:.6f})",
    "{a:.6f}*cos({b:.6f}*t1 + {c:.6f}*t2 + {d:.6f})",
    "{a:.6f}*tanh({b:.6f}*t1 + {c:.6f}*t2 + {d:.6f})",
    "{a:.6f}*sin({b:.6f}*t1 + {d:.6f})*cos({c:.6f}*t2)",
)


def _bounded_term(rng, amp):
    # |value| <= amp on the whole plane: every form is a product of
    # functions bounded by 1 scaled by a
    form = _RANDOM_FORMS[rng.integers(len(_RANDOM_FORMS))]
    return form.format(a=rng.uniform(0.3, 1.0) * amp,
                       b=rng.uniform(0.4, 1.6),
                       c=rng.uniform(0.4, 1.6),
                       d=rng.uniform(-3.0, 3.0))


def _random_analytic_document(seed):
    rng = np.random.default_rng(int(seed))
    sign_h = 1 if rng.integers(2) else -1
    sign_g = 1 if rng.integers(2) else -1

    def diag(sign):
        s = f"2 + {_bounded_term(rng, 0.7)}"
        return s if sign > 0 else f"-({s})"

    comps = {
        "gt11": f"2 + {_bounded_term(rng, 0.7)}",
        "gt12": _bounded_term(rng, 0.5),
        "gt22": diag(sign_g),
        "h11": f"2 + {_bounded_term(rng, 0.7)}",
        "h12": _bounded_term(rng, 0.5),
        "h22": diag(sign_h),
        "F11": _bounded_term(rng, 0.8),
        "F12": _bounded_term(rng, 0.8),
        "F21": _bounded_term(rng, 0.8),
        "F22": _bounded_term(rng, 0.8),
    }
    # sign_g only controls gt22; gt11 stays near +2, so det gt keeps the
    # sign of gt22 on the box (|off-diagonal| <= 0.5 < 1.3*1.3)
    return {"name": f"random_analytic_{seed}", "form": "submersion",
            "params": {}, "components": comps}


def catalog(name, params=None):
    """Instantiate a built-in metric; params override family defaults."""
    params = dict(params or {})
    if name not in _FAMILIES:
        raise MetricDefinitionError(f"unknown catalog metric {name!r}")
    _, defaults, comps = _FAMILIES[name]
    values = {}
    for key, default in defaults.items():
        values[key] = float(params.pop(key, default))
        if not math.isfinite(values[key]):
            raise MetricDefinitionError(
                f"param {key!r} must be a finite float")
    # the Kundu families divide by each of their params
    if name.startswith("lambda_kundu") and 0.0 in values.values():
        raise MetricDefinitionError(
            f"{name} needs " + ", ".join(f"{k} != 0" for k in values))
    seed = values.pop("seed", 0.0)
    if seed < 0 or seed != int(seed):
        raise MetricDefinitionError(
            f"param 'seed' must be a non-negative integer, got {seed!r}")
    if params:
        raise MetricDefinitionError(
            f"unknown parameters for {name!r}: {sorted(params)}")
    if comps is None:
        return load_metric(_random_analytic_document(int(seed)))
    return load_metric({"name": name, "form": "bfh", "params": values,
                        "components": dict.fromkeys(BFH_KEYS, "0") | comps})


def default_domain(m):
    """Sampling rectangle for a metric, falling back to the name table."""
    if m.domain is not None:
        return m.domain
    if m.name.startswith("random_analytic"):
        return CATALOG_DOMAINS["random_analytic"]
    return CATALOG_DOMAINS.get(m.name)


def grid_points(domain, n1, n2=None, margin=0.0):
    """Regular n1 x n2 grid inside a ((a,b),(c,d)) rectangle."""
    n2 = n2 or n1
    (a, b), (c, d) = domain
    m1 = (b - a) * margin
    m2 = (d - c) * margin
    t1s = np.linspace(a + m1, b - m1, n1)
    t2s = np.linspace(c + m2, d - m2, n2)
    return [(float(x), float(y)) for x in t1s for y in t2s]
