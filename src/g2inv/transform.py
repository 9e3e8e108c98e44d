"""Adapted-coordinate pseudogroup action at jet level.

A transform is t-bar = phi(t1,t2), z-bar = alpha z + psi(t1,t2) with
J_phi != 0 and alpha in GL(2,R).  In submersion variables the component
law is

    gt-bar = J^-T gt J^-1,
    F-bar_m^r = (J^-1)^i_m (alpha^r_k F_i^k - d psi^r / dt^i),
    h-bar = alpha^-T h alpha^-1,

and the curl W of F, a 2-form's component, goes to W-bar = alpha W /
det J_phi, psi having none (d d = 0).  apply_to_metric writes the law
out for an affine transform.  Jets are pushed forward pointwise, gt, h
and W (no F, no psi), then rebased from t to t-bar by the jets of
phi^-1: nothing is ever inverted globally.
"""

from __future__ import annotations

import dataclasses
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import einstein, expr, jets, metrics
from .errors import (DegenerateTransformError, MetricDefinitionError,
                     SingularEvaluationError)
from .invariants1 import FUNDAMENTAL_IDS


@dataclass(frozen=True)
class PseudoTransform:
    phi: tuple      # (Expr, Expr)
    psi: tuple
    alpha: tuple    # ((a, b), (c, d))
    strings: dict = None


def make_transform(phi1, phi2, psi1, psi2, alpha):
    strings = {"phi1": phi1, "phi2": phi2, "psi1": psi1, "psi2": psi2}
    asts, table = {}, expr.Table()
    for key, text in strings.items():
        if not isinstance(text, str):
            raise MetricDefinitionError(f"{key} must be a string")
        asts[key] = expr.parse(text, table)
        problems = expr.validate(asts[key], (), table)
        if problems:
            raise MetricDefinitionError(f"{key}: " + "; ".join(problems))
    alpha = _alpha(alpha)
    det = alpha[0][0] * alpha[1][1] - alpha[0][1] * alpha[1][0]
    with np.errstate(over="ignore"):  # LU can find a zero pivot, too
        if det == 0.0 or np.linalg.det(alpha) == 0.0:
            raise DegenerateTransformError("alpha must be invertible")
    return PseudoTransform(phi=(asts["phi1"], asts["phi2"]),
                           psi=(asts["psi1"], asts["psi2"]),
                           alpha=alpha,
                           strings={**strings,
                                    "alpha": [list(r) for r in alpha]})


def _alpha(rows):
    """alpha as two rows of two floats; it must be a 2x2 array of finite
    numbers."""
    def pair(xs):
        return isinstance(xs, (list, tuple)) and len(xs) == 2

    if pair(rows) and all(map(pair, rows)) and all(
            isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max for row in rows for x in row):
        return tuple(tuple(float(x) for x in row) for row in rows)
    raise MetricDefinitionError("alpha must be a 2x2 array of finite numbers")


def load_transform(document):
    """Transform from a JSON document/dict {phi1, phi2, psi1, psi2, alpha}."""
    document = metrics.read_document(document, "transform")
    keys = {"phi1", "phi2", "psi1", "psi2", "alpha"}
    if set(document) != keys:
        raise MetricDefinitionError(
            f"transform document needs exactly the keys {sorted(keys)}")
    return make_transform(document["phi1"], document["phi2"],
                          document["psi1"], document["psi2"],
                          document["alpha"])


def _inverse_map_jets(J, M, order):
    """Jets (in t-bar) of phi^-1 from the jets J[m][i] = d phi^m / dt^i
    and the value M[i][a] = dt^i / dtbar^a of their inverse."""
    d = jets.t_derivative
    coeffs = [np.zeros_like(M[0])] * len(jets._IDX[order])
    # d iota^i / d tbar^a = M^i_a; second derivatives from
    # d2 iota^i = -M^i_c K^c_jk M^j_a M^k_b
    coeffs[1:3] = M[:, 0], M[:, 1]
    if order >= 2:
        K = np.array([[[d(J[c][j], k).value for k in range(2)]
                       for j in range(2)] for c in range(2)])
        D2 = -np.einsum("ic...,cjk...,ja...,kb...->iab...", M, K, M, M)
        coeffs[3:6] = D2[:, 0, 0], D2[:, 0, 1], D2[:, 1, 1]
    iota = jets._jet(order, tuple(coeffs))
    return [jets.part(iota, i) for i in range(2)]


def _map_jets(p, t, order):
    """Jets of (phi1, phi2) at t; at a batch point every coefficient is a
    vector, as in point_jets, so each product runs the kernel a float
    point runs."""
    return [jets._spread(expr.eval_jet(f, {}, t, order), t) for f in p.phi]


def pushforward_jets(pj, p):
    """PointJets of the transformed metric at the image point phi(t), for
    one point or a batch, with F None: order-k gt, h and curl from
    order-(k+1) jets of phi, rebased by the inverse-map jets of phi."""
    return _pushforward(pj, p, _map_jets(p, pj.point, pj.order + 1))


def _pushforward(pj, p, phi_jets):
    """The component law by 2x2 block jets, each entry the per-entry jet
    loop's, then one base change of the upper triangles of gt-bar and
    h-bar stacked, and one of the curl's, an order lower."""
    k, part, d = pj.order, jets.part, jets.t_derivative
    J = [[d(phi, i) for i in range(2)]
         for phi in phi_jets]        # J[m][i] = d phi^m / dt^i, order k
    det_J = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    if jets._any(det_J.value == 0.0):
        raise DegenerateTransformError(f"J_phi = 0 at {pj.point}")
    # index axes before a batch's point axis: gt_ij and h_kk,ll at
    # [i, j, 0] and ai^kk_r ai^ll_s at [kk, ll, (r, s)]
    gt, h = (part(jets.block([c[:2], c[1:]]), np.s_[:, :, None])
             for c in (pj.gt, pj.h))
    m, n = einstein.UPPER
    (a11, a12), (a21, a22) = p.alpha  # floats: an overflow is silent
    with jets.block_errstate(pj.batch):
        ai = np.array([[a22, -a12], [-a21, a11]]) / (a11 * a22 - a12 * a21)
        w = (ai[:, None, m] * ai[None, :, n]).reshape(
            2, 2, 3, *[1] * pj.batch)
        Jinv = jets.block([[J[1][1], -J[0][1]], [-J[1][0], J[0][0]]]) \
            / det_J                  # Jinv[i, m] = dt^i / dtbar^m
        # the law's sums, from 0.0, over (i, j) and (kk, ll) in turn
        gt_bar = jets.fold(0.0, part(Jinv, np.s_[:, None, m])
                           * part(Jinv, np.s_[None, :, n]) * gt, 2)
        h_bar = jets.fold(0.0, jets._scale(w, h.coeffs, k), 2)
        W, det = pj.curl, jets.truncate(det_J, k - 1)
        W_bar = [(a[0] * W[0] + a[1] * W[1]) / det for a in p.alpha]
    iotas = _inverse_map_jets(J, Jinv.value, k)
    with jets.block_errstate(pj.batch):
        out = jets.compose_map(jets._jet(k, tuple(map(np.concatenate, zip(
            gt_bar.coeffs, h_bar.coeffs)))), *iotas)
        curl = jets.compose_map(jets.block(W_bar), *(
            jets.truncate(i, k - 1) for i in iotas))
    image = metrics.assemble((phi_jets[0].value, phi_jets[1].value), k,
                             [part(out, q) for q in range(6)],
                             curl=(part(curl, 0), part(curl, 1)))
    # det gt-bar = det gt / det J_phi^2, which rounds to 0 where J_phi is
    # all but singular
    if jets._any(image.det_gt.value == 0.0):
        raise DegenerateTransformError(f"J_phi = 0 at {pj.point}")
    return image


def apply_to_metric(m, p, name=None):
    """Transformed metric as a new G2Metric (affine transforms only).

    phi must be affine and psi have constant gradient so that the
    transformed components are again closed-form expressions: the
    source's texts (and a bfh source's submersion laws) are parsed again
    with t1, t2 bound to the inverse map, and each image component is
    parsed from its linear combination of the source's submersion
    components, bound by name.
    """
    probe_points = [(0.1, 0.2), (-0.3, 0.7)]
    probes = []  # at each point, the jets of (phi1, phi2) and (psi1, psi2)
    for pt in probe_points:
        probes.append([[expr.eval_jet(f, {}, pt, 2) for f in fs]
                       for fs in (p.phi, p.psi)])
        if any(abs(j.d(a, b)) > 1e-13 for js in probes[-1] for j in js
               for (a, b) in ((2, 0), (1, 1), (0, 2))):
            raise MetricDefinitionError(
                "apply_to_metric needs affine phi and linear psi")
    jphi, jpsi = probes[0]
    J = np.array([[jphi[i].d(1, 0), jphi[i].d(0, 1)] for i in range(2)])
    b = np.array([jphi[i].value for i in range(2)]) - J @ np.array(
        probe_points[0])
    Jpsi = np.array([[jpsi[i].d(1, 0), jpsi[i].d(0, 1)] for i in range(2)])
    if abs(np.linalg.det(J)) < 1e-14:
        raise DegenerateTransformError("J_phi = 0")
    Minv = np.linalg.inv(J)
    # the inverse map t^i = Minv (tbar - b) substituted into the source
    table = expr.Table()
    comp = _reread(m, table, {f"t{i + 1}": expr.parse(" + ".join(
        f"{_num(Minv[i][j])}*(t{j + 1} - {_num(b[j])})" for j in range(2)),
        table) for i in range(2)})
    a = np.array(p.alpha)
    ai = np.linalg.inv(a)

    def lin(terms, shift=0.0):
        """shift + c1*name1 + c2*name2 + ..., zero terms left out."""
        texts = [_num(shift)] if shift else []
        texts += [f"{_num(c)}*{name}" for c, name in terms if c != 0.0]
        return " + ".join(texts) or "0.0"

    # the laws of the module docstring; entry (i, j) of gt or h is named
    # by sym, of F by its indices
    pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
    sym = {(0, 0): "11", (0, 1): "12", (1, 0): "12", (1, 1): "22"}
    out = {}
    for (i, j), key in zip(((0, 0), (0, 1), (1, 1)), ("11", "12", "22")):
        out["gt" + key] = lin((Minv[k][i] * Minv[l][j], "gt" + sym[k, l])
                              for k, l in pairs)
        out["h" + key] = lin((ai[k][i] * ai[l][j], "h" + sym[k, l])
                             for k, l in pairs)
    for mm, r in pairs:
        out[f"F{mm + 1}{r + 1}"] = lin(
            ((Minv[i][mm] * a[r][k], f"F{i + 1}{k + 1}") for i, k in pairs),
            0.0 - Minv[0][mm] * Jpsi[r][0] - Minv[1][mm] * Jpsi[r][1])
    loaded = _submersion_metric(name or f"{m.name}_transformed", m.params, {
        k: expr.parse(out[k], table, comp) for k in metrics.SUBMERSION_KEYS})
    domain = metrics.default_domain(m)
    if domain is not None:
        # image bounding box of a slightly shrunken source rectangle;
        # sampling skips any grid point that lands outside the valid set
        (a0, a1), (c0, c1) = domain
        da, dc = 0.1 * (a1 - a0), 0.1 * (c1 - c0)
        corners = [(x, y) for x in (a0 + da, a1 - da)
                   for y in (c0 + dc, c1 - dc)]
        images = np.array([J @ np.array(pt) + b for pt in corners])
        loaded = dataclasses.replace(
            loaded,
            domain=((float(images[:, 0].min()), float(images[:, 0].max())),
                    (float(images[:, 1].min()), float(images[:, 1].max()))))
    return loaded


def _num(x):
    return repr(float(x))


def _reread(m, table, named):
    """The submersion components of m, parsed again from its texts (and a
    bfh source's metrics.SUBMERSION_LAWS) into table, with each name in
    named bound to its node."""
    named = dict(named)
    for key, text in m.defs.items():
        named[key] = expr.parse(text, table, named)
    comp = {k: expr.parse(m.components[k], table, named)
            for k in m.components}
    if m.form == "bfh":
        comp = metrics.parse_laws(table, comp)
    return {k: comp[k] for k in metrics.SUBMERSION_KEYS}


def _submersion_metric(name, params, asts):
    """The submersion-form metric of the component ASTs, loaded from the
    document that names their shared subtrees (which validates them)."""
    defs, texts = expr.to_strings(list(asts.values()), params)
    return metrics.load_metric({"name": name, "form": "submersion",
                                "params": dict(params), "defs": defs,
                                "components": dict(zip(asts, texts))})


def random_transform(seed):
    """A random pseudogroup element, mildly nonlinear (a sine term of
    amplitude at most 0.05) with J_phi != 0 on moderate boxes."""
    rng = np.random.default_rng(seed)
    while True:
        A = rng.uniform(-1.5, 1.5, (2, 2))
        if abs(np.linalg.det(A)) >= 0.5:
            break
    while True:
        alpha = rng.integers(-2, 3, (2, 2)).astype(float)
        if abs(np.linalg.det(alpha)) >= 1.0:
            break

    def phi(row):
        return (f"{A[row][0]:.6f}*t1 + {A[row][1]:.6f}*t2"
                f" + {rng.uniform(-1, 1):.6f}"
                f" + {rng.uniform(-1, 1) * 0.05:.6f}"
                f"*sin({rng.uniform(0.5, 1.5):.6f}*t1"
                f" + {rng.uniform(0.5, 1.5):.6f}*t2)")

    def psi():
        return (f"{rng.uniform(-1, 1):.6f}"
                f"*cos({rng.uniform(0.5, 1.5):.6f}*t1"
                f" + {rng.uniform(0.5, 1.5):.6f}*t2)")

    return make_transform(phi(0), phi(1), psi(), psi(),
                          [list(alpha[0]), list(alpha[1])])


def invariance_report(m, p, points, tol=1e-7):
    """Invariance of the six fundamentals plus the frame sign laws: the
    report transform --report-invariance prints.

    Both read values alone, so each point takes order-1 component jets
    and order-2 jets of phi.  The points are evaluated as batches
    by metrics.each_point_or_raise, which raises the error of the first
    failing point.  A batch is reduced as (B, ...) stacks of its columns,
    elementwise and by one matrix product per column, so each column's
    signs and residuals have the bits of its own point.
    """
    (a11, a12), (a21, a22) = p.alpha  # floats: an overflow is silent
    eps2 = 1 if a11 * a22 - a12 * a21 > 0 else -1
    a = np.array(p.alpha)

    def evaluate(point):
        pj = metrics.point_jets(m, point, order=1)
        phi_jets = _map_jets(p, pj.point, 2)
        pj_bar = _pushforward(pj, p, phi_jets)
        # the first derivatives of phi: J_phi's sign and the pushforward
        # of a frame vector (v_t, v_z) -> (J v_t, a v_z) in the adapted
        # basis (X1, X2, d_z1, d_z2), where psi drops out
        J = einstein._stack(np.array(
            [[j.d(1, 0), j.d(0, 1)] for j in phi_jets]), 2)
        eps1 = np.where(J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
                        > 0, 1, -1)
        # inv[k, 0] and inv[k, 1]: column k's fundamentals and its image's
        inv = np.stack([einstein._stack(np.array(
            [q.fundamentals[k].value for k in FUNDAMENTAL_IDS]), 1)
            for q in (pj, pj_bar)], 1)
        if not np.isfinite(inv).all():  # an overflow: name the first
            k, q, i = np.unravel_index(np.argmin(np.isfinite(inv)), inv.shape)
            raise SingularEvaluationError(
                ("fundamentals", "pushforward fundamentals")[q],
                float(inv[k, q, i]), f"{FUNDAMENTAL_IDS[i]} at "
                f"{tuple(float(np.atleast_1d(t)[k]) for t in pj.point)}")
        inv_residual = np.max(np.abs(inv[:, 0] - inv[:, 1]) / np.maximum(
            np.abs(inv[:, 0]), np.maximum(np.abs(inv[:, 1]), 1.0)), 1)
        generic = np.atleast_1d(pj.stratum.generic)
        frame_residual = [None] * len(generic)
        if generic.any():
            # [column, row, 4-vector, 1] frames: the rows H, Hperp, C and
            # Cperp push to the image's times 1, eps1, eps1 and eps1*eps2
            v, v_bar = (einstein._stack(q.frame, 2)[..., None]
                        for q in (pj, pj_bar))
            pushed = np.concatenate(
                (J[:, None] @ v[:, :, :2], a @ v[:, :, 2:]), 2)
            sign = np.stack([np.ones_like(eps1), eps1, eps1, eps1 * eps2], 1)
            target = sign[..., None, None] * v_bar

            def norm(x):  # np.linalg.norm's sqrt(x . x), per column and row
                return np.sqrt(x.swapaxes(2, 3) @ x)[..., 0, 0]
            ratio = norm(pushed - target) / np.maximum(norm(target), 1e-300)
            # the worst row, from 0.0 and skipping a NaN, as Python's max
            got = np.fmax.reduce(ratio, 1, initial=0.0).tolist()
            frame_residual = [r if g else None for r, g in zip(got, generic)]
        return [{"eps1": e, "eps2": eps2, "invariant_residual": r,
                 "frame_residual": f} for e, r, f in zip(
            eps1.tolist(), inv_residual.tolist(), frame_residual)]

    rows = [{"point": list(pt), **row} for pt, row in zip(
        points, metrics.each_point_or_raise(evaluate, points))]
    frames = [r["frame_residual"] for r in rows
              if r["frame_residual"] is not None]
    worst = max(r["invariant_residual"] for r in rows)
    return {"max_invariant_residual": worst,
            "sign_laws_pass": not any(r > tol for r in frames),
            "pass": worst < tol and all(r < tol for r in frames),
            "points": rows}
