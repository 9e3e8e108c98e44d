"""Adapted-coordinate pseudogroup action at jet level.

A transform is t-bar = phi(t1,t2), z-bar = alpha z + psi(t1,t2) with
J_phi != 0 and alpha in GL(2,R).  Metrics are pushed forward pointwise:
jets of the transformed components at phi(t) are produced from jets of
the source components at t plus jets of (phi, psi); nothing is ever
inverted globally.  In submersion variables the component law is

    gt-bar = J^-T gt J^-1,
    F-bar_m^r = (J^-1)^i_m (alpha^r_k F_i^k - d psi^r / dt^i),
    h-bar = alpha^-T h alpha^-1,

followed by a base change of the jets from t to t-bar via the 2-jet of
phi^-1.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import expr, jets, metrics
from .errors import DegenerateTransformError, MetricDefinitionError
from .invariants1 import FUNDAMENTAL_IDS


@dataclass(frozen=True)
class PseudoTransform:
    phi: tuple      # (Expr, Expr)
    psi: tuple
    alpha: tuple    # ((a, b), (c, d))
    strings: dict = None


def make_transform(phi1, phi2, psi1, psi2, alpha):
    strings = {"phi1": phi1, "phi2": phi2, "psi1": psi1, "psi2": psi2}
    asts, table = {}, {}
    for key, text in strings.items():
        if not isinstance(text, str):
            raise MetricDefinitionError(f"{key} must be a string")
        ast = expr.parse(text, table)
        problems = expr.validate(ast, set())
        if problems:
            raise MetricDefinitionError(f"{key}: " + "; ".join(problems))
        asts[key] = ast
    alpha = _alpha(alpha)
    det = alpha[0][0] * alpha[1][1] - alpha[0][1] * alpha[1][0]
    if det == 0.0:
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
    if isinstance(document, (str, bytes)):
        with open(document, "r", encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as err:
                raise MetricDefinitionError(f"malformed JSON: {err}") from None
    if not isinstance(document, dict):
        raise MetricDefinitionError("transform document must be a JSON object")
    keys = {"phi1", "phi2", "psi1", "psi2", "alpha"}
    if set(document) != keys:
        raise MetricDefinitionError(
            f"transform document needs exactly the keys {sorted(keys)}")
    return make_transform(document["phi1"], document["phi2"],
                          document["psi1"], document["psi2"],
                          document["alpha"])


def _inverse_map_jets(phi_jets, order):
    """Jets (in t-bar) of phi^-1 from order-(order+1) jets of phi (in t)."""
    J = np.array([[jets.t_derivative(phi_jets[m], i).value
                   for i in range(2)] for m in range(2)])
    det = float(np.linalg.det(J))
    if det == 0.0:
        raise DegenerateTransformError("J_phi = 0")
    M = np.linalg.inv(J)
    iotas = [[0.0] * len(jets._IDX[order]) for _ in range(2)]
    # d iota^i / d tbar^a = M^i_a; second derivatives from
    # d2 iota^i = -M^i_c K^c_jk M^j_a M^k_b
    if order >= 1:
        for i in range(2):
            iotas[i][1] = M[i][0]
            iotas[i][2] = M[i][1]
    if order >= 2:
        K = np.zeros((2, 2, 2))
        for c in range(2):
            d1 = jets.t_derivative(phi_jets[c], 0)
            d2 = jets.t_derivative(phi_jets[c], 1)
            K[c][0][0] = jets.t_derivative(d1, 0).value
            K[c][0][1] = K[c][1][0] = jets.t_derivative(d1, 1).value
            K[c][1][1] = jets.t_derivative(d2, 1).value
        D2 = -np.einsum("ic,cjk,ja,kb->iab", M, K, M, M)
        for i in range(2):
            iotas[i][3] = D2[i][0][0]
            iotas[i][4] = D2[i][0][1]
            iotas[i][5] = D2[i][1][1]
    return [jets.Jet2(order, c) for c in iotas]


def _map_jets(p, t, order):
    """Jets of (phi1, phi2) and of (psi1, psi2) at t."""
    return ([expr.eval_jet(f, {}, t, order) for f in p.phi],
            [expr.eval_jet(f, {}, t, order) for f in p.psi])


def pushforward_jets(pj, p):
    """PointJets of the transformed metric at the image point phi(t).

    Order-k output needs order-(k+1) jets of phi and psi; the base
    change to t-bar derivatives uses the inverse-map jets of phi.
    """
    return _pushforward(pj, p, *_map_jets(p, pj.point, pj.order + 1))


def _pushforward(pj, p, phi_jets, psi_jets):
    k = pj.order
    t = pj.point
    tbar = (phi_jets[0].value, phi_jets[1].value)

    J = [[jets.t_derivative(phi_jets[m], i) for i in range(2)]
         for m in range(2)]          # J[m][i] = d phi^m / dt^i, order k
    Jpsi = [[jets.t_derivative(psi_jets[r], i) for i in range(2)]
            for r in range(2)]
    det_J = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    if det_J.value == 0.0:
        raise DegenerateTransformError(f"J_phi = 0 at {t}")
    Jinv = [[J[1][1] / det_J, -J[0][1] / det_J],
            [-J[1][0] / det_J, J[0][0] / det_J]]  # Jinv[i][m] = dt^i/dtbar^m

    a = np.array(p.alpha)
    ai = np.linalg.inv(a)

    gt = ((pj.gt[0], pj.gt[1]), (pj.gt[1], pj.gt[2]))
    gt_bar = [[None] * 2 for _ in range(2)]
    for m in range(2):
        for n in range(m, 2):
            acc = jets.constant(0.0, k)
            for i in range(2):
                for j in range(2):
                    acc = acc + Jinv[i][m] * Jinv[j][n] * gt[i][j]
            gt_bar[m][n] = gt_bar[n][m] = acc

    def F(i, kk):
        return pj.F[2 * i + kk]

    F_bar = [[None] * 2 for _ in range(2)]  # F_bar[m][r] = fbar_m^r
    for m in range(2):
        for r in range(2):
            acc = jets.constant(0.0, k)
            for i in range(2):
                inner = -Jpsi[r][i]
                for kk in range(2):
                    inner = inner + a[r][kk] * F(i, kk)
                acc = acc + Jinv[i][m] * inner
            F_bar[m][r] = acc

    h = ((pj.h[0], pj.h[1]), (pj.h[1], pj.h[2]))
    h_bar = [[None] * 2 for _ in range(2)]
    for r in range(2):
        for s in range(r, 2):
            acc = jets.constant(0.0, k)
            for kk in range(2):
                for ll in range(2):
                    acc = acc + ai[kk][r] * ai[ll][s] * h[kk][ll]
            h_bar[r][s] = h_bar[s][r] = acc

    iotas = _inverse_map_jets(phi_jets, k)

    def rebase(u):
        return jets.compose_map(u, iotas[0], iotas[1])

    gt_out = (rebase(gt_bar[0][0]), rebase(gt_bar[0][1]),
              rebase(gt_bar[1][1]))
    F_out = (rebase(F_bar[0][0]), rebase(F_bar[0][1]),
             rebase(F_bar[1][0]), rebase(F_bar[1][1]))
    h_out = (rebase(h_bar[0][0]), rebase(h_bar[0][1]),
             rebase(h_bar[1][1]))
    det_h = h_out[0] * h_out[2] - h_out[1] * h_out[1]
    det_gt = gt_out[0] * gt_out[2] - gt_out[1] * gt_out[1]
    return metrics.PointJets(point=tbar, order=k, gt=gt_out, F=F_out,
                             h=h_out, det_h=det_h, det_gt=det_gt)


def apply_to_metric(m, p, name=None):
    """Transformed metric as a new G2Metric (affine transforms only).

    phi must be affine and psi have constant gradient so that the
    transformed components are again closed-form expressions; the
    result is built by substituting the inverse map into the ASTs.
    """
    probe_points = [(0.1, 0.2), (-0.3, 0.7)]
    jphi = [expr.eval_jet(p.phi[i], {}, probe_points[0], 2)
            for i in range(2)]
    jpsi = [expr.eval_jet(p.psi[i], {}, probe_points[0], 2)
            for i in range(2)]
    for pt in probe_points:
        for i in range(2):
            j2 = expr.eval_jet(p.phi[i], {}, pt, 2)
            j2p = expr.eval_jet(p.psi[i], {}, pt, 2)
            if any(abs(j2.d(a, b)) > 1e-13 or abs(j2p.d(a, b)) > 1e-13
                   for (a, b) in ((2, 0), (1, 1), (0, 2))):
                raise MetricDefinitionError(
                    "apply_to_metric needs affine phi and linear psi")
    J = np.array([[jphi[i].d(1, 0), jphi[i].d(0, 1)] for i in range(2)])
    b = np.array([jphi[i].value for i in range(2)]) - J @ np.array(
        probe_points[0])
    Jpsi = np.array([[jpsi[i].d(1, 0), jpsi[i].d(0, 1)] for i in range(2)])
    if abs(np.linalg.det(J)) < 1e-14:
        raise DegenerateTransformError("J_phi = 0")
    Minv = np.linalg.inv(J)

    # inverse map t^i = Minv (tbar - b) as ASTs
    def num(x):
        return expr.Num(float(x))

    tbar = (expr.Var(0), expr.Var(1))
    inv_map = []
    for i in range(2):
        terms = expr.BinOp("+", expr.BinOp(
            "*", num(Minv[i][0]), expr.BinOp("-", tbar[0], num(b[0]))),
            expr.BinOp("*", num(Minv[i][1]),
                       expr.BinOp("-", tbar[1], num(b[1]))))
        inv_map.append(terms)

    if m.form == "bfh":
        m = to_submersion_document(m)
    memo = {}
    comp = {k: expr.substitute(m.asts[k], inv_map, memo)
            for k in m.components}
    a = np.array(p.alpha)
    ai = np.linalg.inv(a)

    def lin(coeffs, nodes, shift=0.0):
        acc = num(shift) if shift else None
        for cc, node in zip(coeffs, nodes):
            if cc == 0.0:
                continue
            term = expr.BinOp("*", num(cc), node)
            acc = term if acc is None else expr.BinOp("+", acc, term)
        return acc if acc is not None else num(0.0)

    gt = [[comp["gt11"], comp["gt12"]], [comp["gt12"], comp["gt22"]]]
    F = [[comp["F11"], comp["F12"]], [comp["F21"], comp["F22"]]]
    h = [[comp["h11"], comp["h12"]], [comp["h12"], comp["h22"]]]
    out = {}
    for (mm, nn), key in (((0, 0), "gt11"), ((0, 1), "gt12"),
                          ((1, 1), "gt22")):
        nodes, coeffs = [], []
        for i in range(2):
            for j in range(2):
                nodes.append(gt[i][j])
                coeffs.append(Minv[i][mm] * Minv[j][nn])
        out[key] = lin(coeffs, nodes)
    for mm in range(2):
        for r in range(2):
            nodes, coeffs = [], []
            shift = 0.0
            for i in range(2):
                for k in range(2):
                    nodes.append(F[i][k])
                    coeffs.append(Minv[i][mm] * a[r][k])
                shift -= Minv[i][mm] * Jpsi[r][i]
            out[f"F{mm + 1}{r + 1}"] = lin(coeffs, nodes, shift)
    for (r, s), key in (((0, 0), "h11"), ((0, 1), "h12"), ((1, 1), "h22")):
        nodes, coeffs = [], []
        for k in range(2):
            for l in range(2):
                nodes.append(h[k][l])
                coeffs.append(ai[k][r] * ai[l][s])
        out[key] = lin(coeffs, nodes)
    doc = {"name": name or f"{m.name}_transformed",
           "form": "submersion",
           "params": dict(m.params),
           "components": {k: expr.to_string(v) for k, v in out.items()}}
    loaded = metrics.load_metric(doc)
    domain = metrics.default_domain(m)
    if domain is not None:
        # image bounding box of a slightly shrunken source rectangle;
        # sampling skips any grid point that lands outside the valid set
        (a0, a1), (c0, c1) = domain
        da, dc = 0.1 * (a1 - a0), 0.1 * (c1 - c0)
        corners = [(x, y) for x in (a0 + da, a1 - da)
                   for y in (c0 + dc, c1 - dc)]
        images = np.array([J @ np.array(pt) + b for pt in corners])
        loaded = metrics.G2Metric(
            name=loaded.name, form=loaded.form, params=loaded.params,
            components=loaded.components, asts=loaded.asts,
            domain=((float(images[:, 0].min()), float(images[:, 0].max())),
                    (float(images[:, 1].min()), float(images[:, 1].max()))))
    return loaded


def to_submersion_document(m):
    """Rewrite a bfh metric document in submersion form (AST level)."""
    if m.form == "submersion":
        return m
    comp = {k: m.asts[k] for k in m.components}

    def bin_(op, x, y):
        return expr.BinOp(op, x, y)

    b = [[comp["b11"], comp["b12"]], [comp["b12"], comp["b22"]]]
    f = [[comp["f11"], comp["f12"]], [comp["f21"], comp["f22"]]]
    h = [[comp["h11"], comp["h12"]], [comp["h12"], comp["h22"]]]
    det = bin_("-", bin_("*", h[0][0], h[1][1]), bin_("*", h[0][1], h[0][1]))
    hi = [[bin_("/", h[1][1], det), expr.Neg(bin_("/", h[0][1], det))],
          [expr.Neg(bin_("/", h[0][1], det)), bin_("/", h[0][0], det)]]
    F = [[None] * 2 for _ in range(2)]
    for i in range(2):
        for k in range(2):
            F[i][k] = bin_("+", bin_("*", f[i][0], hi[0][k]),
                           bin_("*", f[i][1], hi[1][k]))
    out = {}
    for (i, j), key in (((0, 0), "gt11"), ((0, 1), "gt12"),
                        ((1, 1), "gt22")):
        quad = bin_("+", bin_("*", f[i][0], F[j][0]),
                    bin_("*", f[i][1], F[j][1]))
        out[key] = bin_("-", b[i][j], quad)
    for i in range(2):
        for k in range(2):
            out[f"F{i + 1}{k + 1}"] = F[i][k]
    for (k, l), key in (((0, 0), "h11"), ((0, 1), "h12"), ((1, 1), "h22")):
        out[key] = h[k][l]
    doc = {"name": m.name, "form": "submersion", "params": dict(m.params),
           "components": {k: expr.to_string(v) for k, v in out.items()}}
    return metrics.load_metric(doc)


def random_transform(seed, nonlinear=0.05):
    """A random pseudogroup element, mildly nonlinear with J_phi != 0
    on moderate boxes."""
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
                f" + {rng.uniform(-1, 1) * nonlinear:.6f}"
                f"*sin({rng.uniform(0.5, 1.5):.6f}*t1"
                f" + {rng.uniform(0.5, 1.5):.6f}*t2)")

    def psi():
        return (f"{rng.uniform(-1, 1):.6f}"
                f"*cos({rng.uniform(0.5, 1.5):.6f}*t1"
                f" + {rng.uniform(0.5, 1.5):.6f}*t2)")

    return make_transform(phi(0), phi(1), psi(), psi(),
                          [list(alpha[0]), list(alpha[1])])


def invariance_report(m, p, points, tol=1e-7):
    """Invariance of the six fundamentals plus the frame sign laws."""
    rows = []
    sign_laws_ok = True
    a = np.array(p.alpha)
    eps2 = 1 if a[0][0] * a[1][1] - a[0][1] * a[1][0] > 0 else -1
    for pt in points:
        pj = metrics.point_jets(m, pt, order=2)
        phi_jets, psi_jets = _map_jets(p, pt, 3)
        pj_bar = _pushforward(pj, p, phi_jets, psi_jets)
        # the first derivatives of phi and psi at pt: J_phi's sign and
        # the pushforward of a 4-vector (v_t, v_z) -> (J v_t, Jpsi v_t + a v_z)
        J = np.array([[j.d(1, 0), j.d(0, 1)] for j in phi_jets])
        Jpsi = np.array([[j.d(1, 0), j.d(0, 1)] for j in psi_jets])
        eps1 = 1 if J[0][0] * J[1][1] - J[0][1] * J[1][0] > 0 else -1
        inv = np.array([pj.fields[k].value for k in FUNDAMENTAL_IDS])
        inv_bar = np.array([pj_bar.fields[k].value for k in FUNDAMENTAL_IDS])
        denom = np.maximum(np.abs(inv), np.maximum(np.abs(inv_bar), 1.0))
        inv_residual = float(np.max(np.abs(inv - inv_bar) / denom))

        frame_residual = None
        if pj.stratum.generic:
            fr = pj.frame
            fr_bar = pj_bar.frame
            sgn = (1.0, eps1, eps1, eps1 * eps2)
            frame_residual = 0.0
            for s, v, vbar in zip(
                    sgn,
                    (fr.H4, fr.Hperp4, fr.C4, fr.Cperp4),
                    (fr_bar.H4, fr_bar.Hperp4, fr_bar.C4, fr_bar.Cperp4)):
                pushed = np.concatenate([J @ v[:2], Jpsi @ v[:2] + a @ v[2:]])
                target = s * np.array(vbar)
                norm = max(float(np.linalg.norm(target)), 1e-300)
                frame_residual = max(
                    frame_residual,
                    float(np.linalg.norm(pushed - target)) / norm)
            if frame_residual > tol:
                sign_laws_ok = False
        rows.append({
            "point": pt,
            "eps1": eps1,
            "eps2": eps2,
            "invariant_residual": inv_residual,
            "frame_residual": frame_residual,
            "pass": inv_residual < tol and (frame_residual is None
                                            or frame_residual < tol),
        })
    return {"points": rows, "tol": tol,
            "max_invariant_residual": max(r["invariant_residual"]
                                          for r in rows),
            "sign_laws_pass": sign_laws_ok,
            "pass": all(r["pass"] for r in rows)}
