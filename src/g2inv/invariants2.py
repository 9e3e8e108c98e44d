"""Invariant differentiations X, Xperp and the second-order invariants.

First-order invariants computed from order-2 component jets come out as
order-1 jets, i.e. carrying their own exact first derivatives on the
orbit space.  Applying the invariant vector fields X, Xperp to them is
then a pointwise contraction; no symbolic differentiation and no
higher-order metric jets are involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import einstein, jets, metrics
from .errors import DependentPairError
# perfbench/bench_selftest.py checks that its tracer rewraps this binding
from .invariants1 import FUNDAMENTAL_IDS, first_invariant_jets  # noqa: F401

FIELD_IDS = FUNDAMENTAL_IDS + ("C_gamma", "Theta_I", "Theta_II",
                               "Theta_III", "q_gamma_root")


@dataclass
class Invariants2:
    XI: dict
    XperpI: dict
    C_ric: float
    Q_ric: float
    C_nu: float
    C_nu_prime: float
    Q_nu: float
    K_Xi: float
    K_Xiperp: float
    J1: float = None
    J2: float = None
    notices: tuple = ()


def _christoffel2(pj, n):
    """Christoffels of the orbit metric as order-n jets."""
    tr = lambda j: jets.truncate(j, n)
    g = [[tr(pj.gt[0]), tr(pj.gt[1])], [tr(pj.gt[1]), tr(pj.gt[2])]]
    det = tr(pj.det_gt)
    gi = [[g[1][1] / det, -g[0][1] / det],
          [-g[0][1] / det, g[0][0] / det]]
    dg = [[[jets.t_derivative(jets.truncate(pj.gt[_sym(a, b)], n + 1), s)
            for b in range(2)] for a in range(2)] for s in range(2)]
    gamma = [[[None] * 2 for _ in range(2)] for _ in range(2)]
    for a in range(2):
        for b in range(2):
            for c in range(b, 2):
                acc = jets.constant(0.0, n)
                for d in range(2):
                    acc = acc + gi[a][d] * (dg[b][d][c] + dg[c][d][b]
                                            - dg[d][b][c])
                gamma[a][b][c] = gamma[a][c][b] = 0.5 * acc
    return gamma


def _sym(a, b):
    return a + b  # (0,0)->0, (0,1)/(1,0)->1, (1,1)->2


def _orbit_curvature(pj):
    """(C_ric, Q_ric) of the 2D orbit metric from order-2 jets."""
    gamma = _christoffel2(pj, pj.order - 1)
    Gv = np.array([[[gamma[a][b][c].value for c in range(2)]
                    for b in range(2)] for a in range(2)])
    dG = np.array([[[[jets.t_derivative(gamma[a][b][c], s).value
                      for c in range(2)] for b in range(2)]
                    for a in range(2)] for s in range(2)])
    R = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    R[a][b][c][d] = (dG[c][a][d][b] - dG[d][a][c][b]
                                     + Gv[a, c, :] @ Gv[:, d, b]
                                     - Gv[a, d, :] @ Gv[:, c, b])
    ric = np.einsum("abad->bd", R)
    gt = np.array([[pj.gt[0].value, pj.gt[1].value],
                   [pj.gt[1].value, pj.gt[2].value]])
    gi = np.linalg.inv(gt)
    c_ric = float(np.tensordot(gi, ric))
    q_ric = float(np.linalg.det(ric) / np.linalg.det(gt))
    return c_ric, q_ric, gamma


def _hessian_log_det_h(pj, gamma2):
    """nu_ij = Hess(ln|det h|) w.r.t. the orbit Levi-Civita connection."""
    det_h = pj.det_h if pj.det_h.value > 0 else -pj.det_h
    L = jets.elementary("ln", det_h)
    dL = [jets.t_derivative(L, s) for s in range(2)]
    nu = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            second = jets.t_derivative(dL[i], j).value if L.order >= 2 \
                else 0.0
            nu[i][j] = second - sum(
                gamma2[k][i][j].value * dL[k].value for k in range(2))
    return nu


def second_invariants_from_jets(pj):
    """All second-order invariants from order-2 component jets."""
    if pj.order < 2:
        raise ValueError("second-order invariants need order-2 jets")
    jv = pj.fields
    X = (jv["X1"].value, jv["X2"].value)
    Xp = (jv["Xp1"].value, jv["Xp2"].value)
    XI = {k: jets.along(X, jv[k]) for k in FUNDAMENTAL_IDS}
    XpI = {k: jets.along(Xp, jv[k]) for k in FUNDAMENTAL_IDS}

    c_ric, q_ric, gamma2 = _orbit_curvature(pj)
    nu = _hessian_log_det_h(pj, gamma2)
    gt = np.array([[pj.gt[0].value, pj.gt[1].value],
                   [pj.gt[1].value, pj.gt[2].value]])
    gi = np.linalg.inv(gt)
    C_nu = float(np.tensordot(gi, nu))
    Q_nu = float(np.linalg.det(nu) / np.linalg.det(gt))
    C_rho = jv["C_rho"].value
    C_chi = jv["C_chi"].value
    C_nu_prime = C_nu - 2.0 * C_chi + C_rho

    Fv = [j.value for j in pj.F]
    e1 = (1.0, 0.0, -Fv[0], -Fv[1])
    e2 = (0.0, 1.0, -Fv[2], -Fv[3])
    K_Xi = einstein.sectional_curvature(pj, (0, 0, 1, 0), (0, 0, 0, 1))
    K_Xiperp = einstein.sectional_curvature(pj, e1, e2)

    notices = []
    J1 = J2 = None
    tol = metrics.GENERIC_TOL * max(1.0, metrics.component_scale(pj))
    if abs(C_rho) >= tol:
        J1 = -XpI["C_rho"] / C_rho
        J2 = XI["C_rho"] / C_rho - C_nu
    else:
        notices.append("C_rho ~ 0: commutator coefficients J1, J2 undefined")

    return Invariants2(XI=XI, XperpI=XpI, C_ric=c_ric, Q_ric=q_ric,
                       C_nu=C_nu, C_nu_prime=C_nu_prime, Q_nu=Q_nu,
                       K_Xi=K_Xi, K_Xiperp=K_Xiperp, J1=J1, J2=J2,
                       notices=tuple(notices))


def order2_invariant_vector(pj):
    """The 20 functionally independent invariants of order <= 2."""
    jv = pj.fields
    sec = pj.second
    vals = [jv[k].value for k in FUNDAMENTAL_IDS]
    vals += [sec.XI[k] for k in FUNDAMENTAL_IDS]
    vals += [sec.XperpI[k] for k in FUNDAMENTAL_IDS]
    vals += [sec.C_ric, sec.C_nu]
    return np.array(vals)


def directional_partials(m, point, phi_id, i1_id, i2_id,
                         tol=1e-8, method="analytic"):
    """d(phi)/d(I1), d(phi)/d(I2) along the chosen invariant coordinates."""
    jv = metrics.point_jets(m, point, order=2, method=method).fields
    for key in (phi_id, i1_id, i2_id):
        if key not in FIELD_IDS:
            raise ValueError(f"unknown invariant id {key!r}")
    X = (jv["X1"].value, jv["X2"].value)
    Xp = (jv["Xp1"].value, jv["Xp2"].value)
    a11, a12 = jets.along(X, jv[i1_id]), jets.along(X, jv[i2_id])
    a21, a22 = jets.along(Xp, jv[i1_id]), jets.along(Xp, jv[i2_id])
    b1, b2 = jets.along(X, jv[phi_id]), jets.along(Xp, jv[phi_id])
    delta = a11 * a22 - a12 * a21
    scale = max(abs(a11 * a22), abs(a12 * a21), 1e-300)
    if abs(delta) < tol * scale:
        raise DependentPairError(
            f"pair ({i1_id}, {i2_id}) is dependent at {point}")
    return ((b1 * a22 - b2 * a12) / delta,
            (a11 * b2 - a21 * b1) / delta)


def bracket_residual(pj):
    """Commutator check: [X, Xperp] against J1 X + J2 Xperp."""
    jv = pj.fields
    sec = pj.second
    if sec.J1 is None:
        return None
    comp = {k: jv[k] for k in ("X1", "X2", "Xp1", "Xp2")}
    vals = {k: v.value for k, v in comp.items()}

    def d(key, s):
        return jets.t_derivative(comp[key], s).value

    bracket = []
    for i, key in enumerate(("1", "2")):
        lie = (vals["X1"] * d("Xp" + key, 0) + vals["X2"] * d("Xp" + key, 1)
               - vals["Xp1"] * d("X" + key, 0) - vals["Xp2"] * d("X" + key, 1))
        bracket.append(lie)
    norm = (np.hypot(vals["X1"], vals["X2"])
            + np.hypot(vals["Xp1"], vals["Xp2"]))
    diff = [bracket[i] - sec.J1 * vals[f"X{i + 1}"]
            - sec.J2 * vals[f"Xp{i + 1}"] for i in range(2)]
    return float(np.hypot(*diff) / norm)


def relations_second(m, points, tol=1e-7, method="analytic"):
    """Second-order relation suite: Q_ric, Q_nu and the commutator."""
    rows = []
    for pt in points:
        pj = metrics.point_jets(m, pt, order=2, method=method)
        sec = pj.second
        sg = 1.0 if pj.det_gt.value > 0 else -1.0
        C_rho = pj.fields["C_rho"].value
        r_qric = einstein._normalized([sec.Q_ric, -0.25 * sec.C_ric ** 2])
        r_qnu = einstein._normalized([4.0 * C_rho ** 2 * sec.Q_nu,
                                      sec.XI["C_rho"] ** 2,
                                      sg * sec.XperpI["C_rho"] ** 2,
                                      -2.0 * sec.C_nu * C_rho
                                      * sec.XI["C_rho"]])
        r_bracket = bracket_residual(pj)
        vals = [abs(r_qric), abs(r_qnu)]
        if r_bracket is not None:
            vals.append(abs(r_bracket))
        rows.append({
            "point": pt,
            "q_ric": r_qric,
            "q_nu": r_qnu,
            "commutator": r_bracket,
            "max_residual": max(vals),
            "pass": max(vals) < tol,
        })
    return {"points": rows, "tol": tol,
            "max_residual": max(r["max_residual"] for r in rows),
            "pass": all(r["pass"] for r in rows)}
