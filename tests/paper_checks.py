"""Checks of the paper's results and of the pseudogroup law, built on the
live pipeline: the Kundu constancy of A = sqrt|det h| (C . h), the
signature partials of one invariant along an invariant pair, and the
composition of two pseudogroup elements."""

import numpy as np

from g2inv import expr, jets, metrics
from g2inv.errors import G2InvError
from g2inv.invariants1 import FUNDAMENTAL_IDS
from g2inv.invariants2 import DELTA_TOL
from g2inv.transform import PseudoTransform

class DependentPairError(G2InvError):
    """Chosen invariant pair is functionally dependent at the point."""


FIELD_IDS = FUNDAMENTAL_IDS + ("C_gamma", "Theta_I", "Theta_II",
                               "Theta_III", "q_gamma_root")


def kundu_A(m, points, method="analytic"):
    """Samples of A = sqrt|det h| * (C . h) and their spread.

    On Lambda-vacuum solutions with C_rho != 0 this row vector is
    constant up to a global sign in any adapted coordinates.
    """
    samples = []
    for pt in points:
        pj = metrics.point_jets(m, pt, order=1, method=method)
        jv = pj.fields
        c1, c2 = jv["C1"].value, jv["C2"].value
        h11, h12, h22 = (j.value for j in pj.h)
        root = abs(pj.det_h.value) ** 0.5
        samples.append(np.array([root * (c1 * h11 + c2 * h12),
                                 root * (c1 * h12 + c2 * h22)]))
    norms = [float(np.linalg.norm(a)) for a in samples]
    top = max(norms)
    if top == 0.0:
        return {"samples": samples, "max_deviation": 0.0,
                "vacuous": True,
                "notice": "C vanishes at every sample; constancy is vacuous"}
    ref = samples[int(np.argmax(norms))]
    dev = 0.0
    for a in samples:
        aligned = a if float(a @ ref) >= 0.0 else -a
        dev = max(dev, float(np.linalg.norm(aligned - ref)) / top)
    return {"samples": samples, "max_deviation": dev, "vacuous": False,
            "notice": None}


def directional_partials(pj, phi_id, i1_id, i2_id):
    """d(phi)/d(I1), d(phi)/d(I2) along the chosen invariant coordinates.

    Raises DependentPairError where (I1, I2) are dependent at the point.
    """
    for key in (phi_id, i1_id, i2_id):
        if key not in FIELD_IDS:
            raise ValueError(f"unknown invariant id {key!r}")
    jv = pj.fields
    X = (jv["X1"].value, jv["X2"].value)
    Xp = (jv["Xp1"].value, jv["Xp2"].value)
    a11, a12 = jets.along(X, jv[i1_id]), jets.along(X, jv[i2_id])
    a21, a22 = jets.along(Xp, jv[i1_id]), jets.along(Xp, jv[i2_id])
    b1, b2 = jets.along(X, jv[phi_id]), jets.along(Xp, jv[phi_id])
    delta = a11 * a22 - a12 * a21
    scale = max(abs(a11 * a22), abs(a12 * a21), 1e-300)
    if abs(delta) < DELTA_TOL * scale:
        raise DependentPairError(
            f"pair ({i1_id}, {i2_id}) is dependent at {pj.point}")
    return ((b1 * a22 - b2 * a12) / delta,
            (a11 * b2 - a21 * b1) / delta)


def compose_transforms(p2, p1):
    """The transform acting as p2 after p1 (AST substitution, exact)."""
    memo = {}
    phi = tuple(expr.substitute(p2.phi[m], p1.phi, memo) for m in range(2))
    a2 = np.array(p2.alpha)
    a1 = np.array(p1.alpha)
    psi = []
    for r in range(2):
        scaled = expr.BinOp(
            "+",
            expr.BinOp("*", expr.Num(float(a2[r][0])), p1.psi[0]),
            expr.BinOp("*", expr.Num(float(a2[r][1])), p1.psi[1]))
        psi.append(expr.BinOp(
            "+", scaled, expr.substitute(p2.psi[r], p1.phi, memo)))
    alpha = a2 @ a1
    return PseudoTransform(phi=phi, psi=tuple(psi),
                           alpha=tuple(tuple(float(x) for x in row)
                                       for row in alpha))
