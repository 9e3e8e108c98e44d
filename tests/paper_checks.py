"""Checks of the paper's results and of the pseudogroup law, built on the
live pipeline: the Kundu constancy of A = sqrt|det h| (C . h), the
O'Neill tensors A and T in the semi-invariant frame, the coordinate 4D
curvature (the 4-metric and its inverse, the Christoffel symbols, the
Riemann tensor, the Ricci tensor and the sectional curvature of a plane
of coordinate vectors), the oracle of the adapted frame's, the signature partials of one
invariant along an invariant pair, the composition of two pseudogroup
elements, and AST substitution, the reference for the parser's binding
of t1, t2."""

from dataclasses import dataclass

import numpy as np

from g2inv import einstein, expr, jets, metrics
from g2inv.errors import G2InvError
from g2inv.invariants1 import FUNDAMENTAL_IDS
from g2inv.invariants2 import DELTA_TOL
from g2inv.transform import PseudoTransform

class DependentPairError(G2InvError):
    """Chosen invariant pair is functionally dependent at the point."""


class FrameRequiredError(G2InvError):
    """Operation needs the full semi-invariant frame but C_rho*ell_C ~ 0."""


def _unstack(s, pj):
    """A stack back in pj's layout: a batch's with a trailing point axis,
    one point's entry (a float for a scalar)."""
    if pj.batch:
        return s.transpose(*range(1, s.ndim), 0)
    return float(s[0]) if s.ndim == 1 else s[0]


# the fields that carry their t-derivatives (Theta_II, Theta_III and
# q_gamma_root are values alone)
FIELD_IDS = FUNDAMENTAL_IDS + ("Theta_I",)


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


def _form(a, g, b):
    """g(a, b) of stacks: a 1x4 @ 4x4 @ 4x1 product per column."""
    return (a[:, None] @ g @ b[:, :, None])[:, 0, 0]


# entry (i, j) of a symmetric 2x2 block as its position in the upper
# triangle einstein.UPPER
_MIRROR = np.array([[0, 1], [1, 2]])


def four_metric(pj):
    """The 4x4 block jet of the coordinate 4-metric in (t1, t2, z1, z2)
    order, by 2x2 block jets: each entry the per-entry jet loop's,
    diagonal blocks as upper triangles."""
    part, i, j = jets.part, *einstein.UPPER
    Ft = jets.block([pj.F[0::2], pj.F[1::2]])  # Ft[k, i] = f_i^k
    h = jets.block([pj.h[:2], pj.h[1:]])
    with np.errstate(all="ignore"):  # silent, as a PointJets layer is
        # gt_ij + (f_ik f_jl) h_kl over (k, l), and f_ik h_kl over k
        tt = jets.fold(jets.block(pj.gt), part(Ft, np.s_[:, None, i])
                       * part(Ft, np.s_[None, :, j])
                       * part(h, np.s_[:, :, None]), 2)
        fh = part(Ft, np.s_[:, :, None]) * part(h, np.s_[:, None])
        return einstein._symmetric(part(tt, _MIRROR),
                                   part(fh, 0) + part(fh, 1), h)


def ricci4(pj):
    """The Ricci tensor in (t1, t2, z1, z2) components, E^T R E of the
    frame's R_bd = R^a_bad, E[a, m] the frame components of d_m."""
    ric, F = np.einsum("abad...->bd...", pj.riemann), [j.value for j in pj.F]
    E = np.zeros_like(ric)  # d_ti = X_i + F_i^k d_zk
    E[range(4), range(4)], E[2:, :2] = 1.0, [[F[0], F[2]], [F[1], F[3]]]
    return np.einsum("am...,ab...,bn...->mn...", E, ric, E)


def inverse_four_metric(pj):
    """The 4x4 block jet of the coordinate g^{ab}, of order pj.order - 1,
    by 2x2 block jets as four_metric, by the block formula

        g^-1 = [[gt^-1, -gt^-1 P^T], [-P gt^-1, h^-1 + P gt^-1 P^T]]

    with P_ki = F_i^k."""
    tr = lambda j: jets.truncate(j, pj.order - 1)
    gt11, gt12, gt22 = (tr(j) for j in pj.gt)
    h11, h12, h22 = (tr(j) for j in pj.h)
    part, k, l = jets.part, *einstein.UPPER
    F = jets.block([[tr(j) for j in pj.F[:2]], [tr(j) for j in pj.F[2:]]])
    with np.errstate(all="ignore"):  # silent, as a PointJets layer is
        gi = jets.block([[gt22, -gt12], [-gt12, gt11]]) / tr(pj.det_gt)
        hi = jets.block([[h22, -h12], [-h12, h11]]) / tr(pj.det_h)
        # -(gt^ij f_j^k over j) as gf[j, i, k] = gt^ji f_j^k (gt^ij and
        # gt^ji are the same quotient, bit for bit), and h^kl +
        # (f_i^k gt^ij) f_j^l over (i, j)
        gf = part(gi, np.s_[:, :, None]) * part(F, np.s_[:, None])
        zz = jets.fold(part(hi, np.s_[k, l]), part(F, np.s_[:, None, k])
                       * part(gi, np.s_[:, :, None])
                       * part(F, np.s_[None, :, l]), 2)
        return einstein._symmetric(gi, -(part(gf, 0) + part(gf, 1)),
                                   part(zz, _MIRROR))


def coordinate_christoffel(pj):
    """The 4x4x4 block jet of the Christoffel symbols in (t1, t2, z1,
    z2), of pj.order - 1, from four_metric and inverse_four_metric."""
    return einstein._christoffel(four_metric(pj), inverse_four_metric(pj))


def coordinate_riemann(pj):
    """R^a_bcd values in (t1, t2, z1, z2) (order >= 2 jets)."""
    return einstein._riemann(coordinate_christoffel(pj))


def sectional_curvature(pj, u, v, riemann=None):
    """K of the plane spanned by the coordinate 4-vectors u, v (each
    (4, B) on a batch), by the coordinate Riemann tensor (riemann, if
    given) and four_metric."""
    R = coordinate_riemann(pj) if riemann is None else riemann
    g = einstein._stack(four_metric(pj).value, 2)
    u, v = (np.asarray(x, dtype=float) for x in (u, v))
    # K = g(R(u, v) v, u) / (|u|^2 |v|^2 - g(u, v)^2), normalized so the
    # unit 2-sphere plane has K = +1
    w = np.einsum("abcd...,b...,c...,d...->a...", R, v, u, v)
    w, u, v = (einstein._stack(x, 1) for x in (w, u, v))
    # each column's products, and ** on its float64
    den = _form(u, g, u) * _form(v, g, v) \
        - np.array([x ** 2 for x in _form(u, g, v)])
    return _unstack(_form(w, g, u) / den, pj)


def frame_lengths(pj):
    """ell, the g-lengths g(Y_a, Y_a) of the rows of pj.frame ((4,), or
    (4, B) on a batch), by g = blockdiag(gt, h) of the adapted basis."""
    (a, b, c), (p, q, r) = ([j.value for j in js] for js in (pj.gt, pj.h))
    o = np.zeros_like(a)
    g = einstein._stack(np.array([[a, b, o, o], [b, c, o, o],
                                  [o, o, p, q], [o, o, q, r]]), 2)
    return np.array([_unstack(_form(y, g, y), pj)
                     for y in (einstein._stack(v, 1) for v in pj.frame)])


def coordinate_frame(pj):
    """The rows of pj.frame in coordinate components (v_t, v_z - F v_t),
    from the adapted basis X_i = d_ti - F_i^k d_zk, d_zk."""
    F = [j.value for j in pj.F]
    return np.array([(v[0], v[1], v[2] - F[0] * v[0] - F[2] * v[1],
                      v[3] - F[1] * v[0] - F[3] * v[1]) for v in pj.frame])


def oneill_AT(pj):
    """Coordinate components of both O'Neill tensors, A and T, as (4,4,4)
    arrays with A[e][b][c] the dt^e-component of A(d_b, d_c).  A also
    needs the t-derivatives of the ver/hor projectors."""
    Fv = [j.value for j in pj.F]
    dF = [[jets.t_derivative(pj.F[k], s).value for k in range(4)]
          for s in range(2)]
    ver = np.zeros((4, 4))
    hor = np.zeros((4, 4))
    dver = [np.zeros((4, 4)) for _ in range(2)]
    dhor = [np.zeros((4, 4)) for _ in range(2)]
    # F rows: (f_1^1, f_1^2, f_2^1, f_2^2); f[j][k] = F[2j + k]
    for j in range(2):
        hor[j][j] = 1.0
        for k in range(2):
            ver[2 + k][j] = Fv[2 * j + k]
            hor[2 + k][j] = -Fv[2 * j + k]
            for s in range(2):
                dver[s][2 + k][j] = dF[s][2 * j + k]
                dhor[s][2 + k][j] = -dF[s][2 * j + k]
    for k in range(2):
        ver[2 + k][2 + k] = 1.0
    G = coordinate_christoffel(pj).value
    T = np.zeros((4, 4, 4))
    A = np.zeros((4, 4, 4))
    for b in range(4):
        for c in range(4):
            # nabla along ver(d_b): vertical directions kill t-derivatives
            vb = ver[:, b]
            hb = hor[:, b]
            nv_h = np.einsum("a,daf,f->d", vb, G, hor[:, c])
            nv_v = np.einsum("a,daf,f->d", vb, G, ver[:, c])
            T[:, b, c] = ver @ nv_h + hor @ nv_v
            dh_c = sum(hb[s] * dhor[s][:, c] for s in range(2))
            dv_c = sum(hb[s] * dver[s][:, c] for s in range(2))
            nh_h = dh_c + np.einsum("a,daf,f->d", hb, G, hor[:, c])
            nh_v = dv_c + np.einsum("a,daf,f->d", hb, G, ver[:, c])
            A[:, b, c] = ver @ nh_h + hor @ nh_v
    return A, T


@dataclass
class ONeillData:
    A_frame: np.ndarray
    T_frame: np.ndarray
    Tvec: tuple
    ell_T: float
    ell_Tperp: float
    Theta_C: float


def oneill(pj):
    """O'Neill tensor frame components in the {H,Hperp,C,Cperp} frame:
    A and T from oneill_AT on the coordinate_frame, Theta_C from the live
    pj.oneill_tensors.

    T_frame[a][b][c] is the Y_a-coefficient of T(Y_b, Y_c) in the
    orthogonal-frame expansion T(Y_b,Y_c) = sum_a T^(a)_(b)(c) Y_a.
    """
    if not pj.stratum.generic:
        raise FrameRequiredError(
            "frame required: C_rho*ell_C vanishes at this point")
    Y, ell = coordinate_frame(pj), frame_lengths(pj)
    _, Theta_C, _ = pj.oneill_tensors
    A, T = oneill_AT(pj)
    g4 = four_metric(pj).value

    def expand(tensor):
        vec = np.einsum("dbc,ib,jc->dij", tensor, Y, Y)
        return np.einsum("dij,ad,a->aij", vec, Y @ g4, 1.0 / ell)

    Tvec = np.einsum("dbc,b,c->d", T, Y[2], Y[1])
    Tvec_p = np.einsum("dbc,b,c->d", T, Y[3], Y[1])
    return ONeillData(A_frame=expand(A), T_frame=expand(T),
                      Tvec=tuple(Tvec), ell_T=float(Tvec @ g4 @ Tvec),
                      ell_Tperp=float(Tvec_p @ g4 @ Tvec_p),
                      Theta_C=Theta_C)


def riemann_sectional_curvatures(pj):
    """K_Xi and K_Xiperp by name from the coordinate Riemann tensor: the
    sectional curvatures of the Killing plane (d_z1, d_z2) and of the
    horizontal one (d_t1 - F_1^k d_zk, d_t2 - F_2^k d_zk), the oracle of
    einstein.sectional_curvatures; pj.second has them from the
    Gauss-curvature propositions."""
    R, Fv = coordinate_riemann(pj), [j.value for j in pj.F]
    o, i = np.zeros_like(Fv[0]), np.ones_like(Fv[0])
    return {"K_Xi": sectional_curvature(pj, (o, o, i, o), (o, o, o, i), R),
            "K_Xiperp": sectional_curvature(
                pj, (i, o, -Fv[0], -Fv[1]), (o, i, -Fv[2], -Fv[3]), R)}


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


def substitute(e, replacement, memo=None):
    """The expression with t1, t2 replaced by the two ASTs given.

    Each distinct node is rewritten once, so a subtree shared in ``e``
    stays one shared node in the result.  ``memo`` (node id -> result)
    carries that sharing across calls with the same replacement.
    """
    memo = {} if memo is None else memo

    def sub(node):
        done = memo.get(id(node))
        if done is not None:
            return done
        if isinstance(node, expr.Var):
            done = replacement[node.index]
        elif isinstance(node, expr.Neg):
            done = expr.Neg(sub(node.arg))
        elif isinstance(node, expr.Call):
            done = expr.Call(node.fn, sub(node.arg))
        elif isinstance(node, expr.BinOp):
            done = expr.BinOp(node.op, sub(node.left), sub(node.right))
        else:
            done = node
        memo[id(node)] = done
        return done

    return sub(e)


def compose_transforms(p2, p1):
    """The transform acting as p2 after p1 (AST substitution, exact)."""
    memo = {}
    phi = tuple(substitute(p2.phi[m], p1.phi, memo) for m in range(2))
    a2 = np.array(p2.alpha)
    a1 = np.array(p1.alpha)
    psi = []
    for r in range(2):
        scaled = expr.BinOp(
            "+",
            expr.BinOp("*", expr.Num(float(a2[r][0])), p1.psi[0]),
            expr.BinOp("*", expr.Num(float(a2[r][1])), p1.psi[1]))
        psi.append(expr.BinOp(
            "+", scaled, substitute(p2.psi[r], p1.phi, memo)))
    alpha = a2 @ a1
    return PseudoTransform(phi=phi, psi=tuple(psi),
                           alpha=tuple(tuple(float(x) for x in row)
                                       for row in alpha))
