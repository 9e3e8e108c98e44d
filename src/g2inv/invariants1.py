"""First-order scalar (semi-)invariants, frames and their relations.

Everything here is a function of the component jets at a single point.
Invariant values are computed *as jets*: feeding order-2 component jets
through the same arithmetic yields each invariant together with its
exact first derivatives on the orbit space, which is what the
second-order construction consumes.

Conventions fixed here (signs matter):

* sigma_i = (det h)_,i / det h, rho = sigma x sigma,
  chi_ij = (h11_,i h22_,j + h11_,j h22_,i - 2 h12_,i h12_,j)/(2 det h),
  gamma = chi - rho/4.
* C_mu = mu_ij gt^ij, Q_mu = det mu / det gt.
* C^k = (d2 F_1^k - d1 F_2^k)/sqrt|det gt|, ell_C = h_kl C^k C^l.
* q_gamma_root = D/(2 |det h|^{3/2} |det gt|^{1/2}) with D the 3x3
  determinant of the rows (h11,h12,h22), d1(...), d2(...).  Its square
  is |Q_gamma| and it carries the same sign behaviour under the
  pseudogroup as Theta_I + Theta_III, which makes the relation suite
  orientation-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import einstein, jets, metrics
from .errors import FrameRequiredError

FUNDAMENTAL_IDS = ("C_rho", "C_chi", "Q_chi", "Q_gamma", "ell_C",
                   "Theta_I_sq")


@dataclass
class Invariants1:
    C_rho: float
    C_chi: float
    Q_chi: float
    Q_gamma: float
    ell_C: float
    Theta_I_sq: float
    C_gamma: float = None
    Theta_I: float = None
    Theta_II: float = None
    Theta_III: float = None
    Theta_C: float = None
    Theta_Cperp: float = None
    ell_H: float = None
    ell_Hperp: float = None
    ell_Cperp: float = None
    ell_T: float = None
    ell_Tperp: float = None
    T331: float = None
    T441: float = None
    T332: float = None
    T342: float = None
    T341: float = None
    A123: float = None
    A213: float = None
    A312: float = None
    A321: float = None

    def six(self):
        return (self.C_rho, self.C_chi, self.Q_chi, self.Q_gamma,
                self.ell_C, self.Theta_I_sq)


@dataclass
class FrameData:
    X: tuple
    Xperp: tuple
    H: tuple          # base components on the orbit space
    Hperp: tuple
    C: tuple          # vertical components
    Cperp: tuple
    H4: tuple         # horizontal lifts / vertical vectors as 4-vectors
    Hperp4: tuple
    C4: tuple
    Cperp4: tuple
    ell_H: float
    ell_Hperp: float
    ell_C: float
    ell_Cperp: float
    horizontal_valid: bool
    vertical_valid: bool
    notices: tuple = ()


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def first_invariant_jets(pj):
    """All first-order invariant fields as jets of order pj.order - 1."""
    if pj.order < 1:
        raise ValueError("invariants need jets of order >= 1")
    n = pj.order - 1
    tr = lambda j: jets.truncate(j, n)
    d = jets.t_derivative

    h11, h12, h22 = (tr(j) for j in pj.h)
    gt11, gt12, gt22 = (tr(j) for j in pj.gt)
    det_h = tr(pj.det_h)
    det_gt = tr(pj.det_gt)
    dh = [[d(pj.h[k], s) for k in range(3)] for s in range(2)]
    ddet_h = [d(pj.det_h, s) for s in range(2)]

    gi11 = gt22 / det_gt
    gi12 = -gt12 / det_gt
    gi22 = gt11 / det_gt

    sigma = (ddet_h[0] / det_h, ddet_h[1] / det_h)
    rho = (sigma[0] * sigma[0], sigma[0] * sigma[1], sigma[1] * sigma[1])
    chi = tuple(
        (dh[i][0] * dh[j][2] + dh[j][0] * dh[i][2]
         - 2.0 * dh[i][1] * dh[j][1]) / (2.0 * det_h)
        for (i, j) in ((0, 0), (0, 1), (1, 1)))
    gamma = tuple(chi[k] - 0.25 * rho[k] for k in range(3))

    def trace(mu):
        return mu[0] * gi11 + 2.0 * mu[1] * gi12 + mu[2] * gi22

    def qdet(mu):
        return (mu[0] * mu[2] - mu[1] * mu[1]) / det_gt

    C_rho = trace(rho)
    C_chi = trace(chi)
    Q_chi = qdet(chi)
    Q_gamma = qdet(gamma)
    Q_rho = qdet(rho)

    sq_gt = jets.sqrt_abs(det_gt)
    sq_h = jets.sqrt_abs(det_h)
    C1 = (d(pj.F[0], 1) - d(pj.F[2], 0)) / sq_gt
    C2 = (d(pj.F[1], 1) - d(pj.F[3], 0)) / sq_gt
    ell_C = (h11 * C1 * C1 + 2.0 * h12 * C1 * C2 + h22 * C2 * C2)

    hc1 = h11 * C1 + h12 * C2
    hc2 = h12 * C1 + h22 * C2

    Theta_I = _det3([dh[0], dh[1],
                     (C2 * C2, -C1 * C2, C1 * C1)]) / (sq_h * sq_gt)
    Theta_II = _det3([dh[0], dh[1],
                      (-2.0 * hc1 * C2,
                       h11 * C1 * C1 - h22 * C2 * C2,
                       2.0 * hc2 * C1)]) / (det_h * sq_gt)
    Theta_III = _det3([dh[0], dh[1],
                       (hc1 * hc1, hc1 * hc2, hc2 * hc2)]) \
        / (sq_h * sq_h * sq_h * sq_gt)

    htriple_det = _det3([(h11, h12, h22), dh[0], dh[1]])
    q_gamma_root = htriple_det / (2.0 * sq_h * sq_h * sq_h * sq_gt)

    X1 = gi11 * sigma[0] + gi12 * sigma[1]
    X2 = gi12 * sigma[0] + gi22 * sigma[1]
    Xp1 = sigma[1] / sq_gt
    Xp2 = -sigma[0] / sq_gt

    return {
        "C_rho": C_rho, "C_chi": C_chi, "Q_chi": Q_chi,
        "Q_gamma": Q_gamma, "Q_rho": Q_rho,
        "C_gamma": C_chi - 0.25 * C_rho,
        "ell_C": ell_C,
        "Theta_I": Theta_I, "Theta_II": Theta_II, "Theta_III": Theta_III,
        "Theta_I_sq": Theta_I * Theta_I,
        "q_gamma_root": q_gamma_root,
        "C1": C1, "C2": C2,
        "X1": X1, "X2": X2, "Xp1": Xp1, "Xp2": Xp2,
        "sigma1": sigma[0], "sigma2": sigma[1],
    }


def fundamental(pj):
    """The six fundamental invariants (plus the cheap extended scalars)."""
    jv = pj.fields
    sgn_gt = 1.0 if pj.det_gt.value > 0 else -1.0
    sgn_h = 1.0 if pj.det_h.value > 0 else -1.0
    C_rho = jv["C_rho"].value
    ell_C = jv["ell_C"].value
    return Invariants1(
        C_rho=C_rho,
        C_chi=jv["C_chi"].value,
        Q_chi=jv["Q_chi"].value,
        Q_gamma=jv["Q_gamma"].value,
        ell_C=ell_C,
        Theta_I_sq=jv["Theta_I_sq"].value,
        C_gamma=jv["C_gamma"].value,
        Theta_I=jv["Theta_I"].value,
        Theta_II=jv["Theta_II"].value,
        Theta_III=jv["Theta_III"].value,
        ell_H=0.25 * C_rho,
        ell_Hperp=sgn_gt * 0.25 * C_rho,
        ell_Cperp=sgn_h * ell_C,
    )


def full_first_order(pj):
    """Invariants1 with every extended field populated.

    The O'Neill-dependent entries need the full frame; on degenerate
    strata (C_rho*ell_C ~ 0) they stay None.
    """
    inv = fundamental(pj)
    fr = pj.frame
    inv.ell_H = fr.ell_H
    inv.ell_Hperp = fr.ell_Hperp
    inv.ell_Cperp = fr.ell_Cperp
    if fr.horizontal_valid and fr.vertical_valid:
        od = oneill(pj)
        inv.Theta_C = od.Theta_C
        inv.Theta_Cperp = od.Theta_Cperp
        inv.ell_T = od.ell_T
        inv.ell_Tperp = od.ell_Tperp
        inv.T331 = od.T_frame[2][2][0]
        inv.T441 = od.T_frame[3][3][0]
        inv.T332 = od.T_frame[2][2][1]
        inv.T342 = od.T_frame[2][3][1]
        inv.T341 = od.T_frame[2][3][0]
        inv.A123 = od.A_frame[0][1][2]
        inv.A213 = od.A_frame[1][0][2]
        inv.A312 = od.A_frame[2][0][1]
        inv.A321 = od.A_frame[2][1][0]
    return inv


def frame(pj):
    """Semi-invariant frame {H, Hperp, C, Cperp}; lengths via the 4-metric.

    Components are always returned; validity flags state whether each
    pair actually qualifies as a frame at this point.
    """
    jv = pj.fields
    tol = metrics.GENERIC_TOL * max(1.0, metrics.component_scale(pj))
    X = (jv["X1"].value, jv["X2"].value)
    Xp = (jv["Xp1"].value, jv["Xp2"].value)
    H = (-0.5 * X[0], -0.5 * X[1])
    Hp = (-0.5 * Xp[0], -0.5 * Xp[1])
    C = (jv["C1"].value, jv["C2"].value)
    h11, h12, h22 = (j.value for j in pj.h)
    sq_h = abs(pj.det_h.value) ** 0.5
    Cp = ((h12 * C[0] + h22 * C[1]) / sq_h,
          -(h11 * C[0] + h12 * C[1]) / sq_h)

    Fv = [j.value for j in pj.F]

    def lift(v):
        return (v[0], v[1],
                -(v[0] * Fv[0] + v[1] * Fv[2]),
                -(v[0] * Fv[1] + v[1] * Fv[3]))

    H4 = lift(H)
    Hp4 = lift(Hp)
    C4 = (0.0, 0.0, C[0], C[1])
    Cp4 = (0.0, 0.0, Cp[0], Cp[1])

    g4 = einstein.four_metric_values(pj)

    def gdot(u, v):
        return float(np.array(u) @ g4 @ np.array(v))

    ell_H = gdot(H4, H4)
    ell_Hp = gdot(Hp4, Hp4)
    ell_C = gdot(C4, C4)
    ell_Cp = gdot(Cp4, Cp4)
    hvalid = abs(jv["C_rho"].value) >= tol
    vvalid = abs(jv["ell_C"].value) >= tol
    notices = []
    if not (hvalid and vvalid):
        notices.append("degenerate stratum: C_rho*ell_C below tolerance, "
                       "frame components returned but not a valid frame")
    return FrameData(X=X, Xperp=Xp, H=H, Hperp=Hp, C=C, Cperp=Cp,
                     H4=H4, Hperp4=Hp4, C4=C4, Cperp4=Cp4,
                     ell_H=ell_H, ell_Hperp=ell_Hp,
                     ell_C=ell_C, ell_Cperp=ell_Cp,
                     horizontal_valid=hvalid, vertical_valid=vvalid,
                     notices=tuple(notices))


def _projection_matrices(pj):
    """ver/hor projectors and their t-derivatives (values)."""
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
    return ver, hor, dver, dhor


def oneill_tensors(pj):
    """Coordinate components of the O'Neill tensors A and T.

    Returns (A, T) as (4,4,4) arrays with A[e][b][c] the dt^e-component
    of A(d_b, d_c), plus Theta_C and Theta_Cperp (determinants of the
    (1,1) maps T(C, .) and T(Cperp, .)), which exist on every stratum.
    """
    ver, hor, dver, dhor = _projection_matrices(pj)
    G = np.array([[[pj.christoffel[a][b][c].value for c in range(4)]
                   for b in range(4)] for a in range(4)])
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
    fr = pj.frame
    TC = np.einsum("dcb,c->db", T, np.array(fr.C4))
    TCp = np.einsum("dcb,c->db", T, np.array(fr.Cperp4))
    # T_C is skew-adjoint w.r.t. g, so det(T_C) = Pf(g T_C)^2 / det(g)
    # carries the sign of det(g) = det(gt) det(h).  Theta_C is the
    # nonnegative normalization (making Theta_I^2 = 16 Theta_C exact),
    # Theta_Cperp the raw determinant (pairing with the signed relation
    # Theta_III^2 = +-_{gt h} 16 Theta_Cperp).
    sgh = (1.0 if pj.det_gt.value > 0 else -1.0) \
        * (1.0 if pj.det_h.value > 0 else -1.0)
    return A, T, sgh * float(np.linalg.det(TC)), float(np.linalg.det(TCp))


@dataclass
class ONeillData:
    A_frame: np.ndarray
    T_frame: np.ndarray
    Tvec: tuple
    Tvec_perp: tuple
    ell_T: float
    ell_Tperp: float
    Theta_C: float
    Theta_Cperp: float


def oneill(pj):
    """O'Neill tensor frame components in the {H,Hperp,C,Cperp} frame.

    T_frame[a][b][c] is the Y_a-coefficient of T(Y_b, Y_c) in the
    orthogonal-frame expansion T(Y_b,Y_c) = sum_a T^(a)_(b)(c) Y_a.
    """
    fr = pj.frame
    if not (fr.horizontal_valid and fr.vertical_valid):
        raise FrameRequiredError(
            "frame required: C_rho*ell_C vanishes at this point")
    A, T, Theta_C, Theta_Cp = pj.oneill_tensors
    g4 = einstein.four_metric_values(pj)
    Y = np.array([fr.H4, fr.Hperp4, fr.C4, fr.Cperp4])
    ell = np.array([fr.ell_H, fr.ell_Hperp, fr.ell_C, fr.ell_Cperp])

    def expand(tensor):
        vec = np.einsum("dbc,ib,jc->dij", tensor, Y, Y)
        return np.einsum("dij,ad,a->aij", vec, Y @ g4, 1.0 / ell)

    T_frame = expand(T)
    A_frame = expand(A)
    Tvec = np.einsum("dbc,b,c->d", T, Y[2], Y[1])
    Tvec_p = np.einsum("dbc,b,c->d", T, Y[3], Y[1])
    ell_T = float(Tvec @ g4 @ Tvec)
    ell_Tp = float(Tvec_p @ g4 @ Tvec_p)
    return ONeillData(A_frame=A_frame, T_frame=T_frame,
                      Tvec=tuple(Tvec), Tvec_perp=tuple(Tvec_p),
                      ell_T=ell_T, ell_Tperp=ell_Tp,
                      Theta_C=Theta_C, Theta_Cperp=Theta_Cp)


def relations_first(pj):
    """Residual report for the first-order functional relations.

    Relations (iii)-(v) are skipped with a notice on strata where
    ell_C (and for (iii) also C_rho) is below tolerance.
    """
    jv = pj.fields
    sgn_gt = 1.0 if pj.det_gt.value > 0 else -1.0
    sgn_h = 1.0 if pj.det_h.value > 0 else -1.0
    _, _, Theta_C, Theta_Cp = pj.oneill_tensors

    th1 = jv["Theta_I"].value
    th2 = jv["Theta_II"].value
    th3 = jv["Theta_III"].value
    ell_C = jv["ell_C"].value
    Q_chi = jv["Q_chi"].value
    Q_gamma = jv["Q_gamma"].value
    root = jv["q_gamma_root"].value

    report = {"relations": [], "q_gamma_root_sign": 1.0 if root >= 0 else -1.0}

    def add(rid, terms, skipped=False, notice=None):
        report["relations"].append({
            "id": rid,
            "residual": None if skipped else einstein._normalized(terms),
            "skipped": skipped,
            "notice": notice,
        })

    add("theta_I_sq_vs_theta_C", [th1 ** 2, -16.0 * Theta_C])
    add("theta_III_sq_vs_theta_Cperp",
        [th3 ** 2, -sgn_gt * sgn_h * 16.0 * Theta_Cp])

    degenerate_v = not pj.frame.vertical_valid
    degenerate_h = not pj.frame.horizontal_valid
    if degenerate_v or degenerate_h:
        notice = "skipped: ell_C ~ 0" if degenerate_v else "skipped: C_rho ~ 0"
        add("theta_II_T342_Qchi", [], skipped=True, notice=notice)
    else:
        od = oneill(pj)
        T342 = od.T_frame[2][3][1]
        add("theta_II_T342_Qchi",
            [th2 ** 2 / (16.0 * ell_C ** 2),
             sgn_h * T342 ** 2,
             sgn_gt * 0.25 * (Q_chi - Q_gamma)])
    if degenerate_v:
        add("theta_sum_vs_gamma_root", [], skipped=True,
            notice="skipped: ell_C ~ 0")
        add("theta_II_sq_closure", [], skipped=True,
            notice="skipped: ell_C ~ 0")
    else:
        # exact identities on every stratum (from the componentwise
        # identity r3 = ell_C w - det(h) c_I of the Theta bottom rows);
        # for det h > 0 they reduce to the displayed +-free forms
        add("theta_sum_vs_gamma_root",
            [-2.0 * ell_C * root, sgn_h * th1, th3])
        add("theta_II_sq_closure",
            [sgn_gt * 4.0 * Q_chi * ell_C ** 2,
             -8.0 * th1 * root * ell_C,
             sgn_h * 4.0 * th1 ** 2,
             th2 ** 2])
    report["max_residual"] = max(
        (abs(r["residual"]) for r in report["relations"]
         if not r["skipped"]), default=0.0)
    return report


# ----------------------------------------------------------------------
# numerical independence ranks
# ----------------------------------------------------------------------

def random_point_jets(seed, order=1, transitive=False,
                      sign_h=1.0, sign_gt=1.0):
    """Synthetic jet-space probe with nondegenerate h and gt blocks."""
    rng = np.random.default_rng(seed)
    size = len(jets._IDX[order])

    def jet(first, spread=1.0):
        c = rng.uniform(-spread, spread, size)
        c[0] = first
        return jets.Jet2(order, c)

    gt = (jet(2.0 + rng.uniform(-0.5, 0.5)),
          jet(rng.uniform(-0.4, 0.4)),
          jet(sign_gt * (2.0 + rng.uniform(-0.5, 0.5))))
    h = (jet(2.0 + rng.uniform(-0.5, 0.5)),
         jet(rng.uniform(-0.4, 0.4)),
         jet(sign_h * (2.0 + rng.uniform(-0.5, 0.5))))
    F = tuple(jet(rng.uniform(-0.8, 0.8)) for _ in range(4))
    if transitive:
        F = _symmetrize_curl(F)
    return _assemble(gt, F, h, order)


def _symmetrize_curl(F):
    out = []
    for k in range(2):
        f1 = list(F[k].coeffs)
        f2 = list(F[2 + k].coeffs)
        p12 = jets._POS[F[k].order][(0, 1)]
        p21 = jets._POS[F[k].order][(1, 0)]
        mean = 0.5 * (f1[p12] + f2[p21])
        f1[p12] = mean
        f2[p21] = mean
        out.append((jets.Jet2(F[k].order, f1), jets.Jet2(F[k].order, f2)))
    return (out[0][0], out[1][0], out[0][1], out[1][1])


def _assemble(gt, F, h, order):
    det_h = h[0] * h[2] - h[1] * h[1]
    det_gt = gt[0] * gt[2] - gt[1] * gt[1]
    return metrics.PointJets(point=(0.0, 0.0), order=order,
                             gt=gt, F=F, h=h, det_h=det_h, det_gt=det_gt)


def _pack(pj):
    return np.concatenate([np.array(j.coeffs)
                           for j in pj.all_component_jets()])


def _unpack(vec, order):
    size = len(jets._IDX[order])
    js = [jets.Jet2(order, vec[i * size:(i + 1) * size]) for i in range(10)]
    return _assemble(tuple(js[0:3]), tuple(js[3:7]), tuple(js[7:10]), order)


def _invariant_vector(pj, which):
    if which in ("fundamental6", "fundamental6_transitive"):
        jv = pj.fields
        return np.array([jv[k].value for k in FUNDAMENTAL_IDS])
    if which == "order2_20":
        from .invariants2 import order2_invariant_vector
        return order2_invariant_vector(pj)
    raise ValueError(f"unknown invariant set {which!r}")


def jacobian_rank(which, probe, eps=1e-6, step=1e-6):
    """Numerical rank of d(invariants)/d(jet coordinates) at the probe.

    For the transitive variant, perturbations stay inside the subspace
    d2 F_1^k = d1 F_2^k; the curl-mean coordinates move in lockstep.
    """
    order = probe.order
    x0 = _pack(probe)
    size = len(jets._IDX[order])

    directions = [np.eye(len(x0))[i] for i in range(len(x0))]
    if which == "fundamental6_transitive":
        # tie the two first-derivative slots of each curl pair together
        p12 = jets._POS[order][(0, 1)]
        p21 = jets._POS[order][(1, 0)]
        tied = {}
        for k in range(2):
            i_a = (3 + k) * size + p12       # F_1^k, d/dt2 slot
            i_b = (3 + 2 + k) * size + p21   # F_2^k, d/dt1 slot
            tied[i_a] = i_b
        directions = []
        for i in range(len(x0)):
            if i in tied.values():
                continue
            e = np.zeros(len(x0))
            e[i] = 1.0
            if i in tied:
                e[tied[i]] = 1.0
            directions.append(e)

    cols = []
    for e in directions:
        hstep = step * max(1.0, float(abs(x0 @ e)))
        fp = _invariant_vector(_unpack(x0 + hstep * e, order), which)
        fm = _invariant_vector(_unpack(x0 - hstep * e, order), which)
        cols.append((fp - fm) / (2.0 * hstep))
    J = np.column_stack(cols)
    # per-invariant row scaling: the invariants span wildly different
    # magnitudes, and the rank should reflect relative sensitivities
    norms = np.linalg.norm(J, axis=1)
    keep = norms > 0.0
    J = J[keep] / norms[keep, None]
    if J.size == 0:
        return 0
    svals = np.linalg.svd(J, compute_uv=False)
    return int(np.sum(svals > eps * svals[0]))
