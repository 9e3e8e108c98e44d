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
* The frame and O'Neill's T are held in the adapted basis
  (X1, X2, d_z1, d_z2), X_i = d_ti - F_i^n d_zn the horizontal lifts,
  in which g = blockdiag(gt, h): they read gt, h and C, not F, so a
  z-shift psi, which adds D psi to F, leaves them unchanged.
* O'Neill's T on the Killing fibres (O'Neill, Michigan Math. J. 13,
  1966), their second fundamental form, in closed form: Koszul with
  z-independence gives 2 g(nabla_zk d_zl, d_ti) = -d_i h_kl, so
  T(d_zk, d_zl) = -1/2 gt^ij d_j h_kl X_i and
  T(d_zk, X_j) = 1/2 h^lm d_j h_kl d_zm.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import einstein, jets, metrics
from .errors import G2InvError

FUNDAMENTAL_IDS = ("C_rho", "C_chi", "Q_chi", "Q_gamma", "ell_C",
                   "Theta_I_sq")


def _det2(rows):
    (a, b), (c, d) = rows
    return a * d - b * c


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def fundamental_jets(pj):
    """The six fundamentals as jets of order pj.order - 1, then the pieces
    derivations and first_invariant_jets build on: h, det_h, det_gt at
    that order, sigma, rho, dh[s][k] = d h_k/dt^(s+1), gi = (gt^11, gt^12,
    gt^22), sq_gt = sqrt|det gt|, sq_h = sqrt|det h|, (C1, C2) = pj.curl
    / sq_gt and Theta_I."""
    n = pj.order - 1
    tr = lambda j: jets.truncate(j, n)
    d = jets.t_derivative

    h11, h12, h22 = (tr(j) for j in pj.h)
    gt11, gt12, gt22 = (tr(j) for j in pj.gt)
    det_h = tr(pj.det_h)
    det_gt = tr(pj.det_gt)
    dh = [[d(pj.h[k], s) for k in range(3)] for s in range(2)]
    ddet_h = [d(pj.det_h, s) for s in range(2)]

    gi = (gt22 / det_gt, -gt12 / det_gt, gt11 / det_gt)

    sigma = (ddet_h[0] / det_h, ddet_h[1] / det_h)
    rho = (sigma[0] * sigma[0], sigma[0] * sigma[1], sigma[1] * sigma[1])
    chi = tuple(
        (dh[i][0] * dh[j][2] + dh[j][0] * dh[i][2]
         - 2.0 * dh[i][1] * dh[j][1]) / (2.0 * det_h)
        for (i, j) in ((0, 0), (0, 1), (1, 1)))
    gamma = tuple(chi[k] - 0.25 * rho[k] for k in range(3))

    def trace(mu):
        return mu[0] * gi[0] + 2.0 * mu[1] * gi[1] + mu[2] * gi[2]

    def qdet(mu):
        return (mu[0] * mu[2] - mu[1] * mu[1]) / det_gt

    sq_gt = jets.sqrt_abs(det_gt)
    sq_h = jets.sqrt_abs(det_h)
    C1, C2 = (w / sq_gt for w in pj.curl)
    Theta_I = _det3([dh[0], dh[1],
                     (C2 * C2, -C1 * C2, C1 * C1)]) / (sq_h * sq_gt)
    return {
        "C_rho": trace(rho), "C_chi": trace(chi),
        "Q_chi": qdet(chi), "Q_gamma": qdet(gamma),
        "ell_C": h11 * C1 * C1 + 2.0 * h12 * C1 * C2 + h22 * C2 * C2,
        "Theta_I_sq": Theta_I * Theta_I,
        "h": (h11, h12, h22), "det_h": det_h, "det_gt": det_gt,
        "sigma": sigma, "rho": rho, "dh": dh, "gi": gi,
        "sq_gt": sq_gt, "sq_h": sq_h, "C1": C1, "C2": C2, "Theta_I": Theta_I,
    }


def derivations(pj):
    """The invariant differentiations X = (X1, X2) and Xperp = (Xp1, Xp2)
    as jets of order pj.order - 1, built on pj.fundamentals."""
    f = pj.fundamentals
    gi, sigma, sq_gt = f["gi"], f["sigma"], f["sq_gt"]
    return {"X1": gi[0] * sigma[0] + gi[1] * sigma[1],
            "X2": gi[1] * sigma[0] + gi[2] * sigma[1],
            "Xp1": sigma[1] / sq_gt, "Xp2": -sigma[0] / sq_gt}


def _values(pj, *keys):
    """The pieces of pj.fundamentals named, as order-0 jets: truncated
    at pj.order >= 2, as they are at pj.order 1."""
    f = pj.fundamentals
    if pj.order < 2:
        return [f[k] for k in keys]

    def value(x):
        return jets.truncate(x, 0) if type(x) is jets.Jet2 \
            else [value(y) for y in x]
    return [value(f[k]) for k in keys]


def q_gamma_root(pj):
    """q_gamma_root as an order-0 jet, its value (no reader takes its
    derivatives), on pj.fundamentals."""
    h, dh, sq_h, sq_gt = _values(pj, "h", "dh", "sq_h", "sq_gt")
    return _det3([h, *dh]) / (2.0 * sq_h * sq_h * sq_h * sq_gt)


def first_invariant_jets(pj):
    """All first-order invariant fields, built on pj.fundamentals,
    pj.derivations and pj.q_gamma_root: jets of order pj.order - 1, but
    Theta_II, Theta_III and q_gamma_root order-0 jets, their values (no
    reader takes their derivatives)."""
    f = pj.fundamentals
    (h11, h12, h22), det_h, dh, sq_gt, sq_h, C1, C2 = _values(
        pj, "h", "det_h", "dh", "sq_gt", "sq_h", "C1", "C2")

    hc1 = h11 * C1 + h12 * C2
    hc2 = h12 * C1 + h22 * C2

    Theta_II = _det3([dh[0], dh[1],
                      (-2.0 * hc1 * C2,
                       h11 * C1 * C1 - h22 * C2 * C2,
                       2.0 * hc2 * C1)]) / (det_h * sq_gt)
    Theta_III = _det3([dh[0], dh[1],
                       (hc1 * hc1, hc1 * hc2, hc2 * hc2)]) \
        / (sq_h * sq_h * sq_h * sq_gt)
    return {
        **{k: f[k] for k in (*FUNDAMENTAL_IDS, "Theta_I", "C1", "C2")},
        "Theta_II": Theta_II, "Theta_III": Theta_III,
        "q_gamma_root": pj.q_gamma_root, **pj.derivations,
    }


def frame(pj):
    """Semi-invariant frame Y: the vectors H, Hperp, C, Cperp as its rows
    ((4, 4), or (4, 4, B) on a batch) of components in the adapted basis
    (X1, X2, d_z1, d_z2), H = -X/2 and Hperp = -Xperp/2 horizontal.

    Components are always returned; they form a frame only where
    pj.stratum is generic.
    """
    f, X = pj.fundamentals, pj.derivations
    C = (f["C1"].value, f["C2"].value)
    h11, h12, h22 = (j.value for j in pj.h)
    sq_h = f["sq_h"].value
    o = np.zeros(np.shape(C[0]))
    return np.array([
        (-0.5 * X["X1"].value, -0.5 * X["X2"].value, o, o),
        (-0.5 * X["Xp1"].value, -0.5 * X["Xp2"].value, o, o),
        (o, o, C[0], C[1]),
        (o, o, (h12 * C[0] + h22 * C[1]) / sq_h,
         -(h11 * C[0] + h12 * C[1]) / sq_h)])


def oneill_tensors(pj):
    """The O'Neill tensor T on the Killing directions, as a (4, 2, 4)
    array in the adapted basis, T[e][k][c] the e-component of
    T(d_zk, c) for c and e in (X1, X2, d_z1, d_z2), by the closed form of
    the module docstring, entry by entry on the values of gi and dh of
    pj.fundamentals, h and det h (a batch column has its point's bits).
    Also Theta_C and Theta_Cperp, the determinants of the (1,1) maps
    T(C, .) and T(Cperp, .) of the vertical C and Cperp, which exist on
    every stratum."""
    f = pj.fundamentals
    gi = [x.value for x in f["gi"]]
    dh = [[x.value for x in row] for row in f["dh"]]
    h = [j.value for j in pj.h]
    det_h = pj.det_h.value
    hi = (h[2] / det_h, -h[1] / det_h, h[0] / det_h)
    o = np.zeros(np.shape(det_h))
    # gt^ij, h^lm and d_j h_kl are entries i + j, l + m and k + l of the
    # packed (11, 12, 22) triples gi, hi and dh[j]

    def mixed(k, j):  # T(d_zk, X_j), vertical
        return [o, o] + [0.5 * (hi[m] * dh[j][k] + hi[m + 1] * dh[j][k + 1])
                         for m in range(2)]

    def vertical(k, l):  # T(d_zk, d_zl), horizontal
        return [-0.5 * (gi[i] * dh[0][k + l] + gi[i + 1] * dh[1][k + l])
                for i in range(2)] + [o, o]

    # columns[k][c][e] -> T[e][k][c]
    T = np.moveaxis(np.array([[mixed(k, 0), mixed(k, 1), vertical(k, 0),
                               vertical(k, 1)] for k in range(2)]), 2, 0)
    # T(v, .) of a vertical v maps X_j to d_zk and d_zk to X_j, so its
    # determinant is det A det B of those two 2x2 blocks
    Tv = np.einsum("dkb...,vk...->vdb...", T, pj.frame[2:, 2:])
    if not pj.batch:  # Python floats: overflow is silent, as on floats
        Tv = Tv.tolist()
    TC, TCp = (_det2([r[2:] for r in t[:2]]) * _det2([r[:2] for r in t[2:]])
               for t in Tv)
    # T_C is skew-adjoint w.r.t. g, so det(T_C) = Pf(g T_C)^2 / det(g)
    # carries the sign of det(g) = det(gt) det(h).  Theta_C is the
    # nonnegative normalization (making Theta_I^2 = 16 Theta_C exact),
    # Theta_Cperp the raw determinant (pairing with the signed relation
    # Theta_III^2 = +-_{gt h} 16 Theta_Cperp).
    sgh = pj.stratum.sign_det_gt * pj.stratum.sign_det_h
    return T, sgh * TC, TCp


def relations_first(pj):
    """Residuals of the five first-order functional relations at a point
    (a (B,) vector each on a batch).

    Relations (iii)-(v) are None (skipped) on strata where ell_C (and
    for (iii) also C_rho) is below tolerance; on a batch, an object
    vector with None in the skipped columns.
    """
    jv = pj.fields
    st = pj.stratum
    sgn_gt, sgn_h = st.sign_det_gt, st.sign_det_h
    T, Theta_C, Theta_Cp = pj.oneill_tensors
    norm = einstein._normalized
    sq = lambda x: jets._pow(x, 2)  # noqa: E731  (x ** 2 per element)

    th1 = jv["Theta_I"].value
    th2 = jv["Theta_II"].value
    th3 = jv["Theta_III"].value
    ell_C = jv["ell_C"].value
    Q_chi = jv["Q_chi"].value
    Q_gamma = jv["Q_gamma"].value
    root = jv["q_gamma_root"].value

    def theta_II_T342_Qchi(T, Y, h, th2, ell_C, Q_chi, Q_gamma, sgn_h,
                           sgn_gt):
        # T^(3)_(4)(2) = g(T(Cperp, Hperp), C) / g(C, C): the
        # C-coefficient of T(Cperp, Hperp) in the orthogonal frame
        # Y = {H, Hperp, C, Cperp}; C and T(Cperp, Hperp) are vertical,
        # so g(., C) is h(., C) on the z-components and g(C, C) is ell_C
        v = np.einsum("dkc...,k...,c...->d...", T, Y[3][2:], Y[1])
        C1, C2 = Y[2][2:]
        T342 = (v[2] * (h[0] * C1 + h[1] * C2)
                + v[3] * (h[1] * C1 + h[2] * C2)) / ell_C
        return norm([sq(th2) / (16.0 * sq(ell_C)),
                     sgn_h * sq(T342),
                     sgn_gt * 0.25 * (Q_chi - Q_gamma)])

    # exact identities on every stratum (from the componentwise identity
    # r3 = ell_C w - det(h) c_I of the Theta bottom rows); for det h > 0
    # they reduce to the displayed +-free forms
    return {
        "theta_I_sq_vs_theta_C": norm([sq(th1), -16.0 * Theta_C]),
        "theta_III_sq_vs_theta_Cperp":
            norm([sq(th3), -sgn_gt * sgn_h * 16.0 * Theta_Cp]),
        "theta_II_T342_Qchi": einstein._defined(
            st.generic, theta_II_T342_Qchi, T, pj.frame,
            np.array([j.value for j in pj.h]),
            th2, ell_C, Q_chi, Q_gamma, sgn_h, sgn_gt),
        "theta_sum_vs_gamma_root": einstein._defined(
            ~st.ell_c_zero,
            lambda ell_C, root, th1, th3, sgn_h: norm(
                [-2.0 * ell_C * root, sgn_h * th1, th3]),
            ell_C, root, th1, th3, sgn_h),
        "theta_II_sq_closure": einstein._defined(
            ~st.ell_c_zero,
            lambda ell_C, root, th1, th2, Q_chi, sgn_h, sgn_gt: norm(
                [sgn_gt * 4.0 * Q_chi * sq(ell_C),
                 -8.0 * th1 * root * ell_C,
                 sgn_h * 4.0 * sq(th1),
                 sq(th2)]),
            ell_C, root, th1, th2, Q_chi, sgn_h, sgn_gt),
    }


# ----------------------------------------------------------------------
# numerical independence ranks
# ----------------------------------------------------------------------

# the invariant sets whose rank `rank` measures: the jet order of their
# probe, their rank at a generic point, and whether the probe must lie on
# the transitive subspace d2 F_1^k = d1 F_2^k
RankSet = namedtuple("RankSet", "order generic transitive")
RANK_SETS = {"fundamental6": RankSet(1, 6, False),
             "fundamental6_transitive": RankSet(1, 4, True),
             "order2_20": RankSet(2, 20, False)}


def random_point_jets(seed, order=1, transitive=False):
    """Synthetic jet-space probe with nondegenerate h and gt blocks: its
    packed coordinates drawn gt, h, then F, each jet's value first."""
    rng = np.random.default_rng(seed)
    size = len(jets._IDX[order])

    def jet(first):  # first is drawn before the coefficients it replaces
        c = rng.uniform(-1.0, 1.0, size)
        c[0] = first
        return c

    gt, h = ([jet(2.0 + rng.uniform(-0.5, 0.5)), jet(rng.uniform(-0.4, 0.4)),
              jet(2.0 + rng.uniform(-0.5, 0.5))] for _ in range(2))
    x = np.concatenate(gt + [jet(rng.uniform(-0.8, 0.8)) for _ in range(4)]
                       + h)
    if transitive:
        for i, j in _curl_ties(order).items():
            x[i] = x[j] = 0.5 * (x[i] + x[j])
    return _unpack(x, order)


def _curl_ties(order):
    """{packed slot of d/dt2 F_1^k: packed slot of d/dt1 F_2^k} for k = 1,
    2: the coordinates a transitive probe (d2 F_1^k = d1 F_2^k) ties."""
    size, pos = len(jets._IDX[order]), jets._POS[order]
    return {(3 + k) * size + pos[0, 1]: (5 + k) * size + pos[1, 0]
            for k in range(2)}


def _pack(pj):
    return np.concatenate([np.array(j.coeffs)
                           for j in pj.all_component_jets()])


def _unpack(x, order):
    """PointJets of packed coordinates: (ncoords,) or a batch (ncoords, B)."""
    size = len(jets._IDX[order])
    coerce = jets.Jet2 if x.ndim == 1 else jets._jet  # floats or vectors
    return metrics.assemble((0.0, 0.0), order, [
        coerce(order, tuple(x[i:i + size])) for i in range(0, len(x), size)])


def _invariant_vector(pj, which):
    """The six fundamentals, or order2_20's 20 invariants of order <= 2."""
    vals = [pj.fundamentals[k].value for k in FUNDAMENTAL_IDS]
    if RANK_SETS[which].order == 2:
        from .invariants2 import SECOND_ORDER_COLUMNS
        vals += [pj.second[k]
                 for k in (*SECOND_ORDER_COLUMNS[:12], "C_ric", "C_nu")]
    return np.array(vals)


# central-difference step of jacobian_rank, relative to max(1, |coordinate|)
RANK_STEP = 1e-6


def jacobian(which, probe):
    """d(invariants)/d(jet coordinates) at the probe, central differences.

    For the transitive variant, the probe must lie in the subspace
    d2 F_1^k = d1 F_2^k (to GENERIC_TOL), and perturbations stay inside
    it; the curl-mean coordinates move in lockstep.
    """
    order = probe.order
    x0 = _pack(probe)

    directions = list(np.eye(len(x0)))
    if RANK_SETS[which].transitive:
        tied = _curl_ties(order)
        for k, (i, j) in enumerate(tied.items(), 1):
            curl = float(x0[i] - x0[j])
            if abs(curl) > metrics.GENERIC_TOL * (abs(x0[i]) + abs(x0[j])):
                raise G2InvError(
                    f"invariant set {which!r} needs a probe with zero "
                    f"curl, but d2 F_1^{k} - d1 F_2^{k} = {curl!r}")
        directions = [e + directions[tied[i]] if i in tied else e
                      for i, e in enumerate(directions)
                      if i not in tied.values()]

    steps = [RANK_STEP * max(1.0, float(abs(x0 @ e))) for e in directions]
    f = np.column_stack(metrics.each_point_or_raise(
        lambda x: list(np.atleast_2d(
            _invariant_vector(_unpack(x, order), which).T)),
        [x0 + s * h * e for h, e in zip(steps, directions)
         for s in (1.0, -1.0)]))
    return (f[:, 0::2] - f[:, 1::2]) / (2.0 * np.array(steps))


def jacobian_rank(which, probe, eps=1e-6):
    """Numerical rank of the jacobian of the invariant set at the probe."""
    return int(numerical_rank(jacobian(which, probe), eps))


def numerical_rank(J, eps):
    """The number of singular values of J above eps times the largest,
    its nonzero rows scaled to unit norm: the invariants span wildly
    different magnitudes, and the rank should reflect relative
    sensitivities.  A row whose norm overflows scales to zeros,
    silently.  J may be a stack of matrices (..., m, n), one rank each,
    in one stacked SVD."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(J, axis=-1)[..., None]
    J = np.divide(J, norms, out=np.zeros_like(J), where=norms > 0.0)
    svals = np.linalg.svd(J, compute_uv=False)
    return np.sum(svals > eps * svals[..., :1], axis=-1)
