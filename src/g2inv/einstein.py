"""Full 4D curvature, Lambda-vacuum residuals and on-shell relations.

The curvature is taken in the adapted frame (X1, X2, d_z1, d_z2), X_i =
d_ti - F_i^k d_zk, where g = blockdiag(gt, h), g^-1 = blockdiag(gt^-1,
h^-1) and the one bracket is [X1, X2] = W^k d_zk, W^k = d2 F_1^k -
d1 F_2^k (Misner, Thorne & Wheeler, Gravitation, 1973, Box 14.5): F
enters through W alone, which a z-shift psi leaves unchanged.  X_i
differentiates a field of (t1, t2) as d_ti does, d_zk as 0.  The
Einstein residual is taken in the same frame, so no layer here reads F.

Curvature convention: R(e_c, e_d) e_b = R^a_bcd e_a with R^a_bcd =
e_c G^a_db - e_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb - c^e_cd G^a_eb,
[e_c, e_d] = c^e_cd e_e.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from . import jets, metrics
from .errors import G2InvError, SingularEvaluationError


def _stack(a, core):
    """(B,) + core stack of a batch's columns (one point: a stack of one)."""
    return a[None] if a.ndim == core \
        else np.ascontiguousarray(a.transpose(-1, *range(a.ndim - 1)))


def _max(first, *rest):
    """Python's max(first, *rest), column by column on a batch (a later
    value replaces the one kept only if greater, so NaN stays as max)."""
    if not isinstance(first, np.ndarray):
        return max((first, *rest))
    for value in rest:
        first = np.where(value > first, value, first)
    return first


def _defined(where, relation, *columns):
    """relation(*columns) where the stratum flag holds, None elsewhere; a
    batch computes it only on the columns (trailing axis) where it holds,
    as an object array."""
    if not isinstance(where, np.ndarray):
        return relation(*columns) if where else None
    out = np.full(where.shape, None, dtype=object)
    if where.any():
        out[where] = relation(*(c[..., where] for c in columns))
    return out


# the (i, j) of the upper triangle of a symmetric 2x2 block, and each
# entry's position among them
UPPER = (np.array([0, 0, 1]), np.array([0, 1, 1]))
# entry (a, b) of [[tt, tz], [tz^T, zz]] as entry (block, i, j) of the
# stack [tt, tz, zz] of its 2x2 blocks
_HALF, _X = np.divmod(np.arange(4), 2)
_LOWER = _HALF[:, None] > _HALF
_BLOCKS = (_HALF[:, None] + _HALF, np.where(_LOWER, _X, _X[:, None]),
           np.where(_LOWER, _X[:, None], _X))


def _symmetric(tt, tz, zz):
    """The 4x4 block jet [[tt, tz], [tz^T, zz]] of 2x2 block jets."""
    return jets.part(jets.block([tt, tz, zz]), _BLOCKS)


def _christoffel(g, ginv, koszul=None):
    """Gamma^a_bc = 1/2 g^ad (e_b g_dc + e_c g_db - e_d g_bc + koszul_dbc)
    as the n x n x n block jet of ginv's order, from the n x n block jets
    of the metric g (one order higher) and its inverse ginv in a frame
    whose first two vectors differentiate as d_t1 and d_t2, the rest as
    0; koszul, if given, holds its bracket terms c_dbc - c_cbd - c_bcd,
    c_dbc = g([e_b, e_c], e_d)."""
    n, part = len(ginv.value), jets.part
    dg = jets.gradient(g, n)  # dg[e, b, c] = e_e g_bc
    d, b, c = np.ix_(*[range(n)] * 3)
    bracket = part(dg, (b, d, c)) + part(dg, (c, d, b)) - dg
    if koszul is not None:
        bracket = bracket + koszul
    # summed over d in turn, one d at a time (the per-entry jet loop's
    # bits, without every d's terms at once on a batch)
    acc = jets.constant(0.0, ginv.order)
    for k in range(n):
        acc = acc + part(ginv, np.s_[:, k, None, None]) * part(bracket, k)
    return 0.5 * acc


# Koszul's terms c_dbc - c_cbd - c_bcd of the frame's lowered bracket
# c_(2+l)01 = w_l = -c_(2+l)10, as _KOSZUL[d, b, c, l] w_l
_KOSZUL = np.zeros((4, 4, 4, 2))
_KOSZUL[2:, 0, 1], _KOSZUL[2:, 1, 0] = np.eye(2), -np.eye(2)
_KOSZUL -= np.einsum("cbdl->dbcl", _KOSZUL) + np.einsum("bcdl->dbcl", _KOSZUL)


def christoffel4(pj):
    """The 4x4x4 block jet of the frame's Christoffel symbols, of
    pj.order - 1, with the lowered bracket c_(2+l)01 = h_lk pj.curl^k."""
    tr, W = (lambda j: jets.truncate(j, pj.order - 1)), pj.curl
    (g11, g12, g22), (h11, h12, h22) = ([tr(j) for j in m]
                                        for m in (pj.gt, pj.h))
    gt, h = (jets.block([m[:2], m[1:]]) for m in (pj.gt, pj.h))
    gi = jets.block([[g22, -g12], [-g12, g11]]) / tr(pj.det_gt)
    hi = jets.block([[h22, -h12], [-h12, h11]]) / tr(pj.det_h)
    w = jets.block([h11 * W[0] + h12 * W[1], h12 * W[0] + h22 * W[1]])
    return _christoffel(
        _symmetric(gt, 0.0 * gt, h), _symmetric(gi, 0.0 * gi, hi),
        jets._jet(w.order, tuple(_KOSZUL @ x for x in w.coeffs)))


def _riemann(gamma):
    """R^a_bcd values from a Christoffel block jet of order >= 1, with
    no bracket term; only the first two indices carry derivatives."""
    dG = jets.gradient(gamma, len(gamma.value)).value  # dG[e] = e_e Gamma
    D = np.einsum("cadb...->abcd...", dG)
    P = np.einsum("ace...,edb...->abcd...", gamma.value, gamma.value)
    return D - D.swapaxes(2, 3) + P - P.swapaxes(2, 3)


def riemann4(pj):
    """R^a_bcd values in the frame (order >= 2 jets): _riemann's less
    c^e_cd G^a_eb, which is W^k G^a_(2+k)b at (c, d) = (0, 1); overflow
    or invalid arithmetic in it is a SingularEvaluationError."""
    G, (W1, W2) = pj.christoffel.value, (w.value for w in pj.curl)
    with metrics.singular_on_overflow("riemann4"):
        R, term = _riemann(pj.christoffel), W1 * G[:, 2] + W2 * G[:, 3]
        R[:, :, 0, 1] -= term
        R[:, :, 1, 0] += term
    return R


def sectional_curvatures(pj):
    """K_Xi and K_Xiperp: g(R(u, v) v, u) of the Killing plane (d_z1,
    d_z2) and the horizontal one (X1, X2) over det h and det gt."""
    R = pj.riemann
    (a, b, _), (p, q, _) = ([j.value for j in js] for js in (pj.gt, pj.h))
    return ((p * R[2, 3, 2, 3] + q * R[3, 3, 2, 3]) / pj.det_h.value,
            (a * R[0, 1, 0, 1] + b * R[1, 1, 0, 1]) / pj.det_gt.value)


def _check_lambda(pj, lam, size):
    """A G2InvError naming --lambda where |lam| times a finite size, the
    largest magnitude lam multiplies in a row, overflows at a point of pj."""
    with np.errstate(over="ignore", invalid="ignore"):
        if (np.isfinite(size) & np.isinf(abs(lam) * size)).any():
            raise G2InvError(f"--lambda {lam!r} is too large: its terms "
                             f"overflow at {pj.point}")


def residual(pj, lam):
    """Lambda-vacuum residual Ric_ab - Lambda g_ab in the frame, Ric_bd =
    R^a_bad, at the point of pj, as a row: normalized = max_abs (largest
    |entry|) / scale (max |coefficient| of the gt and h jets)."""
    g = np.zeros((4, 4, *np.shape(pj.det_h.value)))  # blockdiag(gt, h)
    g[:2, :2], g[2:, 2:] = (jets.block([m[:2], m[1:]]).value
                            for m in (pj.gt, pj.h))
    _check_lambda(pj, lam, np.abs(g).max((0, 1)))
    with metrics.singular_on_overflow("residual"):
        ric = np.einsum("abad...->bd...", pj.riemann)
        max_abs = np.abs(ric - lam * g).max((0, 1))
    scale = np.abs([j.coeffs for j in pj.gt + pj.h]).max((0, 1))
    for key, x in (("max_abs", max_abs), ("scale", scale)):
        if not np.isfinite(x).all():
            raise SingularEvaluationError("residual", float(np.max(x)),
                                          f"non-finite {key}")
    if not pj.batch:
        max_abs, scale = float(max_abs), float(scale)
    return {"normalized": max_abs / scale, "max_abs": max_abs,
            "scale": scale}


def _normalized(terms, scales=()):
    """Signed residual normalized by the largest monomial magnitude.

    scales carries magnitudes of sub-terms hidden inside composite
    coefficients, so a relation whose terms all cancel to roundoff is
    reported as satisfied rather than as 0/0 noise.  The terms are
    summed left to right from 0.0, as Python's sum does from 0.
    """
    scale = _max(*map(abs, terms))
    if scales:
        scale = _max(scale, *scales, 0.0)
    total = functools.reduce(operator.add, terms, 0.0)
    if not isinstance(scale, np.ndarray):
        return total / scale if scale > 0.0 else 0.0
    return np.divide(total, scale, out=np.zeros(scale.shape),
                     where=scale > 0.0)


def onshell_relations(pj, lam):
    """Residuals of the on-shell relation suite at the point of pj.

    The row also carries the normalized Einstein residual, which is not
    one of the relations: it makes a violation of the relations on a
    non-vacuum metric attributable.
    """
    _pow = jets._pow  # x ** k per element, as on one point's floats
    jv = pj.fundamentals
    sec = pj.second
    # K of the Killing and the horizontal plane by the Riemann tensor, a
    # check of the 4D curvature (pj.second's are the propositions')
    K_Xi, K_Xiperp = sectional_curvatures(pj)
    sg = pj.stratum.sign_det_gt
    sgh = sg * pj.stratum.sign_det_h

    C_rho = jv["C_rho"].value
    C_chi = jv["C_chi"].value
    Q_chi = jv["Q_chi"].value
    Q_gamma = jv["Q_gamma"].value
    ell_C = jv["ell_C"].value
    th1 = jv["Theta_I"].value
    root = pj.q_gamma_root.value
    X_Crho, Xp_Crho = sec["X_C_rho"], sec["Xperp_C_rho"]
    X_ellC, Xp_ellC = sec["X_ell_C"], sec["Xperp_ell_C"]

    _check_lambda(pj, lam, 4.0 * _max(abs(C_rho), 1.0))  # 4 lam C_rho
    dq = Q_chi - Q_gamma
    big = _max(abs(C_rho), abs(C_chi), 4.0 * abs(lam), abs(ell_C))
    row = {
        "ric_chi_ellC": _normalized(
            [sec["C_ric"], 0.5 * C_chi, -sg * 1.5 * ell_C]),
        "nu_ellC_rho": _normalized(
            [sec["C_nu"], -sg * ell_C, 4.0 * lam, 0.5 * C_rho]),
        "Xperp_Crho_sq": _normalized(
            [sg * _pow(Xp_Crho, 2), 4.0 * Q_chi * _pow(C_rho, 2),
             -16.0 * dq * C_chi * C_rho, 64.0 * _pow(dq, 2)],
            scales=(16.0 * (abs(Q_chi) + abs(Q_gamma))
                    * abs(C_chi * C_rho),
                    64.0 * (_pow(Q_chi, 2) + _pow(Q_gamma, 2)))),
        "Xperp_ellC_sq": _normalized(
            [sg * _pow(Xp_ellC, 2),
             sgh * 4.0 * (th1 - 2.0 * ell_C * root) * th1,
             4.0 * _pow(ell_C, 2) * Q_chi],
            scales=(4.0 * (abs(th1) + 2.0 * abs(ell_C * root))
                    * abs(th1),)),
        "X_Crho": _normalized(
            [X_Crho, (C_rho - C_chi + 4.0 * lam - sg * ell_C) * C_rho,
             8.0 * dq],
            scales=(big * abs(C_rho),
                    8.0 * (abs(Q_chi) + abs(Q_gamma)))),
        "X_ellC_long": _normalized(
            [dq * _pow(X_ellC, 2),
             -sgh * C_rho * root * th1 * X_ellC,
             (3.0 * Q_chi - 2.0 * Q_gamma) * C_rho * ell_C * X_ellC,
             (C_chi * C_rho * Q_chi + 2.0 * _pow(C_rho, 2) * Q_chi
              - _pow(C_rho, 2) * Q_gamma - 4.0 * _pow(Q_chi, 2)
              + 4.0 * Q_chi * Q_gamma) * _pow(ell_C, 2),
             -sgh * (2.0 * C_chi * C_rho + _pow(C_rho, 2)
                     - 8.0 * Q_chi) * root * th1 * ell_C,
             -8.0 * _pow(root, 3) * th1 * ell_C,
             sgh * (C_chi * C_rho - 0.25 * _pow(C_rho, 2) - 4.0 * Q_chi
                    + 4.0 * Q_gamma) * _pow(th1, 2)],
            scales=((abs(C_chi * C_rho * Q_chi)
                     + 2.0 * _pow(C_rho, 2) * abs(Q_chi)
                     + _pow(C_rho, 2) * abs(Q_gamma) + 4.0 * _pow(Q_chi, 2)
                     + 4.0 * abs(Q_chi * Q_gamma)) * _pow(ell_C, 2),
                    (2.0 * abs(C_chi * C_rho) + _pow(C_rho, 2)
                     + 8.0 * abs(Q_chi)) * abs(root * th1 * ell_C),
                    (3.0 * abs(Q_chi) + 2.0 * abs(Q_gamma))
                    * abs(C_rho * ell_C * X_ellC))),
    }
    row["gauss_equality"] = _normalized([K_Xiperp, -K_Xi])
    row["einstein_normalized"] = residual(pj, lam)["normalized"]
    return row
