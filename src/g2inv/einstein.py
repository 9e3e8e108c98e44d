"""Full 4D curvature, Lambda-vacuum residuals and on-shell relations.

Index order is (t1, t2, z1, z2); component fields depend on (t1, t2)
only, so z-derivatives vanish identically and the block structure of
the metric gives its inverse in closed form:

    g    = [[gt + P^T h P, P^T h], [h P, h]],        P_ki = F_i^k
    g^-1 = [[gt^-1, -gt^-1 P^T], [-P gt^-1, h^-1 + P gt^-1 P^T]]

Curvature convention: R(d_c, d_d) d_b = R^a_bcd d_a with
R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from . import jets, metrics
from .errors import G2InvError, SingularMetricError


def _stack(a, core):
    """(B,) + core stack of a batch's columns (one point: a stack of one)."""
    return a[None] if a.ndim == core \
        else np.ascontiguousarray(a.transpose(-1, *range(a.ndim - 1)))


def _unstack(s, pj):
    """A stack back in pj's layout: a batch's with a trailing point axis,
    one point's entry (a float for a scalar)."""
    if pj.batch:
        return s.transpose(*range(1, s.ndim), 0)
    return float(s[0]) if s.ndim == 1 else s[0]


def _form(a, g, b):
    """g(a, b) of stacks: a 1x4 @ 4x4 @ 4x1 product per column."""
    return (a[:, None] @ g @ b[:, :, None])[:, 0, 0]


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
_MIRROR = np.array([[0, 1], [1, 2]])
# entry (a, b) of [[tt, tz], [tz^T, zz]] as entry (block, i, j) of the
# stack [tt, tz, zz] of its 2x2 blocks
_HALF, _X = np.divmod(np.arange(4), 2)
_LOWER = _HALF[:, None] > _HALF
_BLOCKS = (_HALF[:, None] + _HALF, np.where(_LOWER, _X, _X[:, None]),
           np.where(_LOWER, _X[:, None], _X))


def _symmetric(tt, tz, zz):
    """The 4x4 block jet [[tt, tz], [tz^T, zz]] of 2x2 block jets."""
    return jets.part(jets.block([tt, tz, zz]), _BLOCKS)


def four_metric(pj):
    """The 4x4 block jet of the 4-metric in (t1, t2, z1, z2) order, by
    2x2 block jets: each entry the per-entry jet loop's, diagonal blocks
    as upper triangles."""
    part, i, j = jets.part, *UPPER
    Ft = jets.block([pj.F[0::2], pj.F[1::2]])  # Ft[k, i] = f_i^k
    h = jets.block([pj.h[:2], pj.h[1:]])
    with jets.block_errstate(pj.batch):
        # gt_ij + (f_ik f_jl) h_kl over (k, l), and f_ik h_kl over k
        tt = jets.fold(jets.block(pj.gt), part(Ft, np.s_[:, None, i])
                       * part(Ft, np.s_[None, :, j])
                       * part(h, np.s_[:, :, None]), 2)
        fh = part(Ft, np.s_[:, :, None]) * part(h, np.s_[:, None])
        return _symmetric(part(tt, _MIRROR), part(fh, 0) + part(fh, 1), h)


def inverse_four_metric(pj):
    """The 4x4 block jet of g^{ab}, of order pj.order - 1, via the
    submersion block formula, by 2x2 block jets as four_metric."""
    tr = lambda j: jets.truncate(j, pj.order - 1)
    gt11, gt12, gt22 = (tr(j) for j in pj.gt)
    h11, h12, h22 = (tr(j) for j in pj.h)
    part, k, l = jets.part, *UPPER
    F = jets.block([[tr(j) for j in pj.F[:2]], [tr(j) for j in pj.F[2:]]])
    with jets.block_errstate(pj.batch):
        gi = jets.block([[gt22, -gt12], [-gt12, gt11]]) / tr(pj.det_gt)
        hi = jets.block([[h22, -h12], [-h12, h11]]) / tr(pj.det_h)
        # -(gt^ij f_j^k over j) as gf[j, i, k] = gt^ji f_j^k (gt^ij and
        # gt^ji are the same quotient, bit for bit), and h^kl +
        # (f_i^k gt^ij) f_j^l over (i, j)
        gf = part(gi, np.s_[:, :, None]) * part(F, np.s_[:, None])
        zz = jets.fold(part(hi, np.s_[k, l]), part(F, np.s_[:, None, k])
                       * part(gi, np.s_[:, :, None])
                       * part(F, np.s_[None, :, l]), 2)
        return _symmetric(gi, -(part(gf, 0) + part(gf, 1)),
                          part(zz, _MIRROR))


def _christoffel(g, ginv):
    """Gamma^a_bc = 1/2 g^ad (d_b g_dc + d_c g_db - d_d g_bc) as the
    n x n x n block jet, of ginv's order, from the n x n block jets of
    the metric g (one order higher) and of its inverse ginv.  Only the
    first two coordinates, (t1, t2), carry derivatives."""
    n, part = len(ginv.value), jets.part
    dg = jets.gradient(g, n)  # dg[e, b, c] = d_e g_bc
    d, b, c = np.ix_(*[range(n)] * 3)
    bracket = part(dg, (b, d, c)) + part(dg, (c, d, b)) - dg
    # summed over d in turn, one d at a time (the per-entry jet loop's
    # bits, without every d's terms at once on a batch); a product
    # overflows silently, and its inf or NaN fails the sum or a reader
    acc = jets.constant(0.0, ginv.order)
    for k in range(n):
        with np.errstate(over="ignore", invalid="ignore"):
            term = part(ginv, np.s_[:, k, None, None]) * part(bracket, k)
        acc = acc + term
    return 0.5 * acc


def christoffel4(pj):
    """The 4x4x4 block jet of the Christoffel symbols, of pj.order - 1."""
    if pj.order < 1:
        raise ValueError("christoffel4 needs jets of order >= 1")
    return _christoffel(pj.g4, inverse_four_metric(pj))


def _riemann(gamma):
    """R^a_bcd values from a Christoffel block jet of order >= 1; only
    the first two coordinates, (t1, t2), carry derivatives."""
    dG = jets.gradient(gamma, len(gamma.value)).value  # dG[e] = d_e Gamma
    D = np.einsum("cadb...->abcd...", dG)
    P = np.einsum("ace...,edb...->abcd...", gamma.value, gamma.value)
    return D - D.swapaxes(2, 3) + P - P.swapaxes(2, 3)


def riemann4(pj):
    """R^a_bcd values (needs order >= 2 jets)."""
    if pj.order < 2:
        raise ValueError("riemann4 needs jets of order >= 2")
    return _riemann(pj.christoffel)


def ricci4(pj):
    """Ricci tensor values R_bd = R^a_bad."""
    return np.einsum("abad...->bd...", pj.riemann)


def sectional_curvature(pj, u, v):
    """K of the plane spanned by 4-vectors u, v (each (4, B) on a batch)."""
    g = _stack(pj.g4.value, 2)
    u, v = (np.asarray(x, dtype=float) for x in (u, v))
    # K = g(R(u, v) v, u) / (|u|^2 |v|^2 - g(u, v)^2), normalized so the
    # unit 2-sphere plane has K = +1
    w = np.einsum("abcd...,b...,c...,d...->a...", pj.riemann, v, u, v)
    w, u, v = (_stack(x, 1) for x in (w, u, v))
    # each column's products, and ** on its float64
    den = _form(u, g, u) * _form(v, g, v) \
        - np.array([x ** 2 for x in _form(u, g, v)])
    if (den == 0.0).any():
        raise SingularMetricError("degenerate plane for sectional curvature")
    return _unstack(_form(w, g, u) / den, pj)


def _check_lambda(pj, lam, size):
    """A G2InvError naming --lambda where |lam| times a finite size, the
    largest magnitude lam multiplies in a row, overflows at a point of pj."""
    with np.errstate(over="ignore", invalid="ignore"):
        if (np.isfinite(size) & np.isinf(abs(lam) * size)).any():
            raise G2InvError(f"--lambda {lam!r} is too large: its terms "
                             f"overflow at {pj.point}")


def residual(pj, lam):
    """Lambda-vacuum residual R_ab - Lambda g_ab at the point of pj, as a
    row: normalized = max_abs (largest |entry|) / scale (max |g4 coef|)."""
    _check_lambda(pj, lam, np.abs(pj.g4.value).max((0, 1)))
    with metrics.singular_on_overflow("residual"):
        max_abs = np.abs(ricci4(pj) - lam * pj.g4.value).max((0, 1))
    scale = np.abs(pj.g4.coeffs).max((0, 1, 2))
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
    F = [-j.value for j in pj.F]
    o, i = np.zeros_like(F[0]), np.ones_like(F[0])
    with metrics.singular_on_overflow("sectional_curvatures"):
        K_Xi, K_Xiperp = (sectional_curvature(pj, u, v) for u, v in (
            ((o, o, i, o), (o, o, o, i)), ((i, o, *F[:2]), (o, i, *F[2:]))))
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
