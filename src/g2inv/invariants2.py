"""Invariant differentiations X, Xperp and the second-order invariants.

First-order invariants computed from order-2 component jets come out as
order-1 jets, i.e. carrying their own exact first derivatives on the
orbit space.  Applying the invariant vector fields X, Xperp to them is
then a pointwise contraction; no symbolic differentiation and no
higher-order metric jets are involved.
"""

from __future__ import annotations

import numpy as np

from . import einstein, jets, metrics
# perfbench/bench_selftest.py checks that its tracer rewraps this binding
from .invariants1 import FUNDAMENTAL_IDS, first_invariant_jets  # noqa: F401


# the report columns of the second-order invariants: X and Xperp of each
# fundamental, then the scalars of the paper's second-order construction
SECOND_ORDER_COLUMNS = (
    *("X_" + k for k in FUNDAMENTAL_IDS),
    *("Xperp_" + k for k in FUNDAMENTAL_IDS),
    "C_ric", "Q_ric", "C_nu", "C_nu_prime", "Q_nu", "K_Xi", "K_Xiperp",
    "J1", "J2")


def _trace_det(mu, gi, det_gt):
    """C_mu = tr(gt^-1 mu) and Q_mu = det mu / det gt of the 2x2 mu, from
    gi = (gt^11, gt^12, gt^22) and det gt."""
    (a, b), (c, d) = mu
    return gi[0] * a + gi[1] * (b + c) + gi[2] * d, (a * d - b * c) / det_gt


def _hessian_log_det_h(pj, gamma2):
    """nu_ij = Hess(ln|det h|) w.r.t. the orbit Levi-Civita connection."""
    L = jets.elementary("ln", jets.flip(pj.det_h, pj.stratum.sign_det_h > 0))
    dL = [jets.t_derivative(L, s) for s in range(2)]
    nu = np.zeros((2, 2) + np.shape(L.value))
    for i in range(2):
        for j in range(2):
            nu[i][j] = jets.t_derivative(dL[i], j).value - sum(
                gamma2.value[k, i, j] * dL[k].value for k in range(2))
    return nu


def second_invariants_from_jets(pj):
    """The second-order invariants from order-2 component jets, keyed by
    SECOND_ORDER_COLUMNS, and ric_scale, the size of the terms C_ric sums;
    K_Xi and K_Xiperp by the paper's Gauss-curvature propositions, with no
    4D curvature (sg = sgn det gt)."""
    jv, d = pj.fundamentals, pj.derivations
    X = (d["X1"].value, d["X2"].value)
    Xp = (d["Xp1"].value, d["Xp2"].value)
    # X_k, then Xperp_k: the first twelve columns
    sec = dict(zip(SECOND_ORDER_COLUMNS, [
        jets.along(v, jv[k]) for v in (X, Xp) for k in FUNDAMENTAL_IDS]))

    # the orbit metric's Christoffel block jet (order pj.order - 1), and
    # C and Q of its Ricci tensor and of nu from the fundamentals' gt^-1
    # and det gt
    gamma = einstein._christoffel(*(jets.block([m[:2], m[1:]])
                                    for m in (pj.gt, jv["gi"])))
    ric = np.einsum("abad...->bd...", einstein._riemann(gamma))
    nu = _hessian_log_det_h(pj, gamma)
    if not pj.batch:  # Python floats: overflow is silent, as on floats
        ric, nu = ric.tolist(), nu.tolist()
    gi, det_gt = [x.value for x in jv["gi"]], pj.det_gt.value
    c_ric, q_ric = _trace_det(ric, gi, det_gt)
    C_nu, Q_nu = _trace_det(nu, gi, det_gt)
    # ric_scale, the size of the terms C_ric sums: |g^-1| (|dGamma| +
    # |Gamma|^2), inf as on floats
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(gamma.value).max((0, 1, 2))
        ric_scale = np.abs(gi).max(0) * (
            np.abs(jets.gradient(gamma, 2).value).max((0, 1, 2, 3))
            + size * size)
    C_rho = jv["C_rho"].value
    C_chi = jv["C_chi"].value
    sg = pj.stratum.sign_det_gt
    sec.update(
        C_ric=c_ric, Q_ric=q_ric, C_nu=C_nu,
        C_nu_prime=C_nu - 2.0 * C_chi + C_rho, Q_nu=Q_nu,
        K_Xi=-0.25 * C_chi,  # the Killing leaf's sectional curvature
        # the horizontal plane's sectional curvature
        K_Xiperp=0.5 * c_ric - sg * 0.75 * jv["ell_C"].value,
        J1=None, J2=None,  # None where C_rho ~ 0 (pj.stratum.c_rho_zero)
        ric_scale=ric_scale if pj.batch else float(ric_scale))

    batch = isinstance(C_rho, np.ndarray)  # J1, J2 NaN where C_rho ~ 0
    if batch or not pj.stratum.c_rho_zero:
        c = np.where(pj.stratum.c_rho_zero, np.nan, C_rho) if batch else C_rho
        sec["J1"] = -sec["Xperp_C_rho"] / c
        sec["J2"] = sec["X_C_rho"] / c - C_nu
    return sec


# relative size below which the Jacobian of an invariant pair along
# (X, Xperp) counts as singular
DELTA_TOL = 1e-8


def bracket_residual(pj):
    """Commutator check: [X, Xperp] against J1 X + J2 Xperp (None where
    J1, J2 are undefined; on a batch, in those columns)."""
    sec = pj.second
    comp = pj.derivations
    vals = {k: v.value for k, v in comp.items()}

    def d(key, s):
        return jets.t_derivative(comp[key], s).value

    def residual(X1, X2, Xp1, Xp2, J1, J2, *partials):
        # partials: d_s X1, d_s X2, d_s Xp1, d_s Xp2 for s = 0, 1
        dX, dXp = partials[:4], partials[4:]
        X, Xp = (X1, X2), (Xp1, Xp2)
        diff = [X1 * dXp[2 * i] + X2 * dXp[2 * i + 1]
                - Xp1 * dX[2 * i] - Xp2 * dX[2 * i + 1]
                - J1 * X[i] - J2 * Xp[i] for i in range(2)]
        norm = np.hypot(X1, X2) + np.hypot(Xp1, Xp2)
        return np.hypot(*diff) / norm

    value = einstein._defined(
        ~pj.stratum.c_rho_zero, residual,
        *(vals[k] for k in ("X1", "X2", "Xp1", "Xp2")), sec["J1"], sec["J2"],
        *(d(k, s) for k in ("X1", "X2", "Xp1", "Xp2") for s in range(2)))
    return value if pj.batch or value is None else float(value)


def relations_second(pj):
    """Residuals of the second-order relations at a point (a (B,) vector
    each on a batch): Q_ric, Q_nu and the commutator (None where J1, J2
    are undefined).

    A curvature below GENERIC_TOL of the size of the terms it is summed
    from reads as zero, so Q_ric = C_ric^2/4 holds on a flat orbit metric
    whose curvature comes out as roundoff."""
    sq = lambda x: jets._pow(x, 2)  # noqa: E731  (x ** 2 per element)
    sec = pj.second
    sg = pj.stratum.sign_det_gt
    C_rho = pj.fundamentals["C_rho"].value
    floor = metrics.GENERIC_TOL * sec["ric_scale"]
    return {
        "q_ric": einstein._normalized(
            [sec["Q_ric"], -0.25 * sq(sec["C_ric"])],
            scales=(floor * floor,)),
        "q_nu": einstein._normalized([4.0 * sq(C_rho) * sec["Q_nu"],
                                      sq(sec["X_C_rho"]),
                                      sg * sq(sec["Xperp_C_rho"]),
                                      -2.0 * sec["C_nu"] * C_rho
                                      * sec["X_C_rho"]]),
        "commutator": bracket_residual(pj),
    }
