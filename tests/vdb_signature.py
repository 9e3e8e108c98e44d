"""The Van den Bergh class in closed form: its four dependent
fundamentals as functions of (C_rho, ell_C), and a check of sampled
points against them."""

from g2inv.invariants1 import FUNDAMENTAL_IDS


def vdb_oracle(c_rho, ell_c):
    """Closed-form (C_chi, Q_chi, Q_gamma, Theta_I_sq) of the Van den
    Bergh class as functions of (C_rho, ell_C)."""
    s = c_rho + 2.0 * ell_c
    if s == 0.0:
        raise ZeroDivisionError("pole: C_rho + 2*ell_C = 0")
    p = c_rho ** 2 + 4.0 * c_rho * ell_c + 4.0 * ell_c ** 2
    c_chi = -3.0 * ell_c * (-8.0 * ell_c ** 6 + p ** 2) / s ** 4
    q_chi = (-3.0 * ell_c
             * (48.0 * ell_c ** 7 + c_rho * p ** 2)
             * (p ** 2 - 4.0 * ell_c ** 6) / (4.0 * s ** 8))
    q_gamma = -36.0 * ell_c ** 8 * (p ** 2 - 4.0 * ell_c ** 6) / s ** 8
    return c_chi, q_chi, q_gamma, -ell_c ** 2 * q_gamma


def characterize_vdb(pjs, tol=1e-6):
    """Does the metric satisfy the Van den Bergh invariant signature at
    the points of these PointJets?"""
    rows = []
    ok = True
    for pj in pjs:
        pt = pj.point
        jv = pj.fields
        got = {k: jv[k].value for k in FUNDAMENTAL_IDS}
        try:
            want = vdb_oracle(got["C_rho"], got["ell_C"])
        except ZeroDivisionError:
            rows.append({"point": pt, "residual": None,
                         "notice": "oracle pole"})
            continue
        keys = ("C_chi", "Q_chi", "Q_gamma", "Theta_I_sq")
        resid = max(abs(got[k] - w) / max(1.0, abs(got[k]), abs(w))
                    for k, w in zip(keys, want))
        ok = ok and resid < tol
        rows.append({"point": pt, "residual": resid, "notice": None})
    return ok, rows
