"""Local equivalence via sampled invariant signatures.

A signature samples the six fundamental invariants across a grid: each
sample is a point of the metric's classifying manifold, the surface the
map (t1, t2) -> (C_rho, ..., Theta_I_sq) traces in six-space.  Two
metrics are locally equivalent iff their classifying manifolds overlap
(Olver, Equivalence, Invariants, and Symmetry, 1995, ch. 8 and 14), so
every sample of one metric is projected onto the other metric's
classifying manifold.  The verdict is a sampling-based check, not a
proof: "Consistent" means an open set of samples matched on both sides,
not that every sample did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets, metrics
from .errors import G2InvError, InsufficientCoverageError
from .invariants1 import FUNDAMENTAL_IDS
from .invariants2 import DELTA_TOL


@dataclass
class Sample:
    point: tuple
    values: tuple    # the six fundamentals, in FUNDAMENTAL_IDS order
    jac: np.ndarray  # their 6x2 t-Jacobian


@dataclass
class Signature:
    samples: list


# fewest generic samples a signature needs
MIN_SAMPLES = 8


def _fundamentals(pj):
    """The six fundamentals at a point and their 6x2 t-Jacobian."""
    jv = pj.fields
    values = np.array([jv[k].value for k in FUNDAMENTAL_IDS])
    jac = np.array([[jets.t_derivative(jv[k], s).value for s in (0, 1)]
                    for k in FUNDAMENTAL_IDS])
    return values, jac


def _rank2(jac):
    """Do the fundamentals have two independent gradients?  Rows are
    normalised first, so no invariant's size weighs in."""
    norms = np.linalg.norm(jac, axis=1)
    keep = norms > 0.0
    s = np.linalg.svd(jac[keep] / norms[keep, None], compute_uv=False)
    return len(s) == 2 and s[1] >= DELTA_TOL * s[0]


def build_signature(m, rect=None, n=12):
    """Sample the classifying manifold of a metric over a rectangle.

    A grid point is skipped where the metric cannot be evaluated, is not
    generic, or its fundamentals do not have rank 2 there.
    """
    rect = rect or metrics.default_domain(m)
    if rect is None:
        # unknown user metric: scan a default box; invalid or
        # non-generic grid points are skipped anyway
        rect = ((-1.5, 1.5), (-1.5, 1.5))
    samples = []
    for pt in metrics.grid_points(rect, n, margin=0.02):
        try:
            pj = metrics.point_jets(m, pt, order=2)
            generic = pj.stratum.generic
            values, jac = _fundamentals(pj)
        except (G2InvError, ArithmeticError):
            continue
        if (generic and np.isfinite(values).all()
                and np.isfinite(jac).all() and _rank2(jac)):
            samples.append(Sample(pj.point, tuple(values), jac))
    if len(samples) < MIN_SAMPLES:
        raise InsufficientCoverageError(
            f"only {len(samples)} generic samples retained for {m.name!r} "
            f"(need {MIN_SAMPLES}); the signature criterion is unavailable "
            "on this stratum")
    return Signature(samples=samples)


@dataclass
class Verdict:
    verdict: str                 # "Consistent" | "Inconsistent" | "Inconclusive"
    coverage_a: float            # matched fraction of A's samples
    coverage_b: float
    max_discrepancy: float       # largest residual of a matched sample
    witness: dict = None
    note: str = ""

    def exit_code(self):
        return {"Consistent": 0, "Inconsistent": 1, "Inconclusive": 3}[
            self.verdict]


def _scales(values):
    """Inter-quartile range of each fundamental over the samples (its
    largest magnitude, at least 1, where that range is 0)."""
    q75, q25 = np.percentile(values, [75, 25], axis=0)
    iqr = q75 - q25
    return np.where(iqr > 0, iqr,
                    np.maximum(np.max(np.abs(values), axis=0), 1.0))


# scaled residual at which a projection has converged
CONVERGED = 1e-10


def _project(m, target, starts, scales):
    """Gauss-Newton projection of a six-vector onto the classifying
    manifold of m: (residual, point, values) of the nearest point found.

    The starts are samples of m, whose values and Jacobian serve as the
    first evaluation.  The residual is the norm of the scaled difference
    of the six fundamentals.  Each start runs until an evaluation fails,
    the residual stalls or 12 evaluations are spent; the first start
    that converges settles the search.
    """
    best = (np.inf, None, None)
    for start in starts:
        pt, prev = np.array(start.point), np.inf
        point, values, jac = start.point, np.array(start.values), start.jac
        for _ in range(12):
            if point is None:
                try:
                    pj = metrics.point_jets(m, pt, order=2)
                    values, jac = _fundamentals(pj)
                except (G2InvError, ArithmeticError):
                    break
                point = pj.point
            r = (values - target) / scales
            res = float(np.linalg.norm(r))
            if not (np.isfinite(res) and np.isfinite(jac).all()):
                break
            if res < best[0]:
                best = (res, point, values)
            if res < CONVERGED or res > 0.9 * prev:
                break
            prev = res
            step = np.linalg.lstsq(jac / scales[:, None], r, rcond=None)[0]
            limit = 0.5 * (1.0 + np.linalg.norm(pt))
            norm = np.linalg.norm(step)
            if norm > limit:
                step *= limit / norm
            pt, point = pt - step, None
        if best[0] < CONVERGED:
            break
    return best


def compare_metrics(ma, mb, n=12, tol=1e-4, rect_a=None, rect_b=None):
    """Signature comparison on the classifying manifolds.

    Both signatures are sampled, then every sample of one metric (at
    most 48 per side) is projected onto the other metric's classifying
    manifold by Gauss-Newton in (t1, t2), started from the four nearest
    samples of the other metric; each fundamental is scaled by its
    inter-quartile range over both sample sets.  A sample matches when
    its scaled residual is below tol.  The verdict is Consistent when at
    least half the samples of each side match, Inconsistent when none
    does; its witness is the sample with the smallest residual and the
    point where that residual is reached, with both sets of
    fundamentals.
    Stratum mismatches are verdicts of their own: if exactly one side
    is degenerate the metrics cannot be equivalent, if both are, the
    criterion does not apply.
    """
    try:
        sig_a = build_signature(ma, rect=rect_a, n=n)
    except InsufficientCoverageError:
        sig_a = None
    try:
        sig_b = build_signature(mb, rect=rect_b, n=n)
    except InsufficientCoverageError:
        sig_b = None
    if sig_a is None and sig_b is None:
        return Verdict("Inconclusive", 0.0, 0.0, 0.0,
                       note="neither metric is generic on the sampled "
                            "domain; the signature criterion does not apply")
    if sig_a is None or sig_b is None:
        degenerate = ma.name if sig_a is None else mb.name
        return Verdict("Inconsistent", 0.0, 0.0, 0.0,
                       note=f"{degenerate!r} is degenerate "
                            "(no generic samples) while the other metric "
                            "is generic: different strata")

    scales = _scales(np.array([s.values for s in
                               sig_a.samples + sig_b.samples]))

    def match(samples_from, m_to, samples_to, cap=48):
        """(residual, from point, to point, from values, to values) of
        each sample of samples_from, projected onto m_to."""
        v_to = np.array([s.values for s in samples_to])
        out = []
        for s in samples_from[::max(1, len(samples_from) // cap)]:
            v = np.array(s.values)
            d = np.linalg.norm((v_to - v) / scales, axis=1)
            starts = [samples_to[j] for j in np.argsort(d)[:4]]
            res, point, values = _project(m_to, v, starts, scales)
            out.append((res, s.point, point, v, values))
        return out

    rows_a = match(sig_a.samples, mb, sig_b.samples)
    # B's samples projected onto A, with A's side first
    rows_b = [(res, pa, pb, a, b) for res, pb, pa, b, a
              in match(sig_b.samples, ma, sig_a.samples)]
    coverage_a, coverage_b = (sum(r[0] < tol for r in rows) / len(rows)
                              for rows in (rows_a, rows_b))
    max_disc = max((r[0] for r in rows_a + rows_b if r[0] < tol),
                   default=0.0)
    if coverage_a == coverage_b == 0.0:
        res, pa, pb, a, b = min(rows_a + rows_b, key=lambda r: r[0])
        witness = {"a_point": list(pa), "b_point": list(pb),
                   "a_values": dict(zip(FUNDAMENTAL_IDS, map(float, a))),
                   "b_values": dict(zip(FUNDAMENTAL_IDS, map(float, b))),
                   "scales": dict(zip(FUNDAMENTAL_IDS, map(float, scales))),
                   "residual": res}
        return Verdict("Inconsistent", 0.0, 0.0, 0.0, witness=witness,
                       note="no sample of either metric lies on the other's "
                            "classifying manifold")
    if min(coverage_a, coverage_b) < 0.5:
        return Verdict("Inconclusive", coverage_a, coverage_b, max_disc,
                       note="the classifying manifolds overlap only on "
                            "part of the samples; criterion untestable "
                            "from these samples")
    return Verdict("Consistent", coverage_a, coverage_b, max_disc,
                   note="the samples of both metrics lie on the other's "
                        "classifying manifold at this sampling resolution")


# ----------------------------------------------------------------------
# Van den Bergh closed-form characterization
# ----------------------------------------------------------------------

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
