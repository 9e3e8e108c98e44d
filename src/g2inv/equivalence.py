"""Local equivalence via sampled invariant signatures.

A signature records how the remaining fundamental invariants depend on
a chosen functionally independent pair (I1, I2) across a sampling grid.
Two metrics whose signatures agree wherever the ranges overlap pass the
necessary-and-sufficient dependence criterion at the sampled
resolution; the verdict is a sampling-based check, not a proof --
"Consistent" means no obstruction was found at this resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets, metrics
from .errors import (G2InvError, InsufficientCoverageError,
                     MetricDefinitionError)
from .invariants1 import FUNDAMENTAL_IDS

PAIR_ALIASES = {
    "Crho": "C_rho", "Cchi": "C_chi", "Qchi": "Q_chi", "Qgamma": "Q_gamma",
    "lC": "ell_C", "ellC": "ell_C", "ThetaIsq": "Theta_I_sq",
}


def canonical_id(name):
    name = PAIR_ALIASES.get(name, name)
    if name not in FUNDAMENTAL_IDS:
        raise MetricDefinitionError(f"unknown invariant id {name!r}")
    return name


@dataclass
class Sample:
    point: tuple
    I1: float
    I2: float
    rest: dict


@dataclass
class Signature:
    pair: tuple
    samples: list


# fewest generic samples a signature needs, and the relative size below
# which the Jacobian of the pair along (X, Xperp) counts as singular
MIN_SAMPLES = 8
DELTA_TOL = 1e-8


def build_signature(m, rect=None, n=12, pair=("C_rho", "ell_C")):
    """Sample the invariant signature of a metric over a rectangle."""
    pair = tuple(canonical_id(x) for x in pair)
    rect = rect or metrics.default_domain(m)
    if rect is None:
        # unknown user metric: scan a default box; invalid or
        # non-generic grid points are skipped anyway
        rect = ((-1.5, 1.5), (-1.5, 1.5))
    rest_keys = [k for k in FUNDAMENTAL_IDS if k not in pair]
    samples = []
    for pt in metrics.grid_points(rect, n, margin=0.02):
        try:
            pj = metrics.point_jets(m, pt, order=2)
        except (G2InvError, ArithmeticError):
            continue
        if not metrics.classify(pj).generic:
            continue
        jv = pj.fields
        X = (jv["X1"].value, jv["X2"].value)
        Xp = (jv["Xp1"].value, jv["Xp2"].value)
        a11, a12 = jets.along(X, jv[pair[0]]), jets.along(X, jv[pair[1]])
        a21, a22 = jets.along(Xp, jv[pair[0]]), jets.along(Xp, jv[pair[1]])
        scale = max(abs(a11 * a22), abs(a12 * a21), 1e-300)
        if abs(a11 * a22 - a12 * a21) < DELTA_TOL * scale:
            continue
        samples.append(Sample(
            point=pj.point,
            I1=jv[pair[0]].value, I2=jv[pair[1]].value,
            rest={k: jv[k].value for k in rest_keys}))
    if len(samples) < MIN_SAMPLES:
        raise InsufficientCoverageError(
            f"only {len(samples)} generic samples retained for {m.name!r} "
            f"(need {MIN_SAMPLES}); the signature criterion is unavailable "
            "on this stratum")
    return Signature(pair=pair, samples=samples)


@dataclass
class Verdict:
    verdict: str                 # "Consistent" | "Inconsistent" | "Inconclusive"
    coverage_a: float
    coverage_b: float
    max_discrepancy: float
    witness: dict = None
    note: str = ""

    def exit_code(self):
        return {"Consistent": 0, "Inconsistent": 1, "Inconclusive": 3}[
            self.verdict]


def _axis_scales(samples_a, samples_b):
    out = []
    for attr in ("I1", "I2"):
        vals = np.array([getattr(s, attr) for s in samples_a]
                        + [getattr(s, attr) for s in samples_b])
        q75, q25 = np.percentile(vals, [75, 25])
        iqr = q75 - q25
        out.append(iqr if iqr > 0 else max(np.max(np.abs(vals)), 1.0))
    return out


def _scaled_points(samples, sa):
    return np.array([[s.I1 / sa[0], s.I2 / sa[1]] for s in samples])


def _radius(pa, pb):
    """Three times the median nearest-neighbour distance of the denser
    of the two scaled sample sets."""
    dense = pa if len(pa) >= len(pb) else pb
    d2 = np.sum((dense[:, None, :] - dense[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return 3.0 * float(np.median(np.sqrt(np.min(d2, axis=1))))


def _invariants_at(m, pt, pair):
    jv = metrics.point_jets(m, pt, order=2).fields
    vals = {k: jv[k].value for k in FUNDAMENTAL_IDS}
    grads = {k: (jets.t_derivative(jv[k], 0).value,
                 jets.t_derivative(jv[k], 1).value)
             for k in pair}
    return vals, grads


def _newton_match(m, pair, target, start, steps=12, tol=1e-11):
    """Find a point of m where the invariant pair equals target."""
    pt = np.array(start, dtype=float)
    scale = np.maximum(1.0, np.abs(target))
    for _ in range(steps):
        try:
            vals, grads = _invariants_at(m, tuple(pt), pair)
        except (G2InvError, ArithmeticError):
            return None
        F = np.array([vals[pair[0]] - target[0],
                      vals[pair[1]] - target[1]])
        if np.max(np.abs(F) / scale) < tol:
            return tuple(pt), vals
        J = np.array([grads[pair[0]], grads[pair[1]]])
        if abs(np.linalg.det(J)) < 1e-300:
            return None
        step = np.linalg.solve(J, F)
        limit = 0.5 * (1.0 + np.linalg.norm(pt))
        norm = np.linalg.norm(step)
        if norm > limit:
            step *= limit / norm
        pt = pt - step
    return None


def _rest_discrepancy(rest, vals):
    """Largest relative difference of the remaining invariants."""
    return max(0.0, *(abs(rest[k] - vals[k])
                      / max(1.0, abs(rest[k]), abs(vals[k])) for k in rest))


def compare_metrics(ma, mb, pair=("C_rho", "ell_C"), n=12, tol=1e-4,
                    rect_a=None, rect_b=None):
    """Signature comparison with exact matching of the invariant pair.

    Both signatures are sampled, then every sample of one metric is
    matched on the other metric by a Newton search driving the
    invariant pair to exactly the sample's value (started from the
    nearest signature samples of the other metric), so the remaining
    invariants are compared at equal arguments with no interpolation
    error.  The witness of an Inconsistent verdict names the sample and
    the matched point whose remaining invariants differ by its
    discrepancy.
    Stratum mismatches are verdicts of their own: if exactly one side
    is degenerate the metrics cannot be equivalent, if both are, the
    criterion does not apply.
    """
    try:
        sig_a = build_signature(ma, rect=rect_a, n=n, pair=pair)
    except InsufficientCoverageError:
        sig_a = None
    try:
        sig_b = build_signature(mb, rect=rect_b, n=n, pair=pair)
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

    pair = sig_a.pair
    sa = _axis_scales(sig_a.samples, sig_b.samples)
    max_disc = 0.0
    witness = None
    pa = _scaled_points(sig_a.samples, sa)
    pb = _scaled_points(sig_b.samples, sa)
    radius = _radius(pa, pb)

    def refine(sig_from, m_to, sig_to, pts_to, cap=48):
        nonlocal max_disc, witness
        stride = max(1, len(sig_from.samples) // cap)
        subset = sig_from.samples[::stride]
        matched = 0
        for s in subset:
            d = np.sqrt(np.sum(
                (pts_to - [s.I1 / sa[0], s.I2 / sa[1]]) ** 2, axis=1))
            order = [j for j in np.argsort(d)[:4] if d[j] <= radius]
            # several sheets may solve the pair equation: a first hit
            # within tol settles it, otherwise the best hit counts
            hits = []
            for j in order:
                hit = _newton_match(m_to, pair, (s.I1, s.I2),
                                    sig_to.samples[j].point)
                if hit is not None:
                    hits.append((_rest_discrepancy(s.rest, hit[1]), hit))
                    if hits[0][0] <= tol:
                        break
            if not hits:
                continue
            disc, (b_point, vals) = min(hits, key=lambda h: h[0])
            matched += 1
            max_disc = max(max_disc, disc)
            if disc > tol and witness is None:
                witness = {"a_point": list(s.point), "b_point": list(b_point),
                           "target_pair": [s.I1, s.I2],
                           "a_rest": dict(s.rest),
                           "matched_rest": {k: vals[k] for k in s.rest},
                           "discrepancy": disc}
        return matched / len(subset)

    coverage_a = refine(sig_a, mb, sig_b, pb)
    coverage_b = refine(sig_b, ma, sig_a, pa)
    if witness is not None:
        return Verdict("Inconsistent", coverage_a, coverage_b, max_disc,
                       witness=witness,
                       note="matched samples disagree beyond tolerance")
    if min(coverage_a, coverage_b) < 0.5:
        return Verdict("Inconclusive", coverage_a, coverage_b, max_disc,
                       note="invariant ranges barely overlap; criterion "
                            "untestable from these samples")
    return Verdict("Consistent", coverage_a, coverage_b, max_disc,
                   note="no obstruction found at this sampling resolution")


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
