"""Local equivalence via sampled invariant signatures.

A signature records how the remaining fundamental invariants depend on
a chosen functionally independent pair (I1, I2) across a sampling grid.
Two metrics whose signatures agree wherever the ranges overlap pass the
necessary-and-sufficient dependence criterion at the sampled
resolution; the verdict is a sampling-based check, not a proof --
"Consistent" means no obstruction was found at this resolution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import jets, metrics, transform as transform_mod
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
    delta: float
    rest_dI: dict = None      # rest-key -> (d/dI1, d/dI2), exact


@dataclass
class Signature:
    pair: tuple
    samples: list
    domain: tuple
    skipped: int
    metric_name: str = ""

    def to_document(self):
        return {
            "metric": self.metric_name,
            "pair": list(self.pair),
            "domain": [list(self.domain[0]), list(self.domain[1])],
            "skipped": self.skipped,
            "samples": [{
                "point": list(s.point), "I1": s.I1, "I2": s.I2,
                "rest": dict(s.rest), "delta": s.delta,
                "rest_dI": {k: list(v) for k, v in s.rest_dI.items()},
            } for s in self.samples],
        }


def signature_from_document(doc):
    samples = [Sample(point=tuple(s["point"]), I1=s["I1"], I2=s["I2"],
                      rest=dict(s["rest"]), delta=s["delta"],
                      rest_dI={k: tuple(v)
                               for k, v in s["rest_dI"].items()})
               for s in doc["samples"]]
    return Signature(pair=tuple(doc["pair"]), samples=samples,
                     domain=(tuple(doc["domain"][0]),
                             tuple(doc["domain"][1])),
                     skipped=doc["skipped"],
                     metric_name=doc.get("metric", ""))


def save_signature(sig, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sig.to_document(), fh, indent=1, sort_keys=True)


def load_signature(path):
    with open(path, "r", encoding="utf-8") as fh:
        return signature_from_document(json.load(fh))


def build_signature(m, rect=None, n=12, pair=("C_rho", "ell_C"),
                    transform=None, min_samples=8, delta_tol=1e-8,
                    method="analytic"):
    """Sample the invariant signature of a metric over a rectangle.

    With a transform given, the signature is that of the pushed-forward
    metric, sampled at the image points phi(t) of the grid.
    """
    pair = tuple(canonical_id(x) for x in pair)
    rect = rect or metrics.default_domain(m)
    if rect is None:
        # unknown user metric: scan a default box; invalid or
        # non-generic grid points are skipped anyway
        rect = ((-1.5, 1.5), (-1.5, 1.5))
    samples = []
    skipped = 0
    for pt in metrics.grid_points(rect, n, margin=0.02):
        try:
            pj = metrics.point_jets(m, pt, order=2, method=method)
            if transform is not None:
                pj = transform_mod.pushforward_jets(pj, transform)
        except (G2InvError, ArithmeticError):
            skipped += 1
            continue
        if not metrics.classify(pj).generic:
            skipped += 1
            continue
        jv = pj.fields
        X = (jv["X1"].value, jv["X2"].value)
        Xp = (jv["Xp1"].value, jv["Xp2"].value)
        a11, a12 = jets.along(X, jv[pair[0]]), jets.along(X, jv[pair[1]])
        a21, a22 = jets.along(Xp, jv[pair[0]]), jets.along(Xp, jv[pair[1]])
        delta = a11 * a22 - a12 * a21
        scale = max(abs(a11 * a22), abs(a12 * a21), 1e-300)
        if abs(delta) < delta_tol * scale:
            skipped += 1
            continue
        rest_keys = [k for k in FUNDAMENTAL_IDS if k not in pair]
        rest_dI = {}
        for k in rest_keys:
            b1, b2 = jets.along(X, jv[k]), jets.along(Xp, jv[k])
            rest_dI[k] = ((b1 * a22 - b2 * a12) / delta,
                          (a11 * b2 - a21 * b1) / delta)
        samples.append(Sample(
            point=pj.point,
            I1=jv[pair[0]].value, I2=jv[pair[1]].value,
            rest={k: jv[k].value for k in rest_keys},
            delta=delta, rest_dI=rest_dI))
    if len(samples) < min_samples:
        raise InsufficientCoverageError(
            f"only {len(samples)} generic samples retained for {m.name!r} "
            f"(need {min_samples}); the signature criterion is unavailable "
            "on this stratum")
    name = m.name if transform is None else f"{m.name}+transform"
    return Signature(pair=pair, samples=samples, domain=rect,
                     skipped=skipped, metric_name=name)


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


def _radius(pa, pb, factor):
    """factor times the median nearest-neighbour distance of the denser
    of the two scaled sample sets."""
    dense = pa if len(pa) >= len(pb) else pb
    d2 = np.sum((dense[:, None, :] - dense[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return factor * float(np.median(np.sqrt(np.min(d2, axis=1))))


def _verdict(coverage_a, coverage_b, max_disc, witness):
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


def compare(a, b, tol=1e-4, radius=None):
    """Compare two signatures built on the same invariant pair.

    The pair map can fold (the same (I1, I2) value may be taken on
    several sheets with different remaining invariants), so a sample
    counts as matched when ANY nearby candidate agrees on all four
    remaining invariants, compared after trapezoidal transport along
    the exact d(rest)/d(I1,I2) partials stored at both endpoints (the
    transport error is third order in the sample distance).
    Consistent: every covered sample has an agreeing candidate and
    coverage is mutual.  Inconsistent carries a witness sample whose
    candidates all disagree.  Inconclusive: the (I1, I2) ranges barely
    overlap, so the criterion could not be tested from these samples.
    """
    if a.pair != b.pair:
        raise MetricDefinitionError(
            f"signatures use different pairs: {a.pair} vs {b.pair}")
    sa = _axis_scales(a.samples, b.samples)
    pa = _scaled_points(a.samples, sa)
    pb = _scaled_points(b.samples, sa)
    if radius is None:
        radius = _radius(pa, pb, 2.0)

    max_disc = 0.0
    witness = None

    def same_sheet(s, o):
        # the partials are invariants themselves; candidates from the
        # other sheet of a folded pair map have very different ones
        for key in s.rest:
            ga = np.array(s.rest_dI[key]) * sa
            gb = np.array(o.rest_dI[key]) * sa
            floor = 0.2 * max(1.0, abs(s.rest[key]), abs(o.rest[key]))
            if np.linalg.norm(ga - gb) > 0.35 * max(
                    np.linalg.norm(ga), np.linalg.norm(gb)) + floor:
                return False
        return True

    def candidate_disc(s, o):
        d1, d2_ = s.I1 - o.I1, s.I2 - o.I2
        worst = 0.0
        for key in s.rest:
            ra, rb = s.rest[key], o.rest[key]
            transported = rb + 0.5 * (
                (s.rest_dI[key][0] + o.rest_dI[key][0]) * d1
                + (s.rest_dI[key][1] + o.rest_dI[key][1]) * d2_)
            scale = max(1.0, abs(ra), abs(rb))
            worst = max(worst, abs(ra - transported) / scale)
        return worst

    def match(points_from, samples_from, points_to, samples_to):
        nonlocal max_disc, witness
        matched = 0
        for i, s in enumerate(samples_from):
            d = np.sqrt(np.sum((points_to - points_from[i]) ** 2, axis=1))
            nearby = [j for j in np.where(d <= radius)[0]
                      if same_sheet(s, samples_to[j])]
            if not nearby:
                continue
            matched += 1
            best_j = min(nearby,
                         key=lambda j: candidate_disc(s, samples_to[j]))
            disc = candidate_disc(s, samples_to[best_j])
            max_disc = max(max_disc, disc)
            if disc > tol and witness is None:
                o = samples_to[best_j]
                witness = {"a_point": list(s.point),
                           "b_point": list(o.point),
                           "a_rest": dict(s.rest), "b_rest": dict(o.rest),
                           "discrepancy": disc}
        return matched / len(samples_from)

    coverage_a = match(pa, a.samples, pb, b.samples)
    coverage_b = match(pb, b.samples, pa, a.samples)
    return _verdict(coverage_a, coverage_b, max_disc, witness)


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
    nearest same-sheet signature sample), so the remaining invariants
    are compared at equal arguments with no interpolation error.
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
    radius = _radius(pa, pb, 3.0)

    def refine(sig_from, m_to, sig_to, pts_to, cap=48):
        nonlocal max_disc, witness
        stride = max(1, len(sig_from.samples) // cap)
        subset = sig_from.samples[::stride]
        matched = 0
        for s in subset:
            d = np.sqrt(np.sum(
                (pts_to - [s.I1 / sa[0], s.I2 / sa[1]]) ** 2, axis=1))
            order = [j for j in np.argsort(d)[:4] if d[j] <= radius]
            hit = None
            for j in order:
                hit = _newton_match(m_to, pair, (s.I1, s.I2),
                                    sig_to.samples[j].point)
                if hit is not None:
                    break
            if hit is None:
                continue
            _, vals = hit
            disc = _rest_discrepancy(s.rest, vals)
            # several sheets may solve the pair equation; accept the best
            if disc > tol:
                best = disc
                for j in order[1:]:
                    alt = _newton_match(m_to, pair, (s.I1, s.I2),
                                        sig_to.samples[j].point)
                    if alt is not None:
                        best = min(best, _rest_discrepancy(s.rest, alt[1]))
                disc = best
            matched += 1
            max_disc = max(max_disc, disc)
            if disc > tol and witness is None:
                witness = {"a_point": list(s.point), "target_pair":
                           [s.I1, s.I2], "a_rest": dict(s.rest),
                           "matched_rest": {k: vals[k] for k in s.rest},
                           "discrepancy": disc}
        return matched / len(subset)

    coverage_a = refine(sig_a, mb, sig_b, pb)
    coverage_b = refine(sig_b, ma, sig_a, pa)
    return _verdict(coverage_a, coverage_b, max_disc, witness)


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


def characterize_vdb(m, points, tol=1e-6, method="analytic",
                     transform=None):
    """Does the metric satisfy the Van den Bergh invariant signature?"""
    pjs = []
    for pt in points:
        pj = metrics.point_jets(m, pt, order=1 if transform is None else 2,
                                method=method)
        if transform is not None:
            pj = transform_mod.pushforward_jets(pj, transform)
        pjs.append(pj)
    return characterize_vdb_jets(pjs, tol)


def characterize_vdb_jets(pjs, tol=1e-6):
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
