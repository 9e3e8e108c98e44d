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

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import jets, metrics
from .errors import G2InvError, InsufficientCoverageError
from .invariants1 import FUNDAMENTAL_IDS, numerical_rank
from .invariants2 import DELTA_TOL


@dataclass
class Signature:
    samples: np.ndarray  # the kept _COLUMNs


# fewest generic samples a signature needs
MIN_SAMPLES = 8
# the samples of a side compare_metrics projects onto the other side's
# classifying manifold: every (n // PROJECTED)-th of n, < 2 * PROJECTED
PROJECTED = 48


# the most columns of one metric's run a round evaluates at their float
# points, one point_jets each, rather than as one batch, and the most
# columns of a batch evaluated column by column, each with its own
# fundamentals pass: a batch costs about as much at 2 columns as at 36,
# and _evaluate on a run of an affine image of vdb took 0.82 ms as 4
# float points, 0.85 ms as a batch and 0.95 ms as 5 float points; a
# fundamentals pass took 229 us on a batch of 1-4 columns against 53 us
# at a float point (2-CPU AMD EPYC VM)
THIN = 4

# a sample, an _evaluate column: whether its metric could be evaluated
# there, the generic flag of its stratum, its point (t1, t2), the six
# fundamentals and their t-Jacobian
_COLUMN = np.dtype([("ok", bool), ("generic", bool), ("point", float, 2),
                    ("values", float, 6), ("jac", float, (6, 2))],
                   align=True)
_FAILED = np.array((False, False, np.nan, np.nan, np.nan), _COLUMN)


def _fundamentals(pj):
    """The six fundamentals at a point and their 6x2 t-Jacobian."""
    jv = pj.fundamentals
    values = np.array([jv[k].value for k in FUNDAMENTAL_IDS])
    jac = np.array([jv[k].coeffs[1:3] for k in FUNDAMENTAL_IDS])  # d/dt
    return values, jac


def _evaluate(ms, cols, stratum=False):
    """The _COLUMNs at N columns (k, t1, t2), each a point of the metric
    ms[k]: whether that metric can be evaluated there, with stratum the
    generic flag of its stratum (True without), the point, the six
    fundamentals and their t-Jacobian, NaN where not ok.  The columns
    are evaluated by metrics.each_point, first cut where the metric
    changes when there are more than MAX_BATCH of them (a round holds at
    most two runs of one metric, a signature one).  A batch of at most
    THIN columns, or a column alone, is evaluated column by column at
    its float points, each with its own fundamentals pass.  A larger one
    is one joined batch with one fundamentals pass: one point_jets per
    run of one metric, or one per column of a run of at most THIN,
    joined along the point axis."""
    def fill(pj, n):  # the n columns of a PointJets
        out = np.empty(n, _COLUMN)
        out["ok"] = True
        out["generic"] = pj.stratum.generic if stratum else True
        values, jac = _fundamentals(pj)
        out["values"] = values.reshape(6, -1).T
        out["jac"] = np.moveaxis(jac.reshape(6, 2, -1), 2, 0)
        return out

    def at(col):
        col = col.reshape(3, -1)
        pjs = []
        for k, t1, t2 in np.split(col, np.flatnonzero(np.diff(col[0])) + 1,
                                  axis=1):
            m = ms[int(k[0])]
            if len(k) > THIN:
                pjs.append(metrics.point_jets(m, (t1, t2), order=2))
            else:
                pjs += [metrics.point_jets(m, p, order=2)
                        for p in zip(t1.tolist(), t2.tolist())]
        if col.shape[1] <= THIN:
            return np.concatenate([fill(pj, 1) for pj in pjs])
        if len(pjs) == 1:
            return fill(pjs[0], col.shape[1])
        # (jet, coefficient, column) of the components and determinants
        c = np.concatenate([np.array([j.coeffs for j in (
            *pj.all_component_jets(), pj.det_h, pj.det_gt)]).reshape(12, 6, -1)
            for pj in pjs], axis=2)
        return fill(metrics.assemble((col[1], col[2]), 2,
                                     [jets._jet(2, tuple(j)) for j in c]),
                    col.shape[1])

    cols = np.asarray(cols, dtype=float)
    # each_point cuts a longer list every MAX_BATCH columns, and a cut
    # inside a run costs a point_jets call: cut first where ms[k] changes
    cuts = [0, len(cols)]
    if len(cols) > metrics.MAX_BATCH:
        cuts[1:1] = np.flatnonzero(np.diff(cols[:, 0])) + 1
    got = [metrics.each_point(at, cols[a:b]) for a, b in zip(cuts, cuts[1:])]
    out = np.concatenate([g if isinstance(g, np.ndarray) else np.array(
        [_FAILED if isinstance(c, Exception) else c for c in g], _COLUMN)
        for g in got])
    out["point"] = cols[:, 1:]
    return out


# why build_signature skips a grid point, in the order it tests them,
# each with its words after a count of points
SKIP_REASONS = {"unevaluable": "where the metric cannot be evaluated",
                "non-generic": "on a non-generic stratum (C_rho or ell_C 0)",
                "non-finite": "with non-finite fundamentals",
                "rank-deficient": "where the fundamentals have rank < 2"}


def build_signature(m, rect=None, n=12):
    """Sample the classifying manifold of a metric over a rectangle.

    The n x n grid is evaluated as one batch of points, and a grid point
    is skipped for the first reason of SKIP_REASONS that holds there.
    Too few samples raise an InsufficientCoverageError that counts the
    points skipped by reason.
    """
    if n * n < MIN_SAMPLES:
        raise G2InvError(f"a grid of {n} x {n} points is smaller than the "
                         f"{MIN_SAMPLES} samples a signature needs")
    rect = rect or metrics.default_domain(m)
    if rect is None:
        # unknown user metric: scan a default box; invalid or
        # non-generic grid points are skipped anyway
        rect = ((-1.5, 1.5), (-1.5, 1.5))
    grid = metrics.grid_points(rect, n, margin=0.02)
    out = _evaluate([m], np.column_stack((np.zeros(len(grid)), grid)),
                    stratum=True)
    ok, generic, jac = out["ok"], out["generic"], out["jac"]
    finite = np.isfinite(out["values"]).all(1) & np.isfinite(jac).all((1, 2))
    kept = ok & generic & finite
    kept[kept] = numerical_rank(jac[kept], DELTA_TOL) == 2
    reasons = np.select([~ok, ~generic, ~finite, ~kept], list(SKIP_REASONS),
                        "")
    skipped = Counter(reasons[~kept].tolist())
    samples = out[kept]
    if len(samples) < MIN_SAMPLES:
        why = ", ".join(f"{skipped[key]} {words}" for key, words
                        in SKIP_REASONS.items() if key in skipped)
        raise InsufficientCoverageError(
            f"only {len(samples)} generic samples retained for {m.name!r} "
            f"(need {MIN_SAMPLES}); of its {len(grid)} grid points, {why}",
            len(samples), skipped)
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


def _quartile(s, q):
    """The q-quantile of each column of s, sorted along axis 0, by
    numpy's "linear" rule (Hyndman & Fan 1996, definition 7), as
    np.percentile forms it without the numpy.ma it imports: at the
    virtual index (n - 1) q, with fraction t, a + (b - a) t of its
    neighbours a <= b, and b - (b - a) (1 - t) where t >= 0.5."""
    i, t = divmod((len(s) - 1) * q, 1)
    a, b = s[int(i)], s[int(i) + 1]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _scales(values):
    """Inter-quartile range of each fundamental over the samples (its
    largest magnitude, at least 1, where that range is 0)."""
    s = np.sort(values, axis=0)
    iqr = _quartile(s, 0.75) - _quartile(s, 0.25)
    return np.where(iqr > 0, iqr,
                    np.maximum(np.max(np.abs(values), axis=0), 1.0))


# scaled residual at which a projection has converged
CONVERGED = 1e-10


def _norm(x):
    """The 2-norms along the last axis, as np.linalg.norm forms them."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _residual(values, targets, scales):
    """The scaled differences r of stacked six-vectors from their
    targets, and their norms."""
    r = (values - targets) / scales
    return r, _norm(r)


def _step(jac, r, pts, scales):
    """Stacked Gauss-Newton steps from pts: the minimum-norm solutions of
    (jac / scales) step = r, one SVD pseudo-inverse per stack with
    lstsq's cutoff max(6, 2) eps, each cut to 0.5 (1 + |pt|) long."""
    # np.linalg.pinv's operations: each singular value above the cutoff
    # inverted, the others 0, and v s^-1 u^T times r
    u, s, vt = np.linalg.svd(jac / scales[:, None], full_matrices=False)
    large = s > 6 * np.finfo(float).eps * s.max(-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    step = (np.swapaxes(vt, -1, -2) @ (s[..., None] * np.swapaxes(u, -1, -2))
            @ r[..., None])[..., 0]
    limit = 0.5 * (1.0 + _norm(pts))
    norm = _norm(step)
    return step * (limit / np.maximum(norm, limit))[:, None]


def _project(ms, onto, targets, starts, scales):
    """Gauss-Newton projection of six-vectors onto classifying manifolds:
    the residuals (T,), points (T, 2) and values (T, 6) of the nearest
    points found for the targets (T, 6), targets[i] on that of
    ms[onto[i]], from the samples starts[i] of that metric, (T, S)
    _COLUMNs, which are left as they are.

    Each start is the first evaluation of one run.  The residual is the
    norm of the scaled difference of the six fundamentals.  A run ends
    when an evaluation fails, the residual converges or stalls, or 12
    evaluations are spent, and is dropped once an earlier start of its
    target has converged.  The runs are rows of arrays, each with the
    metric it is projected onto: a round is array arithmetic, one stacked
    SVD least-squares solve (_step) and one _evaluate of the runs still
    going.  Each target gets what its starts tried in turn with _residual
    and _step give, whatever shares its rounds: the smallest residual,
    the first of equals, over its starts up to the first that converged.
    Against a per-run lstsq step, results move by roundoff: at most
    4.3e-12 relative on the witnesses of the benchmark's equiv ops.
    """
    # each run's target, and each target's first run
    group = np.repeat(np.arange(len(targets)), starts.shape[1])
    first = np.arange(len(targets)) * starts.shape[1]
    target, which = targets[group], np.asarray(onto)[group]
    # the runs' own copies, each stepped and evaluated in place
    runs = starts.ravel()
    pt, values, jac = (runs[key].copy() for key in ("point", "values", "jac"))
    best_pt, best_values = pt.copy(), values.copy()
    prev, best = np.full((2, len(runs)), np.inf)
    converged = np.zeros(len(runs), dtype=bool)

    def counted():  # each target's runs up to the first that converged
        before = np.cumsum(converged) - converged
        return before == before[first][group]

    k = np.arange(len(runs))  # the runs still going
    for evals in range(1, 13):  # the evaluations each of them has had
        r, res = _residual(values[k], target[k], scales)
        ok = np.isfinite(res) & np.isfinite(jac[k]).all(axis=(1, 2))
        k, r, res = k[ok], r[ok], res[ok]
        kb = k[res < best[k]]
        best_pt[kb], best_values[kb] = pt[kb], values[kb]
        best[k] = np.minimum(res, best[k])
        converged[k] = res < CONVERGED
        go = ~converged[k] & ~(res > 0.9 * prev[k]) & (evals < 12)
        prev[k[go]] = res[go]
        k = k[go]
        pt[k] -= _step(jac[k], r[go], pt[k], scales)
        k = k[counted()[k]]
        if not k.size:
            break
        got = _evaluate(ms, np.column_stack((which[k], pt[k])))
        values[k], jac[k] = got["values"], got["jac"]
        k = k[got["ok"]]
    # the first of each target's smallest residuals, as a strict < in turn
    pick = np.lexsort((np.where(counted(), best, np.inf), group))[first]
    return best[pick], best_pt[pick], best_values[pick]


def compare_metrics(ma, mb, n=12, tol=1e-4, rect_a=None, rect_b=None):
    """Signature comparison on the classifying manifolds.

    Both signatures are sampled, each grid as one batch of points, then
    the samples of one metric, thinned to about PROJECTED per side, are
    projected onto the other metric's classifying manifold by
    Gauss-Newton in (t1, t2), started from the four nearest samples of
    the other metric; each
    fundamental is scaled by its inter-quartile range over both sample
    sets.  The projections of both sides run in one lockstep (_project):
    a round evaluates each metric's components on its own columns and
    the fundamentals of all its columns once, and each projection gives
    what its starts tried in turn would give.  A sample matches when its
    scaled residual is below tol.  The verdict is
    Consistent when at least half the samples of each side match,
    Inconsistent when none does; its witness is the sample with the
    smallest residual and the point where that residual is reached, with
    both sets of fundamentals.  A side with too few samples decides the
    verdict on its own.  Where
    exactly one side has too few and it is degenerate (a grid point on a
    non-generic stratum, and no generic one), the strata differ and the
    metrics cannot be equivalent.  Otherwise the criterion does not
    apply: Inconclusive, with the reasons the points were skipped.
    """
    def signature(m, rect):
        try:
            return build_signature(m, rect=rect, n=n)
        except InsufficientCoverageError as err:
            return err

    sig_a, sig_b = signature(ma, rect_a), signature(mb, rect_b)
    short = [(m, sig) for m, sig in ((ma, sig_a), (mb, sig_b))
             if isinstance(sig, InsufficientCoverageError)]
    if len(short) == 1:
        (m, err), = short
        if "non-generic" in err.skipped and not err.kept and not (
                err.skipped.keys() & {"non-finite", "rank-deficient"}):
            return Verdict("Inconsistent", 0.0, 0.0, 0.0,
                           note=f"{m.name!r} is degenerate "
                                "(no generic samples) while the other "
                                "metric is generic: different strata")
    if short:
        return Verdict("Inconclusive", 0.0, 0.0, 0.0, note="; ".join(
            dict.fromkeys(str(err) for _, err in short))
            + "; the signature criterion does not apply")

    scales = _scales(np.concatenate((sig_a.samples,
                                     sig_b.samples))["values"])

    def match(samples_from, samples_to):
        """The samples of samples_from projected (thinned to about
        PROJECTED), and the starts of each: the four nearest samples of
        samples_to."""
        sources = samples_from[::max(1, len(samples_from) // PROJECTED)]
        nearest = np.argsort(_norm((samples_to["values"]
                                    - sources["values"][:, None]) / scales),
                             axis=1)[:, :4]
        return sources, samples_to[nearest]

    sources_a, starts_a = match(sig_a.samples, sig_b.samples)
    sources_b, starts_b = match(sig_b.samples, sig_a.samples)
    sources = np.concatenate((sources_a, sources_b))
    # A's samples projected onto B (ms[1]), then B's onto A (ms[0])
    res, points, values = _project(
        [ma, mb], np.repeat([1, 0], [len(sources_a), len(sources_b)]),
        sources["values"], np.concatenate((starts_a, starts_b)), scales)
    matched = res < tol
    coverage_a, coverage_b = (np.count_nonzero(m) / len(m) for m in np.split(
        matched, [len(sources_a)]))
    max_disc = float(np.max(res[matched], initial=0.0))
    if coverage_a == coverage_b == 0.0:
        i = int(np.argmin(res))  # the first smallest, A's side first
        source, near = sources[i], {"point": points[i], "values": values[i]}
        a, b = (source, near) if i < len(sources_a) else (near, source)
        def named(v):
            return dict(zip(FUNDAMENTAL_IDS, v.tolist()))

        witness = {"a_point": a["point"].tolist(),
                   "b_point": b["point"].tolist(),
                   "a_values": named(a["values"]),
                   "b_values": named(b["values"]),
                   "scales": named(scales), "residual": float(res[i])}
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
