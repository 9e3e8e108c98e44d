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
class Sample:
    point: tuple
    values: tuple    # the six fundamentals, in FUNDAMENTAL_IDS order
    jac: np.ndarray  # their 6x2 t-Jacobian


@dataclass
class Signature:
    samples: list


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

# an _evaluate column: whether its metric could be evaluated there, the
# generic flag of its stratum, the six fundamentals and their t-Jacobian
_COLUMN = np.dtype([("ok", bool), ("generic", bool), ("values", float, 6),
                    ("jac", float, (6, 2))], align=True)
_FAILED = np.array((False, False, np.nan, np.nan), _COLUMN)


def _fundamentals(pj):
    """The six fundamentals at a point and their 6x2 t-Jacobian."""
    jv = pj.fundamentals
    values = np.array([jv[k].value for k in FUNDAMENTAL_IDS])
    jac = np.array([jv[k].coeffs[1:3] for k in FUNDAMENTAL_IDS])  # d/dt
    return values, jac


def _joined(ms, col):
    """The PointJets of a batch of columns (k, t1, t2), each a point of
    the metric ms[k]: one point_jets per run of one metric, or one per
    column of a run of at most THIN, joined along the point axis."""
    runs = np.split(col, np.flatnonzero(np.diff(col[0])) + 1, axis=1)
    pjs = []
    for k, t1, t2 in runs:
        m = ms[int(k[0])]
        if len(k) > THIN:
            pjs.append(metrics.point_jets(m, (t1, t2), order=2))
        else:
            pjs += [metrics.point_jets(m, p, order=2)
                    for p in zip(t1.tolist(), t2.tolist())]
    if len(pjs) == 1:
        return pjs[0]
    # (jet, coefficient, column) of the components and determinants
    c = np.concatenate([np.array([j.coeffs for j in (
        *pj.all_component_jets(), pj.det_h, pj.det_gt)]).reshape(12, 6, -1)
        for pj in pjs], axis=2)
    return metrics.assemble((col[1], col[2]), 2,
                            [jets._jet(2, tuple(j)) for j in c])


def _evaluate(ms, cols, stratum=False):
    """(ok, generic, values, jac) at N columns (k, t1, t2), each a point
    of the metric ms[k], as arrays: whether that metric can be evaluated
    there, with stratum the generic flag of its stratum (True without),
    the six fundamentals (N, 6) and their t-Jacobian (N, 6, 2), NaN where
    not ok.  The columns are evaluated by metrics.each_point, first cut
    where the metric changes when there are more than MAX_BATCH of them
    (a round holds at most two runs of one metric, a signature one).  A
    batch of more than THIN columns is _joined and has one fundamentals
    pass; a smaller one, or a column alone, is evaluated column by
    column at its float points, each with its own fundamentals pass."""
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
        if col.shape[1] > THIN:
            return fill(_joined(ms, col), col.shape[1])
        return np.concatenate([
            fill(metrics.point_jets(ms[int(k)], (t1, t2), order=2), 1)
            for k, t1, t2 in col.T.tolist()])

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
    return out["ok"], out["generic"], out["values"], out["jac"]


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
    ok, generic, values, jac = _evaluate(
        [m], np.column_stack((np.zeros(len(grid)), grid)), stratum=True)
    finite = np.isfinite(values).all(1) & np.isfinite(jac).all((1, 2))
    kept = ok & generic & finite
    kept[kept] = numerical_rank(jac[kept], DELTA_TOL) == 2
    reasons = np.select([~ok, ~generic, ~finite, ~kept], list(SKIP_REASONS),
                        "")
    skipped = Counter(reasons[~kept].tolist())
    samples = [Sample(grid[i], tuple(values[i]), jac[i])
               for i in np.flatnonzero(kept)]
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
    (residual, point, values) of the nearest point found for targets[i]
    on that of ms[onto[i]], from starts[i], samples of that metric.

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
    runs = [s for ss in starts for s in ss]
    # each run's target, and each target's first run
    group = np.array([i for i, ss in enumerate(starts) for _ in ss])
    first = np.searchsorted(group, np.arange(len(starts)))
    target, which = np.array(targets)[group], np.array(onto)[group]
    pt, values, jac = (np.array([getattr(s, key) for s in runs], dtype=float)
                       for key in ("point", "values", "jac"))
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
        ok, _, values[k], jac[k] = _evaluate(
            ms, np.column_stack((which[k], pt[k])))
        k = k[ok]
    # the first of each target's smallest residuals, as a strict < in turn
    pick = np.lexsort((np.where(counted(), best, np.inf), group))[first]
    return [(float(best[i]), tuple(best_pt[i].tolist()), best_values[i])
            for i in pick]


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

    scales = _scales(np.array([s.values for s in
                               sig_a.samples + sig_b.samples]))

    def match(samples_from, samples_to):
        """The samples of samples_from projected (thinned to about
        PROJECTED), their six-vectors as targets, and the starts of each:
        the four nearest samples of samples_to."""
        v_to = np.array([s.values for s in samples_to])
        sources = samples_from[::max(1, len(samples_from) // PROJECTED)]
        targets = [np.array(s.values) for s in sources]
        nearest = np.argsort(_norm((v_to - np.array(targets)[:, None])
                                   / scales), axis=1)[:, :4]
        starts = [[samples_to[j] for j in row] for row in nearest.tolist()]
        return sources, targets, starts

    sources_a, targets_a, starts_a = match(sig_a.samples, sig_b.samples)
    sources_b, targets_b, starts_b = match(sig_b.samples, sig_a.samples)
    # A's samples projected onto B (ms[1]), then B's onto A (ms[0])
    got = _project([ma, mb], [1] * len(targets_a) + [0] * len(targets_b),
                   targets_a + targets_b, starts_a + starts_b, scales)
    rows_a = [(res, s.point, point, v, values) for s, v, (res, point, values)
              in zip(sources_a, targets_a, got)]
    # with A's side first
    rows_b = [(res, point, s.point, values, v) for s, v, (res, point, values)
              in zip(sources_b, targets_b, got[len(targets_a):])]
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
