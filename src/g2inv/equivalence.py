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


def _fundamentals(pj):
    """The six fundamentals at a point and their 6x2 t-Jacobian."""
    jv = pj.fundamentals
    values = np.array([jv[k].value for k in FUNDAMENTAL_IDS])
    jac = np.array([jv[k].coeffs[1:3] for k in FUNDAMENTAL_IDS])  # d/dt
    return values, jac


def _evaluate(ms, cols, stratum=False):
    """(ok, generic, values, jac) at N columns (k, t1, t2), each a point
    of the metric ms[k], as arrays: whether that metric can be evaluated
    there, with stratum the generic flag of its stratum (True without),
    the six fundamentals (N, 6) and their t-Jacobian (N, 6, 2), NaN where
    not ok.  The columns are evaluated by metrics.each_point, first cut
    where the metric changes when there are more than MAX_BATCH of them
    (a round holds at most two runs of one metric, a signature one); a
    batch has one point_jets per run (a column alone at its float
    point), joined along the point axis, and one fundamentals pass."""
    def at(col):
        k, t1, t2 = col
        if not np.ndim(k):
            pj = metrics.point_jets(ms[int(k)], (t1, t2), order=2)
        else:
            cuts = np.flatnonzero(np.diff(k)) + 1
            pjs = [metrics.point_jets(ms[int(kk[0])], (a, b) if len(a) > 1
                                      else (a[0], b[0]), order=2)
                   for kk, a, b in zip(*(np.split(row, cuts) for row in col))]
            pj = pjs[0]
            if len(pjs) > 1:  # (component, coefficient, column) of each
                c = np.concatenate([np.atleast_3d(
                    [j.coeffs for j in p.all_component_jets()]) for p in pjs],
                    axis=2)
                pj = metrics.assemble((t1, t2), 2,
                                      [jets._jet(2, tuple(j)) for j in c])
        values, jac = _fundamentals(pj)
        generic = pj.stratum.generic if stratum else np.ones(np.size(k), bool)
        return list(zip(np.atleast_1d(generic), values.reshape(6, -1).T,
                        np.moveaxis(jac.reshape(6, 2, -1), 2, 0)))

    # each_point cuts a longer list every MAX_BATCH columns, and a cut
    # inside a run costs a point_jets call: cut first where ms[k] changes
    cuts = [0, len(cols)]
    if len(cols) > metrics.MAX_BATCH:
        cuts[1:1] = np.flatnonzero(np.diff([col[0] for col in cols])) + 1
    got = [g for a, b in zip(cuts, cuts[1:])
           for g in metrics.each_point(at, cols[a:b])]
    ok = np.array([not isinstance(g, Exception) for g in got])
    failed = (False, np.full(6, np.nan), np.full((6, 2), np.nan))
    return (ok, *map(np.array, zip(*(g if k else failed
                                      for g, k in zip(got, ok)))))


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
        [m], [(0, *p) for p in grid], stratum=True)
    finite = np.isfinite(values).all(1) & np.isfinite(jac).all((1, 2))
    kept = ok & generic & finite
    kept[kept] = [numerical_rank(j, DELTA_TOL) == 2 for j in jac[kept]]
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


def _scales(values):
    """Inter-quartile range of each fundamental over the samples (its
    largest magnitude, at least 1, where that range is 0)."""
    q75, q25 = np.percentile(values, [75, 25], axis=0)
    iqr = q75 - q25
    return np.where(iqr > 0, iqr,
                    np.maximum(np.max(np.abs(values), axis=0), 1.0))


# scaled residual at which a projection has converged
CONVERGED = 1e-10


def _residual(values, targets, scales):
    """The scaled differences r of stacked six-vectors from their
    targets, and their norms."""
    r = (values - targets) / scales
    return r, np.linalg.norm(r, axis=-1)


def _step(jac, r, pts, scales):
    """Stacked Gauss-Newton steps from pts: the minimum-norm solutions of
    (jac / scales) step = r, one SVD pseudo-inverse per stack with
    lstsq's cutoff max(6, 2) eps, each cut to 0.5 (1 + |pt|) long."""
    step = (np.linalg.pinv(jac / scales[:, None], rtol=None)
            @ r[..., None])[..., 0]
    limit = 0.5 * (1.0 + np.linalg.norm(pts, axis=-1))
    norm = np.linalg.norm(step, axis=-1)
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
            ms, list(np.column_stack((which[k], pt[k]))))
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
        starts = [[samples_to[j] for j in np.argsort(
                      np.linalg.norm((v_to - v) / scales, axis=1))[:4]]
                  for v in targets]
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
