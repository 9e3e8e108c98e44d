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


def _fundamentals(pj):
    """The six fundamentals at a point and their 6x2 t-Jacobian."""
    jv = pj.fundamentals
    values = np.array([jv[k].value for k in FUNDAMENTAL_IDS])
    jac = np.array([[jets.t_derivative(jv[k], s).value for s in (0, 1)]
                    for k in FUNDAMENTAL_IDS])
    return values, jac


def _evaluate(m, pts):
    """(point, generic, values, jac) at each of the points, None where
    the metric cannot be evaluated: the six fundamentals, their 6x2
    t-Jacobian and the stratum's generic flag, the points evaluated by
    metrics.each_point."""
    def at(point):
        pj = metrics.point_jets(m, point, order=2)
        values, jac = _fundamentals(pj)
        return list(zip(zip(*(np.atleast_1d(t).tolist() for t in pj.point)),
                        np.atleast_1d(pj.stratum.generic),
                        values.reshape(6, -1).T.copy(),
                        jac.reshape(6, 2, -1).transpose(2, 0, 1).copy()))

    return [None if isinstance(got, Exception) else got
            for got in metrics.each_point(at, pts)]


# why build_signature skips a grid point, in the order it tests them,
# each with its words after a count of points
SKIP_REASONS = {"unevaluable": "where the metric cannot be evaluated",
                "non-generic": "on a non-generic stratum (C_rho or ell_C 0)",
                "non-finite": "with non-finite fundamentals",
                "rank-deficient": "where the fundamentals have rank < 2"}


def _skip_reason(got):
    """The key of SKIP_REASONS that skips an _evaluate result, None for a
    sample."""
    if got is None:
        return "unevaluable"
    _, generic, values, jac = got
    if not generic:
        return "non-generic"
    if not (np.isfinite(values).all() and np.isfinite(jac).all()):
        return "non-finite"
    return None if numerical_rank(jac, DELTA_TOL) == 2 else "rank-deficient"


def build_signature(m, rect=None, n=12):
    """Sample the classifying manifold of a metric over a rectangle.

    The n x n grid is evaluated as one batch of points.  A grid point is
    skipped for a reason of SKIP_REASONS: the metric cannot be evaluated
    there, it is not generic, its fundamentals are not finite, or they do
    not have rank 2 there.  Too few samples raise an
    InsufficientCoverageError that counts the points skipped by reason.
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
    samples, skipped = [], Counter()
    for got in _evaluate(m, grid):
        reason = _skip_reason(got)
        if reason:
            skipped[reason] += 1
        else:
            samples.append(Sample(got[0], tuple(got[2]), got[3]))
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


@dataclass
class _Run:
    """Gauss-Newton from one start: the next point pt, its evaluation
    (point None until then) and the best (residual, point, values) met."""
    target: np.ndarray
    pt: np.ndarray
    point: tuple
    values: np.ndarray
    jac: np.ndarray
    prev: float = np.inf
    evals: int = 0
    best: tuple = (np.inf, None, None)
    converged: bool = False


def _advance(run, scales):
    """One Gauss-Newton iteration from the run's evaluation: True while
    the run goes on, to be evaluated next at run.pt."""
    r = (run.values - run.target) / scales
    res = float(np.linalg.norm(r))
    if not (np.isfinite(res) and np.isfinite(run.jac).all()):
        return False
    if res < run.best[0]:
        run.best = (res, run.point, run.values)
    run.converged = res < CONVERGED
    run.evals += 1
    if run.converged or res > 0.9 * run.prev or run.evals == 12:
        return False
    run.prev = res
    step = np.linalg.lstsq(run.jac / scales[:, None], r, rcond=None)[0]
    limit = 0.5 * (1.0 + np.linalg.norm(run.pt))
    norm = np.linalg.norm(step)
    if norm > limit:
        step *= limit / norm
    run.pt, run.point = run.pt - step, None
    return True


def _counted(runs):
    """A target's runs that count: those up to the first that converged."""
    return runs[:next((k + 1 for k, run in enumerate(runs) if run.converged),
                      len(runs))]


def _project(m, targets, starts, scales):
    """Gauss-Newton projection of six-vectors onto the classifying
    manifold of m: (residual, point, values) of the nearest point found
    for each target.

    starts[i] are samples of m, whose values and Jacobian serve as the
    first evaluation of one run each towards targets[i].  The residual
    is the norm of the scaled difference of the six fundamentals.  A run
    ends when an evaluation fails, the residual converges or stalls, or
    12 evaluations are spent.  The runs of all targets go in lockstep,
    one batch evaluation per round for every run still going, and a run
    is dropped once an earlier start of its target has converged.  Each
    target gets what trying its starts in turn would give: the smallest
    residual, the first of equals, over its starts up to the first that
    converged.
    """
    groups = [[_Run(target, np.array(s.point), s.point, np.array(s.values),
                    s.jac) for s in ss] for target, ss in zip(targets, starts)]
    live = [run for runs in groups for run in runs]
    while live:
        live = [run for run in live if _advance(run, scales)]
        counted = {id(run) for runs in groups for run in _counted(runs)}
        live = [run for run in live if id(run) in counted]
        if live:
            for run, got in zip(live, _evaluate(m, [run.pt for run in live])):
                if got is not None:
                    run.point, _, run.values, run.jac = got
            live = [run for run in live if run.point is not None]
    # min keeps the first of equal residuals, as a strict < in turn would
    return [min(_counted(runs), key=lambda run: run.best[0]).best
            for runs in groups]


def compare_metrics(ma, mb, n=12, tol=1e-4, rect_a=None, rect_b=None):
    """Signature comparison on the classifying manifolds.

    Both signatures are sampled, each grid as one batch of points, then
    every sample of one metric (at most 48 per side) is projected onto
    the other metric's classifying manifold by Gauss-Newton in (t1, t2),
    started from the four nearest samples of the other metric; each
    fundamental is scaled by its inter-quartile range over both sample
    sets.  The projections of one side run in lockstep, one batch of
    points per Gauss-Newton round, and each gives what its starts tried
    in turn would give.  A sample matches when
    its scaled residual is below tol.  The verdict is Consistent when at
    least half the samples of each side match, Inconsistent when none
    does; its witness is the sample with the smallest residual and the
    point where that residual is reached, with both sets of
    fundamentals.
    A side with too few samples decides the verdict on its own.  Where
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

    def match(samples_from, m_to, samples_to, cap=48):
        """(residual, from point, to point, from values, to values) of
        each sample of samples_from, projected onto m_to."""
        v_to = np.array([s.values for s in samples_to])
        sources = samples_from[::max(1, len(samples_from) // cap)]
        targets = [np.array(s.values) for s in sources]
        starts = [[samples_to[j] for j in np.argsort(
                      np.linalg.norm((v_to - v) / scales, axis=1))[:4]]
                  for v in targets]
        return [(res, s.point, point, v, values) for s, v, (res, point, values)
                in zip(sources, targets,
                       _project(m_to, targets, starts, scales))]

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
