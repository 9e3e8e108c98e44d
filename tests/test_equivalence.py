import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2inv import catalog, equivalence, invariants1, metrics, point_jets
from g2inv.equivalence import build_signature, compare_metrics
from g2inv.errors import (G2InvError, InsufficientCoverageError,
                          SingularMetricError)
from g2inv.invariants1 import FUNDAMENTAL_IDS, first_invariant_jets
from g2inv.metrics import default_domain, grid_points, load_metric
from g2inv.transform import (apply_to_metric, make_transform,
                             pushforward_jets, random_transform)
from vdb_signature import characterize_vdb, vdb_oracle


def test_build_signature_vdb_retains_grid():
    sig = build_signature(catalog("vdb"), n=12)
    assert len(sig.samples) >= 100


def test_build_signature_flat_insufficient():
    with pytest.raises(InsufficientCoverageError):
        build_signature(catalog("flat"), n=8)


def test_build_signature_skips_rank_deficient_fundamentals():
    # every component depends on t1 alone: the metric is generic, but its
    # six fundamentals have rank 1, so no grid point is a sample
    m = load_metric({"name": "t1_only", "form": "submersion", "params": {},
                     "components": {
                         "gt11": "2+0.3*sin(t1)", "gt12": "0", "gt22": "1",
                         "F11": "0", "F12": "0", "F21": "t1^2",
                         "F22": "0.5*t1", "h11": "2+0.4*cos(t1)",
                         "h12": "0.2*t1", "h22": "-1-0.1*t1^2"}})
    assert metrics.classify(point_jets(m, (0.3, 0.2))).generic
    with pytest.raises(InsufficientCoverageError, match="only 0 generic") \
            as err:
        build_signature(m, n=4)
    assert (err.value.kept, err.value.skipped) == (0, {"rank-deficient": 16})


def test_compare_reflexive():
    v = compare_metrics(catalog("vdb"), catalog("vdb"), n=10)
    assert v.verdict == "Consistent"
    assert v.max_discrepancy == 0.0


def test_compare_reflexive_random_metrics():
    for seed in (2, 3):
        m = catalog("random_analytic", {"seed": seed})
        v = compare_metrics(m, m, n=10)
        assert v.verdict == "Consistent", seed
        assert v.max_discrepancy == 0.0


def test_unknown_domain_falls_back_to_default_box():
    m = catalog("vdb")
    from g2inv.metrics import G2Metric
    anon = G2Metric(name="anon", form=m.form, params=m.params,
                    components=m.components, asts=m.asts, domain=None)
    sig = build_signature(anon, n=10)
    assert len(sig.samples) >= 8


def test_a_metric_with_no_domain_is_sampled_on_the_default_box():
    # a random_analytic document renamed has no sampling domain; its
    # components are smooth on the whole plane, so its samples spread
    # across the default box (-1.5, 1.5)^2 in both t1 and t2
    doc = catalog("random_analytic", {"seed": 1}).to_document()
    m = load_metric({**doc, "name": "custom"})
    assert default_domain(m) is None
    pts = build_signature(m, n=8).samples["point"]
    assert (np.abs(pts) < 1.5).all()
    assert (pts.max(0) - pts.min(0) > 2.8).all()


def test_compare_metrics_materialized_transform():
    m = catalog("vdb")
    p = make_transform("0.8*t1 + 0.1*t2 + 0.05", "-0.2*t1 + 1.1*t2 - 0.3",
                       "0.5*t1 - 0.2*t2", "0.3*t2",
                       [[2.0, 1.0], [0.0, 1.0]])
    v = compare_metrics(m, apply_to_metric(m, p, name="vdbt"))
    assert v.verdict == "Consistent"
    assert v.max_discrepancy < 1e-8


def test_compare_metrics_builds_only_the_fundamentals(monkeypatch):
    # the signatures, the stratum and every Gauss-Newton round read the
    # fundamentals layer alone: no sample builds X, Xperp or the other
    # fields; a round evaluates the columns of both metrics with one
    # fundamentals pass, or one per column in a round of at most THIN,
    # and only the signatures read the stratum
    calls = {"fundamental_jets": 0, "derivations": 0,
             "first_invariant_jets": 0, "classify": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(pj):
            calls[name] += 1
            return fn(pj)

        monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        counting(metrics if name == "classify" else invariants1, name)
    rounds, live = [], equivalence._evaluate

    def evaluate(ms, cols, stratum=False):
        if not stratum:
            rounds.append([int(col[0]) for col in cols])
        return live(ms, cols, stratum)

    monkeypatch.setattr(equivalence, "_evaluate", evaluate)
    m = catalog("vdb")
    image = apply_to_metric(m, make_transform(
        "0.8*t1 + 0.1*t2 + 0.05", "-0.2*t1 + 1.1*t2 - 0.3", "0.5*t1 - 0.2*t2",
        "0.3*t2", [[2.0, 1.0], [0.0, 1.0]]))
    assert compare_metrics(m, image, n=4).verdict == "Consistent"
    assert set(rounds[0]) == {0, 1}
    assert any(len(r) <= equivalence.THIN for r in rounds)
    # one pass for each round, or for each column of a round of at most
    # THIN, and one for each signature
    assert calls["fundamental_jets"] == sum(
        len(r) if len(r) <= equivalence.THIN else 1 for r in rounds) + 2
    assert calls["classify"] == 2
    assert calls["derivations"] == calls["first_invariant_jets"] == 0


def test_a_joined_round_is_cut_between_the_runs_of_its_metrics(monkeypatch):
    # at n = 12 the first rounds hold 384, 327 and 326 runs: cut at
    # MAX_BATCH columns, each would split one metric's run into two
    # point_jets calls, 19 in all; cut where the metric changes, 16
    m = catalog("vdb")
    image = apply_to_metric(m, make_transform(
        "0.8*t1 + 0.1*t2 + 0.05", "-0.2*t1 + 1.1*t2 - 0.3", "0.5*t1 - 0.2*t2",
        "0.3*t2", [[2.0, 1.0], [0.0, 1.0]]))
    sizes, live = [], metrics.point_jets

    def counted(metric, point, *args, **kwargs):
        sizes.append(np.size(point[0]))
        return live(metric, point, *args, **kwargs)

    monkeypatch.setattr(metrics, "point_jets", counted)
    assert compare_metrics(m, image, n=12).verdict == "Consistent"
    assert len(sizes) == 16 and sum(sizes) == 1590, sizes
    assert max(sizes) <= metrics.MAX_BATCH


def test_discrimination_against_catalog():
    m = catalog("vdb")
    for other in ("flat", "diag_t1", "ppwave1", "ppwave2", "ppwave3",
                  "lambda_kundu", "lambda_kundu_c0"):
        v = compare_metrics(m, catalog(other))
        assert v.verdict != "Consistent", other


def test_discrimination_against_random():
    m = catalog("vdb")
    for seed in range(4):
        v = compare_metrics(m, catalog("random_analytic", {"seed": seed}))
        assert v.verdict != "Consistent", seed


def test_inconsistent_witness_states_its_own_discrepancy():
    # the witness pairs a sample of one metric with the nearest point of
    # the other's classifying manifold, and carries what its residual is
    # computed from
    m = catalog("vdb")
    other = catalog("random_analytic", {"seed": 0})
    v = compare_metrics(m, other, n=3)
    assert v.verdict == "Inconsistent"
    assert v.max_discrepancy == 0.0
    w = v.witness
    for key, metric in (("a", m), ("b", other)):
        jv = point_jets(metric, w[f"{key}_point"]).fields
        assert w[f"{key}_values"] == {k: jv[k].value for k in FUNDAMENTAL_IDS}
    a, b, s = (np.array([w[key][k] for k in FUNDAMENTAL_IDS])
               for key in ("a_values", "b_values", "scales"))
    assert w["residual"] == pytest.approx(np.linalg.norm((a - b) / s),
                                          rel=1e-12)
    assert w["residual"] >= 1e-4


def _project_in_turn(m, target, starts, scales):
    """Gauss-Newton from one start after another, one point at a time,
    with the projector's residual and step on stacks of one: what the
    lockstep projector must give, bit for bit."""
    best = (np.inf, None, None)
    for start in starts:
        pt, prev = start["point"].copy(), np.inf
        point, values, jac = (tuple(start["point"].tolist()),
                              start["values"].copy(), start["jac"].copy())
        for _ in range(12):
            if point is None:
                try:
                    pj = point_jets(m, pt, order=2)
                    values, jac = equivalence._fundamentals(pj)
                except (G2InvError, ArithmeticError):
                    break
                point = pj.point
            r, res = equivalence._residual(values[None], target, scales)
            if not (np.isfinite(res[0]) and np.isfinite(jac).all()):
                break
            if res[0] < best[0]:
                best = (float(res[0]), point, values)
            if res[0] < equivalence.CONVERGED or res[0] > 0.9 * prev:
                break
            prev = res[0]
            step = equivalence._step(jac[None], r, pt[None], scales)[0]
            pt, point = pt - step, None
        if best[0] < equivalence.CONVERGED:
            break
    return best


def _vdb_image():
    return apply_to_metric(catalog("vdb"), make_transform(
        "0.8*t1 + 0.1*t2 + 0.05", "-0.2*t1 + 1.1*t2 - 0.3",
        "0.5*t1 - 0.2*t2", "0.3*t2", [[2.0, 1.0], [0.0, 1.0]]))


def _cut_random_metric():
    """random_analytic seed 3 with h11 times sqrt(t1 + 0.5), which cannot
    be evaluated left of t1 = -0.5."""
    comps = dict(catalog("random_analytic", {"seed": 3}).components)
    comps["h11"] = f"({comps['h11']})*sqrt(t1 + 0.5)"
    return dataclasses.replace(
        load_metric({"name": "cut", "form": "submersion", "params": {},
                     "components": comps}),
        domain=((-0.45, 0.9), (-0.9, 0.9)))


def _sample_sets():
    """Seeded (n, 6) sample sets, n from MIN_SAMPLES to 200: magnitudes
    from 1e-5 to 1e5, then repeated values, then repeated values with
    zeros of both signs and a column of zeros alone."""
    rng = np.random.default_rng(43)
    for i in range(600):
        n = int(rng.integers(equivalence.MIN_SAMPLES, 201))
        v = rng.normal(size=(n, 6)) * 10.0 ** rng.uniform(-5, 5, 6)
        if i % 3:
            v = rng.choice(v[:4].ravel(), size=(n, 6))
        if i % 3 == 2:
            zeros = rng.choice([-0.0, 0.0], size=(n, 6))
            v = np.where(rng.random((n, 6)) < 0.4, zeros, v)
            v[:, 5] = zeros[:, 5]
        yield v


def test_scales_are_numpys_linear_quartiles_bit_for_bit():
    # where zeros of both signs tie, numpy's partition and a sort may
    # order them differently: a quartile may then differ in the sign of
    # a zero, which no inter-quartile range or scale carries
    signed = 0
    for v in _sample_sets():
        want = np.percentile(v, [75, 25], axis=0)
        s = np.sort(v, axis=0)
        got = np.array([equivalence._quartile(s, q) for q in (0.75, 0.25)])
        if np.signbit(v[v == 0.0]).any():
            signed += 1
            assert (got == want).all()
        else:
            assert got.tobytes() == want.tobytes()
        iqr = want[0] - want[1]
        scales = np.where(iqr > 0, iqr,
                          np.maximum(np.max(np.abs(v), axis=0), 1.0))
        assert equivalence._scales(v).tobytes() == scales.tobytes()
    assert signed == 200


def _projection(ma, mb):
    """ma's samples (n = 5) as targets (T, 6) on mb, each with the four
    nearest samples of mb as starts (T, 4), and the scales of both sample
    sets."""
    from_a, to_b = (build_signature(m, rect=m.domain, n=5).samples
                    for m in (ma, mb))
    scales = equivalence._scales(np.concatenate((from_a, to_b))["values"])
    targets = from_a["values"]
    starts = to_b[[np.argsort(np.linalg.norm(
        (to_b["values"] - v) / scales, axis=1))[:4] for v in targets]]
    return targets, starts, scales


def _project_onto(m, targets, starts, scales):
    """equivalence._project of every target onto m alone: (residual,
    point, values) of each, the point a tuple."""
    res, points, values = equivalence._project(
        [m], [0] * len(targets), targets, starts, scales)
    return [(float(r), tuple(p.tolist()), v)
            for r, p, v in zip(res, points, values)]


MAKE_B = [
    # most samples converge at the first start, four at the second, one
    # at the fourth, two never do
    _vdb_image,
    # no sample converges; Newton steps from the samples of vdb leave the
    # valid set, so batches fail and are halved down to the failing point
    _cut_random_metric]


@pytest.mark.parametrize("make_b", MAKE_B)
def test_lockstep_projection_is_the_projection_start_by_start(make_b):
    mb = make_b()
    targets, starts, scales = _projection(catalog("vdb"), mb)
    got = _project_onto(mb, targets, starts, scales)
    for (res, point, values), target, ss in zip(got, targets, starts):
        want = _project_in_turn(mb, target, ss, scales)
        assert (res, point) == want[:2]
        assert np.array(values).tobytes() == np.array(want[2]).tobytes()


def test_projection_leaves_its_starts_unchanged():
    # the runs step from copies of their starts: every field of every
    # start keeps its bits, the caller's array is not written through
    mb = _vdb_image()
    targets, starts, scales = _projection(catalog("vdb"), mb)
    before = {key: starts[key].copy() for key in starts.dtype.names}
    res, _, _ = equivalence._project([mb], [0] * len(targets), targets,
                                     starts, scales)
    assert (res < equivalence.CONVERGED).any()
    for key, field in before.items():
        assert starts[key].tobytes() == field.tobytes(), key


@pytest.mark.parametrize("make_b", MAKE_B)
def test_joined_projection_is_each_side_projected_alone(make_b):
    # vdb's samples onto mb and mb's onto vdb in one lockstep, as
    # compare_metrics runs them: every projection keeps its bits
    ma, mb = catalog("vdb"), make_b()
    targets_a, starts_a, scales = _projection(ma, mb)
    targets_b, starts_b, scales_b = _projection(mb, ma)
    assert scales.tobytes() == scales_b.tobytes()
    got = equivalence._project(
        [ma, mb], [1] * len(targets_a) + [0] * len(targets_b),
        np.concatenate((targets_a, targets_b)),
        np.concatenate((starts_a, starts_b)), scales)
    want = (_project_onto(mb, targets_a, starts_a, scales)
            + _project_onto(ma, targets_b, starts_b, scales))
    assert len(got[0]) == len(want)
    for field, want_field in zip(got, zip(*want)):
        assert field.tobytes() == np.array(want_field).tobytes()


def _evaluate_point_by_point(ms, cols, stratum=False):
    """equivalence._evaluate with the columns of each metric as one batch,
    and a failing batch redone one point at a time: what halving it must
    give, as _COLUMNs."""
    def at(m, point):
        pj = point_jets(m, point, order=2)
        return (True, pj.stratum.generic) + equivalence._fundamentals(pj)

    cols = np.array(cols, dtype=float)
    out = np.zeros(len(cols), equivalence._COLUMN)
    out["point"] = cols[:, 1:]
    for k, m in enumerate(ms):
        rows = np.flatnonzero(cols[:, 0] == k)
        pts = [tuple(col) for col in cols[rows, 1:]]
        if not pts:
            continue
        try:
            _, generic, values, jac = at(m, tuple(np.array(pts).T))
            got = zip([True] * len(pts), generic, values.T,
                      np.moveaxis(jac, 2, 0))
        except (G2InvError, ArithmeticError):
            got = []
            for pt in pts:
                try:
                    got.append(at(m, pt))
                except (G2InvError, ArithmeticError):
                    got.append((False, False, np.nan, np.nan))
        for i, row in zip(rows, got):
            for key, field in zip(("ok", "generic", "values", "jac"), row):
                out[key][i] = field
    return out


def test_failing_batch_is_halved_down_to_its_failing_point(monkeypatch):
    # vdb's 25 samples projected onto the cut metric: one round's batch of
    # 100 runs holds one point left of t1 = -0.5
    ma, mb = catalog("vdb"), _cut_random_metric()
    want = compare_metrics(ma, mb, n=5, rect_b=mb.domain)
    targets, starts, scales = _projection(ma, mb)
    calls, failed = [], set()
    live = metrics.point_jets

    def counted(m, point, *args, **kwargs):
        calls.append(isinstance(point[0], np.ndarray))
        try:
            return live(m, point, *args, **kwargs)
        except G2InvError:
            if not calls[-1]:
                failed.add(point)
            raise

    monkeypatch.setattr(metrics, "point_jets", counted)
    got = _project_onto(mb, targets, starts, scales)
    # 4 rounds, 4 batch calls and 2 float points (a last round of THIN
    # columns or fewer); the failing batch of 100, redone point by point,
    # made 100 point calls more, and halved it makes 7 batch calls (4
    # failing) and 12 float points: halves of at most THIN columns run at
    # their float points, and one point fails in each of the three
    # batches that hold it, the last of them the point alone
    assert calls.count(True) == 11 and calls.count(False) == 14
    (t1, _), = failed
    assert t1 < -0.5
    monkeypatch.setattr(metrics, "point_jets", live)
    monkeypatch.setattr(equivalence, "_evaluate", _evaluate_point_by_point)
    for (res, point, values), want_best in zip(
            got, _project_onto(mb, targets, starts, scales)):
        assert (res, point) == want_best[:2]
        assert np.array(values).tobytes() == np.array(want_best[2]).tobytes()
    assert compare_metrics(ma, mb, n=5, rect_b=mb.domain) == want


def test_joined_round_fails_only_its_failing_column(monkeypatch):
    # a round of three vdb columns and three of the cut metric, one of
    # them left of t1 = -0.5: the joined batch is halved down to that
    # column, which fails alone, and every other column keeps its bits
    ma, mb = catalog("vdb"), _cut_random_metric()
    cols = [(0, 0.5, 1.0), (0, 0.8, 1.2), (0, 1.1, 0.8),
            (1, 0.1, 0.2), (1, -0.7, 0.3), (1, 0.4, -0.5)]
    alone, live = [], metrics.point_jets

    def counted(m, point, *args, **kwargs):
        if not isinstance(point[0], np.ndarray):
            alone.append((m.name, tuple(map(float, point))))
        return live(m, point, *args, **kwargs)

    monkeypatch.setattr(metrics, "point_jets", counted)
    got = equivalence._evaluate([ma, mb], cols)
    monkeypatch.setattr(metrics, "point_jets", live)
    assert got["ok"].tolist() == [True, True, True, True, False, True]
    assert ("cut", (-0.7, 0.3)) in alone
    assert np.isnan(got["values"][4]).all() and np.isnan(got["jac"][4]).all()
    for col, (k, *pt) in zip(got, cols):
        assert tuple(col["point"].tolist()) == tuple(pt)
        if col["ok"]:
            want = equivalence._fundamentals(point_jets((ma, mb)[k], pt))
            assert col["values"].tobytes() == want[0].tobytes()
            assert col["jac"].tobytes() == want[1].tobytes()


# rounds as runs (metric, columns, whether one column of the run is left
# of t1 = -0.5), metric 0 vdb and 1 the cut metric: runs of 1 to 6
# columns, thin (at most THIN) and batched, alone and joined, with a
# failing column inside a thin run and inside a batched one
ROUNDS = [[(0, 1, False)], [(1, 2, True)], [(0, 3, False), (1, 1, False)],
          [(1, 4, True), (0, 2, False)], [(0, 5, False), (1, 3, True)],
          [(1, 6, True), (0, 4, False)], [(0, 6, False), (1, 5, False)]]


@pytest.mark.parametrize("runs", ROUNDS)
def test_a_round_of_thin_runs_is_its_columns_point_by_point(runs):
    ms = [catalog("vdb"), _cut_random_metric()]
    cols, ok = [], []
    for k, n, fails in runs:
        pts = grid_points(ms[k].domain or default_domain(ms[k]), 3,
                          margin=0.1)[:n]
        if fails:
            pts[n // 2] = (-0.7, 0.3)
        cols += [(k, *pt) for pt in pts]
        ok += [not fails or i != n // 2 for i in range(n)]
    got = equivalence._evaluate(ms, cols, stratum=True)
    want = _evaluate_point_by_point(ms, cols, stratum=True)
    assert got["ok"].tolist() == ok
    # field by field: the padding bytes of an aligned _COLUMN are undefined
    assert got.dtype == want.dtype and got.shape == want.shape
    for key in equivalence._COLUMN.names:
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("pair", [
    lambda: (catalog("vdb"), _vdb_image()),
    lambda: (catalog("vdb"), catalog("random_analytic", {"seed": 1}))])
def test_the_verdict_is_the_same_without_thin_runs(pair, monkeypatch):
    a, b = pair()
    want = dataclasses.asdict(compare_metrics(a, b, n=5))
    monkeypatch.setattr(equivalence, "THIN", 0)
    assert dataclasses.asdict(compare_metrics(a, b, n=5)) == want


def _affine(a, shift, grad, alpha):
    """Affine pseudogroup element: phi = a t + shift, psi = grad t."""
    row = "{:.6f}*t1 + {:.6f}*t2 + {:.6f}".format
    return make_transform(row(*a[0], shift[0]), row(*a[1], shift[1]),
                          row(*grad[0], 0.0), row(*grad[1], 0.0), alpha)


def _matrix(entries):
    return st.lists(st.lists(entries, min_size=2, max_size=2),
                    min_size=2, max_size=2)


near_identity = _matrix(st.floats(-0.2, 0.2)).map(
    lambda d: [[1.0 + d[0][0], d[0][1]], [d[1][0], 1.0 + d[1][1]]])
integer_invertible = _matrix(st.integers(-2, 2)).filter(
    lambda m: m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(0, 7), near_identity,
       st.lists(st.floats(-0.3, 0.3), min_size=2, max_size=2),
       _matrix(st.floats(-0.5, 0.5)), integer_invertible)
def test_random_metric_is_consistent_with_its_affine_image(
        seed, a, shift, grad, alpha):
    m = catalog("random_analytic", {"seed": seed})
    image = apply_to_metric(m, _affine(a, shift, grad, alpha))
    v = compare_metrics(m, image, n=3, rect_b=image.domain)
    assert v.verdict == "Consistent", v


def test_vdb_oracle_consistency():
    m = catalog("vdb")
    for pt in [(0.5, 1.0), (0.8, 1.2), (1.1, 0.8)]:
        jv = first_invariant_jets(point_jets(m, pt, order=1))
        got = vdb_oracle(jv["C_rho"].value, jv["ell_C"].value)
        want = (jv["C_chi"].value, jv["Q_chi"].value,
                jv["Q_gamma"].value, jv["Theta_I_sq"].value)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-12)


def test_vdb_oracle_theta_identity():
    c_chi, q_chi, q_gamma, theta_sq = vdb_oracle(-1.9, 0.55)
    assert theta_sq == -0.55 ** 2 * q_gamma


def test_vdb_oracle_pole():
    with pytest.raises(ZeroDivisionError):
        vdb_oracle(-1.0, 0.5)


def test_characterize_vdb_positive_and_negative():
    m = catalog("vdb")
    pts = grid_points(default_domain(m), 3, 3, margin=0.1)
    ok, rows = characterize_vdb([point_jets(m, pt, order=1) for pt in pts])
    assert ok
    assert all(r["residual"] < 1e-9 for r in rows
               if r["residual"] is not None)
    ok, _ = characterize_vdb([pushforward_jets(point_jets(m, pt),
                                               random_transform(4))
                              for pt in pts])
    assert ok
    lk = catalog("lambda_kundu")
    ok, _ = characterize_vdb([
        point_jets(lk, pt, order=1)
        for pt in grid_points(default_domain(lk), 3, 3, margin=0.1)])
    assert not ok


def test_build_signature_propagates_programming_errors(monkeypatch):
    # a batch that fails on an input error is evaluated point by point; a
    # programming error propagates from either path
    for batch in (True, False):
        def broken(m, point, *args, batch=batch, **kwargs):
            if isinstance(point[0], np.ndarray) != batch:
                raise SingularMetricError("input error")
            raise TypeError("bug")

        monkeypatch.setattr(metrics, "point_jets", broken)
        with pytest.raises(TypeError):
            build_signature(catalog("vdb"), n=4)


def _step_unlimited(jac, r, scales):
    """equivalence._step on one 6x2 system, its point so far out that no
    step is cut."""
    return equivalence._step(jac[None], r[None], np.array([[1e100, 0.0]]),
                             scales)[0]


def test_stacked_step_is_lstsq_on_well_conditioned_systems():
    rng = np.random.default_rng(0)
    scales = rng.uniform(0.1, 10.0, 6)
    jac = rng.normal(size=(50, 6, 2)) * rng.uniform(0.01, 100.0, (50, 6, 1))
    r = rng.normal(size=(50, 6))
    got = equivalence._step(jac, r, np.full((50, 2), 1e100), scales)
    for k in range(50):
        assert np.linalg.cond(jac[k] / scales[:, None]) < 1e4
        want = np.linalg.lstsq(jac[k] / scales[:, None], r[k], rcond=None)[0]
        assert np.abs(got[k] - want).max() <= 1e-12 * np.abs(want).max()
        # a stack of one gives the bits of the same row in a stack of 50
        assert _step_unlimited(jac[k], r[k], scales).tobytes() \
            == got[k].tobytes()


@pytest.mark.parametrize("column", [
    lambda a: np.zeros(6),  # a zero column
    lambda a: -3.0 * a])    # two parallel columns
def test_stacked_step_is_the_minimum_norm_lstsq_on_rank_one_systems(column):
    rng = np.random.default_rng(1)
    scales = rng.uniform(0.1, 10.0, 6)
    for _ in range(20):
        a = rng.normal(size=6) * scales
        jac, r = np.stack([a, column(a)], axis=1), rng.normal(size=6)
        want, _, rank, _ = np.linalg.lstsq(jac / scales[:, None], r,
                                           rcond=None)
        assert rank == 1
        got = _step_unlimited(jac, r, scales)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_step_is_the_pseudo_inverse_step_bit_for_bit():
    # the pinv and norm operations, written out, give their bits: on
    # rank-2 and rank-1 systems, each step short enough not to be cut
    rng = np.random.default_rng(3)
    scales = rng.uniform(0.1, 10.0, 6)
    jac = rng.normal(size=(40, 6, 2)) * rng.uniform(0.01, 100.0, (40, 6, 1))
    jac[::4, :, 1] = 2.0 * jac[::4, :, 0]
    jac[1::4, :, 1] = 0.0
    r, pts = rng.normal(size=(40, 6)), np.full((40, 2), 1e100)
    want = (np.linalg.pinv(jac / scales[:, None], rtol=None)
            @ r[..., None])[..., 0]
    assert equivalence._step(jac, r, pts, scales).tobytes() == want.tobytes()
    assert equivalence._norm(r).tobytes() \
        == np.linalg.norm(r, axis=-1).tobytes()


def test_step_is_cut_to_half_of_one_plus_the_distance_from_the_origin():
    jac = np.array([[[1.0, 0.0], [0.0, 1.0]] + [[0.0, 0.0]] * 4])
    r = np.array([[30.0, 40.0, 0.0, 0.0, 0.0, 0.0]])
    step = equivalence._step(jac, r, np.array([[3.0, 4.0]]), np.ones(6))
    # the step (30, 40) along itself, 3 = 0.5 (1 + 5) long
    assert step[0] == pytest.approx([1.8, 2.4], rel=1e-15)


def _random_metric_and_image():
    m = catalog("random_analytic", {"seed": 3})
    return m, apply_to_metric(m, _affine(
        [[0.9, 0.1], [-0.1, 1.1]], [0.05, -0.1], [[0.3, -0.2], [0.1, 0.4]],
        [[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("pair", [
    # Consistent; Inconsistent, with a witness; Consistent, with
    # coverages that differ
    lambda: (catalog("vdb"), _vdb_image()),
    lambda: (catalog("vdb"), catalog("random_analytic", {"seed": 1})),
    _random_metric_and_image])
def test_swapping_the_metrics_swaps_the_sides_of_the_verdict(pair):
    a, b = pair()
    ab, ba = compare_metrics(a, b, n=5), compare_metrics(b, a, n=5)
    assert (ab.verdict, ab.max_discrepancy) == (ba.verdict, ba.max_discrepancy)
    assert (ab.coverage_a, ab.coverage_b) == (ba.coverage_b, ba.coverage_a)
    assert (ab.witness is None) == (ba.witness is None)
    if ab.witness is not None:
        swap = {"a_point": "b_point", "b_point": "a_point",
                "a_values": "b_values", "b_values": "a_values"}
        assert ab.witness == {swap.get(key, key): value
                              for key, value in ba.witness.items()}
