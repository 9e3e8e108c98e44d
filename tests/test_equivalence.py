import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2inv import catalog, equivalence, metrics, point_jets
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
    with pytest.raises(InsufficientCoverageError, match="only 0 generic"):
        build_signature(m, n=4)


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


def test_compare_metrics_materialized_transform():
    m = catalog("vdb")
    p = make_transform("0.8*t1 + 0.1*t2 + 0.05", "-0.2*t1 + 1.1*t2 - 0.3",
                       "0.5*t1 - 0.2*t2", "0.3*t2",
                       [[2.0, 1.0], [0.0, 1.0]])
    v = compare_metrics(m, apply_to_metric(m, p, name="vdbt"))
    assert v.verdict == "Consistent"
    assert v.max_discrepancy < 1e-8


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
    """Gauss-Newton from one start after another, one point at a time:
    what the lockstep projector must give, bit for bit."""
    best = (np.inf, None, None)
    for start in starts:
        pt, prev = np.array(start.point), np.inf
        point, values, jac = start.point, np.array(start.values), start.jac
        for _ in range(12):
            if point is None:
                try:
                    pj = point_jets(m, pt, order=2)
                    values, jac = equivalence._fundamentals(pj)
                except (G2InvError, ArithmeticError):
                    break
                point = pj.point
            r = (values - target) / scales
            res = float(np.linalg.norm(r))
            if not (np.isfinite(res) and np.isfinite(jac).all()):
                break
            if res < best[0]:
                best = (res, point, values)
            if res < equivalence.CONVERGED or res > 0.9 * prev:
                break
            prev = res
            step = np.linalg.lstsq(jac / scales[:, None], r, rcond=None)[0]
            limit = 0.5 * (1.0 + np.linalg.norm(pt))
            norm = np.linalg.norm(step)
            if norm > limit:
                step *= limit / norm
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


@pytest.mark.parametrize("make_b", [
    # most samples converge at the first start, four at the second, one
    # at the fourth, two never do
    _vdb_image,
    # no sample converges; Newton steps from the samples of vdb leave the
    # valid set, so batches fail and their points are evaluated one by one
    _cut_random_metric])
def test_lockstep_projection_is_the_projection_start_by_start(make_b):
    mb = make_b()
    from_a = build_signature(catalog("vdb"), n=5).samples
    to_b = build_signature(mb, rect=mb.domain, n=5).samples
    scales = equivalence._scales(np.array([s.values for s in from_a + to_b]))
    v_b = np.array([s.values for s in to_b])
    targets = [np.array(s.values) for s in from_a]
    starts = [[to_b[j] for j in np.argsort(
        np.linalg.norm((v_b - v) / scales, axis=1))[:4]] for v in targets]
    got = equivalence._project(mb, targets, starts, scales)
    for (res, point, values), target, ss in zip(got, targets, starts):
        want = _project_in_turn(mb, target, ss, scales)
        assert (res, point) == want[:2]
        assert np.array(values).tobytes() == np.array(want[2]).tobytes()


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
