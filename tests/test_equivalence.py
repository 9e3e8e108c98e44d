import pytest

from g2inv import catalog, metrics, point_jets
from g2inv.equivalence import (build_signature, characterize_vdb,
                               compare_metrics, vdb_oracle)
from g2inv.errors import InsufficientCoverageError
from g2inv.invariants1 import first_invariant_jets
from g2inv.metrics import default_domain, grid_points
from g2inv.transform import (apply_to_metric, make_transform,
                             pushforward_jets, random_transform)


def test_build_signature_vdb_retains_grid():
    sig = build_signature(catalog("vdb"), n=12)
    assert len(sig.samples) >= 100
    assert sig.pair == ("C_rho", "ell_C")


def test_build_signature_flat_insufficient():
    with pytest.raises(InsufficientCoverageError):
        build_signature(catalog("flat"), n=8)


def test_build_signature_dependent_pair_rejected():
    with pytest.raises(InsufficientCoverageError):
        build_signature(catalog("vdb"), n=8, pair=("C_rho", "C_rho"))


def test_pair_alias_resolution():
    sig = build_signature(catalog("vdb"), n=8, pair=("Crho", "lC"))
    assert sig.pair == ("C_rho", "ell_C")


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
    # a random_analytic metric against an affine image of itself: the
    # verdict is the known false Inconsistent, but its witness must pair
    # the matched point's invariants with their own discrepancy
    m = catalog("random_analytic", {"seed": 0})
    p = make_transform("1.122001*t1 + 0.123176*t2 + -0.267642",
                       "0.006130*t1 + 0.914321*t2 + -0.069979",
                       "-0.091527*t1 + -0.454725*t2",
                       "-0.451242*t1 + 0.499176*t2",
                       [[-2.0, 1.0], [1.0, -1.0]])
    image = apply_to_metric(m, p)
    v = compare_metrics(m, image, n=3, rect_b=image.domain)
    assert v.verdict == "Inconsistent"
    w = v.witness
    jv = point_jets(image, w["b_point"]).fields
    assert w["matched_rest"] == {k: jv[k].value for k in w["a_rest"]}
    assert w["discrepancy"] == max(
        abs(a - b) / max(1.0, abs(a), abs(b))
        for a, b in ((w["a_rest"][k], w["matched_rest"][k])
                     for k in w["a_rest"]))


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
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(metrics, "point_jets", broken)
    with pytest.raises(TypeError):
        build_signature(catalog("vdb"), n=4)
