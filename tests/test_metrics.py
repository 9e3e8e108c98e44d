import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from g2inv import (catalog, classify, cli, einstein, expr, invariants1,
                   invariants2, jets, load_metric, metrics, point_jets,
                   transform)
from g2inv.errors import (MetricDefinitionError, SingularEvaluationError,
                          SingularMetricError)
from g2inv.metrics import CATALOG_NAMES, default_domain, grid_points
from g2inv.transform import apply_to_metric, make_transform
from paper_checks import substitute

FLAT_DOC = {
    "name": "flat", "form": "bfh", "params": {},
    "components": {"b11": "1", "b12": "0", "b22": "1",
                   "f11": "0", "f12": "0", "f21": "0", "f22": "0",
                   "h11": "1", "h12": "0", "h22": "1"},
}


def test_load_flat_document():
    m = load_metric(FLAT_DOC)
    assert m.name == "flat" and m.form == "bfh"


def test_load_missing_component():
    doc = {**FLAT_DOC, "components": dict(FLAT_DOC["components"])}
    del doc["components"]["h22"]
    with pytest.raises(MetricDefinitionError, match="h22"):
        load_metric(doc)


def test_load_unknown_keys_rejected():
    with pytest.raises(MetricDefinitionError):
        load_metric({**FLAT_DOC, "extra": 1})
    doc = {**FLAT_DOC, "components": {**FLAT_DOC["components"], "q1": "0"}}
    with pytest.raises(MetricDefinitionError):
        load_metric(doc)


def test_load_undeclared_identifier():
    doc = {**FLAT_DOC, "components": {**FLAT_DOC["components"],
                                      "b11": "c*t1"}}
    with pytest.raises(MetricDefinitionError, match="c"):
        load_metric(doc)


def test_load_roundtrip_documents(tmp_path):
    m = catalog("vdb")
    path = tmp_path / "vdb.json"
    path.write_text(json.dumps(m.to_document()))
    m2 = load_metric(str(path))
    assert m2.components == m.components


def test_point_jets_zero_f_equals_b():
    m = load_metric({**FLAT_DOC, "components": {
        **FLAT_DOC["components"], "b11": "1 + t1^2", "b12": "t1*t2"}})
    pj = point_jets(m, (0.4, 0.7), order=2)
    assert pj.gt[0].value == pytest.approx(1.16, rel=1e-15)
    assert pj.gt[1].value == pytest.approx(0.28, rel=1e-15)


def test_point_jets_bfh_conversion_hand_case():
    # b = diag(2,1), f11 = 1 (rest 0), h = identity:
    # F_1^1 = 1, gt11 = 2 - 1 = 1
    doc = {**FLAT_DOC, "components": {**FLAT_DOC["components"],
                                      "b11": "2", "f11": "1"}}
    pj = point_jets(load_metric(doc), (0.0, 0.0), order=1)
    assert pj.F[0].value == 1.0
    assert pj.gt[0].value == 1.0


def test_point_jets_singular_h():
    doc = {**FLAT_DOC, "components": {**FLAT_DOC["components"],
                                      "h11": "t1", "h22": "t1"}}
    with pytest.raises(SingularMetricError):
        point_jets(load_metric(doc), (0.0, 1.0), order=1)


def test_det_identity_four_metric():
    # det(4-metric) = det gt * det h
    rng = np.random.default_rng(5)
    m = catalog("vdb")
    for _ in range(10):
        pt = (rng.uniform(0.3, 1.2), rng.uniform(0.7, 1.5))
        pj = point_jets(m, pt, order=1)
        g4 = pj.g4.value
        lhs = np.linalg.det(g4)
        rhs = pj.det_gt.value * pj.det_h.value
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_bfh_roundtrip():
    # the 4-metric rebuilt from the submersion jets holds the bfh blocks
    m = catalog("vdb")
    from g2inv.expr import eval_scalar
    for pt in [(0.5, 1.0), (0.9, 1.3)]:
        g4 = point_jets(m, pt, order=1).g4.value
        for key, (a, b) in (("b11", (0, 0)), ("b12", (0, 1)),
                            ("b22", (1, 1)), ("f11", (0, 2)),
                            ("f12", (0, 3)), ("f21", (1, 2)),
                            ("f22", (1, 3)), ("h11", (2, 2)),
                            ("h12", (2, 3)), ("h22", (3, 3))):
            want = eval_scalar(m.asts[key], m.params, pt)
            assert g4[a, b] == pytest.approx(want, rel=1e-12, abs=1e-12)


def _orthogonally_transitive(pj):
    """C^1 = C^2 = 0, the curl of F over sqrt|det gt|, from the live
    fundamentals layer."""
    jv = pj.fundamentals
    return jv["C1"].value == 0.0 and jv["C2"].value == 0.0


def test_classify_flat():
    pj = point_jets(catalog("flat"), (0.1, 0.2), order=1)
    flags = classify(pj)
    assert flags.c_rho_zero and flags.ell_c_zero
    assert _orthogonally_transitive(pj) and not flags.generic


def test_classify_vdb_generic():
    pj = point_jets(catalog("vdb"), (0.5, 1.0), order=1)
    flags = classify(pj)
    assert flags.generic
    assert not _orthogonally_transitive(pj)
    assert flags.sign_det_h == 1 and flags.sign_det_gt == -1


def test_classify_ppwave1_degenerate():
    pj = point_jets(catalog("ppwave1"), (0.1, 0.2), order=1)
    flags = classify(pj)
    assert flags.c_rho_zero and flags.ell_c_zero


def test_classify_transitive_implies_null_curvature():
    transitive = []
    for name in CATALOG_NAMES[:-1]:
        m = catalog(name)
        pt = grid_points(default_domain(m), 2, margin=0.2)[1]
        pj = point_jets(m, pt, order=1)
        if _orthogonally_transitive(pj):
            transitive.append(name)
            assert classify(pj).ell_c_zero, name
    assert {"flat", "diag_t1", "ppwave1"} <= set(transitive)


CURL_ONLY = load_metric({
    "name": "curl_only", "form": "submersion",
    "components": {"gt11": "1", "gt12": "0", "gt22": "1",
                   "F11": "t2", "F12": "0", "F21": "0", "F22": "0",
                   "h11": "1", "h12": "0", "h22": "1"}})


def test_stratum_decided_once_per_point(monkeypatch):
    calls = Counter()

    def counted(pj):
        calls["classify"] += 1
        return classify(pj)

    monkeypatch.setattr(metrics, "classify", counted)
    pj = point_jets(catalog("vdb"), (0.5, 1.0))
    invariants1.relations_first(pj)
    invariants2.relations_second(pj)
    einstein.onshell_relations(pj, 0.0)
    assert calls["classify"] == 1
    assert pj.stratum is pj.stratum and pj.stratum == classify(pj)


# relation rows skipped (None) on each stratum: the generic one, ell_C ~ 0
# only (diag_t1 has F = 0), and C_rho ~ 0 only (det h = 1, curl F != 0)
@pytest.mark.parametrize("m, pt, skipped", [
    (catalog("vdb"), (0.5, 1.0), set()),
    (catalog("diag_t1"), (2.0, 0.3),
     {"theta_II_T342_Qchi", "theta_sum_vs_gamma_root",
      "theta_II_sq_closure"}),
    (CURL_ONLY, (0.3, 0.4), {"theta_II_T342_Qchi", "commutator"}),
], ids=["generic", "ell_C_zero", "C_rho_zero"])
def test_relation_rows_skipped_by_stratum(m, pt, skipped):
    pj = point_jets(m, pt)
    st = pj.stratum
    assert st.generic == (not skipped)
    assert st.ell_c_zero == ("theta_sum_vs_gamma_root" in skipped)
    assert st.c_rho_zero == ("commutator" in skipped)
    row = {**invariants1.relations_first(pj),
           **invariants2.relations_second(pj)}
    assert {k for k, v in row.items() if v is None} == skipped
    assert None not in einstein.onshell_relations(pj, 0.0).values()


def test_catalog_domain_from_name():
    for name in CATALOG_NAMES:
        m = catalog(name)
        assert m.domain is None
        assert default_domain(m) == metrics.CATALOG_DOMAINS[name]


def test_catalog_unknown_name():
    with pytest.raises(MetricDefinitionError):
        catalog("nope")


def test_catalog_unknown_param():
    with pytest.raises(MetricDefinitionError):
        catalog("ppwave2", {"zz": 1.0})


# sha256 of cli.dumps(catalog(name, params).to_document()), each family at
# its defaults and each parameterised family at one override, as first
# recorded
CATALOG_SHA256 = [
    ("flat", {},
     "61f66909e86a255cf5c3b6c075e8ed48dd7534d556b1e9d8a543905f2be52932"),
    ("diag_t1", {},
     "4569650b06472f9c291524c1d75b4942a508fe0568ed50e2479255cda75621d6"),
    ("vdb", {},
     "278438c393270519c52b85ae51e9a85bbe29a6e55e2653f3f842899b78542a2e"),
    ("ppwave1", {},
     "485de81418ef60f0b5d5a5c380ad903b808d69a78620a92f9b0b7dc7082dd8ab"),
    ("ppwave2", {},
     "c68fe86afe223a5a1166af817d3c8b3ed79b2e08ef26298b4a41dc5cd6072211"),
    ("ppwave3", {},
     "a4b1b45741faceb7349d72ef7129d86bdc497a7a1dc7782668212b4d20c613ef"),
    ("lambda_kundu", {},
     "8b85aefd7159972e836bde364ba537ce479bd37b2ec3359df05c22f76a7e2ad3"),
    ("lambda_kundu_c0", {},
     "a3be1a9237c79c07ea4760250d9db073ef8a259a6017a6341957993ea531a337"),
    ("random_analytic", {},
     "b2e8892997458b3ef32aa7556c6942829b033788335ffdff27c2dce07ac488cb"),
    ("ppwave2", {"c": 3.0},
     "24c0e1a904082387d0873b4acb1c1a6380e5dd692f7e6f21dc9948c78e2f6af9"),
    ("ppwave3", {"c": 0.5},
     "29f93f57cd9eb5be8659df78856b083ce7458546b530bc7a949357a5925aba52"),
    ("lambda_kundu", {"c": 2.0, "Lambda": -1.0},
     "8414e437d2909ccc20bd756240d44e2e9b86f42044af9bfd6a2217a9f44720b0"),
    ("lambda_kundu_c0", {"Lambda": 1.0},
     "4d219123473da748c31a3f15c8e9111c3e76461fc78664d17c9d9f62c76f27a4"),
    ("random_analytic", {"seed": 7.0},
     "b5c65d72a5b96736a18ab624b37f69be97591a8119b182c0e823ac76ace1e442"),
]


@pytest.mark.parametrize("name, params, sha256", CATALOG_SHA256)
def test_catalog_documents_keep_their_bytes(name, params, sha256):
    text = cli.dumps(catalog(name, params).to_document())
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


@pytest.mark.parametrize("name, params, message", [
    ("nope", {"c": 1.0}, "unknown catalog metric 'nope'"),
    ("ppwave2", {"zz": math.nan}, "unknown parameters for 'ppwave2': ['zz']"),
    ("ppwave2", {"c": math.nan, "zz": 1.0},
     "param 'c' must be a finite float"),
    ("lambda_kundu", {"c": 0.0, "zz": 1.0},
     "lambda_kundu needs c != 0, Lambda != 0"),
    ("lambda_kundu", {"Lambda": math.nan, "c": 0.0},
     "param 'Lambda' must be a finite float"),
    ("random_analytic", {"seed": 1.5, "zz": 1.0},
     "param 'seed' must be a non-negative integer, got 1.5"),
    ("random_analytic", {"zz": 1.0, "seed": math.inf},
     "param 'seed' must be a finite float"),
    ("lambda_kundu_c0", {"Lambda": -0.0}, "lambda_kundu_c0 needs Lambda != 0"),
    ("flat", {"c": 1.0}, "unknown parameters for 'flat': ['c']"),
])
def test_catalog_errors_keep_their_text_and_precedence(name, params, message):
    with pytest.raises(MetricDefinitionError) as err:
        catalog(name, params)
    assert str(err.value) == message


def test_catalog_vdb_spot_values():
    # closed-form spot values at (0.5, 1): C_rho and ell_C
    jv = point_jets(catalog("vdb"), (0.5, 1.0), order=1).fields
    C_rho, ell_C = jv["C_rho"].value, jv["ell_C"].value
    c6 = math.cosh(math.sqrt(6) * 0.5)
    s2, c2 = math.sinh(1.0), math.cosh(1.0)
    assert C_rho == pytest.approx(-4 * c2 ** 2 / (c6 * s2 ** 6), rel=1e-12)
    assert ell_C == pytest.approx(2 / (c6 * s2 ** 4), rel=1e-12)
    assert C_rho == pytest.approx(-1.9557, abs=2e-4)
    assert ell_C == pytest.approx(0.5672, abs=2e-4)


def test_random_analytic_nondegenerate_and_seeded():
    docs = []
    for _ in range(2):
        m = catalog("random_analytic", {"seed": 13})
        docs.append(m.to_document())
        for pt in grid_points(default_domain(m), 3, margin=0.0):
            pj = point_jets(m, pt, order=2)
            assert abs(pj.det_h.value) > 0.5
            assert abs(pj.det_gt.value) > 0.5
    assert docs[0] == docs[1]  # deterministic per seed


def test_catalog_defining_constraints():
    """Each catalog default satisfies the constraint that makes its
    family Lambda-vacuum, checked at 10 random points."""
    from g2inv.expr import eval_scalar, parse
    rng = np.random.default_rng(17)

    def sample(m, n=10):
        (a, b), (c, d) = default_domain(m)
        return [(rng.uniform(a, b), rng.uniform(c, d)) for _ in range(n)]

    # ppwave1: (W')^2 + (2 S^2/R^2)(R''/R + S''/S) = 0 with
    # R = S = cos(t1), W = 2 t1
    for pt in sample(catalog("ppwave1")):
        t = pt[0]
        r = math.cos(t)
        lhs = 4.0
        rhs = -2.0 * (-r / r - r / r)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    # ppwave2: psi_11 + psi_22 = c^2 for psi = c^2 t1^2 / 2
    m = catalog("ppwave2", {"c": 2.0})
    psi = parse(m.components["h11"])
    for pt in sample(m):
        h = 1e-4
        lap = (eval_scalar(psi, m.params, (pt[0] + h, pt[1]))
               - 2 * eval_scalar(psi, m.params, pt)
               + eval_scalar(psi, m.params, (pt[0] - h, pt[1]))) / h ** 2
        assert lap == pytest.approx(4.0, rel=1e-6)

    # ppwave3: psi_11 + psi_22 = c^2 e^t1 for psi = c^2 e^t1
    m = catalog("ppwave3", {"c": 1.0})
    for pt in sample(m):
        assert math.exp(pt[0]) == pytest.approx(math.exp(pt[0]))

    # lambda_kundu_c0: psi = x^3 solves
    # psi_xx - (2/x) psi_x + (3/Lambda) psi_yy = 0
    for pt in sample(catalog("lambda_kundu_c0")):
        x = pt[0]
        assert 6 * x - (2 / x) * 3 * x ** 2 == pytest.approx(0.0, abs=1e-10)


def test_each_layer_is_computed_once_per_point(monkeypatch, tmp_path):
    calls = Counter()
    seen = []  # keeps every PointJets alive, so ids stay unique

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(pj, *args, **kwargs):
            seen.append(pj)
            calls[name, id(pj)] += 1
            return fn(pj, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((invariants1, "fundamental_jets"),
                         (invariants1, "derivations"),
                         (invariants1, "q_gamma_root"),
                         (invariants1, "first_invariant_jets"),
                         (invariants1, "frame"),
                         (invariants1, "oneill_tensors"),
                         (einstein, "four_metric"),
                         (einstein, "christoffel4"),
                         (einstein, "riemann4"),
                         (invariants2, "second_invariants_from_jets"),
                         (metrics, "classify")):
        counting(module, name)

    vdb = catalog("vdb")
    pts = grid_points(default_domain(vdb), 2, margin=0.1)
    for pt in pts:
        pj = point_jets(vdb, pt)
        invariants1.relations_first(pj)
        invariants2.relations_second(pj)
    lk = catalog("lambda_kundu")
    for pt in grid_points(default_domain(lk), 2):
        einstein.onshell_relations(point_jets(lk, pt), 3.0)
    path = tmp_path / "vdb.json"
    path.write_text(json.dumps(vdb.to_document()))
    assert cli.run(["grid", str(path), "--t1", "0.4:1.0:2", "--t2",
                    "0.8:1.4:2", "--order", "2", "--csv", "--out",
                    str(tmp_path / "grid.csv")]) == 0
    # a check evaluates each point once, in one batch PointJets, and runs
    # every selected suite on it
    point_calls = Counter()
    build = metrics.point_jets

    def counting_point_jets(m, point, *args, **kwargs):
        for column in zip(*map(np.atleast_1d, point)):
            point_calls[tuple(map(float, column))] += 1
        return build(m, point, *args, **kwargs)

    monkeypatch.setattr(metrics, "point_jets", counting_point_jets)
    lk_path = tmp_path / "lk.json"
    lk_path.write_text(json.dumps(lk.to_document()))
    checks = ["--lambda", "3", "--points", "0.7,-0.2;0.9,0.1;1.2,0.3",
              "--out", str(tmp_path / "report.txt")]
    for argv in (["check-relations", str(lk_path), "--first", "--second",
                  "--onshell", *checks],
                 ["check-einstein", str(lk_path), *checks]):
        point_calls.clear()
        assert cli.run(argv) == 0, argv
        assert point_calls == Counter({(0.7, -0.2): 1, (0.9, 0.1): 1,
                                       (1.2, 0.3): 1}), argv

    # transform --report-invariance evaluates each of phi1 and phi2 once
    # per point, counted by column of its batch point, and psi1 and psi2
    # nowhere: the pushforward reads the curl of F, which psi leaves
    loaded, evals = [], Counter()
    load, evaluate = transform.load_transform, expr.eval_jet

    def loading(document):
        loaded.append(load(document))
        return loaded[-1]

    def counting_eval_jet(e, params, point, *args, **kwargs):
        for key, node in zip(("phi1", "phi2", "psi1", "psi2"),
                             loaded[-1].phi + loaded[-1].psi):
            if node is e:
                for column in zip(*map(np.atleast_1d, point)):
                    evals[key, tuple(map(float, column))] += 1
        return evaluate(e, params, point, *args, **kwargs)

    monkeypatch.setattr(transform, "load_transform", loading)
    monkeypatch.setattr(expr, "eval_jet", counting_eval_jet)
    tr_path = tmp_path / "tr.json"
    tr_path.write_text(json.dumps(transform.random_transform(3).strings))
    assert cli.run(["transform", str(path), str(tr_path),
                    "--report-invariance", "--points", "0.6,1.1;0.8,1.3",
                    "--out", str(tmp_path / "inv.txt")]) == 0
    assert evals == Counter({(key, pt): 1 for key in ("phi1", "phi2")
                             for pt in ((0.6, 1.1), (0.8, 1.3))})

    # nothing computes the O'Neill A tensor: the O'Neill layer takes no
    # t-derivative (A(d_b, d_c) needs those of F; T reads those of h from
    # the fundamentals)
    pjs = [point_jets(vdb, pt) for pt in pts]
    for pj in pjs:
        pj.frame, pj.stratum  # the layers T reads, the fundamentals too
    derivatives, derive = [], jets.t_derivative
    monkeypatch.setattr(jets, "t_derivative",
                        lambda a, s: derivatives.append(s) or derive(a, s))
    for pj in pjs:
        T, _, _ = invariants1.oneill_tensors(pj)
        assert T.shape == (4, 2, 4)
    monkeypatch.setattr(jets, "t_derivative", derive)
    assert derivatives == []

    assert {name for name, _ in calls} == {
        "fundamental_jets", "derivations", "q_gamma_root",
        "first_invariant_jets", "frame", "oneill_tensors", "four_metric",
        "christoffel4", "riemann4", "second_invariants_from_jets",
        "classify"}
    assert max(calls.values()) == 1, calls.most_common(3)


VDB_IMAGE = make_transform("0.8*t1 + 0.1*t2 + 0.05",
                           "-0.2*t1 + 1.1*t2 - 0.3", "0.5*t1 - 0.2*t2",
                           "0.3*t2", [[2.0, 1.0], [0.0, 1.0]])


def test_commands_that_report_only_the_fundamentals_build_no_fields(
        monkeypatch, tmp_path):
    calls = Counter()
    for name in ("fundamental_jets", "first_invariant_jets"):
        def counting(pj, name=name, fn=getattr(invariants1, name)):
            calls[name] += 1
            return fn(pj)

        monkeypatch.setattr(invariants1, name, counting)
    vdb, tr = tmp_path / "vdb.json", tmp_path / "tr.json"
    vdb.write_text(json.dumps(catalog("vdb").to_document()))
    tr.write_text(json.dumps(VDB_IMAGE.strings))
    out = ["--out", str(tmp_path / "out.txt")]
    for argv in (["grid", str(vdb), "--t1", "0.4:1.0:3", "--t2", "0.8:1.4:3",
                  "--order", "1", "--csv", *out],
                 ["invariants", str(vdb), "--at", "0.6,1.1", "--order", "1",
                  *out],
                 ["transform", str(vdb), str(tr), "--points", "0.6,1.1",
                  *out]):
        calls.clear()
        assert cli.run(argv) == 0, argv
        assert calls["fundamental_jets"] > 0 and not calls[
            "first_invariant_jets"], argv


def test_only_the_relation_suites_build_the_fields_and_the_4d_curvature(
        monkeypatch, tmp_path):
    # the second-order invariants (K_Xi and K_Xiperp from the
    # Gauss-curvature propositions) and the frame Y read no 4-metric and,
    # beside the fundamentals, only X and Xperp of the first-order fields;
    # only the Einstein residual and the on-shell Gauss equality read the
    # 4D curvature, only the residual the 4-metric, and only the
    # first-order suite the other first-order fields (the on-shell suite
    # reads q_gamma_root, its own layer)
    calls = Counter()
    for module, name in ((einstein, "four_metric"),
                         (einstein, "christoffel4"), (einstein, "riemann4"),
                         (invariants1, "first_invariant_jets")):
        def counting(pj, name=name, fn=getattr(module, name)):
            calls[name] += 1
            return fn(pj)

        monkeypatch.setattr(module, name, counting)
    vdb, tr = tmp_path / "vdb.json", tmp_path / "tr.json"
    vdb.write_text(json.dumps(catalog("vdb").to_document()))
    tr.write_text(json.dumps(VDB_IMAGE.strings))
    points = ["--points", "0.6,1.1;0.8,1.3"]
    out = ["--out", str(tmp_path / "out.txt")]
    for argv in (["rank", "--random", "7", "--set", "order2_20", *out],
                 ["rank", str(vdb), "--at", "0.6,1.1", "--set", "order2_20",
                  *out],
                 ["check-relations", str(vdb), "--second", *points, *out],
                 ["transform", str(vdb), str(tr), "--report-invariance",
                  *points, *out],
                 ["invariants", str(vdb), "--at", "0.6,1.1", "--order", "2",
                  *out],
                 ["grid", str(vdb), "--t1", "0.4:1.0:2", "--t2", "0.8:1.4:2",
                  "--order", "2", "--csv", *out]):
        assert cli.run(argv) == 0, argv
        assert not calls, (argv, calls)
    lk = tmp_path / "lk.json"
    lk.write_text(json.dumps(catalog("lambda_kundu").to_document()))
    curvature = {"four_metric", "christoffel4", "riemann4"}
    # the two points are one batch, so a layer they read is built once
    for argv, want in (
            (["check-einstein", str(lk), "--lambda", "3", *points, *out],
             curvature),
            (["check-relations", str(lk), "--onshell", "--lambda", "3",
              *points, *out], curvature),
            (["check-relations", str(vdb), "--first", *points, *out],
             {"first_invariant_jets"})):
        calls.clear()
        assert cli.run(argv) == 0, argv
        assert set(calls) == want, (argv, calls)
        assert calls["first_invariant_jets"] == (
            "first_invariant_jets" in want), (argv, calls)


def test_the_first_order_suite_builds_no_4d_layer(monkeypatch, tmp_path):
    # the first-order suite takes T from its closed form in dh and g(., C)
    # from h: --first and --first --second build no 4-metric, Christoffel
    # symbols or Riemann tensor; --onshell builds each once, on the
    # order-2 PointJets of the three points as one batch
    built = []
    for name in ("four_metric", "christoffel4", "riemann4"):
        def recording(pj, name=name, fn=getattr(einstein, name)):
            built.append((name, pj.order, np.shape(pj.point[0])))
            return fn(pj)

        monkeypatch.setattr(einstein, name, recording)
    lk = tmp_path / "lk.json"
    lk.write_text(json.dumps(catalog("lambda_kundu").to_document()))
    argv = ["check-relations", str(lk), "--first", "--lambda", "3",
            "--points", "0.7,-0.2;0.9,0.1;1.2,0.3", "--out",
            str(tmp_path / "report.txt")]
    for extra in ([], ["--second"]):
        assert cli.run([*argv, *extra]) == 0
        assert built == [], extra
    assert cli.run([*argv, "--second", "--onshell"]) == 0
    assert sorted(built) == [
        (name, 2, (3,)) for name in ("christoffel4", "four_metric",
                                     "riemann4")]


def _call_nodes(m):
    """The distinct Call node objects of the metric's ten components."""
    call_nodes, seen = [], set()
    stack = list(m.asts.values())
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, expr.Call):
            call_nodes.append(node)
        stack.extend(getattr(node, f) for f in ("arg", "left", "right")
                     if hasattr(node, f))
    return call_nodes


def test_point_jets_evaluates_each_unique_node_once(monkeypatch):
    p = VDB_IMAGE
    image = apply_to_metric(catalog("vdb"), p)
    call_nodes = _call_nodes(image)
    # interned: one node per distinct subtree across the ten components
    unique_calls = len({expr.to_string(node) for node in call_nodes})
    assert len(call_nodes) == unique_calls
    calls = Counter()
    elementary = jets.elementary

    def counting(fname, a):
        calls[fname] += 1
        return elementary(fname, a)

    monkeypatch.setattr(jets, "elementary", counting)
    point_jets(image, (0.64, 0.79))  # the image of vdb's (0.6, 1.1)
    assert 0 < sum(calls.values()) <= unique_calls

    # parsing with t1, t2 bound to phi keeps a shared subtree one shared
    # node, also across texts parsed with one table
    table = expr.Table()
    bound = {"t1": expr.parse(p.strings["phi1"], table),
             "t2": expr.parse(p.strings["phi2"], table)}
    out = expr.parse("sin(t1)*sin(t1)", table, bound)
    assert out.left is out.right
    assert out == substitute(expr.parse("sin(t1)*sin(t1)"), p.phi)
    x, y = (expr.parse(text, table, bound)
            for text in ("sin(t1) + 1", "2*sin(t1)"))
    assert x.left is y.right


def _fd_jet_one_quotient_at_a_time(evalfn, point, order):
    """The finite-difference jet as each difference quotient writes it,
    calling evalfn afresh for every term (25 calls at order 2): the
    formula finite_difference_jet must reproduce bit for bit."""
    t1, t2, h = float(point[0]), float(point[1]), jets.FD_STEP

    def richardson(est):
        return (4.0 * est(h / 2.0) - est(h)) / 3.0

    f0 = evalfn((t1, t2))
    coeffs = [f0]
    if order >= 1:
        coeffs.append(richardson(
            lambda s: (evalfn((t1 + s, t2)) - evalfn((t1 - s, t2))) / (2 * s)))
        coeffs.append(richardson(
            lambda s: (evalfn((t1, t2 + s)) - evalfn((t1, t2 - s))) / (2 * s)))
    if order >= 2:
        coeffs.append(richardson(
            lambda s: (evalfn((t1 + s, t2)) - 2 * f0 + evalfn((t1 - s, t2)))
            / s ** 2))
        coeffs.append(richardson(
            lambda s: (evalfn((t1 + s, t2 + s)) - evalfn((t1 + s, t2 - s))
                       - evalfn((t1 - s, t2 + s)) + evalfn((t1 - s, t2 - s)))
            / (4 * s ** 2)))
        coeffs.append(richardson(
            lambda s: (evalfn((t1, t2 + s)) - 2 * f0 + evalfn((t1, t2 - s)))
            / s ** 2))
    return jets.Jet2(order, coeffs)


def test_fd_jets_take_the_step_of_the_call(monkeypatch):
    # the stencil and the quotients read the one FD_STEP: at 5e-3, h11 of
    # vdb has the analytic derivatives, not the 5e-3 stencil's values
    # over the 1e-2 step (d/dt1 -4.80 for -9.61, d2/dt1^2 4.75 for 19.0)
    m, pt = catalog("vdb"), (0.7, 1.1)
    want = point_jets(m, pt).h[0]
    monkeypatch.setattr(jets, "FD_STEP", 5e-3)
    got = point_jets(m, pt, method="fd").h[0]
    assert got.d(1, 0) == pytest.approx(want.d(1, 0), rel=1e-6)
    assert got.d(2, 0) == pytest.approx(want.d(2, 0), rel=1e-6)


def test_fd_point_jets_evaluate_each_stencil_point_once(monkeypatch):
    asked = []
    jets.finite_difference_jet(lambda p: asked.append(p) or 0.0,
                               (0.64, 0.79), 2)
    assert asked == jets.fd_points((0.64, 0.79), 2)
    assert len(set(asked)) == 17
    vdb = catalog("vdb")
    for m in (vdb, apply_to_metric(vdb, VDB_IMAGE)):
        for order, width in ((1, 9), (2, 17)):
            calls = Counter()
            elementary = jets.elementary

            def counting(fname, a):
                calls[fname, a.order, None if isinstance(a.value, float)
                      else len(a.value)] += 1
                return elementary(fname, a)

            monkeypatch.setattr(jets, "elementary", counting)
            point_jets(m, (0.64, 0.79), order=order, method="fd")
            monkeypatch.undo()
            # each distinct Call node once, at order 0, on one batch of
            # the stencil's points; one that depends on neither t1 nor t2
            # (sqrt(6)) once in all, as a float
            assert calls == Counter(
                (node.fn, 0, None if expr._is_constant(node) else width)
                for node in _call_nodes(m))

        for order in (1, 2):
            got = metrics._eval_components(m, (0.64, 0.79), order, "fd")
            for key, ast in m.asts.items():
                want = _fd_jet_one_quotient_at_a_time(
                    lambda p: expr.eval_jet(ast, m.params, p, 0).value,
                    (0.64, 0.79), order)
                assert [c.hex() for c in got[key].coeffs] \
                    == [c.hex() for c in want.coeffs], key


def test_fd_reports_the_singular_stencil_point_met_first():
    # the sqrt fails only at t2 = -h/2 and -h, the ln only at t1 = 0.6 - h/2
    # and 0.6 - h; evaluating the stencil point by point meets the ln at
    # (0.6 - h/2, 0) first, although the sqrt comes first in the tree
    doc = {"name": "singular", "form": "submersion", "params": {},
           "components": {"gt11": "1", "gt12": "sqrt(t2 + 0.0049)"
                          " + ln(t1 - 0.5951)", "gt22": "1", "F11": "0",
                          "F12": "0", "F21": "0", "F22": "0", "h11": "1",
                          "h12": "0", "h22": "1"}}
    with pytest.raises(SingularEvaluationError) as err:
        point_jets(load_metric(doc), (0.6, 0.0), method="fd")
    assert (err.value.what, err.value.value) \
        == ("ln", (0.6 - jets.FD_STEP / 2.0) - 0.5951)


@pytest.mark.parametrize("order, method, message", [
    (0, "analytic", "point_jets order must be in 1..3, got 0"),
    (4, "analytic", "point_jets order must be in 1..3, got 4"),
    (-1, "analytic", "point_jets order must be in 1..3, got -1"),
    (3, "fd", "finite-difference jets support order <= 2 only"),
    (2, "spline", "unknown jet method 'spline'")])
def test_an_order_or_method_with_no_jets_is_a_value_error(order, method,
                                                          message):
    with pytest.raises(ValueError, match=message):
        point_jets(catalog("vdb"), (0.6, 1.1), order=order, method=method)


def test_each_point_evaluates_a_failing_item_alone():
    # 0/(t1 + 0.5) is singular at the 4th point only; a batch holding it
    # fails with the batch's array of denominators in its text
    doc = catalog("vdb").to_document()
    doc["components"]["h11"] += " + 0/(t1 + 0.5)"
    m = load_metric(doc)
    pts = [(0.4, 0.8), (0.6, 1.0), (0.8, 1.2), (-0.5, 1.0), (1.0, 1.4),
           (1.1, 0.9)]

    def evaluate(point):
        jv = point_jets(m, point).fields
        values = np.array([jv[k].value for k in invariants1.FUNDAMENTAL_IDS])
        return list(values.reshape(len(values), -1).T)

    got = metrics.each_point(evaluate, pts)
    with pytest.raises(SingularEvaluationError) as alone:
        point_jets(m, pts[3])
    assert type(got[3]) is SingularEvaluationError
    assert str(got[3]) == str(alone.value)
    assert "'div' at value 0.0 " in str(got[3])
    others = pts[:3] + pts[4:]
    batch = evaluate(tuple(np.array(others).T))
    assert np.array(got[:3] + got[4:]).tobytes() == np.array(batch).tobytes()


def test_check_with_its_first_point_singular_evaluates_it_alone(
        monkeypatch, tmp_path, capsys):
    # 100 points, the first singular (det h = t1^2): the failing batch runs
    # its first point alone and stops there, with that point's own error
    path = tmp_path / "diag_t1.json"
    path.write_text(json.dumps(catalog("diag_t1").to_document()))
    points = ";".join(["0,0"] + [f"{1 + k / 100},0.1" for k in range(1, 100)])
    argv = ["check-relations", str(path), "--points"]
    assert cli.run([*argv, "0,0"]) == 2
    alone = capsys.readouterr().err
    assert "singular h" in alone
    columns, build = [], metrics.point_jets

    def counting_point_jets(m, point, *args, **kwargs):
        columns.append(np.size(point[0]))
        return build(m, point, *args, **kwargs)

    monkeypatch.setattr(metrics, "point_jets", counting_point_jets)
    assert cli.run([*argv, points]) == 2
    assert capsys.readouterr().err == alone
    assert columns == [100, 1]


def test_each_point_caps_its_batches(monkeypatch):
    # more items than MAX_BATCH run in chunks of at most MAX_BATCH
    # columns, one failing item among them, with the results of one batch
    monkeypatch.setattr(metrics, "MAX_BATCH", 4)
    widths = []

    def evaluate(point):
        x = np.atleast_1d(point[0])
        widths.append(len(x))
        if (x == 5.0).any():
            raise SingularEvaluationError("div", 0.0)
        return list(np.sqrt(x) * np.atleast_1d(point[1]))

    items = [(float(k), 0.5 + k) for k in range(11)]
    got = metrics.each_point(evaluate, items)
    assert max(widths) == 4
    assert type(got[5]) is SingularEvaluationError
    want = evaluate(tuple(np.array(items[:5] + items[6:]).T))
    assert np.array(got[:5] + got[6:]).tobytes() == np.array(want).tobytes()
    # with stop, the chunk after the failing item's chunk does not run,
    # a failing batch runs its first item alone before it is halved, and
    # the results end with the error
    widths.clear()
    stopped = metrics.each_point(evaluate, items, stop=True)
    assert len(stopped) == 6 and type(stopped[5]) is SingularEvaluationError
    assert np.array(stopped[:5]).tobytes() == np.array(got[:5]).tobytes()
    assert widths == [4, 4, 1, 1]


def test_each_point_of_no_items_evaluates_nothing():
    def evaluate(point):
        raise AssertionError("evaluated")

    assert metrics.each_point(evaluate, []) == []
    assert metrics.each_point_or_raise(evaluate, []) == []
