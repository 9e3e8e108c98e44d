import json
import math
from collections import Counter

import numpy as np
import pytest

from g2inv import (catalog, classify, cli, einstein, invariants1,
                   invariants2, load_metric, point_jets)
from g2inv.errors import MetricDefinitionError, SingularMetricError
from g2inv.metrics import (CATALOG_NAMES, component_scale, default_domain,
                           grid_points)

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
    from g2inv.einstein import four_metric_values
    rng = np.random.default_rng(5)
    m = catalog("vdb")
    for _ in range(10):
        pt = (rng.uniform(0.3, 1.2), rng.uniform(0.7, 1.5))
        pj = point_jets(m, pt, order=1)
        g4 = four_metric_values(pj)
        lhs = np.linalg.det(g4)
        rhs = pj.det_gt.value * pj.det_h.value
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_bfh_roundtrip():
    # the 4-metric rebuilt from the submersion jets holds the bfh blocks
    m = catalog("vdb")
    from g2inv.expr import eval_scalar
    for pt in [(0.5, 1.0), (0.9, 1.3)]:
        g4 = point_jets(m, pt, order=1).g4
        for key, (a, b) in (("b11", (0, 0)), ("b12", (0, 1)),
                            ("b22", (1, 1)), ("f11", (0, 2)),
                            ("f12", (0, 3)), ("f21", (1, 2)),
                            ("f22", (1, 3)), ("h11", (2, 2)),
                            ("h12", (2, 3)), ("h22", (3, 3))):
            want = eval_scalar(m.asts[key], m.params, pt)
            assert g4[a][b].value == pytest.approx(want, rel=1e-12,
                                                   abs=1e-12)


def test_classify_flat():
    pj = point_jets(catalog("flat"), (0.1, 0.2), order=1)
    flags = classify(pj)
    assert flags.c_rho_zero and flags.ell_c_zero
    assert flags.orthogonally_transitive and not flags.generic


def test_classify_vdb_generic():
    pj = point_jets(catalog("vdb"), (0.5, 1.0), order=1)
    flags = classify(pj)
    assert flags.generic
    assert not flags.orthogonally_transitive
    assert flags.sign_det_h == 1 and flags.sign_det_gt == -1


def test_classify_ppwave1_degenerate():
    pj = point_jets(catalog("ppwave1"), (0.1, 0.2), order=1)
    flags = classify(pj)
    assert flags.c_rho_zero and flags.ell_c_zero


def test_classify_transitive_implies_null_curvature():
    for name in CATALOG_NAMES[:-1]:
        m = catalog(name)
        pt = grid_points(default_domain(m), 2, margin=0.2)[1]
        flags = classify(point_jets(m, pt, order=1))
        if flags.orthogonally_transitive:
            assert flags.ell_c_zero


def test_catalog_unknown_name():
    with pytest.raises(MetricDefinitionError):
        catalog("nope")


def test_catalog_unknown_param():
    with pytest.raises(MetricDefinitionError):
        catalog("ppwave2", {"zz": 1.0})


def test_catalog_vdb_spot_values():
    # closed-form spot values at (0.5, 1): C_rho and ell_C
    from g2inv.invariants1 import fundamental
    inv = fundamental(point_jets(catalog("vdb"), (0.5, 1.0), order=1))
    c6 = math.cosh(math.sqrt(6) * 0.5)
    s2, c2 = math.sinh(1.0), math.cosh(1.0)
    assert inv.C_rho == pytest.approx(-4 * c2 ** 2 / (c6 * s2 ** 6),
                                      rel=1e-12)
    assert inv.ell_C == pytest.approx(2 / (c6 * s2 ** 4), rel=1e-12)
    assert inv.C_rho == pytest.approx(-1.9557, abs=2e-4)
    assert inv.ell_C == pytest.approx(0.5672, abs=2e-4)


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


def test_component_scale_positive():
    pj = point_jets(catalog("vdb"), (0.5, 1.0), order=2)
    assert component_scale(pj) > 1.0


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

    for module, name in ((invariants1, "first_invariant_jets"),
                         (invariants1, "frame"),
                         (invariants1, "oneill_tensors"),
                         (einstein, "four_metric"),
                         (einstein, "christoffel4"),
                         (einstein, "riemann4"),
                         (invariants2, "second_invariants_from_jets")):
        counting(module, name)

    vdb = catalog("vdb")
    pts = grid_points(default_domain(vdb), 2, margin=0.1)
    for pt in pts:
        invariants1.relations_first(point_jets(vdb, pt))
    invariants2.relations_second(vdb, pts)
    lk = catalog("lambda_kundu")
    einstein.onshell_relations(lk, 3.0, grid_points(default_domain(lk), 2))
    path = tmp_path / "vdb.json"
    path.write_text(json.dumps(vdb.to_document()))
    assert cli.run(["grid", str(path), "--t1", "0.4:1.0:2", "--t2",
                    "0.8:1.4:2", "--order", "2", "--csv", "--out",
                    str(tmp_path / "grid.csv")]) == 0

    assert {name for name, _ in calls} == {
        "first_invariant_jets", "frame", "oneill_tensors", "four_metric",
        "christoffel4", "riemann4", "second_invariants_from_jets"}
    assert max(calls.values()) == 1, calls.most_common(3)
