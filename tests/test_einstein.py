import math

import numpy as np
import pytest

from g2inv import catalog, einstein, load_metric, point_jets
from g2inv.metrics import default_domain, grid_points

Z = {k: "0" for k in ("b11", "b12", "b22", "f11", "f12", "f21", "f22",
                      "h11", "h12", "h22")}


def test_four_metric_flat_is_identity():
    g = einstein.four_metric_values(point_jets(catalog("flat"), (0.5, 0.5)))
    assert np.allclose(g, np.eye(4))


def test_four_metric_blocks_match_expressions():
    m = catalog("vdb")
    from g2inv.expr import eval_scalar
    pt = (0.5, 1.0)
    g = einstein.four_metric_values(point_jets(m, pt))
    vals = {k: eval_scalar(m.asts[k], m.params, pt) for k in m.components}
    assert g[0, 0] == pytest.approx(vals["b11"], rel=1e-13)
    assert g[0, 2] == pytest.approx(vals["f11"], rel=1e-13)
    assert g[2, 3] == pytest.approx(vals["h12"], rel=1e-13)


def test_inverse_four_metric():
    pj = point_jets(catalog("vdb"), (0.7, 1.1))
    g = einstein.four_metric_values(pj)
    gi = np.array([[e.value for e in row]
                   for row in einstein.inverse_four_metric(pj)])
    assert np.allclose(g @ gi, np.eye(4), atol=1e-12)


def test_christoffels_flat_vanish():
    chris = einstein.christoffel4(point_jets(catalog("flat"), (0.2, 0.9)))
    assert all(chris[a][b][c].value == 0.0
               for a in range(4) for b in range(4) for c in range(4))


def test_christoffel_symmetry():
    pj = point_jets(catalog("vdb"), (0.6, 1.2))
    chris = einstein.christoffel4(pj)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                assert chris[a][b][c].value == chris[a][c][b].value


def test_metricity():
    # d_c g_ab = G^e_ca g_eb + G^e_cb g_ae reconstructed from the jets
    pj = point_jets(catalog("vdb"), (0.5, 1.0))
    from g2inv import jets
    g = einstein.four_metric(pj)
    gv = np.array([[e.value for e in row] for row in g])
    chris = einstein.christoffel4(pj)
    Gv = np.array([[[chris[a][b][c].value for c in range(4)]
                    for b in range(4)] for a in range(4)])
    scale = np.max(np.abs(gv))
    for c in range(2):
        dg = np.array([[jets.t_derivative(g[a][b], c).value
                        for b in range(4)] for a in range(4)])
        rebuilt = np.einsum("ea,eb->ab", Gv[:, c, :], gv) \
            + np.einsum("eb,ae->ab", Gv[:, c, :], gv)
        assert np.max(np.abs(dg - rebuilt)) < 1e-10 * scale


def test_sphere_block_curvature():
    # S^2 x E^2 written as a G2 metric: Ric restricted to the sphere
    # block equals the sphere metric; sectional curvature is 1
    doc = dict(name="s2xe2", form="bfh", params={}, components={
        **Z, "b11": "1", "b22": "1", "h11": "sin(t1)^2", "h22": "1"})
    pj = point_jets(load_metric(doc), (0.7, 0.2))
    ric = einstein.ricci4(pj)
    assert ric[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert ric[2, 2] == pytest.approx(math.sin(0.7) ** 2, rel=1e-12)
    assert einstein.sectional_curvature(pj, (1, 0, 0, 0), (0, 0, 1, 0)) \
        == pytest.approx(1.0, rel=1e-12)


def test_schwarzschild_is_ricci_flat():
    # Killing coordinates (z1, z2) = (t, phi); (t1, t2) = (r, theta)
    doc = dict(name="schwarzschild", form="bfh", params={"M": 1.0},
               components={**Z,
                           "b11": "1/(1 - 2*M/t1)", "b22": "t1^2",
                           "h11": "-(1 - 2*M/t1)",
                           "h22": "t1^2*sin(t2)^2"})
    m = load_metric(doc)
    for pt in [(3.0, 0.8), (5.5, 1.2), (10.0, 2.0)]:
        res = einstein.residual(m, 0.0, pt)
        assert res.normalized < 1e-12


def test_residual_matrix_symmetric():
    res = einstein.residual(catalog("lambda_kundu"), 3.0, (0.9, 0.1))
    assert np.max(np.abs(res.matrix - res.matrix.T)) < 1e-12


@pytest.mark.parametrize("name,lam", [
    ("ppwave1", 0.0), ("ppwave2", 0.0), ("ppwave3", 0.0),
    ("lambda_kundu", 3.0), ("lambda_kundu_c0", 3.0),
])
def test_catalog_vacuum_residuals(name, lam):
    m = catalog(name)
    for pt in grid_points(default_domain(m), 5, 2, margin=0.05):
        assert einstein.residual(m, lam, pt).normalized < 1e-8


def test_ppwave2_explicit_instance():
    # psi = 2 t1^2 with c = 2 satisfies psi_11 + psi_22 = c^2
    m = catalog("ppwave2", {"c": 2.0})
    assert m.components["h11"] == "c^2*t1^2/2"
    for pt in [(0.4, -0.7), (1.1, 0.3)]:
        assert einstein.residual(m, 0.0, pt).normalized < 1e-12


def test_vdb_is_not_vacuum_but_einstein_scalar():
    """The published Van den Bergh display is an exact Einstein-scalar
    metric: the only nonvanishing Ricci component is R_22 = 4/sinh^2(t2)
    (confirmed symbolically).  The Ricci-flatness claim cannot hold for
    these components; this test pins the exact obstruction."""
    m = catalog("vdb")
    for pt in [(0.5, 1.0), (0.9, 1.3)]:
        ric = einstein.ricci4(point_jets(m, pt))
        expected = np.zeros((4, 4))
        expected[1, 1] = 4.0 / math.sinh(pt[1]) ** 2
        assert np.max(np.abs(ric - expected)) < 1e-9 * np.max(expected)


def test_divergence_of_einstein_tensor():
    # contracted Bianchi: div G = 0, via finite differences of the
    # jet-computed Einstein tensor along t
    m = catalog("vdb")
    pt = (0.6, 1.1)
    h = 1e-4

    def einstein_tensor_mixed(p):
        pj = point_jets(m, p)
        g = einstein.four_metric_values(pj)
        ric = einstein.ricci4(pj)
        gi = np.linalg.inv(g)
        sc = np.tensordot(gi, ric)
        return gi @ ric - 0.5 * sc * np.eye(4), pj

    G0, pj0 = einstein_tensor_mixed(pt)
    chris = einstein.christoffel4(pj0)
    Gv = np.array([[[chris[a][b][c].value for c in range(4)]
                    for b in range(4)] for a in range(4)])
    dG = [(einstein_tensor_mixed((pt[0] + h, pt[1]))[0]
           - einstein_tensor_mixed((pt[0] - h, pt[1]))[0]) / (2 * h),
          (einstein_tensor_mixed((pt[0], pt[1] + h))[0]
           - einstein_tensor_mixed((pt[0], pt[1] - h))[0]) / (2 * h)]
    scale = max(np.max(np.abs(G0)), 1e-10)
    for b in range(4):
        div = 0.0
        for a in range(2):
            div += dG[a][a][b]
        for a in range(4):
            for e in range(4):
                div += Gv[a][a][e] * G0[e][b] - Gv[e][a][b] * G0[a][e]
        assert abs(div) < 1e-6 * max(scale, 1.0)


def test_kundu_A_constancy():
    for name, lam in (("lambda_kundu", 3.0), ("lambda_kundu_c0", 3.0)):
        m = catalog(name)
        pts = grid_points(default_domain(m), 4, 3, margin=0.05)[:10]
        rep = einstein.kundu_A(m, pts)
        assert rep["max_deviation"] < 1e-12
        assert not rep["vacuous"]


def test_kundu_A_vacuous_on_flat():
    rep = einstein.kundu_A(catalog("flat"), [(0.0, 0.0), (0.5, 0.5)])
    assert rep["vacuous"]
    assert rep["max_deviation"] == 0.0


def test_onshell_relations_lambda_kundu():
    for name in ("lambda_kundu", "lambda_kundu_c0"):
        m = catalog(name)
        pts = grid_points(default_domain(m), 4, 3, margin=0.05)[:10]
        rep = einstein.onshell_relations(m, 3.0, pts, tol=1e-7)
        assert rep["pass"], rep["max_residual"]


def test_onshell_relations_flag_nonvacuum():
    # negative control: a random non-Einstein metric reports violations
    # alongside a nonzero Einstein residual
    m = catalog("random_analytic", {"seed": 3})
    rep = einstein.onshell_relations(m, 0.0, [(0.2, 0.1), (-0.3, 0.4)])
    assert not rep["pass"]
    assert all(r["einstein_normalized"] > 1e-4 for r in rep["points"])


def test_gauss_curvature_equality_on_shell():
    for name, lam in (("lambda_kundu", 3.0), ("lambda_kundu_c0", 3.0)):
        m = catalog(name)
        for pt in grid_points(default_domain(m), 3, 2, margin=0.1):
            sec = point_jets(m, pt).second
            scale = max(abs(sec.K_Xi), abs(sec.K_Xiperp), 1.0)
            assert abs(sec.K_Xi - sec.K_Xiperp) < 1e-7 * scale
