import math

import numpy as np
import pytest

from g2inv import catalog, einstein, jets, load_metric, point_jets
from g2inv.metrics import CATALOG_NAMES, default_domain, grid_points
from paper_checks import (coordinate_christoffel, coordinate_riemann,
                          inverse_four_metric, kundu_A,
                          riemann_sectional_curvatures, sectional_curvature)

Z = {k: "0" for k in ("b11", "b12", "b22", "f11", "f12", "f21", "f22",
                      "h11", "h12", "h22")}


def test_four_metric_flat_is_identity():
    g = point_jets(catalog("flat"), (0.5, 0.5)).g4.value
    assert np.allclose(g, np.eye(4))


def test_four_metric_blocks_match_expressions():
    m = catalog("vdb")
    from g2inv.expr import eval_scalar
    pt = (0.5, 1.0)
    g = point_jets(m, pt).g4.value
    vals = {k: eval_scalar(m.asts[k], m.params, pt) for k in m.components}
    assert g[0, 0] == pytest.approx(vals["b11"], rel=1e-13)
    assert g[0, 2] == pytest.approx(vals["f11"], rel=1e-13)
    assert g[2, 3] == pytest.approx(vals["h12"], rel=1e-13)


def test_inverse_four_metric():
    pj = point_jets(catalog("vdb"), (0.7, 1.1))
    g = pj.g4.value
    gi = inverse_four_metric(pj).value
    assert np.allclose(g @ gi, np.eye(4), atol=1e-12)


def _curvature(pj, route):
    """The metric and Christoffel block jets and the Riemann values of
    the coordinate oracle or of the live adapted frame, whose metric is
    blockdiag(gt, h)."""
    if route == "coordinate":
        gamma = coordinate_christoffel(pj)
        return pj.g4, gamma, einstein._riemann(gamma)
    gt, h = (jets.block([m[:2], m[1:]]) for m in (pj.gt, pj.h))
    return einstein._symmetric(gt, 0.0 * gt, h), pj.christoffel, pj.riemann


def _brackets(pj):
    """c[e, c, d] of [e_c, e_d] = c^e_cd e_e in the adapted frame, values:
    [X1, X2] = (d2 F_1^k - d1 F_2^k) d_zk, by the F jets."""
    c = np.zeros((4, 4, 4))
    for k in range(2):
        c[2 + k, 0, 1] = pj.F[k].d(0, 1) - pj.F[2 + k].d(1, 0)
        c[2 + k, 1, 0] = -c[2 + k, 0, 1]
    return c


def test_christoffels_flat_vanish():
    chris = einstein.christoffel4(point_jets(catalog("flat"), (0.2, 0.9)))
    assert np.array(chris.coeffs).shape == (3, 4, 4, 4)
    assert np.all(chris.value == 0.0)


def test_christoffel_symmetry():
    # the coordinate symbols are symmetric in their lower pair, bit for
    # bit; the frame's are torsion-free: Gamma^a_bc - Gamma^a_cb = c^a_bc
    pj = point_jets(catalog("vdb"), (0.6, 1.2))
    values = coordinate_christoffel(pj).value
    assert np.array_equal(values, values.transpose(0, 2, 1))
    frame, c = einstein.christoffel4(pj).value, _brackets(pj)
    assert np.abs(c).max() > 1.0
    assert np.abs(frame - frame.transpose(0, 2, 1) - c).max() \
        <= 1e-14 * np.abs(c).max()


@pytest.mark.parametrize("route", ["coordinate", "frame"])
def test_metricity(route):
    # e_c g_ab = G^e_ca g_eb + G^e_cb g_ae reconstructed from the jets, in
    # the coordinates (the oracle) and in the adapted frame, whose vectors
    # differentiate a component as d_t1, d_t2 and 0
    g, G, _ = _curvature(point_jets(catalog("vdb"), (0.5, 1.0)), route)
    gv, Gv = g.value, G.value
    scale = np.max(np.abs(gv))
    for c, dg in enumerate(jets.gradient(g, 4).value):
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
    assert sectional_curvature(pj, (1, 0, 0, 0), (0, 0, 1, 0)) \
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
        res = einstein.residual(point_jets(m, pt), 0.0)
        assert res["normalized"] < 1e-12


def test_residual_matrix_symmetric():
    pj = point_jets(catalog("lambda_kundu"), (0.9, 0.1))
    mat = einstein.ricci4(pj) - 3.0 * pj.g4.value
    assert np.max(np.abs(mat - mat.T)) < 1e-12


@pytest.mark.parametrize("name,lam", [
    ("ppwave1", 0.0), ("ppwave2", 0.0), ("ppwave3", 0.0),
    ("lambda_kundu", 3.0), ("lambda_kundu_c0", 3.0),
])
def test_catalog_vacuum_residuals(name, lam):
    m = catalog(name)
    for pt in grid_points(default_domain(m), 5, 2, margin=0.05):
        assert einstein.residual(point_jets(m, pt), lam)["normalized"] \
            < 1e-8


def test_ppwave2_explicit_instance():
    # psi = 2 t1^2 with c = 2 satisfies psi_11 + psi_22 = c^2
    m = catalog("ppwave2", {"c": 2.0})
    assert m.components["h11"] == "c^2*t1^2/2"
    for pt in [(0.4, -0.7), (1.1, 0.3)]:
        assert einstein.residual(point_jets(m, pt), 0.0)["normalized"] \
            < 1e-12


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
        g = pj.g4.value
        ric = einstein.ricci4(pj)
        gi = np.linalg.inv(g)
        sc = np.tensordot(gi, ric)
        return gi @ ric - 0.5 * sc * np.eye(4), pj

    G0, pj0 = einstein_tensor_mixed(pt)
    Gv = coordinate_christoffel(pj0).value
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
        rep = kundu_A(m, pts)
        assert rep["max_deviation"] < 1e-12
        assert not rep["vacuous"]


def test_kundu_A_vacuous_on_flat():
    rep = kundu_A(catalog("flat"), [(0.0, 0.0), (0.5, 0.5)])
    assert rep["vacuous"]
    assert rep["max_deviation"] == 0.0


def test_onshell_relations_lambda_kundu():
    for name in ("lambda_kundu", "lambda_kundu_c0"):
        m = catalog(name)
        pts = grid_points(default_domain(m), 4, 3, margin=0.05)[:10]
        for pt in pts:
            row = einstein.onshell_relations(point_jets(m, pt), 3.0)
            del row["einstein_normalized"]
            assert max(map(abs, row.values())) < 1e-7, (name, pt, row)


def test_onshell_relations_flag_nonvacuum():
    # negative control: a random non-Einstein metric reports violations
    # alongside a nonzero Einstein residual
    m = catalog("random_analytic", {"seed": 3})
    rows = [einstein.onshell_relations(point_jets(m, pt), 0.0)
            for pt in [(0.2, 0.1), (-0.3, 0.4)]]
    assert all(r["einstein_normalized"] > 1e-4 for r in rows)
    assert max(abs(v) for r in rows for k, v in r.items()
               if k != "einstein_normalized") >= 1e-7


def test_gauss_curvature_equality_on_shell():
    for name, lam in (("lambda_kundu", 3.0), ("lambda_kundu_c0", 3.0)):
        m = catalog(name)
        for pt in grid_points(default_domain(m), 3, 2, margin=0.1):
            K_Xi, K_Xiperp = einstein.sectional_curvatures(point_jets(m, pt))
            scale = max(abs(K_Xi), abs(K_Xiperp), 1.0)
            assert abs(K_Xi - K_Xiperp) < 1e-7 * scale


def _homothetic(m, k):
    """m with g -> 4^k g: each component times 4^k, except F, which a
    constant rescaling of the metric leaves as it is."""
    keep = ("F11", "F12", "F21", "F22") if m.form == "submersion" else ()
    return load_metric({
        "name": m.name, "form": m.form, "params": m.params, "defs": m.defs,
        "components": {key: text if key in keep else f"{4.0 ** k!r}*({text})"
                       for key, text in m.components.items()}})


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("name", ["vdb", "random_analytic"])
def test_onshell_rows_are_invariant_under_homothety(name, k):
    # g -> 4^k g with lam -> lam / 4^k: every term of a relation, and
    # every scale of its normalizer, has the relation's degree, so each
    # normalized residual stays put; the normalized Einstein residual
    # scales by 4^-k.  A scale of another degree moves its row: with
    # C_chi*C_rho/Q_chi for C_chi*C_rho*Q_chi, X_ellC_long on
    # random_analytic seed 3 moves by up to 5e-4
    m = catalog(name, {"seed": 3} if name == "random_analytic" else None)
    scaled, lam = _homothetic(m, k), 1.5
    for pt in grid_points(default_domain(m), 3, 1, margin=0.1):
        want = einstein.onshell_relations(point_jets(m, pt), lam)
        got = einstein.onshell_relations(point_jets(scaled, pt),
                                         lam / 4.0 ** k)
        assert got.pop("einstein_normalized") == pytest.approx(
            want.pop("einstein_normalized") / 4.0 ** k, rel=1e-12)
        assert got == pytest.approx(want, rel=0.0, abs=1e-12), pt


def _catalog_points():
    """Every catalog metric (random_analytic seeds 0-3) at three points
    of its domain, and five synthetic jet-space probes."""
    from g2inv.invariants1 import random_point_jets
    from g2inv.metrics import CATALOG_NAMES
    ms = [catalog(n) for n in CATALOG_NAMES if n != "random_analytic"]
    ms += [catalog("random_analytic", {"seed": s}) for s in range(4)]
    pjs = [point_jets(m, pt) for m in ms
           for pt in grid_points(default_domain(m), 3, margin=0.1)[::4]]
    return pjs + [random_point_jets(40 + s, order=2) for s in range(5)]


@pytest.mark.parametrize("route", ["coordinate", "frame"])
def test_riemann_identities(route):
    for pj in _catalog_points():
        g, gamma, R = _curvature(pj, route)
        dgamma = [jets.t_derivative(gamma, s).value for s in (0, 1)]
        scale = max(1.0, np.abs(R).max(), np.abs(dgamma).max(),
                    np.abs(gamma.value).max() ** 2)
        # antisymmetry in the last pair
        assert np.abs(R + R.transpose(0, 1, 3, 2)).max() <= 1e-13 * scale
        # first Bianchi identity R^a_bcd + R^a_cdb + R^a_dbc = 0
        bianchi = R + np.einsum("acdb->abcd", R) + np.einsum("adbc->abcd", R)
        assert np.abs(bianchi).max() <= 1e-12 * scale
        # pair symmetry of R_abcd = g_ae R^e_bcd
        low = np.einsum("ae,ebcd->abcd", g.value, R)
        assert np.abs(low - low.transpose(2, 3, 0, 1)).max() \
            <= 1e-12 * scale * np.abs(g.value).max()


@pytest.mark.parametrize("batch", [False, True], ids=["points", "batch"])
def test_frame_curvature_is_the_coordinate_oracle(batch):
    # the frame route's coordinate Ricci tensor and its K_Xi and
    # K_Xiperp against the coordinate route's, within 1e-13 of max |Ric|
    # at each point (the worst seen is 5.8e-14, on vdb), each point
    # alone or the grid as one batch
    ms = [catalog(n) for n in CATALOG_NAMES if n != "random_analytic"]
    ms += [catalog("random_analytic", {"seed": s}) for s in range(8)]
    for m in ms:
        pts = grid_points(default_domain(m), 2, 3, margin=0.1)
        if batch:
            pj = point_jets(m, tuple(map(np.array, zip(*pts))))
            ric, Ks = einstein.ricci4(pj), einstein.sectional_curvatures(pj)
            got = [(ric[..., k], *(K[k] for K in Ks))
                   for k in range(len(pts))]
        else:
            got = [(einstein.ricci4(pj), *einstein.sectional_curvatures(pj))
                   for pj in (point_jets(m, pt) for pt in pts)]
        for pt, (ric, K_Xi, K_Xiperp) in zip(pts, got):
            pj = point_jets(m, pt)
            want = np.einsum("abad->bd", coordinate_riemann(pj))
            K = riemann_sectional_curvatures(pj)
            bound = 1e-13 * np.abs(want).max()
            assert np.abs(ric - want).max() <= bound, (m.name, pt)
            assert abs(K_Xi - K["K_Xi"]) <= bound, (m.name, pt)
            assert abs(K_Xiperp - K["K_Xiperp"]) <= bound, (m.name, pt)


def _nested_four_metric(pj):
    """The 4-metric as a 4x4 nested list of jets, by jet arithmetic."""
    gt11, gt12, gt22 = pj.gt
    h = ((pj.h[0], pj.h[1]), (pj.h[1], pj.h[2]))
    gt = ((gt11, gt12), (gt12, gt22))
    F = pj.F
    g = [[None] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(i, 2):
            acc = gt[i][j]
            for k in range(2):
                for l in range(2):
                    acc = acc + F[2 * i + k] * F[2 * j + l] * h[k][l]
            g[i][j] = g[j][i] = acc
        for k in range(2):
            g[i][2 + k] = g[2 + k][i] = (F[2 * i] * h[0][k]
                                         + F[2 * i + 1] * h[1][k])
    for k in range(2):
        for l in range(2):
            g[2 + k][2 + l] = h[k][l]
    return g


def _nested_inverse_four_metric(pj):
    """g^{ab} as a 4x4 nested list of jets, of order pj.order - 1, by
    per-entry jet arithmetic on the submersion block formula."""
    tr = lambda j: jets.truncate(j, pj.order - 1)
    gt11, gt12, gt22 = (tr(j) for j in pj.gt)
    h11, h12, h22 = (tr(j) for j in pj.h)
    det_gt, det_h = tr(pj.det_gt), tr(pj.det_h)
    F = [tr(j) for j in pj.F]
    gi = ((gt22 / det_gt, -gt12 / det_gt), (-gt12 / det_gt, gt11 / det_gt))
    hi = ((h22 / det_h, -h12 / det_h), (-h12 / det_h, h11 / det_h))
    ginv = [[None] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(i, 2):
            ginv[i][j] = ginv[j][i] = gi[i][j]
        for k in range(2):
            acc = gi[i][0] * F[k] + gi[i][1] * F[2 + k]
            ginv[i][2 + k] = ginv[2 + k][i] = -acc
    for k in range(2):
        for l in range(k, 2):
            acc = hi[k][l]
            for i in range(2):
                for j in range(2):
                    acc = acc + F[2 * i + k] * gi[i][j] * F[2 * j + l]
            ginv[2 + k][2 + l] = ginv[2 + l][2 + k] = acc
    return ginv


def _array(rows):
    """(ncoeffs, n, ...) coefficient array of an n x ... nested list of
    jets (a batch's point axis last)."""
    depth, first = 0, rows
    while not isinstance(first, jets.Jet2):
        depth, first = depth + 1, first[0]

    def coeffs(x):
        return x.coeffs if isinstance(x, jets.Jet2) \
            else [coeffs(r) for r in x]
    return np.moveaxis(np.array(coeffs(rows)), depth, 0)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def block_layer_points():
    """Every catalog metric and random_analytic seeds 0-5, each with the
    points of a 2 x 3 grid of its domain alone and as one batch."""
    ms = [catalog(n) for n in CATALOG_NAMES if n != "random_analytic"]
    ms += [catalog("random_analytic", {"seed": s}) for s in range(6)]
    for m in ms:
        pts = grid_points(default_domain(m), 2, 3, margin=0.05)
        yield m, [*pts, tuple(np.array(t) for t in zip(*pts))]


@pytest.mark.parametrize("order", [1, 2])
def test_block_metric_layers_are_the_per_entry_loops_bit_for_bit(order):
    for m, points in block_layer_points():
        for point in points:
            pj = point_jets(m, point, order=order)
            assert _same_bits(np.array(pj.g4.coeffs),
                              _array(_nested_four_metric(pj)))
            assert _same_bits(np.array(inverse_four_metric(pj).coeffs),
                              _array(_nested_inverse_four_metric(pj)))


def _nested_christoffel(pj):
    """Christoffel jets by the per-entry jet loop (the oracle)."""
    n = pj.order - 1
    g = _nested_four_metric(pj)
    ginv = _nested_inverse_four_metric(pj)
    zero = jets.constant(0.0, n)

    def pd(c, a, b):
        return jets.t_derivative(g[a][b], c) if c < 2 else zero

    gamma = [[[None] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                acc = zero
                for d in range(4):
                    acc = acc + ginv[a][d] * (pd(b, d, c) + pd(c, d, b)
                                              - pd(d, b, c))
                gamma[a][b][c] = 0.5 * acc
    return gamma


@pytest.mark.parametrize("order", [2, 3])
def test_christoffel_is_the_per_entry_loop_bit_for_bit(order):
    # the kernel product of block jets, summed one d at a time, is the
    # per-entry loop's product and sum, at every jet order
    for m, points in block_layer_points():
        for point in points:
            pj = point_jets(m, point, order=order)
            assert _same_bits(np.array(coordinate_christoffel(pj).coeffs),
                              _array(_nested_christoffel(pj)))


def _nested_riemann(gamma):
    """R^a_bcd by the per-component loop over Christoffel jets."""
    Gv = np.array([[[gamma[a][b][c].value for c in range(4)]
                    for b in range(4)] for a in range(4)])

    def pdG(c, a, d, b):
        return jets.t_derivative(gamma[a][d][b], c).value if c < 2 else 0.0

    R = np.zeros((4, 4, 4, 4))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    R[a, b, c, d] = (pdG(c, a, d, b) - pdG(d, a, c, b)
                                     + Gv[a, c, :] @ Gv[:, d, b]
                                     - Gv[a, d, :] @ Gv[:, c, b])
    return R


def _rel_err(got, want):
    return np.max(np.abs(got - want)
                  / np.maximum(1.0, np.maximum(np.abs(got), np.abs(want))))


def test_curvature_matches_the_nested_jet_loops():
    for pj in _catalog_points():
        nested = _nested_christoffel(pj)
        want = np.array([[[[j.coeffs[k] for j in row] for row in plane]
                          for plane in nested]
                         for k in range(len(nested[0][0][0].coeffs))])
        assert _same_bits(np.array(pj.g4.coeffs),
                          _array(_nested_four_metric(pj)))
        assert _rel_err(np.array(coordinate_christoffel(pj).coeffs),
                        want) <= 1e-13
        assert _rel_err(coordinate_riemann(pj),
                        _nested_riemann(nested)) <= 1e-13
