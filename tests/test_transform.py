import numpy as np
import pytest

from g2inv import catalog, point_jets
from g2inv.errors import DegenerateTransformError, MetricDefinitionError
from g2inv.invariants1 import FUNDAMENTAL_IDS
from g2inv.metrics import default_domain, grid_points
from g2inv.transform import (apply_to_metric, invariance_report,
                             load_transform, make_transform, pushforward_jets,
                             random_transform, signs, to_submersion_document)
from paper_checks import compose_transforms

IDENTITY = dict(phi1="t1", phi2="t2", psi1="0", psi2="0",
                alpha=[[1.0, 0.0], [0.0, 1.0]])


def six(pj):
    return np.array([pj.fields[k].value for k in FUNDAMENTAL_IDS])


def test_load_transform_document():
    p = load_transform(IDENTITY)
    assert signs(p, (0.3, 0.4)) == (1, 1)


def test_load_transform_rejects_extra_keys():
    with pytest.raises(MetricDefinitionError):
        load_transform({**IDENTITY, "beta": 1})


def test_singular_alpha_rejected():
    with pytest.raises(DegenerateTransformError):
        make_transform("t1", "t2", "0", "0", [[1, 1], [1, 1]])


def test_signs_swap_and_reflection():
    swap = make_transform("t2", "t1", "0", "0", [[1, 0], [0, 1]])
    assert signs(swap, (0.5, 0.5)) == (-1, 1)
    refl = make_transform("t1", "t2", "0", "0", [[1, 0], [0, -1]])
    assert signs(refl, (0.5, 0.5)) == (1, -1)


def test_degenerate_jacobian_detected():
    p = make_transform("t1 + t2", "t1 + t2 + 1", "0", "0",
                       [[1, 0], [0, 1]])
    with pytest.raises(DegenerateTransformError):
        signs(p, (0.1, 0.1))


def test_identity_pushforward_is_identity():
    pj = point_jets(catalog("vdb"), (0.6, 1.1))
    out = pushforward_jets(pj, load_transform(IDENTITY))
    assert out.point == pj.point
    for a, b in zip(pj.all_component_jets(), out.all_component_jets()):
        assert np.allclose(a.coeffs, b.coeffs, rtol=1e-12, atol=1e-12)


def test_pure_alpha_det_h_law():
    pj = point_jets(catalog("vdb"), (0.6, 1.1))
    p = make_transform("t1", "t2", "0", "0", [[2.0, 1.0], [0.0, 1.0]])
    out = pushforward_jets(pj, p)
    assert out.det_h.value == pytest.approx(pj.det_h.value / 4.0,
                                            rel=1e-12)


def test_det_gt_transformation_law():
    from g2inv import expr, jets
    pj = point_jets(catalog("vdb"), (0.6, 1.1))
    p = random_transform(11)
    out = pushforward_jets(pj, p)
    J = [[jets.t_derivative(expr.eval_jet(p.phi[m], {}, (0.6, 1.1), 1),
                            i).value for i in range(2)] for m in range(2)]
    jphi = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    assert out.det_gt.value == pytest.approx(pj.det_gt.value / jphi ** 2,
                                             rel=1e-9)


def test_invariance_25_random_transforms():
    m = catalog("vdb")
    pts = grid_points(default_domain(m), 3, 2, margin=0.15)
    seen = set()
    for seed in range(25):
        p = random_transform(seed)
        rep = invariance_report(m, p, pts, tol=1e-7)
        assert rep["pass"], (seed, rep["max_invariant_residual"])
        assert rep["sign_laws_pass"]
        for row in rep["points"]:
            seen.add((row["eps1"], row["eps2"]))
    assert seen == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_composition_consistency():
    m = catalog("vdb")
    pj = point_jets(m, (0.6, 1.1))
    p1, p2 = random_transform(3), random_transform(7)
    seq = pushforward_jets(pushforward_jets(pj, p1), p2)
    comp = pushforward_jets(pj, compose_transforms(p2, p1))
    assert np.allclose(seq.point, comp.point, rtol=1e-12)
    for a, b in zip(seq.all_component_jets(), comp.all_component_jets()):
        assert np.allclose(a.coeffs, b.coeffs, rtol=1e-9, atol=1e-9)


def test_cperp_flips_under_alpha_reflection():
    # pure alpha with det alpha < 0: Cperp flips, C does not
    from g2inv.invariants1 import frame
    m = catalog("vdb")
    pt = (0.6, 1.1)
    pj = point_jets(m, pt)
    p = make_transform("t1", "t2", "0", "0", [[1.0, 0.0], [0.0, -1.0]])
    out = pushforward_jets(pj, p)
    fr = frame(pj)
    fr_bar = frame(out)
    pushed_c = (fr.C[0], -fr.C[1])  # alpha acting on the z-components
    assert fr_bar.C == pytest.approx(pushed_c, rel=1e-12)
    pushed_cp = (fr.Cperp[0], -fr.Cperp[1])
    assert fr_bar.Cperp == pytest.approx(
        tuple(-x for x in pushed_cp), rel=1e-12)


def test_theta_semi_invariant_sign_laws():
    # squares are invariant; the signed quantities pick up eps factors:
    # Theta_I, Theta_III, q_gamma_root -> eps1*eps2, Theta_II -> eps1
    from g2inv.invariants1 import first_invariant_jets
    from g2inv.transform import signs as tsigns
    m = catalog("vdb")
    pt = (0.6, 1.1)
    pj = point_jets(m, pt)
    jv = first_invariant_jets(pj)
    for seed in range(12):
        p = random_transform(seed)
        e1, e2 = tsigns(p, pt)
        jb = first_invariant_jets(pushforward_jets(pj, p))
        assert jb["Theta_I_sq"].value == pytest.approx(
            jv["Theta_I_sq"].value, rel=1e-9)
        for key, sign in (("Theta_I", e1 * e2), ("Theta_II", e1),
                          ("Theta_III", e1 * e2),
                          ("q_gamma_root", e1 * e2)):
            assert jb[key].value == pytest.approx(
                sign * jv[key].value, rel=1e-9), (seed, key)


def test_apply_to_metric_affine():
    m = catalog("vdb")
    p = make_transform("0.9*t1 + 0.1*t2 + 0.02", "1.2*t2 - 0.1*t1",
                       "0.4*t1", "0.7*t2", [[1.0, 1.0], [0.0, 1.0]])
    mt = apply_to_metric(m, p)
    from g2inv.expr import eval_scalar
    for pt in [(0.5, 1.0), (0.8, 1.3)]:
        img = (eval_scalar(p.phi[0], {}, pt), eval_scalar(p.phi[1], {}, pt))
        a = six(point_jets(m, pt))
        b = six(point_jets(mt, img))
        assert np.allclose(a, b, rtol=1e-16, atol=1e-12)


def test_apply_to_metric_rejects_nonaffine():
    with pytest.raises(MetricDefinitionError):
        apply_to_metric(catalog("vdb"),
                        make_transform("t1^2", "t2", "0", "0",
                                       [[1, 0], [0, 1]]))


def test_to_submersion_document_roundtrip():
    m = catalog("vdb")
    ms = to_submersion_document(m)
    assert ms.form == "submersion"
    for pt in [(0.5, 1.0), (1.0, 1.4)]:
        a = six(point_jets(m, pt))
        b = six(point_jets(ms, pt))
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)
