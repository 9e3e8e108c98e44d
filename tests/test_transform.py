import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from g2inv import catalog, expr, jets, point_jets
from g2inv.errors import (DegenerateTransformError, G2InvError,
                          MetricDefinitionError)
from g2inv.invariants1 import FUNDAMENTAL_IDS
from g2inv.metrics import (CATALOG_NAMES, default_domain, grid_points,
                           load_metric)
from g2inv.transform import (apply_to_metric, invariance_report,
                             load_transform, make_transform, pushforward_jets,
                             random_transform)
from paper_checks import compose_transforms
from test_einstein import block_layer_points

IDENTITY = dict(phi1="t1", phi2="t2", psi1="0", psi2="0",
                alpha=[[1.0, 0.0], [0.0, 1.0]])
AFFINE = make_transform("0.9*t1 + 0.1*t2 + 0.02", "1.2*t2 - 0.1*t1",
                        "0.4*t1", "0.7*t2", [[1.0, 1.0], [0.0, 1.0]])


def six(pj):
    return np.array([pj.fields[k].value for k in FUNDAMENTAL_IDS])


def signs(p, point):
    """(eps1, eps2) of the transform at one vdb point, as
    invariance_report reports them."""
    row, = invariance_report(catalog("vdb"), p, [point])["points"]
    return row["eps1"], row["eps2"]


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


def pushed(pj):
    """The jets a pushforward carries: gt, h and the curl of F."""
    return (*pj.gt, *pj.h, *pj.curl)


def test_identity_pushforward_is_identity():
    pj = point_jets(catalog("vdb"), (0.6, 1.1))
    out = pushforward_jets(pj, load_transform(IDENTITY))
    assert out.point == pj.point and out.F is None
    for a, b in zip(pushed(pj), pushed(out)):
        assert np.allclose(a.coeffs, b.coeffs, rtol=1e-12, atol=1e-12)


def _nested_pushforward(pj, p, phi_jets, psi_jets):
    """The component law of the module docstring by per-entry jet
    arithmetic, F-bar from psi included: the law one entry at a time, then
    one base change per component, assembled (the curl from F-bar)."""
    from g2inv import metrics
    from g2inv.transform import _inverse_map_jets
    k = pj.order
    J = [[jets.t_derivative(phi_jets[m], i) for i in range(2)]
         for m in range(2)]
    Jpsi = [[jets.t_derivative(psi_jets[r], i) for i in range(2)]
            for r in range(2)]
    det_J = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    Jinv = [[J[1][1] / det_J, -J[0][1] / det_J],
            [-J[1][0] / det_J, J[0][0] / det_J]]
    a = np.array(p.alpha)
    ai = np.linalg.inv(a)
    gt = ((pj.gt[0], pj.gt[1]), (pj.gt[1], pj.gt[2]))
    h = ((pj.h[0], pj.h[1]), (pj.h[1], pj.h[2]))
    gt_bar, h_bar, F_bar = [], [], []
    for m, n in ((0, 0), (0, 1), (1, 1)):
        acc, acc_h = jets.constant(0.0, k), jets.constant(0.0, k)
        for i in range(2):
            for j in range(2):
                acc = acc + Jinv[i][m] * Jinv[j][n] * gt[i][j]
                acc_h = acc_h + ai[i][m] * ai[j][n] * h[i][j]
        gt_bar.append(acc)
        h_bar.append(acc_h)
    for m in range(2):
        for r in range(2):
            acc = jets.constant(0.0, k)
            for i in range(2):
                inner = -Jpsi[r][i]
                for kk in range(2):
                    inner = inner + a[r][kk] * pj.F[2 * i + kk]
                acc = acc + Jinv[i][m] * inner
            F_bar.append(acc)
    iotas = _inverse_map_jets(J, k)
    return metrics.assemble(
        (phi_jets[0].value, phi_jets[1].value), k,
        [jets.compose_map(u, *iotas) for u in (*gt_bar, *F_bar, *h_bar)])


@pytest.mark.parametrize("order", [1, 2])
def test_block_pushforward_is_the_per_entry_loop_bit_for_bit(order):
    # gt-bar, h-bar and their determinants have the loop's bits; the
    # pushed curl alpha W / det J_phi is the curl of the loop's F-bar
    # within 1e-14 of the largest coefficient of either, the digits the
    # curl of F-bar loses (5.7e-16 at worst here)
    from g2inv.transform import _map_jets, _pushforward
    p = random_transform(3)
    for m, points in block_layer_points():
        for point in points:
            pj = point_jets(m, point, order=order)
            phi_jets = _map_jets(p, pj.point, order + 1)
            psi_jets = [jets._spread(expr.eval_jet(f, {}, pj.point,
                                                   order + 1), pj.point)
                        for f in p.psi]
            got = _pushforward(pj, p, phi_jets)
            want = _nested_pushforward(pj, p, phi_jets, psi_jets)
            assert got.point == want.point and got.F is None
            for a, b in zip((*got.gt, *got.h, got.det_h, got.det_gt),
                            (*want.gt, *want.h, want.det_h, want.det_gt)):
                assert np.array(a.coeffs).tobytes() \
                    == np.array(b.coeffs).tobytes()
            W, W_loop, F_loop = (np.array([j.coeffs for j in js])
                                 for js in (got.curl, want.curl, want.F))
            assert np.abs(W - W_loop).max() <= 1e-14 * max(
                np.abs(W).max(), np.abs(F_loop).max())
            if isinstance(point[0], float):
                # a float point's jets hold Python floats, as its
                # per-entry arithmetic gives them
                assert {type(c) for j in pushed(got) for c in j.coeffs} \
                    == {float}


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
    for a, b in zip(pushed(seq), pushed(comp)):
        assert np.allclose(a.coeffs, b.coeffs, rtol=1e-9, atol=1e-9)


def test_cperp_flips_under_alpha_reflection():
    # pure alpha with det alpha < 0: Cperp flips, C does not
    from g2inv.invariants1 import frame
    m = catalog("vdb")
    pt = (0.6, 1.1)
    pj = point_jets(m, pt)
    p = make_transform("t1", "t2", "0", "0", [[1.0, 0.0], [0.0, -1.0]])
    out = pushforward_jets(pj, p)
    Y, Y_bar = frame(pj), frame(out)
    C, Cp = Y[2][2:], Y[3][2:]  # the z-components of C and Cperp
    pushed_c = (C[0], -C[1])  # alpha acting on the z-components
    assert tuple(Y_bar[2][2:]) == pytest.approx(pushed_c, rel=1e-12)
    pushed_cp = (Cp[0], -Cp[1])
    assert tuple(Y_bar[3][2:]) == pytest.approx(
        tuple(-x for x in pushed_cp), rel=1e-12)


def test_theta_semi_invariant_sign_laws():
    # squares are invariant; the signed quantities pick up eps factors:
    # Theta_I, Theta_III, q_gamma_root -> eps1*eps2, Theta_II -> eps1
    from g2inv.invariants1 import first_invariant_jets
    m = catalog("vdb")
    pt = (0.6, 1.1)
    pj = point_jets(m, pt)
    jv = first_invariant_jets(pj)
    for seed in range(12):
        p = random_transform(seed)
        e1, e2 = signs(p, pt)
        jb = first_invariant_jets(pushforward_jets(pj, p))
        assert jb["Theta_I_sq"].value == pytest.approx(
            jv["Theta_I_sq"].value, rel=1e-9)
        for key, sign in (("Theta_I", e1 * e2), ("Theta_II", e1),
                          ("Theta_III", e1 * e2),
                          ("q_gamma_root", e1 * e2)):
            assert jb[key].value == pytest.approx(
                sign * jv[key].value, rel=1e-9), (seed, key)


def test_apply_to_metric_affine():
    m, p = catalog("vdb"), AFFINE
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


def test_apply_to_metric_rejects_a_degenerate_phi():
    with pytest.raises(DegenerateTransformError, match="J_phi = 0"):
        apply_to_metric(catalog("vdb"),
                        make_transform("t1", "t1", "0", "0",
                                       [[1, 0], [0, 1]]))


def test_identity_image_keeps_the_fundamentals():
    # apply_to_metric rewrites a bfh source in submersion form by the bfh
    # law on its nodes, and point_jets converts the source by the same
    # law on its jets: for every bfh family, the ten component jets (so
    # the fundamentals) are equal, coefficient for coefficient, at each
    # point and as one batch
    for name in CATALOG_NAMES:
        m = catalog(name)
        if m.form != "bfh":
            continue
        ms = apply_to_metric(m, load_transform(IDENTITY))
        assert ms.form == "submersion"
        pts = grid_points(default_domain(m), 3, margin=0.15)
        for pt in [*pts, tuple(np.array(pts).T)]:
            for a, b in zip(point_jets(m, pt).all_component_jets(),
                            point_jets(ms, pt).all_component_jets()):
                assert all(np.all(x == y) for x, y in
                           zip(a.coeffs, b.coeffs)), (name, pt)


@pytest.mark.parametrize("m", [catalog("vdb"),
                               catalog("random_analytic", {"seed": 3})],
                         ids=["vdb", "random_analytic_3"])
def test_image_domain_is_the_box_of_the_shrunken_source_rectangle(m):
    # J t + b over the corners of the source rectangle, each side cut by
    # a tenth of its length at both ends
    J, b = np.array([[0.9, 0.1], [-0.1, 1.2]]), np.array([0.02, 0.0])
    (a0, a1), (c0, c1) = default_domain(m)
    da, dc = 0.1 * (a1 - a0), 0.1 * (c1 - c0)
    images = np.array([J @ (x, y) + b for x in (a0 + da, a1 - da)
                       for y in (c0 + dc, c1 - dc)])
    want = tuple(zip(images.min(0), images.max(0)))
    got = apply_to_metric(m, AFFINE).domain
    assert np.array(got) == pytest.approx(np.array(want), rel=1e-14,
                                          abs=1e-15)


# The order-1 evaluation of phi and psi that invariance_report made at
# every point before it took eps1 and the pushed frame from the order-3
# jets of its pushforward: the oracle for the rows it reports.

def _order1_signs(p, point):
    j = [[jets.t_derivative(expr.eval_jet(p.phi[m], {}, point, 1), i).value
          for i in range(2)] for m in range(2)]
    jphi = j[0][0] * j[1][1] - j[0][1] * j[1][0]
    if jphi == 0.0:
        raise DegenerateTransformError(f"J_phi = 0 at {point}")
    a = p.alpha
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return (1 if jphi > 0 else -1), (1 if det > 0 else -1)


def _order1_pushforward_vector(p, point, v):
    # a frame vector (v_t, v_z) in the adapted basis X_i = d_ti - F_i^k
    # d_zk, d_zk pushes to (J v_t, alpha v_z): X_i goes to J^m_i X-bar_m
    Jv = np.array([[jets.t_derivative(
        expr.eval_jet(p.phi[m], {}, point, 1), i).value
        for i in range(2)] for m in range(2)])
    a = np.array(p.alpha)
    vt = np.array(v[:2])
    vz = np.array(v[2:])
    return tuple(np.concatenate([Jv @ vt, a @ vz]))


def _order1_row(m, p, pt):
    pj = point_jets(m, pt, order=2)
    pj_bar = pushforward_jets(pj, p)
    eps1, eps2 = _order1_signs(p, pt)
    inv = np.array([pj.fields[k].value for k in FUNDAMENTAL_IDS])
    inv_bar = np.array([pj_bar.fields[k].value for k in FUNDAMENTAL_IDS])
    denom = np.maximum(np.abs(inv), np.maximum(np.abs(inv_bar), 1.0))
    inv_residual = float(np.max(np.abs(inv - inv_bar) / denom))
    frame_residual = None
    if pj.stratum.generic:
        sgn = (1.0, eps1, eps1, eps1 * eps2)
        frame_residual = 0.0
        for s, v, vbar in zip(sgn, pj.frame, pj_bar.frame):
            pushed = np.array(_order1_pushforward_vector(p, pt, v))
            target = s * np.array(vbar)
            norm = max(float(np.linalg.norm(target)), 1e-300)
            frame_residual = max(
                frame_residual,
                float(np.linalg.norm(pushed - target)) / norm)
    return eps1, eps2, inv_residual, frame_residual


def _outcome(f):
    """f()'s result with floats as their bits, or its error."""
    try:
        return tuple(x.hex() if isinstance(x, float) else x for x in f())
    except G2InvError as err:
        return type(err), str(err)


def _reported_row(m, p, pt):
    row, = invariance_report(m, p, [pt])["points"]
    return tuple(row[k] for k in ("eps1", "eps2", "invariant_residual",
                                  "frame_residual"))


def _check_against_order1(name, seed, i):
    m = catalog(name)
    pt = grid_points(default_domain(m), 3, margin=0.15)[i]
    p = random_transform(seed)
    got = _outcome(lambda: _reported_row(m, p, pt))
    assert got == _outcome(lambda: _order1_row(m, p, pt)), (name, seed, pt)
    return got


@settings(max_examples=40, derandomize=True, deadline=None)
@given(name=st.sampled_from(CATALOG_NAMES), seed=st.integers(0, 199),
       i=st.integers(0, 8))
@example(name="vdb", seed=2, i=4)
@example(name="vdb", seed=4, i=4)
def test_invariance_rows_match_the_order1_evaluation(name, seed, i):
    _check_against_order1(name, seed, i)


@pytest.mark.parametrize("seed, signs_at_vdb", [(2, (1, -1)), (4, (-1, 1))],
                         ids=["det_alpha_negative", "J_phi_negative"])
def test_invariance_rows_match_the_order1_evaluation_for_negative_signs(
        seed, signs_at_vdb):
    for name in ("vdb", "random_analytic", "lambda_kundu"):
        got = _check_against_order1(name, seed, 4)
        assert got[:2] == signs_at_vdb


def _perfbench_workloads():
    """perfbench/workloads.py, which makes the equiv workload's images."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, Path(
            __file__).parents[1] / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_image_documents_name_equal_subtrees_once():
    # apply_to_metric builds t1 - b afresh in each row of its inverse map
    # and a fresh Num for each coefficient; equal subtrees are one def
    p = _perfbench_workloads().affine_transform(np.random.default_rng(2))
    doc = apply_to_metric(catalog("vdb"), p).to_document()
    texts = [*doc["defs"].values(), *doc["components"].values()]
    assert doc["defs"]["d1"] == "t1 - 0.06006"
    assert sum(text.count("t1 - 0.06006") for text in texts) == 1
    assert len(set(doc["defs"].values())) == len(doc["defs"])


# the hash of the image documents below as apply_to_metric wrote them
# when it built their nodes by hand and substituted into the ASTs
IMAGE_DOCUMENTS_SHA256 = \
    "866ac888dd959741e7be0907d32a551eb6a6b8945bf6c27ea4228ddccd453f7e"


def test_image_documents_are_unchanged_by_parsing_the_laws():
    affine_transform = _perfbench_workloads().affine_transform
    sources = [catalog("vdb")] \
        + [catalog("random_analytic", {"seed": s}) for s in range(8)]
    digest = hashlib.sha256()
    for s in range(6):
        p = affine_transform(np.random.default_rng(s))
        for m in sources:
            digest.update(json.dumps(
                apply_to_metric(m, p).to_document()).encode() + b"\n")
    assert digest.hexdigest() == IMAGE_DOCUMENTS_SHA256


def test_image_documents_keep_the_bits_of_their_tree_text():
    # the image document names its shared subtrees; the same image written
    # out as a tree, one text per component, loads to jets with the same bits
    affine_transform = _perfbench_workloads().affine_transform
    sources = [catalog(n) for n in CATALOG_NAMES if n != "random_analytic"] \
        + [catalog("random_analytic", {"seed": s}) for s in range(8)]
    for s in range(6):
        p = affine_transform(np.random.default_rng(s))
        for m in sources:
            image = apply_to_metric(m, p)
            doc = image.to_document()
            assert doc["defs"] and len(json.dumps(doc)) < 4000
            tree = load_metric({**doc, "defs": {}, "components": {
                k: expr.to_string(e) for k, e in image.asts.items()}})
            # a batch point: each column has the bits of its own point
            grid = tuple(map(np.array, zip(*grid_points(image.domain, 3))))
            want, got = (np.array([j.coeffs for j in point_jets(
                loaded, grid, order=3).all_component_jets()])
                for loaded in (tree, load_metric(doc)))
            assert got.tobytes() == want.tobytes(), (m.name, s)


def test_the_image_of_an_image_keeps_the_fundamentals():
    # the first image names its shared subtrees as defs, so the second
    # apply_to_metric parses them again on the inverse map's nodes
    m = catalog("vdb")
    affine_transform = _perfbench_workloads().affine_transform
    p1, p2 = (affine_transform(np.random.default_rng(s)) for s in (3, 4))
    image = apply_to_metric(m, p1)
    assert image.defs
    twice = apply_to_metric(image, p2)
    for pt in grid_points(default_domain(m), 3, margin=0.1):
        q = tuple(expr.eval_scalar(f, {}, pt) for f in p1.phi)
        r = tuple(expr.eval_scalar(f, {}, q) for f in p2.phi)
        want, got = six(point_jets(m, pt)), six(point_jets(twice, r))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), pt
