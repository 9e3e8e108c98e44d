import hashlib
import math

import numpy as np
import pytest

from g2inv import (catalog, classify, invariants1, jets, load_metric,
                   point_jets)
from g2inv.errors import SingularEvaluationError
from g2inv.invariants1 import (FUNDAMENTAL_IDS, RANK_STEP, _invariant_vector,
                               _pack, first_invariant_jets, frame,
                               jacobian, jacobian_rank, oneill_tensors,
                               random_point_jets, relations_first)
from g2inv.metrics import (CATALOG_NAMES, assemble, default_domain,
                           grid_points)
from paper_checks import (FrameRequiredError, coordinate_frame,
                          frame_lengths, oneill, oneill_AT)


def vdb_closed_forms(t1, t2):
    """Independent oracle: the published closed forms of the Van den
    Bergh invariants, evaluated with math.* only."""
    c6 = math.cosh(math.sqrt(6) * t1)
    s6 = math.sinh(math.sqrt(6) * t1)
    s2, c2 = math.sinh(t2), math.cosh(t2)
    return {
        "C_rho": -4 * c2 ** 2 / (c6 * s2 ** 6),
        "C_chi": -6 * (s6 ** 2 - 1) / (c6 ** 3 * s2 ** 4),
        "Q_chi": 6 * s6 ** 2 * (-6 * s2 ** 2 + c2 ** 2 * c6 ** 2)
                 / (c6 ** 6 * s2 ** 10),
        "Q_gamma": -36 * s6 ** 2 / (c6 ** 6 * s2 ** 8),
        "ell_C": 2 / (c6 * s2 ** 4),
        "Theta_I_sq": 144 * s6 ** 2 / (s2 ** 16 * c6 ** 8),
    }


GENERIC_SEEDS = (0, 2, 3, 4, 5)  # random_analytic instances, verified generic


def six(pj):
    return tuple(pj.fields[k].value for k in FUNDAMENTAL_IDS)


def generic_random_points(seed, count=10):
    m = catalog("random_analytic", {"seed": seed})
    pts = []
    for pt in grid_points(default_domain(m), 5, margin=0.05):
        if classify(point_jets(m, pt, order=1)).generic:
            pts.append(pt)
        if len(pts) == count:
            break
    assert len(pts) == count
    return m, pts


def base_forms(pj):
    """sigma1, sigma2, C_rho, C_chi, C_gamma, Q_rho, Q_chi and Q_gamma:
    the base forms sigma, rho, chi and gamma read through sigma and the
    traces and determinants against gt, from pj.fundamentals (C_gamma
    the trace of gamma = chi - rho/4)."""
    f = pj.fundamentals
    rho = f["rho"]
    return (f["sigma"][0].value, f["sigma"][1].value, f["C_rho"].value,
            f["C_chi"].value, (f["C_chi"] - 0.25 * f["C_rho"]).value,
            ((rho[0] * rho[2] - rho[1] * rho[1]) / f["det_gt"]).value,
            f["Q_chi"].value, f["Q_gamma"].value)


def test_base_forms_flat():
    assert base_forms(point_jets(catalog("flat"), (0.3, 0.4))) == (0.0,) * 8


def test_base_forms_diag_t1():
    # h = diag(t1, t1): det h = t1^2, sigma = (2/t1, 0), and gt = 1, so
    # rho = diag(1, 0), chi = diag(1/4, 0) and gamma = 0 at t1 = 2
    got = base_forms(point_jets(catalog("diag_t1"), (2.0, 0.3)))
    want = (1.0, 0.0, 1.0, 0.25, 0.0, 0.0, 0.0, 0.0)
    assert got == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_fundamental_flat_all_zero():
    assert six(point_jets(catalog("flat"), (0.1, -0.2))) == (0.0,) * 6


def test_trace_det_identity_case():
    # h = [[t1, t2], [t2, -t1]] at (1, 0) has chi = gt = identity, so the
    # contraction gives C_chi = tr 1 = 2 and Q_chi = det 1 / det 1 = 1;
    # on the flat metric chi = 0 and both vanish
    flat = catalog("flat")
    m = load_metric({**flat.to_document(), "components": {
        **flat.components, "h11": "t1", "h12": "t2", "h22": "-t1"}})
    jv = first_invariant_jets(point_jets(m, (1.0, 0.0)))
    assert jv["C_chi"].value == pytest.approx(2.0, rel=1e-14)
    assert jv["Q_chi"].value == pytest.approx(1.0, rel=1e-14)
    jv = first_invariant_jets(point_jets(flat, (0.0, 0.0)))
    assert jv["C_chi"].value == 0.0 and jv["Q_chi"].value == 0.0


def test_fundamental_diag_t1_hand_values():
    # C_mu = mu_ij gt^ij and Q_mu = det mu / det gt with rho = diag(1, 0)
    # and chi = diag(1/4, 0) at t1 = 2, against gt = 1 and gt = diag(4, 1)
    diag_t1 = catalog("diag_t1")
    scaled = load_metric({**diag_t1.to_document(), "components": {
        **diag_t1.components, "b11": "4"}})
    for m, c in ((diag_t1, 1.0), (scaled, 0.25)):
        assert six(point_jets(m, (2.0, 5.0))) == pytest.approx(
            (c, 0.25 * c, 0.0, 0.0, 0.0, 0.0), abs=1e-15)


@pytest.mark.parametrize("pt", [(0.5, 1.0), (0.8, 1.2), (0.35, 0.75),
                                (1.1, 1.45)])
def test_vdb_matches_closed_forms(pt):
    jv = first_invariant_jets(point_jets(catalog("vdb"), pt, order=1))
    for key, want in vdb_closed_forms(*pt).items():
        assert jv[key].value == pytest.approx(want, rel=1e-12)


def _bits(jet):
    return np.asarray(jet.coeffs, dtype=float).tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_fundamentals_are_the_fields_bit_for_bit(name):
    # read before fields or after them, on a point or a batch, the
    # fundamentals layer holds the fields' jets; a batch column holds its
    # point's
    m = catalog(name)
    pts = grid_points(default_domain(m), 3, margin=0.1)
    batch = tuple(np.array(t) for t in zip(*pts))
    for fundamentals_first in (True, False):
        for point in [*pts, batch]:
            pj = point_jets(m, point)
            if fundamentals_first:
                pj.fundamentals
            for key in FUNDAMENTAL_IDS:
                assert _bits(pj.fundamentals[key]) == _bits(pj.fields[key])
    pj = point_jets(m, batch)
    for k, pt in enumerate(pts):
        fields = point_jets(m, pt).fields
        for key in FUNDAMENTAL_IDS:
            column = [np.asarray(c)[k] for c in pj.fundamentals[key].coeffs]
            assert np.array(column).tobytes() == _bits(fields[key]), key


def test_identities_q_rho_and_c_gamma():
    # rho = sigma x sigma has rank one, so Q_rho = det rho / det gt
    # vanishes, and its trace C_rho, which C_gamma = C_chi - C_rho/4
    # reads, is sigma_i gt^ij sigma_j
    for seed in GENERIC_SEEDS[:3]:
        m, pts = generic_random_points(seed, 4)
        for pt in pts:
            pj = point_jets(m, pt, order=1)
            f = pj.fundamentals
            sigma, gi = ([j.value for j in f[k]] for k in ("sigma", "gi"))
            _, _, C_rho, _, _, Q_rho, Q_chi, _ = base_forms(pj)
            assert abs(Q_rho) < 1e-12 * max(1.0, abs(Q_chi))
            assert C_rho == pytest.approx(
                sigma[0] * (gi[0] * sigma[0] + gi[1] * sigma[1])
                + sigma[1] * (gi[1] * sigma[0] + gi[2] * sigma[1]),
                rel=1e-12)


def test_frame_orthogonality_and_lengths_vdb():
    rng = np.random.default_rng(0)
    m = catalog("vdb")
    for _ in range(5):
        pt = (rng.uniform(0.35, 1.15), rng.uniform(0.75, 1.45))
        pj = point_jets(m, pt)
        Y, ell = coordinate_frame(pj), frame_lengths(pj)
        assert pj.stratum.generic
        C_rho = pj.fields["C_rho"].value
        ell_C = pj.fields["ell_C"].value
        # g(H,H) = C_rho/4, and the +-sign laws for the other lengths
        assert ell[0] == pytest.approx(0.25 * C_rho, rel=1e-10)
        assert ell[1] == pytest.approx(-0.25 * C_rho, rel=1e-10)
        assert ell[2] == pytest.approx(ell_C, rel=1e-10)
        assert ell[3] == pytest.approx(ell_C, rel=1e-10)
        g4 = pj.g4.value
        scale = max(abs(ell[0]), abs(ell[2]))
        for i in range(4):
            for j in range(i + 1, 4):
                prod = float(Y[i] @ g4 @ Y[j])
                assert abs(prod) < 1e-10 * scale
        # gt(X, Xperp) = 0 on the base
        X, Xp = (np.array([pj.fields[k].value for k in pair])
                 for pair in (("X1", "X2"), ("Xp1", "Xp2")))
        gt = np.array([[pj.gt[0].value, pj.gt[1].value],
                       [pj.gt[1].value, pj.gt[2].value]])
        assert abs(X @ gt @ Xp) < 1e-10 * max(1.0, abs(C_rho))
        # H is the lift of -X/2
        assert tuple(Y[0][:2]) == pytest.approx(tuple(-0.5 * X), rel=1e-14)
        assert tuple(frame(pj)[0]) == (*(-0.5 * X), 0.0, 0.0)


def test_frame_flat_degenerate_stratum():
    # the frame components are returned, but the stratum says they are
    # not a frame there
    pj = point_jets(catalog("flat"), (0.0, 0.0))
    Y = frame(pj)
    assert tuple(Y[2][2:]) == (0.0, 0.0)
    assert pj.stratum.ell_c_zero and not pj.stratum.generic


def test_oneill_frame_components_vdb():
    pj = point_jets(catalog("vdb"), (0.5, 1.0))
    od = oneill(pj)
    jv = pj.fields
    ell_C = jv["ell_C"].value
    ell_H = 0.25 * jv["C_rho"].value
    # A-components published for this frame (det gt < 0 here)
    assert od.A_frame[0][1][2] == pytest.approx(-0.5 * ell_C, rel=1e-9)
    assert od.A_frame[1][0][2] == pytest.approx(-0.5 * ell_C, rel=1e-9)
    assert od.A_frame[2][0][1] == pytest.approx(-0.5 * ell_H, rel=1e-9)
    assert od.A_frame[2][1][0] == pytest.approx(0.5 * ell_H, rel=1e-9)
    # Theta_II = 4 ell_C T^(3)_(3)(2) and = 4 g(T, C)
    g4 = pj.g4.value
    Y = frame(pj)
    assert jv["Theta_II"].value == pytest.approx(
        4.0 * ell_C * od.T_frame[2][2][1], rel=1e-9)
    assert jv["Theta_II"].value == pytest.approx(
        4.0 * float(np.array(od.Tvec) @ g4 @ Y[2]), rel=1e-9)
    # ell_Tperp = +-_h ell_T
    assert od.ell_Tperp == pytest.approx(od.ell_T, rel=1e-9)
    # 16 Theta_C = Theta_I^2
    assert 16.0 * od.Theta_C == pytest.approx(jv["Theta_I_sq"].value,
                                              rel=1e-9)


def test_oneill_requires_frame():
    pj = point_jets(catalog("flat"), (0.0, 0.0))
    with pytest.raises(FrameRequiredError):
        oneill(pj)


def _adapted(pj, T):
    """T(d_zk, .) of oneill_AT's coordinate T in the adapted basis:
    arguments X_j = d_tj - F_j^n d_zn, components w_z + F w_t."""
    F = np.array([j.value for j in pj.F]).reshape(2, 2)  # F[j][n] = F_j^n
    T = T[:, 2:]
    T = np.concatenate(
        [T[..., :2] - np.einsum("jn,ekn->ekj", F, T[..., 2:]), T[..., 2:]], 2)
    return np.concatenate([T[:2], T[2:] + np.einsum("im,ikc->mkc", F, T[:2])])


def _oneill_tensors_of_the_AT_loop(pj):
    """oneill_tensors with T(d_zk, .) from the loop that also builds A."""
    T = _adapted(pj, oneill_AT(pj)[1])
    Y = pj.frame
    TC = np.einsum("dkb,k->db", T, Y[2][2:])
    TCp = np.einsum("dkb,k->db", T, Y[3][2:])
    sgh = pj.stratum.sign_det_gt * pj.stratum.sign_det_h
    return T, sgh * float(np.linalg.det(TC)), float(np.linalg.det(TCp))


@pytest.mark.parametrize("batch", [False, True], ids=["points", "batch"])
def test_oneill_t_is_the_christoffel_route_t(batch):
    # the closed form of T against T from the 4D Christoffel symbols in
    # the adapted basis, within 1e-13 of max |T| (the worst seen is
    # 3.5e-15), each point alone or the grid as one batch
    ms = [catalog(name) for name in CATALOG_NAMES] + [
        catalog("random_analytic", {"seed": seed}) for seed in range(8)]
    for m in ms:
        pts = grid_points(default_domain(m), 2, 3, margin=0.1)
        if batch:
            pj = point_jets(m, tuple(map(np.array, zip(*pts))))
            Ts = [pj.oneill_tensors[0][..., i] for i in range(len(pts))]
        else:
            Ts = [point_jets(m, pt).oneill_tensors[0] for pt in pts]
        for pt, T in zip(pts, Ts):
            pj = point_jets(m, pt)
            want = _adapted(pj, oneill_AT(pj)[1])
            assert T.shape == want.shape
            assert np.abs(T - want).max() <= 1e-13 * np.abs(want).max(), \
                (m.name, pt)


def test_relations_first_rows_match_the_A_and_T_loop(monkeypatch):
    # the rows with T from the loop that also builds A agree within 1e-12
    # (the worst seen is 8.4e-14, a cancellation residual of Theta_C)
    cases = [(catalog(name), pt) for name in CATALOG_NAMES
             for pt in grid_points(default_domain(catalog(name)), 3,
                                   margin=0.1)]
    cases += [(m, pt) for seed in GENERIC_SEEDS[:3]
              for m in [catalog("random_analytic", {"seed": seed})]
              for pt in grid_points(default_domain(m), 2, margin=0.1)]

    def rows():
        return [relations_first(point_jets(m, pt)) for m, pt in cases]

    live = rows()
    assert sum(r["theta_II_T342_Qchi"] is not None for r in live) >= 15
    monkeypatch.setattr(invariants1, "oneill_tensors",
                        _oneill_tensors_of_the_AT_loop)
    for case, got, want in zip(cases, live, rows()):
        assert [k for k, v in got.items() if v is None] \
            == [k for k, v in want.items() if v is None], case
        assert {k: v for k, v in got.items() if v is not None} \
            == pytest.approx({k: v for k, v in want.items() if v is not None},
                             rel=0.0, abs=1e-12), case


def test_oneill_t_of_a_horizontal_x_j_vanishes():
    # T_E = T_{VE}: T(X_j, .) = T(d_tj, .) - F_j^k T(d_zk, .) = 0 for the
    # horizontal X_j = d_tj - F_j^k d_zk, so the live layer's two Killing
    # rows carry the whole tensor (the worst error seen is 1.7e-15 of
    # max |T(d_zk, .)|)
    ms = [catalog(name) for name in CATALOG_NAMES] + [
        catalog("random_analytic", {"seed": seed}) for seed in range(6)]
    for m in ms:
        for pt in grid_points(default_domain(m), 3, margin=0.1):
            pj = point_jets(m, pt)
            T = oneill_AT(pj)[1]
            F = np.array([j.value for j in pj.F]).reshape(2, 2)
            error = T[:, :2] - np.einsum("jk,dkc->djc", F, T[:, 2:])
            assert np.abs(error).max() <= 1e-13 * np.abs(T[:, 2:]).max(), \
                (m.name, pt)


def test_frame_and_oneill_tensors_read_no_f():
    # in the adapted basis the frame and T read gt, h and C alone: with
    # F replaced by NaN once the fundamentals and the stratum are built,
    # both keep their bits
    m = catalog("random_analytic", {"seed": 3})
    for point in [(0.1, 0.2), (np.array([0.1, 0.3]), np.array([0.2, 0.1]))]:
        pj, bare = point_jets(m, point), point_jets(m, point)
        bare.fundamentals, bare.derivations, bare.stratum
        object.__setattr__(bare, "F", tuple(f * np.nan for f in bare.F))
        assert frame(bare).tobytes() == pj.frame.tobytes()
        assert [np.asarray(x).tobytes() for x in oneill_tensors(bare)] \
            == [np.asarray(x).tobytes() for x in pj.oneill_tensors]


def test_oneill_tensors_defined_on_degenerate_strata():
    pj = point_jets(catalog("ppwave2"), (0.3, 0.4))
    _, theta_c, theta_cp = oneill_tensors(pj)
    assert theta_c == 0.0 and theta_cp == 0.0


def test_thetas_vanish_when_curvature_vector_vanishes():
    for name, pt in (("flat", (0.0, 0.0)), ("diag_t1", (2.0, 0.0))):
        jv = point_jets(catalog(name), pt).fields
        assert all(jv[k].value == 0.0
                   for k in ("Theta_I", "Theta_II", "Theta_III")), name


def test_relations_first_vdb_grid():
    m = catalog("vdb")
    for pt in grid_points(default_domain(m), 5, 2, margin=0.05):
        row = relations_first(point_jets(m, pt))
        assert max(abs(v) for v in row.values() if v is not None) < 1e-8, \
            (pt, row)


def test_relations_first_random_generic():
    for seed in GENERIC_SEEDS:
        m, pts = generic_random_points(seed, 10)
        for pt in pts:
            row = relations_first(point_jets(m, pt))
            assert max(abs(v) for v in row.values() if v is not None) \
                < 1e-8, (seed, pt)


def test_relations_first_flat_skips():
    row = relations_first(point_jets(catalog("flat"), (0.0, 0.0)))
    assert row == {"theta_I_sq_vs_theta_C": 0.0,
                   "theta_III_sq_vs_theta_Cperp": 0.0,
                   "theta_II_T342_Qchi": None,
                   "theta_sum_vs_gamma_root": None,
                   "theta_II_sq_closure": None}


def test_jacobian_ranks():
    for seed in range(5):
        assert jacobian_rank("fundamental6",
                             random_point_jets(seed, order=1)) == 6
        assert jacobian_rank("fundamental6_transitive",
                             random_point_jets(seed, order=1,
                                               transitive=True)) == 4
        assert jacobian_rank("order2_20",
                             random_point_jets(seed, order=2)) == 20


def _rank_without_zero_rows(J, eps):
    """numerical_rank as it was written for one matrix: the zero rows
    dropped, the others scaled to unit norm, one SVD."""
    norms = np.linalg.norm(J, axis=1)
    J = J[norms > 0.0] / norms[norms > 0.0, None]
    if J.size == 0:
        return 0
    svals = np.linalg.svd(J, compute_uv=False)
    return int(np.sum(svals > eps * svals[0]))


def test_a_stack_of_ranks_is_each_matrix_with_its_zero_rows_dropped():
    # 6x2 Jacobians, as a signature's, of rank 2, 1 and 0: zero rows,
    # parallel and nearly parallel columns, rows 16 orders of magnitude
    # apart; a zero row, kept, leaves the nonzero singular values as
    # they are
    rng = np.random.default_rng(2)
    jacs = rng.normal(size=(600, 6, 2)) * 10.0 ** rng.integers(
        -8, 8, (600, 6, 1))
    jacs[rng.random((600, 6)) < 0.3] = 0.0
    jacs[::7, :, 1] = -3.0 * jacs[::7, :, 0]
    jacs[1::7, :, 1] = jacs[1::7, :, 0] * (1.0 + 1e-9)
    jacs[2::7, :, 1] = jacs[2::7, :, 0] * (1.0 + 1e-7)
    jacs[3::50] = 0.0
    want = [_rank_without_zero_rows(j, 1e-8) for j in jacs]
    assert set(want) == {0, 1, 2}
    assert invariants1.numerical_rank(jacs, 1e-8).tolist() == want
    assert type(jacobian_rank("fundamental6",
                              random_point_jets(0, order=1))) is int


def _central_differences(which, probe):
    """The Jacobian probe by probe, as jacobian_rank computed it before the
    batch: x0 + h e and x0 - h e each through the whole pipeline as a
    single point, one direction after another."""
    order = probe.order
    x0 = _pack(probe)
    size = len(jets._IDX[order])

    def unpack(vec):
        return assemble((0.0, 0.0), order, [
            jets.Jet2(order, vec[i * size:(i + 1) * size]) for i in range(10)])

    directions = [np.eye(len(x0))[i] for i in range(len(x0))]
    if which == "fundamental6_transitive":
        # tie the two first-derivative slots of each curl pair together
        p12 = jets._POS[order][(0, 1)]
        p21 = jets._POS[order][(1, 0)]
        tied = {}
        for k in range(2):
            i_a = (3 + k) * size + p12       # F_1^k, d/dt2 slot
            i_b = (3 + 2 + k) * size + p21   # F_2^k, d/dt1 slot
            tied[i_a] = i_b
        directions = []
        for i in range(len(x0)):
            if i in tied.values():
                continue
            e = np.zeros(len(x0))
            e[i] = 1.0
            if i in tied:
                e[tied[i]] = 1.0
            directions.append(e)

    cols = []
    for e in directions:
        hstep = RANK_STEP * max(1.0, float(abs(x0 @ e)))
        fp = _invariant_vector(unpack(x0 + hstep * e), which)
        fm = _invariant_vector(unpack(x0 - hstep * e), which)
        cols.append((fp - fm) / (2.0 * hstep))
    return np.column_stack(cols)


# 20 seeded probes and four near-degenerate ones (order2_20 reads 17-19
# at the rank cut on these: ROADMAP item 6, neither mended nor pinned here)
ORACLE_SEEDS = list(range(20)) + [805613740, 1784766621, 47042523, 1077118507]


@pytest.mark.parametrize("which, order", [("fundamental6", 1),
                                          ("fundamental6_transitive", 1),
                                          ("order2_20", 2)])
def test_batched_jacobian_is_the_probe_by_probe_one(which, order):
    for seed in ORACLE_SEEDS:
        probe = random_point_jets(seed, order=order,
                                  transitive=which.endswith("transitive"))
        assert jacobian(which, probe).tobytes() \
            == _central_differences(which, probe).tobytes(), seed


def test_failing_probe_raises_its_own_error():
    # h11 = h12 = 0 at the probe, so det h = 0 on every probe that does
    # not step along h11: the batch fails, and the error raised is the
    # one the first failing probe gives on its own, with a float value
    x0 = _pack(random_point_jets(3, order=1))
    size = len(jets._IDX[1])
    x0[7 * size] = x0[8 * size] = 0.0
    probe = assemble((0.0, 0.0), 1, [
        jets.Jet2(1, x0[i * size:(i + 1) * size]) for i in range(10)])
    with pytest.raises(SingularEvaluationError) as want:
        _central_differences("fundamental6", probe)
    with pytest.raises(SingularEvaluationError) as got:
        jacobian("fundamental6", probe)
    assert str(got.value) == str(want.value) \
        == "singular evaluation in 'div' at value 0.0"


# sha256 of the packed coordinates (little-endian float64) of
# random_point_jets(seed, order, transitive) for seeds 0-4, as first drawn
PROBE_SHA256 = {
    (1, False): [
        "16e33218bde9b5feeb9f9ca739176a033dd6ffa6b2de573694365fe36e664a7e",
        "964808c587030aadaf9d2510bd19185acda201bc33db3a3fc6c6c64b1106b387",
        "2a722776cfd586ca7038a7ce172258bddb873860b8fd3c672a89cb4d42449b3f",
        "47b203244f7efecb28aef48d255db21f652cb25defce7bf6580ab4c1e89a0af7",
        "3cdaf3465e4b6bdba9f2b5ec63f8849adecc15f88e3e9837b292a17f257462a7",
    ],
    (1, True): [
        "a13e6ebcf21e7ba0394296ec76969455d8f5b95d1995061335868104e2026861",
        "0c3330e4ba916a31f0e1ed8b4c2d376fc4c3d7baf87e74caa91949461cd128e3",
        "74b5ae12be57b02063740e6b67db3ebc9e8e86ca84353d1b90c1be534f56ad98",
        "05557034197c166be6f2e34e5a580cbf533cbecb74d4fa67c2374209a5cb9ad3",
        "f2d2a718c23e6d6f1fc67bc4dd3a20ca646b06310bbdb37618a3bd935b2cbedd",
    ],
    (2, False): [
        "1698abb1c03cf5f01f803e32e766712d1b736f71006f2aaab2827d01c06358f5",
        "bb136dd4abc2c7810b911945f7533c487685d8c64a6734b3f5f8f86c6923be0b",
        "41a244f17dafd8724919b167f46250a934b4fdd1159bd8c827a95b1023d506e2",
        "e529207422f203791f67a8ba14e155f49b8ffc84a2d69953a4f1754ec868f955",
        "91aa0c7aefb574921a5e5017e90d87f7ac96e46603ac425834c23347aa62564a",
    ],
    (2, True): [
        "8898445dea73b7a5e59d8eb1abc2e514c36e66e08a10cb7671a9fb89e79e6e4c",
        "af2bf64e1701d4f6c69ca1b1d46fc1340cd664d61aa5fbd4072638c644a11318",
        "2bab099115c21a61f39d0b5293434b5fd450703fd041a1e685e05f9ba63c07ce",
        "6dc83d3d3dc2e228d5643c7ec9f7e49515fd4b5cebd25082617bee12c1c7ab7e",
        "915c0912fe0670d1d1cdbf782d6ab29a2bc03b1481168d29e07a02b9a1421e99",
    ],
}


@pytest.mark.parametrize("order, transitive", list(PROBE_SHA256))
def test_rank_probes_keep_their_draws(order, transitive):
    # rank --random SEED reports only a rank: a change in the draw order
    # or the curl tie of a probe shows here first
    assert [hashlib.sha256(np.asarray(_pack(random_point_jets(
        seed, order, transitive)), "<f8").tobytes()).hexdigest()
        for seed in range(5)] == PROBE_SHA256[order, transitive]


def test_transitive_probe_is_on_subspace():
    pj = random_point_jets(11, order=1, transitive=True)
    from g2inv.jets import t_derivative
    for k in range(2):
        assert t_derivative(pj.F[k], 1).value == pytest.approx(
            t_derivative(pj.F[2 + k], 0).value)
