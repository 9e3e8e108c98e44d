import math

import numpy as np
import pytest

from g2inv import catalog, jets, point_jets
from g2inv.invariants1 import FUNDAMENTAL_IDS, first_invariant_jets
from g2inv.invariants2 import (bracket_residual, relations_second,
                               second_invariants_from_jets)
from g2inv.metrics import default_domain, grid_points

from paper_checks import (DependentPairError, directional_partials,
                          riemann_sectional_curvatures)
from test_invariants1 import GENERIC_SEEDS, generic_random_points, \
    vdb_closed_forms


def test_invariant_field_jet_constant_on_flat():
    j = point_jets(catalog("flat"), (0.2, 0.3)).fields["C_rho"]
    assert j.coeffs == (0.0, 0.0, 0.0)


def test_invariant_field_jet_matches_analytic_derivative():
    # d C_rho / d t of the closed form, by hand differentiation
    m = catalog("vdb")
    t1, t2 = 0.5, 1.0
    j = point_jets(m, (t1, t2)).fields["C_rho"]
    r6 = math.sqrt(6)
    c6, s6 = math.cosh(r6 * t1), math.sinh(r6 * t1)
    s2, c2 = math.sinh(t2), math.cosh(t2)
    d1 = 4 * r6 * c2 ** 2 * s6 / (c6 ** 2 * s2 ** 6)
    d2 = (-8 * c2 * s2 / (c6 * s2 ** 6)
          + 24 * c2 ** 2 * c2 / (c6 * s2 ** 7))
    assert j.value == pytest.approx(vdb_closed_forms(t1, t2)["C_rho"],
                                    rel=1e-12)
    assert j.d(1, 0) == pytest.approx(d1, rel=1e-10)
    assert j.d(0, 1) == pytest.approx(d2, rel=1e-10)


@pytest.mark.parametrize("key", FUNDAMENTAL_IDS)
def test_field_jets_match_finite_differences(key, monkeypatch):
    monkeypatch.setattr(jets, "FD_STEP", 1e-3)
    m = catalog("vdb")
    pt = (0.7, 1.1)
    j = point_jets(m, pt).fields[key]
    fd = jets.finite_difference_jet(
        lambda p: first_invariant_jets(point_jets(m, p, order=1))[key].value,
        pt, 1)
    for k in range(3):
        assert j.coeffs[k] == pytest.approx(fd.coeffs[k], rel=1e-6,
                                            abs=1e-8)


def test_order3_jets_give_second_derivatives(monkeypatch):
    # cross-validation path: order-3 component jets carry exact second
    # derivatives of the invariant fields
    monkeypatch.setattr(jets, "FD_STEP", 1e-3)
    m = catalog("vdb")
    pt = (0.6, 1.2)
    pj = point_jets(m, pt, order=3)
    j2 = first_invariant_jets(pj)["ell_C"]
    assert j2.order == 2
    fd = jets.finite_difference_jet(
        lambda p: first_invariant_jets(
            point_jets(m, p, order=1))["ell_C"].value, pt, 2)
    for k in range(6):
        assert j2.coeffs[k] == pytest.approx(fd.coeffs[k], rel=2e-5,
                                             abs=1e-7)


def test_q_ric_identity():
    for seed in GENERIC_SEEDS[:3]:
        m, pts = generic_random_points(seed, 5)
        for pt in pts:
            sec = point_jets(m, pt).second
            assert sec["Q_ric"] == pytest.approx(0.25 * sec["C_ric"] ** 2,
                                              rel=1e-9, abs=1e-12)


def test_c_nu_prime_definition():
    m, pts = generic_random_points(0, 3)
    for pt in pts:
        pj = point_jets(m, pt)
        jv = first_invariant_jets(pj)
        sec = second_invariants_from_jets(pj)
        assert sec["C_nu_prime"] == pytest.approx(
            sec["C_nu"] - 2 * jv["C_chi"].value + jv["C_rho"].value, rel=1e-12)


def test_gauss_curvature_propositions_vdb():
    m = catalog("vdb")
    rng = np.random.default_rng(1)
    for _ in range(10):
        pt = (rng.uniform(0.35, 1.15), rng.uniform(0.75, 1.45))
        pj = point_jets(m, pt)
        jv = first_invariant_jets(pj)
        sec = second_invariants_from_jets(pj)
        K = riemann_sectional_curvatures(pj)
        assert K["K_Xi"] == pytest.approx(-0.25 * jv["C_chi"].value,
                                          rel=1e-8)
        sg = 1.0 if pj.det_gt.value > 0 else -1.0
        assert K["K_Xiperp"] == pytest.approx(
            0.5 * sec["C_ric"] - sg * 0.75 * jv["ell_C"].value, rel=1e-8)


def test_gauss_curvature_propositions_random():
    for seed in GENERIC_SEEDS:
        m, pts = generic_random_points(seed, 5)
        for pt in pts:
            pj = point_jets(m, pt)
            jv = first_invariant_jets(pj)
            sec = second_invariants_from_jets(pj)
            K = riemann_sectional_curvatures(pj)
            scale = max(1.0, abs(K["K_Xi"]))
            assert abs(K["K_Xi"] + 0.25 * jv["C_chi"].value) < 1e-7 * scale
            sg = 1.0 if pj.det_gt.value > 0 else -1.0
            want = 0.5 * sec["C_ric"] - sg * 0.75 * jv["ell_C"].value
            assert abs(K["K_Xiperp"] - want) < 1e-7 * max(1.0, abs(want))


def test_flat_second_invariants_vanish():
    pj = point_jets(catalog("flat"), (0.1, 0.2))
    sec = pj.second
    assert sec["C_ric"] == 0.0 and sec["C_nu"] == 0.0 and sec["Q_nu"] == 0.0
    assert all(sec["X_" + k] == 0.0 for k in FUNDAMENTAL_IDS)
    assert pj.stratum.c_rho_zero and sec["J1"] is None and sec["J2"] is None


def _worst_second(m, pts):
    """Largest |residual| of the second-order relations over the points."""
    return max(abs(v) for pt in pts
               for v in relations_second(point_jets(m, pt)).values()
               if v is not None)


def test_relations_second_vdb_and_random():
    m = catalog("vdb")
    pts = grid_points(default_domain(m), 5, 2, margin=0.05)
    assert _worst_second(m, pts) < 1e-7
    for seed in GENERIC_SEEDS:
        m, pts = generic_random_points(seed, 10)
        assert _worst_second(m, pts) < 1e-7, seed


def test_relations_second_diag_t1_degenerate_case():
    # C_rho = 1 != 0 but Xperp C_rho = 0: the Q_nu relation reduces
    # consistently and the bracket identity still holds
    m = catalog("diag_t1")
    assert _worst_second(m, [(1.5, 0.2), (2.0, -0.4)]) < 1e-9


def test_q_ric_holds_where_the_orbit_curvature_is_roundoff():
    # the orbit metric of ppwave3 is flat; on this affine image C_ric
    # comes out as -1.2e-16 and Q_ric as 0, which must read as satisfied
    # and not as the O(1) ratio of two roundoff terms
    from g2inv.transform import apply_to_metric, make_transform
    p = make_transform("0.991874*t1 + -0.141466*t2 + 0.222683",
                       "0.079371*t1 + 0.916791*t2 + -0.134775",
                       "0.061810*t1 + -0.100344*t2",
                       "0.112909*t1 + -0.303361*t2", [[2, 1], [-1, 1]])
    pj = point_jets(apply_to_metric(catalog("ppwave3"), p), (-0.9, 0.9))
    assert 0.0 < abs(pj.second["C_ric"]) < 1e-15
    assert abs(relations_second(pj)["q_ric"]) < 1e-9


def test_bracket_identity_corpus():
    m = catalog("vdb")
    for pt in grid_points(default_domain(m), 3, 2, margin=0.1):
        res = bracket_residual(point_jets(m, pt))
        assert res is not None and res < 1e-10
    for seed in GENERIC_SEEDS[:3]:
        m, pts = generic_random_points(seed, 5)
        for pt in pts:
            res = bracket_residual(point_jets(m, pt))
            assert res is not None and res < 1e-8


def test_directional_partials_identity_cases():
    pj = point_jets(catalog("vdb"), (0.6, 1.1))
    assert directional_partials(pj, "C_rho", "C_rho", "ell_C") \
        == pytest.approx((1.0, 0.0), abs=1e-12)
    assert directional_partials(pj, "ell_C", "C_rho", "ell_C") \
        == pytest.approx((0.0, 1.0), abs=1e-12)


def test_directional_partials_against_signature_closed_form():
    # dC_chi/dC_rho and dC_chi/dell_C from the published dependence of
    # C_chi on (C_rho, ell_C), by finite differences of the oracle
    from vdb_signature import vdb_oracle
    m = catalog("vdb")
    pt = (0.6, 1.1)
    jv = first_invariant_jets(point_jets(m, pt, order=1))
    i1, i2 = jv["C_rho"].value, jv["ell_C"].value
    got = directional_partials(point_jets(m, pt), "C_chi", "C_rho", "ell_C")
    h1, h2 = 1e-7 * abs(i1), 1e-7 * abs(i2)
    d1 = (vdb_oracle(i1 + h1, i2)[0] - vdb_oracle(i1 - h1, i2)[0]) / (2 * h1)
    d2 = (vdb_oracle(i1, i2 + h2)[0] - vdb_oracle(i1, i2 - h2)[0]) / (2 * h2)
    assert got[0] == pytest.approx(d1, rel=1e-6)
    assert got[1] == pytest.approx(d2, rel=1e-6)


def test_directional_partials_dependent_pair():
    with pytest.raises(DependentPairError):
        directional_partials(point_jets(catalog("vdb"), (0.6, 1.1)),
                             "C_chi", "C_rho", "C_rho")


def test_twenty_invariants_emitted():
    from g2inv.invariants1 import _invariant_vector
    m, pts = generic_random_points(2, 1)
    vec = _invariant_vector(point_jets(m, pts[0]), "order2_20")
    assert vec.shape == (20,)
    assert np.all(np.isfinite(vec))
