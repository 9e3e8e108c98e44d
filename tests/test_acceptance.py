"""Acceptance suite: one test per criterion, at the stated tolerance.

Every test prints a single PASS/FAIL line.  Two items are implemented
faithfully but cannot hold for the published component displays and are
marked as strict expected failures with the blocking analysis inlined;
the sharp obstructions themselves are pinned by regular tests in
test_einstein.py.
"""

import math

import pytest

from g2inv import catalog, classify, einstein, point_jets
from g2inv.equivalence import compare_metrics
from g2inv.invariants1 import (first_invariant_jets, jacobian_rank,
                               random_point_jets, relations_first)
from g2inv.invariants2 import (relations_second, second_invariants_from_jets,
                               sectional_curvatures)
from g2inv.jets import finite_difference_jet
from g2inv.metrics import default_domain, grid_points
from g2inv.transform import (apply_to_metric, invariance_report,
                             make_transform, pushforward_jets,
                             random_transform)
from g2inv.expr import eval_jet, eval_scalar
from paper_checks import kundu_A
from vdb_signature import characterize_vdb

VDB_GRID = grid_points(((0.3, 1.2), (0.7, 1.5)), 5, 4)

# random generic corpus: five instances spanning both det-h signs
RANDOM_SEEDS = (0, 1, 2, 3, 6)


def vdb_closed_forms(t1, t2):
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


def random_generic_corpus(count=10):
    corpus = []
    for seed in RANDOM_SEEDS:
        m = catalog("random_analytic", {"seed": seed})
        pts = []
        for pt in grid_points(default_domain(m), 5, margin=0.05):
            if classify(point_jets(m, pt, order=1)).generic:
                pts.append(pt)
            if len(pts) == count:
                break
        assert len(pts) == count, f"seed {seed} lacks generic points"
        corpus.append((m, pts))
    return corpus


def largest(row):
    """Largest |residual| of a relation row; skipped (None) entries and
    the attributing Einstein residual of an on-shell row do not count."""
    return max((abs(v) for k, v in row.items()
                if v is not None and k != "einstein_normalized"),
               default=0.0)


def report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_vdb_invariants_match_closed_forms():
    m = catalog("vdb")
    worst = {"analytic": 0.0, "fd": 0.0}
    for method in ("analytic", "fd"):
        for pt in VDB_GRID:
            jv = first_invariant_jets(point_jets(m, pt, order=1,
                                                 method=method))
            for key, want in vdb_closed_forms(*pt).items():
                err = abs(jv[key].value - want) / max(1.0, abs(want))
                worst[method] = max(worst[method], err)
    spot = first_invariant_jets(point_jets(m, (0.5, 1.0), order=1))
    ok = (worst["analytic"] < 1e-9 and worst["fd"] < 1e-6
          and abs(spot["C_rho"].value - (-1.9557)) < 2e-4
          and abs(spot["ell_C"].value - 0.5672) < 2e-4)
    report(1, ok, f"closed forms: analytic {worst['analytic']:.2e}, "
                  f"fd {worst['fd']:.2e}; spot C_rho="
                  f"{spot['C_rho'].value:.4f} ell_C="
                  f"{spot['ell_C'].value:.4f}")
    assert worst["analytic"] < 1e-9
    assert worst["fd"] < 1e-6
    assert spot["C_rho"].value == pytest.approx(-1.9557, abs=2e-4)
    assert spot["ell_C"].value == pytest.approx(0.5672, abs=2e-4)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "unattainable for the published Van den Bergh display: the displayed "
    "components form an exact Einstein-massless-scalar metric with "
    "R_22 = 4/sinh^2(t2) as the only nonzero Ricci component (verified "
    "symbolically; see test_einstein.test_vdb_is_not_vacuum_but_"
    "einstein_scalar and the decisions ledger), so no Lambda makes the "
    "residual vanish while the same components reproduce the published "
    "closed-form invariants of criterion 1"))
def test_criterion_02_vdb_ricci_flat():
    m = catalog("vdb")
    worst = max(einstein.residual(point_jets(m, pt), 0.0).normalized
                for pt in VDB_GRID)
    report(2, worst < 1e-8, f"vdb Einstein residual (Lambda=0): "
                            f"{worst:.2e}")
    assert worst < 1e-8


def test_criterion_03_catalog_vacuum_residuals():
    cases = [("ppwave1", {}, 0.0), ("ppwave2", {"c": 2.0}, 0.0),
             ("ppwave3", {"c": 1.0}, 0.0),
             ("lambda_kundu", {"c": 1.0, "Lambda": 3.0}, 3.0),
             ("lambda_kundu_c0", {"Lambda": 3.0}, 3.0)]
    worst = 0.0
    for name, params, lam in cases:
        m = catalog(name, params)
        pts = grid_points(default_domain(m), 5, 2, margin=0.05)
        assert len(pts) == 10
        worst = max(worst, max(einstein.residual(point_jets(m, pt),
                                                 lam).normalized
                               for pt in pts))
    report(3, worst < 1e-8,
           f"catalog Lambda-vacuum residuals, 10 pts each: {worst:.2e} "
           "(ppwave1 uses the cosine vacuum instance, see ledger)")
    assert worst < 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "unattainable as literally stated: the instance R=S=e^t1, W=2t1 "
    "satisfies the printed constraint (W')^2 = (2S^2/R^2)(R''/R+S''/S) "
    "but the vacuum equations demand the opposite sign, "
    "(W')^2 = -(2S^2/R^2)(R''/R+S''/S) (general-profile Ricci computed "
    "symbolically: the only nonzero component is "
    "R_00 = -(R^2 W'^2/(2S^2) + R''/R + S''/S)); catalog ppwave1 uses "
    "R=S=cos(t1), W=2t1, which satisfies the corrected constraint"))
def test_criterion_03b_ppwave1_exponential_instance():
    from g2inv import load_metric
    Z = {k: "0" for k in ("b11", "b12", "b22", "f11", "f12", "f21", "f22",
                          "h11", "h12", "h22")}
    doc = dict(name="pp1exp", form="bfh", params={}, components={
        **Z, "b12": "1/2", "h11": "exp(2*t1)", "h12": "2*t1*exp(2*t1)",
        "h22": "(4*t1^2 + 1)*exp(2*t1)"})
    m = load_metric(doc)
    worst = max(einstein.residual(point_jets(m, pt), 0.0).normalized
                for pt in grid_points(((-0.5, 0.5), (-0.5, 0.5)), 5, 2))
    report("3b", worst < 1e-8, f"ppwave1 exponential instance: {worst:.2e}")
    assert worst < 1e-8


def test_criterion_04_first_order_relations():
    worst = 0.0
    m = catalog("vdb")
    for pt in grid_points(default_domain(m), 5, 2, margin=0.05):
        worst = max(worst, largest(relations_first(point_jets(m, pt))))
    for m, pts in random_generic_corpus(10):
        for pt in pts:
            worst = max(worst, largest(relations_first(point_jets(m, pt))))
    report(4, worst < 1e-8, f"five first-order relations, vdb + 5 random "
                            f"generic metrics: {worst:.2e}")
    assert worst < 1e-8


def test_criterion_05_second_order_suite():
    worst = 0.0
    corpora = [(catalog("vdb"),
                grid_points(default_domain(catalog("vdb")), 5, 2,
                            margin=0.05))] + random_generic_corpus(10)
    for m, pts in corpora:
        for pt in pts:
            pj = point_jets(m, pt)
            worst = max(worst, largest(relations_second(pj)))
            jv = first_invariant_jets(pj)
            sec = second_invariants_from_jets(pj)
            K = sectional_curvatures(pj)
            sg = 1.0 if pj.det_gt.value > 0 else -1.0
            k1 = abs(K["K_Xi"] + 0.25 * jv["C_chi"].value) \
                / max(1.0, abs(K["K_Xi"]))
            want = 0.5 * sec.C_ric - sg * 0.75 * jv["ell_C"].value
            k2 = abs(K["K_Xiperp"] - want) / max(1.0, abs(want))
            worst = max(worst, k1, k2)
    report(5, worst < 1e-7, f"Q_ric, Q_nu, K(Xi), K(Xi-perp), commutator: "
                            f"{worst:.2e}")
    assert worst < 1e-7


def test_criterion_06_onshell_suite_lambda_kundu():
    worst = 0.0
    for name, lam in (("lambda_kundu", 3.0), ("lambda_kundu_c0", 3.0)):
        m = catalog(name)
        pts = grid_points(default_domain(m), 5, 2, margin=0.05)
        for pt in pts:
            worst = max(worst, largest(
                einstein.onshell_relations(point_jets(m, pt), lam)))
        ka = kundu_A(m, pts)
        worst = max(worst, ka["max_deviation"])
    ka = kundu_A(catalog("vdb"), VDB_GRID)
    worst = max(worst, ka["max_deviation"])
    report(6, worst < 1e-7, f"on-shell relations + K equality on "
                            f"Lambda-Kundu, kundu_A constancy incl. vdb: "
                            f"{worst:.2e}")
    assert worst < 1e-7


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "unattainable for the published Van den Bergh display: the on-shell "
    "relations encode the Lambda-vacuum equations, and the display is "
    "off-shell by the exact scalar-field component R_22 = 4/sinh^2(t2) "
    "(same root cause as criterion 2); the Lambda-Kundu instances and "
    "the kundu_A statistic pass in criterion 6"))
def test_criterion_06b_onshell_suite_vdb():
    m = catalog("vdb")
    worst = max(largest(einstein.onshell_relations(point_jets(m, pt), 0.0))
                for pt in VDB_GRID)
    report("6b", worst < 1e-7, f"on-shell relations on vdb: {worst:.2e}")
    assert worst < 1e-7


def test_criterion_07_independence_ranks():
    ok = True
    for seed in range(5):
        r6 = jacobian_rank("fundamental6", random_point_jets(seed, order=1))
        r4 = jacobian_rank("fundamental6_transitive",
                           random_point_jets(seed, order=1,
                                             transitive=True))
        r20 = jacobian_rank("order2_20", random_point_jets(seed, order=2))
        ok = ok and (r6, r4, r20) == (6, 4, 20)
    report(7, ok, "ranks over 5 probes: fundamental6=6, transitive=4, "
                  "order2=20")
    assert ok


def test_criterion_08_pseudogroup_invariance():
    m = catalog("vdb")
    pts = grid_points(default_domain(m), 3, 2, margin=0.15)
    worst = 0.0
    signs_ok = True
    for seed in range(25):
        rep = invariance_report(m, random_transform(seed), pts, tol=1e-7)
        worst = max(worst, rep["max_invariant_residual"])
        worst = max(worst, max(r["frame_residual"] for r in rep["points"]
                               if r["frame_residual"] is not None))
        signs_ok = signs_ok and rep["sign_laws_pass"]
    report(8, worst < 1e-7 and signs_ok,
           f"25 random transforms: invariants + frame sign laws "
           f"{worst:.2e}")
    assert worst < 1e-7 and signs_ok


def test_criterion_09_equivalence_verdicts():
    m = catalog("vdb")
    p = make_transform("0.8*t1 + 0.1*t2 + 0.05", "-0.2*t1 + 1.1*t2 - 0.3",
                       "0.5*t1 - 0.2*t2", "0.3*t2",
                       [[2.0, 1.0], [0.0, 1.0]])
    v_tr = compare_metrics(m, apply_to_metric(m, p), n=4).verdict
    v_lk = compare_metrics(m, catalog("lambda_kundu")).verdict
    pts = grid_points(default_domain(m), 3, 3, margin=0.1)
    char_vdb, _ = characterize_vdb([point_jets(m, pt, order=1)
                                    for pt in pts])
    char_tr, _ = characterize_vdb([pushforward_jets(point_jets(m, pt),
                                                    random_transform(8))
                                   for pt in pts])
    lk = catalog("lambda_kundu")
    char_lk, _ = characterize_vdb([
        point_jets(lk, pt, order=1)
        for pt in grid_points(default_domain(lk), 3, 3, margin=0.1)])
    ok = (v_tr == "Consistent" and v_lk != "Consistent"
          and char_vdb and char_tr and not char_lk)
    report(9, ok, f"verdicts: transformed={v_tr}, "
                  f"lambda_kundu={v_lk}; characterize: vdb={char_vdb}, "
                  f"transformed={char_tr}, lambda_kundu={char_lk}")
    assert ok


def test_criterion_10_ppwave_degeneracy():
    from g2inv.metrics import component_scale
    worst = 0.0
    for name in ("ppwave1", "ppwave2", "ppwave3"):
        m = catalog(name)
        for pt in grid_points(default_domain(m), 4, 3, margin=0.05):
            pj = point_jets(m, pt, order=1)
            jv = first_invariant_jets(pj)
            scale = max(1.0, component_scale(pj))
            worst = max(worst, max(
                abs(jv[k].value)
                for k in ("C_rho", "C_chi", "Q_chi", "Q_gamma", "ell_C",
                          "Theta_I_sq")) / scale)
    report(10, worst < 1e-9, f"pp-wave fundamentals / scale: {worst:.2e}")
    assert worst < 1e-9


def test_criterion_11_jet_engine_vs_finite_differences():
    worst = 0.0
    for name in ("flat", "diag_t1", "vdb", "ppwave1", "ppwave2", "ppwave3",
                 "lambda_kundu", "lambda_kundu_c0"):
        m = catalog(name)
        pts = grid_points(default_domain(m), 2, 2, margin=0.2)
        for key, ast in m.asts.items():
            for pt in pts:
                for order in (1, 2):
                    aj = eval_jet(ast, m.params, pt, order)
                    fd = finite_difference_jet(
                        lambda p, a=ast: eval_scalar(a, m.params, p),
                        pt, order)
                    for k in range(len(aj.coeffs)):
                        err = abs(aj.coeffs[k] - fd.coeffs[k]) \
                            / max(1.0, abs(aj.coeffs[k]))
                        worst = max(worst, err)
    report(11, worst < 1e-6, f"analytic vs FD jets on all catalog "
                             f"components, orders 1-2: {worst:.2e}")
    assert worst < 1e-6
