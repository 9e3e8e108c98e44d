"""The float pipeline against the 40-digit mpmath reference of oracle.py."""

import math

import pytest
from mpmath import mp

import oracle
from g2inv import catalog, cli, einstein, load_metric, point_jets
from g2inv.expr import eval_jet
from g2inv.metrics import CATALOG_NAMES, default_domain, grid_points
from paper_checks import riemann_sectional_curvatures

# every catalog metric, random_analytic at seeds 0-3
ORACLE_METRICS = [(name, {}) for name in CATALOG_NAMES[:-1]] + [
    ("random_analytic", {"seed": seed}) for seed in range(4)]
# the same with random_analytic at seeds 0-5
ROW_METRICS = ORACLE_METRICS + [("random_analytic", {"seed": seed})
                                for seed in (4, 5)]


def _ids(metrics):
    return [name + "".join(f"_{v}" for v in params.values())
            for name, params in metrics]


def test_component_jets_match_eval_jet():
    for name in ("vdb", "lambda_kundu"):
        m = catalog(name)
        for pt in grid_points(default_domain(m), 2, margin=0.1):
            exact = oracle.component_jets(m, pt)
            for key, ast in m.asts.items():
                got = eval_jet(ast, m.params, pt, 2).coeffs
                want = [exact[key][ij] for ij in
                        ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
                scale = max(1.0, *(abs(float(w)) for w in want))
                for g, w in zip(got, want):
                    assert abs(g - w) < 1e-14 * scale, (name, pt, key)


def test_sphere_plane_has_curvature_one():
    # S^2 x E^2: the plane of d_t1 and d_z1 is the unit sphere's
    m = load_metric({"name": "s2xe2", "form": "bfh", "components": {
        "b11": "1", "b12": "0", "b22": "1", "f11": "0", "f12": "0",
        "f21": "0", "f22": "0", "h11": "sin(t1)^2", "h12": "0",
        "h22": "1"}})
    g0, R = oracle.riemann(oracle.four_metric_jets(m, (0.7, 0.2)))
    with mp.workdps(oracle.DPS):
        assert abs(oracle.sectional_curvature(g0, R, (1, 0, 0, 0),
                                              (0, 0, 1, 0)) - 1) < 1e-35
    K = oracle.gauss_curvatures(m, (0.7, 0.2))
    assert K == {"K_Xi": 0, "K_Xiperp": 0}


@pytest.mark.parametrize("name, params", ORACLE_METRICS,
                         ids=_ids(ORACLE_METRICS))
def test_gauss_curvature_propositions_against_40_digits(name, params):
    # K_Xi = -C_chi/4 and K_Xiperp = C_ric/2 - sg 3 ell_C/4, as pj.second
    # has them, within 2e-13 of the 40-digit Riemann K (floor-1 relative
    # error), and each metric's worst no more than 1.5 times the float
    # Riemann route's worst (or at most 1e-15): both sit at the roundoff
    # floor, and either route beats the other at some points; the live
    # frame route of the on-shell suite within 2e-13 too
    m = catalog(name, params)
    worst = {(route, key): 0.0
             for route in ("propositions", "riemann", "frame")
             for key in ("K_Xi", "K_Xiperp")}
    for pt in grid_points(default_domain(m), 3, margin=0.05):
        exact = oracle.gauss_curvatures(m, pt)
        pj = point_jets(m, pt)
        riemann = riemann_sectional_curvatures(pj)
        frame = dict(zip(("K_Xi", "K_Xiperp"),
                         einstein.sectional_curvatures(pj)))
        for key in ("K_Xi", "K_Xiperp"):
            got = pj.second[key]
            assert math.isfinite(got)
            for route, value in (("propositions", got),
                                 ("riemann", riemann[key]),
                                 ("frame", frame[key])):
                worst[route, key] = max(worst[route, key],
                                        oracle.rel_err(value, exact[key]))
    for key in ("K_Xi", "K_Xiperp"):
        mine, theirs = worst["propositions", key], worst["riemann", key]
        assert mine <= 2e-13 and worst["frame", key] <= 2e-13, (key, worst)
        assert mine <= 1.5 * theirs or mine <= 1e-15, (key, worst)


@pytest.mark.parametrize("name, params", ROW_METRICS, ids=_ids(ROW_METRICS))
def test_every_order_2_report_value_against_40_digit_component_jets(
        name, params):
    # the 40-digit submersion jets, rounded to floats, through the live
    # pipeline: every grid-row value within 1e-12 (floor-1 relative) of
    # point_jets' own, None in the same places
    m = catalog(name, params)
    for pt in grid_points(default_domain(m), 3, margin=0.05):
        (want,), (got,) = (cli._rows(pj, 2) for pj in (
            point_jets(m, pt), oracle.oracle_point_jets(m, pt)))
        assert want.keys() == got.keys()
        for key, value in want.items():
            if value is None or got[key] is None:
                assert value is got[key], (pt, key)
            else:
                err = abs(got[key] - value) / max(1, abs(got[key]),
                                                   abs(value))
                assert err <= 1e-12, (pt, key, value, got[key])
