"""Per-call benchmarks of the pipeline's layers, for the per-call table
in ROADMAP.md.

Not part of the test suite (the file name does not match test_*.py).
Run with pytest-benchmark:

    PYTHONPATH=src python -m pytest -q tests/bench_layers.py

and add --benchmark-disable to run every case once, as a smoke test.
pytest's `pythonpath = ["src"]` in pyproject.toml puts this checkout's
`src` first on the path, ahead of PYTHONPATH, so PYTHONPATH cannot
select another checkout: to time one, run pytest from its root.
Each layer case builds a fresh PointJets, so its time includes the
layers it reads.
"""

import dataclasses
import json

import numpy as np
import pytest

from g2inv import (catalog, cli, einstein, equivalence, invariants1, jets,
                   load_metric, metrics, point_jets)
from g2inv.einstein import onshell_relations
from g2inv.invariants1 import (FUNDAMENTAL_IDS, jacobian_rank,
                               random_point_jets, relations_first)
from g2inv.invariants2 import SECOND_ORDER_COLUMNS, relations_second
from g2inv.metrics import default_domain, grid_points
from g2inv.transform import (_map_jets, _pushforward, apply_to_metric,
                             invariance_report, make_transform,
                             random_transform)

VDB = catalog("vdb")
POINT = (0.6, 1.1)
# a 12-point batch, the size of a grid op
BATCH = tuple(np.array(t) for t in zip(*grid_points(
    default_domain(VDB), 3, 4, margin=0.05)))
# a 6-point batch, the size of a check op and of a transform op
CHECK_POINTS = grid_points(default_domain(VDB), 2, 3, margin=0.05)
CHECK_BATCH = tuple(np.array(t) for t in zip(*CHECK_POINTS))
# an affine image of vdb (a defs document) on a 14-point batch, the
# size of an equiv Gauss-Newton round
VDB_IMAGE = apply_to_metric(VDB, make_transform(
    "0.8*t1 + 0.1*t2 + 0.05", "-0.2*t1 + 1.1*t2 - 0.3", "0.5*t1 - 0.2*t2",
    "0.3*t2", [[2.0, 1.0], [0.0, 1.0]]))
IMAGE_BATCH = tuple(np.array(t) for t in zip(*grid_points(
    VDB_IMAGE.domain, 2, 7, margin=0.05)))
# 18 points of vdb and 18 of its image, the columns of one equiv
# Gauss-Newton round of both directions: (metric index, t1, t2)
ROUND_COLUMNS = [(k, *pt) for k, m in enumerate((VDB, VDB_IMAGE))
                 for pt in grid_points(m.domain or default_domain(m), 3, 6,
                                       margin=0.05)]
# 2 points of vdb and 2 of its image: a thin round, each of its runs at
# most equivalence.THIN columns
THIN_COLUMNS = ROUND_COLUMNS[:2] + ROUND_COLUMNS[-2:]
LK = catalog("lambda_kundu")
LK_POINT = (0.9, 0.1)
LK_BATCH = tuple(np.array(t) for t in zip(*grid_points(
    default_domain(LK), 2, 3, margin=0.05)))


def _operands(order, width):
    """Two order-`order` jets of seeded coefficients, floats (width None)
    or length-width float64 vectors; the divisor's value is kept from 0."""
    rng = np.random.default_rng(order)
    size = len(jets._IDX[order])
    shape = (2, size) if width is None else (2, size, width)
    c = rng.uniform(-1.0, 1.0, shape)
    c[1, 0] += 3.0
    if width is None:
        c = c.tolist()
    return (jets._jet(order, tuple(c[0])),
            jets._jet(order, tuple(c[1])))


@pytest.mark.parametrize("width", [None, 36], ids=["float", "B36"])
@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("op", ["mul", "div"])
def test_jet2_arithmetic(benchmark, op, order, width):
    a, b = _operands(order, width)
    fn = (lambda: a * b) if op == "mul" else (lambda: a / b)
    assert benchmark(fn).order == order


@pytest.mark.parametrize("width", [None, 36], ids=["float", "B36"])
@pytest.mark.parametrize("constant", ["number", "jet"])
def test_jet2_mul_by_constant(benchmark, constant, width):
    # a number or a constant float jet times an order-2 jet: a batch jet
    # is scaled, two float jets run the product kernel
    a, _ = _operands(2, width)
    c = 0.1628 if constant == "number" else jets.constant(0.1628, 2)
    assert benchmark(lambda: c * a).order == 2


def test_scale_batch(benchmark):
    # a float times an order-2 batch jet of 36 columns
    a, _ = _operands(2, 36)
    assert benchmark(jets._scale, 0.1628, a.coeffs, 2).order == 2


@pytest.mark.parametrize("name", ["vdb", "random_analytic", "vdb_image"])
def test_load_metric(benchmark, tmp_path, name):
    # the front end each op starts with: a metric file read, its texts
    # parsed and checked; vdb's catalog file, a random_analytic one and
    # an affine image of vdb, a defs document
    m = {"vdb": VDB, "random_analytic": catalog("random_analytic",
                                                {"seed": 3}),
         "vdb_image": VDB_IMAGE}[name]
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(m.to_document()))
    assert benchmark(load_metric, str(path)).asts == m.asts


def test_point_jets(benchmark):
    assert benchmark(point_jets, VDB, POINT).det_h.is_finite()


@pytest.mark.parametrize("point", [POINT, CHECK_BATCH], ids=["float", "B6"])
def test_classify(benchmark, point):
    # the stratum test alone, on one order-2 PointJets of vdb whose
    # fundamentals are read once beforehand
    pj = point_jets(VDB, point)
    pj.fundamentals
    assert np.all(benchmark(metrics.classify, pj).generic)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("point", [POINT, BATCH], ids=["float", "B12"])
def test_point_jets_fd(benchmark, point, order):
    assert benchmark(point_jets, VDB, point, order=order,
                     method="fd").det_h.is_finite()


def test_elementary_batch(benchmark):
    # sin at order 0 on the 12-point grid's 17-point stencils, the
    # columns of an fd grid op's one stencil batch
    a = jets.seed(np.linspace(-0.9, 0.9, 12 * 17), 0, 0)
    assert benchmark(jets.elementary, "sin", a).value.shape == (204,)


@pytest.mark.parametrize("point", [POINT, BATCH], ids=["float", "B12"])
def test_second(benchmark, point):
    sec = benchmark(lambda: point_jets(VDB, point).second)
    assert np.isfinite(sec["C_ric"]).all()


def _finite(row):
    return all(np.isfinite(np.array(v, dtype=float)).all()
               for v in row.values() if v is not None)


@pytest.mark.parametrize("point", [POINT, BATCH], ids=["float", "B12"])
def test_grid_rows(benchmark, point):
    # the rows of an invariants --order 2 op at one point, or of a grid
    # --order 2 op on the 12-point batch: every layer they read, K_Xi and
    # K_Xiperp included
    rows = benchmark(lambda: cli._rows(point_jets(VDB, point), 2))
    assert len(rows) == np.size(point[0]) and all(map(_finite, rows))


@pytest.mark.parametrize("command", ["grid", "check-relations"])
def test_render_reports(benchmark, tmp_path, command):
    # the report walker alone: dumps of a grid --order 2 op's report on
    # the 12-point batch, the plain text of a check-relations --first
    # --second op's report on the 6-point batch
    if command == "grid":
        report = {"command": "grid", "metric": VDB.name,
                  "columns": ["t1", "t2", *FUNDAMENTAL_IDS,
                              *SECOND_ORDER_COLUMNS],
                  "rows": cli._rows(point_jets(VDB, BATCH), 2)}
        render = cli.dumps
    else:
        metric, out = tmp_path / "vdb.json", tmp_path / "report.json"
        metric.write_text(json.dumps(VDB.to_document()))
        points = ";".join(f"{t1!r},{t2!r}" for t1, t2 in CHECK_POINTS)
        assert cli.run(["check-relations", str(metric), "--first",
                        "--second", f"--points={points}", "--json",
                        "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        render = cli._plain
    assert benchmark(render, report).count("\n") > 50


@pytest.mark.parametrize("layer", ["fundamentals", "derivations", "fields"])
def test_first_order_layer(benchmark, layer):
    # the layer alone: each round reads it on a fresh copy of one
    # PointJets of the vdb image's 14-point batch (derivations and fields
    # include the layers they build on)
    pj = point_jets(VDB_IMAGE, IMAGE_BATCH)
    got = benchmark(lambda: getattr(dataclasses.replace(pj), layer))
    assert np.isfinite(got["Xp1" if layer == "derivations"
                           else "ell_C"].value).all()


def test_joined_round(benchmark):
    # one round of both projection directions: each metric's point_jets
    # on its 18 columns, one fundamentals pass over all 36
    got = benchmark(equivalence._evaluate, [VDB, VDB_IMAGE], ROUND_COLUMNS)
    assert got["ok"].all() and np.isfinite(got["values"]).all()


def test_thin_round(benchmark):
    # a round of 2 + 2 columns, as the last rounds of an equiv op run
    got = benchmark(equivalence._evaluate, [VDB, VDB_IMAGE], THIN_COLUMNS)
    assert got["ok"].all() and np.isfinite(got["values"]).all()


def test_scales(benchmark):
    # the IQR scales of an equiv op: 48 samples of each side, with the
    # six fundamentals of each
    values = np.random.default_rng(0).normal(size=(2 * 48, 6))
    assert (benchmark(equivalence._scales, values) > 0).all()


def test_build_signature(benchmark):
    # the signature of an equiv --grid 3 op: 9 grid points as one batch,
    # their fundamentals, stratum and rank test
    assert len(benchmark(equivalence.build_signature, VDB, n=3).samples) == 9


@pytest.mark.parametrize("point", [POINT, CHECK_BATCH], ids=["float", "B6"])
def test_residual(benchmark, point):
    # the Einstein residual of a check-einstein op alone, on one order-2
    # PointJets of vdb whose Riemann tensor is read once beforehand: one
    # point, or the six points of a check op as one batch
    pj = point_jets(VDB, point)
    pj.riemann
    row = benchmark(einstein.residual, pj, 0.0)
    assert np.isfinite(row["normalized"]).all()


@pytest.mark.parametrize("point", [POINT, CHECK_BATCH], ids=["float", "B6"])
def test_christoffel4(benchmark, point):
    # the Christoffel block jet alone, on one order-2 PointJets of vdb
    # whose fundamentals are read once beforehand
    pj = point_jets(VDB, point)
    pj.fundamentals
    assert benchmark(einstein.christoffel4, pj).is_finite()


@pytest.mark.parametrize("point", [POINT, CHECK_BATCH], ids=["float", "B6"])
def test_riemann4(benchmark, point):
    # the Riemann tensor alone, on one order-2 PointJets of vdb whose
    # Christoffel symbols are read once beforehand
    pj = point_jets(VDB, point)
    pj.christoffel
    assert np.isfinite(benchmark(einstein.riemann4, pj)).all()


@pytest.mark.parametrize("point", [POINT, CHECK_BATCH], ids=["float", "B6"])
def test_pushforward(benchmark, point):
    # the pushforward of a transform --report-invariance op alone: order-1
    # jets of vdb by random_transform(3), its phi jets given
    p = random_transform(3)
    pj = point_jets(VDB, point, order=1)
    phi_jets = _map_jets(p, pj.point, 2)
    assert benchmark(_pushforward, pj, p, phi_jets).det_h.is_finite()


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("point", [POINT, CHECK_BATCH], ids=["float", "B6"])
def test_relations_first(benchmark, point, order):
    assert _finite(benchmark(
        lambda: relations_first(point_jets(VDB, point, order=order))))


@pytest.mark.parametrize("point", [POINT, CHECK_BATCH], ids=["float", "B6"])
def test_relations_first_layers(benchmark, point):
    # the first-order suite alone, on a fresh copy of one order-2
    # PointJets of vdb, as check-relations --first --second reads it:
    # every layer it builds
    pj = point_jets(VDB, point)
    assert _finite(benchmark(
        lambda: relations_first(dataclasses.replace(pj))))


@pytest.mark.parametrize("point", [POINT, CHECK_BATCH], ids=["float", "B6"])
def test_oneill_tensors(benchmark, point):
    # the O'Neill layer alone, on a fresh order-2 PointJets of vdb whose
    # frame (and the fundamentals it reads) and stratum are read
    # beforehand
    pj = point_jets(VDB, point)
    pj.frame, pj.stratum
    T, theta_c, theta_cp = benchmark(invariants1.oneill_tensors, pj)
    assert np.isfinite(T).all() and np.isfinite([theta_c, theta_cp]).all()


@pytest.mark.parametrize("point", [POINT, CHECK_BATCH], ids=["float", "B6"])
def test_relations_second(benchmark, point):
    assert _finite(benchmark(
        lambda: relations_second(point_jets(VDB, point))))


@pytest.mark.parametrize("point", [LK_POINT, LK_BATCH], ids=["float", "B6"])
def test_onshell_relations(benchmark, point):
    assert _finite(benchmark(
        lambda: onshell_relations(point_jets(LK, point), 3.0)))


@pytest.mark.parametrize("points", [[POINT], CHECK_POINTS],
                         ids=["float", "B6"])
def test_invariance_report(benchmark, points):
    # one point alone, or the six points of a transform op as one batch
    p = random_transform(3)
    assert benchmark(invariance_report, VDB, p, points)["pass"]


def test_jacobian_rank_order2(benchmark):
    # a rank --random op: the 20 orbit-space invariants on the 120
    # central-difference columns of one random order-2 probe
    probe = random_point_jets(7, order=2)
    assert benchmark(jacobian_rank, "order2_20", probe) == 20
