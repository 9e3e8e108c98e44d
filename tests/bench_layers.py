"""Per-call benchmarks of the pipeline's layers, for the per-call table
in ROADMAP.md.

Not part of the test suite (the file name does not match test_*.py).
Run with pytest-benchmark:

    PYTHONPATH=src python -m pytest -q tests/bench_layers.py

and add --benchmark-disable to run every case once, as a smoke test.
Each layer case builds a fresh PointJets, so its time includes the
layers it reads.
"""

import numpy as np
import pytest

from g2inv import catalog, jets, point_jets
from g2inv.invariants1 import relations_first
from g2inv.metrics import default_domain, grid_points

VDB = catalog("vdb")
POINT = (0.6, 1.1)
# a 12-point batch, the size of a grid op
BATCH = tuple(np.array(t) for t in zip(*grid_points(
    default_domain(VDB), 3, 4, margin=0.05)))


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


def test_point_jets(benchmark):
    assert benchmark(point_jets, VDB, POINT).det_h.is_finite()


@pytest.mark.parametrize("point", [POINT, BATCH], ids=["float", "B12"])
def test_point_jets_fd(benchmark, point):
    assert benchmark(point_jets, VDB, point, method="fd").det_h.is_finite()


@pytest.mark.parametrize("point", [POINT, BATCH], ids=["float", "B12"])
def test_second(benchmark, point):
    sec = benchmark(lambda: point_jets(VDB, point).second)
    assert np.isfinite(sec.C_ric).all()


def test_relations_first(benchmark):
    row = benchmark(lambda: relations_first(point_jets(VDB, POINT)))
    assert all(v is None or np.isfinite(v) for v in row.values())
