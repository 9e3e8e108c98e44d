"""Seeded workload generator.

A workload is a list of ops; one op is one ``g2inv.cli.run(argv)`` call
with the answer it must give.  Ops come in rounds: every round draws
fresh inputs (sub-rectangles, grid shapes, points, random-analytic
seeds, transforms) from one ``numpy.random.Generator`` seeded by the
workload seed, so the same seed gives the same ops and files, and a run
with more rounds averages over more draws.  The program only sees the
metric and transform files written here and the argv.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from g2inv import metrics, transform

# A run holds --seconds / ROUND_SECONDS rounds, so its op list depends
# only on the seed and --seconds, never on timing.  With --seconds 20
# that is 8 survey rounds (64 ops), 14 relations rounds (112 ops), 22 fd
# rounds (132 ops) and 4 equiv rounds (24 ops, so that its op_tail_ms
# lies above the median); their ops took 10-35 s on a 2-CPU Xeon
# virtual machine (Python 3.11, numpy 2.4).
ROUND_SECONDS = {"survey": 2.5, "relations": 1.4, "equiv": 5.0, "fd": 0.9}
WORKLOADS = tuple(ROUND_SECONDS)

SURVEY_METRICS = ("vdb", "lambda_kundu", "lambda_kundu_c0", "random_analytic")
# metrics of the first-order relation checks, in relations and fd
FIRST_CHECK_METRICS = ("vdb", "random_analytic")
TRANSFORM_METRICS = ("vdb", "random_analytic")
# grid shapes of 12 points each, so every grid op does the same work
GRID_SHAPES = ((3, 4), (4, 3), (2, 6), (6, 2))
CHECK_POINTS = 6
EQUIV_GRID = 3
# random_analytic seeds of the equiv workload.  An equiv op costs 0.3-4 s
# depending on the metric, and a 20 s run holds only 24 ops, so broad
# draws made the run-to-run spread of its latencies reach 0.26.  Each run
# instead uses every seed of this pool once for an image and once for an
# inequivalent pair, in seeded orders and with seeded transforms.
# compare_metrics fails on most of them against their own image
# (checks.KNOWN_DEFECTS).
EQUIV_POOL = tuple(range(8))


@dataclass
class Op:
    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _num(x):
    return f"{x:.6f}"


class _Inputs:
    """Writes metric and transform files into one directory, once each."""

    def __init__(self, directory):
        self.dir = directory
        self.paths = {}

    def metric(self, key, m):
        path = os.path.join(self.dir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(m.to_document(), fh)
        self.paths[key] = path
        return path

    def catalog(self, name, seed=None):
        """File of a catalog metric; ``seed`` only for random_analytic."""
        key = f"{name}_{seed}" if name == "random_analytic" else name
        if key in self.paths:
            return self.paths[key]
        params = {"seed": seed} if name == "random_analytic" else None
        return self.metric(key, metrics.catalog(name, params))

    def transform(self, key, strings):
        path = os.path.join(self.dir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(strings, fh)
        return path


def _domain(name):
    return metrics.CATALOG_DOMAINS[name]


def _subrect(rng, name):
    """Seeded sub-rectangle of the catalog domain and a 12-point shape."""
    out = []
    n1, n2 = GRID_SHAPES[rng.integers(len(GRID_SHAPES))]
    for (lo, hi), n in zip(_domain(name), (n1, n2)):
        pad = 0.05 * (hi - lo)
        lo, hi = lo + pad, hi - pad
        width = rng.uniform(0.3, 0.7) * (hi - lo)
        start = lo + rng.uniform(0.0, hi - lo - width)
        out.append(f"{_num(start)}:{_num(start + width)}:{n}")
    return out


def _points(rng, name, count):
    (a, b), (c, d) = _domain(name)
    pa, pc = 0.05 * (b - a), 0.05 * (d - c)
    return [(float(rng.uniform(a + pa, b - pa)),
             float(rng.uniform(c + pc, d - pc))) for _ in range(count)]


def _points_arg(pts):
    return "--points=" + ";".join(f"{_num(x)},{_num(y)}" for x, y in pts)


def _ra_seed(rng):
    return int(rng.integers(0, 2 ** 31))


def affine_transform(rng):
    """Seeded affine pseudogroup element, the kind apply_to_metric takes:
    phi affine near the identity, psi linear, alpha integer, invertible."""
    A = np.eye(2) + rng.uniform(-0.2, 0.2, (2, 2))
    shift = rng.uniform(-0.3, 0.3, 2)
    grad = rng.uniform(-0.5, 0.5, (2, 2))
    while True:
        alpha = rng.integers(-2, 3, (2, 2)).astype(float)
        if abs(np.linalg.det(alpha)) >= 1.0:
            break
    phi = [f"{_num(A[r][0])}*t1 + {_num(A[r][1])}*t2 + {_num(shift[r])}"
           for r in range(2)]
    psi = [f"{_num(grad[r][0])}*t1 + {_num(grad[r][1])}*t2"
           for r in range(2)]
    return transform.make_transform(phi[0], phi[1], psi[0], psi[1],
                                    alpha.tolist())


def _cycle(rng, items):
    """Endless seeded draws from ``items``, each drawn once in every
    ``len(items)`` draws, so that the mix of a run's ops, and with it
    the run's cost, depends little on the seed."""
    while True:
        for i in rng.permutation(len(items)):
            yield items[i]


# The op counts of a round put the median op in the middle of one class of
# similar ops, and leave a top class of 14-40 ops for op_tail_ms, so
# neither statistic falls on the edge between two classes.
def _survey_round(rng, inp, singles, method="analytic", grids=SURVEY_METRICS,
                  ranks=2):
    ops = []
    fd = [] if method == "analytic" else ["--method", "fd"]
    ra = _ra_seed(rng)
    for name in grids:
        t1, t2 = _subrect(rng, name)
        ops.append(Op("grid", ["grid", inp.catalog(name, ra), "--t1=" + t1,
                               "--t2=" + t2, "--order", "2", "--csv", *fd],
                      {"exit": 0, "metric": name, "method": method}))
    for name in (next(singles), next(singles)):
        (x, y), = _points(rng, name, 1)
        ops.append(Op("invariants",
                      ["invariants", inp.catalog(name, ra),
                       f"--at={_num(x)},{_num(y)}", "--order", "2", "--json",
                       *fd],
                      {"exit": 0, "metric": name, "method": method}))
    for _ in range(ranks):
        ops.append(Op("rank", ["rank", "--random", str(_ra_seed(rng)),
                               "--set", "order2_20", "--json"],
                      {"rank": 20}))
    return ops


def _relations_round(rng, inp, transformed):
    ra = _ra_seed(rng)
    ops = []
    for name in FIRST_CHECK_METRICS:
        ops.append(Op("check-relations",
                      ["check-relations", inp.catalog(name, ra), "--first",
                       "--second", _points_arg(_points(rng, name,
                                                       CHECK_POINTS)),
                       "--json"],
                      {"exit": 0, "pass": True, "metric": name}))
    for name in ("lambda_kundu", "lambda_kundu_c0"):
        pts = _points_arg(_points(rng, name, CHECK_POINTS))
        ops.append(Op("check-relations",
                      ["check-relations", inp.catalog(name), "--onshell",
                       "--lambda", "3", pts, "--json"],
                      {"exit": 0, "pass": True, "metric": name}))
        pts = _points_arg(_points(rng, name, CHECK_POINTS))
        ops.append(Op("check-einstein",
                      ["check-einstein", inp.catalog(name), "--lambda", "3",
                       pts, "--json"],
                      {"exit": 0, "pass": True, "metric": name}))
    # vdb is an Einstein-massless-scalar metric, not vacuum: must fail
    ops.append(Op("check-relations",
                  ["check-relations", inp.catalog("vdb"), "--onshell",
                   _points_arg(_points(rng, "vdb", CHECK_POINTS)), "--json"],
                  {"exit": 1, "pass": False, "metric": "vdb"}))
    name = next(transformed)
    tseed = _ra_seed(rng)
    tpath = inp.transform(f"random_transform_{tseed}",
                          transform.random_transform(tseed).strings)
    ops.append(Op("transform",
                  ["transform", inp.catalog(name, ra), tpath,
                   "--report-invariance",
                   _points_arg(_points(rng, name, CHECK_POINTS)), "--json"],
                  {"exit": 0, "pass": True, "metric": name}))
    return ops


def _image_op(rng, inp, name, ra):
    source = (metrics.catalog(name, {"seed": ra}) if name == "random_analytic"
              else metrics.catalog(name))
    image = transform.apply_to_metric(source, affine_transform(rng),
                                      name=f"{source.name}_image")
    key = f"{source.name}_image_{len(inp.paths)}"
    (a, b), (c, d) = image.domain
    return Op("equiv", ["equiv", inp.catalog(name, ra),
                        inp.metric(key, image),
                        f"--rect-b={a!r}:{b!r},{c!r}:{d!r}",
                        "--grid", str(EQUIV_GRID), "--json"],
              {"image": True, "metric": name})


def _equiv_round(rng, inp, images, others):
    ops = [_image_op(rng, inp, "vdb", None)]
    for _ in range(2):
        ops.append(_image_op(rng, inp, "random_analytic", next(images)))
    for _ in range(2):
        ops.append(Op("equiv", ["equiv", inp.catalog("vdb"),
                                inp.catalog("random_analytic", next(others)),
                                "--grid", str(EQUIV_GRID), "--json"],
                      {"image": False, "metric": "vdb"}))
    ops.append(Op("equiv", ["equiv", inp.catalog("vdb"),
                            inp.catalog("lambda_kundu"),
                            "--grid", str(EQUIV_GRID), "--json"],
                  {"image": False, "metric": "vdb"}))
    return ops


def _fd_round(rng, inp, grids, singles):
    ops = _survey_round(rng, inp, singles, method="fd",
                        grids=(next(grids), next(grids)), ranks=0)
    ra = _ra_seed(rng)
    for name in FIRST_CHECK_METRICS:
        ops.append(Op("check-relations",
                      ["check-relations", inp.catalog(name, ra), "--first",
                       _points_arg(_points(rng, name, CHECK_POINTS)),
                       "--json", "--method", "fd"],
                      {"exit": 0, "pass": True, "metric": name,
                       "method": "fd"}))
    return ops


def generate(workload, seed, rounds, directory):
    """Write the inputs of ``rounds`` rounds into ``directory``; return ops."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inp = _Inputs(directory)
    if workload == "survey":
        make_round = functools.partial(
            _survey_round, singles=_cycle(rng, SURVEY_METRICS))
    elif workload == "relations":
        make_round = functools.partial(
            _relations_round, transformed=_cycle(rng, TRANSFORM_METRICS))
    elif workload == "equiv":
        make_round = functools.partial(
            _equiv_round, images=_cycle(rng, EQUIV_POOL),
            others=_cycle(rng, EQUIV_POOL))
    else:
        make_round = functools.partial(
            _fd_round, grids=_cycle(rng, SURVEY_METRICS),
            singles=_cycle(rng, SURVEY_METRICS))
    ops = []
    for _ in range(rounds):
        ops.extend(make_round(rng, inp))
    return ops
