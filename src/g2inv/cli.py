"""Command-line interface.

Exit codes: 0 success / Consistent / pass, 1 check failed / Inconsistent,
2 usage or input error, 3 Inconclusive.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from json.encoder import encode_basestring

import numpy as np

from . import einstein, equivalence, invariants1, invariants2, metrics
from . import transform as transform_mod
from .errors import G2InvError
from .invariants2 import SECOND_ORDER_COLUMNS


def _fmt(value, key="report"):
    """A report leaf, a float at 17 significant digits.  A non-finite
    number is an input error, named by the nearest dict key above it."""
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise G2InvError(f"non-finite value {float(value)} for {key!r}")
        return format(float(value), ".17g")
    return value


def dumps(obj, indent=0, key="report"):
    """Deterministic JSON: floats at 17 significant digits, and strings,
    keys too, quoted as json.dumps(s, ensure_ascii=False) quotes them."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(f"{pad} {encode_basestring(str(k))}: "
                           f"{dumps(v, indent + 1, k).lstrip()}"
                           for k, v in obj.items())
        return f"{pad}{{\n{items}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        items = ",\n".join(dumps(v, indent + 1, key) for v in obj)
        return f"{pad}[\n{items}\n{pad}]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return pad + {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _fmt(obj, key)
    return pad + encode_basestring(str(obj))


def _parse_point(text):
    try:
        t1, t2 = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected t1,t2 got {text!r}") from None
    if not all(map(math.isfinite, (t1, t2))):
        raise argparse.ArgumentTypeError(
            f"the coordinates of t1,t2 must be finite, got {text!r}")
    return (t1, t2)


def _check_spans(text, form, *sides):
    """Each side (a, b) read from text in form spans a finite b - a."""
    if not all(math.isfinite(b - a) for a, b in sides):
        raise argparse.ArgumentTypeError(
            f"the bounds of {form} must be finite, with a finite span "
            f"b - a, got {text!r}")


def _parse_range(text):
    try:
        a, b, n = text.split(":")
        bounds, count = (float(a), float(b)), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a:b:n got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"the count n of a:b:n must be at least 1, got {text!r}")
    _check_spans(text, "a:b:n", bounds)
    return (*bounds, count)


def _parse_rect(text):
    try:
        (a, b), (c, d) = [[float(x) for x in side.split(":")]
                          for side in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a:b,c:d got {text!r}") from None
    _check_spans(text, "a:b,c:d", (a, b), (c, d))
    return ((a, b), (c, d))


def _within(kind, low=0, high=math.inf):
    """An argparse type: a kind(text) strictly between low and high."""
    def parse(text):
        if not low < (value := kind(text)) < high:
            raise argparse.ArgumentTypeError(
                f"must be in ({low}, {high}), got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse: "invalid float value: ..."
    return parse


# the most points a run samples (--grid n: n * n): a report holds each
# point's row, and check-relations at 316 x 316 takes ~7 s and ~480 MB
MAX_POINTS = 10**5


def _domain(m, option):
    """m's sampling rectangle; a metric without one needs option."""
    if (rect := metrics.default_domain(m)) is None:
        raise G2InvError(
            f"metric has no known sampling domain; pass {option}")
    return rect


def _resolve_points(args, m):
    spec = args.points
    if spec != "grid":
        if not (points := [_parse_point(p) for p in spec.split(";") if p]):
            raise G2InvError(f"--points names no point: {spec!r}")
        return points
    return metrics.grid_points(
        _domain(m, "explicit --points t1,t2;t1,t2;..."), args.grid,
        margin=0.05)


def _write(path, text):
    """text to the file at path, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, report):
    _write(args.out, dumps(report) + "\n" if getattr(args, "json", False)
           else _plain(report) + "\n")


def _plain(obj, key="report", depth=0):
    """The plain-text lines of a dict or list of the report."""
    pad = "  " * depth
    if isinstance(obj, dict):
        lines = []
        for k, v in obj.items():
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{pad}{k}:")
                lines.append(_plain(v, k, depth + 1))
            else:
                lines.append(f"{pad}{k}: {_fmt(v, k)}")
        return "\n".join(lines)
    return "\n".join(_plain(v, key, depth) if isinstance(v, (dict, list))
                     else f"{pad}- {_fmt(v, key)}" for v in obj)


def _rows(pj, order):
    """The grid row of each column of pj: t1, t2, the fundamentals and,
    at order 2, X_k and Xperp_k of each and the other second-order
    invariants, with J1, J2 None where C_rho ~ 0."""
    row = {"t1": pj.point[0], "t2": pj.point[1], **{
        k: pj.fundamentals[k].value for k in invariants1.FUNDAMENTAL_IDS}}
    if order >= 2:
        row.update({k: pj.second[k] for k in SECOND_ORDER_COLUMNS})
        for k in ("J1", "J2"):  # a batch gives NaN where C_rho ~ 0
            row[k] = np.where(pj.stratum.c_rho_zero, None, row[k])
    return _columns(row)


def _columns(row):
    """The row of each column of a row of values or (B,) vectors."""
    return [dict(zip(row, values)) for values in zip(
        *(np.atleast_1d(v).tolist() for v in row.values()))]


def cmd_invariants(args):
    m = metrics.load_metric(args.metric)
    row, = metrics.each_point_or_raise(lambda point: _rows(
        metrics.point_jets(m, point, order=args.order, method=args.method),
        args.order), [args.at])
    report = {
        "command": "invariants",
        "metric": m.name,
        "point": list(args.at),
        "order": args.order,
        "fundamentals": {k: row[k] for k in invariants1.FUNDAMENTAL_IDS},
    }
    if args.order >= 2:
        report["second_order"] = {k: row[k] for k in SECOND_ORDER_COLUMNS}
    _emit(args, report)
    return 0


def cmd_grid(args):
    if (size := args.t1[2] * args.t2[2]) > MAX_POINTS:
        raise G2InvError(f"--t1 and --t2 ask for {size} points, more than "
                         f"the {MAX_POINTS} a run samples")
    m = metrics.load_metric(args.metric)
    points = [(x, y) for x in np.linspace(*args.t1)
              for y in np.linspace(*args.t2)]
    got = metrics.each_point(lambda point: _rows(metrics.point_jets(
        m, point, order=args.order, method=args.method), args.order), points)
    columns = ["t1", "t2", *invariants1.FUNDAMENTAL_IDS,
               *(SECOND_ORDER_COLUMNS if args.order >= 2 else ())]
    # a point that fails, or gives a non-finite value, is a row of nulls
    rows = [row if isinstance(row, dict) and all(
                v is None or math.isfinite(v) for v in row.values())
            else {**dict.fromkeys(columns), "t1": pt[0], "t2": pt[1]}
            for pt, row in zip(points, got)]
    if args.csv:
        lines = [columns] + [["nan" if row[c] is None
                              else format(row[c], ".17g") for c in columns]
                             for row in rows]
        _write(args.out, "".join(",".join(line) + "\n" for line in lines))
    else:
        args.json = True
        _emit(args, {"command": "grid", "metric": m.name,
                     "columns": columns, "rows": rows})
    return 0


def _worst(values, tol):
    """Largest |value| over the values that are not None (0.0 if there
    are none), and whether it is below tol."""
    worst = max([0.0, *(abs(v) for v in values if v is not None)])
    return worst, worst < tol


def cmd_check_einstein(args):
    m = metrics.load_metric(args.metric)
    points = _resolve_points(args, m)

    def evaluate(point):
        return _columns(einstein.residual(metrics.point_jets(
            m, point, order=2, method=args.method), args.lam))
    rows = [{"point": list(pt), **row} for pt, row in zip(
        points, metrics.each_point_or_raise(evaluate, points))]
    worst, ok = _worst((r["normalized"] for r in rows), args.tol)
    _emit(args, {"command": "check-einstein", "metric": m.name,
                 "lambda": args.lam, "tol": args.tol,
                 "max_normalized": worst, "pass": ok, "points": rows})
    return 0 if ok else 1


def cmd_check_relations(args):
    m = metrics.load_metric(args.metric)
    points = _resolve_points(args, m)
    if not (args.first or args.second or args.onshell):
        args.first = args.second = True
    suites = [(key, suite) for key, suite, chosen in (
        ("first_order", invariants1.relations_first, args.first),
        ("second_order", invariants2.relations_second, args.second),
        ("onshell", lambda pj: einstein.onshell_relations(pj, args.lam),
         args.onshell)) if chosen]
    order = 2 if args.second or args.onshell else 1  # --first: values alone

    def evaluate(point):
        pj = metrics.point_jets(m, point, order=order, method=args.method)
        rows = []
        for key, suite in suites:
            with metrics.singular_on_overflow(key):
                rows.append(_columns(suite(pj)))
        return list(zip(*rows))  # each column's row of each suite
    got = metrics.each_point_or_raise(evaluate, points)
    report = {"command": "check-relations", "metric": m.name}
    for (key, _), suite_rows in zip(suites, zip(*got)):
        # the on-shell rows carry the Einstein residual for attribution;
        # it is not one of the relations
        worst, ok = _worst((v for row in suite_rows for k, v in row.items()
                            if k != "einstein_normalized"), args.tol)
        if key == "first_order":
            suite_rows = [{k: "skipped" if v is None else v
                           for k, v in row.items()} for row in suite_rows]
        report[key] = {"max_residual": worst, "pass": ok, "points": [
            {"point": list(pt), **row} for pt, row in zip(points, suite_rows)]}
    report["pass"] = all(report[key]["pass"] for key, _ in suites)
    _emit(args, report)
    return 0 if report["pass"] else 1


def cmd_rank(args):
    which = args.set
    order, expected, transitive = invariants1.RANK_SETS[which]
    if args.random is not None:
        if args.metric is not None or args.at is not None:
            raise G2InvError(
                "rank --random SEED takes no metric file and no --at")
        if args.random < 0:
            raise G2InvError(f"--random SEED must be a non-negative "
                             f"integer, got {args.random}")
        probe = invariants1.random_point_jets(args.random, order=order,
                                              transitive=transitive)
    else:
        if args.metric is None:
            raise G2InvError("rank needs a metric file or --random SEED")
        m = metrics.load_metric(args.metric)
        at = args.at or tuple(sum(side) / 2
                              for side in _domain(m, "--at t1,t2"))
        probe = metrics.point_jets(m, at, order=order)
    rank = invariants1.jacobian_rank(which, probe, eps=args.eps)
    _emit(args, {"command": "rank", "set": which, "rank": rank,
                 "expected_generic": expected})
    return 0 if rank == expected else 1


def cmd_transform(args):
    m = metrics.load_metric(args.metric)
    p = transform_mod.load_transform(args.transform)
    points = _resolve_points(args, m)
    if args.report_invariance:
        rep = transform_mod.invariance_report(m, p, points, tol=args.tol)
        _emit(args, {"command": "transform", "metric": m.name, **rep})
        return 0 if rep["pass"] else 1
    # the fundamentals read values alone: order-1 jets, one batch
    got = metrics.each_point_or_raise(lambda point: _rows(
        transform_mod.pushforward_jets(metrics.point_jets(
            m, point, order=1), p), 1), points)
    rows = [{"point": list(pt), "image": [row["t1"], row["t2"]],
             **{k: row[k] for k in invariants1.FUNDAMENTAL_IDS}}
            for pt, row in zip(points, got)]
    _emit(args, {"command": "transform", "metric": m.name, "points": rows})
    return 0


def cmd_equiv(args):
    ma = metrics.load_metric(args.metric_a)
    mb = metrics.load_metric(args.metric_b)
    verdict = equivalence.compare_metrics(
        ma, mb, n=args.grid, tol=args.tol,
        rect_a=args.rect_a, rect_b=args.rect_b)
    _emit(args, {"command": "equiv", "metric_a": ma.name,
                 "metric_b": mb.name, **dataclasses.asdict(verdict)})
    return verdict.exit_code()


def cmd_catalog(args):
    if args.name is None:
        _emit(args, {"command": "catalog",
                     "names": list(metrics.CATALOG_NAMES)})
        return 0
    params = {}
    for item in args.param or []:
        key, _, val = item.partition("=")
        try:
            params[key] = float(val)
        except ValueError:
            params[key] = math.nan
        if not math.isfinite(params[key]):
            raise G2InvError(f"--param {key!r} must be a finite float "
                             f"given as k=v, got {item!r}")
    m = metrics.catalog(args.name, params)
    doc = m.to_document()
    if args.emit:
        _write(args.emit, dumps(doc) + "\n")
    else:
        _emit(args, doc)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared, so no
    caller changes it; it names each subcommand, and run finds its cmd_*
    function by that name when it runs."""
    ap = argparse.ArgumentParser(
        prog="g2inv",
        description="Differential invariants and equivalence of 4D "
                    "metrics with two commuting Killing vectors")
    sub = ap.add_subparsers(dest="cmd", required=True)
    grid = _within(int, high=math.isqrt(MAX_POINTS) + 1)  # n * n points

    def common(p, method=True):
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")
        p.add_argument("--out", help="write the report to a file")
        if method:
            p.add_argument("--method", choices=("analytic", "fd"),
                           default="analytic",
                           help="jet engine: analytic or finite differences")

    p = sub.add_parser("invariants", help="invariants at a point")
    p.add_argument("metric")
    p.add_argument("--at", type=_parse_point, required=True)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    common(p)

    p = sub.add_parser("grid", help="invariants over a grid")
    p.add_argument("metric")
    p.add_argument("--t1", type=_parse_range, required=True,
                   metavar="a:b:n")
    p.add_argument("--t2", type=_parse_range, required=True,
                   metavar="a:b:n")
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--csv", action="store_true")
    common(p)

    lam = dict(dest="lam", type=_within(float, -math.inf), default=0.0,
               help="the cosmological constant (0); a negative one is "
                    "given with =, as in --lambda=-1e3")
    p = sub.add_parser("check-einstein", help="Lambda-vacuum residuals")
    p.add_argument("metric")
    p.add_argument("--lambda", **lam)
    p.add_argument("--points", default="grid",
                   help='"t1,t2;t1,t2;..." or "grid"')
    p.add_argument("--grid", type=grid, default=4)
    p.add_argument("--tol", type=_within(float), default=1e-8)
    common(p)

    p = sub.add_parser("check-relations", help="functional relation suites")
    p.add_argument("metric")
    p.add_argument("--first", action="store_true")
    p.add_argument("--second", action="store_true")
    p.add_argument("--onshell", action="store_true")
    p.add_argument("--lambda", **lam)
    p.add_argument("--points", default="grid")
    p.add_argument("--grid", type=grid, default=4)
    p.add_argument("--tol", type=_within(float), default=1e-7)
    common(p)

    p = sub.add_parser("rank", help="numerical independence ranks")
    p.add_argument("metric", nargs="?")
    p.add_argument("--random", type=int, metavar="SEED")
    p.add_argument("--at", type=_parse_point)
    p.add_argument("--set", required=True, choices=invariants1.RANK_SETS)
    p.add_argument("--eps", type=_within(float, high=1.0), default=1e-6)
    common(p, method=False)

    p = sub.add_parser("transform", help="pushforward and invariance")
    p.add_argument("metric")
    p.add_argument("transform")
    p.add_argument("--report-invariance", action="store_true")
    p.add_argument("--points", default="grid")
    p.add_argument("--grid", type=grid, default=3)
    p.add_argument("--tol", type=_within(float), default=1e-7)
    common(p, method=False)

    p = sub.add_parser("equiv", help="signature comparison of two metrics")
    p.add_argument("metric_a")
    p.add_argument("metric_b")
    p.add_argument("--grid", type=grid, default=12)
    p.add_argument("--tol", type=_within(float), default=1e-4)
    p.add_argument("--rect-a", type=_parse_rect, metavar="a:b,c:d",
                   help="sampling rectangle for metric A")
    p.add_argument("--rect-b", type=_parse_rect, metavar="a:b,c:d",
                   help="sampling rectangle for metric B")
    common(p, method=False)

    p = sub.add_parser("catalog", help="built-in solution catalog")
    p.add_argument("name", nargs="?")
    p.add_argument("--param", action="append", metavar="k=v")
    p.add_argument("--emit", metavar="FILE")
    common(p, method=False)
    return ap


def run(argv):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return globals()["cmd_" + args.cmd.replace("-", "_")](args)
    except (G2InvError, OSError, argparse.ArgumentTypeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
