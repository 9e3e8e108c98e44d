"""One fresh benchmark process: set up the inputs, then run the ops.

Started by ``run.py``; prints one JSON object as its last stdout line.
Untraced, it times the ops and checks them against their known answers.
With ``--trace 1`` it runs the first ``--ops`` ops under the layer
tracer and compares the seed-1 outputs with the stored ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from g2inv import cli  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected_seed1.json")
DRIFT_SEED = 1
# a drift of a report whose numbers do not line up, or are NaN on one side
DRIFT_MISMATCH = 2.0


class Result(NamedTuple):
    elapsed: float      # wall seconds, less the speed probe's own time
    start: float        # time.monotonic() at the start and the end
    end: float
    code: int | None
    stdout: str
    error: str | None


def run_op(argv):
    """Run one cli.run call with its output captured; (wall seconds,
    exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error


def run_ops(ops, tracer=None, probe=None, budget=float("inf")):
    """Run the ops in order; start no new op once ``budget`` wall seconds
    of ops have run, so a much slower program still ends within the
    run's time limit."""
    results, spent = [], 0.0
    for i, op in enumerate(ops):
        if spent > budget:
            break
        if tracer is not None:
            tracer.op = i
        busy = probe.busy if probe is not None else 0.0
        start = time.monotonic()
        elapsed, code, stdout, error = run_op(op.argv)
        end = time.monotonic()
        if probe is not None:
            elapsed -= probe.busy - busy
        results.append(Result(elapsed, start, end, code, stdout, error))
        spent += elapsed
    return results


def check_ops(ops, results):
    """Failures per op; fd ops are also compared with the analytic path."""
    failures = []
    for op, r in zip(ops, results):
        found = checks.check(op, r.code, r.stdout, r.error)
        if not found and op.expect.get("method") == "fd":
            argv = [a for a in op.argv if a not in ("--method", "fd")]
            _, _, reference, ref_error = run_op(argv)
            try:
                found = checks.fd_failures(
                    checks.parse_output(op.kind, r.stdout),
                    checks.parse_output(op.kind, reference))
            except (ValueError, KeyError) as err:
                found = [("fd_reference", ref_error or str(err))]
        failures.append(found)
    return failures


def op_key(op):
    return [os.path.basename(a) if os.sep in a else a for a in op.argv]


def op_numbers(op, stdout):
    try:
        return list(checks.numbers(checks.parse_output(op.kind, stdout)))
    except (ValueError, KeyError):
        return None


def drift_ops(workload, directory):
    """The first round of the default seed, for comparison with the
    outputs stored from the seed program."""
    ops = workloads.generate(workload, DRIFT_SEED, 1, directory)
    return ops, run_ops(ops)


def drift(workload, directory):
    with open(EXPECTED, encoding="utf-8") as fh:
        stored = json.load(fh)[workload]
    ops, results = drift_ops(workload, directory)
    # ops added or removed since the outputs were stored count as drifted
    drifted = abs(len(ops) - len(stored))
    worst = DRIFT_MISMATCH if drifted else 0.0
    for op, r, (key, want) in zip(ops, results, stored):
        got = op_numbers(op, r.stdout)
        err = DRIFT_MISMATCH
        if key == op_key(op) and got is not None and want is not None:
            err = checks.max_rel_diff(got, want)
            if not err <= DRIFT_MISMATCH:  # counts differ, or NaN
                err = DRIFT_MISMATCH
        drifted += err > checks.DRIFT_TOL
        worst = max(worst, err)
    return {"check.drift_ops": (drifted, "count"),
            "check.max_rel_drift": (worst, "1")}


def record_expected(directory):
    stored = {}
    for workload in workloads.WORKLOADS:
        ops, results = drift_ops(workload, os.path.join(directory, workload))
        stored[workload] = [[op_key(op), op_numbers(op, r.stdout)]
                            for op, r in zip(ops, results)]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, separators=(",", ":"))
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DRIFT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--budget", type=float, default=100,
                    help="start no op after this many wall seconds of ops")
    ap.add_argument("--ops", type=int, help="traced: run the first OPS ops")
    ap.add_argument("--spans", help="traced: write the spans to this file")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()
    if args.record_expected:
        record_expected(args.dir)
        return
    rounds = workloads.rounds_for(args.workload, args.seconds)
    inputs = os.path.join(args.dir, "inputs")
    if args.trace:
        from tracing import Tracer

        with speed.Probe() as probe:
            # the tracer's clock leaves out the probe's own time
            tracer = Tracer(clock=lambda: time.perf_counter() - probe.busy)
            tracer.install()
            try:
                # the set-up is traced too (op -1), so that expr.parse.s
                # and transform.apply_to_metric.s hold the work that
                # setup_s times
                ops = workloads.generate(args.workload, args.seed, rounds,
                                         inputs)
                results = run_ops(ops[:args.ops], tracer, probe)
            finally:
                tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        layer = tracer.metrics()
        layer.update(drift(args.workload, os.path.join(args.dir, "drift")))
        report = {"scaled": [probe.scaled(r.elapsed, r.start, r.end)
                             for r in results],
                  "per_layer": layer}
    else:
        ops = workloads.generate(args.workload, args.seed, rounds, inputs)
        with speed.Probe() as probe:
            results = run_ops(ops, probe=probe, budget=args.budget)
        ops = ops[:len(results)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report = {"rounds": rounds,
                  "seconds": [r.elapsed for r in results],
                  "scaled": [probe.scaled(r.elapsed, r.start, r.end)
                             for r in results],
                  "loop_median_s": statistics.median(probe.loops),
                  "failures": [[op.kind, op_key(op), f] for op, f
                               in zip(ops, check_ops(ops, results)) if f],
                  "peak_rss_mb": peak_rss_mb}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
