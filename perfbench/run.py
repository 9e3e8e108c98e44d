"""g2inv benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One op is one
``g2inv.cli.run(argv)`` call; ops run in a closed loop, one caller in one
fresh process, each op starting when the previous one returned.  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run, which repeats the
untraced ops in a second fresh process.  Times are given at the
reference speed of ``speed.py``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP = os.path.join(HERE, "setup_process.py")
WORKLOADS = ("survey", "relations", "equiv", "fd")
SETUP_REPEATS = 9
TIME_LIMIT_S = 170.0
# wall seconds of untraced ops after which a worker starts no new op: a
# traced run also repeats its ops under the tracer (about 1.3 times as
# slow), and every run must end within TIME_LIMIT_S
OPS_BUDGET_S = {0: 100.0, 1: 40.0}

sys.path.insert(0, HERE)
import checks  # noqa: E402
import speed  # noqa: E402


def tail(seconds):
    """(value, percentile): the highest percentile with ten ops beyond it
    (the fastest op when a run has fewer than eleven)."""
    ordered = sorted(seconds)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "seed": seed}


def child(script, args, directory, deadline, *extra):
    """Run one fresh benchmark process; (wall seconds, the JSON object
    of its last stdout line)."""
    cmd = [sys.executable, script, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--dir", directory, *extra]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{os.path.basename(script)} failed with exit "
                         f"{proc.returncode}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(args, directory, deadline):
    """Set-up time of one fresh process at the reference speed of the
    loop times it took while setting up."""
    elapsed, probe = child(SETUP, args, directory, deadline)
    return ((elapsed - probe["probe_s"]) * speed.REFERENCE_S
            / probe["loop_mean_s"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "g2inv", "__init__.py")):
        sys.stderr.write("error: run from a g2inv source checkout "
                         "(src/g2inv is missing)\n")
        return 2
    work = os.path.join(HERE, "_work", str(os.getpid()))
    out = os.path.join(HERE, "_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(out, f"{tag}.spans.csv")
    try:
        _, report = child(WORKER, args, os.path.join(work, "run"), deadline,
                          "--budget", str(OPS_BUDGET_S[args.trace]))
        if args.trace:
            _, traced = child(WORKER, args, os.path.join(work, "traced"),
                              deadline, "--trace", "1", "--ops",
                              str(len(report["seconds"])), "--spans", spans)
        else:
            setups = [setup_seconds(args, os.path.join(work, f"setup{i}"),
                                    deadline)
                      for i in range(SETUP_REPEATS)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    seconds, scaled = report["seconds"], report["scaled"]
    attempted, failed = len(seconds), len(report["failures"])
    unexpected = checks.unexpected_failures(
        [found for _, _, found in report["failures"]], attempted)
    env = environment(args.seed)
    print(f"workload {args.workload}: {attempted} ops in {report['rounds']} "
          f"rounds, closed loop, 1 caller; env {json.dumps(env)}")
    for kind, key, found in report["failures"]:
        print(f"failed op {kind} {' '.join(key)}: "
              + "; ".join(f"{c} {d}".strip() for c, d in found))
    print(f"error_rate {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} ops failed)")
    print(f"wall {sum(seconds):.6g} s measured, {sum(scaled):.6g} s at the "
          f"reference speed (reference loop median "
          f"{report['loop_median_s'] * 1e3:.3g} ms)")
    if args.trace:
        metrics = {k: tuple(v) for k, v in traced["per_layer"].items()}
        metrics["trace.overhead_frac"] = (
            sum(traced["scaled"]) / sum(scaled) - 1, "1")
    else:
        value, pct = tail(scaled)
        metrics = {
            "wall_s": (sum(scaled), "s"),
            "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "op_tail_ms": (value * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
        print(f"op_tail_ms is p{pct:.1f} of {attempted} ops")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for reason in unexpected:
        print(f"incorrect: {reason}")
    with open(os.path.join(out, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "report": report,
                   "setups": None if args.trace else setups,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh)
    print(json.dumps({
        "correct": not unexpected, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
