"""One fresh set-up process: write a run's inputs, timed from inside.

    python3 perfbench/setup_process.py --workload W --seed N --seconds S --dir D

The speed probe starts before the program and the generator are
imported, so the loop times it records cover the whole set-up but the
interpreter's own start.  Prints one JSON object: the probe's mean loop
time and its own time, for ``run.py`` to put the set-up at the
reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import speed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    with speed.Probe() as probe:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        sys.path.insert(0, os.path.join(root, "src"))
        import workloads

        workloads.generate(args.workload, args.seed,
                           workloads.rounds_for(args.workload, args.seconds),
                           args.dir)
        # a loop time at the very end, so that no set-up goes unsampled
        probe.tick()
    print(json.dumps({"loop_mean_s": statistics.fmean(probe.loops),
                      "probe_s": probe.busy}))


if __name__ == "__main__":
    main()
