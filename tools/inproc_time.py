"""In-process time of one benchmark workload's ops, for comparing two
checkouts.

    python3 tools/inproc_time.py CHECKOUT WORKLOAD SEED [REPS]

The script writes the inputs of ``generate(WORKLOAD, SEED,
rounds_for(WORKLOAD, 20), dir)`` with CHECKOUT's
``perfbench/workloads.py`` and ``src/g2inv`` into a fresh temporary
directory, runs every op through CHECKOUT's ``g2inv.cli.run`` in this
process with its output captured, REPS times (3 by default), and prints
one line: the workload, the seed, the number of ops and the seconds of
the fastest of the REPS runs over all of them,

    relations seed 1: 112 ops in 0.1834 s, best of 3

Run it on two checkouts in turn, and more than once, to compare them.
Nothing in CHECKOUT is written.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # leave no tools/__pycache__ behind
import ident  # noqa: E402


def main(argv):
    if len(argv) not in (3, 4):
        sys.stderr.write(__doc__)
        return 2
    workload, seed = argv[1], int(argv[2])
    reps = int(argv[3]) if len(argv) == 4 else 3
    workloads, cli = ident.load(os.path.abspath(argv[0]))
    directory = tempfile.mkdtemp(prefix="inproc-time-")
    try:
        argvs = [op.argv for op in workloads.generate(
            workload, seed, workloads.rounds_for(workload, ident.SECONDS),
            directory)]
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            for _ in ident.ops_inproc(cli, argvs):
                pass
            times.append(time.perf_counter() - start)
    finally:
        shutil.rmtree(directory)
    print(f"{workload} seed {seed}: {len(argvs)} ops in {min(times):.4f} s, "
          f"best of {reps}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
