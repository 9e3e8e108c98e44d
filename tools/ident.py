"""Byte-identity record of every benchmark op, for comparing two checkouts.

    python3 tools/ident.py CHECKOUT subproc|inproc SEEDS [WORKLOAD ...]

SEEDS is a comma-separated list, e.g. ``1,5``; the workloads default to
all four of ``perfbench/workloads.py`` and then the fixed pseudo-workload
``rank``.  For each workload and seed the script writes the inputs of
``generate(w, s, rounds_for(w, 20), dir)`` with CHECKOUT's
``perfbench/workloads.py`` and ``src/g2inv`` into a fresh temporary
directory, runs every op against CHECKOUT's program and prints one JSON
line per op,

    ["op", workload, seed, argv, exit code, stdout, stderr]

with the directory written as DIR, then one line per file left in the
directory, ``["file", workload, seed, name, sha256]``.  ``rank`` covers
code no benchmark op runs; it takes no seed (its seed field is null)
and runs once: ``catalog NAME --emit`` of every catalog metric,
``catalog NAME --param k=v --emit`` of one override of each
parameterised family (``CATALOG_PARAMS``), two malformed ``catalog
--param`` calls (``CATALOG_MALFORMED``, recorded by exit code and
stderr), then ``rank --random S --set X`` for S = 0..9 and ``rank FILE
--set X`` for the file of every catalog metric at its defaults, each for
all three invariant sets X, then ``check-einstein FILE --points=C`` and
``check-relations FILE --first --second --onshell --points=C`` for each
of those files, C the centre of the metric's domain: the 4D curvature at
a single point, which no benchmark op builds (each passes its points as
one batch).  Last come ``check-einstein GAUGE --lambda 3 --points=P``
and ``check-relations GAUGE --onshell --lambda 3 --points=P``: GAUGE is
lambda_kundu under the z-shift psi^1 = 1e4 (t1 + t2), CHECKOUT's
``apply_to_metric`` image written into the directory, and P three points
of its domain.  A Lambda-vacuum metric in a large psi gauge passes both
only where the 4D curvature reads F through its curl alone.  Then
``equiv SHIFT SEED3 --grid 6`` and ``transform SHIFT TRANSFORM
--report-invariance --points=Q``: SEED3 is random_analytic seed 3, SHIFT
the same document under the z-shift psi^1 = (s/2)(t1^2 + t2^2) at s =
1e12 (s*t1 added to F11 and s*t2 to F21), TRANSFORM random_transform(3)
and Q three points of its domain.  equiv finds SHIFT Consistent with
SEED3, and the invariance report passes, only where the stratum test and
the pushforward read F through its curl alone.
``subproc`` runs each op as ``python -m g2inv`` in its own process (a
fresh warnings registry per op, as a shell sees it); ``inproc`` runs
them through ``g2inv.cli.run`` in this process, which is much faster.
Compare two checkouts with

    python3 tools/ident.py OLD inproc 1,5 > old.jsonl
    python3 tools/ident.py NEW inproc 1,5 > new.jsonl
    cmp old.jsonl new.jsonl || diff old.jsonl new.jsonl

Nothing in CHECKOUT is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

SECONDS = 20
RANK_SETS = ("fundamental6", "fundamental6_transitive", "order2_20")
# the --param overrides of the parameterised catalog families, then two
# malformed --param calls
CATALOG_PARAMS = (("ppwave2", "c=3"), ("ppwave3", "c=0.5"),
                  ("lambda_kundu", "c=2", "Lambda=-1"),
                  ("lambda_kundu_c0", "Lambda=1"),
                  ("random_analytic", "seed=7"))
CATALOG_MALFORMED = (("ppwave2", "c"), ("random_analytic", "seed=1.5"))
# the gauge cases: lambda_kundu under psi^1 = 1e4 (t1 + t2), checked at
# three points of its domain, and random_analytic seed 3 under psi^1 =
# (s/2)(t1^2 + t2^2) at s = 1e12, at three points of its domain
GAUGE_PSI = "10000.0*(t1 + t2)"
GAUGE_ARGS = ("--lambda", "3", "--points=0.7,-0.2;0.9,0.1;1.2,0.3")
SHIFT = 1e12
SHIFT_POINTS = "--points=0.1,0.2;0.3,0.1;-0.2,0.25"


def _param_argv(name, *items):
    return ["catalog", name, *(a for kv in items for a in ("--param", kv))]


def _gauge_files(directory):
    """Write the gauge cases' documents into directory, built by
    CHECKOUT's g2inv: lambda_kundu under the z-shift GAUGE_PSI, as
    apply_to_metric builds it, random_analytic seed 3, the same under
    the z-shift of scale SHIFT, and random_transform(3); their paths."""
    from g2inv import metrics, transform
    image = transform.apply_to_metric(
        metrics.catalog("lambda_kundu"), transform.make_transform(
            "t1", "t2", GAUGE_PSI, "0", [[1.0, 0.0], [0.0, 1.0]]))
    seed3 = metrics.catalog("random_analytic", {"seed": 3})
    seed3, shifted = seed3.to_document(), seed3.to_document()
    shifted["components"]["F11"] += f" + {SHIFT!r}*t1"
    shifted["components"]["F21"] += f" + {SHIFT!r}*t2"
    docs = {"kundu": ("lambda_kundu-gauge", image.to_document()),
            "seed3": ("random_analytic_3", seed3),
            "shift": ("random_analytic_3-shift", shifted),
            "transform": ("random_transform_3",
                          transform.random_transform(3).strings)}
    paths = {}
    for key, (name, doc) in docs.items():
        paths[key] = os.path.join(directory, f"{name}.json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


def _rank_argvs(domains, directory, gauge):
    """The argv of each op of the rank pseudo-workload, for the catalog
    metrics of these domains ({name: ((a, b), (c, d))}) written into
    directory, and the gauge documents at the paths of gauge."""
    names = list(domains)
    files = [os.path.join(directory, f"{name}.json") for name in names]
    centres = [",".join(repr(sum(side) / 2) for side in domains[name])
               for name in names]
    return ([["catalog", name, "--emit", path]
             for name, path in zip(names, files)]
            + [_param_argv(*call) + ["--emit", os.path.join(
                directory, f"{call[0]}-params.json")]
               for call in CATALOG_PARAMS]
            + [_param_argv(*call) for call in CATALOG_MALFORMED]
            + [["rank", "--random", str(seed), "--set", which]
               for which in RANK_SETS for seed in range(10)]
            + [["rank", path, "--set", which]
               for which in RANK_SETS for path in files]
            + [argv for path, centre in zip(files, centres) for argv in (
                ["check-einstein", path, f"--points={centre}"],
                ["check-relations", path, "--first", "--second",
                 "--onshell", f"--points={centre}"])]
            + [["check-einstein", gauge["kundu"], *GAUGE_ARGS],
               ["check-relations", gauge["kundu"], "--onshell", *GAUGE_ARGS],
               ["equiv", gauge["shift"], gauge["seed3"], "--grid", "6"],
               ["transform", gauge["shift"], gauge["transform"],
                "--report-invariance", SHIFT_POINTS]])


def load(checkout):
    """CHECKOUT's ``perfbench/workloads.py`` and ``g2inv.cli``, imported
    from the checkout without writing bytecode into it."""
    sys.path[:0] = [os.path.join(checkout, "src"),
                    os.path.join(checkout, "perfbench")]
    sys.dont_write_bytecode = True  # leave the checkout as it was
    import workloads
    from g2inv import cli
    return workloads, cli


def ops_inproc(cli, argvs):
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        yield code, out.getvalue(), err.getvalue()


def _ops_subproc(src, argvs):
    env = {**os.environ, "PYTHONPATH": src}
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "g2inv", *argv],
                              env=env, capture_output=True, text=True)
        yield done.returncode, done.stdout, done.stderr


def main(argv):
    if len(argv) < 3 or argv[1] not in ("subproc", "inproc"):
        sys.stderr.write(__doc__)
        return 2
    checkout = os.path.abspath(argv[0])
    workloads, cli = load(checkout)
    from g2inv import metrics

    seeds = [int(s) for s in argv[2].split(",")]
    for w in argv[3:] or (*workloads.WORKLOADS, "rank"):
        for seed in [None] if w == "rank" else seeds:
            directory = tempfile.mkdtemp(prefix="ident-")
            try:
                argvs = (_rank_argvs(metrics.CATALOG_DOMAINS, directory,
                                     _gauge_files(directory))
                         if w == "rank" else
                         [op.argv for op in workloads.generate(
                             w, seed, workloads.rounds_for(w, SECONDS),
                             directory)])
                results = (ops_inproc(cli, argvs) if argv[1] == "inproc"
                           else _ops_subproc(os.path.join(checkout, "src"),
                                             argvs))
                for args, (code, out, err) in zip(argvs, results):
                    print(json.dumps(["op", w, seed, [
                        a.replace(directory, "DIR") for a in args],
                        code, out.replace(directory, "DIR"),
                        err.replace(directory, "DIR")]))
                for name in sorted(os.listdir(directory)):
                    with open(os.path.join(directory, name), "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    print(json.dumps(["file", w, seed, name, digest]))
            finally:
                shutil.rmtree(directory)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
