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
only where the 4D curvature reads F through its curl alone.  Next comes
``check-einstein VDB --points=V``: VDB is vdb under psi^1 = 1e8 (t1 +
t2), built as GAUGE is, and V three points of its domain.  vdb is not
vacuum, and fails that check in every psi gauge only where the Einstein
residual and its scale read no F.  Then
``equiv SHIFT SEED3 --grid 6`` and ``transform SHIFT TRANSFORM
--report-invariance --points=Q``: SEED3 is random_analytic seed 3, SHIFT
the same document under the z-shift psi^1 = (s/2)(t1^2 + t2^2) at s =
1e12 (s*t1 added to F11 and s*t2 to F21), TRANSFORM random_transform(3)
and Q three points of its domain.  equiv finds SHIFT Consistent with
SEED3, and the invariance report passes, only where the stratum test and
the pushforward read F through its curl alone.  Last come the error
paths (``ERROR_CALLS``): submersion metrics (``ERROR_METRICS``) whose
reports overflow, underflow or subtract inf from inf, and a transform
whose alpha^-1 squares past the float range (``TINY_ALPHA``), each
written into the directory and run by the calls that meet that error
there, so a changed error line or a numpy warning shows in the record.
``subproc`` runs each op as ``python -m g2inv`` in its own process (a
fresh warnings registry per op, as a shell sees it); ``inproc`` runs
them through ``g2inv.cli.run`` in this process, which is much faster;
there an exception that escapes ``run`` is recorded as exit code 1 and
the last line of its traceback.
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
# the gauge cases: lambda_kundu under psi^1 = 1e4 (t1 + t2) and vdb
# under psi^1 = 1e8 (t1 + t2), each checked at three points of its
# domain, and random_analytic seed 3 under psi^1 = (s/2)(t1^2 + t2^2) at
# s = 1e12, at three points of its domain
GAUGE_PSI = "10000.0*(t1 + t2)"
GAUGE_ARGS = ("--lambda", "3", "--points=0.7,-0.2;0.9,0.1;1.2,0.3")
VDB_GAUGE_PSI = "100000000.0*(t1 + t2)"
VDB_GAUGE_POINTS = "--points=0.6,1.1;0.8,0.9;1.0,1.3"
SHIFT = 1e12
SHIFT_POINTS = "--points=0.1,0.2;0.3,0.1;-0.2,0.25"

_FLAT = {"gt11": "1", "gt12": "0", "gt22": "1", "F11": "0", "F12": "0",
         "F21": "0", "F22": "0", "h11": "1", "h12": "0", "h22": "1"}
_TILTED = {"gt11": "1 + t1^2", "gt12": "0.1*t2", "gt22": "2 + t2",
           "F11": "t2", "F12": "t1*t2", "F21": "sin(t1)", "F22": "t1",
           "h11": "exp(t1)", "h12": "0.2*t1*t2", "h22": "-1 - t2^2"}
# the error paths: Theta_III^2 overflows the first-order suite; ell_C^2
# underflows to the 0 that suite divides by; inf - inf in a Jacobian
# column of rank; a product of the fd stencil's values overflows; the
# Riemann contraction subtracts inf from inf (riemann4-invalid) or
# overflows (riemann-overflow)
ERROR_METRICS = {
    "suite-overflow": {
        "gt11": "t2*exp(-150*t1)", "gt12": "0", "gt22": "1",
        "F11": "exp(150*t1)", "F12": "t2", "F21": "1", "F22": "exp(150*t1)",
        "h11": "1+t2^2", "h12": "exp(60*t1)", "h22": "-1"},
    "suite-underflow": {**_TILTED, "gt11": "1 + t1^2 + 1e100*t2",
                        "gt22": "(1e160)*t1*t1", "F12": "exp(-300*t1)"},
    "rank-nan": {**_TILTED, "F12": "(t1*t2)*exp(120*t1)*t2",
                 "F21": "(1e154)*t1*t1"},
    "fd-overflow": {**_FLAT, "h11": "exp(400*t1)*exp(400*t1)"},
    "riemann4-invalid": {**_TILTED, "F11": "(t2)*exp(-120*t1)",
                         "h11": "1e155*t2", "h12": "0.2*t1*t2 + 1e-200*t1"},
    "riemann-overflow": {
        "gt11": "1+t2^2", "gt12": "0", "gt22": "1", "F11": "1+t2^2",
        "F12": "exp(120*t1)*t2", "F21": "1", "F22": "1",
        "h11": "1+t2^2", "h12": "exp(120*t1)", "h22": "-1"},
}
TINY_ALPHA = {"phi1": "t1", "phi2": "t2", "psi1": "0", "psi2": "0",
              "alpha": [[1e-200, 0], [0, 1]]}
# each argv, @NAME standing for the path of the document NAME.json in
# the directory (vdb's written by its catalog op)
ERROR_CALLS = (
    ("check-relations", "@suite-overflow", "--first", "--second",
     "--points=1.014,0.495", "--json"),
    ("check-relations", "@suite-underflow", "--first", "--points=0.856,0.360"),
    ("check-relations", "@suite-underflow", "--first",
     "--points=0.856,0.360;0.5,0.5"),
    ("rank", "@rank-nan", "--at", "2.246,-0.567", "--set", "order2_20"),
    ("invariants", "@fd-overflow", "--at", "1,0", "--method", "fd"),
    ("check-einstein", "@riemann4-invalid", "--points=0.668,-0.283"),
    ("check-einstein", "@riemann-overflow", "--points=2.077,0.322", "--json"),
    ("check-einstein", "@riemann-overflow",
     "--points=2.077,0.322;0.5,0.3", "--json"),
    ("check-relations", "@riemann-overflow", "--onshell",
     "--points=2.077,0.322"),
    ("transform", "@vdb", "@tiny-alpha", "--points=0.5,1.0"),
    ("transform", "@vdb", "@tiny-alpha", "--report-invariance",
     "--points=0.5,1.0"),
)


def _param_argv(name, *items):
    return ["catalog", name, *(a for kv in items for a in ("--param", kv))]


def _gauge_files(directory):
    """Write the gauge cases' documents into directory, built by
    CHECKOUT's g2inv: lambda_kundu under the z-shift GAUGE_PSI and vdb
    under VDB_GAUGE_PSI, as apply_to_metric builds them, random_analytic
    seed 3, the same under the z-shift of scale SHIFT, and
    random_transform(3); their paths."""
    from g2inv import metrics, transform

    def image(name, psi):
        return transform.apply_to_metric(
            metrics.catalog(name), transform.make_transform(
                "t1", "t2", psi, "0", [[1.0, 0.0], [0.0, 1.0]])
        ).to_document()
    seed3 = metrics.catalog("random_analytic", {"seed": 3})
    seed3, shifted = seed3.to_document(), seed3.to_document()
    shifted["components"]["F11"] += f" + {SHIFT!r}*t1"
    shifted["components"]["F21"] += f" + {SHIFT!r}*t2"
    docs = {"kundu": ("lambda_kundu-gauge", image("lambda_kundu", GAUGE_PSI)),
            "vdb": ("vdb-gauge", image("vdb", VDB_GAUGE_PSI)),
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


def _error_argvs(directory):
    """Write the error paths' documents into directory; the argv of each
    of ERROR_CALLS there."""
    docs = {name: {"name": name, "form": "submersion", "params": {},
                   "components": components}
            for name, components in ERROR_METRICS.items()}
    for name, doc in {**docs, "tiny-alpha": TINY_ALPHA}.items():
        with open(os.path.join(directory, f"{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh)
    return [[os.path.join(directory, f"{a[1:]}.json") if a[0] == "@" else a
             for a in call] for call in ERROR_CALLS]


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
               ["check-einstein", gauge["vdb"], VDB_GAUGE_POINTS],
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
            try:
                code = cli.run(argv)
            except Exception as exc:  # noqa: BLE001  (as python -m exits)
                code = 1
                err.write(f"{type(exc).__name__}: {exc}\n")
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
                         + _error_argvs(directory)
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
