"""Known-answer checks for one op, independent references and drift.

An op fails when it raises out of ``cli.run``, when its exit code,
verdict, rank or ``pass`` flag differs from its known answer, when a
``--json`` report is not strict JSON, or when a number violates an
independent reference.  Each failure is a ``(code, detail)`` pair.
"""

from __future__ import annotations

import csv
import io
import json
import math

VERDICT_EXIT = {"Consistent": 0, "Inconsistent": 1, "Inconclusive": 3}

# Failures the seed program is known to produce: code -> (largest share
# of a run's attempted ops that may fail with it, what goes wrong).  They
# are counted in ``failed`` like any other failure, but do not make the
# run incorrect while each stays within its share (and a run may always
# hold one).  The codes are narrow: a rank more than RANK_DEFICIT_MAX
# below the generic one, or an fd error above FD_TRUNCATION_MAX or on a
# first-order value, gets a code of its own that is no known defect.
KNOWN_DEFECTS = {
    "image_inconsistent:random_analytic": (
        1.0,
        "compare_metrics returns a false Inconsistent for a random_analytic "
        "metric against its own affine image, while pointwise invariance "
        "holds"),
    "pass_as_string": (
        1.0,
        "cli.dumps writes a pass flag computed from numpy floats (as in "
        "check-relations --first --method fd) as the string \"True\" or "
        "\"False\" instead of a JSON boolean"),
    "rank_below_generic": (
        0.05,
        "rank --random s --set order2_20 reports 19 or 18 for some probes "
        "(about 2 in 100): they lie near a degenerate point, and the "
        "smallest scaled singular value (1e-11 to 6e-7 of the largest seen) "
        "falls below the eps = 1e-6 cut of jacobian_rank"),
    "fd_truncation": (
        0.5,
        "at its step h = 1e-2 the finite-difference oracle's truncation "
        "error on second-order invariants exceeds FD_TOL: up to 2.1e-5 on "
        "lambda_kundu_c0 and 1.05e-6 on vdb near the domain edge, falling "
        "as h^4"),
}

CLOSED_FORM_TOL = {"analytic": 1e-9, "fd": 1e-6}
# fd reports against the analytic report of the same argv
FD_TOL = 1e-6
# the largest fd error on a second-order invariant that counts as the
# known fd_truncation defect, about five times the largest seen
FD_TRUNCATION_MAX = 1e-4
# a rank op at most this far below the generic rank failed with the known
# rank_below_generic defect; near-degenerate probes lose one or two
# directions, a lost invariant or a broken Jacobian would lose more
RANK_DEFICIT_MAX = 2
SECOND_ORDER_KEYS = ("second_order", "X_", "Xperp_", "C_ric", "Q_ric", "C_nu",
                     "Q_nu", "K_Xi", "J1", "J2")
DRIFT_TOL = 1e-13


def vdb_closed_forms(t1, t2):
    """The paper's closed forms of the six vdb fundamentals."""
    c6 = math.cosh(math.sqrt(6) * t1)
    s6 = math.sinh(math.sqrt(6) * t1)
    s2, c2 = math.sinh(t2), math.cosh(t2)
    return {
        "C_rho": -4 * c2 ** 2 / (c6 * s2 ** 6),
        "C_chi": -6 * (s6 ** 2 - 1) / (c6 ** 3 * s2 ** 4),
        "Q_chi": 6 * s6 ** 2 * (-6 * s2 ** 2 + c2 ** 2 * c6 ** 2)
                 / (c6 ** 6 * s2 ** 10),
        "Q_gamma": -36 * s6 ** 2 / (c6 ** 6 * s2 ** 8),
        "ell_C": 2 / (c6 * s2 ** 4),
        "Theta_I_sq": 144 * s6 ** 2 / (s2 ** 16 * c6 ** 8),
    }


def rel_err(a, b):
    """|a - b| relative to the larger magnitude, with floor 1."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(1.0, abs(a), abs(b))


def worst_of(errors):
    """Largest error; NaN wins, so it can never pass a ``<=`` test."""
    worst = 0.0
    for e in errors:
        if not e <= worst:
            worst = e
            if math.isnan(e):
                break
    return worst


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_output(kind, text):
    """Parsed report: a dict for --json reports, a list of row dicts for
    grid CSV.  Raises ValueError when the text does not parse."""
    if kind == "grid":
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            raise ValueError("empty CSV")
        return [{k: float(v) for k, v in row.items()} for row in rows]
    return json.loads(text, parse_constant=_reject_constant)


def leaves(obj, path=()):
    """(keys on the way, number) for every number of a parsed report, in
    document order."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from leaves(v, path + (k,))
    elif isinstance(obj, list):
        for v in obj:
            yield from leaves(v, path)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, float(obj)


def numbers(obj):
    """Every number of a parsed report, in document order."""
    return (value for _, value in leaves(obj))


def _closed_form_failures(op, report):
    tol = CLOSED_FORM_TOL[op.expect.get("method", "analytic")]
    if op.kind == "grid":
        rows = [(r["t1"], r["t2"], r) for r in report]
    else:
        rows = [(*report["point"], report["fundamentals"])]
    worst = worst_of(rel_err(values[key], want)
                     for t1, t2, values in rows
                     for key, want in vdb_closed_forms(t1, t2).items())
    if not worst <= tol:
        return [("vdb_closed_form", f"max rel error {worst:.3g} > {tol:g}")]
    return []


def check(op, code, stdout, error=None):
    """Failures of one op against its known answer."""
    if error is not None:
        return [("raised", error)]
    failures = []
    expect = op.expect
    try:
        report = parse_output(op.kind, stdout)
    except (ValueError, KeyError) as err:
        return [("unparsable", f"exit {code}: {err}")]
    if op.kind == "equiv":
        verdict = report.get("verdict")
        if VERDICT_EXIT.get(verdict) != code:
            failures.append(("exit", f"verdict {verdict} with exit {code}"))
        if expect["image"] and verdict == "Inconsistent":
            failures.append((f"image_inconsistent:{expect['metric']}",
                             report.get("note", "")))
        if not expect["image"] and verdict == "Consistent":
            failures.append(("inequivalent_consistent", ""))
        return failures
    if op.kind == "rank":
        # rank exits 1 exactly when the rank is not the generic one
        want = int(report.get("rank") != expect["rank"])
    else:
        want = expect["exit"]
    if code != want:
        failures.append(("exit", f"exit {code}, expected {want}"))
    if "pass" in expect:
        flag = report.get("pass")
        if isinstance(flag, str):
            failures.append(("pass_as_string",
                             f"pass flag is the JSON string {flag!r}"))
            flag = {"True": True, "False": False}.get(flag)
        if flag is not expect["pass"]:
            failures.append(("pass", f"pass {flag}, "
                                     f"expected {expect['pass']}"))
    if "rank" in expect and report.get("rank") != expect["rank"]:
        rank = report.get("rank")
        near = (isinstance(rank, int) and not isinstance(rank, bool)
                and 0 < expect["rank"] - rank <= RANK_DEFICIT_MAX)
        failures.append(("rank_below_generic" if near else "rank",
                         f"rank {rank}, expected {expect['rank']}"))
    if op.kind == "grid":
        n1, n2 = (int(a.split(":")[2]) for a in op.argv[2:4])
        if len(report) != n1 * n2:
            failures.append(("rows", f"{len(report)} rows, "
                                     f"expected {n1 * n2}"))
    if expect.get("metric") == "vdb" and op.kind in ("grid", "invariants"):
        failures.extend(_closed_form_failures(op, report))
    return failures


def max_rel_diff(got, want):
    """Largest relative difference (floor 1) between the numbers of two
    reports; infinite when they hold different counts of numbers."""
    a, b = list(numbers(got)), list(numbers(want))
    if len(a) != len(b):
        return math.inf
    return worst_of(rel_err(x, y) for x, y in zip(a, b))


def fd_failures(fd_report, analytic_report):
    """fd rows must match the analytic rows at the same points within
    FD_TOL; second-order invariants up to FD_TRUNCATION_MAX off fail as
    the known fd_truncation defect."""
    got, want = list(leaves(fd_report)), list(leaves(analytic_report))
    if [p for p, _ in got] != [p for p, _ in want]:
        return [("fd_vs_analytic", "reports differ in shape")]
    worst = {False: (0.0, ""), True: (0.0, "")}
    for (path, a), (_, b) in zip(got, want):
        second = any(str(k).startswith(SECOND_ORDER_KEYS) for k in path)
        err = rel_err(a, b)
        if not err <= worst[second][0]:
            worst[second] = (err, ".".join(map(str, path)))
            if math.isnan(err):
                break
    failures = []
    for second, (err, where) in worst.items():
        if not err <= FD_TOL:
            known = second and err <= FD_TRUNCATION_MAX
            failures.append(("fd_truncation" if known else "fd_vs_analytic",
                             f"{where}: rel error {err:.3g} > {FD_TOL:g}"))
    return failures


def unexpected_failures(found, attempted):
    """Why a run with these failures (one list of (code, detail) per
    failed op) is incorrect; empty when every failure is a known defect
    within its share of the ``attempted`` ops."""
    counts = {}
    for codes in found:
        for code in {code for code, _ in codes}:
            counts[code] = counts.get(code, 0) + 1
    reasons = []
    for code, n in sorted(counts.items()):
        if code not in KNOWN_DEFECTS:
            reasons.append(f"{n} ops failed with {code}, no known defect")
            continue
        allowed = max(1, int(KNOWN_DEFECTS[code][0] * attempted))
        if n > allowed:
            reasons.append(f"{n} ops failed with the known defect {code}, "
                           f"more than {allowed} of {attempted}")
    return reasons
