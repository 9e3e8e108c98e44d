"""The psi-gauge ladder: a metric against itself under a z-shift, which
adds D psi to F and leaves every invariant unchanged.  random_analytic
takes psi^1 = (s/2)(t1^2 + t2^2), which adds s*t1 to F11 and s*t2 to
F21; lambda_kundu takes psi^1 = s(t1 + t2), an apply_to_metric image.
Each report that reads only gauge-free layers must equal the report at
s = 0 byte for byte; the rows that still read the size of the gauge are
pinned as they fail, each with the ROADMAP item that mends it, so that
the mend shows here."""

import json
import warnings

import pytest

from g2inv import catalog, metrics, point_jets
from g2inv.cli import run
from g2inv.transform import apply_to_metric, make_transform

SCALES = (1e4, 1e5, 1e8, 1e12, 1e40, 1e80, 1e160)
POINTS = ((0.1, 0.2), (0.3, 0.1), (-0.2, 0.25))
ARGS = "--points=" + ";".join(f"{a},{b}" for a, b in POINTS)
REPORTS = {
    "first": ["check-relations", "--first", ARGS],
    "second": ["check-relations", "--second", ARGS],
    "invariants": ["invariants", "--order", "2", "--at=0.1,0.2"],
    "rank": ["rank", "--set", "order2_20", "--at=0.1,0.2"],
}
ONSHELL = ["check-relations", "--onshell", ARGS]
# item 5: metrics.classify scales its tolerance by component_scale, which
# reads F, so these scales leave the generic stratum at some point
STRATUM_FLIPS = {0: (1e8, 1e12, 1e40, 1e80, 1e160),
                 1: (1e12, 1e40, 1e80, 1e160),
                 2: (1e12, 1e40, 1e80, 1e160),
                 3: (1e12, 1e40, 1e80, 1e160)}


def _shifted(tmp_path, seed, s):
    doc = catalog("random_analytic", {"seed": seed}).to_document()
    if s:
        doc["components"]["F11"] += f" + {s!r}*t1"
        doc["components"]["F21"] += f" + {s!r}*t2"
    path = tmp_path / f"seed{seed}_{s!r}.json"
    path.write_text(json.dumps(doc))
    m = metrics.load_metric(doc)
    return str(path), [metrics.classify(point_jets(m, pt, order=1))
                       for pt in POINTS]


def _run(capsys, path, command, *args):
    code = run([command, path, *args, "--json"])
    return (code, *capsys.readouterr())


def _reports(capsys, path):
    return {key: _run(capsys, path, *argv) for key, argv in REPORTS.items()}


def _onshell_rows(report):
    """The on-shell suite's report without the Einstein residual, which
    reads the coordinate 4-metric, and so its F^2."""
    onshell = json.loads(report)["onshell"]
    for row in onshell["points"]:
        del row["einstein_normalized"]
    return onshell


@pytest.mark.parametrize("seed", range(4))
def test_gauge_ladder(tmp_path, capsys, seed):
    path, flags = _shifted(tmp_path, seed, 0.0)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = _reports(capsys, path)
        onshell = _run(capsys, path, *ONSHELL)
        flips = []
        for s in SCALES:
            path, flags_s = _shifted(tmp_path, seed, s)
            got = _reports(capsys, path)
            # the first-order suite reads gt, h and C alone
            assert got["first"][0] == 0, (s, got["first"])
            if flags_s == flags:
                assert got == base, s
            else:
                flips.append(s)
                assert got["first"] != base["first"], s
            # the on-shell suite reads the curvature of the adapted frame
            # and no stratum flag but the signs, so its rows are s = 0's
            # on either stratum; its Einstein residual reads the
            # coordinate Ricci tensor and 4-metric, whose F^2 overflows
            # at 1e160
            code, out, err = _run(capsys, path, *ONSHELL)
            if s == 1e160:
                assert (code, out) == (2, ""), s
                assert err.startswith(
                    "error: singular evaluation in 'residual' "), err
            else:
                assert (code, err) == onshell[::2], s
                assert _onshell_rows(out) == _onshell_rows(onshell[1]), s
    assert tuple(flips) == STRATUM_FLIPS[seed]


def _kundu_image(tmp_path, s):
    """lambda_kundu under psi^1 = s(t1 + t2), F_i^1 - s for i = 1, 2."""
    image = apply_to_metric(catalog("lambda_kundu"), make_transform(
        "t1", "t2", f"{s!r}*(t1 + t2)", "0", [[1.0, 0.0], [0.0, 1.0]]))
    path = tmp_path / f"kundu_{s!r}.json"
    path.write_text(json.dumps(image.to_document()))
    return str(path)


def test_lambda_kundu_gauge_ladder(tmp_path, capsys):
    # a Lambda-vacuum metric stays one under the gauge: check-einstein
    # and the on-shell suite pass at every s, and the suite's rows are
    # s = 0's but for its Einstein residual
    args = ["--lambda", "3", "--points=0.7,-0.2;0.9,0.1;1.2,0.3"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = _run(capsys, _kundu_image(tmp_path, 0.0), "check-relations",
                    "--onshell", *args)
        for s in (1e2, 1e4, 1e8, 1e12, 1e40, 1e80):
            path = _kundu_image(tmp_path, s)
            code, out, err = _run(capsys, path, "check-einstein", *args)
            assert (code, err) == (0, ""), s
            assert json.loads(out)["max_normalized"] <= 1e-14, s
            code, out, err = _run(capsys, path, "check-relations",
                                  "--onshell", *args)
            assert (code, err) == (0, ""), s
            assert _onshell_rows(out) == _onshell_rows(base[1]), s
