"""The psi-gauge ladder: a metric against itself under the z-shift
psi^1 = (s/2)(t1^2 + t2^2), which adds s*t1 to F11 and s*t2 to F21 and
leaves every invariant unchanged.  Each report that reads only
gauge-free layers must equal the report at s = 0 byte for byte; the rows
that still read the size of the gauge are pinned as they fail, each with
the ROADMAP item that mends it, so that the mend shows here."""

import json
import warnings

import pytest

from g2inv import catalog, metrics, point_jets
from g2inv.cli import run

SCALES = (1e4, 1e5, 1e8, 1e12, 1e40, 1e160)
POINTS = ((0.1, 0.2), (0.3, 0.1), (-0.2, 0.25))
ARGS = "--points=" + ";".join(f"{a},{b}" for a, b in POINTS)
REPORTS = {
    "first": ["check-relations", "--first", ARGS],
    "second": ["check-relations", "--second", ARGS],
    "invariants": ["invariants", "--order", "2", "--at=0.1,0.2"],
    "rank": ["rank", "--set", "order2_20", "--at=0.1,0.2"],
}
# item 5: metrics.classify scales its tolerance by component_scale, which
# reads F, so these scales leave the generic stratum at some point
STRATUM_FLIPS = {0: (1e8, 1e12, 1e40, 1e160), 1: (1e12, 1e40, 1e160),
                 2: (1e12, 1e40, 1e160), 3: (1e12, 1e40, 1e160)}


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


def _reports(capsys, path):
    got = {}
    for key, (command, *args) in REPORTS.items():
        code = run([command, path, *args, "--json"])
        got[key] = (code, *capsys.readouterr())
    return got


@pytest.mark.parametrize("seed", range(4))
def test_gauge_ladder(tmp_path, capsys, seed):
    path, flags = _shifted(tmp_path, seed, 0.0)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = _reports(capsys, path)
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
            if s == 1e40:
                # item 16: the on-shell suite's coordinate curvature has
                # F^2 terms, and the horizontal plane's Gram determinant
                # loses every digit to them
                assert run(["check-relations", path, "--onshell",
                            ARGS]) == 2
                assert capsys.readouterr().err == \
                    "error: degenerate plane for sectional curvature\n"
    assert tuple(flips) == STRATUM_FLIPS[seed]
