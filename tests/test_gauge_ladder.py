"""The psi-gauge ladder: a metric against itself under a z-shift, which
adds D psi to F and leaves every invariant unchanged.  random_analytic
takes psi^1 = (s/2)(t1^2 + t2^2), which adds s*t1 to F11 and s*t2 to
F21, and psi^2 = (s/2)(t1^2 + t2^2) on z2, which adds them to F12 and
F22; vdb and lambda_kundu take psi^1 = s(t1 + t2), an apply_to_metric
image.  No layer reads F but through its curl, which psi leaves as it
is (d d psi = 0), so each report equals the report at s = 0 byte for
byte, the stratum flags and the Einstein residual included, and equiv
finds each image Consistent with s = 0."""

import json
import warnings

import pytest

from g2inv import catalog, metrics, point_jets
from g2inv.cli import run
from g2inv.transform import apply_to_metric, make_transform, random_transform

SCALES = (1e0, 1e4, 1e5, 1e8, 1e12, 1e40, 1e80, 1e160)
POINTS = {"random_analytic": ((0.1, 0.2), (0.3, 0.1), (-0.2, 0.25)),
          "vdb": ((0.6, 1.1), (0.8, 0.9), (1.0, 1.3))}
# the F components each z-shift adds s*t1 and s*t2 to
PSI = {"psi1": ("F11", "F21"), "psi2": ("F12", "F22")}
CASES = [("random_analytic", seed, psi) for psi in PSI
         for seed in range(4)] + [("vdb", None, "psi1")]


def _image(name, s):
    """The catalog metric under psi^1 = s(t1 + t2), F_i^1 - s for i = 1,
    2, as apply_to_metric builds it."""
    return apply_to_metric(catalog(name), make_transform(
        "t1", "t2", f"{s!r}*(t1 + t2)", "0", [[1.0, 0.0], [0.0, 1.0]]))


def _shifted(tmp_path, case, s):
    """The path of the case's metric at scale s, and its stratum flags at
    the case's points."""
    name, seed, psi = case
    if name == "random_analytic":
        doc = catalog(name, {"seed": seed}).to_document()
        for key, t in zip(PSI[psi], ("t1", "t2")):
            doc["components"][key] += f" + {s!r}*{t}" if s else ""
    else:
        doc = _image(name, s).to_document()
    path = tmp_path / f"{name}{seed}_{psi}_{s!r}.json"
    path.write_text(json.dumps(doc))
    m = metrics.load_metric(doc)
    return str(path), [metrics.classify(point_jets(m, pt, order=1))
                       for pt in POINTS[name]]


def _run(capsys, path, command, *args):
    code = run([command, path, *args, "--json"])
    return (code, *capsys.readouterr())


def _reports(tmp_path, name):
    """{report: (command, args after the metric)} of the case's metric,
    equiv against the metric at s = 0."""
    points = POINTS[name]
    args = "--points=" + ";".join(f"{a},{b}" for a, b in points)
    at = "--at={},{}".format(*points[0])
    t1s, t2s = zip(*points)
    transform = tmp_path / "transform.json"
    transform.write_text(json.dumps(random_transform(3).strings))
    # an apply_to_metric image's document holds no sampling rectangle
    rect = "{}:{},{}:{}".format(*sum(metrics.CATALOG_DOMAINS[name], ()))
    return {
        "first": ("check-relations", "--first", args),
        "second": ("check-relations", "--second", args),
        "invariants": ("invariants", "--order", "2", at),
        "grid": ("grid", f"--t1={min(t1s)}:{max(t1s)}:3",
                 f"--t2={min(t2s)}:{max(t2s)}:3", "--order", "2", "--csv"),
        "rank": ("rank", "--set", "order2_20", at),
        "transform": ("transform", str(transform), "--report-invariance",
                      args),
        "equiv": ("equiv", str(tmp_path / f"{name}_base.json"), "--grid",
                  "6", f"--rect-a={rect}", f"--rect-b={rect}"),
        "onshell": ("check-relations", "--onshell", args),
        "einstein": ("check-einstein", args),
    }


@pytest.mark.parametrize("case", CASES, ids=lambda c: "{}{}-{}".format(
    c[0], "" if c[1] is None else c[1], c[2]))
def test_gauge_ladder(tmp_path, capsys, case):
    name = case[0]
    base_path, flags = _shifted(tmp_path, case, 0.0)
    (tmp_path / f"{name}_base.json").write_text(open(base_path).read())
    reports = _reports(tmp_path, name)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = {key: _run(capsys, base_path, *argv)
                for key, argv in reports.items()}
        equiv = json.loads(base["equiv"][1])
        assert (equiv["verdict"], equiv["coverage_a"], equiv["coverage_b"]) \
            == ("Consistent", 1, 1)
        # no case is vacuum: the Einstein residual and the on-shell suite
        # fail, and every other report passes
        assert {key: code for key, (code, _, _) in base.items()} \
            == {key: int(key in ("onshell", "einstein")) for key in base}
        for s in SCALES:
            path, flags_s = _shifted(tmp_path, case, s)
            assert flags_s == flags, s
            got = {key: _run(capsys, path, *argv)
                   for key, argv in reports.items()}
            assert got == base, s


def _kundu_image(tmp_path, s):
    path = tmp_path / f"kundu_{s!r}.json"
    path.write_text(json.dumps(_image("lambda_kundu", s).to_document()))
    return str(path)


def test_lambda_kundu_gauge_ladder(tmp_path, capsys):
    # a Lambda-vacuum metric stays one under the gauge: check-einstein
    # and the on-shell suite pass at every s, with s = 0's reports
    args = ["--lambda", "3", "--points=0.7,-0.2;0.9,0.1;1.2,0.3"]
    reports = (("check-einstein", *args), ("check-relations", "--onshell",
                                           *args))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = _kundu_image(tmp_path, 0.0)
        base = [_run(capsys, path, *argv) for argv in reports]
        assert [(code, err) for code, _, err in base] == [(0, "")] * 2
        assert json.loads(base[0][1])["max_normalized"] <= 1e-14
        for s in (1e0, 1e2, 1e4, 1e8, 1e12, 1e40, 1e80, 1e160):
            path = _kundu_image(tmp_path, s)
            assert [_run(capsys, path, *argv) for argv in reports] == base, s
