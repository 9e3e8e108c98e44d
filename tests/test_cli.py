import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import g2inv
from g2inv import catalog, cli, einstein, expr, jets, metrics, point_jets
from g2inv.cli import dumps, run
from g2inv.errors import (G2InvError, MetricDefinitionError,
                          SingularMetricError)
from g2inv.invariants1 import FUNDAMENTAL_IDS, relations_first
from g2inv.invariants2 import SECOND_ORDER_COLUMNS, relations_second
from g2inv.metrics import CATALOG_NAMES
from g2inv.transform import (apply_to_metric, load_transform, make_transform,
                             pushforward_jets, random_transform)


@pytest.fixture(scope="module")
def vdb_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "vdb.json"
    assert run(["catalog", "vdb", "--emit", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def kundu_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "lk.json"
    assert run(["catalog", "lambda_kundu", "--param", "c=1",
                "--param", "Lambda=3", "--emit", str(path)]) == 0
    return str(path)


def test_catalog_lists_names(capsys):
    assert run(["catalog", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "vdb" in out["names"]


def test_catalog_unknown_name_is_usage_error(capsys):
    assert run(["catalog", "nope"]) == 2


@pytest.mark.parametrize("param", ["c=abc", "c", "c=nan", "c=-inf", "c="])
def test_a_malformed_catalog_param_is_one_error_line(capsys, param):
    assert run(["catalog", "ppwave2", "--param", param]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --param 'c' must be a finite float "
                            f"given as k=v, got {param!r}\n")


@pytest.mark.parametrize("seed", ["1.5", "-1", "-0.5", "1e-300"])
def test_a_random_analytic_seed_not_a_non_negative_integer_is_one_error_line(
        capsys, seed):
    assert run(["catalog", "random_analytic", "--param", f"seed={seed}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: param 'seed' must be a non-negative "
                            f"integer, got {float(seed)!r}\n")


def test_an_integral_random_analytic_seed_given_as_a_float_is_that_seed(
        capsys):
    assert run(["catalog", "random_analytic", "--param", "seed=3.0",
                "--json"]) == 0
    assert json.loads(capsys.readouterr().out) \
        == catalog("random_analytic", {"seed": 3}).to_document()


def test_a_negative_rank_seed_is_one_error_line(capsys):
    assert run(["rank", "--random", "-1", "--set", "fundamental6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --random SEED must be a non-negative "
                            "integer, got -1\n")


def test_invariants_at_point(vdb_file, capsys):
    assert run(["invariants", vdb_file, "--at", "0.5,1.0", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fundamentals"]["C_rho"] == pytest.approx(-1.9558, abs=1e-4)
    assert out["fundamentals"]["ell_C"] == pytest.approx(0.5672, abs=1e-4)


def test_invariants_second_order(vdb_file, capsys):
    assert run(["invariants", vdb_file, "--at", "0.5,1.0", "--order", "2",
                "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    sec = out["second_order"]
    assert sec["K_Xi"] == pytest.approx(
        -0.25 * out["fundamentals"]["C_chi"], rel=1e-8)


def test_json_reports_roundtrip(vdb_file, capsys):
    assert run(["invariants", vdb_file, "--at", "0.7,1.2", "--json"]) == 0
    text = capsys.readouterr().out
    reparsed = json.loads(text)
    assert dumps(reparsed) + "\n" == text


def test_grid_csv(vdb_file, tmp_path):
    out = tmp_path / "grid.csv"
    assert run(["grid", vdb_file, "--t1", "0.4:1.0:3", "--t2",
                "0.8:1.4:2", "--csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["t1", "t2", "C_rho"]
    assert len(lines) == 7
    assert "nan" not in lines[1]


def test_grid_csv_nan_for_unavailable(tmp_path):
    flat = tmp_path / "flat.json"
    assert run(["catalog", "flat", "--emit", str(flat)]) == 0
    out = tmp_path / "grid.csv"
    assert run(["grid", str(flat), "--t1", "0:1:2", "--t2", "0:1:2",
                "--order", "2", "--csv", "--out", str(out)]) == 0
    assert "nan" in out.read_text()  # J1, J2 undefined when C_rho = 0


def test_check_einstein_pass_and_fail(vdb_file, kundu_file):
    assert run(["check-einstein", kundu_file, "--lambda", "3",
                "--points", "grid"]) == 0
    # the published vdb display is not Ricci-flat
    assert run(["check-einstein", vdb_file, "--lambda", "0",
                "--points", "grid"]) == 1


def test_check_relations_first(vdb_file):
    assert run(["check-relations", vdb_file, "--first", "--tol",
                "1e-8"]) == 0


def test_check_relations_onshell(kundu_file):
    assert run(["check-relations", kundu_file, "--onshell",
                "--lambda", "3"]) == 0


def test_rank_subcommand(capsys):
    assert run(["rank", "--random", "3", "--set", "fundamental6",
                "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 6
    assert run(["rank", "--random", "5", "--set", "order2_20"]) == 0
    assert run(["rank", "--random", "2", "--set",
                "fundamental6_transitive"]) == 0


def test_the_constant_fundamentals_of_flat_space_have_rank_zero(
        tmp_path, capsys):
    # every row of the Jacobian is zero, so no singular value is left
    path = str(tmp_path / "flat.json")
    assert run(["catalog", "flat", "--emit", path]) == 0
    capsys.readouterr()
    assert run(["rank", path, "--set", "fundamental6", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["rank"] == 0


def test_a_transitive_rank_needs_a_probe_with_zero_curl(
        vdb_file, tmp_path, capsys):
    # vdb is not orthogonally transitive: at its domain centre
    # d2 F_1^1 != d1 F_2^1, so the transitive set has no rank to report
    assert run(["rank", vdb_file, "--set", "fundamental6_transitive"]) == 2
    captured = capsys.readouterr()
    prefix = ("error: invariant set 'fundamental6_transitive' needs a probe "
              "with zero curl, but d2 F_1^1 - d1 F_2^1 = ")
    assert captured.out == "" and captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1
    assert float(captured.err[len(prefix):]) == pytest.approx(-2.2285525853)
    # ppwave1 has F = 0: its probe passes, and its rank is reported
    pp = tmp_path / "ppwave1.json"
    assert run(["catalog", "ppwave1", "--emit", str(pp)]) == 0
    assert run(["rank", str(pp), "--set", "fundamental6_transitive",
                "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["rank"] == 1


def test_transform_invariance(vdb_file, tmp_path):
    tr = tmp_path / "tr.json"
    tr.write_text(json.dumps({
        "phi1": "t1 + 0.1*t2^2", "phi2": "t2",
        "psi1": "sin(t1)", "psi2": "0",
        "alpha": [[2, 1], [0, 1]]}))
    assert run(["transform", vdb_file, str(tr), "--report-invariance",
                "--points", "0.5,1.0;0.8,1.2"]) == 0


def test_equiv_consistent(vdb_file, tmp_path, capsys):
    m = catalog("vdb")
    p = make_transform("0.9*t1 + 0.1*t2", "1.1*t2 - 0.1*t1 - 0.1",
                       "0.4*t1", "0.2*t2", [[1.0, 1.0], [0.0, 1.0]])
    mt = apply_to_metric(m, p, name="vdb_transformed")
    other = tmp_path / "vdbt.json"
    other.write_text(json.dumps(mt.to_document()))
    (d1, d2) = mt.domain
    rect = f"{d1[0]}:{d1[1]},{d2[0]}:{d2[1]}"
    code = run(["equiv", vdb_file, str(other), "--rect-b", rect, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Consistent", out
    assert code == 0


def test_equiv_not_consistent(vdb_file, kundu_file, capsys):
    code = run(["equiv", vdb_file, kundu_file, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Inconsistent"
    assert code == 1


def test_a_fresh_equiv_process_does_not_import_numpy_ma(vdb_file, tmp_path):
    # the first np.percentile call of a process imports numpy.ma (about
    # 4 ms and 1.3 MB); the IQR scales take numpy's quartiles without it
    other = tmp_path / "ra.json"
    assert run(["catalog", "random_analytic", "--param", "seed=1",
                "--emit", str(other)]) == 0
    code = ("import json, sys\n"
            "from g2inv.cli import run\n"
            f"run(['equiv', {vdb_file!r}, {str(other)!r}, '--grid', '3', "
            "'--json'])\n"
            "print(json.dumps('numpy.ma' in sys.modules))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(g2inv.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    *out, imported = done.stdout.splitlines()
    # the verdict reports the scales: both signatures were sampled
    assert "scales" in json.loads("\n".join(out))["witness"], done.stderr
    assert json.loads(imported) is False


@pytest.mark.parametrize("rect, skipped", [
    # all 9 points generic, the fundamentals of rank 1 on t1 = 0
    ("0:0,0.7:1.5", "9 where the fundamentals have rank < 2"),
    ("0:1e-300,0:1e-300", "9 where the metric cannot be evaluated")])
def test_equiv_of_a_metric_with_itself_without_samples_is_inconclusive(
        vdb_file, capsys, rect, skipped):
    # no point is on a non-generic stratum: the strata cannot differ
    capsys.readouterr()
    assert run(["equiv", vdb_file, vdb_file, "--grid", "3",
                "--rect-a=" + rect, "--json"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Inconclusive"
    assert out["note"] == (
        "only 0 generic samples retained for 'vdb' (need 8); of its 9 grid "
        f"points, {skipped}; the signature criterion does not apply")


def test_equiv_against_a_metric_of_another_stratum_is_inconsistent(
        vdb_file, kundu_file, capsys):
    # lambda_kundu's 9 grid points are all non-generic
    capsys.readouterr()
    assert run(["equiv", vdb_file, kundu_file, "--grid", "3", "--json"]) == 1
    assert capsys.readouterr().out == dumps({
        "command": "equiv", "metric_a": "vdb", "metric_b": "lambda_kundu",
        "verdict": "Inconsistent", "coverage_a": 0, "coverage_b": 0,
        "max_discrepancy": 0, "witness": None,
        "note": "'lambda_kundu' is degenerate (no generic samples) while "
                "the other metric is generic: different strata"}) + "\n"


def test_usage_error_exit_code():
    assert run(["invariants"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["invariants", "/nonexistent.json", "--at", "0,0"]) == 2


def test_float_formatting_17_digits():
    x = 1.0 / 3.0
    text = dumps({"x": x})
    assert format(x, ".17g") in text
    assert json.loads(text)["x"] == x


@pytest.mark.parametrize("name", ["a\\q", "two\nlines", "a\ttab",
                                  'a "quote"', "\x01", "caf\u00e9"])
def test_a_json_report_is_json_whatever_the_metric_name(tmp_path, capsys,
                                                        name):
    # every string, keys too, is escaped as json.dumps escapes it
    doc = catalog("flat").to_document()
    doc["name"] = name
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["invariants", str(path), "--at=0.1,0.2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["metric"] == name
    assert json.loads(dumps({name: [name]})) == {name: [name]}


def test_pass_flag_from_numpy_values_is_a_json_boolean(tmp_path, capsys):
    # the theta_II_T342_Qchi residual is a numpy float; when it is the
    # worst residual, the pass flag is a numpy bool
    ra = tmp_path / "ra.json"
    assert run(["catalog", "random_analytic", "--param", "seed=124580607",
                "--emit", str(ra)]) == 0
    capsys.readouterr()
    points = ("-0.465749,0.320981;-0.593769,0.305414;-0.342801,0.729966;"
              "-0.073366,-0.164200;-0.058572,0.568430;0.371884,0.315134")
    assert run(["check-relations", str(ra), "--first", "--json",
                f"--points={points}"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["first_order"]["pass"] is True
    assert out["pass"] is True
    assert json.loads(dumps({"a": np.bool_(True), "b": np.bool_(False)})) \
        == {"a": True, "b": False}


def test_overflow_is_an_input_error(tmp_path, capsys):
    doc = catalog("flat").to_document()
    doc["components"]["h11"] = "exp(800*t1)"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["invariants", str(path), "--at", "1,0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert run(["grid", str(path), "--t1", "0:1:2", "--t2", "0:0:1",
                "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["C_rho"] is not None
    assert rows[1]["C_rho"] is None


def _submersion_file(tmp_path, components):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"name": "x", "form": "submersion",
                                "params": {}, "components": components}))
    return str(path)


def test_stratum_does_not_depend_on_the_jet_order(tmp_path, capsys):
    # ell_C ~ 1e-6 at the point, as its one term is: generic at either
    # jet order, whatever the size of gt12's second derivative (2e6)
    path = _submersion_file(tmp_path, {
        "gt11": "1", "gt12": "1e6*(t2 - 0.5)^2", "gt22": "1",
        "F11": "t1*t2", "F12": "0", "F21": "0", "F22": "0",
        "h11": "exp(t1*t2)", "h12": "0", "h22": "1"})
    m, pt = metrics.load_metric(path), (0.001, 0.5)
    strata = [point_jets(m, pt, order=n).stratum for n in (1, 2)]
    assert strata[0] == strata[1] and strata[0].generic
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps(GOOD_TRANSFORM))
    capsys.readouterr()
    assert run(["transform", path, str(identity), "--report-invariance",
                "--points", "0.001,0.5", "--json"]) == 0
    row, = json.loads(capsys.readouterr().out)["points"]
    assert isinstance(row["frame_residual"], (int, float))
    assert run(["check-relations", path, "--first", "--points", "0.001,0.5",
                "--json"]) == 0
    row, = json.loads(capsys.readouterr().out)["first_order"]["points"]
    for key in ("theta_II_T342_Qchi", "theta_sum_vs_gamma_root",
                "theta_II_sq_closure"):
        assert isinstance(row[key], (int, float)), key


def test_non_finite_report_value_is_an_input_error(tmp_path, capsys):
    # the Einstein residual of this metric is NaN at the point, which
    # max(0.0, nan) == 0.0 once let through as a pass
    einstein_nan = _submersion_file(tmp_path, {
        "gt11": "1+t2^2", "gt12": "0", "gt22": "1", "F11": "1+t2^2",
        "F12": "exp(120*t1)*t2", "F21": "1", "F22": "1",
        "h11": "1+t2^2", "h12": "exp(120*t1)", "h22": "-1"})
    capsys.readouterr()
    assert run(["check-einstein", einstein_nan, "--points", "2.077,0.322",
                "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    # C^1 = C^2 = 1e200 and h = diag(1, -1): ell_C = C1^2 - C2^2 is
    # inf - inf, a NaN in the report
    ell_nan = _submersion_file(tmp_path, {
        "gt11": "1", "gt12": "0", "gt22": "1",
        "F11": "1e200*t2", "F12": "1e200*t2", "F21": "0", "F22": "0",
        "h11": "1", "h12": "0", "h22": "-1"})
    for options in (["--order", "1", "--json"], ["--order", "2", "--json"],
                    ["--order", "1"]):  # the last: the plain renderer
        assert run(["invariants", ell_nan, "--at", "0.1,0.2", *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite value nan for 'ell_C'\n"
    assert run(["grid", ell_nan, "--t1", "0.1:0.1:1", "--t2",
                "0.2:0.2:1", "--order", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    row, = report["rows"]
    assert list(row) == report["columns"]
    assert row == {"t1": 0.1, "t2": 0.2, **dict.fromkeys(
        (*FUNDAMENTAL_IDS, *SECOND_ORDER_COLUMNS))}


def _module_run(*argv, warn="always"):
    """``python -m g2inv`` in a fresh interpreter that shows every warning,
    or, with warn="error::RuntimeWarning", raises it."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(g2inv.__file__)))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-W", warn, "-m", "g2inv",
                           *argv], capture_output=True, text=True, env=env)


def test_python_dash_m_runs_the_cli():
    r = _module_run("catalog", "--json")
    assert r.returncode == 0, r.stderr
    assert "vdb" in json.loads(r.stdout)["names"]


def test_curvature_overflow_is_one_error_line(tmp_path):
    # exp(120*t1) overflows the Riemann contraction at this point
    path = _submersion_file(tmp_path, {
        "gt11": "1+t2^2", "gt12": "0", "gt22": "1", "F11": "1+t2^2",
        "F12": "exp(120*t1)*t2", "F21": "1", "F22": "1",
        "h11": "1+t2^2", "h12": "exp(120*t1)", "h22": "-1"})
    r = _module_run("check-einstein", path, "--points", "2.077,0.322",
                    "--json")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, \
        r.stderr
    r = _module_run("grid", path, "--t1", "2.077:2.077:1", "--t2",
                    "0.322:0.322:1", "--order", "2", "--json")
    assert r.returncode == 0 and r.stderr == ""
    row, = json.loads(r.stdout)["rows"]
    assert row["C_rho"] is None


def test_relation_suite_overflow_is_one_error_line(tmp_path):
    # Theta_III ** 2 exceeds the float range in the first-order suite
    path = _submersion_file(tmp_path, {
        "gt11": "t2*exp(-150*t1)", "gt12": "0", "gt22": "1",
        "F11": "exp(150*t1)", "F12": "t2", "F21": "1", "F22": "exp(150*t1)",
        "h11": "1+t2^2", "h12": "exp(60*t1)", "h22": "-1"})
    r = _module_run("check-relations", path, "--first", "--second",
                    "--points", "1.014,0.495", "--json")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, \
        r.stderr


def _big_f(tmp_path):
    """seed 3 under the z-shift psi^1 = 5e159 (t1^2 + t2^2): the same
    invariants, but F of order 1e160 overflows the 4-metric, while gt,
    h, the orbit-space layers and the frame, O'Neill's T and the 4D
    curvature of the adapted basis, which read F only by its curl, stay
    finite."""
    doc = catalog("random_analytic", {"seed": 3}).to_document()
    doc["components"]["F11"] += " + 1e160*t1"
    doc["components"]["F21"] += " + 1e160*t2"
    path = tmp_path / "big_f.json"
    path.write_text(json.dumps(doc))
    return path


def test_an_overflowing_four_metric_fails_only_the_reports_that_read_it(
        tmp_path, capsys):
    path = _big_f(tmp_path)
    points = "--points=0.1,0.2;0.3,0.1"
    capsys.readouterr()
    assert run(["check-relations", str(path), "--second", points,
                "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["second_order"]["pass"]
    assert run(["rank", str(path), "--at=0.1,0.2", "--set", "order2_20",
                "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 20
    # K_Xi and K_Xiperp come from the orbit space and the fundamentals
    assert run(["invariants", str(path), "--at=0.1,0.2", "--order", "2",
                "--json"]) == 0
    second = json.loads(capsys.readouterr().out)["second_order"]
    assert all(math.isfinite(v) for v in second.values() if v is not None)
    # the first-order suite reads T in the adapted basis, which has no F
    # terms, on the generic stratum, which the stratum test, reading no
    # F, keeps
    assert run(["check-relations", str(path), "--first", points,
                "--json"]) == 0
    first = json.loads(capsys.readouterr().out)["first_order"]
    assert first["pass"] and first["max_residual"] < 1e-14
    assert first["points"][0]["theta_II_T342_Qchi"] is not None
    # the pushforward reads gt, h and the curl of F, which the z-shift
    # leaves as they are: seed 3's report, with no warning
    tr = tmp_path / "tr.json"
    tr.write_text(json.dumps(random_transform(3).strings))
    seed3 = tmp_path / "seed3.json"
    seed3.write_text(json.dumps(
        catalog("random_analytic", {"seed": 3}).to_document()))
    capsys.readouterr()
    assert run(["transform", str(seed3), str(tr), "--report-invariance",
                points]) == 0
    r = _module_run("transform", str(path), str(tr), "--report-invariance",
                    points)
    assert (r.returncode, r.stdout, r.stderr) \
        == (0, capsys.readouterr().out, "")


def test_an_overflow_in_second_derivatives_fails_only_the_curvature(
        tmp_path, capsys):
    # F11 = 1e155 t1 puts 2 (F11')^2 h11 ~ 2e310 in the 4-metric's second
    # derivatives: the first-order suite and the frame's curvature read
    # no 4-metric, and the suites pass; the Einstein residual of the
    # on-shell suite and of check-einstein takes its scale from those
    # derivatives and fails, never reading 0
    path = _submersion_file(tmp_path, {
        "gt11": "1 + t1^2", "gt12": "0.1*t2", "gt22": "2 + t2",
        "F11": "1e155*t1", "F12": "t1*t2", "F21": "sin(t1)", "F22": "t1",
        "h11": "exp(t1)", "h12": "0.2*t1*t2", "h22": "-1 - t2^2"})
    capsys.readouterr()
    for points in ("--points=1e-155,0.5", "--points=1e-155,0.5;2e-155,0.6"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["check-relations", path, "--first", "--second",
                        points, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"]
    for command in (["check-relations", "--onshell"], ["check-einstein"]):
        assert run([command[0], path, *command[1:],
                    "--points=1e-155,0.5"]) == 2
        assert capsys.readouterr().err == (
            "error: singular evaluation in 'residual' at value inf "
            "(non-finite scale)\n"), command


@pytest.mark.parametrize("argv, code, err", [
    (["check-einstein"], 2, "'residual' at value nan (invalid value "
     "encountered in multiply)"),
    (["check-relations", "--first", "--json"], 0, None),
    (["check-relations", "--onshell"], 2, "'residual' at value nan "
     "(invalid value encountered in multiply)"),
    (["transform", "tr.json", "--report-invariance", "--json"], 0, None)])
def test_the_overflowing_four_metric_at_a_float_point_is_silent(
        tmp_path, capsys, argv, code, err):
    # one point runs alone, on Python floats, which overflow silently:
    # the block arithmetic of the 4-metric warns nowhere, and each report
    # ends as its per-entry arithmetic made it end; the Einstein
    # residual, the one reader of the 4-metric's F^2, fails by name, and
    # the first-order suite and the pushforward read none of them
    path = _big_f(tmp_path)
    (tmp_path / "tr.json").write_text(json.dumps(random_transform(3).strings))
    argv = [argv[0], str(path), *(str(tmp_path / a) if a == "tr.json" else a
                                  for a in argv[1:]), "--points=0.1,0.2"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == code
    got = capsys.readouterr()
    if code == 0:
        assert got.err == "" and json.loads(got.out)["pass"]
    else:
        assert got.err == f"error: singular evaluation in {err}\n"


# flat but for the entries given, and the three reproducers that numpy
# warned on: their exit code, and a check of their stdout
_FLAT = {"gt11": "1", "gt12": "0", "gt22": "1", "F11": "0", "F12": "0",
         "F21": "0", "F22": "0", "h11": "1", "h12": "0", "h22": "1"}
_BIG_SLOPE = "((1e200) / ((t1) / (1e-160))) / (cosh(((1e-160) + (2)) - (t1)))"


@pytest.mark.parametrize("components, argv, code, check", [
    # the fd stencil subtracts infinite component values
    ({**_FLAT, "gt11": "1e308*1e308"},
     ["invariants", "--at", "0.5,0.5", "--method", "fd"], 2,
     lambda out, err: out == "" and err ==
     "error: singular orbit metric for 'x' at (0.5, 0.5)\n"),
    # a zero pivot in the determinant of the orbit Ricci tensor
    ({"gt11": "1 + t1^2", "gt12": "(1e154) - (2)", "gt22": "2 + t2",
      "F11": "1", "F12": "t1*t2", "F21": "sin(t1)", "F22": "t1",
      "h11": "exp(t1)", "h12": "0.2*t1*t2", "h22": "-1 - t2^2"},
     ["grid", "--t1", "0.1:0.9:2", "--t2", "0.2:1.1:2", "--order", "2",
      "--json"], 0,
     lambda out, err: err == "" and all(
         v is not None for row in json.loads(out)["rows"]
         for k, v in row.items() if k not in ("J1", "J2"))),
    # the norm of a Jacobian row overflows
    ({"gt11": "1 + t1^2", "gt12": "0.1*t2", "gt22": "2 + t2", "F11": "t2",
      "F12": "t1*t2", "F21": "sin(t1)", "F22": _BIG_SLOPE, "h11": "-1",
      "h12": "0.2*t1*t2", "h22": "-1 - t2^2"},
     ["rank", "--at", "0.3,1.2", "--set", "order2_20"], 1,
     lambda out, err: err == "" and "rank: 17\n" in out)])
def test_numpy_warns_nowhere_on_overflowing_inputs(tmp_path, capsys,
                                                   components, argv, code,
                                                   check):
    path = _submersion_file(tmp_path, components)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([argv[0], path, *argv[1:]]) == code
    got = capsys.readouterr()
    assert check(got.out, got.err), got


@pytest.mark.parametrize("exponent", ["1e308*10", "0*(1e308*10)"])
@pytest.mark.parametrize("method", ["analytic", "fd"])
def test_a_non_finite_exponent_is_one_error_line(tmp_path, capsys, exponent,
                                                 method):
    doc = catalog("flat").to_document()
    doc["components"]["h11"] = f"2 + t1^({exponent})"
    path = tmp_path / "pow.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["invariants", str(path), "--at=0.1,0.2", "--order", "1",
                "--method", method]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: singular evaluation in 'pow'") \
        and "non-finite exponent" in err and err.count("\n") == 1, err


def test_a_batch_prints_no_numpy_warning(tmp_path):
    # exp(400*t1)^2 overflows at t1 = 1: numpy warns on a batch holding
    # that point, while the point alone fails without a warning
    doc = catalog("flat").to_document()
    doc["components"]["h11"] = "exp(400*t1)*exp(400*t1)"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    r = _module_run("grid", str(path), "--t1", "0:1:2", "--t2", "0:0:1",
                    "--json")
    assert r.returncode == 0 and r.stderr == ""
    rows = json.loads(r.stdout)["rows"]
    assert rows[0]["C_rho"] is not None and rows[1]["C_rho"] is None
    r = _module_run("check-relations", str(path), "--points", "0,0;1,0")
    assert r.returncode == 2 and r.stderr == \
        "error: singular h for metric 'flat' at (1.0, 0.0)\n"


UNDERFLOW = {"gt11": "t2*exp(-150*t1)", "gt12": "0", "gt22": "1",
             "F11": "1+t2^2", "F12": "t2", "F21": "1", "F22": "1",
             "h11": "1+t2^2", "h12": "t2*exp(-300*t1)", "h22": "-1"}


def test_jet_underflow_is_an_input_error(tmp_path, capsys):
    # sqrt|det gt| of a tiny det gt: its second derivative underflows
    path = _submersion_file(tmp_path, UNDERFLOW)
    capsys.readouterr()
    assert run(["invariants", path, "--at", "2.124,-0.721", "--order", "2",
                "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") \
        and captured.err.count("\n") == 1, captured.err


def test_equiv_skips_samples_whose_fields_fail(tmp_path, capsys):
    # every grid point underflows in the first-order fields: each is
    # skipped as a sample, so no signature is left on either side
    path = _submersion_file(tmp_path, UNDERFLOW)
    rect = "2.0:2.3,-0.8:-0.6"
    capsys.readouterr()
    code = run(["equiv", path, path, "--rect-a", rect, "--rect-b", rect,
                "--grid", "3", "--json"])
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "Inconclusive"
    assert code == 3
    assert "error:" not in captured.err


@pytest.mark.parametrize("argv", [
    ["invariants", "--at", "nan,0.5"],
    ["check-relations", "--first", "--second", "--points", "0.5,nan"],
])
def test_nan_point_on_the_fd_path_is_an_input_error(vdb_file, capsys, argv):
    # the CLI rejects a NaN coordinate as it parses the point, and names
    # the point, not the metric; past the CLI, every stencil point around
    # a NaN is NaN, and the fd jets read as singular h
    assert run([argv[0], vdb_file, *argv[1:], "--method", "fd"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(lines) == 1 and lines[0].endswith(
        f"the coordinates of t1,t2 must be finite, got {argv[-1]!r}"), \
        captured.err
    with pytest.raises(SingularMetricError, match="^singular h"):
        point_jets(g2inv.load_metric(vdb_file),
                   tuple(map(float, argv[-1].split(","))), method="fd")


def test_fd_error_names_the_stencil_value_without_context(tmp_path,
                                                          capsys):
    # the metric of test_metrics::test_fd_reports_the_singular_stencil_
    # point_met_first: the fd oracle's error is the one met evaluating
    # the stencil point by point, with no expression text
    path = _submersion_file(tmp_path, {
        **FLAT_SUBMERSION, "gt12": "sqrt(t2 + 0.0049) + ln(t1 - 0.5951)"})
    capsys.readouterr()
    assert run(["invariants", path, "--at", "0.6,0.0", "--method", "fd"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: singular evaluation in 'ln' at value "
                            "-9.999999999998899e-05\n")


@pytest.mark.parametrize("points, message", [
    ("0.5,1;0.7", "expected t1,t2 got '0.7'"),
    ("abc,1", "expected t1,t2 got 'abc,1'"),
    ("0.5,1;nan,1", "the coordinates of t1,t2 must be finite, got 'nan,1'"),
    ("0.5,inf", "the coordinates of t1,t2 must be finite, got '0.5,inf'"),
    ("-inf,1", "the coordinates of t1,t2 must be finite, got '-inf,1'")],
    ids=["one_part", "not_a_number", "nan", "inf", "minus_inf"])
@pytest.mark.parametrize("command", ["check-einstein", "check-relations",
                                     "transform"])
def test_malformed_points_entry_is_an_input_error(vdb_file, tmp_path,
                                                  capsys, command, points,
                                                  message):
    tr = tmp_path / "tr.json"
    tr.write_text(json.dumps({"phi1": "t1", "phi2": "t2", "psi1": "0",
                              "psi2": "0", "alpha": [[1, 0], [0, 1]]}))
    argv = [command, vdb_file, *([str(tr)] if command == "transform" else []),
            f"--points={points}"]
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("at", ["nan,1.0", "0.5,inf", "-inf,-inf"])
@pytest.mark.parametrize("command", ["invariants", "rank"])
def test_a_non_finite_at_is_a_usage_error(vdb_file, capsys, command, at):
    _usage_error([command, vdb_file, f"--at={at}",
                  *(["--set", "fundamental6"] if command == "rank" else [])],
                 "--at", capsys)


@pytest.mark.parametrize("command", ["check-einstein", "check-relations",
                                     "transform"])
def test_empty_point_list_is_an_input_error(vdb_file, transform_file, capsys,
                                            command):
    for spec in (";", ""):  # "" is not the default grid
        argv = [command, vdb_file,
                *([transform_file] if command == "transform" else []),
                "--points", spec]
        capsys.readouterr()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --points names no point: {spec!r}\n"


@pytest.fixture(scope="module")
def unnamed_vdb_file(tmp_path_factory):
    """vdb under a name with no sampling domain."""
    path = tmp_path_factory.mktemp("cli") / "mine.json"
    path.write_text(json.dumps({**catalog("vdb").to_document(),
                                "name": "mine"}))
    return str(path)


def test_rank_without_at_uses_the_domain_centre(vdb_file, capsys,
                                                monkeypatch):
    seen, real = [], metrics.point_jets
    monkeypatch.setattr(metrics, "point_jets", lambda m, at, **kw: (
        seen.append(at) or real(m, at, **kw)))
    capsys.readouterr()
    assert run(["rank", vdb_file, "--set", "fundamental6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 6
    (a, b), (c, d) = metrics.default_domain(catalog("vdb"))
    assert seen == [((a + b) / 2, (c + d) / 2)]


@pytest.mark.parametrize("argv, message", [
    (["rank", "--set", "fundamental6"], "pass --at t1,t2"),
    (["check-einstein"], "pass explicit --points t1,t2;t1,t2;..."),
])
def test_metric_with_no_sampling_domain_needs_explicit_points(
        unnamed_vdb_file, capsys, argv, message):
    capsys.readouterr()
    assert run([argv[0], unnamed_vdb_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: metric has no known sampling domain; {message}\n"


@pytest.mark.parametrize("grid", ["1", "2"])
def test_equiv_grid_too_small_for_a_signature_is_an_input_error(
        vdb_file, capsys, grid):
    # n x n grid points can never give the 8 samples a signature needs
    capsys.readouterr()
    assert run(["equiv", vdb_file, vdb_file, "--grid", grid, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a grid of {grid} x {grid} points is " \
        "smaller than the 8 samples a signature needs\n"


@pytest.mark.parametrize("rect", ["0.3:1.2", "0.3:1.2,0.7", "0.3:x,0.7:1.5",
                                  "nan:1,0.7:1.5", "0.3:1.2,0.7:inf",
                                  "1e308:-1e308,0.7:1.5",
                                  "0.3:1.2,1e308:-1e308"])
def test_malformed_or_non_finite_rect_is_a_usage_error(vdb_file, capsys,
                                                       rect):
    capsys.readouterr()
    assert run(["equiv", vdb_file, vdb_file, "--grid", "3",
                "--rect-a", rect]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --rect-a: " in captured.err
    assert repr(rect) in captured.err


def test_rect_bounds_need_not_increase():
    assert cli.build_parser().parse_args(
        ["equiv", "a", "b", "--rect-a", "1.2:0.3,1.5:0.7"]).rect_a \
        == ((1.2, 0.3), (1.5, 0.7))


FLAT_SUBMERSION = {"gt11": "1", "gt12": "0", "gt22": "1", "F11": "0",
                   "F12": "0", "F21": "0", "F22": "0", "h11": "1",
                   "h12": "0", "h22": "1"}


@pytest.mark.parametrize("gt11, method", [
    ("1" + "+t1" * 3000, "analytic"),
    ("1" + "+t1" * 3000, "fd"),
    # evaluates, but the error path prints the component, two frames a level
    ("1" + "+t1" * 700 + "+1/(t1-0.5)", "analytic"),
], ids=["parse", "parse_fd", "error_path"])
def test_deep_component_is_an_input_error(tmp_path, capsys, gt11, method):
    path = _submersion_file(tmp_path, {**FLAT_SUBMERSION, "gt11": gt11})
    capsys.readouterr()
    assert run(["invariants", path, "--at", "0.5,0.5", "--method",
                method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") \
        and captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("gt11", ["1" + "+t1" * 3000, "-" * 3000 + "t1"],
                         ids=["sum", "negations"])
def test_deep_component_fails_the_load_of_grid_and_equiv(tmp_path, capsys,
                                                          gt11):
    # an input error when the metric is read, not a grid of null rows or
    # an inconclusive verdict when each point fails to evaluate
    path = _submersion_file(tmp_path, {**FLAT_SUBMERSION, "gt11": gt11})
    for argv in (["grid", path, "--t1=0.1:0.5:2", "--t2=0.1:0.5:2"],
                 ["equiv", path, path, "--rect-a=0:1,0:1",
                  "--rect-b=0:1,0:1", "--grid", "3"]):
        assert _one_error_line(argv, capsys) \
            == "error: expression nested too deeply\n"


@pytest.mark.parametrize("transform", [
    json.dumps({"phi1": "t1" + "+0*t1" * 3000, "phi2": "t2", "psi1": "0",
                "psi2": "0", "alpha": [[1, 0], [0, 1]]}),
    json.dumps({"phi1": "(" * 3000 + "t1" + ")" * 3000, "phi2": "t2",
                "psi1": "0", "psi2": "0", "alpha": [[1, 0], [0, 1]]}),
    "[" * 100000 + "]" * 100000,
], ids=["sum", "parentheses", "json"])
def test_deep_transform_is_an_input_error(tmp_path, capsys, transform):
    metric = _submersion_file(tmp_path, FLAT_SUBMERSION)
    path = tmp_path / "transform.json"
    path.write_text(transform)
    capsys.readouterr()
    assert run(["transform", metric, str(path), "--points", "0.5,0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") \
        and captured.err.count("\n") == 1, captured.err


def test_nine_hundred_term_component_still_evaluates(tmp_path):
    path = _submersion_file(tmp_path, {**FLAT_SUBMERSION,
                                       "gt11": "1" + "+t1" * 900})
    r = _module_run("invariants", path, "--at", "0.5,0.5", "--json")
    assert r.returncode == 0 and r.stderr == "", r.stderr
    assert json.loads(r.stdout)["fundamentals"]["C_rho"] == 0.0


@pytest.fixture(scope="module")
def transform_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tr.json"
    path.write_text(json.dumps({"phi1": "t1", "phi2": "t2", "psi1": "0",
                                "psi2": "0", "alpha": [[1, 0], [0, 1]]}))
    return str(path)


def _usage_error(argv, option, capsys):
    """argv exits 2 at parse time with one error line naming option, and
    nothing else on stderr but argparse's usage block."""
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(lines) == 1 and f"argument {option}:" in lines[0], \
        captured.err
    usage = [line for line in captured.err.splitlines() if line != lines[0]]
    assert usage[0].startswith("usage: ") and all(
        line.startswith(" ") for line in usage[1:]), captured.err


@pytest.mark.parametrize("value", ["nan", "-1", "0", "1", "inf", "-inf"])
def test_rank_eps_outside_zero_one_is_a_usage_error(value, capsys):
    _usage_error(["rank", "--random", "7", "--set", "order2_20",
                  "--eps", value], "--eps", capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-8"])
@pytest.mark.parametrize("command", ["check-einstein", "check-relations",
                                     "transform", "equiv"])
def test_tolerance_not_finite_and_positive_is_a_usage_error(
        command, value, vdb_file, transform_file, capsys):
    second = {"transform": [transform_file], "equiv": [vdb_file]}
    _usage_error([command, vdb_file, *second.get(command, []),
                  "--tol", value], "--tol", capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [["check-einstein"],
                                  ["check-relations", "--onshell"]])
def test_a_non_finite_lambda_is_a_usage_error(argv, value, kundu_file,
                                              capsys):
    # the option is named, not a singular residual or a NaN report key
    _usage_error([argv[0], kundu_file, *argv[1:], "--points=0.9,0.1",
                  f"--lambda={value}"], "--lambda", capsys)


@pytest.mark.parametrize("value", ["1e308", "-1e308", repr(sys.float_info.max),
                                   repr(-sys.float_info.max)])
@pytest.mark.parametrize("points", ["0.9,0.1", "0.9,0.1;0.5,0.2"])
@pytest.mark.parametrize("argv", [["check-einstein"],
                                  ["check-relations", "--onshell"]])
def test_a_huge_finite_lambda_gives_finite_rows_or_names_the_option(
        argv, points, value, kundu_file, capsys):
    # exit 1 with finite rows, or exit 2 with one error line naming
    # --lambda; never a NaN blamed on a report key
    capsys.readouterr()
    code = run([argv[0], kundu_file, *argv[1:], f"--points={points}",
                f"--lambda={value}", "--json"])
    captured = capsys.readouterr()
    if code == 1:
        json.loads(captured.out, parse_constant=pytest.fail)
        assert captured.err == ""
    else:
        lines = [line for line in captured.err.splitlines()
                 if "error:" in line]
        assert code == 2 and captured.out == "", captured.err
        assert len(lines) == 1 and "--lambda" in lines[0], captured.err


@pytest.mark.parametrize("argv", [["check-einstein"],
                                  ["check-relations", "--onshell"]])
def test_a_negative_lambda_with_an_exponent_is_given_with_equals(
        argv, kundu_file, capsys):
    # argparse may read a separate -1e3 as an option; given with = it is
    # the value, with the report of -1000 byte for byte
    base = [argv[0], kundu_file, *argv[1:], "--points=0.9,0.1"]
    capsys.readouterr()
    got = _outcome(base + ["--lambda=-1e3"], capsys)
    assert got == _outcome(base + ["--lambda", "-1000"], capsys)
    assert got[0] in (0, 1) and got[1] and got[2] == ""


# 317 x 317 points is past MAX_POINTS; a usage error samples nothing
@pytest.mark.parametrize("value", ["0", "-3", "317", "100000000000"])
@pytest.mark.parametrize("command", ["check-einstein", "check-relations",
                                     "transform", "equiv"])
def test_grid_out_of_range_is_a_usage_error(command, value, vdb_file,
                                            transform_file, capsys):
    second = {"transform": [transform_file], "equiv": [vdb_file]}
    _usage_error([command, vdb_file, *second.get(command, []),
                  "--grid", value], "--grid", capsys)


@pytest.mark.parametrize("argv", [["check-einstein", "m"],
                                  ["check-relations", "m"],
                                  ["transform", "m", "t"],
                                  ["equiv", "a", "b"]])
def test_a_grid_at_the_point_bound_is_parsed(argv):
    # 316 x 316 points is at most MAX_POINTS
    assert math.isqrt(cli.MAX_POINTS) == 316
    assert cli.build_parser().parse_args(argv + ["--grid", "316"]).grid == 316


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("option", ["--t1", "--t2"])
def test_grid_range_count_below_one_is_a_usage_error(option, count,
                                                     vdb_file, capsys):
    ranges = {"--t1": "0.3:1.2:2", "--t2": "0.7:1.5:2"}
    ranges[option] = ranges[option][:-1] + count
    _usage_error(["grid", vdb_file, "--t1", ranges["--t1"],
                  "--t2", ranges["--t2"]], option, capsys)


@pytest.mark.parametrize("bounds", ["nan:1", "0.3:inf", "-inf:1",
                                    "1e308:-1e308", "-1e308:1e308"])
@pytest.mark.parametrize("option", ["--t1", "--t2"])
def test_grid_range_bounds_not_finite_is_a_usage_error(option, bounds,
                                                       vdb_file, capsys):
    ranges = {"--t1": "0.3:1.2:2", "--t2": "0.7:1.5:2"}
    ranges[option] = bounds + ":2"
    _usage_error(["grid", vdb_file, *(f"{k}={v}" for k, v in ranges.items()),
                  "--csv"], option, capsys)


@pytest.mark.parametrize("text", ["0:1:2.5", "0:x:2", "0:1"])
def test_malformed_grid_range_is_a_usage_error(text, vdb_file, capsys):
    capsys.readouterr()
    assert run(["grid", vdb_file, f"--t1={text}", "--t2", "1:1:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f": error: argument --t1: expected a:b:n got {text!r}\n"), \
        captured.err


@pytest.mark.parametrize("given", [["--at", "5,5"], ["METRIC"],
                                   ["--at", "5,5", "METRIC"]])
def test_rank_random_with_a_metric_or_point_is_an_error(given, vdb_file,
                                                        capsys):
    argv = ["rank", "--random", "3", "--set", "fundamental6"] + [
        vdb_file if arg == "METRIC" else arg for arg in given]
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: rank --random SEED takes no metric "
                            "file and no --at\n")


def test_valid_tolerances_and_grids_still_run(vdb_file, capsys):
    assert run(["rank", "--random", "7", "--set", "fundamental6",
                "--eps", "0.5"]) == 1
    assert run(["check-relations", vdb_file, "--first", "--grid", "1",
                "--tol", "1e-7"]) == 0
    assert run(["rank", "--random", "7", "--set", "fundamental6",
                "--eps", "abc"]) == 2
    assert "invalid float value: 'abc'" in capsys.readouterr().err


def _outcome(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_and_usage_errors_repeat_byte_for_byte(vdb_file, capsys):
    # the parser is built once per process and reused by every run
    cases = (["--help"], ["grid", "--help"], ["rank", "--set", "nope"],
             ["equiv", "a.json"], ["check-einstein", vdb_file, "--tol", "0"])
    first = [_outcome(argv, capsys) for argv in cases]
    assert [code for code, _, _ in first] == [0, 0, 2, 2, 2]
    assert "usage: g2inv" in first[0][1] and first[2][2].startswith("usage:")
    assert [_outcome(argv, capsys) for argv in cases] == first
    for argv in (["invariants", vdb_file, "--at", "0.5,1.0"],
                 ["grid", vdb_file, "--t1", "0.5:0.6:2", "--t2", "1:1:1"],
                 ["rank", "--random", "7", "--set", "fundamental6"],
                 ["catalog", "--json"]):
        run(argv)
    capsys.readouterr()
    assert [_outcome(argv, capsys) for argv in cases] == first
    assert cli.build_parser() is cli.build_parser()


def test_run_calls_the_cmd_function_bound_at_call_time(vdb_file,
                                                       monkeypatch):
    argv = ["grid", vdb_file, "--t1", "0.5:0.6:2", "--t2", "1:1:1"]
    assert run(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_grid",
                        lambda args: seen.append(args.t1) or 7)
    assert run(argv) == 7
    assert seen == [(0.5, 0.6, 2)]


# ppwave1 has C_rho ~ 0 (J1, J2 null); diag_t1 is singular at t1 = 0
GRID_METRICS = ("vdb", "diag_t1", "ppwave1", "lambda_kundu",
                "random_analytic")


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("grid")
    for name in GRID_METRICS:
        assert run(["catalog", name, "--emit", str(directory / name)]) == 0
    return directory


def _grid_point_by_point(m, t1, t2, order, method):
    """The rows of grid as one point_jets call per point gives them: a
    point that fails, or gives a non-finite value, is a row of nulls."""
    rows = []
    second = SECOND_ORDER_COLUMNS if order >= 2 else ()
    for pt in [(x, y) for x in np.linspace(*t1) for y in np.linspace(*t2)]:
        row = {"t1": pt[0], "t2": pt[1]}
        try:
            pj = point_jets(m, pt, order=2, method=method)
            for k in FUNDAMENTAL_IDS:
                row[k] = pj.fields[k].value
            for k in second:
                row[k] = pj.second[k]
            if not all(v is None or math.isfinite(v) for v in row.values()):
                raise G2InvError("non-finite value")
        except G2InvError:
            row = {"t1": pt[0], "t2": pt[1],
                   **dict.fromkeys((*FUNDAMENTAL_IDS, *second))}
        rows.append(row)
    return rows


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GRID_METRICS),
       st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5),
                 st.integers(1, 4)),
       st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5),
                 st.integers(1, 4)),
       st.sampled_from((1, 2)), st.sampled_from(("analytic", "fd")),
       st.booleans())
@example("diag_t1", (-0.5, 0.0, 3), (0.0, 1.0, 2), 2, "analytic", False)
@example("diag_t1", (-0.5, 0.0, 3), (0.0, 1.0, 2), 2, "fd", True)
@example("ppwave1", (0.0, 1.0, 3), (0.0, 1.0, 3), 2, "analytic", False)
@example("ppwave1", (0.0, 1.0, 2), (0.0, 1.0, 2), 2, "fd", True)
def test_batched_grid_has_the_bits_of_its_points(grid_files, name, u1, u2,
                                                 order, method, csv):
    # u1 and u2 are fractions of the metric's domain, widened by half its
    # size on either side, so some points fail; diag_t1's domain is t1
    # in (0.5, 2.5), so u1 = (-0.5, 0.0, 3) runs t1 through -0.5, 0, 0.5
    path = str(grid_files / name)
    m = metrics.load_metric(path)
    t1, t2 = ((a + ua * (b - a), a + ub * (b - a), n) for (a, b), (ua, ub, n)
              in zip(metrics.default_domain(m), (u1, u2)))
    out = str(grid_files / "out")
    assert run(["grid", path, "--t1=%r:%r:%d" % t1, "--t2=%r:%r:%d" % t2,
                "--order", str(order), "--method", method, "--out", out,
                "--csv" if csv else "--json"]) == 0
    rows = _grid_point_by_point(m, t1, t2, order, method)
    columns = ["t1", "t2", *FUNDAMENTAL_IDS,
               *(SECOND_ORDER_COLUMNS if order >= 2 else ())]
    if csv:
        want = "".join(",".join(line) + "\n" for line in [columns] + [
            ["nan" if row.get(c) is None else cli._fmt(float(row[c]))
             for c in columns] for row in rows])
    else:
        want = dumps({"command": "grid", "metric": m.name,
                      "columns": columns, "rows": rows}) + "\n"
    with open(out, encoding="utf-8") as fh:
        assert fh.read() == want


ORDER_PARITY_METRICS = [pytest.param(name, {}, id=name)
                        for name in CATALOG_NAMES] + [
    pytest.param("random_analytic", {"seed": s}, id=f"random_analytic_{s}")
    for s in (1, 3, 5)]


@pytest.mark.parametrize("method", ["analytic", "fd"])
@pytest.mark.parametrize("name, params", ORDER_PARITY_METRICS)
def test_first_order_reports_evaluate_order_1_jets_with_the_bits_of_order_2(
        tmp_path, monkeypatch, name, params, method):
    # truncation commutes with every layer, and the fd quotients of order
    # <= 1 do not read the diagonal stencil points: each first-order
    # report is byte for byte the report of order-2 component jets
    m = catalog(name, params)
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(m.to_document()))
    (a1, b1), (a2, b2) = metrics.default_domain(m)
    at = ((a1 + b1) / 2, (a2 + b2) / 2)
    one, two = (metrics._eval_components(m, at, n, method) for n in (1, 2))
    for key, jet in one.items():
        assert [c.hex() for c in jet.coeffs] \
            == [c.hex() for c in two[key].coeffs[:3]], key
    argvs = [
        ["check-relations", str(path), "--first", "--grid", "3", "--json"],
        ["grid", str(path), f"--t1={a1!r}:{b1!r}:3", f"--t2={a2!r}:{b2!r}:3",
         "--order", "1", "--json"],
        ["invariants", str(path), "--at=%r,%r" % at, "--order", "1", "--json"]]
    build, orders = metrics.point_jets, []

    def order_2(m, point, order, method):
        orders.append(order)
        return build(m, point, order=2, method=method)

    for argv in argvs:
        argv += ["--method", method]
        got = _captured(run, argv)
        monkeypatch.setattr(metrics, "point_jets", order_2)
        assert _captured(run, argv) == got, argv
        monkeypatch.undo()
        assert set(orders) == {1}, argv
        orders.clear()


@pytest.mark.parametrize("term, method, error", [
    # the order-2 coefficient of sin(1e200*t1) squares 1e200
    ("sin(1e200*t1)", "analytic",
     "error: singular evaluation in 'sin' at value 5.999999999999999e+199"
     " (overflow)\n"),
    # negative at the diagonal stencil points (0.6 +- h, 1.1 -+ h) alone
    ("sqrt(5e-5 + (t1 - 0.6)*(t2 - 1.1))", "fd",
     "error: singular evaluation in 'sqrt' at value -5.000000000000018e-05"
     "\n")])
def test_a_point_singular_only_at_order_2_gets_a_first_order_report(
        vdb_file, tmp_path, term, method, error):
    # vdb with h11 + 0*term: its order-1 jets are vdb's, its order-2 jets
    # fail; the first-order reports are vdb's, the second-order ones exit 2
    doc = catalog("vdb").to_document()
    doc["components"]["h11"] += f" + 0*{term}"
    path = tmp_path / "order2_singular.json"
    path.write_text(json.dumps(doc))
    at = ["--method", method, "--json"]
    for argv in (["invariants", "--at", "0.6,1.1", "--order", "1", *at],
                 ["check-relations", "--first", "--points", "0.6,1.1", *at]):
        got = _captured(run, [argv[0], str(path), *argv[1:]])
        assert got[0] == 0
        assert got == _captured(run, [argv[0], vdb_file, *argv[1:]])
    for argv in (["invariants", "--at", "0.6,1.1", "--order", "2", *at],
                 ["check-relations", "--points", "0.6,1.1", *at]):
        assert _captured(run, [argv[0], str(path), *argv[1:]]) \
            == (2, "", error)


# h11 = exp(t1 t2) gives C_rho = t1^2 + t2^2 and F11 = t1 t2 gives
# ell_C = exp(t1 t2) t1^2: at t1 = 0 ell_C is 0, at the origin C_rho too
MIXED_STRATA = {**FLAT_SUBMERSION, "F11": "t1*t2", "h11": "exp(t1*t2)"}
CHECK_DOMAINS = {"mixed_strata": ((-1.0, 1.0), (-1.0, 1.0))}


@pytest.fixture(scope="module")
def check_files(grid_files):
    (grid_files / "mixed_strata").write_text(json.dumps({
        "name": "mixed_strata", "form": "submersion", "params": {},
        "components": MIXED_STRATA}))
    return grid_files


def _captured(command, argv):
    """(exit code, stdout, stderr) of command(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = command(argv)
    return code, out.getvalue(), err.getvalue()


def _check_point_by_point(argv):
    """The exit code of a check command as one point_jets call per point
    gives it, its report written to stdout, its error to stderr."""
    args = cli.build_parser().parse_args(argv)
    m = metrics.load_metric(args.metric)
    try:
        points = cli._resolve_points(args, m)
        if args.cmd == "check-einstein":
            rows = []
            for pt in points:
                res = einstein.residual(point_jets(
                    m, pt, order=2, method=args.method), args.lam)
                rows.append({"point": list(pt),
                             "normalized": res["normalized"],
                             "max_abs": res["max_abs"], "scale": res["scale"]})
            worst, ok = cli._worst((r["normalized"] for r in rows), args.tol)
            cli._emit(args, {"command": "check-einstein", "metric": m.name,
                             "lambda": args.lam, "tol": args.tol,
                             "max_normalized": worst, "pass": ok,
                             "points": rows})
            return 0 if ok else 1
        if not (args.first or args.second or args.onshell):
            args.first = args.second = True
        suites = [(key, suite) for key, suite, chosen in (
            ("first_order", relations_first, args.first),
            ("second_order", relations_second, args.second),
            ("onshell", lambda pj: einstein.onshell_relations(pj, args.lam),
             args.onshell)) if chosen]
        rows = {key: [] for key, _ in suites}
        for pt in points:
            pj = point_jets(m, pt, order=2, method=args.method)
            for key, suite in suites:
                with metrics.singular_on_overflow(key):
                    rows[key].append(suite(pj))
        report = {"command": "check-relations", "metric": m.name}
        for key, suite_rows in rows.items():
            worst, ok = cli._worst((v for row in suite_rows
                                    for k, v in row.items()
                                    if k != "einstein_normalized"), args.tol)
            if key == "first_order":
                suite_rows = [{k: "skipped" if v is None else v
                               for k, v in row.items()} for row in suite_rows]
            report[key] = {"max_residual": worst, "pass": ok, "points": [
                {"point": list(pt), **row}
                for pt, row in zip(points, suite_rows)]}
        report["pass"] = all(report[key]["pass"] for key in rows)
        cli._emit(args, report)
        return 0 if report["pass"] else 1
    except G2InvError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


# fractions of a metric's domain, widened by half its size on either
# side, so some points fail; the lattice hits diag_t1's singular line
# t1 = 0 (-1/4) and mixed_strata's degenerate line t1 = 0 (1/2)
fractions = st.one_of(st.integers(-4, 12).map(lambda k: k / 8),
                      st.floats(-0.5, 1.5))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GRID_METRICS + ("mixed_strata",)),
       st.lists(st.tuples(fractions, fractions), min_size=1, max_size=8),
       st.sampled_from(("check-einstein", "--first", "--second",
                        "--onshell", "--first --second",
                        "--first --second --onshell", "")),
       st.sampled_from(("analytic", "fd")), st.sampled_from(("0", "3")),
       st.booleans())
@example("diag_t1", [(0.0, 0.5), (-0.25, 0.5), (0.25, 0.5)],
         "--first --second --onshell", "analytic", "0", True)
@example("diag_t1", [(0.5, 0.5)] * 3 + [(-0.25, 0.5)] + [(0.5, 0.5)] * 2,
         "--first --second", "fd", "0", False)
@example("diag_t1", [(0.5, 0.5)] * 3 + [(-0.25, 0.5)] + [(0.5, 0.5)] * 2,
         "check-einstein", "analytic", "0", True)
@example("mixed_strata", [(0.75, 0.75), (0.5, 0.75), (0.5, 0.5),
                          (0.625, 0.375)],
         "--first --second --onshell", "analytic", "0", True)
def test_batched_checks_have_the_bits_of_their_points(
        check_files, name, fracs, command, method, lam, json_out):
    path = str(check_files / name)
    m = metrics.load_metric(path)
    (a, b), (c, d) = CHECK_DOMAINS.get(name) or metrics.default_domain(m)
    points = ";".join("%r,%r" % (a + u * (b - a), c + v * (d - c))
                      for u, v in fracs)
    argv = ([command] if command == "check-einstein"
            else ["check-relations", *command.split()])
    argv += [path, "--points=" + points, "--method", method, "--lambda", lam,
             *(["--json"] * json_out)]
    assert _captured(run, argv) == _captured(_check_point_by_point, argv)


def test_check_raises_the_error_of_its_first_failing_point(check_files,
                                                           capsys):
    # diag_t1 is singular on t1 = 0: the 4th and 6th of six points
    path = str(check_files / "diag_t1")
    points = "--points=1,0;1.5,0.5;2,-0.5;0,0.25;0.75,0;-0,1"
    for argv in (["check-relations", path, points, "--first", "--second"],
                 ["check-einstein", path, points, "--json"]):
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr() == (
            "", "error: singular h for metric 'diag_t1' at (0.0, 0.25)\n")


def test_mixed_strata_run_as_one_batch(check_files, capsys, monkeypatch):
    # generic points with ell_C = 0 (t1 = 0) and C_rho = 0 (the origin)
    # points: each relation skipped where its stratum says so, in one
    # point_jets call
    calls = []
    build = metrics.point_jets
    monkeypatch.setattr(metrics, "point_jets", lambda m, point, **kw: (
        calls.append(np.shape(point[0])) or build(m, point, **kw)))
    assert run(["check-relations", str(check_files / "mixed_strata"),
                "--points=0.5,0.5;0,0.5;0,0;0.25,-0.25", "--first",
                "--second", "--onshell", "--json"]) in (0, 1)
    assert calls == [(4,)]
    report = json.loads(capsys.readouterr().out)
    skipped = [[k for k, v in row.items() if v == "skipped"]
               for row in report["first_order"]["points"]]
    assert skipped[0] == skipped[3] == []
    assert skipped[1] == skipped[2] == [
        "theta_II_T342_Qchi", "theta_sum_vs_gamma_root",
        "theta_II_sq_closure"]
    assert [row["commutator"] is None
            for row in report["second_order"]["points"]] \
        == [False, False, True, False]


# laws of drawn transforms besides random_transform's: constant and
# linear laws keep float coefficients in the jets of a batch point
TRANSFORM_LAWS = {
    "law0": ("t1 + 0.1*t2^2", "t2", "sin(t1)", "0", [[2, 1], [0, 1]]),
    "law1": ("t2", "t1", "0", "0.3", [[1, 0], [0, -1]]),
    "law2": ("0.9*t1 - 0.2*t2 + 0.3", "0.1*t1 + 1.1*t2", "0.4*t1", "1",
             [[0, 1], [1, 0]]),
}


def _transform_point_by_point(argv):
    """The exit code of transform as one point_jets call per point gives
    it, at the orders it took before it read values alone (order-2
    component jets, order-3 jets of phi and psi), its report written to
    stdout, its error to stderr."""
    args = cli.build_parser().parse_args(argv)
    try:
        m = metrics.load_metric(args.metric)
        p = load_transform(args.transform)
        points = cli._resolve_points(args, m)
        if not args.report_invariance:
            rows = []
            for pt in points:
                q = pushforward_jets(point_jets(m, pt, order=2), p)
                rows.append({"point": list(pt), "image": list(q.point), **{
                    k: q.fundamentals[k].value for k in FUNDAMENTAL_IDS}})
            cli._emit(args, {"command": "transform", "metric": m.name,
                             "points": rows})
            return 0
        a = np.array(p.alpha)
        eps2 = 1 if a[0][0] * a[1][1] - a[0][1] * a[1][0] > 0 else -1
        rows, tol = [], args.tol
        for pt in points:
            pj = point_jets(m, pt, order=2)
            pj_bar = pushforward_jets(pj, p)
            J = np.array([[jets.t_derivative(expr.eval_jet(
                f, {}, pt, 1), i).value for i in range(2)] for f in p.phi])
            eps1 = 1 if J[0][0] * J[1][1] - J[0][1] * J[1][0] > 0 else -1
            inv, inv_bar = (np.array([q.fundamentals[k].value for k in
                                      FUNDAMENTAL_IDS]) for q in (pj, pj_bar))
            denom = np.maximum(np.abs(inv), np.maximum(np.abs(inv_bar), 1.0))
            inv_residual = float(np.max(np.abs(inv - inv_bar) / denom))
            frame_residual = None
            if pj.stratum.generic:
                frame_residual = 0.0
                for s, v, vbar in zip((1.0, eps1, eps1, eps1 * eps2),
                                      pj.frame, pj_bar.frame):
                    pushed = np.concatenate([J @ v[:2], a @ v[2:]])
                    target = s * np.array(vbar)
                    norm = max(float(np.linalg.norm(target)), 1e-300)
                    frame_residual = max(
                        frame_residual,
                        float(np.linalg.norm(pushed - target)) / norm)
            rows.append({"point": list(pt), "eps1": eps1, "eps2": eps2,
                         "invariant_residual": inv_residual,
                         "frame_residual": frame_residual})
        ok = all(r["invariant_residual"] < tol and (
            r["frame_residual"] is None or r["frame_residual"] < tol)
            for r in rows)
        cli._emit(args, {
            "command": "transform", "metric": m.name,
            "max_invariant_residual": max(r["invariant_residual"]
                                          for r in rows),
            "sign_laws_pass": not any(
                r["frame_residual"] is not None and r["frame_residual"] > tol
                for r in rows),
            "pass": ok, "points": rows})
        return 0 if ok else 1
    except G2InvError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(GRID_METRICS + ("mixed_strata",)),
                 st.integers(1, 99).map("random_analytic_{}".format)),
       st.one_of(st.integers(0, 199), st.sampled_from(list(TRANSFORM_LAWS))),
       st.lists(st.tuples(fractions, fractions), min_size=1, max_size=8),
       st.booleans(), st.booleans())
@example("mixed_strata", "law0", [(0.75, 0.75), (0.5, 0.75), (0.5, 0.5),
                                  (0.625, 0.375)], True, True)
@example("diag_t1", "law1", [(0.5, 0.5)] * 3 + [(-0.25, 0.5)]
         + [(0.5, 0.5)] * 2, True, False)
@example("diag_t1", 3, [(0.5, 0.5)] * 3 + [(-0.25, 0.5)] + [(0.5, 0.5)] * 2,
         False, True)
@example("random_analytic_7", "law2", [(0.25, 0.5), (0.75, 0.5)], False,
         False)
def test_batched_transform_has_the_bits_of_its_points(
        check_files, name, law, fracs, report, json_out):
    path = check_files / name
    if not path.exists():  # a random_analytic seed
        path.write_text(json.dumps(catalog("random_analytic", {
            "seed": int(name.rsplit("_", 1)[1])}).to_document()))
    tr = check_files / f"transform_{law}"
    tr.write_text(json.dumps((make_transform(*TRANSFORM_LAWS[law])
                              if law in TRANSFORM_LAWS
                              else random_transform(law)).strings))
    m = metrics.load_metric(str(path))
    (a, b), (c, d) = CHECK_DOMAINS.get(name) or metrics.default_domain(m)
    points = ";".join("%r,%r" % (a + u * (b - a), c + v * (d - c))
                      for u, v in fracs)
    argv = ["transform", str(path), str(tr), "--points=" + points,
            *(["--report-invariance"] * report), *(["--json"] * json_out)]
    assert _captured(run, argv) == _captured(_transform_point_by_point, argv)


GOOD_TRANSFORM = {"phi1": "t1", "phi2": "t2", "psi1": "0", "psi2": "0",
                  "alpha": [[1, 0], [0, 1]]}


def _one_error_line(argv, capsys):
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") \
        and captured.err.count("\n") == 1, captured.err
    return captured.err


@pytest.mark.parametrize("document, key", [
    ("5", "JSON object"),
    (json.dumps({**GOOD_TRANSFORM, "alpha": 5}), "alpha"),
    (json.dumps({**GOOD_TRANSFORM, "alpha": [[1, 0]]}), "alpha"),
    (json.dumps({**GOOD_TRANSFORM, "phi1": 1}), "phi1"),
    (json.dumps({**GOOD_TRANSFORM, "alpha": [[1, 0, 0], [0, 1, 0]]}),
     "alpha"),
    (json.dumps({**GOOD_TRANSFORM, "alpha": [[math.nan, 0], [0, 1]]}),
     "alpha"),
    (json.dumps({**GOOD_TRANSFORM, "alpha": ["10", "01"]}), "alpha"),
    (json.dumps({**GOOD_TRANSFORM, "phi1": "q*t1"}),
     "phi1: undeclared identifier 'q'"),
], ids=["not_an_object", "alpha_number", "alpha_one_row", "phi1_number",
        "alpha_2x3", "alpha_nan", "alpha_strings", "phi1_undeclared"])
@pytest.mark.parametrize("report", [False, True], ids=["plain", "report"])
def test_malformed_transform_document_is_an_input_error(
        tmp_path, capsys, document, key, report):
    metric = _submersion_file(tmp_path, FLAT_SUBMERSION)
    path = tmp_path / "transform.json"
    path.write_text(document)
    err = _one_error_line(["transform", metric, str(path), "--points",
                           "0.5,0.5", *(["--report-invariance"] * report)],
                          capsys)
    assert key in err, err


@pytest.mark.parametrize("change, key", [
    ({"components": 5}, "components"),
    ({"params": [1, 2]}, "params"),
    ({"params": {"c": True}}, "params"),
    ({"params": {"c": math.nan}}, "'c' must be a finite float"),
    ({"params": {"c": math.inf}}, "'c' must be a finite float"),
    ({"params": {"c": 10 ** 400}}, "'c' must be a finite float"),
    ({"form": ...}, "error: missing key 'form'\n"),
    ({"form": "abc"}, "error: form must be bfh|submersion, got 'abc'\n"),
], ids=["components_number", "params_list", "params_boolean", "params_nan",
        "params_infinity", "params_int_past_float", "form_missing",
        "form_unknown"])
def test_malformed_metric_document_is_an_input_error(tmp_path, capsys,
                                                     change, key):
    # a key changed to ... is left out
    doc = {"name": "x", "form": "submersion", "params": {},
           "components": FLAT_SUBMERSION, **change}
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({k: v for k, v in doc.items()
                                if v is not ...}))
    err = _one_error_line(["invariants", str(path), "--at", "0.5,0.5"],
                          capsys)
    assert key in err, err


@pytest.mark.parametrize("command", ["invariants", "transform"])
def test_non_utf8_document_is_a_metric_definition_error(tmp_path, capsys,
                                                        command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(MetricDefinitionError):
        metrics.read_document(str(bad), "metric")
    argv = (["invariants", str(bad), "--at", "0.5,0.5"]
            if command == "invariants" else
            ["transform", _submersion_file(tmp_path, FLAT_SUBMERSION),
             str(bad), "--points", "0.5,0.5"])
    assert _one_error_line(argv, capsys) == (
        "error: malformed JSON: 'utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte\n")


@pytest.mark.parametrize("value", ["nan", "1e400", "-inf"])
def test_catalog_non_finite_param_is_an_input_error(tmp_path, capsys, value):
    # float() reads these, and json once wrote them out as "c": nan
    path = tmp_path / "ppwave2.json"
    err = _one_error_line(["catalog", "ppwave2", "--param", "c=" + value,
                           "--emit", str(path)], capsys)
    assert "'c' must be a finite float" in err
    assert not path.exists()


def _defs_file(tmp_path, defs, params=None, **components):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"name": "x", "form": "submersion",
                                "params": {"c": 2.0} if params is None
                                else params, "defs": defs,
                                "components": {**FLAT_SUBMERSION,
                                               **components}}))
    return str(path)


SIN_CHAIN = {"d0": "t1", **{f"d{i}": f"sin(d{i - 1})" for i in range(1, 600)}}


@pytest.mark.parametrize("defs, params, error", [
    (["d1", "t1"], None, "defs must be a JSON object"),
    ({"d1": 2}, None, "def d1 must be a string"),
    ({"d1": "d2 + 1", "d2": "t1"}, None,
     "def d1: undeclared identifier 'd2'"),
    ({"d1": "d2 * t1", "d2": "d1 + 1"}, None,
     "def d1: undeclared identifier 'd2'"),
    ({"d1": "d1 + 1"}, None, "def d1: undeclared identifier 'd1'"),
    ({"c": "t1"}, None, "def 'c' shadows a param"),
    ({"t1": "t2"}, None, "def 't1' shadows a coordinate"),
    ({"t2": "t1"}, None, "def 't2' shadows a coordinate"),
    ({"sin": "t1"}, None, "def 'sin' shadows a function"),
    ({}, {"t1": 5, "exp": 2}, "param 't1' shadows a coordinate"),
    ({}, {"t2": 5}, "param 't2' shadows a coordinate"),
    ({}, {"exp": 2}, "param 'exp' shadows a function"),
    (SIN_CHAIN, None, "def d500: nested deeper than 500 levels"),
], ids=["not_an_object", "not_a_string", "forward", "cyclic", "self",
        "param", "t1", "t2", "function", "param_t1", "param_t2",
        "param_function", "too_deep"])
def test_malformed_defs_are_input_errors(tmp_path, capsys, defs, params,
                                         error):
    path = _defs_file(tmp_path, defs, params, h11="d0 + 1" if defs
                      is SIN_CHAIN else "1")
    assert _one_error_line(["invariants", path, "--at", "0.5,0.5"],
                           capsys) == f"error: {error}\n"


DOUBLING = {"d1": "t1 - 2", **{f"d{i + 1}": f"d{i} + d{i}"
                               for i in range(1, 64)}}


@pytest.mark.parametrize("h11, error", [
    ("ln(d64)", "singular evaluation in 'ln' at value -1.3835058055282164e+19"
     " (in '{}; ln(d63 + d63)')"),
    ("2^d64",
     "component h11: non-constant exponent in '{}; 2.0^(d63 + d63)'"),
], ids=["ln", "pow"])
def test_doubling_defs_chain_gives_a_short_error(tmp_path, capsys, h11,
                                                 error):
    # d64 is 2^63 copies of t1 - 2 written out: the message names the
    # shared subtrees instead, children first
    path = _defs_file(tmp_path, DOUBLING, h11=h11)
    start = time.perf_counter()
    err = _one_error_line(["invariants", path, "--at", "0.5,0.5"], capsys)
    assert time.perf_counter() - start < 1.0
    assert len(err) < 200_000
    assert err == "error: " + error.format("; ".join(
        ["d1 = t1 - 2.0"] + [f"d{i + 1} = d{i} + d{i}"
                             for i in range(1, 63)])) + "\n"


def test_defs_are_read_as_their_expansion(tmp_path, capsys):
    # a def stands for a parenthesized copy of its text: d2 is (c*t1 + 1)^2
    (tmp_path / "tree").mkdir()
    paths = [_defs_file(tmp_path, {"d1": "c*t1 + 1", "d2": "d1^2"},
                        h11="d2", h22="d1 - d2 + 2"),
             _defs_file(tmp_path / "tree", {}, h11="(c*t1 + 1)^2",
                        h22="(c*t1 + 1) - (c*t1 + 1)^2 + 2")]
    reports = []
    for path in paths:
        capsys.readouterr()
        assert run(["invariants", path, "--at", "0.3,0.5", "--json"]) == 0
        reports.append(capsys.readouterr().out.replace(path, "PATH"))
    assert reports[0] == reports[1]


CATALOG_EMIT_SHA256 = {
    "flat": "4c134ead6b47b238d58a45a2d67f7a814185288c362c22e61d78152c469fbca7",
    "diag_t1":
        "bf0ade90a29bc662ec3692c6ab74367ffc62c07d6b0d6c6e99c9e417a4b17eca",
    "vdb": "b9248197d8262919b462e0ae98d3c8b950746dbe9156b9a205d4c568a1ecc5a4",
    "ppwave1":
        "d53afd0c816c3f1f8d1baaedff515973320881fd11256f3157641acddd627181",
    "ppwave2":
        "395f017dd4e6f442ad50b793bf7faa4a60dd926a9ebf76aeb0e613517471e383",
    "ppwave3":
        "ad5a298d21f9870685383aa624b437072ce6019f4a3bdb3c91f1ac8f866409ec",
    "lambda_kundu":
        "2d760210ff9ed85406b93bd173799b86e3fb19fef4051f13399e1206eaa6f6b2",
    "lambda_kundu_c0":
        "b70f31ebd00f512c577c31cd67fd37260d9ea7eb7b02e563c0932b21cb847deb",
    "random_analytic":
        "a4d06c25cde4b8b950e87076d5c9079b02db307cb8067892d5db7b8a2f7de4d0",
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_emit_is_unchanged_by_defs(tmp_path, name):
    # catalog documents have no shared subtrees written as defs; these are
    # the hashes of their files before metric documents had defs
    path = tmp_path / "emit.json"
    assert run(["catalog", name, "--emit", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == CATALOG_EMIT_SHA256[name]


def test_a_grid_command_past_the_point_bound_is_one_error_line(
        vdb_file, capsys, monkeypatch):
    # the count is checked before any point is made
    for t1, size in (("0:1:100000000000000000000", 10**20),
                     (f"0:1:{cli.MAX_POINTS + 1}", cli.MAX_POINTS + 1)):
        assert _one_error_line(["grid", vdb_file, "--t1", t1, "--t2",
                                "0:1:1"], capsys) \
            == f"error: --t1 and --t2 ask for {size} points, more than " \
               f"the {cli.MAX_POINTS} a run samples\n"
    # at a bound of 6 points, 3 x 2 runs and 7 x 1 does not
    monkeypatch.setattr(cli, "MAX_POINTS", 6)
    capsys.readouterr()
    assert run(["grid", vdb_file, "--t1", "0.3:0.7:3", "--t2", "0.9:1.2:2",
                "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 6
    assert _one_error_line(["grid", vdb_file, "--t1", "0.3:0.7:7", "--t2",
                            "0.9:1.2:1"], capsys).startswith(
        "error: --t1 and --t2 ask for 7 points, more than the 6 ")


def test_an_overflowing_alpha_is_one_error_line_without_a_warning(
        vdb_file, tmp_path, capsys):
    # alpha's determinant overflows to -inf: eps2 is -1, with no warning
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({**GOOD_TRANSFORM, "alpha": [
        [1e308, 1e308], [1e308, -1e308]]}))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert _one_error_line(["transform", vdb_file, str(path),
                                "--report-invariance"], capsys) \
            == "error: singular evaluation in 'div' at value 0.0\n"
    assert not seen, [str(w.message) for w in seen]


@pytest.mark.parametrize("warn", ["always", "error::RuntimeWarning"])
@pytest.mark.parametrize("report, message", [
    ([], "non-finite value nan for 'C_rho'"),
    (["--report-invariance"], "singular evaluation in 'pushforward "
     "fundamentals' at value nan (C_rho at (0.5, 1.0))")])
def test_a_tiny_alpha_entry_is_one_error_line_without_a_warning(
        vdb_file, tmp_path, warn, report, message):
    # alpha^-1 holds 1e200, whose square in h-bar's law overflows
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({**GOOD_TRANSFORM, "alpha": [
        [1e-200, 0], [0, 1]]}))
    r = _module_run("transform", vdb_file, str(path), *report,
                    "--points", "0.5,1.0", warn=warn)
    assert (r.returncode, r.stdout, r.stderr) \
        == (2, "", f"error: {message}\n")


# gt with a zero LU pivot, where det gt as a product is -1.1e-16: not
# singular, as point_jets tests it
LU_SINGULAR_GT = {"gt11": "1.6726349282588393", "gt12": "0.8774783591014064",
                  "gt22": "0.4603325314345848"}


@pytest.mark.parametrize("components, argv, message", [
    ({"gt11": "t1"}, ["--at", "0,0.5"],
     "singular orbit metric for 'x' at (0.0, 0.5)"),
    ({"F11": "1e308*1e308*t2"}, ["--at", "0.5,0.5"],
     "non-finite component jet for 'x' at (0.5, 0.5)"),
    ({"F11": "sin(1e308*1e308*t2)"}, ["--at", "0.5,0.5"],
     "singular evaluation in 'sin' at value inf "
     "(in 'sin(1e+308 * 1e+308 * t2)')"),
    ({"F11": "cos(1e308*1e308*t2)"}, ["--at", "0.5,0.5", "--method", "fd"],
     "singular evaluation in 'cos' at value inf")])
def test_a_singular_or_overflowing_component_is_one_error_line(
        tmp_path, capsys, components, argv, message):
    path = _submersion_file(tmp_path, {**FLAT_SUBMERSION, **components})
    assert _one_error_line(["invariants", path, *argv], capsys) \
        == f"error: {message}\n"


def test_an_lu_singular_gt_has_the_first_order_report_at_order_2(
        tmp_path, capsys):
    path = _submersion_file(tmp_path, {**FLAT_SUBMERSION, **LU_SINGULAR_GT})
    reports = []
    for order in ("1", "2"):
        capsys.readouterr()
        assert run(["invariants", path, "--at", "0.5,0.5", "--order", order,
                    "--json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert "second_order" in reports[1]
    assert reports[0]["fundamentals"] == reports[1]["fundamentals"]


def test_an_lu_singular_gt_has_c_ric_on_every_grid_row(tmp_path, capsys):
    path = _submersion_file(tmp_path, {**FLAT_SUBMERSION, **LU_SINGULAR_GT,
                                       "gt22": "0.4603325314345848 + t1"})
    capsys.readouterr()
    assert run(["grid", path, "--t1", "0:0.5:2", "--t2", "0.5:0.5:1",
                "--order", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["C_ric"] is None for row in rows] == [False, False]


@pytest.mark.parametrize("change, argv, message", [
    # J_phi ~ 1e-200: the pushforward's fundamentals overflow
    ({"phi1": "1e-200*t1"}, ["--report-invariance", "--points", "0.5,1.0"],
     "singular evaluation in 'pushforward fundamentals' at value nan "
     "(C_rho at (0.5, 1.0))"),
    # det J_phi as a product is -2.8e-17, and det gt-bar rounds to 0 at
    # the second point alone
    ({"phi1": "1.4527156893995463*t1 + 0.16584488099636685*t2",
      "phi2": "-1.297377517589764*t1 + -0.1481111697093119*t2"},
     ["--points", "0.5,1;0.6,1.1"], "J_phi = 0 at (0.6, 1.1)"),
    ({"alpha": [[1.4527156893995463, 0.16584488099636685],
                [-1.297377517589764, -0.1481111697093119]]},
     ["--points", "0.5,1"], "alpha must be invertible")])
def test_a_bad_transform_is_one_error_line(vdb_file, tmp_path, capsys,
                                           change, argv, message):
    path = tmp_path / "transform.json"
    path.write_text(json.dumps({**GOOD_TRANSFORM, **change}))
    assert _one_error_line(["transform", vdb_file, str(path), *argv],
                           capsys) == f"error: {message}\n"


def test_the_invariance_report_reads_no_psi(vdb_file, tmp_path, capsys):
    # psi enters F by its gradient alone, whose curl is zero: a psi whose
    # gradient overflows F-bar leaves the report as psi = 0 makes it
    reports = []
    for psi1 in ("0", "1e308*t1*t1"):
        path = tmp_path / "transform.json"
        path.write_text(json.dumps({**GOOD_TRANSFORM, "psi1": psi1}))
        capsys.readouterr()
        assert run(["transform", vdb_file, str(path), "--report-invariance",
                    "--points", "0.5,1.0", "--json"]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1] and reports[0].err == ""


def test_rank_without_a_metric_file_or_a_seed_is_one_error_line(capsys):
    assert _one_error_line(["rank", "--set", "fundamental6"], capsys) \
        == "error: rank needs a metric file or --random SEED\n"


def test_equiv_overlapping_on_part_of_the_samples_is_inconclusive(
        vdb_file, capsys):
    # A's rectangle (t1 from 1 down to 0) and vdb's default one, B's,
    # overlap in part: a third of A's samples and two thirds of B's match
    capsys.readouterr()
    assert run(["equiv", vdb_file, vdb_file, "--grid", "3",
                "--rect-a=1:0,0.7:1.5", "--json"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert (out["verdict"], out["coverage_a"], out["coverage_b"]) \
        == ("Inconclusive", 1 / 3, 2 / 3)
    assert out["note"].startswith("the classifying manifolds overlap only "
                                  "on part of the samples")


@pytest.mark.parametrize("argv", [
    ["invariants", "{vdb}", "--at", "0.5,1"],
    ["check-relations", "{vdb}", "--grid", "2"]])
def test_a_value_error_inside_a_layer_is_a_traceback(vdb_file, monkeypatch,
                                                     argv):
    # a programming error, not an input error: run lets it propagate
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("a layer's own bug")
    monkeypatch.setattr(metrics, "point_jets", broken)
    with pytest.raises(np.linalg.LinAlgError, match="a layer's own bug"):
        run([a.format(vdb=vdb_file) for a in argv])
