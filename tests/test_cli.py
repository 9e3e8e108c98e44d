import json

import numpy as np
import pytest

from g2inv import catalog
from g2inv.cli import dumps, run
from g2inv.transform import apply_to_metric, make_transform


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


def test_usage_error_exit_code():
    assert run(["invariants"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["invariants", "/nonexistent.json", "--at", "0,0"]) == 2


def test_float_formatting_17_digits():
    x = 1.0 / 3.0
    text = dumps({"x": x})
    assert format(x, ".17g") in text
    assert json.loads(text)["x"] == x


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    # K_Xiperp comes out NaN here
    k_nan = _submersion_file(tmp_path, {
        "gt11": "exp(120*t1)", "gt12": "0", "gt22": "-1",
        "F11": "exp(120*t1)", "F12": "0", "F21": "exp(120*t1)*t2",
        "F22": "t2*exp(-120*t1)", "h11": "cosh(120*t1)",
        "h12": "exp(120*t1)", "h22": "-1"})
    assert run(["invariants", k_nan, "--at", "0.742,0.633", "--order", "2",
                "--json"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert run(["grid", k_nan, "--t1", "0.742:0.742:1", "--t2",
                "0.633:0.633:1", "--order", "2", "--json"]) == 0
    row, = json.loads(capsys.readouterr().out)["rows"]
    assert row == {"t1": 0.742, "t2": 0.633, "C_rho": None, "C_chi": None,
                   "Q_chi": None, "Q_gamma": None, "ell_C": None,
                   "Theta_I_sq": None}
