"""Tests of the benchmark itself (not collected by the repository suite).

    python3 -m pytest -q perfbench/bench_selftest.py
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def test_workload_names_match_benchmark_json():
    import run

    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_every_workload(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in proc.stdout


def test_smoke_trace_prints_every_per_layer_metric():
    proc = run_bench("survey", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["check.drift_ops"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out",
                                                  "__pycache__"))
    proc = run_bench("survey", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_generator_is_deterministic(tmp_path):
    a = workloads.generate("equiv", 5, 1, str(tmp_path / "a"))
    b = workloads.generate("equiv", 5, 1, str(tmp_path / "b"))
    c = workloads.generate("equiv", 6, 1, str(tmp_path / "c"))
    assert [worker.op_key(op) for op in a] == [worker.op_key(op) for op in b]
    assert [worker.op_key(op) for op in a] != [worker.op_key(op) for op in c]
    names = sorted(os.listdir(tmp_path / "a"))
    assert filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                            shallow=False)[0] == names


def _equiv_op(image):
    return workloads.Op("equiv", [], {"image": image, "metric": "vdb"})


def _equiv_report(verdict):
    return json.dumps({"verdict": verdict, "note": ""})


def test_checker_flags_flipped_verdicts():
    assert checks.check(_equiv_op(True), 0, _equiv_report("Consistent")) == []
    assert checks.check(_equiv_op(False), 1,
                        _equiv_report("Inconsistent")) == []
    flipped = checks.check(_equiv_op(True), 1, _equiv_report("Inconsistent"))
    assert [code for code, _ in flipped] == ["image_inconsistent:vdb"]
    flipped = checks.check(_equiv_op(False), 0, _equiv_report("Consistent"))
    assert [code for code, _ in flipped] == ["inequivalent_consistent"]
    mismatch = checks.check(_equiv_op(False), 0,
                            _equiv_report("Inconsistent"))
    assert [code for code, _ in mismatch] == ["exit"]


def test_checker_flags_wrong_exit_pass_rank_and_raise():
    op = workloads.Op("check-relations", [], {"exit": 1, "pass": False})
    assert checks.check(op, 1, '{"pass": false}') == []
    codes = [c for c, _ in checks.check(op, 0, '{"pass": true}')]
    assert codes == ["exit", "pass"]
    codes = [c for c, _ in checks.check(op, 1, '{"pass": "False"}')]
    assert codes == ["pass_as_string"]
    op = workloads.Op("rank", [], {"rank": 20})
    assert checks.check(op, 0, '{"rank": 20, "expected_generic": 20}') == []
    # only a rank one or two short is the known defect
    for rank in (19, 18):
        short = checks.check(op, 1, f'{{"rank": {rank}, '
                                    '"expected_generic": 20}')
        assert [c for c, _ in short] == ["rank_below_generic"]
    codes = [c for c, _ in checks.check(
        op, 0, '{"rank": 19, "expected_generic": 20}')]
    assert codes == ["exit", "rank_below_generic"]
    for rank in ("17", "0", "21", "true", "null"):
        lost = checks.check(op, 1, f'{{"rank": {rank}, '
                                   '"expected_generic": 20}')
        assert [c for c, _ in lost] == ["rank"]
    assert [c for c, _ in checks.check(op, 0, '{"rank": NaN}')] \
        == ["unparsable"]
    assert [c for c, _ in checks.check(op, None, "", "ValueError: x")] \
        == ["raised"]


def _vdb_invariants(tmp_path):
    path = workloads._Inputs(str(tmp_path)).catalog("vdb")
    op = workloads.Op("invariants", ["invariants", path, "--at=0.6,1.1",
                                     "--order", "2", "--json"],
                      {"exit": 0, "metric": "vdb"})
    return (op, *worker.run_op(op.argv)[1:])


def test_checker_flags_a_value_perturbed_by_1e6(tmp_path):
    op, code, stdout, error = _vdb_invariants(tmp_path)
    assert checks.check(op, code, stdout, error) == []
    report = json.loads(stdout)
    report["fundamentals"]["ell_C"] *= 1 + 1e-6
    perturbed = json.dumps(report)
    codes = [c for c, _ in checks.check(op, code, perturbed)]
    assert codes == ["vdb_closed_form"]
    drift = checks.max_rel_diff(json.loads(stdout), report)
    assert drift > checks.DRIFT_TOL


def test_fd_comparison_flags_a_difference():
    analytic = {"fundamentals": {"C_rho": 1.0}, "second_order": {"J1": -2.5}}

    def fd_codes(c_rho, j1):
        fd = {"fundamentals": {"C_rho": c_rho}, "second_order": {"J1": j1}}
        return [code for code, _ in checks.fd_failures(fd, analytic)]

    assert fd_codes(1.0 + 5e-7, -2.5 * (1 + 5e-7)) == []
    assert fd_codes(1.0 + 3e-6, -2.5) == ["fd_vs_analytic"]
    assert fd_codes(1.0, -2.5 * (1 + 1e-5)) == ["fd_truncation"]
    assert fd_codes(1.0, -2.5 * (1 + 1e-3)) == ["fd_vs_analytic"]
    assert fd_codes(float("nan"), -2.5) == ["fd_vs_analytic"]
    assert fd_codes(1.0, float("nan")) == ["fd_vs_analytic"]
    assert checks.fd_failures({"fundamentals": {"C_rho": 1.0}}, analytic) \
        != []


def test_known_defects_are_capped_per_run():
    rank = [("rank_below_generic", "")]
    assert checks.unexpected_failures([rank], 8) == []
    assert checks.unexpected_failures([rank] * 3, 64) == []
    assert checks.unexpected_failures([rank] * 4, 64) != []
    assert checks.unexpected_failures([[("rank", "")]], 64) != []
    assert checks.unexpected_failures(
        [[("image_inconsistent:random_analytic", "")]] * 6, 18) == []
    assert checks.unexpected_failures(
        [[("image_inconsistent:vdb", "")]], 18) != []


def test_scaled_time_follows_the_reference_loop():
    ref = speed.REFERENCE_S
    probe = speed.Probe()
    probe.times = [1.0, 2.0, 3.0, 4.0]
    probe.loops = [ref, 2 * ref, 2 * ref, ref]
    assert probe.scaled(2.0, 1.5, 3.5) == pytest.approx(1.0)
    # fewer than two loop times inside: the neighbours count too
    assert probe.scaled(0.1, 2.9, 3.1) == pytest.approx(0.1 / (5 / 3))
    assert probe.scaled(0.1, 0.0, 0.5) == pytest.approx(0.1)
    with speed.Probe() as probe:
        end = time.monotonic() + 0.3
        while time.monotonic() < end:
            pass
    assert len(probe.loops) >= 5
    assert 0 < probe.busy < 0.3
    assert all(0 < loop < 1 for loop in probe.loops)


def test_tracer_self_times_add_up_and_uninstall_restores(tmp_path):
    import g2inv.invariants1
    import g2inv.invariants2

    original = g2inv.invariants1.first_invariant_jets
    op, *_ = _vdb_invariants(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert g2inv.invariants2.first_invariant_jets \
            is g2inv.invariants1.first_invariant_jets is not original
        elapsed, code, _, _ = worker.run_op(op.argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert g2inv.invariants2.first_invariant_jets is original
    total = sum(tracer.self_time.values())
    assert 0.5 * elapsed < total <= elapsed
    assert not any(span[2] in tracing.LEAVES for span in tracer.spans)
    layer = tracer.metrics()
    assert layer["points"][0] >= 1
    assert layer["einstein.riemann4.s"][0] > 0
