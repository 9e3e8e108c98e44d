import importlib.util
import json
import pathlib

_PATH = pathlib.Path(__file__).parents[1] / "tools" / "ident_drift.py"
_SPEC = importlib.util.spec_from_file_location("ident_drift", _PATH)
ident_drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ident_drift)


def _record(path, ops, files=()):
    with open(path, "w", encoding="utf-8") as fh:
        for argv, code, out in ops:
            fh.write(json.dumps(["op", "equiv", 1, argv, code, out, ""])
                     + "\n")
        for name, digest in files:
            fh.write(json.dumps(["file", "equiv", 1, name, digest]) + "\n")
    return str(path)


def _report(stdout):
    return json.dumps({"verdict": "Consistent", "max_discrepancy": 2e-12,
                       "witness": {"a_point": [0.5, 1.0]}, **stdout})


def test_identical_records_report_nothing(tmp_path):
    ops = [(["equiv", "a", "b"], 0, _report({}))]
    old = _record(tmp_path / "old.jsonl", ops, [("a.json", "0f")])
    assert ident_drift.report(old, old) == ["no op or file differs"]


def test_float_drift_is_the_worst_per_key_and_verdicts_are_named(tmp_path):
    old = _record(tmp_path / "old.jsonl", [
        (["equiv", "a", "b"], 0, _report({})),
        (["equiv", "a", "c"], 0, _report({})),
        (["equiv", "a", "d"], 0, _report({})),
        (["grid", "a"], 0, "t1,t2\n0.5,1\n")], [("a.json", "0f")])
    new = _record(tmp_path / "new.jsonl", [
        (["equiv", "a", "b"], 0, _report({"max_discrepancy": 3e-12})),
        (["equiv", "a", "c"], 0, _report({
            "witness": {"a_point": [0.5, 1.0 + 4e-12]}})),
        (["equiv", "a", "d"], 1, _report({"verdict": "Inconsistent"})),
        (["grid", "a"], 0, "t1,t2\n0.5,1\n")], [("a.json", "1e")])
    lines = ident_drift.report(old, new)
    assert lines[0] == "equiv equiv: 3 of 3 ops differ"
    assert "exit 0 -> 1, seed 1: `equiv a d`" in lines[1]
    assert "verdict Consistent -> Inconsistent, seed 1: `equiv a d`" \
        in lines[2]
    assert lines[3:] == [
        "  max_discrepancy: worst floor-1 relative 1e-12, relative 0.33",
        "  verdict: worst floor-1 relative inf, relative inf",
        "  witness.a_point: worst floor-1 relative 4e-12, relative 4e-12",
        "file equiv seed 1 a.json: digest differs"]
