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
    assert lines[1] == "  first: seed 1: `equiv a b`"
    assert "exit 0 -> 1, seed 1: `equiv a d`" in lines[2]
    assert "verdict Consistent -> Inconsistent, seed 1: `equiv a d`" \
        in lines[3]
    assert lines[4:] == [
        "  max_discrepancy: worst floor-1 relative 1e-12, relative 0.33",
        "  verdict: worst floor-1 relative inf, relative inf",
        "  witness.a_point: worst floor-1 relative 4e-12, relative 4e-12",
        "file equiv seed 1 a.json: digest differs"]


def test_the_first_differing_op_of_each_kind_is_named(tmp_path):
    # a float drift alone names no op in a note: the first line after the
    # count names the first op that differs, in the order of the keys
    grid = "t1,t2\n0.5,1\n"
    old = _record(tmp_path / "old.jsonl", [
        (["equiv", "a", "b"], 0, _report({})),
        (["equiv", "a", "c"], 0, _report({})),
        (["grid", "a"], 0, grid), (["grid", "b"], 0, grid)])
    new = _record(tmp_path / "new.jsonl", [
        (["equiv", "a", "b"], 0, _report({})),
        (["equiv", "a", "c"], 0, _report({"max_discrepancy": 3e-12})),
        (["grid", "a"], 0, grid.replace(",1\n", ",2\n")),
        (["grid", "b"], 0, grid.replace(",1\n", ",3\n"))])
    assert ident_drift.report(old, new) == [
        "equiv equiv: 1 of 2 ops differ",
        "  first: seed 1: `equiv a c`",
        "  max_discrepancy: worst floor-1 relative 1e-12, relative 0.33",
        "equiv grid: 2 of 2 ops differ",
        "  first: seed 1: `grid a`",
        "  t2: worst floor-1 relative 0.67, relative 0.67"]


def test_a_table_or_plain_text_report_is_compared_value_by_value(tmp_path):
    # a grid --csv table by its header, a plain-text report by the path of
    # its keys; a changed header is a change of structure
    grid = "t1,t2,C_rho\n0.5,1,nan\n0.5,2,-4\n"
    text = ("command: rank\nfirst_order:\n  max_residual: 1e-16\n"
            "  pass: True\n  points:\n    point:\n      - 0.5\n      - 1\n"
            "    q_ric: 0\nnote: a, b\n")
    old = _record(tmp_path / "old.jsonl", [
        (["grid", "a"], 0, grid), (["grid", "b"], 0, grid),
        (["rank", "a"], 0, text)])
    new = _record(tmp_path / "new.jsonl", [
        (["grid", "a"], 0, grid.replace("nan", "3").replace("-4", "-5")),
        (["grid", "b"], 0, grid.replace("C_rho", "C_chi")),
        (["rank", "a"], 0, text.replace("1e-16", "3e-16")
         .replace("- 1\n", "- 1.5\n").replace("True", "False"))])
    assert ident_drift.report(old, new) == [
        "equiv grid: 2 of 2 ops differ",
        "  first: seed 1: `grid a`",
        "  <structure>: worst floor-1 relative inf, relative inf",
        "  C_rho: worst floor-1 relative inf, relative inf",
        "equiv rank: 1 of 1 ops differ",
        "  first: seed 1: `rank a`",
        "  first_order.max_residual: worst floor-1 relative 2e-16, "
        "relative 0.67",
        "  first_order.pass: worst floor-1 relative inf, relative inf",
        "  first_order.points.point: worst floor-1 relative 0.33, "
        "relative 0.33"]
