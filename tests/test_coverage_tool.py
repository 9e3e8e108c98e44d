"""tools/coverage.py's tracer and report, on a small module of its own."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).parents[1] / "tools" / "coverage.py"
_SPEC = importlib.util.spec_from_file_location("coverage_tool", _PATH)
coverage_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(coverage_tool)

MODULE = '''\
def reached(x):
    if x:
        return "reached"
    return "unreached"


def deep(n):
    return deep(n + 1)


def guarded():
    try:
        deep(0)
    except RecursionError:
        return "caught"
'''


def test_the_report_names_the_unreached_statement_and_the_deep_test(
        tmp_path):
    (tmp_path / "mod.py").write_text(MODULE)
    spec = importlib.util.spec_from_file_location("mod", tmp_path / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    tracer = coverage_tool.Tracer(tmp_path)
    tracer.start("tests/test_x.py::test_deep")
    try:
        assert mod.reached(True) == "reached"
        # the handler after the recursion limit is traced too
        assert mod.guarded() == "caught"
    finally:
        tracer.stop()
    assert coverage_tool.report(str(tmp_path), tracer.hits, tracer.off,
                                label="pkg") == [
        'pkg/mod.py:4: return "unreached"',
        "unreached: 1 of 7 function-body statements in pkg",
        "tracer switched off in 1 tests:",
        "  tests/test_x.py::test_deep"]
