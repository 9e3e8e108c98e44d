"""Statement coverage of src/g2inv by tier-1, with the standard library
alone.

    python tools/coverage.py CHECKOUT

The script copies CHECKOUT to a temporary directory and puts this file in
the copy's ``src`` as ``sitecustomize.py``.  Every Python process whose
``PYTHONPATH`` holds that ``src`` then starts a ``sys.settrace`` line
tracer limited to the copy's ``src/g2inv``: the tier-1 run itself, and the
``python -m g2inv`` subprocesses its tests start.  Tier-1 runs with
``--hypothesis-seed=0``, and a pytest hook of the same module installs the
tracer again at each test and names the test to the subprocesses.

It prints each statement inside a function body of ``src/g2inv`` that no
test reached, with its text, then the count, the tests in which the tracer
was switched off, and pytest's last line::

    src/g2inv/metrics.py:290: raise failure
    unreached: 1 of 1495 function-body statements in src/g2inv
    tracer switched off in 7 tests:
      tests/test_cli.py::test_deep_component_is_an_input_error[parse]
      ...
    tier-1: 795 passed, 3 xfailed in 165.87s (0:02:45)

A RecursionError inside a traced call switches a trace hook off: the
interpreter switches off the hook it was calling when the program met the
recursion limit.  The tracer keeps a profile function that takes a few
frames more than its own trace functions, so that hook is the one switched
off; the tracer puts it back at its next call, and the handler that catches
the RecursionError is traced.  A traced program meets the limit a few
frames early.

Nothing in CHECKOUT is written.  The exit status is 0 unless the tool or
pytest itself fails; a failing test is reported in pytest's last line.
"""

import ast
import atexit
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile

OUT = "G2INV_COVERAGE_OUT"    # the directory each traced process writes to
TEST = "G2INV_COVERAGE_TEST"  # the test that started a subprocess


def _canary(frame, event, arg, margin=3):
    """The profile function while tracing.  It takes margin frames more than
    the trace functions do, so a program that recurses to the limit meets
    it here first: the interpreter switches this function off, not the
    tracer, and the tracer puts it back at its next call."""
    if margin:
        _canary(frame, event, arg, margin - 1)


class Tracer:
    """Line hits in the files under root, and the names of the tests in
    which a RecursionError switched the profile function or the tracer
    off."""

    def __init__(self, root):
        self.root = os.path.join(os.path.abspath(root), "")
        self.hits = {}  # file name: set of line numbers
        self.off = set()
        self.test = None
        self._locals = {}
        self._trace = self._call
        self._saved = None

    def _call(self, frame, event, arg):
        if sys.getprofile() is not _canary:
            self.off.add(self.test)
            sys.setprofile(_canary)
        name = frame.f_code.co_filename
        local = self._locals.get(name)
        if local is None and name.startswith(self.root):
            lines = self.hits.setdefault(name, set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local
            self._locals[name] = local
        return local

    def start(self, test):
        """Trace this thread from its next call on, as part of test."""
        if self._saved is None:
            self._saved = sys.gettrace(), sys.getprofile()
        elif sys.gettrace() is not self._trace:
            self.off.add(self.test)
        self.test = test
        sys.settrace(self._trace)
        sys.setprofile(_canary)

    def stop(self):
        """Give back the trace and profile functions start found."""
        trace, profile = self._saved
        self._saved = None
        sys.setprofile(profile)
        sys.settrace(trace)


def statements(path):
    """(first, last, text) of each statement inside a function body of the
    file, docstrings, global and nonlocal left out.  first is a decorated
    definition's first decorator; a statement is reached when a line from
    first to last is, as a compound statement is when one of its own
    statements is."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines, found = source.splitlines(), []

    def visit(node, in_function):
        body = getattr(node, "body", None)
        for child in ast.iter_child_nodes(node):
            docstring = (isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                         and child is body[0]
                         and isinstance(child, ast.Expr)
                         and isinstance(child.value, ast.Constant)
                         and isinstance(child.value.value, str))
            if (in_function and isinstance(child, ast.stmt) and not docstring
                    and not isinstance(child, (ast.Global, ast.Nonlocal))):
                first = min([d.lineno for d in getattr(
                    child, "decorator_list", ())] + [child.lineno])
                found.append((first, child.end_lineno,
                              lines[child.lineno - 1].strip()))
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source, path), False)
    return sorted(found)


def report(root, hits, off, label):
    """The report's lines: the unreached function-body statements of the
    .py files under root (named label/<path under root>), their count and
    the tests in which the tracer was switched off."""
    out, total = [], 0
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"),
                                 recursive=True)):
        seen = hits.get(os.path.abspath(path), ())
        name = os.path.join(label, os.path.relpath(path, root))
        for first, last, text in statements(path):
            total += 1
            if not any(line in seen for line in range(first, last + 1)):
                out.append(f"{name}:{first}: {text}")
    out.append(f"unreached: {len(out)} of {total} function-body statements "
               f"in {label}")
    out.append(f"tracer switched off in {len(off)} tests:")
    out += [f"  {test}" for test in sorted(off)]
    return out


# -- in a traced process, as sitecustomize --------------------------------

_TRACER = None


def _begin():
    global _TRACER
    _TRACER = Tracer(os.path.join(os.path.dirname(__file__), "g2inv"))
    _TRACER.start(os.environ.get(TEST))
    atexit.register(_dump)


def _dump():
    _TRACER.stop()
    record = {"hits": {k: sorted(v) for k, v in _TRACER.hits.items()},
              "off": sorted(t for t in _TRACER.off if t is not None)}
    name = os.path.join(os.environ[OUT], f"{os.getpid()}.json")
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def pytest_runtest_setup(item):
    os.environ[TEST] = item.nodeid
    _TRACER.start(item.nodeid)


if __name__ == "sitecustomize" and os.environ.get(OUT):
    _begin()


# -- the command ----------------------------------------------------------

def main(argv):
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="g2inv-coverage-") as tmp:
        copy, out = os.path.join(tmp, "checkout"), os.path.join(tmp, "out")
        shutil.copytree(argv[0], copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache",
            ".benchmarks", "_work", "_out"))
        os.mkdir(out)
        src = os.path.join(copy, "src")
        shutil.copy(__file__, os.path.join(src, "sitecustomize.py"))
        # pytest cannot rewrite the asserts of a plugin imported at start
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "sitecustomize",
             "-W", "ignore::pytest.PytestAssertRewriteWarning",
             "--continue-on-collection-errors", "--hypothesis-seed=0"],
            cwd=copy, env=dict(os.environ, PYTHONPATH=src, **{OUT: out}),
            capture_output=True, text=True)
        if done.returncode not in (0, 1):
            sys.stderr.write(done.stdout + done.stderr)
            return 1
        hits, off = {}, set()
        for name in glob.glob(os.path.join(out, "*.json")):
            with open(name, encoding="utf-8") as fh:
                record = json.load(fh)
            for path, lines in record["hits"].items():
                hits.setdefault(path, set()).update(lines)
            off.update(record["off"])
        lines = report(os.path.join(src, "g2inv"), hits, off,
                       os.path.join("src", "g2inv"))
    tail = done.stdout.strip().splitlines()
    print("\n".join(lines + [f"tier-1: {tail[-1] if tail else '(none)'}"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
