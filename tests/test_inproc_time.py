import pathlib
import re
import subprocess
import sys

_ROOT = pathlib.Path(__file__).parents[1]


def test_inproc_time_prints_one_line_for_the_workload():
    done = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "inproc_time.py"),
         str(_ROOT), "survey", "1", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line, = done.stdout.splitlines()
    got = re.fullmatch(r"survey seed 1: (\d+) ops in (\d+\.\d{4}) s, "
                       r"best of 1", line)
    assert got, line
    assert int(got[1]) > 0 and float(got[2]) > 0.0

