"""Float drift between two byte-identity records of tools/ident.py.

    python3 tools/ident_drift.py OLD.jsonl NEW.jsonl

The ops of the two records are paired by workload, seed, argv and
occurrence.  For each workload and op kind (the command, argv[0]) the
script prints how many ops differ and names the first of them (in the
order of their keys), then each change of exit code or ``verdict``,
each op only one record has, and, for each JSON key of the ops' stdout
whose value moved, the worst floor-1 relative difference
|old - new| / max(1, |old|, |new|) (perfbench's ``rel_err``) and the
worst plain relative difference |old - new| / max(|old|, |new|).  A
stdout is read as a JSON document, a ``grid --csv`` table or a
plain-text report, and its values are compared one by one: a JSON
document's leaves, keyed by their path with list indices dropped
(``witness.a_point``); a table's cells, keyed by the column's header; a
plain-text report's ``key: value`` and ``- value`` lines, in order,
keyed by the path of the ``key:`` lines above them
(``first_order.points.q_ric``).  A value that is not a number moves by
inf; a stdout whose keys changed is one value, ``<structure>``.  The
``file`` records are compared by digest.  Nothing is printed for a
workload whose ops are byte-identical; the exit code is 0 either way.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter, defaultdict


def _records(path):
    """{(workload, seed, argv, occurrence): record} of the ops and
    {(workload, seed, name): digest} of the files of one record."""
    ops, files, seen = {}, {}, Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec[0] == "op":
                key = (rec[1], rec[2], tuple(rec[3]))
                seen[key] += 1
                ops[key + (seen[key],)] = rec
            else:
                files[tuple(rec[1:4])] = rec[4]
    return ops, files


def _leaves(x, path=""):
    """(path, value) of every leaf of a JSON value, list indices
    dropped from the path."""
    if isinstance(x, dict):
        for key, value in x.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(x, list):
        for value in x:
            yield from _leaves(value, path)
    else:
        yield path, x


def _text_leaves(stdout):
    """(path, text) of each value of a grid --csv table (keyed by its
    header) or of a plain-text report (keyed by the ``key:`` lines above
    it, by their indentation)."""
    lines = stdout.splitlines()
    if lines and "," in lines[0] and ": " not in lines[0]:
        header = lines[0].split(",")
        for line in lines[1:]:
            yield from zip(header, line.split(","))
        return
    above = []  # (indent, key) of the enclosing "key:" lines
    for line in filter(None, lines):
        body = line.lstrip(" ")
        indent = len(line) - len(body)
        while above and above[-1][0] >= indent:
            above.pop()
        path = [key for _, key in above]
        key, sep, value = body.partition(": ")
        if body.startswith("- "):  # an item of the list of the key above
            yield ".".join(path), body[2:]
        elif sep:
            yield ".".join(path + [key]), value
        else:
            above.append((indent, body[:-1]))


def _values(stdout):
    """(key, value) of each value of a stdout, as the module docstring
    reads it."""
    parsed = _parsed(stdout)
    return list(_text_leaves(stdout) if parsed is None else _leaves(parsed))


def _parsed(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _verdict(stdout):
    parsed = _parsed(stdout)
    return parsed.get("verdict") if isinstance(parsed, dict) else None


def _number(x):
    """x as a float if it is a number or a text that reads as one."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _drift(old, new):
    """{key: (floor-1 relative, relative)} of the values that moved
    between two stdouts; a value that is not a number, or that moved
    from or to inf or NaN, moves by inf, and a change of keys is one
    value, <structure>, that moves by inf."""
    la, lb = _values(old), _values(new)
    if [k for k, _ in la] != [k for k, _ in lb]:
        return {"<structure>": (math.inf,) * 2}
    out = {}
    for (key, a), (_, b) in zip(la, lb):
        x, y = _number(a), _number(b)
        if a == b or (x is not None and x == y):
            continue
        d = math.inf if x is None or y is None else abs(x - y)
        rel = ((d / max(1.0, abs(x), abs(y)), d / max(abs(x), abs(y)))
               if math.isfinite(d) else (math.inf,) * 2)
        out[key] = tuple(map(max, out.get(key, (0.0, 0.0)), rel))
    return out


def report(old_path, new_path):
    """The lines of the drift summary."""
    (old_ops, old_files), (new_ops, new_files) = (
        _records(old_path), _records(new_path))
    groups = defaultdict(lambda: {"ops": 0, "differ": 0, "first": None,
                                  "notes": [], "worst": {}})
    for key in sorted(old_ops.keys() | new_ops.keys(), key=repr):
        workload, seed, argv, _ = key
        g = groups[(workload, argv[0])]
        g["ops"] += 1
        old, new = old_ops.get(key), new_ops.get(key)
        if old == new:
            continue
        g["differ"] += 1
        where = f"seed {seed}: `{' '.join(argv)}`"
        g["first"] = g["first"] or where
        if old is None or new is None:
            g["notes"].append(f"only in {'NEW' if old is None else 'OLD'}, "
                              f"{where}")
            continue
        if old[4] != new[4]:
            g["notes"].append(f"exit {old[4]} -> {new[4]}, {where}")
        verdicts = [_verdict(rec[5]) for rec in (old, new)]
        if verdicts[0] != verdicts[1]:
            g["notes"].append(f"verdict {verdicts[0]} -> {verdicts[1]}, "
                              f"{where}")
        if old[6] != new[6]:
            g["notes"].append(f"stderr differs, {where}")
        for name, rel in _drift(old[5], new[5]).items():
            g["worst"][name] = tuple(map(max, g["worst"].get(name, rel), rel))
    lines = []
    for (workload, kind), g in sorted(groups.items()):
        if not g["differ"]:
            continue
        lines.append(f"{workload} {kind}: {g['differ']} of {g['ops']} ops "
                     "differ")
        lines.append(f"  first: {g['first']}")
        lines += [f"  {note}" for note in g["notes"]]
        lines += [f"  {name}: worst floor-1 relative {f1:.2g}, relative "
                  f"{rel:.2g}"
                  for name, (f1, rel) in sorted(g["worst"].items())]
    moved = sorted((k for k in old_files.keys() | new_files.keys()
                    if old_files.get(k) != new_files.get(k)), key=repr)
    lines += [f"file {w} seed {s} {name}: digest differs"
              for w, s, name in moved]
    return lines or ["no op or file differs"]


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        sys.exit(2)
    print("\n".join(report(*sys.argv[1:])))
