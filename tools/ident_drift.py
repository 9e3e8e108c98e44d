"""Float drift between two byte-identity records of tools/ident.py.

    python3 tools/ident_drift.py OLD.jsonl NEW.jsonl

The ops of the two records are paired by workload, seed, argv and
occurrence.  For each workload and op kind (the command, argv[0]) the
script prints how many ops differ and names the first of them (in the
order of their keys), then each change of exit code or ``verdict``,
each op only one record has, and, for each JSON key of the ops' stdout
whose value moved, the worst floor-1 relative difference
|old - new| / max(1, |old|, |new|) (perfbench's ``rel_err``) and the
worst plain relative difference |old - new| / max(|old|, |new|).  Keys
name nested values by their path, list indices dropped
(``witness.a_point``); a stdout that is not JSON is compared as one
value, ``<text>``, and so is a key whose value changed type or is not a
number.  The ``file`` records are compared by digest.  Nothing is printed
for a workload whose ops are byte-identical; the exit code is 0 either
way.
"""

from __future__ import annotations

import json
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


def _parsed(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _verdict(stdout):
    parsed = _parsed(stdout)
    return parsed.get("verdict") if isinstance(parsed, dict) else None


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _drift(old, new):
    """{key: (floor-1 relative, relative)} of the values that moved
    between two stdouts; a value that is not a number, or a structure
    that changed, moves by inf."""
    a, b = _parsed(old), _parsed(new)
    if a is None or b is None:
        return {"<text>": (float("inf"),) * 2} if old != new else {}
    la, lb = list(_leaves(a)), list(_leaves(b))
    if [k for k, _ in la] != [k for k, _ in lb]:
        return {"<structure>": (float("inf"),) * 2}
    out = {}
    for (key, x), (_, y) in zip(la, lb):
        if x == y:
            continue
        if _number(x) and _number(y):
            d = abs(x - y)
            rel = (d / max(1.0, abs(x), abs(y)), d / max(abs(x), abs(y)))
        else:
            rel = (float("inf"),) * 2
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
