"""Show where two directories of CLI outputs differ, and by how much.

    python scripts/compare_outputs.py DIR_A DIR_B

Compares every file with the same relative path under the two
directories (recursively) byte for byte. For each file that differs it
prints:

- a CSV table: the number of rows that differ, the first ten of them
  from both sides, and the largest |delta| over their numeric fields;
- a JSON file (``.events.json``, ``.meta.json``): every value that is
  null on one side and a number on the other, every flag (true/false)
  that flips, every other non-numeric value that changes, and the
  largest |delta| over the numeric values;
- any other file: that it differs.

Files found on one side only are listed as well. Exits with 0 when
every file is identical and 1 otherwise. Takes no options.
"""

import json
import math
import sys
from pathlib import Path

SHOWN_ROWS = 10


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _delta(x, y):
    # |x - y| of two floats, 0 for NaN against NaN, inf for NaN against a number
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    return abs(x - y)


def compare_csv(a, b):
    lines_a = a.decode().splitlines()
    lines_b = b.decode().splitlines()
    out = []
    if lines_a[:1] != lines_b[:1]:
        out.append("  header differs")
    if len(lines_a) != len(lines_b):
        out.append(f"  {len(lines_a) - 1} rows against {len(lines_b) - 1}")
    rows = [k for k in range(1, min(len(lines_a), len(lines_b))) if lines_a[k] != lines_b[k]]
    worst = 0.0
    for k in rows:
        for x, y in zip(lines_a[k].split(","), lines_b[k].split(",")):
            x, y = _number(x), _number(y)
            if x is not None and y is not None:
                worst = max(worst, _delta(x, y))
    out.append(f"  {len(rows)} rows differ, max |delta| {worst:.3g}")
    for k in rows[:SHOWN_ROWS]:
        out += [f"  row {k}:", f"    < {lines_a[k]}", f"    > {lines_b[k]}"]
    if len(rows) > SHOWN_ROWS:
        out.append(f"  ... {len(rows) - SHOWN_ROWS} more rows")
    return out


def _walk(x, y, path, out, worst):
    # the changes between two JSON values at path; returns the largest |delta|
    if isinstance(x, dict) and isinstance(y, dict):
        for key in sorted(set(x) | set(y)):
            if key not in x or key not in y:
                out.append(f"  {path}.{key}: only in {'B' if key not in x else 'A'}")
            else:
                worst = _walk(x[key], y[key], f"{path}.{key}", out, worst)
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        for k, (u, v) in enumerate(zip(x, y)):
            worst = _walk(u, v, f"{path}[{k}]", out, worst)
    elif isinstance(x, bool) or isinstance(y, bool):
        if x != y:
            out.append(f"  {path}: flag {x} -> {y}")
    elif isinstance(x, (int, float)) and isinstance(y, (int, float)):
        worst = max(worst, _delta(float(x), float(y)))
    elif (x is None) != (y is None) and isinstance(y if x is None else x, (int, float)):
        out.append(f"  {path}: null flip {x} -> {y}")
    elif x != y:
        out.append(f"  {path}: {json.dumps(x)[:60]} -> {json.dumps(y)[:60]}")
    return worst


def compare_json(a, b):
    out = []
    worst = _walk(json.loads(a), json.loads(b), "", out, 0.0)
    return out + [f"  max |delta| {worst:.3g}"]


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: compare_outputs.py DIR_A DIR_B")
    dir_a, dir_b = (Path(d) for d in argv)
    names_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    differ = False
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {'A' if name in names_a else 'B'}")
        differ = True
    for name in sorted(names_a & names_b):
        a = (dir_a / name).read_bytes()
        b = (dir_b / name).read_bytes()
        if a == b:
            continue
        differ = True
        print(f"{name}: differs")
        if name.suffix == ".csv":
            print("\n".join(compare_csv(a, b)))
        elif name.suffix == ".json":
            print("\n".join(compare_json(a, b)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
