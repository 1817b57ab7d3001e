#!/usr/bin/env python3
"""Artifact oracle: run the CLI over a fixed set of calls and compare trees.

    python3 scripts/compare_artifacts.py OUT [--against OTHER]

Runs `landau.cli.main` in-process, from the `src/` of the checkout this
script sits in, over:

- the five commands on every `configs/*.json`, and `verify --q 2,3` on
  `configs/headline.json`;
- `spectrum --q 0,1,2` on `configs/quick.json`, and `spectrum` and
  `weights` on it with `mesh`, `lambda` and `bands` removed, so the top
  of the solve and the defaults of the config record are read;
- `verify` and `weights` on quick with a gaussian b, a field without a
  power decay class, and `weights` on quick with the `schroedinger`
  operator, whose weight carries the spin-down copy of b;
- `verify --q 0,1,2` on quick, every q from one build of the run, and
  `verify --q 5` and `--q 1,5` on quick with b and V zero, where no
  Toeplitz check runs, so the zero-mode ladder limit (level 5) does not
  fire;
- every call of the `sweep` workload at seeds 0 and 1;
- every call of the `zero-modes` workload at seed 0;
- the `headline` workload.

The workload scenarios come from `perfbench/workloads.py`, which is only
read.  Each call writes its artifacts to its own directory under OUT
together with `console.txt` (its stdout and stderr); the exit codes go to
`OUT/exits.json`.  Calls run with OUT as the working directory and
relative paths, so the trees of two checkouts compare byte for byte.

With `--against OTHER` (a tree written by this script, e.g. from the parent
commit) the files that differ or exist on one side only are listed, and
the exit status is 1 on any difference.  For each differing file the
largest absolute and relative difference of every float column (CSV), key
(JSON, list indices folded into `[]`) or number in a line of text is
printed; differences that are not between two finite floats (row or list
counts, integers, flags, strings, NaN) are listed apart, after all files,
as OTHER's value -> OUT's value.  The rows of a CSV with `m` and `n`
columns (a spectrum or a cluster table) pair up by that label, and labels
on one side only are listed as such.  Two other CSVs with different row
counts, and two JSON lists of different lengths, are listed by their
counts only, not compared element by element.
OUT must be empty or absent.
"""

import argparse
import contextlib
import csv
import filecmp
import glob
import io
import json
import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from landau import cli  # noqa: E402

COMMANDS = ("spectrum", "verify", "weights", "toeplitz", "identities")


def calls():
    """(call directory, Call) for every call the oracle runs, in order."""
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        with open(path) as fh:
            config = json.load(fh)
        name = os.path.splitext(os.path.basename(path))[0]
        for command in COMMANDS:
            yield (os.path.join("configs", name, command),
                   workloads.Call(command, config))
        if name == "headline":  # T_q against T_0 past q = 1 on the fine mesh
            yield (os.path.join("configs", name, "verify-q2,3"),
                   workloads.Call("verify", config, [2, 3]))
        if name == "quick":  # e_max from max q = 2; the record's defaults
            yield (os.path.join("configs", name, "spectrum-q0,1,2"),
                   workloads.Call("spectrum", config, [0, 1, 2]))
            bare = {key: value for key, value in config.items()
                    if key not in ("mesh", "lambda", "bands")}
            for command in ("spectrum", "weights"):
                yield (os.path.join("configs", "quick-defaults", command),
                       workloads.Call(command, bare))
            gaussian = dict(config, b={"terms": [
                {"kind": "gaussian", "amp": 0.05, "center": 3.0,
                 "width": 1.5}], "beta": -3.0})
            for command in ("verify", "weights"):
                yield (os.path.join("configs", "quick-gaussian-b", command),
                       workloads.Call(command, gaussian))
            yield (os.path.join("configs", "quick-schroedinger", "weights"),
                   workloads.Call("weights",
                                  dict(config, operator="schroedinger")))
            yield (os.path.join("configs", name, "verify-q0,1,2"),
                   workloads.Call("verify", config, [0, 1, 2]))
            zero = dict(config, b={"terms": []}, V={"terms": []})
            for qs in ([5], [1, 5]):
                yield (os.path.join("configs", "quick-zero-field",
                                    "verify-q" + ",".join(map(str, qs))),
                       workloads.Call("verify", zero, qs))
    runs = [("sweep", 0), ("sweep", 1), ("zero-modes", 0), ("headline", 0)]
    for workload, seed in runs:
        for scenario in workloads.WORKLOADS[workload](seed):
            for j, call in enumerate(scenario.calls):
                yield (os.path.join(f"{workload}-seed{seed}", scenario.name,
                                    f"{j}-{call.command}"), call)


def run(out):
    """Write every call's artifacts under `out`; returns the exit codes."""
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        raise SystemExit(f"{out} is not empty")
    exits = {}
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for call_dir, call in calls():
            os.makedirs(call_dir)
            config = os.path.join(call_dir, "config.json")
            with open(config, "w") as fh:
                json.dump(call.config, fh, sort_keys=True)
            console = io.StringIO()
            with contextlib.redirect_stdout(console), \
                    contextlib.redirect_stderr(console):
                try:
                    code = cli.main(call.argv(config, call_dir))
                except Exception as exc:  # recorded, then compared
                    code = f"raised {type(exc).__name__}: {exc}"
            with open(os.path.join(call_dir, "console.txt"), "w") as fh:
                fh.write(console.getvalue())
            exits[call_dir] = code
    finally:
        os.chdir(cwd)
    with open(os.path.join(out, "exits.json"), "w") as fh:
        json.dump(exits, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return exits


def _files(top):
    found = set()
    for dirpath, _, names in os.walk(top):
        for name in names:
            found.add(os.path.relpath(os.path.join(dirpath, name), top))
    return found


def compare(out, other):
    """Relative paths that differ between the trees, or exist in one only."""
    mine, theirs = _files(out), _files(other)
    differ = sorted(mine ^ theirs)
    for path in sorted(mine & theirs):
        if not filecmp.cmp(os.path.join(out, path), os.path.join(other, path),
                           shallow=False):
            differ.append(path)
    return len(mine | theirs), differ


class FileDiff:
    """How two versions of one file differ, per column, key or text line."""

    def __init__(self):
        self.floats = {}  # name -> [max abs, max rel] over finite floats
        self.other = {}   # name -> [count, first example]

    def note(self, name, what):
        entry = self.other.setdefault(name, [0, what])
        entry[0] += 1

    def value(self, name, a, b):
        if a == b or (a != a and b != b):  # two NaNs count as equal
            return
        if (type(a) is float and type(b) is float
                and math.isfinite(a) and math.isfinite(b)):
            err = abs(a - b)
            entry = self.floats.setdefault(name, [0.0, 0.0])
            entry[0] = max(entry[0], err)
            entry[1] = max(entry[1], err / max(abs(a), abs(b)))
        else:
            self.note(name, f"{a!r} -> {b!r}")


def _scalar(text):
    """A CSV cell or a number in text as int, float or (failing both) str."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _diff_csv(a, b, diff):
    rows_a, rows_b = list(csv.reader(a)), list(csv.reader(b))
    notes_a = [r for r in rows_a if r and r[0].startswith("#")]
    notes_b = [r for r in rows_b if r and r[0].startswith("#")]
    if notes_a != notes_b:
        diff.note("comment", f"{notes_a} -> {notes_b}")
    rows_a = [r for r in rows_a if r and not r[0].startswith("#")]
    rows_b = [r for r in rows_b if r and not r[0].startswith("#")]
    head = rows_a[0] if rows_a else []
    if not rows_a or not rows_b or head != rows_b[0]:
        diff.note("columns", f"{rows_a[:1]} -> {rows_b[:1]}")
        return
    pairs = _by_label(head, rows_a[1:], rows_b[1:], diff)
    if pairs is None:
        if len(rows_a) != len(rows_b):  # rows no longer pair up by position
            diff.note("rows", f"{len(rows_a) - 1} -> {len(rows_b) - 1}")
            return
        pairs = zip(rows_a[1:], rows_b[1:])
    for row_a, row_b in pairs:
        for name, x, y in zip(head, row_a, row_b):
            diff.value(name, _scalar(x), _scalar(y))


def _by_label(head, rows_a, rows_b, diff):
    """Rows of a CSV with `m` and `n` columns, paired by the label (m, n):
    a roundoff reorder of near-equal E is then no difference.  Labels on
    one side only are noted as such.  None when the CSV has no such
    columns or a label repeats."""
    if not {"m", "n"} <= set(head):
        return None
    m, n = head.index("m"), head.index("n")
    a, b = ({(row[m], row[n]): row for row in rows}
            for rows in (rows_a, rows_b))
    if len(a) != len(rows_a) or len(b) != len(rows_b):
        return None
    for side, only in (("OTHER", a.keys() - b.keys()),
                       ("OUT", b.keys() - a.keys())):
        for label in sorted(only, key=lambda k: tuple(map(_scalar, k))):
            diff.note(f"labels only in {side}", "(%s, %s)" % label)
    return [(row, b[key]) for key, row in a.items() if key in b]


def _diff_json(a, b, diff, name=""):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{name}.{key}" if name else key
            if key in a and key in b:
                _diff_json(a[key], b[key], diff, sub)
            else:
                diff.note(sub, "only in " + ("OTHER" if key in a else "OUT"))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):  # elements no longer pair up by position
            diff.note(name + "[]", f"length {len(a)} -> {len(b)}")
            return
        for x, y in zip(a, b):
            _diff_json(x, y, diff, name + "[]")
    else:
        diff.value(name, a, b)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _diff_text(a, b, diff):
    lines_a, lines_b = a.read().splitlines(), b.read().splitlines()
    if len(lines_a) != len(lines_b):
        diff.note("lines", f"{len(lines_a)} -> {len(lines_b)}")
    for k, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if _NUMBER.sub("#", x) != _NUMBER.sub("#", y):
            diff.note(f"line {k}", f"{x!r} -> {y!r}")
            continue
        for u, v in zip(_NUMBER.findall(x), _NUMBER.findall(y)):
            diff.value(f"line {k}", _scalar(u), _scalar(v))


def describe(out, other, path):
    """FileDiff of one relative path present in both trees."""
    diff = FileDiff()
    with open(os.path.join(other, path)) as a, \
            open(os.path.join(out, path)) as b:
        if path.endswith(".csv"):
            _diff_csv(a, b, diff)
        elif path.endswith(".json"):
            _diff_json(json.load(a), json.load(b), diff)
        else:
            _diff_text(a, b, diff)
    return diff


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to write the artifacts to")
    parser.add_argument("--against", metavar="OTHER",
                        help="tree to compare with, written by this script")
    args = parser.parse_args(argv)

    out = os.path.abspath(args.out)
    exits = run(out)
    codes = sorted(map(str, exits.values()))
    print(f"{len(exits)} calls; "
          + ", ".join(f"exit {c}: {codes.count(c)}" for c in sorted(set(codes))))
    if args.against is None:
        return 0
    other = os.path.abspath(args.against)
    total, differ = compare(out, other)
    not_float = []
    for path in differ:
        print(f"differs: {path}")
        if not (os.path.exists(os.path.join(out, path))
                and os.path.exists(os.path.join(other, path))):
            not_float.append(f"{path}: only in one tree")
            continue
        diff = describe(out, other, path)
        for name, (err, rel) in diff.floats.items():
            print(f"  {name}: max abs {err:.3g}, max rel {rel:.3g}")
        for name, (count, first) in diff.other.items():
            not_float.append(f"{path}: {name}: {count} (first {first})")
    if not_float:
        print("differences that are not between two finite floats:")
        for line in not_float:
            print(f"  {line}")
    print(f"{total} files, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
