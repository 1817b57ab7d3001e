#!/usr/bin/env python3
"""Artifact oracle: run the CLI over a fixed set of calls and compare trees.

    python3 scripts/compare_artifacts.py OUT [--against OTHER]

Runs `landau.cli.main` in-process, from the `src/` of the checkout this
script sits in, over:

- the five commands on every `configs/*.json`;
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
the exit status is 1 on any difference.  OUT must be empty or absent.
"""

import argparse
import contextlib
import filecmp
import glob
import io
import json
import os
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
    os.environ["LANDAU_LOG"] = "quiet"
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
    total, differ = compare(out, os.path.abspath(args.against))
    for path in differ:
        print(f"differs: {path}")
    print(f"{total} files, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
