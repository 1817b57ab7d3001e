#!/usr/bin/env python3
"""Cold-start wall time of each `landau` command, against another checkout.

    python3 scripts/time_commands.py --against OTHER [--pairs 10]

Each call is `python -m landau.cli COMMAND --config configs/quick.json` in
a new interpreter with the `src/` of a checkout on PYTHONPATH, so the time
includes the interpreter start and every import the command pays for.
One untimed call per checkout and command comes first, so bytecode
compilation is not timed.  Each pair then runs the command once on this
checkout and once on OTHER (the root of another checkout, e.g. the parent
commit), in alternating order; the table gives both medians and the number
of pairs in which this checkout was faster.  A call that exits with 2
(config error) or 3 (numeric failure) stops the script with exit status 1.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "quick.json")
COMMANDS = ("spectrum", "verify", "weights", "toeplitz", "identities")


def timed_call(tree, command, out):
    """Wall seconds of one fresh-process call on the checkout `tree`."""
    env = dict(os.environ, LANDAU_LOG="quiet",
               PYTHONPATH=os.path.join(tree, "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "landau.cli", command, "--config", CONFIG,
         "--out", out], env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=600)
    wall = time.perf_counter() - start
    if done.returncode not in (0, 1):
        raise SystemExit(f"{command} on {tree} exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    return wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True,
                        help="root of another checkout")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("need --pairs >= 1")
    trees = (ROOT, os.path.abspath(args.against))

    walls = [{c: [] for c in COMMANDS} for _ in trees]
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out")
        for tree in trees:
            for command in COMMANDS:
                timed_call(tree, command, out)
        for k in range(args.pairs):
            order = (1, 0) if k % 2 else (0, 1)
            for command in COMMANDS:
                for i in order:
                    walls[i][command].append(
                        timed_call(trees[i], command, out))

    print(f"config {CONFIG}, {args.pairs} alternating pairs, "
          "wall seconds per fresh-process call (median)")
    print("| command | this checkout | --against | faster pairs |")
    print("|---|---|---|---|")
    for command in COMMANDS:
        mine, theirs = walls[0][command], walls[1][command]
        wins = sum(a < b for a, b in zip(mine, theirs))
        print(f"| {command} | {statistics.median(mine):.3f} |"
              f" {statistics.median(theirs):.3f} | {wins}/{args.pairs} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
