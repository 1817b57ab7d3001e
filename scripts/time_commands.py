#!/usr/bin/env python3
"""Cold-start wall time and peak RSS of each `landau` command, against
another checkout.

    python3 scripts/time_commands.py --against OTHER [--pairs 10]
                                     [--config configs/quick.json]

Each call is `python -m landau.cli COMMAND --config CONFIG` in a new
interpreter with the `src/` of a checkout on PYTHONPATH, so the time
includes the interpreter start and every import the command pays for, and
the peak resident set size (`ru_maxrss` of the call's own rusage, from
`os.wait4`) includes every module it loads.  One untimed call per checkout
and command comes first, so bytecode compilation is not timed.  Each pair
then runs the command once on this checkout and once on OTHER (the root of
another checkout, e.g. the parent commit), in alternating order; the table
gives both medians of each measure and the number of pairs in which this
checkout was faster.  A call that exits with 2 (config error) or 3 (numeric
failure) stops the script with exit status 1.

CONFIG defaults to this checkout's configs/quick.json;
configs/headline.json runs every command on the fine mesh (R = 30,
h = 0.005).
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "quick.json")
COMMANDS = ("spectrum", "verify", "weights", "toeplitz", "identities")


def timed_call(tree, command, config, out):
    """Wall seconds and peak RSS in MiB of one fresh-process call on the
    checkout `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    with tempfile.TemporaryFile(mode="w+") as err:
        start = time.perf_counter()
        call = subprocess.Popen(
            [sys.executable, "-m", "landau.cli", command, "--config", config,
             "--out", out], env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(600.0, call.kill)  # a hung call
        watchdog.start()
        try:
            _, status, usage = os.wait4(call.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        call.returncode = os.waitstatus_to_exitcode(status)  # reaped here
        if call.returncode not in (0, 1):
            err.seek(0)
            raise SystemExit(f"{command} on {tree} exited {call.returncode}: "
                             f"{err.read().strip()}")
    return wall, usage.ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True,
                        help="root of another checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--config", default=CONFIG,
                        help="config file of every call (default: "
                             "configs/quick.json of this checkout)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("need --pairs >= 1")
    trees = (ROOT, os.path.abspath(args.against))
    config = os.path.abspath(args.config)
    if not os.path.isfile(config):
        parser.error(f"no config file {config}")

    calls = [{c: [] for c in COMMANDS} for _ in trees]  # (wall, rss)
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out")
        for tree in trees:
            for command in COMMANDS:
                timed_call(tree, command, config, out)
        for k in range(args.pairs):
            order = (1, 0) if k % 2 else (0, 1)
            for command in COMMANDS:
                for i in order:
                    calls[i][command].append(
                        timed_call(trees[i], command, config, out))

    print(f"config {config}, {args.pairs} alternating pairs, medians of "
          "each fresh-process call: wall seconds and peak RSS (MiB)")
    print("| command | this checkout | --against | faster pairs "
          "| this checkout MiB | --against MiB |")
    print("|---|---|---|---|---|---|")
    for command in COMMANDS:
        (mine, mine_rss), (theirs, theirs_rss) = (
            zip(*side[command]) for side in calls)
        wins = sum(a < b for a, b in zip(mine, theirs))
        print(f"| {command} | {statistics.median(mine):.3f} |"
              f" {statistics.median(theirs):.3f} | {wins}/{args.pairs} |"
              f" {statistics.median(mine_rss):.1f} |"
              f" {statistics.median(theirs_rss):.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
