#!/usr/bin/env python3
"""Benchmark of the landau verification pipeline.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from `src/`
(nothing is installed).  One process runs one workload as a closed loop with
a single client: each operation (one scenario of `workloads.py`: one or more
`landau.cli.main` calls, each on a generated config) starts only when the
previous one has returned, and its artifacts are checked before the next
starts (the checks are not timed).  The loop starts operations for
`--seconds` seconds.  Every run first times `import landau.cli` in fresh
interpreters (set-up) and runs one untimed warm-up operation.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
runs every scenario twice, untraced and traced in alternating order, and
reports the per-layer metrics from the traced copies; spans are written to
`.perfbench_work/trace-<workload>-seed<seed>.json`.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import landau.cli; "
                "print(time.perf_counter() - t)")
LAYERS = ("cli", "fields", "operator", "spectra", "asymptotics", "projections")


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=120)


def measure_setup(samples):
    """Median wall time of `import landau.cli` in fresh interpreters.

    One unrecorded import first, so bytecode compilation is not timed.
    """
    _python("-c", IMPORT_PROBE)
    times = [float(_python("-c", IMPORT_PROBE).stdout) for _ in range(samples)]
    return statistics.median(times), times


def measure_importtime(samples=3):
    """`-X importtime` totals: landau.cli and the scipy.integrate subtree."""
    totals, integrate = [], []
    for _ in range(samples):
        err = _python("-X", "importtime", "-c", "import landau.cli").stderr
        rows = []
        for line in err.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            rows.append((len(name) - len(name.lstrip()), name.strip(),
                         int(cumulative) * 1e-6))
        totals.append(sum(c for _, n, c in rows if n == "landau.cli"))
        # scipy loads `scipy.integrate` lazily and reports only its
        # submodules; sum the outermost of them
        sub = [(d, c) for d, n, c in rows if n.startswith("scipy.integrate")]
        top = min((d for d, _ in sub), default=0)
        integrate.append(sum(c for d, c in sub if d == top))
    return statistics.median(totals), statistics.median(integrate)


def run_metadata():
    """Git SHA (when the tree is a git checkout), a digest of the package
    sources, nproc and the Python / numpy / scipy versions."""
    import numpy
    import scipy
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True,
                                 timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "landau")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


class Run:
    """One workload's closed loop, its checks and its records."""

    def __init__(self, cli, workload, seed, work):
        self.cli = cli
        self.workload = workload
        self.scenarios = workloads.WORKLOADS[workload](seed)
        self.reference = workloads.load_reference(workload, seed)
        self.work = work
        self.records = []  # dicts: scenario, wall, traced, problems
        self.physics = defaultdict(list)
        self.configs = [
            workloads.write_configs(sc, os.path.join(work, f"config{k:03d}"))
            for k, sc in enumerate(self.scenarios)]

    def warm_up(self):
        paths = workloads.write_configs(workloads.WARMUP,
                                        os.path.join(self.work, "warmup"))
        workloads.run_scenario(self.cli, workloads.WARMUP, paths,
                               os.path.join(self.work, "warmup"))

    def operation(self, k, tracer=None):
        sc = self.scenarios[k]
        out = os.path.join(self.work, f"op{len(self.records):05d}")
        if tracer is not None:
            tracer.op = len(self.records)
            tracer.install()
        try:
            t0 = time.perf_counter()
            results = workloads.run_scenario(self.cli, sc, self.configs[k], out)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems, outcomes = workloads.check_scenario(results)
        if self.reference is not None:
            ref = self.reference["scenarios"][k]
            if ref != workloads.reference_entry(sc, ref["outcomes"]):
                problems.append("reference recorded for another scenario")
            problems += workloads.compare_outcomes(ref["outcomes"], outcomes)
        if self.workload == "headline" and not problems:
            physics, bad = workloads.headline_physics(results, self.reference)
            problems += bad
            for key, value in physics.items():
                self.physics[key].append(value)
        shutil.rmtree(out, ignore_errors=True)
        self.records.append({"scenario": k, "wall": wall,
                             "traced": tracer is not None,
                             "problems": problems})

    def loop(self, seconds, tracer=None):
        start = time.perf_counter()
        k = 0
        while True:
            i = k % len(self.scenarios)
            if tracer is None:
                self.operation(i)
            else:  # a pair, untraced and traced, alternating which is first
                for traced in ((False, True) if k % 2 == 0 else (True, False)):
                    self.operation(i, tracer if traced else None)
            k += 1
            if time.perf_counter() - start >= seconds:
                break


def tail(walls):
    """Highest percentile with at least ten operations beyond it."""
    if len(walls) < 11:
        return None
    ordered = sorted(walls)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(run, setup):
    walls = [r["wall"] for r in run.records]
    return {
        "setup_s": setup,
        "op_s.p50": statistics.median(walls),
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(run, tracer, imports):
    traced = [r for r in run.records if r["traced"]]
    n_ops = len(traced)
    values = dict.fromkeys(
        [f"{name}.{stat}" for _, _, name, _ in tracing.TARGETS
         for stat in ("calls", "s", "self_s")]
        + [f"{layer}.self_s" for layer in LAYERS], 0.0)
    for (name, start, end, _, _), own in zip(tracer.spans,
                                             tracer.self_times()):
        values[f"{name}.calls"] += 1
        values[f"{name}.s"] += end - start
        values[f"{name}.self_s"] += own
        if name != "cli.main":  # its own time is glue, in no layer
            values[f"{name.split('.')[0]}.self_s"] += own
    counts = defaultdict(float)
    for per_op in tracer.counts.values():
        for key, value in per_op.items():
            counts[key] += value
    basis_calls = values["projections.zero_mode_basis.calls"]
    self_total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values = {k: v / n_ops for k, v in values.items()}
    for key in ("spectra.channels", "spectra.eigenpairs",
                "spectra.vector_bytes", "cli.io.bytes"):
        values[key] = counts[key] / n_ops
    values["spectra.useful_ratio"] = (
        counts["spectra.cluster_size"] / counts["spectra.eigenpairs"]
        if counts["spectra.eigenpairs"] else 0.0)
    values["projections.basis_dim"] = (
        counts["projections.basis_dim"] / basis_calls if basis_calls else 0.0)
    values["trace.coverage"] = self_total / sum(r["wall"] for r in traced)
    pairs = defaultdict(dict)
    for i, r in enumerate(run.records):
        pairs[i // 2][r["traced"]] = r["wall"]
    values["trace.overhead_s"] = statistics.fmean(
        p[True] - p[False] for p in pairs.values() if len(p) == 2)
    values["import.total_s"], values["import.scipy.integrate_s"] = imports
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "landau", "cli.py")):
        print(f"no landau sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    os.environ["LANDAU_LOG"] = "quiet"
    work = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup, setup_samples = measure_setup(SETUP_SAMPLES)
        imports = measure_importtime() if args.trace else None
        sys.path.insert(0, SRC)
        import landau.cli as cli

        run = Run(cli, args.workload, args.seed, work)
        run.warm_up()
        tracer = tracing.Tracer() if args.trace else None
        run.loop(args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in run.records if r["problems"]]
    if args.trace:
        values = per_layer(run, tracer, imports)
        tracer.dump(os.path.join(
            WORK, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        values = end_to_end(run, setup)

    walls = [r["wall"] for r in run.records if not r["traced"]]
    print(f"landau benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("metadata: " + json.dumps(run_metadata()))
    print(f"operations: {len(run.records)} attempted, {len(failed)} failed "
          f"(fail_ratio {len(failed) / len(run.records):.4g}); "
          f"{len(run.scenarios)} scenarios; setup samples "
          + " ".join(f"{t:.4f}" for t in setup_samples))
    for r in failed[:20]:
        print(f"  FAILED {run.scenarios[r['scenario']].name}: "
              + "; ".join(r["problems"]))
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        t = tail(walls)
        if t is not None:
            print(f"  {'op_s.tail':<48} {t[0]:>14.6g} s "
                  f"(p{t[1]:.1f} of {len(walls)} operations)")
        print(f"  {'fail_ratio':<48} {len(failed) / len(run.records):>14.6g} -")
        for key, vals in run.physics.items():
            unit = "decades" if key == "band_decades" else "-"
            print(f"  {key:<48} {statistics.median(vals):>14.6g} {unit}")
    print(json.dumps({"correct": not failed, "attempted": len(run.records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
