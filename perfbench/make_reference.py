#!/usr/bin/env python3
"""Record the reference outcomes the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  Writes
`perfbench/reference/<workload>-seed0.json`: for every scenario of the
workload at seed 0, its config and the outcome of each command (exit code,
per-q cluster sizes, top Toeplitz eigenvalue).  The headline file also holds
reference cluster shifts: Richardson-extrapolated, (4 s_{h/2} - s_h) / 3,
from `landau verify` on the headline config at h = 0.005 and h = 0.0025,
matched by (m, n).  Timed runs only read these files.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

RICHARDSON_H = (0.005, 0.0025)


def cluster_shifts(cli, h, work):
    """(m, n) -> cluster shift from a headline verify at mesh step h."""
    cfg = json.loads(json.dumps(workloads.HEADLINE_CONFIG))
    cfg["mesh"]["h"] = h
    sc = workloads.Scenario(f"headline h={h}",
                            (workloads.Call("verify", cfg),))
    paths = workloads.write_configs(sc, os.path.join(work, f"h{h}"))
    (_, code, out), = workloads.run_scenario(cli, sc, paths,
                                             os.path.join(work, f"h{h}"))
    if code != 0:
        raise SystemExit(f"headline verify at h={h} exited {code}")
    rows = workloads.read_csv(os.path.join(out, "clusters_q1.csv"))
    return {(int(r["m"]), int(r["n"])): float(r["shift"]) for r in rows}


def record(cli, workload, work):
    seed = workloads.REFERENCE_SEED
    entries = []
    for k, sc in enumerate(workloads.WORKLOADS[workload](seed)):
        prefix = os.path.join(work, f"{workload}{k}")
        paths = workloads.write_configs(sc, prefix)
        results = workloads.run_scenario(cli, sc, paths, prefix)
        problems, outcomes = workloads.check_scenario(results)
        if problems:
            raise SystemExit(f"{workload} {sc.name}: {problems}")
        entries.append(workloads.reference_entry(sc, outcomes))
        print(f"{workload} {sc.name}: " + ", ".join(
            f"{o['command']} exit {o['exit']}" for o in outcomes))
    provenance = {"generated_by": "perfbench/make_reference.py",
                  **run.run_metadata()}
    return {"workload": workload, "seed": seed, "provenance": provenance,
            "scenarios": entries}


def main():
    sys.path.insert(0, run.SRC)
    os.environ["LANDAU_LOG"] = "quiet"
    import landau.cli as cli

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=run.WORK)
    try:
        for workload in workloads.WORKLOADS:
            ref = record(cli, workload, work)
            if workload == "headline":
                coarse, fine = (cluster_shifts(cli, h, work)
                                for h in RICHARDSON_H)
                labels = sorted(set(coarse) & set(fine))
                ref["shifts"] = [[m, n, (4.0 * fine[(m, n)] - coarse[(m, n)])
                                  / 3.0] for m, n in labels]
                ref["shift_method"] = {
                    "mesh_r_max": workloads.MESH_FINE["r_max"],
                    "mesh_h": list(RICHARDSON_H),
                    "formula": "(4 s_{h/2} - s_h) / 3, matched by (m, n)",
                    "labels": len(labels)}
            with open(workloads.reference_path(workload), "w") as fh:
                json.dump(ref, fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
