#!/usr/bin/env python3
"""Headline experiment: q = 1 cluster counting vs the semiclassical measure.

Reproduces the reference comparison (B0 = 1, b = 0.05 (1+r^2)^{-3/2}, V = 0,
R = 30, h = 0.005) and writes counting_q1.csv plus a JSON summary next to it.
"""

import argparse
import os
import time

import numpy as np

from landau._io import write_csv, write_json
from landau.asymptotics import (VerificationConfig, boundary_sensitivity,
                                cluster_asymptotics_report, compute_cluster,
                                upper_estimate_check)
from landau.fields import FieldSpec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="headline_out")
    ap.add_argument("--r-max", type=float, default=30.0)
    ap.add_argument("--h", type=float, default=0.005)
    ap.add_argument("--amp", type=float, default=0.05)
    ap.add_argument("--beta", type=float, default=-3.0)
    args = ap.parse_args()

    cfg = VerificationConfig(
        B0=1.0, b=FieldSpec.power(args.amp, args.beta), q=1, sign="+",
        r_max=args.r_max, h=args.h)

    t0 = time.monotonic()
    comp = compute_cluster(cfg)
    drift = boundary_sensitivity(comp)
    report = cluster_asymptotics_report(comp)
    fit = upper_estimate_check(comp, report)
    elapsed = time.monotonic() - t0

    os.makedirs(args.out, exist_ok=True)
    meta = {"r_max": cfg.r_max, "h": cfg.h, "amp": args.amp,
            "beta": args.beta, "q": 1, "sign": "+"}
    write_csv(os.path.join(args.out, "counting_q1.csv"),
              ["lambda", "N", "E_measure", "ratio"], report.rows(), meta)
    summary = {
        "cluster_size": len(comp.cluster),
        "defect_floor": comp.defect_floor,
        # single-solve Hadamard estimate of the drift from R to 1.2 R
        "max_drift_estimate": drift.max_drift,
        "trust": [report.trust_lo, report.trust_hi],
        "band_window": list(report.band_window((0.8, 1.2))),
        "ratio_min": float(np.nanmin(report.ratio)),
        "ratio_max": float(np.nanmax(report.ratio)),
        "exponent": fit.exponent,
        "expected_exponent": fit.expected,
        "seconds": elapsed,
    }
    write_json(os.path.join(args.out, "headline_summary.json"), summary)

    print(f"cluster states: {len(comp.cluster)}, defect floor "
          f"{comp.defect_floor:.2e}, drift estimate {drift.max_drift:.2e}")
    print(f"trust region [{report.trust_lo:.3e}, {report.trust_hi:.3e}]")
    print(f"{'lambda':>12} {'N':>5} {'E':>10} {'N/E':>7}")
    for lam, n, e, ratio in report.rows():
        print(f"{lam:12.4e} {int(n):5d} {e:10.3f} {ratio:7.3f}")
    print(f"fitted exponent {fit.exponent:.4f} (prediction {fit.expected:.4f})")
    print(f"total {elapsed:.1f} s")


if __name__ == "__main__":
    main()
