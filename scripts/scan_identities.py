#!/usr/bin/env python3
"""Mesh-refinement scan of the ladder Gram identities.

Prints the max-entry residual of the q = 1 and q = 2 identities across a
sequence of step sizes, together with the observed convergence orders.
"""

import argparse
import math

import numpy as np

from landau.fields import FieldSpec, build_gauge
from landau.operator import RadialMesh
from landau.projections import gram_identity_residual, zero_mode_basis


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--r-max", type=float, default=16.0)
    ap.add_argument("--amp", type=float, default=0.05)
    ap.add_argument("--beta", type=float, default=-3.0)
    ap.add_argument("--modes", type=int, default=12)
    ap.add_argument("--steps", type=float, nargs="+",
                    default=[0.02, 0.01, 0.005])
    args = ap.parse_args()

    b = FieldSpec.power(args.amp, args.beta)
    rows = []
    for h in args.steps:
        mesh = RadialMesh(args.r_max, h)
        gauge = build_gauge(b, 1.0, mesh)
        basis = zero_mode_basis(gauge, args.modes - 1, (1, 2), gram=b)
        r1 = np.max(np.abs(gram_identity_residual(1, basis, b)))
        r2 = np.max(np.abs(gram_identity_residual(2, basis, b)))
        rows.append((h, r1, r2))

    print(f"{'h':>8} {'q=1 residual':>14} {'q=2 residual':>14} "
          f"{'order q=1':>10} {'order q=2':>10}")
    for k, (h, r1, r2) in enumerate(rows):
        if k == 0:
            print(f"{h:8.4f} {r1:14.3e} {r2:14.3e} {'-':>10} {'-':>10}")
        else:
            h0, p1, p2 = rows[k - 1]
            o1 = math.log(p1 / r1) / math.log(h0 / h)
            o2 = math.log(p2 / r2) / math.log(h0 / h)
            print(f"{h:8.4f} {r1:14.3e} {r2:14.3e} {o1:10.2f} {o2:10.2f}")


if __name__ == "__main__":
    main()
