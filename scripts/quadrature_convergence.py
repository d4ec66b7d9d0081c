#!/usr/bin/env python3
"""Convergence study for the plane-measure quadrature.

Sweeps the radial node count and cutoff and reports the resolution-of-
identity residual on the leading basis block.  Useful when picking
n_r / cutoff for larger truncations than the defaults.
"""

import argparse

from cohstat.inference import FockCoherentFamily, plane_quadrature, resolution_of_identity_check


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trunc", type=int, default=32, help="tracked basis size")
    parser.add_argument("--block", type=int, default=20, help="leading block to test")
    args = parser.parse_args()

    family = FockCoherentFamily(args.trunc)
    n_angle = 2 * args.trunc + 1
    print(f"trunc={args.trunc} block={args.block} n_angle={n_angle}")
    print(f"{'cutoff':>8} {'n_r':>6} {'identity residual':>18}")
    for cutoff in (6.0, 8.0, 10.0, 12.0):
        for n_r in (25, 50, 100, 200):
            rule = plane_quadrature((0.0, cutoff), n_r, n_angle)
            identity = resolution_of_identity_check(family, rule, n_basis=args.block)
            print(f"{cutoff:8.1f} {n_r:6d} {identity:18.3e}")


if __name__ == "__main__":
    main()
