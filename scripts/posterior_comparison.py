#!/usr/bin/env python3
"""Compare POV-quadrature posteriors against the analytic Gamma/Beta densities.

Prints one line per observed value with the sup-norm gap on the canonical
grid, both total masses, and the central 90% credible interval.  Use
--json to dump the full tables for plotting.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from cohstat.inference import (
    FockCoherentFamily,
    SpinCoherentFamily,
    analytic_binomial_posterior,
    analytic_poisson_posterior,
    credible_interval,
    infer_via_pov,
)
from cohstat.spin import build_spin_rep

POISSON_COUNTS = (0, 1, 5, 20)
BINOMIAL_CASES = ((1, 0), (2, 1), (10, 3), (30, 30))


def poisson_case(n):
    pov = infer_via_pov(n, FockCoherentFamily(max(64, n + 1)))
    analytic = analytic_poisson_posterior(n, pov.grid)
    return pov, analytic


def binomial_case(n, k):
    pov = infer_via_pov(k, SpinCoherentFamily(build_spin_rep(n / 2.0)))
    analytic = analytic_binomial_posterior(n, k, pov.grid)
    return pov, analytic


def describe(label, pov, analytic):
    sup = float(np.abs(pov.density - analytic.density).max())
    low, high = credible_interval(pov, 0.9)
    print(
        f"{label:<18} sup|pov-analytic| {sup:9.2e}   "
        f"mass pov {pov.total_mass:+.3e}  analytic {analytic.total_mass:+.3e}   "
        f"90% interval [{low:.4f}, {high:.4f}]"
    )
    return {
        "label": label,
        "grid": pov.grid.tolist(),
        "density_pov": pov.density.tolist(),
        "density_analytic": analytic.density.tolist(),
        "sup_abs_diff": sup,
        "interval_90": [low, high],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", type=Path, help="write full tables to this path")
    args = parser.parse_args()

    records = []
    print("Poisson observations, rate parameter lambda = |alpha|^2")
    for n in POISSON_COUNTS:
        records.append(describe(f"poisson n={n}", *poisson_case(n)))

    print("\nBinomial observations, success parameter p = sin^2(theta/2)")
    for n, k in BINOMIAL_CASES:
        records.append(describe(f"binomial n={n} k={k}", *binomial_case(n, k)))

    if args.json:
        args.json.write_text(json.dumps(records, indent=2) + "\n")
        print(f"\nwrote {args.json}")


if __name__ == "__main__":
    main()
