#!/usr/bin/env python3
"""Measure the localization time across bath temperatures.

For each value of x = hbar omega / k_B T, an ensemble started in the
first excited state is integrated until its mean phase-space spread has
decayed, the decay rate is fitted, and 1/rate is compared against the
predicted localization time tanh(x/2)/gamma.  Results go to stdout and
a CSV.

The per-point basis size, step and window are pinned below: hot baths
need a much larger basis than the mean occupation suggests because
single trajectories overshoot it, while cold baths need a long window
to resolve the slow decay.
"""

import argparse
import csv
import math
import sys

from qsdsim.ensemble import EnsembleConfig, InitialStateSpec, run_ensemble
from qsdsim.model import ModelParams, build_operators
from qsdsim.observables import fit_exponential_decay
from qsdsim.qsd import IntegratorConfig

# x -> (n_fock, dt, t_end, record_stride)
GRID = {
    0.1: (56, 5e-4, 1.0, 10),
    0.3: (48, 5e-4, 2.5, 25),
    1.0: (28, 1e-3, 7.0, 35),
    3.0: (24, 1e-3, 12.0, 60),
    10.0: (24, 1e-3, 12.0, 60),
}


def measure(x, gamma, m, seed):
    n_fock, dt, t_end, stride = GRID[x]
    params = ModelParams(m=1.0, omega=1.0, gamma=gamma, temperature=1.0 / x)
    ops = build_operators(params, n_fock)
    cfg = EnsembleConfig(
        m=m, base_seed=seed,
        integrator=IntegratorConfig(dt=dt, t_end=t_end, record_stride=stride),
        initial=InitialStateSpec(kind="fock", n=1))
    stats = run_ensemble(cfg, ops)
    fit = fit_exponential_decay(stats.times, stats.means["delta_alpha_sq"],
                                stats.stderrs["delta_alpha_sq"])
    t_loc = params.t_loc
    return {
        "x": x, "nbar": params.nbar, "n_fock": n_fock,
        "t_loc": t_loc, "t_measured": 1.0 / fit.rate,
        "ratio": (1.0 / fit.rate) / t_loc,
        "rate": fit.rate, "rate_ci95": fit.ci95,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=0.2)
    ap.add_argument("--m", type=int, default=300, help="trajectories per point")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="localization_scan.csv")
    args = ap.parse_args()

    rows = []
    print(f"{'x':>6} {'nbar':>10} {'t_loc':>8} {'t_meas':>8} {'ratio':>7}")
    for x in sorted(GRID):
        row = measure(x, args.gamma, args.m, args.seed)
        rows.append(row)
        print(f"{row['x']:6.2f} {row['nbar']:10.4g} {row['t_loc']:8.4f} "
              f"{row['t_measured']:8.4f} {row['ratio']:7.3f}")
        if not 1.0 / 3.0 < row["ratio"] < 3.0:
            print(f"  warning: ratio outside factor 3 at x={x}",
                  file=sys.stderr)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
