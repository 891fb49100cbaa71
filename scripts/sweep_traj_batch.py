"""Sweep the trajectory batch size: microseconds per trajectory-step.

    PYTHONPATH=src python scripts/sweep_traj_batch.py
    PYTHONPATH=src python scripts/sweep_traj_batch.py --n-fock 40 --batch 128 256

For each (n_fock, B) this times the compiled stepping loop on a
(B, n_fock) batch through its driver ``qsd._integrate``, with its noise
draw and no samples in between, net of the driver's fixed cost per
call: (t(steps) - t(1)) / ((steps - 1) B), from a call of --steps steps
and one of a single step.  It also times ``run_ensemble`` with its
batch size set to B on about 1024 trajectories (a whole number of
batches), fixed costs included.  The model is acceptance
criterion 8's oscillator (omega = 2, gamma = 0.5, nbar = 0.5, coherent
start, dt = 1e-3).  Batch sizes are interleaved within each repeat, so
slow phases of a shared machine spread over all of them; the tables give
the median over the repeats, as markdown.
"""

from __future__ import annotations

import argparse
import statistics
import time
from dataclasses import replace

import numpy as np

import qsdsim
from qsdsim import ensemble, qsd


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-fock", type=int, nargs="+", default=[24, 40, 56])
    ap.add_argument("--batch", type=int, nargs="+",
                    default=[1, 9, 64, 128, 192, 256, 320, 384, 512])
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    if args.steps < 2:
        ap.error("--steps must be at least 2")
    par = qsdsim.ModelParams(omega=2.0, gamma=0.5,
                             temperature=qsdsim.temperature_for_nbar(0.5))
    kernel_us = {}
    driver_us = {}
    for n in args.n_fock:
        ops = qsdsim.build_operators(par, n)
        psi0 = qsdsim.coherent_state(ops, 0.6 + 0.8j)
        # an untimed call, so the library's first load times nothing
        qsd._integrate(ops, psi0[None].copy(), qsd._seed_streams([0]),
                       qsdsim.IntegratorConfig(dt=1e-3, t_end=1e-3), 0,
                       lambda p, mom, s: None)
        runs = {b: ([], []) for b in args.batch}
        for _ in range(args.repeat):
            for b in args.batch:
                took = []
                for steps in (1, args.steps):
                    icfg = qsdsim.IntegratorConfig(
                        dt=1e-3, t_end=steps * 1e-3, record_stride=steps)
                    psis = np.tile(psi0, (b, 1))
                    streams = qsd._seed_streams(range(b))
                    t0 = time.perf_counter()
                    qsd._integrate(ops, psis, streams, icfg, 0,
                                   lambda p, mom, s: None)
                    took.append(time.perf_counter() - t0)
                runs[b][0].append((took[1] - took[0])
                                  / ((args.steps - 1) * b))
                m = b * max(2, 1024 // b)
                cfg = qsdsim.EnsembleConfig(
                    m=m, base_seed=1,
                    integrator=replace(icfg, record_stride=50),
                    initial=qsdsim.InitialStateSpec(kind="coherent",
                                                    alpha=0.6 + 0.8j))
                ensemble.TRAJ_BATCH = b
                t0 = time.perf_counter()
                qsdsim.run_ensemble(cfg, ops)
                runs[b][1].append((time.perf_counter() - t0)
                                  / (args.steps * m))
        for b, (k_runs, d_runs) in runs.items():
            kernel_us[n, b] = 1e6 * statistics.median(k_runs)
            driver_us[n, b] = 1e6 * statistics.median(d_runs)
    for title, table in (("compiled loop with noise draw, net of a "
                          "one-step call", kernel_us),
                         ("run_ensemble", driver_us)):
        print(f"\n{title}, us per trajectory-step (median of "
              f"{args.repeat})\n")
        print("| `n_fock` | " + " | ".join(f"B={b}" for b in args.batch)
              + " |")
        print("| --- " * (len(args.batch) + 1) + "|")
        for n in args.n_fock:
            print(f"| {n} | " + " | ".join(f"{table[n, b]:.2f}"
                                           for b in args.batch) + " |")


if __name__ == "__main__":
    main()
