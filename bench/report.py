"""Regenerate the figures quoted in bench/README.md.

    python3 bench/report.py

Prints, as markdown: the machine facts, one untraced and one traced
run of every workload (end-to-end metrics, tracing overhead and the
per-layer metrics), and ensemble_wide's solve call timed at workers=1
and at workers=nproc.  The tracing overhead is the traced minus the
untraced pass time, both wall medians from the traced run, which
alternates the two.  The worker figures are for reference only; the
benchmark itself never passes ``workers``.  Every run uses seed 1.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import cap_blas_threads, import_program  # noqa: E402

SEED = 1
WORKER_REPEATS = 3


def bench_run(workload: str, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts(nproc: int) -> list[str]:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"))
    return [
        f"- nproc (CPU affinity): {nproc}",
        f"- BLAS: {blas.get('name')} {blas.get('version')} "
        f"({blas.get('openblas configuration', '').strip()})",
        f"- thread environment of the benchmark: {env}",
        f"- Python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, {platform.machine()}",
    ]


def worker_figures(nproc: int) -> list[str]:
    """ensemble_wide's run_ensemble at workers=1 and workers=nproc."""
    q = import_program()
    from workloads import EnsembleWide

    wl = EnsembleWide(SEED)
    wl.setup(q)
    rows = []
    for workers in sorted({1, nproc}):
        try:
            q.run_ensemble(wl.cfg, wl.ops, workers=workers)
        except TypeError as exc:
            return [f"- run_ensemble takes no workers argument ({exc})"]
        times = []
        for _ in range(WORKER_REPEATS):
            t0 = time.perf_counter()
            q.run_ensemble(wl.cfg, wl.ops, workers=workers)
            times.append(time.perf_counter() - t0)
        med = statistics.median(times)
        rows.append(f"| {workers} | {med:.3f} | "
                    f"{wl.traj_steps_per_pass / med / 1e3:.0f} k |")
    return (["| workers | run_ensemble s (median of "
             f"{WORKER_REPEATS}) | traj-steps/s |", "| --- | --- | --- |"] + rows)


def main() -> int:
    nproc = cap_blas_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    e2e = [m["name"] for m in spec["end_to_end"]]

    lines = ["### Machine", ""] + machine_facts(nproc)
    lines += ["", f"### Runs (seed {SEED}, {seconds} s each)", "",
              "| workload | " + " | ".join(e2e)
              + " | traced pass (wall) | tracing overhead |",
              "| --- |" + " --- |" * (len(e2e) + 2)]
    layers = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        plain = bench_run(name, seconds, 0)
        layers[name] = bench_run(name, seconds, 1)
        vals = plain["metrics"]
        traced = layers[name]["metrics"]
        wall = traced["trace.solve_s"]["value"]
        extra = traced["trace.overhead_s"]["value"]
        lines.append(
            f"| {name} | "
            + " | ".join(f"{vals[k]['value']:.4g} {vals[k]['unit']}" for k in e2e)
            + f" | {wall:.4g} s | {extra:+.3f} s "
            f"({extra / (wall - extra):+.1%}) |")
        if not (plain["correct"] and layers[name]["correct"]):
            lines.append(f"| {name} | checks FAILED | | | | |")

    names = list(spec["workloads"])
    lines += ["", "### Per-layer metrics (traced runs)", "",
              "| metric | " + " | ".join(w["name"] for w in names) + " |",
              "| --- |" + " --- |" * len(names)]
    for m in spec["per_layer"]:
        row = [f"{layers[w['name']]['metrics'][m['name']]['value']:.4g}"
               for w in names]
        lines.append(f"| {m['name']} ({m['unit']}) | " + " | ".join(row) + " |")

    lines += ["", "### ensemble_wide at workers=1 and workers=nproc", ""]
    lines += worker_figures(nproc)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
