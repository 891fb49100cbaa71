"""qsdsim benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload ensemble_wide --seed 1 --seconds 20 --trace 0

Run from a checkout: the program is imported from its ``src`` directory.
With --trace 0 the last line of output is a JSON object with the
end-to-end metrics setup_s, solve_s and peak_rss_mb; with --trace 1 it
holds the per-layer metrics of a traced run, and the spans are written
to bench/out/.  Either way the outputs of the last pass are checked
against independent references, and ``correct`` says whether they held.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def cap_blas_threads() -> int:
    """Keep BLAS/OpenMP pools at most nproc wide; must run before numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cur = int(os.environ.get(var, nproc))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))
    return nproc


def import_program():
    """qsdsim from this checkout's src/; exits non-zero if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qsdsim
    except ImportError as exc:
        sys.exit(f"bench: cannot import qsdsim from {src}: {exc}")
    where = Path(qsdsim.__file__).resolve()
    if src.resolve() not in where.parents:
        sys.exit(f"bench: qsdsim came from {where}, not from {src}")
    return qsdsim


def probe_setup(args) -> float:
    """Seconds from starting a fresh process until it is ready to solve."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe",
           repr(time.time())]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"bench: setup probe failed (exit {proc.returncode}): "
                 f"{proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(wl, q, tally) -> dict:
    """One pass of the workload's solve calls; failures are counted."""
    out = {}
    for name, call in wl.operations(q):
        tally["attempted"] += 1
        try:
            out[name] = call()
        except Exception:  # a failed operation is data, not a crash
            tally["failed"] += 1
            if name not in tally["reported"]:
                tally["reported"].add(name)
                print(f"operation {name} failed:", file=sys.stderr)
                traceback.print_exc()
    return out


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(args, wl, q, tally):
    from hostspeed import speed_factor

    wl.setup(q)
    # A median time is divided by the median host speed factor timed
    # among its samples, so that drift of the shared machine between
    # runs cancels (see hostspeed.py).  One kernel sample is noisier
    # than a pass, so the factors are pooled rather than paired.
    setup, setup_factors = [], []
    for _ in range(SETUP_PROBES):
        setup_factors.append(speed_factor())
        setup.append(probe_setup(args))
    run_pass(wl, q, tally)  # warm-up
    times, factors = [], [speed_factor()]
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        out = run_pass(wl, q, tally)
        times.append(time.perf_counter() - t0)
        factors.append(speed_factor())
    # ru_maxrss is in KiB on Linux; read before the references allocate
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{len(times)} timed passes; wall median "
          f"{statistics.median(times):.4f} s (min {min(times):.4f}, max "
          f"{max(times):.4f}); host speed factor median "
          f"{statistics.median(factors):.3f}; setup wall median "
          f"{statistics.median(setup):.3f} s")
    metrics = {
        "setup_s": metric(statistics.median(setup)
                          / statistics.median(setup_factors), "s"),
        "solve_s": metric(statistics.median(times)
                          / statistics.median(factors), "s"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    }
    return out, metrics


def traced(args, wl, q, tally):
    from tracing import LAYER_METRICS, Tracer, aggregate, layer_metrics, \
        write_spans

    tracer = Tracer()
    tracer.install()
    wl.setup(q)
    tracer.uninstall()
    setup_spans = tracer.take()
    run_pass(wl, q, tally)  # warm-up
    plain, timed, spans = [], [], []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        run_pass(wl, q, tally)
        plain.append(time.perf_counter() - t0)
        tracer.install()
        t0 = time.perf_counter()
        try:
            out = run_pass(wl, q, tally)
        finally:
            tracer.uninstall()
        timed.append(time.perf_counter() - t0)
        spans += tracer.take()

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
    write_spans(trace_path, {"setup": setup_spans, "solve": spans})
    print(f"{len(timed)} traced passes; spans in "
          f"{trace_path.relative_to(ROOT)}")

    passes = len(timed)
    agg = aggregate(spans)
    metrics = {name: metric(v, unit) for name, (v, unit) in
               layer_metrics(agg, passes, wl.traj_steps_per_pass).items()}
    build = aggregate(setup_spans).get("model.build_operators")
    metrics["model.build_operators.s"] = metric(
        build["total_s"] if build else 0.0, "s")
    steps = agg.get("qsd.step", {"work": 0})["work"] / passes
    metrics["qsd.traj_steps_per_s"] = metric(
        steps / statistics.median(plain), "1/s")
    metrics["trace.solve_s"] = metric(statistics.median(timed), "s")
    metrics["trace.overhead_s"] = metric(
        statistics.median(timed) - statistics.median(plain), "s")
    absent = [name for name, (span, _, _) in LAYER_METRICS.items()
              if span in tracer.absent]
    if absent:
        print("absent from the program (reported as 0): " + ", ".join(absent))
    return out, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, metavar="SPAWN_TIME",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cap_blas_threads()
    q = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_probe is not None:
        wl.setup(q)
        # wall clock, shared with the parent that spawned this process
        print(time.time() - args.setup_probe)
        return 0

    tally = {"attempted": 0, "failed": 0, "reported": set()}
    out, metrics = (traced if args.trace else end_to_end)(args, wl, q, tally)
    try:
        faults = wl.check(q, out)
    except Exception as exc:  # missing or malformed output
        traceback.print_exc()
        faults = [f"check raised {exc!r}"]
    for fault in faults:
        print(f"CHECK FAILED: {fault}")
    for name, val in metrics.items():
        print(f"{name} = {val['value']:.6g} {val['unit']}")
    print(f"attempted = {tally['attempted']}, failed = {tally['failed']}")
    print(json.dumps({"correct": not faults,
                      "attempted": tally["attempted"],
                      "failed": tally["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
