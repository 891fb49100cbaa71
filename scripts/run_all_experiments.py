#!/usr/bin/env python3
"""Run every canned experiment config through the CLI.

Each experiment writes its outputs (CSV/JSON, manifest, gnuplot stub)
into its own subdirectory of --out.  Exits nonzero if any experiment
fails its own pass conditions.
"""

import argparse
import subprocess
import sys
import time
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

EXPERIMENTS = [
    ("stationary", "stationary.json"),
    ("localize", "localize_fock.json"),
    ("localize", "localize_cat_sweep.json"),
    ("thermalize", "thermalize.json"),
    ("oracle-compare", "oracle_compare.json"),
    ("histories", "histories_cat.json"),
    ("histories", "histories_control.json"),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs", help="output root directory")
    args = ap.parse_args()

    root = Path(args.out)
    worst = 0
    for command, config in EXPERIMENTS:
        name = Path(config).stem
        dest = root / name
        cmd = [sys.executable, "-m", "qsdsim", command,
               "--config", str(CONFIG_DIR / config),
               "--out", str(dest)]
        t0 = time.monotonic()
        code = subprocess.run(cmd).returncode
        took = time.monotonic() - t0
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{name:<22s} {took:6.1f} s  {status}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
