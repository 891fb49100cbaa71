#!/usr/bin/env python3
"""Run every canned experiment config through the CLI.

Every config in configs/ is an experiment, run by the command its file
name starts with, "-" written "_": oracle_compare.json is run by
oracle-compare, histories_cat.json by histories.  Each experiment
writes its outputs (CSV/JSON and manifest.json, plus a gnuplot stub,
plot.gp, for stationary, localize and thermalize) into its own
subdirectory of --out, named after its config.  Exits nonzero if any
experiment fails its own pass conditions.
"""

import argparse
import subprocess
import sys
import time
from pathlib import Path

from qsdsim.cli import REQUIRED_SECTIONS

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def experiments() -> list[tuple[str, Path]]:
    """(command, config path) of every canned config, in name order."""
    found = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        command = next((c for c in REQUIRED_SECTIONS if f"{path.stem}_"
                        .startswith(c.replace("-", "_") + "_")), None)
        if command is None:
            raise SystemExit(f"{path.name}: its name starts with no command")
        found.append((command, path))
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs", help="output root directory")
    args = ap.parse_args()

    root = Path(args.out)
    worst = 0
    for command, config in experiments():
        name = config.stem
        dest = root / name
        cmd = [sys.executable, "-m", "qsdsim", command,
               "--config", str(config), "--out", str(dest)]
        t0 = time.monotonic()
        code = subprocess.run(cmd).returncode
        took = time.monotonic() - t0
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{name:<22s} {took:6.1f} s  {status}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
