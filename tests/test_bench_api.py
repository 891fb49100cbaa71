"""The benchmark's workloads run against the package as it is.

bench/workloads.py calls qsdsim through its public names, some of them
with positional arguments.  Each workload's setup and one pass of its
operations run here, so a change to a name or a signature it uses fails
these tests, not only a benchmark run.
"""
import importlib
import sys
from pathlib import Path

import pytest

import qsdsim

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("workloads")
    for name in ("workloads", "reference"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["ensemble_wide", "trajectory_records",
                                  "oracle_histories"])
def test_bench_workload_runs_one_pass(workloads, name):
    workload = workloads.WORKLOADS[name](1)
    workload.setup(qsdsim)
    out = {op: call() for op, call in workload.operations(qsdsim)}
    # the other two checks build dense reference propagators, seconds each
    if name == "trajectory_records":
        assert workload.check(qsdsim, out) == []
