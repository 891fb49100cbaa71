"""How fast the host runs right now, from a fixed calibration kernel.

On a shared machine the same work can take up to 1.7x longer for
minutes at a time.  The kernel below does a fixed mix of the three
kinds of work the workloads do: interpreter-bound Python, small-array
numpy calls and 40x40 complex matrix products, about equal parts.
Timed between the passes of a run, its median gives a speed factor
that divides the drift out of the run's median pass time.  Nothing here calls qsdsim, so a change to
the program leaves the kernel's time unchanged.
"""

from __future__ import annotations

import time

import numpy as np

#: About the median time of ``kernel`` on the 2-core box the README's
#: figures come from (0.13 to 0.21 s there).  The value only fixes the
#: unit: times divided by the speed factor read in seconds at that speed.
KERNEL_REF_S = 0.15

_rng = np.random.default_rng(20260101)
_A = (_rng.standard_normal((40, 40)) + 1j * _rng.standard_normal((40, 40))) / 40
_X0 = _rng.standard_normal((64, 40)) + 0j
_M = (_rng.standard_normal((9, 40, 40))
      + 1j * _rng.standard_normal((9, 40, 40))) / 40


def kernel() -> None:
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    x = _X0.copy()
    for _ in range(800):
        y = x @ _A
        x = y / np.sqrt(np.einsum("bi,bi->b", y.conj(), y).real)[:, None]
    m = _M.copy()
    for _ in range(300):
        m = (m @ _M) * 0.5 + _M


def speed_factor() -> float:
    """Kernel time now over its reference time (> 1: host slower)."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) / KERNEL_REF_S
