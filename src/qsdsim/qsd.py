"""Trajectory integrator for the nonlinear stochastic state equation.

One Euler-Maruyama step applies

    |dpsi> = -(i/hbar) H |psi> dt
             + sum_n (<L_n^dag> L_n - L_n^dag L_n / 2
                      - <L_n^dag><L_n> / 2) |psi> dt
             + sum_n (L_n - <L_n>) |psi> dxi_n

with all expectations taken in the pre-step state (Ito convention) and
a renormalization afterwards.  The two dxi_n are independent
complex Wiener increments whose real and imaginary parts each carry
variance dt/2.

One driver steps a (B, n_fock) batch of trajectories; a single
trajectory is the B = 1 case and the ensemble runner feeds it batches.
The work is split between two languages.  The compiled loop in
qsd_step.c does the stepping: for every step of a row it applies the
update, measures the norm and its drift, checks the truncation tail
and renormalizes.  It steps the rows in lane groups of four, one row
per lane of a SIMD vector, and each lane rounds exactly as the row
stepped alone, so no result depends on the batch.  Python draws the
noise, calls the loop once per segment between samples, takes the
samples and raises the error of a failed row.  The loop is built with
gcc on first use, never at import.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import (NOISE_BLOCK_STEPS, STEP_GUARD_DISSIPATIVE,
                        STEP_GUARD_OSCILLATORY, TAIL_TOL, TRAJ_BATCH)
from .errors import DimensionError, ParameterError, StepSizeWarning, \
    TrajectoryError
from .model import ModelParams, OperatorSet, normalize, steps_on_grid, \
    tail_levels
from .observables import STAT_FIELDS, ObservableBundle, bundle_arrays

#: Weyl-sequence increment of the splitmix64 stream.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: gcc flags of the stepping loop.  No FMA contraction, so rounding does
#: not depend on the target's instruction set.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def splitmix64(x: int) -> int:
    """One splitmix64 output for the 64-bit input x."""
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trajectory_seed(base_seed: int, index: int) -> int:
    """Decorrelated per-trajectory seed.

    Trajectory k draws the k-th output of the splitmix64 sequence
    seeded at base_seed, so seeds depend only on (base_seed, k), never
    on batching or worker count.
    """
    if index < 0:
        raise ParameterError("trajectory index must be >= 0")
    return splitmix64((base_seed + index * _SPLITMIX_GAMMA) & _MASK64)


def draw_noise_block(rng: np.random.Generator, dt: float,
                     n_steps: int) -> np.ndarray:
    """(n_steps, 2) complex increments, advancing rng by 4 * n_steps normals.

    Row k takes the k-th group of four normals as (Re dxi1, Im dxi1,
    Re dxi2, Im dxi2), so the stream does not depend on the block size.
    """
    z = rng.standard_normal((n_steps, 4)) * math.sqrt(dt / 2.0)
    return z.view(complex)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    seed: int = 0
    record_stride: int = 1  # steps between recorded samples

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if self.t_end < self.dt:
            raise ParameterError("t_end must cover at least one step")
        if self.record_stride < 1:
            raise ParameterError("record_stride must be >= 1")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        steps_on_grid(self.t_end, self.dt, "t_end")

    @property
    def n_steps(self) -> int:
        return steps_on_grid(self.t_end, self.dt, "t_end")

    @property
    def sample_times(self) -> np.ndarray:
        """Times of step 0 and of every record_stride-th step after it."""
        return np.arange(0, self.n_steps + 1, self.record_stride) * self.dt


def check_step_size(dt: float, params: ModelParams) -> None:
    """Warn when dt underresolves the damping or oscillation scale."""
    diss = dt * params.gamma * (params.nbar + 1.0)
    if diss > STEP_GUARD_DISSIPATIVE:
        warnings.warn(
            f"dt*gamma*(nbar+1) = {diss:.3g} exceeds "
            f"{STEP_GUARD_DISSIPATIVE}; damping underresolved",
            StepSizeWarning, stacklevel=2)
    osc = dt * params.omega
    if osc > STEP_GUARD_OSCILLATORY:
        warnings.warn(
            f"dt*omega = {osc:.3g} exceeds {STEP_GUARD_OSCILLATORY}; "
            "oscillation underresolved", StepSizeWarning, stacklevel=2)


@functools.cache
def _compiled_segment():
    """qsd_segment from qsd_step.c, compiled on first use.

    The library is cached in $XDG_CACHE_HOME/qsdsim (default
    ~/.cache/qsdsim) under a hash of the source and the compiler flags,
    so a changed source or flag set builds afresh.  It is written under
    a temporary name and moved into place, so concurrent first uses
    never load a half-written file.
    """
    import hashlib
    import subprocess

    source = (Path(__file__).parent / "qsd_step.c").read_bytes()
    tag = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "qsdsim"
    lib = cache / f"qsd_step-{tag[:16]}.so"
    if not lib.exists():
        gcc = shutil.which("gcc")
        if gcc is None:
            raise RuntimeError("qsdsim compiles its stepping loop "
                               "(qsd_step.c) on first use and needs gcc "
                               "on PATH; none was found")
        cache.mkdir(parents=True, exist_ok=True)
        tmp = cache / f".{lib.name}.{os.getpid()}.tmp"
        proc = subprocess.run([gcc, *_CFLAGS, "-x", "c", "-", "-o", str(tmp),
                               "-lm"], input=source, capture_output=True)
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise RuntimeError("gcc could not build qsd_step.c:\n"
                               + proc.stderr.decode(errors="replace"))
        os.replace(tmp, lib)
    fn = ctypes.CDLL(str(lib)).qsd_segment
    ptr, long_, real = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    fn.argtypes = [long_, long_, long_, ptr, ptr, ptr, long_, real, real,
                   ptr, ptr, long_, ptr, ctypes.POINTER(long_),
                   ctypes.POINTER(real)]
    fn.restype = long_
    return fn


def _integrate(ops: OperatorSet, psis: np.ndarray, rngs: list,
               cfg: IntegratorConfig, first_index: int, on_sample):
    """Step a (B, n_fock) batch from t = 0 to cfg.t_end.

    A C-contiguous complex batch is advanced in place.  Row b draws its
    noise from rngs[b] and is trajectory first_index + b.  Each step is
    renormalized.  on_sample(psis, step) runs at step 0 and every
    record_stride steps.  Returns the batch and, per step, the worst
    pre-renormalization norm drift | ||psi'|| - 1 | over the batch.
    Raises TrajectoryError as soon as a row's relative tail mass, its
    share of ||psi'||^2 in the top tail_levels(n_fock) levels, is above
    TAIL_TOL or not finite.
    """
    psis = np.require(psis, complex, ["C", "W"])  # the loop's memory layout
    if psis.shape != (len(rngs), ops.n_fock):
        raise DimensionError(f"batch of shape {psis.shape} for {len(rngs)} "
                             f"noise streams and {ops.n_fock} levels")
    c, d = np.ascontiguousarray(ops.c), np.ascontiguousarray(ops.d)
    g = (-1j / ops.params.hbar) * ops.h - 0.5 * ops.mu
    n_fock = ops.n_fock
    tail_start = n_fock - tail_levels(n_fock)
    segment = _compiled_segment()
    dt = cfg.dt
    n_steps = cfg.n_steps
    stride = cfg.record_stride
    drift = np.zeros(n_steps)
    fail_step, fail_tail = ctypes.c_long(), ctypes.c_double()
    noise = np.empty((len(rngs), min(NOISE_BLOCK_STEPS, n_steps), 2),
                     dtype=complex)
    on_sample(psis, 0)
    step = 0
    while step < n_steps:
        block = min(NOISE_BLOCK_STEPS, n_steps - step)
        for row, rng in zip(noise, rngs):
            row[:block] = draw_noise_block(rng, dt, block)
        j = 0
        while j < block:
            # a segment ends at the next sample or the end of the block
            n = min(block - j, stride - step % stride)
            worst = segment(
                len(psis), n_fock, n, c.ctypes.data, d.ctypes.data,
                g.ctypes.data, tail_start, dt, TAIL_TOL, psis.ctypes.data,
                noise[:, j:].ctypes.data, 4 * noise.shape[1],
                drift[step:].ctypes.data, fail_step, fail_tail)
            if worst == -2:
                raise MemoryError("qsd_segment could not allocate its rows")
            if worst >= 0:
                t = (step + fail_step.value) * dt
                tail = fail_tail.value
                raise TrajectoryError(
                    f"tail mass {tail:.3e} is not within tolerance "
                    f"{TAIL_TOL:.1e} at t = {t:.6g} "
                    f"(trajectory {first_index + worst})",
                    tail_mass=tail, time=t, trajectory=first_index + worst)
            j += n
            step += n
            if step % stride == 0:
                on_sample(psis, step)
    return psis, drift


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled output of one trajectory.

    norm_drift[k] is the pre-renormalization | ||psi|| - 1 | of step
    k+1, one entry per integration step.
    """

    times: np.ndarray
    bundles: list
    final_state: np.ndarray
    seed: int
    norm_drift: np.ndarray


def run_trajectory(initial: np.ndarray, ops: OperatorSet,
                   cfg: IntegratorConfig) -> TrajectoryRecord:
    """Integrate one trajectory from t=0 to t_end.

    Records the observable bundle every record_stride steps.  Sampled
    states are gathered into blocks of up to TRAJ_BATCH rows, each
    evaluated by one bundle_arrays call, as the ensemble evaluates its
    batches.  Deterministic given (initial, cfg): the noise stream is
    fully determined by cfg.seed.
    """
    check_step_size(cfg.dt, ops.params)
    psis = normalize(np.asarray(initial, dtype=complex))[None, :].copy()
    times = cfg.sample_times
    block = np.empty((min(TRAJ_BATCH, len(times)), ops.n_fock), dtype=complex)
    bundles = []

    def on_sample(batch, step):
        j = step // cfg.record_stride
        row = j % len(block)
        block[row] = batch[0]
        if row == len(block) - 1 or j == len(times) - 1:
            vals = bundle_arrays(block[:row + 1], ops)
            bundles.extend(ObservableBundle(*v) for v in zip(
                times[j - row:j + 1].tolist(),
                *(vals[f].tolist() for f in STAT_FIELDS)))

    psis, drift = _integrate(ops, psis,
                             [np.random.default_rng(cfg.seed)], cfg, 0,
                             on_sample)
    return TrajectoryRecord(times=times, bundles=bundles,
                            final_state=psis[0].copy(), seed=cfg.seed,
                            norm_drift=drift)
