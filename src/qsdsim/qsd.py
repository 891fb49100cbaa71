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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import (NOISE_BLOCK_STEPS, STEP_GUARD_DISSIPATIVE,
                        STEP_GUARD_OSCILLATORY, TAIL_TOL)
from .errors import ParameterError, StepSizeWarning, TrajectoryError
from .model import ModelParams, OperatorSet, band_form, normalize, \
    steps_on_grid, tail_levels
from . import observables

#: Weyl-sequence increment of the splitmix64 stream.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


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


class StepKernel:
    """Band coefficients for the batched update rule.

    In the Fock basis L1 = diag(c, 1) lowers and L2 = diag(d, -1)
    raises by one level, and the drift -iH/hbar - sum L^dag L / 2 is
    the diagonal g, so a step is elementwise products on shifted
    slices; c, d and g are complex and norms are dot products of a row's
    (re, im) float view, so no step mixes real and complex arrays.
    Immutable after construction.
    """

    def __init__(self, ops: OperatorSet):
        h, c, d, mu = band_form(ops)
        self.c, self.d = c.astype(complex), d.astype(complex)
        self.g = (-1j / ops.params.hbar) * h - 0.5 * mu
        self.tail_start = 2 * (ops.n_fock - tail_levels(ops.n_fock))

    def step(self, psis: np.ndarray, noise: np.ndarray, dt: float):
        """One step of a C-contiguous (B, n_fock) batch, not renormalized.

        noise has shape (B, 2).  Returns (new_psis, norms, tails):
        norms is each row's ||psi'||, and tails its relative tail mass,
        the share of ||psi'||^2 in the top tail_levels(n_fock) Fock
        levels; it is nan for a row that is not finite.
        """
        l1psi = self.c * psis[:, 1:]    # L1 psi without its zero last entry
        l2psi = self.d * psis[:, :-1]   # L2 psi without its zero first entry
        flat = psis.view(float)
        norm_sq = np.vecdot(flat, flat)
        l1 = np.vecdot(psis[:, :-1], l1psi) / norm_sq   # vecdot conjugates
        l2 = np.vecdot(psis[:, 1:], l2psi) / norm_sq
        xi1, xi2 = noise.T
        c0 = (1.0 - 0.5 * dt * (np.abs(l1) ** 2 + np.abs(l2) ** 2)
              - (l1 * xi1 + l2 * xi2))[:, None]
        out = dt * self.g + c0
        out *= psis
        l1psi *= (l1.conj() * dt + xi1)[:, None]
        out[:, :-1] += l1psi
        l2psi *= (l2.conj() * dt + xi2)[:, None]
        out[:, 1:] += l2psi
        flat = out.view(float)
        out_sq = np.vecdot(flat, flat)
        tail = flat[:, self.tail_start:]
        return out, np.sqrt(out_sq), np.vecdot(tail, tail) / out_sq


def _integrate(kern: StepKernel, psis: np.ndarray, rngs: list,
               cfg: IntegratorConfig, first_index: int, on_sample):
    """Step a (B, n_fock) batch from t = 0 to cfg.t_end.

    Row b draws its noise from rngs[b] and is trajectory first_index + b.
    Each step is renormalized.  on_sample(psis, step) runs at step 0 and
    every record_stride steps.  Returns the final batch and, per step,
    the worst pre-renormalization norm drift | ||psi'|| - 1 | over the
    batch.  Raises TrajectoryError as soon as a row's relative tail mass
    is above TAIL_TOL or not finite.
    """
    dt = cfg.dt
    n_steps = cfg.n_steps
    drift = np.empty(n_steps)
    on_sample(psis, 0)
    step = 0
    while step < n_steps:
        block = min(NOISE_BLOCK_STEPS, n_steps - step)
        noise = np.stack([draw_noise_block(rng, dt, block) for rng in rngs])
        for j in range(block):
            psis, norms, tails = kern.step(psis, noise[:, j], dt)
            drift[step] = np.abs(norms - 1.0).max()
            step += 1
            if not tails.max() <= TAIL_TOL:
                worst = int(np.argmax(tails))
                t = step * dt
                raise TrajectoryError(
                    f"tail mass {tails[worst]:.3e} is not within tolerance "
                    f"{TAIL_TOL:.1e} at t = {t:.6g} "
                    f"(trajectory {first_index + worst})",
                    tail_mass=float(tails[worst]), time=t,
                    trajectory=first_index + worst)
            psis *= 1.0 / norms[:, None]
            if step % cfg.record_stride == 0:
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

    Records the observable bundle every record_stride steps.
    Deterministic given (initial, cfg): the noise stream is fully
    determined by cfg.seed.
    """
    check_step_size(cfg.dt, ops.params)
    psis = normalize(np.asarray(initial, dtype=complex))[None, :].copy()
    times = []
    bundles = []

    def on_sample(batch, step):
        t = step * cfg.dt
        times.append(t)
        bundles.append(observables.bundle(batch[0], ops, t))

    psis, drift = _integrate(StepKernel(ops), psis,
                             [np.random.default_rng(cfg.seed)], cfg, 0,
                             on_sample)
    return TrajectoryRecord(times=np.asarray(times), bundles=bundles,
                            final_state=psis[0].copy(), seed=cfg.seed,
                            norm_drift=drift)
