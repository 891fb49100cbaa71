"""Ensemble runner: M independent trajectories and their statistics.

Trajectories are integrated in batches of TRAJ_BATCH (set by a sweep),
each a (B, n_fock) array stepped by the trajectory driver; a row's
result does not depend on its batch.  Batch membership, each noise
stream and the accumulation order are functions of the trajectory
index alone, so results depend only on the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import TRAJ_BATCH
from .errors import ConfigError, DimensionError, ParameterError
from .model import OperatorSet, cat_state, coherent_state, fock_state, \
    normalize, steps_on_grid
from .observables import STAT_FIELDS, bundle_arrays
from .qsd import IntegratorConfig, _integrate, check_step_size, \
    trajectory_seed


@dataclass(frozen=True)
class InitialStateSpec:
    """Initial pure state for every trajectory.

    kind is one of "coherent" (uses alpha), "fock" (uses n), "cat"
    (branches at +alpha and -alpha with a relative phase; branch
    separation in the amplitude plane is 2|alpha|), or "custom"
    (explicit amplitudes).
    """

    kind: str
    alpha: complex = 0.0 + 0.0j
    n: int = 0
    phase: float = 0.0
    amplitudes: tuple = ()

    def build(self, ops: OperatorSet) -> np.ndarray:
        if self.kind == "coherent":
            return coherent_state(ops, self.alpha)
        if self.kind == "fock":
            return fock_state(ops, self.n)
        if self.kind == "cat":
            return cat_state(ops, self.alpha, self.phase)
        if self.kind == "custom":
            if len(self.amplitudes) != ops.n_fock:
                raise DimensionError(
                    f"custom state has {len(self.amplitudes)} amplitudes, "
                    f"operators have {ops.n_fock}")
            return normalize(np.asarray(self.amplitudes, dtype=complex))
        raise ConfigError(f"unknown initial-state kind {self.kind!r}")


@dataclass(frozen=True)
class EnsembleConfig:
    m: int
    base_seed: int
    integrator: IntegratorConfig
    initial: InitialStateSpec
    rho_times: tuple = ()      # sampled times to snapshot the mean dyad at
    store_series: tuple = ()   # bundle fields kept per trajectory

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError("ensemble size must be >= 1")
        if self.base_seed < 0:
            raise ParameterError("base_seed must be >= 0")
        for name in self.store_series:
            if name not in STAT_FIELDS:
                raise ConfigError(f"unknown series field {name!r}")


@dataclass(frozen=True)
class EnsembleStats:
    """Per-time ensemble averages with standard errors.

    occupation[j] is the ensemble mean of the Fock-level probability
    vector at times[j] (each row sums to 1).  series holds optional
    (m, n_times) per-trajectory values for the configured fields;
    final_states collects every trajectory's end state.
    """

    times: np.ndarray
    means: dict
    stderrs: dict
    occupation: np.ndarray
    m: int
    base_seed: int
    final_states: np.ndarray
    rho_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    rhos: np.ndarray = field(default_factory=lambda: np.empty((0, 0, 0)))
    series: dict = field(default_factory=dict)


def run_ensemble(cfg: EnsembleConfig, ops: OperatorSet) -> EnsembleStats:
    """Statistics over exactly cfg.m independent trajectories.

    Deterministic given (cfg, ops).  Any trajectory failure aborts the
    whole run.
    """
    icfg = cfg.integrator
    check_step_size(icfg.dt, ops.params)
    # normalize exactly as the single-trajectory entry point does, so an
    # m=1 ensemble is bit-identical to run_trajectory with the same seed
    psi0 = normalize(cfg.initial.build(ops))
    m = cfg.m
    n_fock = ops.n_fock
    times = icfg.sample_times
    n_samples = len(times)

    rho_times = np.array(sorted(cfg.rho_times))
    # rho_steps maps a snapshot's step to its index, in time order
    rho_steps = {}
    for t in rho_times:
        k = steps_on_grid(t, icfg.dt, "rho time")
        if k < 0 or k > icfg.n_steps or k % icfg.record_stride != 0:
            raise ConfigError(f"rho time {t} is not a sampled time")
        if k in rho_steps:
            raise ConfigError(f"rho time {t} repeats an earlier one")
        rho_steps[k] = len(rho_steps)

    # Accumulated batch by batch in batch order: the reduction order is
    # a pure function of the trajectory index.  The variance sums shift
    # by trajectory 0's value at each sample, so they do not cancel.
    tot = {f: np.zeros(n_samples) for f in STAT_FIELDS}
    shift = {f: np.zeros(n_samples) for f in STAT_FIELDS}
    tot_dev = {f: np.zeros(n_samples) for f in STAT_FIELDS}
    tot_sq = {f: np.zeros(n_samples) for f in STAT_FIELDS}
    occ = np.zeros((n_samples, n_fock))
    rhos = np.zeros((len(rho_steps), n_fock, n_fock), dtype=complex)
    series = {f: np.empty((m, n_samples)) for f in cfg.store_series}
    finals = np.empty((m, n_fock), dtype=complex)
    for k0 in range(0, m, TRAJ_BATCH):
        k1 = min(k0 + TRAJ_BATCH, m)

        def on_sample(block, first_step):
            # sample by sample, each batch reduced as one array
            for i, psis in enumerate(block):
                step = first_step + i * icfg.record_stride
                j = step // icfg.record_stride
                vals = bundle_arrays(psis, ops)
                for f in STAT_FIELDS:
                    v = vals[f]
                    if k0 == 0:
                        shift[f][j] = v[0]
                    dev = v - shift[f][j]
                    tot[f][j] += v.sum()
                    tot_dev[f][j] += dev.sum()
                    tot_sq[f][j] += (dev * dev).sum()
                norm_sq = np.einsum("bi,bi->b", psis.conj(), psis).real
                occ[j] += (np.abs(psis) ** 2 / norm_sq[:, None]).sum(axis=0)
                for f in cfg.store_series:
                    series[f][k0:k1, j] = vals[f]
                if step in rho_steps:
                    rhos[rho_steps[step]] += _dyad_sum(psis)

        rngs = [np.random.default_rng(trajectory_seed(cfg.base_seed, k))
                for k in range(k0, k1)]
        finals[k0:k1], _ = _integrate(ops, np.tile(psi0, (k1 - k0, 1)),
                                      rngs, icfg, k0, on_sample)

    means = {f: tot[f] / m for f in STAT_FIELDS}
    stderrs = {}
    for f in STAT_FIELDS:
        if m > 1:
            var = np.maximum(tot_sq[f] - tot_dev[f] ** 2 / m, 0.0) / (m - 1)
            stderrs[f] = np.sqrt(var / m)
        else:
            stderrs[f] = np.zeros(n_samples)
    occ /= m
    rhos /= m

    return EnsembleStats(times=times, means=means, stderrs=stderrs,
                         occupation=occ, m=m, base_seed=cfg.base_seed,
                         final_states=finals, rho_times=rho_times,
                         rhos=rhos, series=series)


def density_matrix(states) -> np.ndarray:
    """Equal-weight mean of the normalized dyads |psi><psi|."""
    states = np.asarray(states, dtype=complex)
    if states.ndim == 1:
        states = states[None, :]
    if states.size == 0:
        raise ParameterError("no states given")
    return _dyad_sum(states) / states.shape[0]


def _dyad_sum(states: np.ndarray) -> np.ndarray:
    """Sum of the normalized dyads |psi><psi| / <psi|psi> of a (B, n) batch.

    Each row is scaled by its 1 / <psi|psi> first, on the (re, im) float
    view, so the sum over rows is one two-operand einsum.  It is not a
    BLAS product: OpenBLAS may split a gemm of this size over threads,
    which stalls now and then on a shared machine.
    """
    flat = np.ascontiguousarray(states, dtype=complex).view(float)
    scaled = flat * (1.0 / np.vecdot(flat, flat))[:, None]
    return np.einsum("bi,bj->ij", scaled.view(complex), states.conj())


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma (both Hermitian)."""
    if rho.shape != sigma.shape:
        raise DimensionError("density matrices differ in shape")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


# -- serialization ----------------------------------------------------------


def write_stats_csv(path, stats: EnsembleStats) -> None:
    """Long-format CSV: time, statistic, mean, stderr."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "statistic", "mean", "stderr"])
        for j, t in enumerate(stats.times):
            for f in STAT_FIELDS:
                writer.writerow([repr(float(t)), f,
                                 repr(float(stats.means[f][j])),
                                 repr(float(stats.stderrs[f][j]))])
