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

from .constants import MAX_TRAJECTORIES, TAIL_TOL, TRAJ_BATCH
from .errors import ConfigError, DimensionError, ParameterError, \
    TruncationError
from .model import OperatorSet, _gram_sum, cat_state, coherent_state, \
    fock_state, normalize, steps_on_grid, tail_mass
from .observables import STAT_FIELDS, moment_fields
from .qsd import IntegratorConfig, _integrate, _seed_streams, \
    check_seed, check_step_size, trajectory_seed


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
        """The state, refused when its tail mass is above TAIL_TOL: the
        rule the stepping loop applies to every step."""
        if self.kind == "coherent":
            state = coherent_state(ops, self.alpha)
        elif self.kind == "fock":
            state = fock_state(ops, self.n)
        elif self.kind == "cat":
            state = cat_state(ops, self.alpha, self.phase)
        elif self.kind == "custom":
            if len(self.amplitudes) != ops.n_fock:
                raise DimensionError(
                    f"custom state has {len(self.amplitudes)} amplitudes, "
                    f"operators have {ops.n_fock}")
            state = normalize(np.asarray(self.amplitudes, dtype=complex))
        else:
            raise ConfigError(f"unknown initial-state kind {self.kind!r}")
        if not (tail := tail_mass(state)) <= TAIL_TOL:
            raise TruncationError(f"initial tail mass {tail:.3e} is above "
                                  f"{TAIL_TOL:.1e}", tail_mass=tail)
        return state


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
        if self.m > MAX_TRAJECTORIES:
            raise ParameterError(f"ensemble size {self.m} is greater than "
                                 f"the maximum of {MAX_TRAJECTORIES}")
        check_seed("base_seed", self.base_seed)
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
    # rho_at maps a snapshot's sample index to its index, in time order
    rho_at = {}
    for t in rho_times:
        j, off = divmod(steps_on_grid(t, icfg.dt, "rho time"),
                        icfg.record_stride)
        if off or not 0 <= j < n_samples:
            raise ConfigError(f"rho time {t} is not a sampled time")
        if j in rho_at:
            raise ConfigError(f"rho time {t} repeats an earlier one")
        rho_at[j] = len(rho_at)

    # (field, sample) sums in the order of STAT_FIELDS, accumulated
    # batch by batch in batch order: the reduction order is a pure
    # function of the trajectory index.  The variance sums shift by
    # trajectory 0's value at each sample, so they do not cancel.
    tot, shift, tot_dev, tot_sq = np.zeros((4, len(STAT_FIELDS), n_samples))
    occ = np.zeros((n_samples, n_fock))
    rhos = np.zeros((len(rho_at), n_fock, n_fock), dtype=complex)
    series = {f: np.empty((m, n_samples)) for f in cfg.store_series}
    finals = np.empty((m, n_fock), dtype=complex)
    for k0 in range(0, m, TRAJ_BATCH):
        k1 = min(k0 + TRAJ_BATCH, m)

        def on_sample(block, moments, first_step):
            # samples j0..j1-1 of the batch, a (k, B, n_fock) block with
            # its (k, B, 6) moments, reduced as (field, sample) arrays
            # over the batch axis
            j0 = first_step // icfg.record_stride
            j1 = j0 + len(block)
            v = moment_fields(moments, ops)   # (field, sample, row)
            norm_sq = moments[..., 0]   # each row's ||psi||^2
            if k0 == 0:
                shift[:, j0:j1] = v[..., 0]
            dev = v - shift[:, j0:j1, None]
            tot[:, j0:j1] += v.sum(axis=-1)
            tot_dev[:, j0:j1] += dev.sum(axis=-1)
            tot_sq[:, j0:j1] += (dev * dev).sum(axis=-1)
            occ[j0:j1] += (np.abs(block) ** 2 / norm_sq[..., None]).sum(axis=1)
            for f in cfg.store_series:
                series[f][k0:k1, j0:j1] = v[STAT_FIELDS.index(f)].T
            for j, r in rho_at.items():
                if j0 <= j < j1:
                    rows = block[j - j0] / np.sqrt(norm_sq[j - j0, :, None])
                    rhos[r] += _gram_sum(rows)

        streams = _seed_streams(trajectory_seed(
            cfg.base_seed, np.arange(k0, k1, dtype=np.uint64)))
        finals[k0:k1], _ = _integrate(ops, np.tile(psi0, (k1 - k0, 1)),
                                      streams, icfg, k0, on_sample)

    # at m = 1 every deviation from trajectory 0 is 0, and so is every stderr
    var = np.maximum(tot_sq - tot_dev ** 2 / m, 0.0) / max(m - 1, 1)
    return EnsembleStats(times=times, means=dict(zip(STAT_FIELDS, tot / m)),
                         stderrs=dict(zip(STAT_FIELDS, np.sqrt(var / m))),
                         occupation=occ / m, m=m, base_seed=cfg.base_seed,
                         final_states=finals, rho_times=rho_times,
                         rhos=rhos / m, series=series)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma (both Hermitian)."""
    if rho.shape != sigma.shape:
        raise DimensionError("density matrices differ in shape")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())
