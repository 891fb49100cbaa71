"""Deterministic references the stochastic ensemble is checked against.

Three independent descriptions of the same open oscillator live here:

* the exact propagator of the density-matrix equation of motion
  drho/dt = -(i/hbar)[H, rho] + sum_n (L_n rho L_n^dag
            - {L_n^dag L_n, rho} / 2),
* the closed-form drift of the coherent-amplitude distribution,
  treated through its first two moments (mean_alpha, var_alpha),
* the thermal fixed point with geometric level populations.

With H diagonal in the Fock basis, L1 lowering and L2 raising by one
level, the generator maps each band k = m - n of rho into itself.  The
propagator is therefore one small matrix exponential per band: exact
for any time span, so runs are bit-reproducible and carry no step-size
error.  The generator preserves hermiticity: band -k evolves under the
conjugate of band k's generator, so only the bands k >= 0 are
exponentiated and a Hermitian rho needs only those bands evolved.  It
also conserves the trace exactly, truncated or not, because
Tr(L X L^dag) = Tr(L^dag L X) for any finite L; the branch weights of
the history machinery are constants of the motion.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError
from .model import ModelParams, OperatorSet, steps_on_grid

_THERMAL_TAIL_LIMIT = 1e-10


def _band_generator(ops: OperatorSet, k: int) -> np.ndarray:
    """The generator on band k >= 0, an (N - k) x (N - k) tridiagonal.

    Band k = m - n holds the entries rho[j + k, j].  On it the
    generator's diagonal carries -i (h_m - h_n) / hbar - (mu_m + mu_n) / 2
    with mu = diag(sum L^dag L), and L1 = diag(c, 1) and L2 = diag(d, -1)
    couple entry j to j + 1 by c_m c_n and to j - 1 by d_(m-1) d_(n-1).
    Band -k carries the conjugate of band k's generator.
    """
    n = ops.n_fock
    h, c, d, mu = ops.h, ops.c, ops.d, ops.mu
    rows, cols = np.arange(k, n), np.arange(n - k)
    gen = np.diag(-1j * (h[rows] - h[cols]) / ops.params.hbar
                  - 0.5 * (mu[rows] + mu[cols]))
    gen += np.diag(c[rows[:-1]] * c[cols[:-1]], 1)
    gen += np.diag(d[rows[:-1]] * d[cols[:-1]], -1)
    return gen


def _band_propagator(ops: OperatorSet, t: float) -> np.ndarray:
    """exp(t * generator) on the bands k >= 0, in N // 2 + 1 slots.

    Band k's generator is _band_generator(ops, k), and band -k's
    propagator is conj(P_k).  Bands k and N - k have N entries
    together: the N x N slot min(k, N - k) holds P_k as its leading
    block when 2k <= N and as its trailing block otherwise.
    """
    from scipy.linalg import expm
    n = ops.n_fock
    stack = np.zeros((n // 2 + 1, n, n), dtype=complex)
    for k in range(n):
        block = slice(0, n - k) if 2 * k <= n else slice(k, n)
        stack[min(k, n - k), block, block] = expm(t * _band_generator(ops, k))
    return stack


@functools.lru_cache(maxsize=8)
def _band_index(n: int):
    """(below, above, keep) for row-major flattened N x N matrices.

    below[p, j] and above[p, j] are the flat positions of the entries
    of bands k and -k met at position j of slot p; keep is false only
    where slot N / 2 of an even N repeats its one band.
    """
    p, j = np.indices((n // 2 + 1, n))
    lead = j < n - p
    k = np.where(lead, p, n - p)
    i = np.where(lead, j, j - n + p)
    index = (k * n + i * (n + 1), k + i * (n + 1), lead | (2 * p != n))
    for a in index:  # shared by every caller through the cache
        a.setflags(write=False)
    return index


def _apply(stack: np.ndarray, mats: np.ndarray,
           hermitian: bool = False) -> np.ndarray:
    """The band propagator applied to a (..., N, N) batch.

    One stacked product per matrix carries all bands k >= 0; the bands
    -k go as conj(P_k @ conj(y)), or, for a Hermitian batch, are the
    conjugates of the bands k.  Each matrix goes through its own
    matrix-vector products, so a result does not depend on the batch
    it was computed in.
    """
    below, above, keep = _band_index(mats.shape[-1])
    flat = mats.reshape(*mats.shape[:-2], -1)
    out = np.empty_like(flat)
    low = np.matmul(stack, flat[..., below, None])[..., 0][..., keep]
    if hermitian:
        out[..., above[keep]] = low.conj()
    else:
        # slot 0 is band 0 alone; every other slot holds bands k >= 1
        high = np.matmul(stack[1:], flat[..., above[1:], None].conj())
        out[..., above[1:][keep[1:]]] = high[..., 0][..., keep[1:]].conj()
    out[..., below[keep]] = low
    return out.reshape(mats.shape)


def _grid_propagator(ops: OperatorSet, dt: float):
    """advance(mats, k[, hermitian]): mats carried k steps of dt forward.

    One band propagator is built per distinct k and then reused.
    """
    props = {}

    def advance(mats: np.ndarray, k: int, hermitian: bool = False):
        if k not in props:
            props[k] = _band_propagator(ops, k * dt)
        return _apply(props[k], mats, hermitian)
    return advance


@dataclass(frozen=True)
class LindbladPropagatorConfig:
    """dt_oracle is the sample grid: t_end and sample times lie on it."""

    dt_oracle: float
    t_end: float

    def __post_init__(self):
        if self.dt_oracle <= 0:
            raise ParameterError("dt_oracle must be positive")
        if self.t_end < 0:
            raise ParameterError("t_end must be >= 0")


@dataclass(frozen=True)
class OracleRun:
    times: np.ndarray
    rhos: np.ndarray  # (len(times), N, N)


def propagate(rho0: np.ndarray, ops: OperatorSet,
              cfg: LindbladPropagatorConfig,
              sample_times=None) -> OracleRun:
    """Evolve rho0 to t_end, snapshotting at sample_times.

    Sample times must sit on the dt_oracle grid (within 1e-9
    relative); default is every grid point.  t = 0 is included iff
    requested or default.  One propagator is built per distinct gap
    between samples.  rho0 is hermitized once; only the bands k >= 0
    are evolved and the bands -k are their conjugates, so every
    snapshot is Hermitian by construction.
    """
    dt = cfg.dt_oracle
    n_steps = steps_on_grid(cfg.t_end, dt, "t_end")
    if sample_times is None:
        sample_steps = list(range(n_steps + 1))
    else:
        sample_steps = [steps_on_grid(t, dt, "sample time")
                        for t in sample_times]
        if any(not 0 <= k <= n_steps for k in sample_steps):
            raise ConfigError("sample times must lie in [0, t_end]")
        if sorted(sample_steps) != sample_steps:
            raise ConfigError("sample times must be nondecreasing")
    rho0 = np.asarray(rho0, dtype=complex)
    rhos = np.empty((len(sample_steps), *rho0.shape), dtype=complex)
    rho = 0.5 * (rho0 + rho0.conj().T)
    advance = _grid_propagator(ops, dt)
    prev = 0
    for i, k in enumerate(sample_steps):
        if k > prev:
            rho = advance(rho, k - prev, hermitian=True)
        rhos[i] = rho
        prev = k
    times = np.array([s * dt for s in sample_steps])
    return OracleRun(times=times, rhos=rhos)


def propagate_matrices(mats: np.ndarray, ops: OperatorSet,
                       duration: float) -> np.ndarray:
    """Apply the linear propagator over a duration to a batch.

    No hermitization, so non-Hermitian history intermediates evolve
    correctly.
    """
    if not 0 <= duration < math.inf:
        raise ParameterError(
            f"duration must be finite and >= 0, got {duration}")
    mats = np.asarray(mats, dtype=complex)
    return _apply(_band_propagator(ops, duration), mats)


def thermal_state(params: ModelParams, n_fock: int) -> np.ndarray:
    """Thermal density matrix, diagonal n-bar^n / (1+n-bar)^(n+1).

    The residual beyond the truncation, (nbar/(1+nbar))^n_fock, must be
    below 1e-10; the kept diagonal is renormalized over it.
    """
    if n_fock < 2:
        raise DimensionError("n_fock must be at least 2")
    nbar = params.nbar
    if nbar == 0.0:
        rho = np.zeros((n_fock, n_fock), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    ratio = nbar / (1.0 + nbar)
    residual = ratio ** n_fock
    if residual > _THERMAL_TAIL_LIMIT:
        raise DimensionError(
            f"thermal tail {residual:.3e} beyond n_fock={n_fock} levels "
            f"exceeds {_THERMAL_TAIL_LIMIT:.1e}")
    diag = ratio ** np.arange(n_fock) / (1.0 + nbar)
    diag /= diag.sum()
    return np.diag(diag).astype(complex)


@dataclass(frozen=True)
class OUState:
    """First two moments of the coherent-amplitude distribution."""

    mean_alpha: complex
    var_alpha: float

    def __post_init__(self):
        if self.var_alpha < 0:
            raise ParameterError("var_alpha must be >= 0")


def ou_flow(initial: OUState, params: ModelParams, t: float) -> OUState:
    """Exact moment flow: mean decays as exp(-(i omega + gamma/2) t),
    variance relaxes to nbar at rate gamma."""
    if t < 0:
        raise ParameterError("t must be >= 0")
    decay = cmath.exp(-(1j * params.omega + 0.5 * params.gamma) * t)
    relax = math.exp(-params.gamma * t)
    return OUState(
        mean_alpha=initial.mean_alpha * decay,
        var_alpha=params.nbar + (initial.var_alpha - params.nbar) * relax)


def stationary_lindblad_check(ops: OperatorSet) -> float:
    """Frobenius norm of the generator applied to the thermal state.

    The thermal state is diagonal, so band 0 of the generator that the
    propagator exponentiates is the only one it meets.
    """
    rho = thermal_state(ops.params, ops.n_fock)
    return float(np.linalg.norm(_band_generator(ops, 0) @ np.diag(rho)))
