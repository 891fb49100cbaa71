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
error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError
from .model import ModelParams, OperatorSet, dense_operators, steps_on_grid

_THERMAL_TAIL_LIMIT = 1e-10


def lindblad_rhs(mat: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """Generator applied to mat, shape (..., N, N).

    Linear in mat; valid for non-Hermitian input, which the history
    machinery relies on.
    """
    h, l1, l2 = dense_operators(ops)
    out = (-1j / ops.params.hbar) * (h @ mat - mat @ h)
    for l in (l1, l2):
        ld = l.conj().T
        m = ld @ l
        out += l @ mat @ ld - 0.5 * (m @ mat + mat @ m)
    return out


def _band_propagator(ops: OperatorSet, t: float) -> list:
    """exp(t * generator) as (flat slice, matrix) pairs, one per band.

    Band k = m - n holds the entries rho[j + max(k, 0), j + max(-k, 0)];
    in a row-major flattened matrix they form a slice of stride N + 1.
    On a band the generator is tridiagonal: the diagonal carries
    -i (h_m - h_n) / hbar - (mu_m + mu_n) / 2 with mu = diag(sum L^dag L),
    and L1 = diag(c, 1) and L2 = diag(d, -1) couple entry j to j + 1
    by c_m c_n and to j - 1 by d_(m-1) d_(n-1).
    """
    from scipy.linalg import expm
    n = ops.n_fock
    h, c, d, mu = ops.h, ops.c, ops.d, ops.mu
    bands = []
    for k in range(1 - n, n):
        size = n - abs(k)
        rows = np.arange(size) + max(k, 0)
        cols = np.arange(size) + max(-k, 0)
        gen = np.diag(-1j * (h[rows] - h[cols]) / ops.params.hbar
                      - 0.5 * (mu[rows] + mu[cols]))
        gen += np.diag(c[rows[:-1]] * c[cols[:-1]], 1)
        gen += np.diag(d[rows[:-1]] * d[cols[:-1]], -1)
        start = k * n if k >= 0 else -k
        bands.append((slice(start, start + (size - 1) * (n + 1) + 1, n + 1),
                      expm(t * gen)))
    return bands


def _apply(bands: list, mats: np.ndarray) -> np.ndarray:
    """The band propagator applied to a (..., N, N) batch.

    Each matrix goes through its own matrix-vector products, so a
    result does not depend on the batch it was computed in.
    """
    flat = mats.reshape(*mats.shape[:-2], -1)
    out = np.empty_like(flat)
    for sl, prop in bands:
        out[..., sl] = np.matmul(prop, flat[..., sl, None])[..., 0]
    return out.reshape(mats.shape)


def _grid_propagator(ops: OperatorSet, dt: float):
    """advance(mats, k): mats carried k steps of dt forward.

    One band propagator is built per distinct k and then reused.
    """
    props = {}

    def advance(mats: np.ndarray, k: int) -> np.ndarray:
        if k not in props:
            props[k] = _band_propagator(ops, k * dt)
        return _apply(props[k], mats)
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
    between samples.
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
    rho = np.array(rho0, dtype=complex)
    rhos = np.empty((len(sample_steps), *rho.shape), dtype=complex)
    advance = _grid_propagator(ops, dt)
    prev = 0
    for i, k in enumerate(sample_steps):
        if k > prev:
            rho = advance(rho, k - prev)
            rho = 0.5 * (rho + rho.conj().T)
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
    """Frobenius norm of the generator applied to the thermal state."""
    rho = thermal_state(ops.params, ops.n_fock)
    return float(np.linalg.norm(lindblad_rhs(rho, ops)))
