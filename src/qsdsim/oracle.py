"""Deterministic references the stochastic ensemble is checked against.

Three independent descriptions of the same open oscillator live here:

* direct integration of the density-matrix equation of motion
  drho/dt = -(i/hbar)[H, rho] + sum_n (L_n rho L_n^dag
            - {L_n^dag L_n, rho} / 2),
* the closed-form drift of the coherent-amplitude distribution,
  treated through its first two moments (mean_alpha, var_alpha),
* the thermal fixed point with geometric level populations.

The density-matrix stepper is fixed-step classical 4th order; no
adaptivity, so runs are bit-reproducible and the error budget against
the ensemble is a simple function of dt.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .constants import ORACLE_STEP_GUARD
from .errors import ConfigError, DimensionError, ParameterError
from .model import ModelParams, OperatorSet, steps_on_grid

_TRACE_DRIFT_LIMIT = 1e-8
_THERMAL_TAIL_LIMIT = 1e-10

_GEN_CACHE: "weakref.WeakKeyDictionary[OperatorSet, tuple]" = \
    weakref.WeakKeyDictionary()


def _generator_terms(ops: OperatorSet):
    """(h, l1, l1d, m1, l2, l2d, m2) with m = l^dag l, cached per ops."""
    terms = _GEN_CACHE.get(ops)
    if terms is None:
        l1d = ops.l1.conj().T.copy()
        l2d = ops.l2.conj().T.copy()
        terms = (ops.h, ops.l1, l1d, l1d @ ops.l1,
                 ops.l2, l2d, l2d @ ops.l2)
        _GEN_CACHE[ops] = terms
    return terms


def lindblad_rhs(mat: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """Generator applied to mat, shape (..., N, N).

    Linear in mat; valid for non-Hermitian input, which the history
    machinery relies on.
    """
    h, l1, l1d, m1, l2, l2d, m2 = _generator_terms(ops)
    hbar = ops.params.hbar
    out = (-1j / hbar) * (h @ mat - mat @ h)
    out += l1 @ mat @ l1d - 0.5 * (m1 @ mat + mat @ m1)
    out += l2 @ mat @ l2d - 0.5 * (m2 @ mat + mat @ m2)
    return out


def rk4_step(mat: np.ndarray, ops: OperatorSet, dt: float) -> np.ndarray:
    """One raw 4th-order step of the linear generator; batched."""
    k1 = lindblad_rhs(mat, ops)
    k2 = lindblad_rhs(mat + 0.5 * dt * k1, ops)
    k3 = lindblad_rhs(mat + 0.5 * dt * k2, ops)
    k4 = lindblad_rhs(mat + dt * k3, ops)
    return mat + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def lindblad_step(rho: np.ndarray, ops: OperatorSet, dt: float) -> np.ndarray:
    """One density-matrix step: raw step, then re-hermitization.

    Trace drift beyond 1e-8 in a single step means dt is too large for
    the spectrum being evolved and raises rather than degrading
    silently.
    """
    if dt <= 0:
        raise ParameterError("dt must be positive")
    out = rk4_step(rho, ops, dt)
    drift = abs(np.trace(out).real - np.trace(rho).real)
    if drift > _TRACE_DRIFT_LIMIT:
        raise ParameterError(
            f"oracle trace drift {drift:.3e} in one step; reduce dt")
    return 0.5 * (out + out.conj().T)


@dataclass(frozen=True)
class LindbladPropagatorConfig:
    dt_oracle: float
    t_end: float
    method: str = "rk4"  # fixed; field kept so outputs are self-describing

    def __post_init__(self):
        if self.dt_oracle <= 0:
            raise ParameterError("dt_oracle must be positive")
        if self.t_end < 0:
            raise ParameterError("t_end must be >= 0")
        if self.method != "rk4":
            raise ParameterError("only the rk4 stepper exists")


def check_oracle_step(cfg: LindbladPropagatorConfig,
                      params: ModelParams) -> None:
    rate = cfg.dt_oracle * (params.gamma * (params.nbar + 1.0) + params.omega)
    if rate > ORACLE_STEP_GUARD:
        raise ParameterError(
            f"dt_oracle*(gamma*(nbar+1)+omega) = {rate:.3g} exceeds "
            f"{ORACLE_STEP_GUARD}")


@dataclass(frozen=True)
class OracleRun:
    times: np.ndarray
    rhos: np.ndarray  # (len(times), N, N)


def propagate(rho0: np.ndarray, ops: OperatorSet,
              cfg: LindbladPropagatorConfig,
              sample_times=None) -> OracleRun:
    """Evolve rho0 to t_end, snapshotting at sample_times.

    Sample times must sit on the step grid (within 1e-9 relative);
    default is every step.  t = 0 is included iff requested or default.
    """
    check_oracle_step(cfg, ops.params)
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
    out = []
    idx = 0
    for k in range(n_steps + 1):
        while idx < len(sample_steps) and sample_steps[idx] == k:
            out.append(rho.copy())
            idx += 1
        if k < n_steps:
            rho = lindblad_step(rho, ops, dt)
    times = np.array([s * dt for s in sample_steps])
    return OracleRun(times=times, rhos=np.array(out))


def propagate_matrices(mats: np.ndarray, ops: OperatorSet, duration: float,
                       dt: float) -> np.ndarray:
    """Apply the raw linear propagator over a duration to a batch.

    No hermitization, so non-Hermitian history intermediates evolve
    correctly.  duration must be a whole number of steps.
    """
    n_steps = steps_on_grid(duration, dt, "duration")
    out = np.array(mats, dtype=complex)
    for _ in range(n_steps):
        out = rk4_step(out, ops, dt)
    return out


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


def trace_expect(rho: np.ndarray, op: np.ndarray) -> complex:
    """Tr(rho op) normalized by Tr(rho)."""
    return complex(np.einsum("ij,ji->", rho, op) / np.trace(rho))


def stationary_lindblad_check(ops: OperatorSet,
                              params: ModelParams | None = None) -> float:
    """Frobenius norm of the generator applied to the thermal state."""
    p = params if params is not None else ops.params
    rho = thermal_state(p, ops.n_fock)
    return float(np.linalg.norm(lindblad_rhs(rho, ops)))
