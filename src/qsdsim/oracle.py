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
propagator is therefore one small matrix exponential per band, good to
rounding for any time span, so runs are bit-reproducible and carry no
step-size error.  The generator preserves hermiticity: band -k evolves
under the conjugate of band k's generator, so only the bands k >= 0
are exponentiated and a Hermitian rho needs only those bands evolved.
It also conserves the trace exactly, truncated or not, because
Tr(L X L^dag) = Tr(L^dag L X) for any finite L; the branch weights of
the history machinery are constants of the motion.

The bands k >= 0 are held as N // 2 + 1 slots of N entries (bands k
and N - k share a slot), and their propagators as one (N // 2 + 1, N, N)
stack, built by one batched scaling-and-squaring Pade exponential in
numpy.  dt_oracle is the one sample grid of propagate and
histories.cat_interval_scan (a coarser grid thins the samples
exactly): _band_steps advances their bands with one stacked
matrix-vector product per step of the one propagator over dt_oracle.
propagate_matrices applies the stack to whole matrices through _apply.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .model import ModelParams, OperatorSet, steps_on_grid

_THERMAL_TAIL_LIMIT = 1e-10


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


def _slot_generators(ops: OperatorSet) -> np.ndarray:
    """The generator on the bands k >= 0, as N // 2 + 1 slots of N x N.

    Slot p acts on the entries at _band_index's positions below[p]:
    band p, then band N - p (for an even N, slot N / 2 holds band N / 2
    twice).  On band k = m - n the diagonal carries
    -i (h_m - h_n) / hbar - (mu_m + mu_n) / 2 with mu = diag(sum L^dag L),
    and L1 = diag(c, 1) and L2 = diag(d, -1) couple entry (m, n) to
    (m + 1, n + 1) by c_m c_n and back by d_m d_n.  Each band ends at
    m = N - 1, where c and d are zero, so a slot is block-diagonal.
    Band -k carries the conjugate of band k's generator.
    """
    n = ops.n_fock
    c, d, mu = np.append(ops.c, 0.0), np.append(ops.d, 0.0), ops.mu
    m, l = np.divmod(_band_index(n)[0], n)
    j = np.arange(n)
    gen = np.zeros((n // 2 + 1, n, n), dtype=complex)
    gen[:, j, j] = (-1j * (ops.h[m] - ops.h[l]) / ops.params.hbar
                    - 0.5 * (mu[m] + mu[l]))
    m, l = m[:, :-1], l[:, :-1]
    gen[:, j[:-1], j[1:]] = c[m] * c[l]
    gen[:, j[1:], j[:-1]] = d[m] * d[l]
    return gen


# The [13/13] Pade coefficients b_0..b_13 and the largest 1-norm at
# which that approximant is accurate to double precision unscaled
# (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (..., n, n) stack by scaling and squaring.

    Each matrix is scaled by its own power of two to a 1-norm of at
    most theta_13, exponentiated by the [13/13] Pade approximant and
    squared back.  Each product and solve is one small matrix per BLAS
    or LAPACK call, so none of them starts a worker thread.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = a * np.ldexp(1.0, -s)[..., None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for i in range(s.max(initial=0)):
        more = s > i
        r[more] = r[more] @ r[more]
    return r


def _band_propagator(ops: OperatorSet, t: float) -> np.ndarray:
    """exp(t * generator) on the bands k >= 0, in N // 2 + 1 slots.

    Band k's generator is in _slot_generators(ops), and band -k's
    propagator is conj(P_k).  Bands k and N - k have N entries
    together: the N x N slot min(k, N - k) holds P_k as its leading
    block when 2k <= N and as its trailing block otherwise.  Each slot
    is block-diagonal, so the whole stack is exponentiated at once.
    For an even N, slot N / 2 holds its one band in the leading block
    and zeros in the trailing one.
    """
    n = ops.n_fock
    gen = _slot_generators(ops)
    # squaring s times amplifies the rounding of the Pade step by 2^s,
    # past s = 52 beyond the result itself; the Python float product
    # overflows to inf without a warning, and inf and nan are refused
    norm = t * float(np.abs(gen).sum(axis=-2).max())
    if not norm <= _THETA13 * 2.0 ** 52:
        raise ParameterError(f"span {t} too long for one propagator: "
                             f"|t * generator| = {norm:.3g}")
    stack = _expm_stack(t * gen)
    if n % 2 == 0:
        stack[n // 2, n // 2:, n // 2:] = 0.0
    return stack


def _apply(stack: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The band propagator applied to a (..., N, N) batch.

    One stacked product per matrix carries all bands k >= 0; the bands
    -k go as conj(P_k @ conj(y)).  Each matrix goes through its own
    matrix-vector products, so a result does not depend on the batch
    it was computed in.
    """
    below, above, keep = _band_index(mats.shape[-1])
    flat = mats.reshape(*mats.shape[:-2], -1)
    out = np.empty_like(flat)
    low = np.matmul(stack, flat[..., below, None])[..., 0][..., keep]
    # slot 0 is band 0 alone; every other slot holds bands k >= 1
    high = np.matmul(stack[1:], flat[..., above[1:], None].conj())
    out[..., above[1:][keep[1:]]] = high[..., 0][..., keep[1:]].conj()
    out[..., below[keep]] = low
    return out.reshape(mats.shape)


def _band_steps(y: np.ndarray, ops: OperatorSet, dt: float, n_steps: int):
    """y in band layout (any leading axes), then after each of n_steps
    steps of dt, by one propagator built at the first step, if any."""
    yield y
    if n_steps:
        prop = _band_propagator(ops, dt)
        for _ in range(n_steps):
            y = np.matmul(prop, y[..., None])[..., 0]
            yield y


@dataclass(frozen=True)
class LindbladPropagatorConfig:
    """dt_oracle is the one sample grid and t_end lies on it; as the
    propagator is exact, a coarser grid thins the samples exactly."""

    dt_oracle: float
    t_end: float

    def __post_init__(self):
        # the comparisons are false for nan, so nan is refused too
        if not 0.0 < self.dt_oracle < math.inf:
            raise ParameterError(f"dt_oracle must be positive and finite, "
                                 f"got {self.dt_oracle}")
        if not 0.0 <= self.t_end < math.inf:
            raise ParameterError(f"t_end must be finite and >= 0, "
                                 f"got {self.t_end}")


@dataclass(frozen=True)
class OracleRun:
    times: np.ndarray
    rhos: np.ndarray  # (len(times), N, N)


def propagate(rho0: np.ndarray, ops: OperatorSet,
              cfg: LindbladPropagatorConfig) -> OracleRun:
    """Evolve rho0 to t_end, snapshotting at every point of the grid.

    dt_oracle is the one sample grid (t_end on it within 1e-9
    relative); a coarser grid thins the samples exactly.  rho0 is
    hermitized once; only the bands k >= 0 are evolved, and each
    snapshot is written from them with the bands -k as their
    conjugates, so it is Hermitian by construction.
    """
    dt = cfg.dt_oracle
    n_steps = steps_on_grid(cfg.t_end, dt, "t_end")
    rho0 = np.asarray(rho0, dtype=complex)
    rhos = np.empty((n_steps + 1, *rho0.shape), dtype=complex)
    below, above, keep = _band_index(rho0.shape[-1])
    y = (0.5 * (rho0 + rho0.conj().T)).reshape(-1)[below]
    lead, trail = below[keep], above[keep]
    for out, slots in zip(rhos.reshape(n_steps + 1, -1),
                          _band_steps(y, ops, dt, n_steps)):
        bands = slots[keep]
        out[trail] = bands.conj()
        out[lead] = bands
    return OracleRun(times=np.arange(n_steps + 1) * dt, rhos=rhos)


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
    return float(np.linalg.norm(_slot_generators(ops)[0] @ np.diag(rho)))
