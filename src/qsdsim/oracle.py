"""The deterministic reference the stochastic ensemble is checked
against: the exact propagator of the density-matrix equation of motion

  drho/dt = -(i/hbar)[H, rho] + sum_n (L_n rho L_n^dag
            - {L_n^dag L_n, rho} / 2).

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

This module owns the one band layout of _band_index: half 0 holds a
matrix's bands k >= 0 and half 1 the conjugates of its bands -k, each
as N // 2 + 1 slots of N entries (bands k and N - k share a slot).
H, evenly spaced, adds -i k spacing / hbar, a multiple of I, to band
k's generator, so both halves evolve under one real stack of
propagators from one batched Pade exponential and one phase per band.
_to_bands and _from_bands convert to and from it, and _band_steps
steps it by one real stacked product per step: per dt_oracle for
propagate and histories.cat_interval_scan, over the whole duration for
propagate_matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .model import OperatorSet, steps_on_grid


@functools.lru_cache(maxsize=8)
def _band_index(n: int):
    """(flat, held, inverse, upper): the band layout (..., 2, N // 2 + 1, N).

    flat[h, p, j] is the row-major position of the entry at position j
    of slot p of half h; held is false where slot 0 of half 1 repeats
    band 0 and where slot N / 2 of an even N repeats its one band.
    inverse[m, l] is the position of entry (m, l) among the held ones of
    the flattened layout, and upper (m < l) marks those of half 1.
    """
    p, j = np.indices((n // 2 + 1, n))
    lead = j < n - p
    k = np.where(lead, p, n - p)
    i = np.where(lead, j, j - n + p)
    flat = np.stack((k * n + i * (n + 1), k + i * (n + 1)))
    held = np.stack((lead | (2 * p != n),) * 2)
    held[1, 0] = False
    inverse = np.empty((n, n), dtype=np.intp)
    inverse.flat[flat[held]] = np.flatnonzero(held)
    index = (flat, held, inverse, inverse >= held[0].size)
    for a in index:  # shared by every caller through the cache
        a.setflags(write=False)
    return index


def _to_bands(mats: np.ndarray, n: int) -> np.ndarray:
    """(..., N, N) matrices in band layout, (..., 2, N // 2 + 1, N)."""
    if mats.shape[-2:] != (n, n):
        raise DimensionError(f"matrix of shape {mats.shape} does not fit "
                             f"n_fock={n}")
    bands = mats.reshape(*mats.shape[:-2], -1)[..., _band_index(n)[0]]
    np.conjugate(bands[..., 1, :, :], out=bands[..., 1, :, :])
    return bands


def _from_bands(bands: np.ndarray, out=None) -> np.ndarray:
    """The (..., N, N) matrices of a band layout, into out if given.  One
    half, (..., 1, N // 2 + 1, N), stands for both halves of a Hermitian
    matrix: take wraps the positions in half 1 onto half 0."""
    _, _, inverse, upper = _band_index(bands.shape[-1])
    mats = bands.reshape(bands.shape[:-3] + (-1,)).take(
        inverse, axis=-1, mode="wrap", out=out)
    return np.conjugate(mats, out=mats, where=upper)


def _band_norm(bands: np.ndarray) -> float:
    """Frobenius norm of one matrix in band layout."""
    return np.linalg.norm(bands[_band_index(bands.shape[-1])[1]])


def _slot_generators(ops: OperatorSet) -> tuple[np.ndarray, np.ndarray]:
    """(gen, rate): the generator on the bands k >= 0, as N // 2 + 1
    slots of N x N, is gen - i diag(rate).

    Slot p acts on the entries at _band_index's positions flat[0, p]:
    band p, then band N - p (for an even N, slot N / 2 holds band N / 2
    twice).  On band k = m - n, rate = k * spacing / hbar and the real
    diagonal is -(mu_m + mu_n) / 2 with mu = diag(sum L^dag L), and
    L1 = diag(c, 1) and L2 = diag(d, -1) couple entry (m, n) to
    (m + 1, n + 1) by c_m c_n and back by d_m d_n.  Each band ends at
    m = N - 1, where c and d are zero, so a slot is block-diagonal.
    Band -k carries the conjugate of band k's generator.
    """
    n = ops.n_fock
    c, d, mu = np.append(ops.c, 0.0), np.append(ops.d, 0.0), ops.mu
    m, l = np.divmod(_band_index(n)[0][0], n)
    j = np.arange(n)
    gen = np.zeros((n // 2 + 1, n, n))
    gen[:, j, j] = -0.5 * (mu[m] + mu[l])
    rate = (m - l) * (ops.spacing / ops.params.hbar)
    m, l = m[:, :-1], l[:, :-1]
    gen[:, j[:-1], j[1:]] = c[m] * c[l]
    gen[:, j[1:], j[:-1]] = d[m] * d[l]
    return gen, rate


# The [13/13] Pade coefficients b_0..b_13 and the largest 1-norm at
# which that approximant is accurate to double precision unscaled
# (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a real (..., n, n) stack by scaling and squaring.

    Each matrix is scaled by its own power of two to a 1-norm of at
    most theta_13, exponentiated by the [13/13] Pade approximant
    I + 2 (V - U)^-1 U, exactly I for a zero matrix, and squared back.
    Each product and solve is one small matrix per BLAS or LAPACK call,
    so none of them starts a worker thread.
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
    r = 2.0 * np.linalg.solve(v - u, u) + eye
    for i in range(s.max(initial=0)):
        more = s > i
        r[more] = r[more] @ r[more]
    return r


def _band_propagator(ops: OperatorSet, t: float) -> tuple[np.ndarray, ...]:
    """(real, phase): exp(t * generator) on the bands k >= 0, in the
    slots of _slot_generators, is phase[..., None] * real, with real the
    exponential of the real stack and phase exp(-i t rate), as a
    multiple of I commutes with it.  Band -k's propagator is conj(P_k).
    """
    gen, rate = _slot_generators(ops)
    # squaring s times amplifies the rounding of the Pade step by 2^s,
    # past s = 52 beyond the result itself; the norm holds |t * rate| so
    # that the phase is finite too.  The Python float product overflows
    # to inf without a warning, and inf and nan are refused
    norm = t * (float(np.abs(gen).sum(axis=-2).max())
                + float(np.abs(rate).max()))
    if not norm <= _THETA13 * 2.0 ** 52:
        raise ParameterError(f"span {t} too long for one propagator: "
                             f"|t * generator| = {norm:.3g}")
    return _expm_stack(t * gen), np.exp(-1j * t * rate)


def _band_steps(y: np.ndarray, ops: OperatorSet, dt: float, n_steps: int):
    """y in band layout (any leading axes), then after each of n_steps
    steps of dt, by one propagator built at the first step, if any;
    the real stack multiplies y's entries as (re, im) pairs."""
    yield y
    if n_steps:
        real, phase = _band_propagator(ops, dt)
        for _ in range(n_steps):
            pairs = np.ascontiguousarray(y).view(float)
            y = (real @ pairs.reshape(*y.shape, 2)).view(complex)[..., 0]
            y *= phase
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
    relative); a coarser grid thins the samples exactly.  rho0, one
    (N, N) matrix, is hermitized once; only the bands k >= 0 are
    evolved, and each snapshot is written from them with the bands -k
    as their conjugates, so it is Hermitian by construction.
    """
    if np.shape(rho0) != (ops.n_fock, ops.n_fock):
        raise DimensionError(f"matrix of shape {np.shape(rho0)} does not "
                             f"fit n_fock={ops.n_fock}")
    dt = cfg.dt_oracle
    n_steps = steps_on_grid(cfg.t_end, dt, "t_end")
    rhos = np.empty((n_steps + 1, ops.n_fock, ops.n_fock), dtype=complex)
    bands = _to_bands(np.asarray(rho0, dtype=complex), ops.n_fock)
    # hermitized in band layout, where it leaves the two halves equal
    y = 0.5 * (bands[..., 0, :, :] + bands[..., 1, :, :])
    for out, half in zip(rhos, _band_steps(y, ops, dt, n_steps)):
        _from_bands(half[None], out)
    return OracleRun(times=np.arange(n_steps + 1) * dt, rhos=rhos)


def propagate_matrices(mats: np.ndarray, ops: OperatorSet,
                       duration: float) -> np.ndarray:
    """Apply the linear propagator over a duration to a batch.

    No hermitization, so non-Hermitian history intermediates evolve
    correctly.  Each matrix has its own products, so no result depends
    on the batch it is in.
    """
    if not 0 <= duration < math.inf:
        raise ParameterError(
            f"duration must be finite and >= 0, got {duration}")
    bands = _to_bands(np.asarray(mats, dtype=complex), ops.n_fock)
    *_, bands = _band_steps(bands, ops, duration, 1)
    return _from_bands(bands)
