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
propagators from one batched Taylor exponential and one phase per band.
_to_bands and _from_bands convert to and from it, and _band_steps
steps it in blocks of up to _CHAIN steps: per dt_oracle for propagate
and _band_norms, over the whole duration for propagate_matrices.
_band_norms gives histories.cat_interval_scan the norms it reads;
a unit phase per band leaves every norm unchanged, so it steps without
the phases.
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


# The Taylor coefficients 1 / k! of exp to degree 20, and the largest
# 1-norm at which they give exp to double precision unscaled: the first
# term dropped, theta^21 / 21!, is below 2^-53 e^-theta <= 2^-53 ||exp A||.
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(21))
_THETA = 1.4


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a real (..., n, n) stack by scaling and squaring.

    Each matrix is scaled by its own power of two to a 1-norm of at
    most _THETA, exponentiated by its degree-20 Taylor polynomial in
    Paterson-Stockmeyer form, Horner's rule in a^4 on c_i I + c_(i+1) a +
    c_(i+2) a^2 + c_(i+3) a^3 (exactly I for a zero matrix), and squared
    back: seven matrix products and the squarings, no solve.  Each
    squaring multiplies the whole stack and keeps the product only where
    a matrix needs that many, so a matrix gets the same bits in any
    stack, and no slot is gathered or scattered."""
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA) / _THETA)).astype(int)
    a = a * np.ldexp(1.0, -s)[..., None, None]
    c, n = _TAYLOR, a.shape[-1]
    a2 = a @ a
    a3, a4 = a2 @ a, a2 @ a2
    r, term = c[20] * a4, np.empty_like(a)   # terms added in place
    for i in range(16, -1, -4):
        for k, x in enumerate((a, a2, a3), i + 1):
            r += np.multiply(x, c[k], out=term)
        r.reshape(*r.shape[:-2], n * n)[..., ::n + 1] += c[i]
        r = r @ a4 if i else r
    for i in range(s.max(initial=0)):
        r = np.where((s > i)[..., None, None], r @ r, r)
    return r


def _band_propagator(ops: OperatorSet, t: float) -> tuple[np.ndarray, ...]:
    """(real, phase): exp(t * generator) on the bands k >= 0, in the
    slots of _slot_generators, is phase[..., None] * real, with real the
    exponential of the real stack and phase exp(-i t rate), as a
    multiple of I commutes with it.  Band -k's propagator is conj(P_k).
    """
    gen, rate = _slot_generators(ops)
    # squaring s times amplifies the rounding of the Taylor step by 2^s,
    # past s = 52 beyond the result itself; the norm holds |t * rate| so
    # that the phase is finite too.  The Python float product overflows
    # to inf without a warning, and inf and nan are refused
    norm = t * (float(np.abs(gen).sum(axis=-2).max())
                + float(np.abs(rate).max()))
    if not norm <= _THETA * 2.0 ** 52:
        raise ParameterError(f"span {t} too long for one propagator: "
                             f"|t * generator| = {norm:.3g}")
    return _expm_stack(t * gen), np.exp(-1j * t * rate)


# Steps _band_steps takes one by one, then its chains; a power of two.
_CHAIN = 16


def _band_steps(y: np.ndarray, ops: OperatorSet, dt: float, n_steps: int,
                phases: bool = True):
    """(i, block) in turn, block[j] being y in band layout (any leading
    axes) after i + j of n_steps steps of dt, by one propagator built at
    the first step, if any, whose real stack multiplies (re, im) pairs.
    After _CHAIN single steps, their states advance together by it
    squared log2 _CHAIN times (its phase is a multiple of I); each of
    those blocks is a transposed view of the chains' own slot-major
    (S, N, k, ...) memory.  With phases off, the bands' unit phases are
    left out: each entry keeps its modulus, not its value."""
    yield 0, y[None]
    if not n_steps:
        return
    real, phase = _band_propagator(ops, dt)
    head = np.empty((min(n_steps, _CHAIN), *y.shape), dtype=complex)
    for out in head:
        pairs = np.ascontiguousarray(y).view(float).reshape(*y.shape, 2)
        np.matmul(real, pairs, out=out.view(float).reshape(pairs.shape))
        y = np.multiply(out, phase, out=out) if phases else out
    yield 1, head
    if n_steps <= _CHAIN:
        return
    for _ in range(_CHAIN.bit_length() - 1):
        real, phase = real @ real, phase * phase
    # slot-major, (S, N, _CHAIN, ...): transposed as complex, not floats
    axes = (head.ndim - 2, head.ndim - 1, *range(head.ndim - 2))
    chains = np.ascontiguousarray(head.transpose(axes))
    shape, back = chains.shape, np.argsort(axes)
    for i in range(_CHAIN + 1, n_steps + 1, _CHAIN):
        pairs = chains.view(float).reshape(*shape[:2], -1)
        chains = (real @ pairs).view(complex)
        if phases:
            chains *= phase[..., None]
        yield i, chains.reshape(shape).transpose(back)[:n_steps + 1 - i]


def _band_norms(mat: np.ndarray, ops: OperatorSet, dt: float, n_steps: int):
    """(i, norms) in turn, norms[j] being the Frobenius norm of the
    (N, N) matrix mat after i + j of n_steps steps of dt, as _band_steps
    gives them.  The bands step without their unit phases, which leave
    every norm unchanged, and with the entries _band_index does not hold
    once zeroed at the start: each slot's propagator is block-diagonal
    with exactly-zero off blocks, so they stay exactly 0 and a norm is
    one plain sum of squares, read in the chains' own memory."""
    n = ops.n_fock
    y = _to_bands(np.asarray(mat, dtype=complex), n)
    y[~_band_index(n)[1]] = 0.0
    ones = np.ones(y[0].size)
    for i, block in _band_steps(y, ops, dt, n_steps, phases=False):
        k = len(block)
        if i > 1:   # the chains' slot-major (S, N, k, 2) memory
            sq = np.square(block.transpose(2, 3, 0, 1).view(float))
            sq = (ones @ sq.reshape(ones.size, -1)).reshape(k, -1)
        else:
            sq = np.square(block.view(float)).reshape(k, -1)
        yield i, np.sqrt(sq.sum(axis=1))


@dataclass(frozen=True)
class LindbladPropagatorConfig:
    """dt_oracle is the one sample grid and t_end lies on it; as the
    propagator is exact, a coarser grid thins the samples to rounding."""

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
    relative); a coarser grid thins the samples to rounding.  rho0, one
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
    for i, block in _band_steps(y, ops, dt, n_steps):
        _from_bands(block[:, None], rhos[i:i + len(block)])
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
    *_, (_, block) = _band_steps(bands, ops, duration, 1)
    return _from_bands(block[0])
