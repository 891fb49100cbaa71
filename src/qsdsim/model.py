"""Physical model: damped harmonic oscillator coupled to a thermal bath.

Defines the parameter set (mass, frequency, damping rate, temperature),
the derived scales (quadrature widths, thermal occupation, localization
time) and the truncated Fock-space operators used by both the
stochastic integrator and the deterministic oracle:

    H  = hbar * omega * (n + 1/2)
    L1 = sqrt((nbar + 1) * gamma) * a        (emission into the bath)
    L2 = sqrt(nbar * gamma) * a_dag          (absorption from the bath)

with a |n> = sqrt(n) |n-1>.  All three are band operators in the Fock
basis, so the model is three real vectors: the diagonal of H, the
superdiagonal of L1 and the subdiagonal of L2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import MAX_N_FOCK, MAX_WIDTH_SQ, TAIL_LEVEL_DIVISOR
from .errors import ConfigError, DimensionError, ParameterError, \
    TruncationError

# Temperatures with hbar*omega/(k_B*T) above this behave as T = 0.
_EXP_ARG_MAX = 700.0


@dataclass(frozen=True)
class ModelParams:
    """Oscillator and bath parameters.

    All values are in the unit system fixed by the chosen hbar and k_B
    (defaults give the dimensionless convention hbar = k_B = 1).
    """

    m: float = 1.0
    omega: float = 1.0
    gamma: float = 0.1
    temperature: float = 0.0
    hbar: float = 1.0
    k_B: float = 1.0

    def __post_init__(self):
        # the comparisons are false for nan, so nan is refused too
        for label, value, positive in (
                ("mass m", self.m, True),
                ("frequency omega", self.omega, True),
                ("damping rate gamma", self.gamma, False),
                ("temperature", self.temperature, False),
                ("hbar", self.hbar, True), ("k_B", self.k_B, True)):
            above = 0.0 < value if positive else 0.0 <= value
            if not (above and value < math.inf):
                raise ParameterError(
                    f"{label} must be {'> 0' if positive else '>= 0'} and "
                    f"finite, got {value}")
        # the quadratures divide by the widths' squares, and ensemble
        # statistics square them; sigma_q divides by 2 m omega, which may
        # underflow to 0
        q = self.sigma_q if 2.0 * self.m * self.omega > 0.0 else math.inf
        q2, p2 = q * q, self.sigma_p * self.sigma_p
        if not (0.0 < q2 <= MAX_WIDTH_SQ and 0.0 < p2 <= MAX_WIDTH_SQ):
            raise ParameterError(f"sigma_q**2 = {q2:g} and sigma_p**2 = "
                                 f"{p2:g} must each be > 0 and at most "
                                 f"{MAX_WIDTH_SQ:g}")

    @property
    def sigma_q(self) -> float:
        """Position width of the coherent-state wave packet."""
        return math.sqrt(self.hbar / (2.0 * self.m * self.omega))

    @property
    def sigma_p(self) -> float:
        """Momentum width; sigma_q * sigma_p = hbar / 2."""
        return math.sqrt(self.hbar * self.m * self.omega / 2.0)

    @property
    def nbar(self) -> float:
        """Mean bath occupation 1 / (exp(hbar omega / k_B T) - 1).

        T = 0 is returned as exactly 0 rather than through the
        exponential, so the absorption operator vanishes identically.
        """
        if self.temperature == 0.0:
            return 0.0
        x = self.hbar * self.omega / (self.k_B * self.temperature)
        if x > _EXP_ARG_MAX:
            return 0.0
        return 1.0 / math.expm1(x)

    @property
    def t_loc(self) -> float:
        """Localization time tanh(hbar omega / (2 k_B T)) / gamma.

        The T = 0 limit is 1 / gamma.  Requires gamma > 0.
        """
        if self.gamma <= 0:
            raise ParameterError("localization time requires gamma > 0")
        if self.temperature == 0.0:
            return 1.0 / self.gamma
        return math.tanh(self.hbar * self.omega
                         / (2.0 * self.k_B * self.temperature)) / self.gamma


def temperature_for_nbar(nbar: float, params: ModelParams | None = None) -> float:
    """Bath temperature that produces the requested mean occupation."""
    if not 0.0 <= nbar < math.inf:
        raise ParameterError(f"occupation nbar must be >= 0 and finite, "
                             f"got {nbar}")
    if nbar == 0:
        return 0.0
    p = params if params is not None else ModelParams()
    return p.hbar * p.omega / (p.k_B * math.log1p(1.0 / nbar))


# eq=False: identity equality; the generated == would compare ndarray
# fields elementwise and could not return one bool.
@dataclass(frozen=True, eq=False)
class OperatorSet:
    """The band vectors of H, L1 and L2 on n_fock Fock levels.

    H = diag(h), L1 = diag(c, 1) lowers and L2 = diag(d, -1) raises by
    one level.  All three are real float vectors, and h is evenly spaced
    as the oracle's one phase per band needs; any other shape or value
    is refused here, so a non-band model cannot be built.
    """

    params: ModelParams
    n_fock: int
    h: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_n_fock(self.n_fock)
        for name, size in (("h", self.n_fock), ("c", self.n_fock - 1),
                           ("d", self.n_fock - 1)):
            vec = getattr(self, name)
            if (not isinstance(vec, np.ndarray) or vec.dtype != float
                    or vec.shape != (size,)):
                raise ParameterError(
                    f"{name} must be a real float vector of {size} entries")
            if not np.isfinite(vec).all():
                raise ParameterError(f"{name} has non-finite entries")
        # h spaced evenly to 4 eps max|h| (build_operators' h: at most 0.98
        # over 20000 random n_fock, omega, hbar); false for nan, overflow
        with np.errstate(over="ignore", invalid="ignore"):
            off = np.abs(np.diff(self.h) - self.spacing).max()
        if not off <= 4.0 * np.finfo(float).eps * np.abs(self.h).max():
            raise ParameterError(f"h is not evenly spaced: off by {off:.3g}")
        with np.errstate(over="ignore"):   # c**2 or d**2 may overflow
            if not np.isfinite(self.mu).all():
                raise ParameterError("mu = c**2 + d**2 is not finite")

    @property
    def spacing(self) -> float:
        """H's level spacing, hbar omega for build_operators."""
        return (self.h[-1] - self.h[0]) / (self.n_fock - 1)

    @property
    def mu(self) -> np.ndarray:
        """diag(L1^dag L1 + L2^dag L2), the diagonal loss term."""
        mu = np.zeros(self.n_fock)
        mu[1:] += self.c ** 2
        mu[:-1] += self.d ** 2
        return mu


def _check_n_fock(n_fock: int) -> None:
    if n_fock < 2:
        raise DimensionError(f"need at least 2 Fock levels, got {n_fock}")
    if n_fock > MAX_N_FOCK:
        raise DimensionError(f"n_fock {n_fock} is greater than the maximum "
                             f"of {MAX_N_FOCK}")


def build_operators(params: ModelParams, n_fock: int) -> OperatorSet:
    """The band vectors of the damped oscillator on n_fock levels, from 2
    to MAX_N_FOCK; the count is checked before any vector is sized."""
    _check_n_fock(n_fock)
    root_n = np.sqrt(np.arange(1, n_fock, dtype=float))
    nbar = params.nbar
    return OperatorSet(
        params=params, n_fock=n_fock,
        h=params.hbar * params.omega * (np.arange(n_fock, dtype=float) + 0.5),
        c=math.sqrt((nbar + 1.0) * params.gamma) * root_n,
        d=math.sqrt(nbar * params.gamma) * root_n)


# -- state vectors ----------------------------------------------------------
#
# States are plain complex arrays of amplitudes over Fock levels,
# normalized to unit length.  The helpers below enforce the two state
# invariants: unit norm and a healthy truncation tail.


def normalize(state: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(state)
    if not math.isfinite(nrm):
        raise ParameterError("cannot normalize a state with non-finite "
                             "amplitudes")
    if nrm == 0:
        raise DimensionError("cannot normalize a zero state")
    return state / nrm


#: Rows per product of _gram_sum.  Measured with OpenBLAS 0.3.31 capped
#: at 2 threads on a 2-core Xeon VM, 300 projectors' sums of 280 rows at
#: N = 40: one (40, 280) @ (280, 40) product, or 64-row slices, kept
#: OpenBLAS's second thread busy for 18-70 ticks of 10 ms (worst call 88
#: ms); slices of 4 to 32 rows used it for none, at the same 0.6-0.7 ms
#: median.  8 stays well below that.
_GRAM_SLICE = 8
#: Complex entries of slice products and padded rows that _gram_sum
#: holds at once: 128 KiB.  At 2**20 a 256-row snapshot raised the
#: ensemble_wide benchmark's peak RSS by 1 MB.
_GRAM_BUDGET = 2 ** 13


def _gram_sum(rows: np.ndarray) -> np.ndarray:
    """sum_b |rows_b><rows_b| of a (P, N) array of rows.

    Each product covers _GRAM_SLICE zero-padded rows, so OpenBLAS starts
    no worker thread.  A chunk of products fills slots 1.. of a reused
    buffer of at most _GRAM_BUDGET entries, or of two products where
    those are larger, and slot 0 carries the running total.  Each chunk
    is summed in slot order, so the sum is the same sequence of
    additions whatever the chunk size.
    """
    p, n = rows.shape
    per = max(2, _GRAM_BUDGET // (n * (n + 2 * _GRAM_SLICE)))
    buf = np.zeros((min(per, 1 + -(-p // _GRAM_SLICE)), n, n), dtype=complex)
    step = (len(buf) - 1) * _GRAM_SLICE
    for start in range(0, p, step):
        chunk = rows[start:start + step]
        k = -(-len(chunk) // _GRAM_SLICE)
        part = np.zeros((k, _GRAM_SLICE, n), dtype=complex)
        part.reshape(-1, n)[:len(chunk)] = chunk
        np.matmul(part.mT, part.conj(), out=buf[1:k + 1])
        buf[0] = buf[:k + 1].sum(axis=0)
    return buf[0].copy()


def tail_levels(n_fock: int) -> int:
    """Number of top Fock levels the truncation guard watches."""
    return -(-n_fock // TAIL_LEVEL_DIVISOR)


def tail_mass(state: np.ndarray) -> float:
    """Probability mass in the top tail_levels(n_fock) Fock levels."""
    n = state.shape[-1]
    k = tail_levels(n)
    return float(np.sum(np.abs(state[..., n - k:]) ** 2, axis=-1).max())


def steps_on_grid(t: float, dt: float, what: str) -> int:
    """The whole number of steps dt that make up t.

    Raises ConfigError when t is off the step grid by more than
    1e-9 * max(1, |t|).
    """
    ratio = t / dt
    # false for nan, as when dt is infinite, so nan is refused too
    if (not math.isfinite(ratio)
            or not abs(round(ratio) * dt - t) <= 1e-9 * max(1.0, abs(t))):
        raise ConfigError(f"{what} {t} is not a whole number of steps "
                          f"of {dt}")
    return int(round(ratio))


def fock_state(ops: OperatorSet, n: int) -> np.ndarray:
    if not 0 <= n < ops.n_fock:
        raise DimensionError(f"Fock level {n} outside 0..{ops.n_fock - 1}")
    state = np.zeros(ops.n_fock, dtype=complex)
    state[n] = 1.0
    return state


def _coherent_amplitudes(n_fock: int, alpha: complex) -> np.ndarray:
    # c_n = alpha^n / sqrt(n!), accumulated recursively; numerically
    # renormalized afterwards, which also absorbs the truncated tail.
    c = np.empty(n_fock, dtype=complex)
    c[0] = 1.0
    for n in range(1, n_fock):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return c


def check_headroom(alpha: complex, n_fock: int, label: str = "alpha") -> None:
    """Refuse alpha unless |alpha|^2 + 5 |alpha| + 5 <= n_fock, so the
    Poisson occupation of |alpha> fits well below the truncation edge.

    The comparison is false for nan, so nan is refused too.
    """
    mag = abs(alpha)
    if not mag * mag + 5.0 * mag + 5.0 <= n_fock:
        raise TruncationError(
            f"{label}={alpha} is non-finite or too large for n_fock="
            f"{n_fock}: need |alpha|^2 + 5|alpha| + 5 <= n_fock")


def coherent_state(ops: OperatorSet, alpha: complex) -> np.ndarray:
    """Normalized coherent state |alpha> in the truncated basis; alpha
    must pass check_headroom."""
    check_headroom(alpha, ops.n_fock)
    return normalize(_coherent_amplitudes(ops.n_fock, alpha))


def coherent_states(ops: OperatorSet, alphas: np.ndarray) -> np.ndarray:
    """coherent_state of each entry of the 1-D alphas, one per row.

    The level recursion runs over all points at once, so rows agree
    with coherent_state to round-off, not bit for bit.
    """
    alphas = np.asarray(alphas, dtype=complex)
    # argmax stops at the first nan, which check_headroom refuses
    check_headroom(alphas[np.argmax(np.abs(alphas))], ops.n_fock)
    states = np.empty((alphas.size, ops.n_fock), dtype=complex)
    states[:, 0] = 1.0
    for n in range(1, ops.n_fock):
        states[:, n] = states[:, n - 1] * alphas / math.sqrt(n)
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def cat_state(ops: OperatorSet, alpha: complex, phase: float = 0.0) -> np.ndarray:
    """Normalized superposition |alpha> + e^{i phase} |-alpha>."""
    check_headroom(alpha, ops.n_fock)
    plus = _coherent_amplitudes(ops.n_fock, alpha)
    minus = _coherent_amplitudes(ops.n_fock, -alpha)
    return normalize(plus + np.exp(1j * phase) * minus)
