"""Physical model: damped harmonic oscillator coupled to a thermal bath.

Defines the parameter set (mass, frequency, damping rate, temperature),
the derived scales (quadrature widths, thermal occupation, localization
time) and the truncated Fock-space operators used by both the
stochastic integrator and the deterministic oracle:

    H  = hbar * omega * (n + 1/2)
    L1 = sqrt((nbar + 1) * gamma) * a        (emission into the bath)
    L2 = sqrt(nbar * gamma) * a_dag          (absorption from the bath)

with q = sigma_q (a + a_dag), p = -i sigma_p (a - a_dag) and
sigma_q * sigma_p = hbar / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import TAIL_LEVEL_DIVISOR
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
        if self.m <= 0:
            raise ParameterError(f"mass must be positive, got {self.m}")
        if self.omega <= 0:
            raise ParameterError(f"frequency must be positive, got {self.omega}")
        if self.gamma < 0:
            raise ParameterError(f"damping rate must be >= 0, got {self.gamma}")
        if self.temperature < 0:
            raise ParameterError(f"temperature must be >= 0, got {self.temperature}")
        if self.hbar <= 0 or self.k_B <= 0:
            raise ParameterError("hbar and k_B must be positive")

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


@dataclass(frozen=True)
class DerivedScales:
    sigma_q: float
    sigma_p: float
    nbar: float
    t_loc: float


def derive(params: ModelParams) -> DerivedScales:
    """Derived scales including the localization time.

    t_loc = (1/gamma) * tanh(hbar omega / (2 k_B T)); the T = 0 limit
    is 1/gamma.  Requires gamma > 0.
    """
    if params.gamma <= 0:
        raise ParameterError("localization time requires gamma > 0")
    if params.temperature == 0.0:
        tanh_factor = 1.0
    else:
        tanh_factor = math.tanh(
            params.hbar * params.omega / (2.0 * params.k_B * params.temperature)
        )
    return DerivedScales(
        sigma_q=params.sigma_q,
        sigma_p=params.sigma_p,
        nbar=params.nbar,
        t_loc=tanh_factor / params.gamma,
    )


def temperature_for_nbar(nbar: float, params: ModelParams | None = None) -> float:
    """Bath temperature that produces the requested mean occupation."""
    if nbar < 0:
        raise ParameterError(f"occupation must be >= 0, got {nbar}")
    if nbar == 0:
        return 0.0
    p = params if params is not None else ModelParams()
    return p.hbar * p.omega / (p.k_B * math.log1p(1.0 / nbar))


# eq=False: identity equality; the generated == would compare ndarray
# fields elementwise and could not return one bool.
@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Dense operators on a Fock space truncated to n_fock levels.

    Matrix convention: a[n-1, n] = sqrt(n), i.e. a |n> = sqrt(n) |n-1>.
    """

    params: ModelParams
    n_fock: int
    a: np.ndarray = field(repr=False)
    a_dag: np.ndarray = field(repr=False)
    n_op: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    l1: np.ndarray = field(repr=False)
    l2: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)

    @property
    def lindblad_ops(self) -> tuple[np.ndarray, np.ndarray]:
        return self.l1, self.l2


def build_operators(params: ModelParams, n_fock: int) -> OperatorSet:
    """Construct the truncated operator set for the damped oscillator.

    Parameters
    ----------
    params : ModelParams
    n_fock : int
        Number of Fock levels kept; must be >= 2.
    """
    if n_fock < 2:
        raise DimensionError(f"need at least 2 Fock levels, got {n_fock}")
    a = np.diagflat(np.sqrt(np.arange(1, n_fock, dtype=float)), 1).astype(complex)
    a_dag = a.conj().T.copy()
    n_op = np.diag(np.arange(n_fock, dtype=float)).astype(complex)
    h = params.hbar * params.omega * (n_op + 0.5 * np.eye(n_fock))
    nbar = params.nbar
    l1 = math.sqrt((nbar + 1.0) * params.gamma) * a
    l2 = math.sqrt(nbar * params.gamma) * a_dag
    q = params.sigma_q * (a + a_dag)
    p = -1j * params.sigma_p * (a - a_dag)
    return OperatorSet(
        params=params, n_fock=n_fock, a=a, a_dag=a_dag, n_op=n_op,
        h=h, l1=l1, l2=l2, q=q, p=p,
    )


def band_form(ops: OperatorSet):
    """(h, c, d, mu) with H = diag(h), L1 = diag(c, 1), L2 = diag(d, -1).

    mu = diag(L1^dag L1 + L2^dag L2) is the diagonal loss term.  The
    banded step kernel and the band propagator rely on exactly this
    shape; any other operator set raises ParameterError.
    """
    h = np.diag(ops.h)
    c = np.diag(ops.l1, 1)
    d = np.diag(ops.l2, -1)
    if not (np.array_equal(ops.h, np.diag(h))
            and np.array_equal(ops.l1, np.diag(c, 1))
            and np.array_equal(ops.l2, np.diag(d, -1))):
        raise ParameterError(
            "the band form needs a diagonal H, a lowering L1 and a "
            "raising L2")
    mu = np.zeros(ops.n_fock)
    mu[1:] += np.abs(c) ** 2
    mu[:-1] += np.abs(d) ** 2
    return h, c, d, mu


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
    if (not math.isfinite(ratio)
            or abs(round(ratio) * dt - t) > 1e-9 * max(1.0, abs(t))):
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


def coherent_state(ops: OperatorSet, alpha: complex) -> np.ndarray:
    """Normalized coherent state |alpha> in the truncated basis.

    Requires headroom |alpha|^2 + 5 |alpha| + 5 <= n_fock so the
    Poisson occupation fits well below the truncation edge.
    """
    mag = abs(alpha)
    state = normalize(_coherent_amplitudes(ops.n_fock, alpha))
    if mag * mag + 5.0 * mag + 5.0 > ops.n_fock:
        raise TruncationError(
            f"alpha={alpha} too large for n_fock={ops.n_fock}: "
            f"tail mass {tail_mass(state):.3e}",
            tail_mass=tail_mass(state),
        )
    return state


def cat_state(ops: OperatorSet, alpha: complex, phase: float = 0.0) -> np.ndarray:
    """Normalized superposition |alpha> + e^{i phase} |-alpha>."""
    mag = abs(alpha)
    if mag * mag + 5.0 * mag + 5.0 > ops.n_fock:
        raise TruncationError(f"alpha={alpha} too large for n_fock={ops.n_fock}")
    plus = _coherent_amplitudes(ops.n_fock, alpha)
    minus = _coherent_amplitudes(ops.n_fock, -alpha)
    return normalize(plus + np.exp(1j * phase) * minus)


def expectation(state: np.ndarray, op: np.ndarray) -> complex:
    """<state| op |state> / <state|state> for amplitude arrays."""
    if state.shape[-1] != op.shape[0]:
        raise DimensionError(
            f"state dim {state.shape[-1]} != operator dim {op.shape[0]}")
    num = np.einsum("...i,ij,...j->...", state.conj(), op, state)
    den = np.einsum("...i,...i->...", state.conj(), state)
    return num / den
