import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import _criteria
from qsdsim.constants import TAIL_TOL
from qsdsim.errors import (DimensionError, FitError, ParameterError,
                           TrajectoryError)
from qsdsim.model import (ModelParams, OperatorSet, _gram_sum,
                          build_operators, tail_levels, temperature_for_nbar)
from qsdsim.observables import _moments
from qsdsim.oracle import _slot_generators
from qsdsim.qsd import IntegratorConfig

_THERMAL_TAIL_LIMIT = 1e-10

_MASK64 = (1 << 64) - 1

settings.register_profile(
    "suite", deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def warm_params():
    # gamma=0.2, nbar=0.5: both damping channels active
    return ModelParams(m=1.0, omega=1.0, gamma=0.2,
                       temperature=temperature_for_nbar(0.5))


@pytest.fixture(scope="session")
def ops20(warm_params):
    return build_operators(warm_params, 20)


def random_states(n: int, dim: int, seed: int) -> np.ndarray:
    """(n, dim) normalized complex states, reproducible."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def draw_noise_block(rng: np.random.Generator, dt: float,
                     n_steps: int) -> np.ndarray:
    """(n_steps, 2) complex increments, advancing rng by 4 * n_steps normals.

    The reference of the stream the compiled loop draws: row k takes
    the k-th group of four of rng's standard normals as (Re dxi1,
    Im dxi1, Re dxi2, Im dxi2), times sqrt(dt / 2), so the stream does
    not depend on the block size.
    """
    z = rng.standard_normal((n_steps, 4)) * math.sqrt(dt / 2.0)
    return z.view(complex)


def pair_seed(seed: int, b: int) -> int:
    """The int seed whose stream is default_rng([seed, b])'s.

    numpy hashes a seed's 32-bit words, low first, and an int below
    2^64 has the words (seed, b) for seed, b < 2^32, as the list does;
    a word of 0 past the first is hashed as a missing word.
    """
    return seed | b << 32


# The identity that let the tests move from list seeds to int seeds
# without a new stream, checked once.
for _s, _b in ((0, 0), (7, 3), (2 ** 32 - 1, 2 ** 32 - 1)):
    assert (np.random.PCG64([_s, _b]).state
            == np.random.PCG64(pair_seed(_s, _b)).state)


def stream_state(stream) -> dict:
    """A row of qsd._seed_streams, (state, inc) low words first, as the
    state of numpy's PCG64."""
    lo, hi, inc_lo, inc_hi = (int(w) for w in stream)
    return {"bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0, "uinteger": 0}


def store_stream(stream, state: dict) -> None:
    """Write the state of a numpy PCG64 into a row of streams."""
    words = state["state"]
    stream[:] = [words["state"] & _MASK64, words["state"] >> 64,
                 words["inc"] & _MASK64, words["inc"] >> 64]


def numpy_streams(seeds) -> np.ndarray:
    """The streams of qsd._seed_streams, seeded by numpy's PCG64."""
    streams = np.empty((len(seeds), 4), dtype=np.uint64)
    for stream, seed in zip(streams, seeds):
        store_stream(stream, np.random.PCG64(seed).state)
    return streams


def ladder(n_fock: int) -> np.ndarray:
    """The truncated annihilator, a[n-1, n] = sqrt(n), as a dense matrix."""
    return np.diag(np.sqrt(np.arange(1, n_fock)), 1).astype(complex)


def dense_operators(ops):
    """(H, L1, L2) as complex N x N matrices, for the dense references."""
    return (np.diag(ops.h).astype(complex),
            np.diag(ops.c, 1).astype(complex),
            np.diag(ops.d, -1).astype(complex))


def lindblad_rhs(mat, ops):
    """The master-equation generator applied to mat, shape (..., N, N).

    The dense reference of the band generator the oracle exponentiates.
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


def rk4_step(mat, ops, dt):
    """One classical 4th-order step of the master equation; batched.

    The slow, independent reference for the exact band propagator.
    """
    k1 = lindblad_rhs(mat, ops)
    k2 = lindblad_rhs(mat + 0.5 * dt * k1, ops)
    k3 = lindblad_rhs(mat + 0.5 * dt * k2, ops)
    k4 = lindblad_rhs(mat + dt * k3, ops)
    return mat + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


class StepKernel:
    """The batched update rule in numpy: the slow reference of qsd_step.c.

    In the Fock basis L1 = diag(c, 1) lowers and L2 = diag(d, -1)
    raises by one level, and the drift -iH/hbar - sum L^dag L / 2 is
    the diagonal g, so a step is elementwise products on shifted
    slices; norms are dot products of a row's (re, im) float view.
    """

    def __init__(self, ops):
        self.c, self.d = ops.c.astype(complex), ops.d.astype(complex)
        self.g = (-1j / ops.params.hbar) * ops.h - 0.5 * ops.mu
        self.tail_start = 2 * (ops.n_fock - tail_levels(ops.n_fock))

    def step(self, psis, noise, dt):
        """One step of a C-contiguous (B, n_fock) batch, not renormalized.

        noise has shape (B, 2).  Returns (new_psis, norms, tails):
        norms is each row's ||psi'||, and tails its relative tail mass,
        the share of ||psi'||^2 in the top tail_levels(n_fock) Fock
        levels; it is nan for a row that is not finite.
        """
        l1psi = self.c * psis[:, 1:]    # L1 psi without its zero last entry
        l2psi = self.d * psis[:, :-1]   # L2 psi without its zero first entry
        flat = psis.view(float)
        norm_sq = np.vecdot(flat, flat)
        l1 = np.vecdot(psis[:, :-1], l1psi) / norm_sq   # vecdot conjugates
        l2 = np.vecdot(psis[:, 1:], l2psi) / norm_sq
        xi1, xi2 = noise.T
        c0 = (1.0 - 0.5 * dt * (np.abs(l1) ** 2 + np.abs(l2) ** 2)
              - (l1 * xi1 + l2 * xi2))[:, None]
        out = dt * self.g + c0
        out *= psis
        l1psi *= (l1.conj() * dt + xi1)[:, None]
        out[:, :-1] += l1psi
        l2psi *= (l2.conj() * dt + xi2)[:, None]
        out[:, 1:] += l2psi
        flat = out.view(float)
        out_sq = np.vecdot(flat, flat)
        tail = flat[:, self.tail_start:]
        return out, np.sqrt(out_sq), np.vecdot(tail, tail) / out_sq


def integrate_reference(ops, psis, streams, cfg, first_index, on_sample):
    """qsd._integrate stepped by the numpy StepKernel, for comparison.

    Each row's noise is its whole draw_noise_block stream, drawn by a
    numpy Generator set to the row's stream, which is then advanced past
    it.  on_sample gets a block of one sample at a time, with its moments
    from observables._moments.  Returns (final batch, largest norm drift
    over its rows and steps); raises the same TrajectoryError as the
    compiled loop.
    """
    kern = StepKernel(ops)
    dt = cfg.dt
    n_steps = cfg.n_steps
    drift = np.empty(n_steps)
    noise = np.empty((len(streams), n_steps, 2), dtype=complex)
    for stream, row in zip(streams, noise):
        bit_generator = np.random.PCG64()
        bit_generator.state = stream_state(stream)
        row[:] = draw_noise_block(np.random.Generator(bit_generator), dt,
                                  n_steps)
        store_stream(stream, bit_generator.state)
    on_sample(psis[None], _moments(psis[None], ops), 0)
    for step in range(1, n_steps + 1):
        psis, norms, tails = kern.step(psis, noise[:, step - 1], dt)
        drift[step - 1] = np.abs(norms - 1.0).max()
        if not tails.max() <= TAIL_TOL:
            worst = int(np.argmax(tails))
            raise TrajectoryError(
                "reference tail guard", tail_mass=float(tails[worst]),
                time=step * dt, trajectory=first_index + worst)
        psis *= 1.0 / norms[:, None]
        if step % cfg.record_stride == 0:
            on_sample(psis[None], _moments(psis[None], ops), step)
    return psis, float(drift.max())


def run_split(drive, ops, psis, streams, cfg, first_index, on_sample,
              cuts):
    """drive from t = 0 to cfg.t_end, stopped at each step in cuts.

    drive is qsd._integrate or integrate_reference.  cuts maps a step s
    to the (row, level, value) entries written into the batch after s
    steps; the run then goes on with the same streams, so an empty
    list only splits it and a non-finite value poisons a row mid-run.
    Each piece runs under its own IntegratorConfig.  on_sample sees
    every piece's samples at their steps in the whole run, less the
    first state of each piece after the first, and a TrajectoryError
    carries the time in the whole run.  Returns (final batch, largest
    norm drift over the pieces).
    """
    psis = np.array(psis, dtype=complex)
    n_steps, stride = cfg.n_steps, cfg.record_stride
    bounds = sorted({0, n_steps} | {s for s in cuts if 0 < s < n_steps})
    drift = []
    for start, stop in zip(bounds, bounds[1:]):
        for row, level, value in cuts.get(start, ()):
            psis[row, level] = value

        def piece_sample(block, moments, first_step, start=start):
            if start and first_step == 0:
                block, moments, first_step = block[1:], moments[1:], stride
            if len(block):
                on_sample(block, moments, start + first_step)

        piece = IntegratorConfig(dt=cfg.dt, t_end=(stop - start) * cfg.dt,
                                 record_stride=stride)
        try:
            psis, part = drive(ops, psis, streams, piece, first_index,
                               piece_sample)
        except TrajectoryError as exc:
            raise TrajectoryError(
                str(exc), tail_mass=exc.tail_mass,
                time=exc.time + start * cfg.dt,
                trajectory=exc.trajectory) from exc
        drift.append(part)
    return psis, max(drift)


def liouvillian(ops):
    """The master-equation generator as a dense N^2 x N^2 matrix.

    It acts on row-major flattened matrices, where
    vec(A X B) = (A kron B^T) vec(X).
    """
    eye = np.eye(ops.n_fock)
    h, l1, l2 = dense_operators(ops)
    gen = (-1j / ops.params.hbar) * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in (l1, l2):
        m = l.conj().T @ l
        gen = gen + np.kron(l, l.conj()) - 0.5 * (np.kron(m, eye)
                                                  + np.kron(eye, m.T))
    return gen


# The thermal fixed point and the moment flow: criterion 7.

def thermal_state(params: ModelParams, n_fock: int) -> np.ndarray:
    """Thermal density matrix, diagonal n-bar^n / (1+n-bar)^(n+1).

    The residual beyond the truncation, (nbar/(1+nbar))^n_fock, must be
    below 1e-10; the kept diagonal is renormalized over it.
    """
    if n_fock < 2:
        raise DimensionError("n_fock must be at least 2")
    nbar = params.nbar  # 0 gives the vacuum, as 0.0 ** 0 is 1
    ratio = nbar / (1.0 + nbar)
    residual = ratio ** n_fock
    if residual > _THERMAL_TAIL_LIMIT:
        raise DimensionError(
            f"thermal tail {residual:.3e} beyond n_fock={n_fock} levels "
            f"exceeds {_THERMAL_TAIL_LIMIT:.1e}")
    diag = ratio ** np.arange(n_fock) / (1.0 + nbar)
    diag /= diag.sum()
    return np.diag(diag).astype(complex)


def stationary_lindblad_check(ops: OperatorSet) -> float:
    """Frobenius norm of the generator applied to the thermal state.

    The thermal state is diagonal, so band 0 of the generator that the
    propagator exponentiates is the only one it meets.
    """
    rho = thermal_state(ops.params, ops.n_fock)
    return float(np.linalg.norm(_slot_generators(ops)[0][0] @ np.diag(rho)))


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


# The localization rate and its windowed estimate: criteria 2 and 12.

def localization_rhs(vals: dict, params: ModelParams):
    """Predicted ensemble-mean rate d<(delta alpha)^2>/dt.

    rate = -2 gamma (nbar + 1/2) [R^2/hbar^2 + P^2/8 + Q^2/8 + dalpha^2]

    vals is a dict from bundle_arrays; returns its rates.  The rate is
    always <= -2 gamma (nbar + 1/2) times the current spread, so
    coherent states (all diagnostics 0) are the only fixed points.
    """
    r = vals["R"]
    ex_q = vals["excess_q"]
    ex_p = vals["excess_p"]
    spread = vals["delta_alpha_sq"]
    pre = 2.0 * params.gamma * (params.nbar + 0.5)
    return -pre * (r ** 2 / params.hbar ** 2
                   + ex_q ** 2 / 8.0 + ex_p ** 2 / 8.0 + spread)


def localization_rhs_spread_form(vals: dict, params: ModelParams):
    """Same rate written in terms of the raw quadrature variances.

    rate = (gamma / 2 hbar^2) (nbar + 1/2) [hbar^2 - 4 R^2
           - 2 (sigma_q^2/sigma_p^2) var_p^2
           - 2 (sigma_p^2/sigma_q^2) var_q^2]

    Algebraically identical to localization_rhs; kept as an
    independent evaluation route for consistency checks.
    """
    r = vals["R"]
    var_q = vals["var_q"]
    var_p = vals["var_p"]
    sq2 = params.sigma_q ** 2
    sp2 = params.sigma_p ** 2
    bracket = (params.hbar ** 2 - 4.0 * r ** 2
               - 2.0 * (sq2 / sp2) * var_p ** 2
               - 2.0 * (sp2 / sq2) * var_q ** 2)
    return params.gamma / (2.0 * params.hbar ** 2) * (params.nbar + 0.5) * bracket


def windowed_slopes(times: np.ndarray, series: np.ndarray, window: int):
    """Least-squares slopes of series over sliding windows of samples.

    series has shape (..., T); returns (centers, slopes) where slopes
    has shape (..., T - window + 1) and centers are the window-mean
    times.  The slope estimates the average derivative across the
    window, so compare it against window-averaged predictions.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    n_t = times.shape[0]
    if window < 2 or window > n_t:
        raise FitError(f"window {window} not usable with {n_t} samples")
    n_w = n_t - window + 1
    centers = np.empty(n_w)
    slopes = np.empty(series.shape[:-1] + (n_w,))
    for j in range(n_w):
        t = times[j:j + window]
        tc = t - t.mean()
        denom = (tc ** 2).sum()
        centers[j] = t.mean()
        seg = series[..., j:j + window]
        slopes[..., j] = (seg * tc).sum(axis=-1) / denom
    return centers, slopes


# The recovery of rho from the ensemble's final states: criterion 8.

def density_matrix(states) -> np.ndarray:
    """Equal-weight mean of the normalized dyads |psi><psi|; a zero or
    non-finite state is refused, as normalize refuses it."""
    states = np.ascontiguousarray(np.atleast_2d(states), dtype=complex)
    if states.size == 0:
        raise ParameterError("no states given")
    # on the (re, im) float view, where inf squares to inf, not nan
    flat = states.view(float)
    nrm = np.sqrt(np.vecdot(flat, flat))
    if not np.isfinite(nrm).all():
        raise ParameterError("cannot normalize a state with non-finite "
                             "amplitudes")
    if not nrm.all():
        raise DimensionError("cannot normalize a zero state")
    return _gram_sum(states / nrm[:, None]) / states.shape[0]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria.results:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, ok in sorted(_criteria.results):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {num:2d}: {desc}")
