"""Deterministic reference propagator checks.

The exact band propagator must match a dense Liouvillian exponential
and a slow RK4 integration of the generator.  The dissipative flow of
the damped oscillator has closed-form moment equations the propagator
must reproduce to tight tolerance, and its fixed points must agree
with the thermal Gibbs state.
"""
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qsdsim import (
    LindbladPropagatorConfig,
    ModelParams,
    ParameterError,
    ConfigError,
    DimensionError,
    HistorySpec,
    PhaseCell,
    build_operators,
    cat_interval_scan,
    coherent_state,
    decoherence_functional,
    propagate,
    propagate_matrices,
    temperature_for_nbar,
)
from qsdsim import oracle
from qsdsim.model import steps_on_grid
from conftest import (OUState, dense_operators, ladder, lindblad_rhs,
                      liouvillian, ou_flow, random_states, rk4_step,
                      stationary_lindblad_check, thermal_state)


def _random_density(dim, seed):
    psis = random_states(6, dim, seed=seed)
    rho = sum(np.outer(p, p.conj()) for p in psis) / 6.0
    return rho / np.trace(rho).real


def test_rhs_trace_free(ops20):
    rho = _random_density(20, 3)
    rhs = lindblad_rhs(rho, ops20)
    assert abs(np.trace(rhs)) < 1e-13


def test_rhs_preserves_hermiticity(ops20):
    rho = _random_density(20, 4)
    rhs = lindblad_rhs(rho, ops20)
    assert np.allclose(rhs, rhs.conj().T, atol=1e-13)


def test_rhs_is_linear(ops20):
    a = _random_density(20, 5)
    b = _random_density(20, 6)
    lhs = lindblad_rhs(0.3 * a + 0.7 * b, ops20)
    rhs = 0.3 * lindblad_rhs(a, ops20) + 0.7 * lindblad_rhs(b, ops20)
    assert np.allclose(lhs, rhs, atol=1e-13)


@pytest.mark.parametrize("n_fock", [11, 12])
def test_band_generator_is_the_dense_generator(warm_params, n_fock):
    # the dense generator, applied to every unit matrix, maps the bands
    # k and N - k of each slot into themselves as the slot generator the
    # propagator exponentiates, and the bands -k and k - N as its
    # conjugate; for an even N, slot N / 2 holds its one band once.  The
    # slot generator is its real part with -i rate on its diagonal
    ops = build_operators(warm_params, n_fock)
    n = n_fock
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    dense = lindblad_rhs(units, ops).reshape(n * n, n * n).T
    flat, held, _, _ = oracle._band_index(n)
    real, rate = oracle._slot_generators(ops)
    assert real.shape == (n // 2 + 1, n, n) and real.dtype == float
    assert rate.shape == (n // 2 + 1, n) and rate.dtype == float
    gens = real - 1j * rate[..., None] * np.eye(n)
    for p in range(n // 2 + 1):
        kept = held[0, p]
        gen = gens[p][np.ix_(kept, kept)]
        for half, conj in ((0, False), (1, True)):
            rows = flat[half, p][kept]
            want = dense[np.ix_(rows, rows)]
            assert np.abs((gen.conj() if conj else gen) - want).max() < 1e-13
            others = np.setdiff1d(np.arange(n * n), rows)
            assert not dense[np.ix_(others, rows)].any()


@pytest.mark.parametrize("n", [2, 3, 11, 12])
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_band_layout_round_trips(n, batch):
    # every entry is held exactly once, so _from_bands inverts
    # _to_bands bit for bit; one half stands for a Hermitian matrix
    flat, held, _, _ = oracle._band_index(n)
    assert np.array_equal(np.sort(flat[held]), np.arange(n * n))
    rng = np.random.default_rng(n)
    mats = (rng.standard_normal((*batch, n, n))
            + 1j * rng.standard_normal((*batch, n, n)))
    bands = oracle._to_bands(mats, n)
    assert bands.shape == (*batch, 2, n // 2 + 1, n)
    assert np.array_equal(oracle._from_bands(bands), mats)
    herm = mats + np.swapaxes(mats, -1, -2).conj()
    half = oracle._to_bands(herm, n)[..., :1, :, :]
    assert np.array_equal(oracle._from_bands(half), herm)


def test_rhs_moment_equations(warm_params):
    # d<n>/dt = -gamma (<n> - nbar) and d<a>/dt = -(i omega + gamma/2) <a>
    # hold exactly for the boson master equation; check them on a state
    # with negligible truncation tail so the finite matrix is faithful.
    ops = build_operators(warm_params, 30)
    psi = coherent_state(ops, 0.8 + 0.4j)
    rho = np.outer(psi, psi.conj())
    rhs = lindblad_rhs(rho, ops)
    par = warm_params
    a = ladder(30)
    n_op = a.conj().T @ a
    n_dot = np.trace(rhs @ n_op)
    a_dot = np.trace(rhs @ a)
    n_now = np.trace(rho @ n_op).real
    a_now = np.trace(rho @ a)
    assert n_dot.real == pytest.approx(
        -par.gamma * (n_now - par.nbar), abs=1e-10)
    assert abs(n_dot.imag) < 1e-12
    assert a_dot == pytest.approx(
        -(1j * par.omega + par.gamma / 2.0) * a_now, abs=1e-10)


def test_occupation_relaxes_analytically(warm_params):
    # <n>(t) = |alpha|^2 e^{-gamma t} + nbar (1 - e^{-gamma t})
    ops = build_operators(warm_params, 30)
    psi = coherent_state(ops, 1.0)
    rho0 = np.outer(psi, psi.conj())
    cfg = LindbladPropagatorConfig(dt_oracle=0.5, t_end=4.0)
    run = propagate(rho0, ops, cfg)
    assert np.array_equal(run.times, np.arange(9) * 0.5)
    par = warm_params
    for t, rho in zip(run.times, run.rhos):
        decay = np.exp(-par.gamma * t)
        want = 1.0 * decay + par.nbar * (1.0 - decay)
        got = np.trace(rho @ np.diag(np.arange(30))).real
        assert got == pytest.approx(want, abs=5e-8)


def test_flow_matches_first_moment_ode(warm_params):
    ops = build_operators(warm_params, 30)
    psi = coherent_state(ops, 0.9)
    rho0 = np.outer(psi, psi.conj())
    cfg = LindbladPropagatorConfig(dt_oracle=3.0, t_end=3.0)
    run = propagate(rho0, ops, cfg)
    flow = ou_flow(OUState(mean_alpha=0.9 + 0.0j, var_alpha=0.0),
                   warm_params, 3.0)
    got = np.trace(run.rhos[-1] @ ladder(30))
    assert got == pytest.approx(flow.mean_alpha, abs=1e-8)


def test_propagation_preserves_positivity(warm_params):
    ops = build_operators(warm_params, 24)
    rho0 = _random_density(24, 9)
    cfg = LindbladPropagatorConfig(dt_oracle=2e-3, t_end=2.0)
    run = propagate(rho0, ops, cfg)
    final = run.rhos[-1]
    evals = np.linalg.eigvalsh(final)
    assert evals.min() > -1e-12
    assert np.trace(final).real == pytest.approx(1.0, abs=1e-10)


def test_oracle_step_guard(warm_params):
    # dt_oracle only sets the sample grid: a coarse grid propagates, and
    # where its samples meet those of a fine grid the two runs agree
    ops = build_operators(warm_params, 20)
    psi = coherent_state(ops, 0.5)
    rho0 = np.outer(psi, psi.conj())
    coarse = propagate(
        rho0, ops, LindbladPropagatorConfig(dt_oracle=0.2, t_end=1.0))
    fine = propagate(
        rho0, ops, LindbladPropagatorConfig(dt_oracle=1e-3, t_end=1.0))
    assert np.allclose(coarse.times, fine.times[::200], rtol=0, atol=1e-12)
    assert np.abs(coarse.rhos - fine.rhos[::200]).max() < 1e-12


def test_span_off_the_grid_is_refused(warm_params):
    # dt_oracle is the one sample grid: propagate's t_end and the
    # interval scan's t_max must lie on it
    ops = build_operators(warm_params, 20)
    psi = coherent_state(ops, 0.5)
    rho0 = np.outer(psi, psi.conj())
    for dt, t_end in ((1e-3, 0.30007), (0.3, 1.0)):
        with pytest.raises(ConfigError, match=f"t_end {t_end} is not a whole"):
            propagate(rho0, ops, LindbladPropagatorConfig(dt_oracle=dt,
                                                          t_end=t_end))
    with pytest.raises(ConfigError, match="t_max 0.30007 is not a whole"):
        cat_interval_scan(0.5, ops,
                          LindbladPropagatorConfig(dt_oracle=1e-3, t_end=1.0),
                          0.30007)


def test_one_propagator_per_call(warm_params, monkeypatch):
    # propagate and the interval scan step every grid point with one
    # propagator over dt_oracle, and propagate builds none for t_end = 0
    ops = build_operators(warm_params, 12)
    rho0 = _random_density(12, 4)
    build, builds = oracle._band_propagator, []
    monkeypatch.setattr(oracle, "_band_propagator",
                        lambda ops, t: builds.append(t) or build(ops, t))
    pcfg = LindbladPropagatorConfig(dt_oracle=0.1, t_end=0.5)
    assert len(propagate(rho0, ops, pcfg).rhos) == 6
    assert builds == [0.1]
    scan = cat_interval_scan(0.5, ops, pcfg, 0.5, branch_cell=(0.4, 0.4),
                             h=0.1)
    assert len(scan.ratios) == 6
    assert builds == [0.1, 0.1]
    run = propagate(rho0, ops, LindbladPropagatorConfig(dt_oracle=0.1,
                                                        t_end=0.0))
    assert np.array_equal(run.times, [0.0])
    assert np.array_equal(run.rhos[0], 0.5 * (rho0 + rho0.conj().T))
    assert builds == [0.1, 0.1]
    # propagate_matrices builds one over its duration, zero included,
    # and the decoherence functional one per nonzero gap
    builds.clear()
    propagate_matrices(np.stack([rho0, rho0]), ops, 0.3)
    propagate_matrices(rho0, ops, 0.0)
    assert builds == [0.3, 0.0]
    builds.clear()
    cells = (PhaseCell(center=0.5, w_re=0.4, w_im=0.4, h=0.1),)
    decoherence_functional(HistorySpec(times=(0.0, 0.2, 0.5),
                                       cells=(cells,) * 3, rho0=rho0),
                           ops, pcfg)
    assert builds == [0.2, 0.5 - 0.2]


@pytest.mark.parametrize("entry, shape", [
    ("propagate", (10, 10)), ("propagate", (12,)),
    ("propagate_matrices", (10, 10)), ("propagate_matrices", (12,)),
    ("decoherence_functional", (10, 10)),
    ("propagate", (2, 12, 12)), ("propagate", (1, 12, 12))])
def test_a_matrix_of_the_wrong_size_is_refused(warm_params, entry, shape):
    # refused where the matrix enters the band layout, by propagate
    # (which takes one matrix, not a batch) before it allocates, and
    # before the decoherence functional builds or propagates anything
    ops = build_operators(warm_params, 12)
    mat = np.ones(shape)
    pcfg = LindbladPropagatorConfig(dt_oracle=0.1, t_end=0.5)
    cells = (PhaseCell(center=0.5, w_re=0.4, w_im=0.4, h=0.1),)
    call = {
        "propagate": lambda: propagate(mat, ops, pcfg),
        "propagate_matrices": lambda: propagate_matrices(mat, ops, 0.1),
        "decoherence_functional": lambda: decoherence_functional(
            HistorySpec(times=(0.0,), cells=(cells,), rho0=mat), ops, pcfg),
    }[entry]
    with pytest.raises(DimensionError,
                       match=rf"shape \({shape[0]},.*n_fock=12"):
        call()


def test_thermal_state_is_stationary(warm_params):
    assert stationary_lindblad_check(build_operators(warm_params, 40)) < 1e-9


def test_thermal_state_needs_headroom():
    hot = ModelParams(gamma=0.2, temperature=temperature_for_nbar(8.0))
    with pytest.raises(DimensionError):
        thermal_state(hot, 10)


def test_thermal_state_of_a_cold_bath_is_the_vacuum():
    cold = ModelParams(gamma=0.2, temperature=0.0)
    assert cold.nbar == 0.0
    vacuum = np.zeros((6, 6), dtype=complex)
    vacuum[0, 0] = 1.0
    assert np.array_equal(thermal_state(cold, 6), vacuum)


def test_batched_propagation_matches_single(warm_params):
    ops = build_operators(warm_params, 16)
    rho0 = _random_density(16, 7)
    single = propagate(
        rho0, ops, LindbladPropagatorConfig(dt_oracle=1e-3, t_end=0.5))
    batched = propagate_matrices(rho0[None, :, :], ops, 0.5)
    assert np.allclose(batched[0], single.rhos[-1], atol=1e-12)
    # each matrix of a batch goes through its own products, so the
    # batch it is evolved in changes no bit of its result
    rng = np.random.default_rng(3)
    mats = (rng.standard_normal((5, 16, 16))
            + 1j * rng.standard_normal((5, 16, 16)))
    together = propagate_matrices(mats, ops, 0.05)
    for mat, out in zip(mats, together):
        assert np.array_equal(propagate_matrices(mat, ops, 0.05), out)


@pytest.mark.parametrize("n_fock", [11, 12])
def test_conjugate_bands_are_exact(warm_params, n_fock):
    # band -k evolves under the conjugate of band k's generator, so a
    # Hermitian matrix comes out Hermitian bit for bit, and propagate
    # hermitizes a non-Hermitian rho0 once, at the start
    ops = build_operators(warm_params, n_fock)
    rng = np.random.default_rng(5)
    mat = (rng.standard_normal((n_fock, n_fock))
           + 1j * rng.standard_normal((n_fock, n_fock)))
    herm = mat + mat.conj().T
    for t in (0.02, 6.28):
        out = propagate_matrices(herm, ops, t)
        for k in range(1, n_fock):
            assert np.array_equal(np.diagonal(out, -k),
                                  np.diagonal(out, k).conj())
    run = propagate(mat, ops,
                    LindbladPropagatorConfig(dt_oracle=0.1, t_end=0.5))
    for rho in run.rhos:
        assert np.array_equal(rho, rho.conj().T)
    want = propagate_matrices(0.5 * (mat + mat.conj().T), ops, 0.5)
    assert np.abs(run.rhos[-1] - want).max() < 1e-13


@pytest.mark.parametrize("gamma, nbar", [(0.0, 0.0), (0.3, 0.0),
                                         (0.3, 0.8)])
def test_band_propagator_matches_references(gamma, nbar):
    # no bath, a zero-temperature bath and a warm one, against a dense
    # Liouvillian exponential and against small RK4 steps
    params = ModelParams(gamma=gamma, temperature=temperature_for_nbar(nbar))
    ops = build_operators(params, 12)
    rng = np.random.default_rng(11)
    mats = (rng.standard_normal((4, 12, 12))
            + 1j * rng.standard_normal((4, 12, 12)))
    gen = liouvillian(ops)

    def exact(mat, t):
        return (expm(t * gen) @ mat.reshape(-1)).reshape(mat.shape)

    got = propagate_matrices(mats, ops, 0.2)
    want = np.stack([exact(m, 0.2) for m in mats])
    assert np.abs(got - want).max() < 1e-12
    slow = mats
    for _ in range(200):
        slow = rk4_step(slow, ops, 1e-3)
    assert np.abs(got - slow).max() < 1e-8

    rho0 = _random_density(12, 8)
    run = propagate(rho0, ops,
                    LindbladPropagatorConfig(dt_oracle=0.1, t_end=0.5))
    for t, rho in zip(run.times, run.rhos):
        assert np.abs(rho - exact(rho0, t)).max() < 1e-12


def test_band_precondition_fails_closed(warm_params):
    # a position term in H couples neighbouring bands, which the band
    # propagator and the stepping loop cannot represent; an operator
    # set holding it is refused when it is made, so no caller can drop
    # the term
    ops = build_operators(warm_params, 12)
    h = dense_operators(ops)[0]
    q = warm_params.sigma_q * (ladder(12) + ladder(12).T)
    with pytest.raises(ParameterError):
        dataclasses.replace(ops, h=h + 0.1 * q)
    with pytest.raises(ParameterError):
        propagate_matrices(_random_density(12, 1), ops, -0.1)


@pytest.mark.parametrize("n_fock", [11, 12])
@pytest.mark.parametrize("nbar, omega, hbar", [
    (None, 1.0, 1.0), (0.8, 1.0, 1.0), (0.8, 1.3, 0.7)],
    ids=["None", "0.8", "0.8-omega1.3-hbar0.7"])
def test_stacked_pade_matches_scipy_per_band(n_fock, nbar, omega, hbar):
    # the one batched Pade build, its real stack times its phases,
    # against scipy's expm of each band's generator, read off the dense
    # generator; no bath and a warm one, and one whose h has differences
    # that are not exact
    params = (ModelParams(gamma=0.0, temperature=1.0) if nbar is None else
              ModelParams(omega=omega, hbar=hbar, gamma=0.3,
                          temperature=temperature_for_nbar(
                              nbar, ModelParams(omega=omega, hbar=hbar))))
    ops = build_operators(params, n_fock)
    n = n_fock
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    dense = lindblad_rhs(units, ops).reshape(n * n, n * n).T
    for t in (1e-3, 0.02, 6.28, 50.0):
        real, phase = oracle._band_propagator(ops, t)
        assert real.dtype == float and phase.shape == (n // 2 + 1, n)
        stack = phase[..., None] * real
        assert stack.shape == (n // 2 + 1, n, n)
        covered = np.zeros(stack.shape, dtype=bool)
        for k in range(n):
            j = np.arange(n - k)
            rows = (j + k) * n + j
            block = slice(0, n - k) if 2 * k <= n else slice(k, n)
            got = stack[min(k, n - k), block, block]
            want = expm(t * dense[np.ix_(rows, rows)])
            assert np.abs(got - want).max() < 1e-13
            covered[min(k, n - k), block, block] = True
        if n % 2 == 0:
            # slot N / 2 holds its one band in its trailing block too
            half = slice(n // 2, n)
            assert np.abs(stack[n // 2, half, half]
                          - stack[n // 2, :n // 2, :n // 2]).max() < 1e-13
            covered[n // 2, half, half] = True
        # off the band blocks the stack is exactly zero
        assert not stack[~covered].any()


def test_propagator_config_refuses_non_finite_values(warm_params):
    # t / inf is 0 and 0 * inf is nan, which an `> tol` grid test let
    # through as zero steps; the config and the grid test refuse it
    for dt in (0.0, -1e-3, math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError):
            LindbladPropagatorConfig(dt_oracle=dt, t_end=1.0)
    for t_end in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            LindbladPropagatorConfig(dt_oracle=1e-3, t_end=t_end)
    for t, dt in ((1.0, math.inf), (math.nan, 0.1), (math.inf, 0.1)):
        with pytest.raises(ConfigError):
            steps_on_grid(t, dt, "t")
    # a span too long for scaling and squaring to resolve, or one
    # whose exponent overflows, is refused without a warning
    ops = build_operators(warm_params, 12)
    for t in (1e20, 1e307, 1e308):
        with pytest.raises(ParameterError):
            propagate_matrices(_random_density(12, 2), ops, t)
    # with no bath the real stack is zero, and the phase alone is too long
    cold = build_operators(ModelParams(gamma=0.0), 12)
    with pytest.raises(ParameterError):
        propagate_matrices(_random_density(12, 2), cold, 1e308)


def test_zero_band_propagates_as_exactly_the_identity():
    # with no bath every real block is zero and its Pade quotient is
    # exactly I, and band 0 has no phase, so the vacuum stays exactly
    # put however many steps are taken
    ops = build_operators(ModelParams(gamma=0.0), 40)
    real, phase = oracle._band_propagator(ops, 0.02)
    assert np.array_equal(real, np.broadcast_to(np.eye(40), real.shape))
    assert np.array_equal(phase[0], np.ones(40))
    vacuum = np.diag(np.eye(40)[0]).astype(complex)
    run = propagate(vacuum, ops,
                    LindbladPropagatorConfig(dt_oracle=0.02, t_end=6.3))
    assert len(run.rhos) == 316
    assert np.array_equal(run.rhos[:, 0, 0], np.ones(316))


def _apply_hermitian(prop, rho):
    """The band propagator applied to one Hermitian matrix, gathered and
    scattered whole: the real stack and its phases carry the bands
    k >= 0, and the bands -k are their conjugates."""
    real, phase = prop
    flat, held, _, _ = oracle._band_index(rho.shape[-1])
    below, above, kept = flat[0], flat[1], held[0]
    gathered = rho.reshape(-1)[below]
    pairs = np.stack((gathered.real, gathered.imag), axis=-1)
    low = ((real @ pairs).view(complex)[..., 0] * phase)[kept]
    out = np.empty(rho.size, dtype=complex)
    out[above[kept]] = low.conj()
    out[below[kept]] = low
    return out.reshape(rho.shape)


@pytest.mark.parametrize("n_fock", [11, 12])
def test_propagate_is_a_chain_of_apply(warm_params, n_fock):
    # band-layout stepping equals gathering and scattering the whole
    # matrix at every step, bit for bit
    ops = build_operators(warm_params, n_fock)
    rho0 = _random_density(n_fock, 12)
    dt = 0.1
    run = propagate(rho0, ops,
                    LindbladPropagatorConfig(dt_oracle=dt, t_end=1.0))
    assert np.array_equal(run.times, np.arange(11) * dt)
    prop = oracle._band_propagator(ops, dt)
    rho = 0.5 * (rho0 + rho0.conj().T)
    for got in run.rhos:
        assert np.array_equal(got, rho)
        rho = _apply_hermitian(prop, rho)
