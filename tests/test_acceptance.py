"""Release gate: twelve end-to-end checks of the assembled stack.

Each test evaluates one numbered criterion at its pinned tolerance and
records a verdict line that conftest prints in the terminal summary, so
the full pass/fail record is visible even under output capture.  Seeds
and ensemble sizes are frozen; at these seeds every statistical check
passes with documented headroom, so a failure here means a behavior
change, not an unlucky draw.

Runs in a few minutes total.  The shared thermal relaxation ensemble
(criteria 5 and 6) and the convergence study (criterion 8) dominate.
"""

import math

import numpy as np
import pytest

import _criteria
from conftest import (OUState, density_matrix, draw_noise_block,
                      localization_rhs, localization_rhs_spread_form,
                      ou_flow, random_states, stationary_lindblad_check,
                      windowed_slopes)
from qsdsim.ensemble import (EnsembleConfig, InitialStateSpec, run_ensemble,
                             trace_distance)
from qsdsim.histories import HistorySpec, PhaseCell, decoherence_functional
from qsdsim.model import (ModelParams, build_operators, cat_state,
                          coherent_state, temperature_for_nbar)
from qsdsim.observables import fit_exponential_decay, bundle_arrays
from qsdsim.oracle import LindbladPropagatorConfig, propagate
from qsdsim import qsd
from qsdsim.qsd import IntegratorConfig, run_trajectory


def _params(gamma: float, nbar: float, omega: float = 1.0) -> ModelParams:
    base = ModelParams(m=1.0, omega=omega, gamma=gamma)
    temp = temperature_for_nbar(nbar, base) if nbar > 0 else 0.0
    return ModelParams(m=1.0, omega=omega, gamma=gamma, temperature=temp)


def _fock1_rate(params, n_fock, dt, t_end, stride, m, seed):
    """Fitted decay rate of the mean spread, starting from |1>."""
    ops = build_operators(params, n_fock)
    cfg = EnsembleConfig(
        m=m, base_seed=seed,
        integrator=IntegratorConfig(dt=dt, t_end=t_end, record_stride=stride),
        initial=InitialStateSpec(kind="fock", n=1))
    stats = run_ensemble(cfg, ops)
    fit = fit_exponential_decay(stats.times, stats.means["delta_alpha_sq"],
                                stats.stderrs["delta_alpha_sq"])
    return fit


# -- 1: a coherent state is stationary up to quantum noise ------------------

def test_criterion_01_coherent_state_stays_coherent():
    params = _params(0.2, 0.5)
    ops = build_operators(params, 32)
    cfg = IntegratorConfig(dt=1e-3, t_end=50.0, seed=1, record_stride=50)
    rec = run_trajectory(coherent_state(ops, 1.0 + 0.0j), ops, cfg)
    worst = 0.0
    for b in rec.bundles:
        worst = max(worst, abs(b.excess_q), abs(b.excess_p),
                    abs(b.R) / params.hbar, b.delta_alpha_sq)
    ok = worst < 0.05
    _criteria.record(1, "coherent initial state keeps all shape "
                        "diagnostics below 0.05 out to t=50", ok)
    assert ok, f"worst diagnostic {worst:.4f} (limit 0.05)"


# -- 2: localization rate of an excited state -------------------------------

def test_criterion_02_fock_localization_rate(warm_params):
    ops = build_operators(warm_params, 32)
    cfg = EnsembleConfig(
        m=500, base_seed=7,
        integrator=IntegratorConfig(dt=1e-3, t_end=12.0, record_stride=20),
        initial=InitialStateSpec(kind="fock", n=1),
        store_series=("R", "excess_q", "excess_p", "delta_alpha_sq"))
    stats = run_ensemble(cfg, ops)

    fit = fit_exponential_decay(stats.times, stats.means["delta_alpha_sq"],
                                stats.stderrs["delta_alpha_sq"])
    bound = 2.0 * warm_params.gamma * (warm_params.nbar + 0.5)
    ok_rate = fit.rate - fit.ci95 >= bound

    # Pointwise: regressed slope of the mean spread against the mean
    # predicted rate.  Both are window averages over the same samples
    # (the slope estimates the average derivative across its window),
    # and the difference is taken per trajectory so shared noise
    # cancels before the z score is formed.
    window = 10
    rhs = localization_rhs(stats.series, warm_params)
    centers, slopes = windowed_slopes(stats.times,
                                      stats.series["delta_alpha_sq"], window)
    rhs_win = np.lib.stride_tricks.sliding_window_view(
        rhs, window, axis=1).mean(axis=-1)
    diff = slopes - rhs_win
    m = diff.shape[0]
    se = diff.std(axis=0, ddof=1) / math.sqrt(m)
    z = np.abs(diff.mean(axis=0)) / se
    ok_point = float(z.max()) < 4.0

    ok = ok_rate and ok_point
    _criteria.record(2, "spread of |1> decays at least at the minimum "
                        "rate and tracks the predicted slope", ok)
    assert ok_rate, (f"rate {fit.rate:.4f} +- {fit.ci95:.4f} "
                     f"not above bound {bound:.4f}")
    assert ok_point, f"max slope z-score {z.max():.2f} (limit 4)"


# -- 3: localization time across the temperature range ----------------------

def test_criterion_03_localization_time_vs_temperature():
    gamma = 0.2
    hot = ModelParams(m=1.0, omega=1.0, gamma=gamma, temperature=10.0)
    cold = ModelParams(m=1.0, omega=1.0, gamma=gamma, temperature=0.1)
    # hbar omega / k_B T = 0.1 and 10 for these two baths
    ok_analytic = (abs(hot.t_loc * gamma - math.tanh(0.05)) < 1e-6
                   and abs(cold.t_loc * gamma - math.tanh(5.0)) < 1e-6)

    fit_hot = _fock1_rate(hot, n_fock=56, dt=5e-4, t_end=1.0, stride=10,
                          m=500, seed=7)
    fit_cold = _fock1_rate(cold, n_fock=24, dt=1e-3, t_end=12.0, stride=20,
                           m=500, seed=7)
    ratio_hot = (1.0 / fit_hot.rate) / hot.t_loc
    ratio_cold = (1.0 / fit_cold.rate) / cold.t_loc
    ok_measured = (1.0 / 3.0 < ratio_hot < 3.0
                   and 1.0 / 3.0 < ratio_cold < 3.0)

    ok = ok_analytic and ok_measured
    _criteria.record(3, "localization time matches tanh law exactly and "
                        "measured times within factor 3", ok)
    assert ok_analytic
    assert ok_measured, (f"t_meas/t_loc hot {ratio_hot:.3f}, "
                         f"cold {ratio_cold:.3f} (band 1/3..3)")


# -- 4: superposition decay scales as separation squared --------------------

def test_criterion_04_cat_rate_scales_with_separation_squared():
    params = _params(0.2, 5.0)
    ops = build_operators(params, 64)
    rates = []
    for alpha0 in (1.5, 3.0):
        cfg = EnsembleConfig(
            m=192, base_seed=42,
            integrator=IntegratorConfig(dt=2.5e-4, t_end=1.0,
                                        record_stride=4),
            initial=InitialStateSpec(kind="cat", alpha=alpha0 + 0.0j))
        stats = run_ensemble(cfg, ops)
        fit = fit_exponential_decay(stats.times,
                                    stats.means["delta_alpha_sq"],
                                    stats.stderrs["delta_alpha_sq"])
        rates.append(fit.rate)
    ratio = rates[1] / rates[0]
    ok = 2.0 < ratio < 6.0
    _criteria.record(4, "doubling the branch separation quadruples the "
                        "collapse rate within 50%", ok)
    assert ok, f"rate ratio {ratio:.3f} (want 4 within 50%)"


# -- 5 and 6 share one long relaxation ensemble -----------------------------

@pytest.fixture(scope="module")
def thermal_relaxation():
    params = _params(0.5, 1.0)
    ops = build_operators(params, 40)
    cfg = EnsembleConfig(
        m=500, base_seed=21,
        integrator=IntegratorConfig(dt=1e-3, t_end=40.0, record_stride=100),
        initial=InitialStateSpec(kind="fock", n=0),
        store_series=("n_mean",))
    stats = run_ensemble(cfg, ops)
    # late-time snapshots, one relaxation time 1/gamma apart
    late_idx = np.arange(200, 401, 20)
    assert stats.times[late_idx[0]] == pytest.approx(20.0)
    return params, stats, late_idx


def test_criterion_05_mean_occupation_thermalizes(thermal_relaxation):
    params, stats, late_idx = thermal_relaxation
    per_traj = stats.series["n_mean"][:, late_idx].mean(axis=1)
    m = per_traj.size
    mean = float(per_traj.mean())
    se = float(per_traj.std(ddof=1)) / math.sqrt(m)
    z = abs(mean - params.nbar) / se
    ok = z < 4.0
    _criteria.record(5, "late-time mean occupation agrees with the bath "
                        "occupation within 4 standard errors", ok)
    assert ok, f"<n> = {mean:.4f} +- {se:.4f}, z = {z:.2f} vs nbar = 1"


def test_criterion_06_occupation_histogram_is_thermal(thermal_relaxation):
    from scipy import stats as sp_stats

    params, stats, late_idx = thermal_relaxation
    pbar = stats.occupation[late_idx].mean(axis=0)
    # Multinomial over levels 0..6 plus everything above, against the
    # geometric thermal law.  Treating every snapshot as independent
    # overstates the count, which makes the chi-square conservative
    # (larger, never smaller).
    m_eff = stats.m * late_idx.size
    nbar = params.nbar
    p_level = np.array([nbar ** n / (1.0 + nbar) ** (n + 1)
                        for n in range(7)])
    expected = np.append(p_level, 1.0 - p_level.sum()) * m_eff
    observed = np.append(pbar[:7], 1.0 - pbar[:7].sum()) * m_eff
    assert expected.min() > 5.0
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    p_value = float(sp_stats.chi2.sf(chi2, df=expected.size - 1))
    ok = p_value > 0.01
    _criteria.record(6, "late-time occupation histogram passes a "
                        "chi-square test against the thermal law", ok)
    assert ok, f"chi2 = {chi2:.2f}, p = {p_value:.4f} (need > 0.01)"


# -- 7: deterministic reference dynamics ------------------------------------

def test_criterion_07_reference_fixed_point_and_moment_flow():
    params = _params(0.5, 1.0)
    ops = build_operators(params, 40)
    resid = stationary_lindblad_check(ops)
    ok_fixed = resid < 1e-9

    t = 40.0 / params.gamma
    flowed = ou_flow(OUState(mean_alpha=2.0 + 0.0j, var_alpha=0.0), params, t)
    err = max(abs(flowed.mean_alpha), abs(flowed.var_alpha - params.nbar))
    ok_flow = err < 1e-8

    ok = ok_fixed and ok_flow
    _criteria.record(7, "thermal state is a generator fixed point and "
                        "moments relax onto (0, nbar)", ok)
    assert ok_fixed, f"generator residual {resid:.3e} (limit 1e-9)"
    assert ok_flow, f"moment-flow error {err:.3e} (limit 1e-8)"


# -- 8: stochastic mean converges to the deterministic evolution ------------

def _final_states(ops, dt, m, seed):
    cfg = EnsembleConfig(
        m=m, base_seed=seed,
        integrator=IntegratorConfig(dt=dt, t_end=5.0,
                                    record_stride=int(round(5.0 / dt))),
        initial=InitialStateSpec(kind="coherent", alpha=1.0 + 0.0j))
    return run_ensemble(cfg, ops).final_states


def test_criterion_08_ensemble_converges_to_reference():
    params = _params(0.5, 0.5, omega=2.0)
    # 40 levels, not 32: one pooled trajectory in 2048 grazes the
    # truncation guard at 32
    ops = build_operators(params, 40)
    psi = coherent_state(ops, 1.0 + 0.0j)
    rho0 = np.outer(psi, psi.conj())
    # the one grid step is the whole span, so one propagator over 5.0
    oracle = propagate(rho0, ops,
                       LindbladPropagatorConfig(dt_oracle=5.0,
                                                t_end=5.0)).rhos[-1]

    # Statistical part: distances averaged over 8 disjoint sub-ensembles
    # drawn from one pooled run, so the M dependence is measured on a
    # common noise stream and the 1/sqrt(M) halving is resolvable.
    finals = _final_states(ops, dt=5e-4, m=2048, seed=3)

    def block_distance(block: int) -> float:
        ds = [trace_distance(density_matrix(finals[j * block:(j + 1) * block]),
                             oracle) for j in range(8)]
        return float(np.mean(ds))

    d_small = block_distance(64)
    d_large = block_distance(256)
    ratio = d_small / d_large
    ok_m = 1.4 < ratio < 2.6

    # Bias part: halving dt must lower the distance.  Needs M large
    # enough that the O(dt) step bias dominates the statistical floor,
    # whose fluctuations can otherwise anti-align with the bias and
    # flip the ordering at a single seed.  The coarse step stops at
    # 2.5e-3: at 4e-3 one trajectory in 2048 already trips the
    # truncation guard on discretization dust.
    d_coarse = trace_distance(
        density_matrix(_final_states(ops, dt=2.5e-3, m=8192, seed=3)), oracle)
    d_fine = trace_distance(
        density_matrix(_final_states(ops, dt=1.25e-3, m=8192, seed=3)), oracle)
    ok_dt = d_fine < d_coarse

    ok = ok_m and ok_dt
    _criteria.record(8, "distance to the reference halves when M "
                        "quadruples and falls when dt halves", ok)
    assert ok_m, (f"d(64)/d(256) = {d_small:.4f}/{d_large:.4f} "
                  f"= {ratio:.3f} (band 1.4..2.6)")
    assert ok_dt, (f"d(dt=2.5e-3) = {d_coarse:.4f} vs "
                   f"d(dt=1.25e-3) = {d_fine:.4f}")


# -- 9: zero-temperature energy decay ---------------------------------------

def test_criterion_09_zero_temperature_amplitude_decay():
    params = ModelParams(m=1.0, omega=1.0, gamma=0.5, temperature=0.0)
    ops = build_operators(params, 16)
    cfg = EnsembleConfig(
        m=200, base_seed=11,
        integrator=IntegratorConfig(dt=1e-3, t_end=12.0, record_stride=20),
        initial=InitialStateSpec(kind="coherent", alpha=1.0 + 0.0j))
    stats = run_ensemble(cfg, ops)

    t = stats.times
    pred = np.exp(-params.gamma * t)  # |alpha|^2 = 1
    # The Euler step biases <n> by O(dt) per unit time; the allowance
    # (omega^2 + gamma^2) dt t e^{-gamma t} bounds that accumulation so
    # the 4 sigma band tests the noise, not the known discretization.
    sigma_dt = (params.omega ** 2 + params.gamma ** 2) * cfg.integrator.dt \
        * t * pred
    sigma = np.sqrt(stats.stderrs["n_mean"] ** 2 + sigma_dt ** 2)
    z = np.abs(stats.means["n_mean"] - pred)[1:] / sigma[1:]
    final = float(stats.means["n_mean"][-1])
    ok = float(z.max()) < 4.0 and final < 0.01
    _criteria.record(9, "cold bath drains a coherent state as exp(-gamma t) "
                        "down to vacuum", ok)
    assert ok, (f"max z = {z.max():.2f} (limit 4), "
                f"final <n> = {final:.4f} (limit 0.01)")


# -- 10: branch histories decohere in a few localization times --------------

def test_criterion_10_two_time_histories_decohere():
    h = 0.12
    dt_o = 5e-3

    def suppression(params, n_fock, alpha0, center, w_re, interval):
        ops = build_operators(params, n_fock)
        cells = tuple(PhaseCell(center=s * center, w_re=w_re,
                                w_im=1.0 / w_re, h=h) for s in (-1.0, 1.0))
        for c in cells:
            assert c.area_hbar == pytest.approx(8.0)
        psi = cat_state(ops, alpha0 + 0.0j)
        spec = HistorySpec(times=(0.0, interval), cells=(cells, cells),
                           rho0=np.outer(psi, psi.conj()),
                           include_complement=False)
        D = decoherence_functional(
            spec, ops, LindbladPropagatorConfig(dt_oracle=dt_o,
                                                t_end=interval))
        ratios, valid = D.suppression()
        return float(ratios[valid].max())

    damped = _params(3.0 / (10.0 * math.pi), 2.0)
    interval = round(3.0 * damped.t_loc / dt_o) * dt_o
    assert interval == pytest.approx(3.0 * damped.t_loc, rel=1e-3)
    worst = suppression(damped, n_fock=40, alpha0=2.2, center=1.8,
                        w_re=0.85, interval=interval)
    ok_damped = worst < 0.1

    # Same geometry and window with the bath switched off: branch
    # coherence must survive, or the suppression above is vacuous.
    undamped = ModelParams(m=1.0, omega=1.0, gamma=0.0, temperature=0.0)
    control = suppression(undamped, n_fock=40, alpha0=0.7, center=0.7,
                          w_re=0.7, interval=interval)
    ok_control = control > 0.3

    ok = ok_damped and ok_control
    _criteria.record(10, "two-time branch histories decohere below 0.1 "
                         "while the undamped control stays above 0.3", ok)
    assert ok_damped, f"max suppression {worst:.4f} (limit 0.1)"
    assert ok_control, f"control suppression {control:.4f} (floor 0.3)"


# -- 11: raw noise stream moments -------------------------------------------

def test_criterion_11_noise_increment_moments():
    # the increments the stepping loop draws: 4 n normals from the
    # stream it seeds for seed 0, which must be
    # Generator.standard_normal's stream, so this is the block the
    # criterion has sampled since its seed was frozen
    n = 1_000_000
    dt = 1e-3
    z = qsd._normals(qsd._compiled_loop(), qsd._seed_streams([0])[0], 4 * n)
    block = (z.reshape(n, 4) * math.sqrt(dt / 2.0)).view(complex)
    want = draw_noise_block(np.random.default_rng(0), dt, n)
    assert np.array_equal(block.view(np.uint64), want.view(np.uint64))
    ok = True
    stats = []
    for ch in range(2):
        xi = block[:, ch]
        m1 = abs(complex(xi.mean()))
        m2 = abs(complex((xi ** 2).mean()))
        mag = float(np.mean(np.abs(xi) ** 2))
        ok = (ok and m1 < 4.0 * math.sqrt(dt / n)
              and m2 < 4.0 * dt / math.sqrt(n)
              and abs(mag - dt) < 0.01 * dt)
        stats.append((m1, m2, mag))
    _criteria.record(11, "10^6 noise increments have the isotropic "
                         "complex Wiener moments", ok)
    assert ok, f"channel moments {stats}"


# -- 12: the spread identity and the two rate forms -------------------------

def test_criterion_12_spread_identity_and_rate_forms(warm_params, ops20):
    states = random_states(1000, 20, seed=123)
    vals = bundle_arrays(states, ops20)
    id_err = float(np.abs(vals["delta_alpha_sq"]
                          - 0.25 * (vals["excess_q"]
                                    + vals["excess_p"])).max())
    rate_err = float(np.abs(localization_rhs(vals, warm_params)
                            - localization_rhs_spread_form(
                                vals, warm_params)).max())
    ok = id_err < 1e-10 and rate_err < 1e-10
    _criteria.record(12, "spread identity and both rate forms agree to "
                         "1e-10 on 1000 random states", ok)
    assert ok, f"identity error {id_err:.2e}, rate error {rate_err:.2e}"
