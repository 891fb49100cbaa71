"""Shape diagnostics, localization rate forms, and regression helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from conftest import (ladder, localization_rhs,
                      localization_rhs_spread_form, random_states,
                      windowed_slopes)
from qsdsim.errors import FitError
from qsdsim.model import coherent_state, fock_state
from qsdsim.observables import (STAT_FIELDS, _moments, bundle_arrays,
                                chi2_sf, fit_exponential_decay,
                                moment_fields, t_quantile)


def _one(psi, ops):
    """Diagnostics of a single state, through a batch of one."""
    return {f: float(v[0]) for f, v in bundle_arrays(psi[None, :], ops).items()}


def test_bundle_on_coherent_state(ops20):
    par = ops20.params
    alpha = 0.9 + 0.4j
    b = _one(coherent_state(ops20, alpha), ops20)
    assert b["q_mean"] == pytest.approx(2 * par.sigma_q * alpha.real, abs=1e-10)
    assert b["p_mean"] == pytest.approx(2 * par.sigma_p * alpha.imag, abs=1e-10)
    # a coherent state has no excess spread in any direction
    for field in ("excess_q", "excess_p", "R", "delta_alpha_sq"):
        assert abs(b[field]) < 1e-9
    assert b["n_mean"] == pytest.approx(abs(alpha) ** 2, abs=1e-10)


def test_bundle_on_fock_state(ops20):
    n = 3
    b = _one(fock_state(ops20, n), ops20)
    assert b["excess_q"] == pytest.approx(2 * n, abs=1e-12)
    assert b["excess_p"] == pytest.approx(2 * n, abs=1e-12)
    assert b["R"] == pytest.approx(0.0, abs=1e-12)
    assert b["delta_alpha_sq"] == pytest.approx(n, abs=1e-12)


def test_bundle_against_dense_moments(ops20):
    # the shortcut through <a>, <a^2> and <n> against moments of dense
    # quadrature matrices; the top level stays empty, where the
    # truncated a a_dag is not n + 1
    par = ops20.params
    psi = random_states(1, 20, seed=5)[0]
    psi[-1] = 0.0
    psi /= np.linalg.norm(psi)
    a = ladder(20)
    q = par.sigma_q * (a + a.conj().T)
    p = -1j * par.sigma_p * (a - a.conj().T)

    def mean(op):
        return np.vdot(psi, op @ psi).real

    b = _one(psi, ops20)
    assert b["var_q"] == pytest.approx(mean(q @ q) - mean(q) ** 2, abs=1e-12)
    assert b["var_p"] == pytest.approx(mean(p @ p) - mean(p) ** 2, abs=1e-12)
    assert b["R"] == pytest.approx(mean(0.5 * (q @ p + p @ q))
                                   - mean(q) * mean(p), abs=1e-12)


def test_bundle_batch_matches_scalar(ops20):
    states = random_states(7, 20, seed=11)
    vals = bundle_arrays(states, ops20)
    assert set(vals) == set(STAT_FIELDS)
    for k in range(7):
        single = _one(states[k], ops20)
        for field in ("q_mean", "var_q", "R", "delta_alpha_sq", "n_mean"):
            assert vals[field][k] == pytest.approx(single[field], abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_spread_identity_on_random_states(ops20, seed):
    # (delta alpha)^2 == (P + Q) / 4, evaluated through two routes
    b = _one(random_states(1, 20, seed=seed)[0], ops20)
    assert b["delta_alpha_sq"] == pytest.approx(
        (b["excess_q"] + b["excess_p"]) / 4.0, abs=1e-10)


def test_spread_guard_fails_closed_on_nan(ops20):
    # a nan row makes its consistency residual nan, which must not pass,
    # and the error names that row; in a (sample, row) block of moments,
    # as the ensemble evaluates, it names the row's flat index
    states = np.stack([fock_state(ops20, 1),
                       np.full(20, np.nan, dtype=complex)])
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match="in row 1$"):
        bundle_arrays(states, ops20)
    moments = np.tile(_moments(fock_state(ops20, 1), ops20), (2, 3, 1))
    moments[1, 2, 3] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match="in row 5$"):
        moment_fields(moments, ops20)


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_rate_forms_agree(ops20, warm_params, seed):
    b = _one(random_states(1, 20, seed=seed)[0], ops20)
    assert localization_rhs(b, warm_params) == pytest.approx(
        localization_rhs_spread_form(b, warm_params), abs=1e-10)


def test_rate_bound(ops20, warm_params):
    # decay is at least 2 gamma (nbar + 1/2) times the current spread
    pre = 2.0 * warm_params.gamma * (warm_params.nbar + 0.5)
    vals = bundle_arrays(np.stack([random_states(1, 20, seed=seed)[0]
                                   for seed in range(20)]), ops20)
    assert np.all(localization_rhs(vals, warm_params)
                  <= -pre * vals["delta_alpha_sq"] + 1e-12)


def test_fit_recovers_exact_exponential():
    t = np.linspace(0.0, 5.0, 60)
    y = 2.5 * np.exp(-0.7 * t)
    fit = fit_exponential_decay(t, y)
    assert fit.rate == pytest.approx(0.7, abs=1e-10)
    assert fit.log_amplitude == pytest.approx(math.log(2.5), abs=1e-10)
    # the window stops at the 10%-of-initial floor, around t = ln(10)/0.7
    assert fit.n_points == 39
    assert 3.0 < fit.t_end < 3.3


def test_fit_with_noise_covers_truth():
    rng = np.random.default_rng(42)
    t = np.linspace(0.0, 3.0, 80)
    clean = np.exp(-1.1 * t)
    err = 0.01 * clean
    y = clean + rng.standard_normal(80) * err
    fit = fit_exponential_decay(t, y, err)
    assert abs(fit.rate - 1.1) < 3 * fit.rate_se
    assert fit.ci95 == pytest.approx(
        stats.t.ppf(0.975, fit.n_points - 2) * fit.rate_se, rel=1e-12)


def test_fit_floor_trims_late_noise():
    t = np.linspace(0.0, 20.0, 200)
    y = np.exp(-1.0 * t) + 1e-4  # flat noise floor after a few lifetimes
    fit = fit_exponential_decay(t, y)
    # the relative floor is 10% of the start, so the window ends near t ~ 2.3
    assert fit.t_end < 3.0
    assert fit.rate == pytest.approx(1.0, rel=0.05)


def test_fit_error_paths():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(FitError):
        # every point sits below 5 sigma
        fit_exponential_decay(t, np.ones(10), np.ones(10))
    with pytest.raises(FitError):
        # floor crossed after 3 samples; too few points
        fit_exponential_decay(t, np.array([1.0, 0.5, 0.2,
                                           1e-9, 1e-9, 1e-9, 1e-9,
                                           1e-9, 1e-9, 1e-9]))


@pytest.mark.parametrize("dofs", [range(4, 501), (10 ** 3, 10 ** 4)])
def test_t_quantile_matches_scipy(dofs):
    # the fit's interval quantile, for every dof a fit of up to 502
    # points has and for two large ones, against scipy's
    for dof in dofs:
        want = stats.t.ppf(0.975, dof)
        assert abs(t_quantile(0.975, dof) - want) <= 1e-12 * want, dof


def test_chi2_sf_matches_scipy():
    # both parities of df, from the bulk (a tail near 1) out to the far
    # tail; a tail below 1e-300 is left out
    x = np.geomspace(1e-2, 1400.0, 97)
    for df in range(1, 61):
        want = stats.chi2.sf(x, df)
        got = np.array([chi2_sf(v, df) for v in x])
        keep = want > 1e-300
        assert np.all(np.abs(got - want)[keep] <= 1e-12 * want[keep]), df
    assert chi2_sf(0.0, 1) == chi2_sf(0.0, 2) == 1.0


def test_windowed_slopes_linear_and_quadratic():
    t = np.linspace(0.0, 2.0, 41)
    centers, slopes = windowed_slopes(t, 3.0 * t - 1.0, window=5)
    assert slopes.shape == (37,)
    assert np.allclose(slopes, 3.0, atol=1e-12)
    # for a parabola the window slope equals the derivative at the center
    centers, slopes = windowed_slopes(t, t ** 2, window=7)
    assert np.allclose(slopes, 2.0 * centers, atol=1e-10)


def test_windowed_slopes_batched():
    t = np.linspace(0.0, 1.0, 11)
    series = np.stack([2.0 * t, -1.0 * t])
    _, slopes = windowed_slopes(t, series, window=4)
    assert slopes.shape == (2, 8)
    assert np.allclose(slopes[0], 2.0) and np.allclose(slopes[1], -1.0)
    with pytest.raises(FitError):
        windowed_slopes(t, t, window=1)
    with pytest.raises(FitError):
        windowed_slopes(t, t, window=12)
