"""Shape diagnostics, localization rate forms, and regression helpers."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ladder, random_states
from qsdsim.errors import FitError
from qsdsim.model import coherent_state, fock_state
from qsdsim.observables import (BUNDLE_DTYPE, CSV_COLUMNS, STAT_FIELDS,
                                bundle_arrays, fit_exponential_decay,
                                localization_rhs,
                                localization_rhs_spread_form,
                                windowed_slopes, write_bundle_csv)


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
    # and the error names that row
    states = np.stack([fock_state(ops20, 1),
                       np.full(20, np.nan, dtype=complex)])
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match="in row 1$"):
        bundle_arrays(states, ops20)


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
    assert fit.ci95 > fit.rate_se


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


def test_bundle_csv_roundtrip(tmp_path, ops20):
    vals = bundle_arrays(random_states(3, 20, seed=9), ops20)
    bundles = np.recarray(3, dtype=BUNDLE_DTYPE)
    bundles.t = 0.1 * np.arange(3)
    for f in STAT_FIELDS:
        bundles[f] = vals[f]
    assert BUNDLE_DTYPE.names == ("t", *STAT_FIELDS)
    path = tmp_path / "bundles.csv"
    write_bundle_csv(path, bundles)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS) == [
        "t", "q_mean", "p_mean", "var_q", "var_p", "R", "Q", "P",
        "delta_alpha_sq", "n_mean"]
    # repr round-trips doubles exactly
    assert float(rows[2][0]) == bundles[1].t
    assert float(rows[3][8]) == bundles[2].delta_alpha_sq
    assert [tuple(map(float, row)) for row in rows[1:]] == bundles.tolist()
