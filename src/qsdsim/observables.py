"""Localization diagnostics for trajectory states.

The shape diagnostics of a state are its quadrature spreads, their
excesses over the coherent-state widths, the symmetrized q-p
correlation R and the phase-space spread (delta alpha)^2, all derived
from <a>, <a^2> and <n>.  A note on letters: conventions in the
literature attach P and Q to either quadrature; here Q is always the
position excess and P the momentum excess,

    Q = var_q / sigma_q^2 - 1,      P = var_p / sigma_p^2 - 1,

and the fields are named excess_q and excess_p; the CLI labels its
output columns Q and P by the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import FIT_FLOOR_REL, FIT_FLOOR_SIGMA, FIT_MIN_POINTS
from .errors import FitError
from .model import ModelParams, OperatorSet

_CONSISTENCY_TOL = 1e-10

#: Diagnostic fields, keys of bundle_arrays' result.
STAT_FIELDS = ("q_mean", "p_mean", "var_q", "var_p", "R", "excess_q",
               "excess_p", "delta_alpha_sq", "n_mean")

#: One sample of a trajectory: its time t, then the diagnostics in the
#: order of STAT_FIELDS.
BUNDLE_DTYPE = np.dtype([(f, float) for f in ("t", *STAT_FIELDS)])


def bundle_arrays(states: np.ndarray, ops: OperatorSet) -> dict:
    """Diagnostics for a (B, n_fock) batch of states.

    Returns a dict of (B,) real arrays keyed by STAT_FIELDS.
    Everything is derived from <a>, <a^2> and <n>:

        <q> = 2 sigma_q Re<a>,  <q^2> = sigma_q^2 (2 Re<a^2> + 2<n> + 1)
        <p> = 2 sigma_p Im<a>,  <p^2> = sigma_p^2 (-2 Re<a^2> + 2<n> + 1)
        R   = hbar Im<a^2> - <p><q>
    """
    p = ops.params
    # Products and norms act on the (re, im) float view, so no complex
    # product casts the real factors; vecdot conjugates its first
    # argument.
    states = np.ascontiguousarray(states, dtype=complex)
    flat = states.view(float)
    root_n = np.repeat(np.sqrt(np.arange(1, ops.n_fock)), 2)
    # a |n> = sqrt(n) |n-1>: a psi without its zero last entry
    a_flat = flat[..., 2:] * root_n
    a2_psi = (a_flat[..., 2:] * root_n[:-2]).view(complex)
    norm_sq = np.vecdot(flat, flat)
    exp_a = np.vecdot(states[..., :-1], a_flat.view(complex)) / norm_sq
    exp_a2 = np.vecdot(states[..., :-2], a2_psi) / norm_sq
    exp_n = np.vecdot(a_flat, a_flat) / norm_sq

    q_mean = 2.0 * p.sigma_q * exp_a.real
    p_mean = 2.0 * p.sigma_p * exp_a.imag
    var_q = p.sigma_q ** 2 * (2.0 * exp_a2.real + 2.0 * exp_n + 1.0) - q_mean ** 2
    var_p = p.sigma_p ** 2 * (-2.0 * exp_a2.real + 2.0 * exp_n + 1.0) - p_mean ** 2
    r_corr = p.hbar * exp_a2.imag - p_mean * q_mean
    excess_q = var_q / p.sigma_q ** 2 - 1.0
    excess_p = var_p / p.sigma_p ** 2 - 1.0
    delta_alpha_sq = exp_n - np.abs(exp_a) ** 2

    # Two independent routes to the same spread must agree, row by row;
    # a nan residual fails.
    err = np.abs(delta_alpha_sq - 0.25 * (excess_q + excess_p))
    bad = np.flatnonzero(~(err <= _CONSISTENCY_TOL * np.maximum(1.0, exp_n)))
    if bad.size:
        row = int(bad[0])
        raise FloatingPointError(
            f"phase-space spread consistency violated by "
            f"{err[row]:.3e} in row {row}")

    return dict(zip(STAT_FIELDS, (q_mean, p_mean, var_q, var_p, r_corr,
                                  excess_q, excess_p, delta_alpha_sq, exp_n)))


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


# -- regression helpers -----------------------------------------------------


@dataclass(frozen=True)
class ExponentialFit:
    rate: float
    rate_se: float
    ci95: float
    log_amplitude: float
    n_points: int
    t_start: float
    t_end: float


def fit_exponential_decay(times: np.ndarray, means: np.ndarray,
                          stderrs: np.ndarray | None = None) -> ExponentialFit:
    """Weighted fit of means ~ A exp(-rate t) on the usable window.

    Samples enter the fit while the mean stays above FIT_FLOOR_REL of
    its initial value and above FIT_FLOOR_SIGMA standard errors.
    Raises FitError when fewer than FIT_MIN_POINTS samples qualify.
    ci95, the half-width of the 95% interval of the rate, is rate_se
    times Student's t quantile t_quantile(0.975, n_points - 2).
    """
    times = np.asarray(times, dtype=float)
    means = np.asarray(means, dtype=float)
    if stderrs is None:
        stderrs = np.zeros_like(means)
    stderrs = np.asarray(stderrs, dtype=float)
    mask = (means > FIT_FLOOR_REL * means[0]) & (means > FIT_FLOOR_SIGMA * stderrs)
    # Use the leading contiguous stretch only; late re-crossings of the
    # floor are noise.
    if not mask[0]:
        raise FitError("initial sample already below the noise floor")
    n_keep = int(np.argmin(mask)) if not mask.all() else mask.size
    if n_keep < FIT_MIN_POINTS:
        raise FitError(f"only {n_keep} usable samples, need {FIT_MIN_POINTS}")
    t = times[:n_keep]
    y = np.log(means[:n_keep])
    # var(log y) ~ (stderr / mean)^2; floor the weights for noiseless input
    var = (stderrs[:n_keep] / means[:n_keep]) ** 2
    var = np.maximum(var, max(var.max(), 1e-30) * 1e-6)
    w = 1.0 / var
    wsum = w.sum()
    tbar = (w * t).sum() / wsum
    ybar = (w * y).sum() / wsum
    s_tt = (w * (t - tbar) ** 2).sum()
    slope = (w * (t - tbar) * (y - ybar)).sum() / s_tt
    intercept = ybar - slope * tbar
    resid = y - (intercept + slope * t)
    dof = n_keep - 2
    chi2_red = (w * resid ** 2).sum() / dof
    slope_se = math.sqrt(max(chi2_red, 1e-300) / s_tt)
    tq = t_quantile(0.975, dof)
    return ExponentialFit(rate=-slope, rate_se=slope_se, ci95=tq * slope_se,
                          log_amplitude=intercept, n_points=n_keep,
                          t_start=float(t[0]), t_end=float(t[-1]))


def t_quantile(q: float, dof: int) -> float:
    """The quantile q in [0.5, 1) of Student's t, integer dof >= 1: its
    central probability A = 2q - 1 is a finite series in cos theta,
    theta = atan(t / sqrt(dof)) (Abramowitz & Stegun 26.7.3-4), which
    is bisected in theta until no float lies between the ends."""
    odd = dof % 2

    def central(theta):
        # cos^2 = 1 - sin^2 is applied as term - term sin^2, so that its
        # rounding near 1 is not raised to the power dof / 2
        s = math.sin(theta)
        term, total = (math.cos(theta) if odd else 1.0), 0.0
        for j in range(1 + odd, dof, 2):
            total += term
            term = (term - term * s * s) * j / (j + 1)
        total *= s
        return 2.0 / math.pi * (theta + total) if odd else total

    lo, hi = 0.0, 0.5 * math.pi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if central(mid) < 2.0 * q - 1.0 else (lo, mid)
    return math.sqrt(dof) * math.tan(mid)


def chi2_sf(x: float, df: int) -> float:
    """The chi-square tail P(X > x), integer df >= 1 (Abramowitz & Stegun
    26.4.4-5): e^(-x/2) times a Poisson sum for even df, erfc(sqrt(x/2))
    plus e^(-x/2) times a half-integer sum for odd df.  Its terms are
    positive, so it keeps its relative precision while e^(-x/2) is a
    normal float (x below about 1416)."""
    odd = df % 2
    term = math.exp(-0.5 * x) * (math.sqrt(2.0 * x / math.pi) if odd else 1.0)
    total = math.erfc(math.sqrt(0.5 * x)) if odd else 0.0
    for j in range(2 + odd, df + 1, 2):
        total += term
        term *= x / j
    return total


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
