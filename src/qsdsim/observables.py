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

The commands' regression and test statistics live here too: the
exponential-decay fit, Student's t quantile and the chi-square tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import FIT_FLOOR_REL, FIT_FLOOR_SIGMA, FIT_MIN_POINTS
from .errors import FitError
from .model import OperatorSet

_CONSISTENCY_TOL = 1e-10

#: Diagnostic fields: the keys of bundle_arrays' result and the rows of
#: moment_fields'.
STAT_FIELDS = ("q_mean", "p_mean", "var_q", "var_p", "R", "excess_q",
               "excess_p", "delta_alpha_sq", "n_mean")

#: One sample of a trajectory: its time t, then the diagnostics in the
#: order of STAT_FIELDS.
BUNDLE_DTYPE = np.dtype([(f, float) for f in ("t", *STAT_FIELDS)])


def _moments(states: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """The six moments of each state of a (..., n_fock) array, (..., 6):
    ||psi||^2 and ||psi||^2 times Re<a>, Im<a>, Re<a^2>, Im<a^2> and
    <n>, the level sums that the stepping loop forms for every sampled
    row."""
    # Products and norms act on the (re, im) float view, so no complex
    # product casts the real factors; vecdot conjugates its first
    # argument.
    states = np.ascontiguousarray(states, dtype=complex)
    flat = states.view(float)
    root_n = np.repeat(np.sqrt(np.arange(1, ops.n_fock)), 2)
    # a |n> = sqrt(n) |n-1>: a psi without its zero last entry
    a_flat = flat[..., 2:] * root_n
    a2_psi = (a_flat[..., 2:] * root_n[:-2]).view(complex)
    a = np.vecdot(states[..., :-1], a_flat.view(complex))
    a2 = np.vecdot(states[..., :-2], a2_psi)
    return np.stack((np.vecdot(flat, flat), a.real, a.imag, a2.real,
                     a2.imag, np.vecdot(a_flat, a_flat)), axis=-1)


def moment_fields(moments: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """The diagnostics of states from their (..., 6) _moments, as a
    (9, ...) array in the order of STAT_FIELDS.

    Everything is derived from <a>, <a^2> and <n>:

        <q> = 2 sigma_q Re<a>,  <q^2> = sigma_q^2 (2 Re<a^2> + 2<n> + 1)
        <p> = 2 sigma_p Im<a>,  <p^2> = sigma_p^2 (-2 Re<a^2> + 2<n> + 1)
        R   = hbar Im<a^2> - <p><q>
    """
    p = ops.params
    norm_sq, *sums = np.moveaxis(moments, -1, 0)
    a_re, a_im, a2_re, a2_im, exp_n = (x / norm_sq for x in sums)

    q_mean = 2.0 * p.sigma_q * a_re
    p_mean = 2.0 * p.sigma_p * a_im
    var_q = p.sigma_q ** 2 * (2.0 * a2_re + 2.0 * exp_n + 1.0) - q_mean ** 2
    var_p = p.sigma_p ** 2 * (-2.0 * a2_re + 2.0 * exp_n + 1.0) - p_mean ** 2
    r_corr = p.hbar * a2_im - p_mean * q_mean
    excess_q = var_q / p.sigma_q ** 2 - 1.0
    excess_p = var_p / p.sigma_p ** 2 - 1.0
    delta_alpha_sq = exp_n - (a_re * a_re + a_im * a_im)

    # Two independent routes to the same spread must agree, state by
    # state; a nan residual fails.
    err = np.abs(delta_alpha_sq - 0.25 * (excess_q + excess_p))
    bad = np.flatnonzero(~(err <= _CONSISTENCY_TOL * np.maximum(1.0, exp_n)))
    if bad.size:
        row = int(bad[0])
        raise FloatingPointError(
            f"phase-space spread consistency violated by "
            f"{err.flat[row]:.3e} in row {row}")

    return np.stack((q_mean, p_mean, var_q, var_p, r_corr, excess_q,
                     excess_p, delta_alpha_sq, exp_n))


def bundle_arrays(states: np.ndarray, ops: OperatorSet) -> dict:
    """Diagnostics for a (B, n_fock) batch of states: a dict of (B,)
    real arrays keyed by STAT_FIELDS, moment_fields of their _moments."""
    return dict(zip(STAT_FIELDS, moment_fields(_moments(states, ops), ops)))


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
