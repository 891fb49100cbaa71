"""Numerical thresholds and frozen tuning constants.

Every value here is an artifact choice, not physics: tolerances for
shape diagnostics, statistical test bands, and integrator bookkeeping
constants.  They are collected in one place so experiments and tests
pin the same numbers.
"""

# Shape diagnostics |P|, |Q|, |R|/hbar, (delta alpha)^2 below this value
# count as "coherent to working tolerance".
SHAPE_TOL = 0.05

# Statistical acceptance bands: a Monte-Carlo estimate agrees with a
# prediction when it lies within SIGMA_BAND standard errors.
SIGMA_BAND = 4.0

# Off-diagonal decoherence-functional elements below this fraction of
# the geometric mean of their diagonals count as suppressed; an
# undamped control run must stay above CONTROL_SUPPRESSION_MIN.
SUPPRESSION_THRESHOLD = 0.1
CONTROL_SUPPRESSION_MIN = 0.3

# Suppression ratios are only evaluated for history pairs whose
# diagonal weights both exceed this floor (below it the ratio is
# quadrature noise over quadrature noise).
DIAG_WEIGHT_FLOOR = 1e-9

# Step-size guards: warn when dt * gamma * (nbar + 1) exceeds the
# dissipative guard or dt * omega exceeds the oscillatory guard.
STEP_GUARD_DISSIPATIVE = 0.01
STEP_GUARD_OSCILLATORY = 0.05

# Truncation health: the top ceil(n_fock / TAIL_LEVEL_DIVISOR) Fock
# levels must hold at most TAIL_TOL of the state's mass.  An integer
# divisor keeps the count exact (0.1 * 30 rounds up to 4 in floats).
TAIL_LEVEL_DIVISOR = 10
TAIL_TOL = 1e-6

# Trajectory batch size of the ensemble runner.  The compiled loop steps
# rows in lane groups of eight (when built for AVX-512F) or four, each
# lane rounded as its row stepped alone, so beyond a few groups the
# batch only spreads Python's per-call and per-sample work; the sweep
# scripts/sweep_traj_batch.py finds run_ensemble flat within noise from
# 192 to 512 at n_fock 24, 40 and 56 with groups of eight, and from 64
# (at n_fock 40 and 56) or 192 (at 24) with groups of four.  A row's
# result does not depend on its batch; the ensemble sums round per
# batch.  It also bounds the sampled rows that one call of the loop
# writes: a batch of B rows holds max(1, TRAJ_BATCH // B) samples per
# call, so a single trajectory hands run_trajectory blocks of
# TRAJ_BATCH states with their moments, and the buffers stay at
# TRAJ_BATCH states and 6 TRAJ_BATCH moments.
TRAJ_BATCH = 256

# Stepping-loop builds the cache keeps, the most recently modified, so
# that checkouts or compilers used in turn do not rebuild every time.
LOOP_CACHE_KEEP = 4

# Longest run in steps, and largest record_stride, that IntegratorConfig
# accepts, refused before anything is allocated: it bounds one run's
# work and its number of samples, and keeps both counts in a C long.
MAX_STEPS = 2 ** 25

# Largest seed, integrator.seed or ensemble.base_seed, that a config
# may give: the stepping loop seeds each trajectory's PCG64 stream from
# one uint64, as np.random.default_rng does from an int below 2^64.
# A larger one would be another stream, so it is refused.
MAX_SEED = 2 ** 64 - 1

# Largest n_fock a config may ask for.  One N x N complex matrix, as
# the oracle and the history functional hold several of, then takes
# 2048^2 * 16 B = 64 MiB; every shipped config and test uses at most 72
# levels.  A larger value is refused before anything is allocated.
MAX_N_FOCK = 2048

# Largest square of a quadrature width, sigma_q**2 or sigma_p**2, that
# ModelParams accepts.  An ensemble's standard errors square moments of
# up to about sigma**2 (4 n_fock + 2) summed over its trajectories: at
# MAX_N_FOCK levels and MAX_TRAJECTORIES trajectories about 1e18
# sigma**4, which this keeps far inside the float range.  At hbar = 1
# it refuses m omega below 5e-101 (sigma_q) or above 2e100 (sigma_p).
MAX_WIDTH_SQ = 1e100

# Largest ensemble, ensemble.m, that EnsembleConfig accepts.
# run_ensemble keeps every trajectory's final state, an (m, n_fock)
# complex array: 2 GiB at MAX_N_FOCK levels.  oracle-compare runs 4 m
# trajectories, and the largest run of the shipped tests and configs is
# 8192.  A larger value is refused before anything is allocated.
MAX_TRAJECTORIES = 2 ** 16

# Largest (points, n_fock) array of coherent states that one cell's
# midpoint grid may ask for: 2**22 complex amplitudes are 64 MiB, as one
# N x N matrix at MAX_N_FOCK.  The projector's Gram sum adds at most
# 128 KiB of slice products and padded rows (model._GRAM_BUDGET), or two
# products of N x N where those are larger, whatever the point count.
# The shipped configs use about 300 points at 24 levels and the
# bench 280 at 40.  PhaseCell.check refuses a larger grid before any
# array is sized by it.
MAX_CELL_AMPLITUDES = 2 ** 22

# Exponential fits use samples while the mean stays above
# FIT_FLOOR_REL of its initial value and above FIT_FLOOR_SIGMA
# standard errors, and need at least FIT_MIN_POINTS of them.
FIT_FLOOR_REL = 0.1
FIT_FLOOR_SIGMA = 5.0
FIT_MIN_POINTS = 6

# Thermal-occupation chi-square test: minimum expected count per bin
# and the p-value floor.
CHI2_MIN_EXPECTED = 5.0
CHI2_MIN_P = 0.01

# Late-time statistics use the second half of a run, subsampled at
# spacing DECORRELATION_TIME_FACTOR / gamma so the retained snapshots
# are approximately independent.
LATE_FRACTION = 0.5
DECORRELATION_TIME_FACTOR = 2.0

# Phase-space quadrature: cell projectors need at least this many grid
# points across each half-width.
CELL_MIN_POINTS_PER_HALF_WIDTH = 4
