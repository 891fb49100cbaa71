"""Phase-space history machinery: approximate cell projectors and the
decoherence functional.

A cell is a rectangle in the coherent-amplitude plane; its projector
is the midpoint Riemann sum of the overcompleteness integral
integral_cell |alpha><alpha| d^2alpha / pi, which makes the sum over a
partition converge to the identity on the occupied subspace.  Because
alpha = (sigma_p q + i sigma_q p) / hbar, phase-space areas obey
dq dp = 2 hbar d^2alpha, so a cell's area in hbar units is
8 w_re w_im.

The decoherence functional for a history specification with times
t_1 < ... < t_n is

    D(a, a') = Tr(P_an K[... P_a1 K[rho0] P_a1' ...] P_an')

where K is the deterministic density-matrix propagator between
consecutive times.  Evaluation is breadth-first over prefix pairs: one
batched array holds every K-applied intermediate for the current
depth, so no pair is propagated twice.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import CELL_MIN_POINTS_PER_HALF_WIDTH, DIAG_WEIGHT_FLOOR, \
    MAX_CELL_AMPLITUDES, SUPPRESSION_THRESHOLD
from .errors import ConfigError, DimensionError, QuadratureError
from .model import OperatorSet, _gram_sum, cat_state, check_headroom, \
    coherent_states, steps_on_grid
from .oracle import LindbladPropagatorConfig, _band_norms, propagate_matrices

MAX_DEPTH = 3
MAX_CELLS_PER_TIME = 16
#: Complex entries allowed in one intermediate level of the functional.
_PAIR_BUDGET = 25_000_000


@dataclass(frozen=True)
class PhaseCell:
    """Axis-aligned rectangle |Re a - Re c| <= w_re, |Im a - Im c| <= w_im.

    h is the quadrature spacing used when the projector is built.
    """

    center: complex
    w_re: float
    w_im: float
    h: float

    def __post_init__(self):
        # the comparisons are false for nan, so nan is refused too
        for name in ("w_re", "w_im", "h"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"cell {name} must be > 0 and finite, "
                                  f"got {getattr(self, name)}")
        if not cmath.isfinite(self.center):
            raise ConfigError(f"cell center must be finite, got "
                              f"{self.center}")

    def check(self, n_fock: int) -> None:
        """Refuse a spacing h too coarse for the half-widths, a cell
        whose farthest quadrature point, a corner of the midpoint grid,
        n_fock levels cannot hold, and a grid whose (points, n_fock)
        coherent states would exceed MAX_CELL_AMPLITUDES.  No array is
        sized by the grid here."""
        limit = min(self.w_re, self.w_im) / CELL_MIN_POINTS_PER_HALF_WIDTH
        if self.h > limit:
            raise QuadratureError(
                f"spacing {self.h} too coarse for half-widths "
                f"({self.w_re}, {self.w_im}); need h <= min/"
                f"{CELL_MIN_POINTS_PER_HALF_WIDTH}")
        # the outer midpoints sit w / n inside the cell
        n_re, n_im = (_point_count(w, self.h) for w in (self.w_re, self.w_im))
        re, im = self.w_re - self.w_re / n_re, self.w_im - self.w_im / n_im
        check_headroom(complex(abs(self.center.real) + re,
                               abs(self.center.imag) + im), n_fock,
                       f"farthest point of the cell at {self.center}")
        if not n_re * n_im * n_fock <= MAX_CELL_AMPLITUDES:
            raise QuadratureError(
                f"spacing {self.h} gives {n_re:.3g} x {n_im:.3g} points; "
                f"their coherent states at {n_fock} levels hold more than "
                f"the maximum of {MAX_CELL_AMPLITUDES} amplitudes")

    @property
    def area_hbar(self) -> float:
        """Cell area in units of hbar (dq dp = 2 hbar d^2alpha)."""
        return 8.0 * self.w_re * self.w_im


def _point_count(w: float, h: float) -> float:
    """Midpoints on an axis of half-width w at spacing h, at least one,
    rounded half to even; a float, as 2 w / h may overflow to inf."""
    return max(1.0, float(np.rint(2.0 * w / h)))


def _midpoints(w: float, h: float) -> np.ndarray:
    n = _point_count(w, h)
    eff = 2.0 * w / n
    return -w + (np.arange(n) + 0.5) * eff, eff


def cell_projector(cell: PhaseCell, ops: OperatorSet) -> np.ndarray:
    """Midpoint-rule approximation of the cell's phase-space projector.

    Hermitian positive by construction; eigenvalues may exceed 1 by a
    few percent because finite cells only approximately project.
    """
    cell.check(ops.n_fock)
    xs, hx = _midpoints(cell.w_re, cell.h)
    ys, hy = _midpoints(cell.w_im, cell.h)
    weight = hx * hy / math.pi
    psis = coherent_states(ops, (cell.center + xs[:, None]
                                 + 1j * ys[None, :]).ravel())
    proj = weight * _gram_sum(psis)
    return 0.5 * (proj + proj.conj().T)


def _overlapping(c1: PhaseCell, c2: PhaseCell) -> bool:
    # touching boundaries do not count as overlap
    tol = 1e-12
    return (abs(c1.center.real - c2.center.real)
            < c1.w_re + c2.w_re - tol
            and abs(c1.center.imag - c2.center.imag)
            < c1.w_im + c2.w_im - tol)


@dataclass(frozen=True)
class HistorySpec:
    times: tuple
    cells: tuple          # one tuple of PhaseCells per time
    rho0: np.ndarray
    include_complement: bool = True

    def __post_init__(self):
        if len(self.times) == 0:
            raise ConfigError("at least one history time required")
        if len(self.times) > MAX_DEPTH:
            raise ConfigError(f"history depth limited to {MAX_DEPTH}")
        if len(self.cells) != len(self.times):
            raise ConfigError("one cell partition per time required")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ConfigError("history times must be strictly increasing")
        if self.times[0] < 0:
            raise ConfigError("history times must be >= 0")
        for cells_t in self.cells:
            if not 1 <= len(cells_t) <= MAX_CELLS_PER_TIME:
                raise ConfigError(
                    f"1..{MAX_CELLS_PER_TIME} cells per time required")
            for i, c1 in enumerate(cells_t):
                for c2 in cells_t[i + 1:]:
                    if _overlapping(c1, c2):
                        raise ConfigError(
                            f"cells at {c1.center} and {c2.center} overlap")
        n = self.rho0.shape
        if len(n) != 2 or n[0] != n[1]:
            raise DimensionError("rho0 must be square")


@dataclass(frozen=True)
class DecoherenceMatrix:
    """D over history strings; labels use the per-time cell index with
    -1 standing for the complement ("none of the cells")."""

    labels: tuple
    matrix: np.ndarray

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.matrix).real

    def suppression(self):
        """(ratios, valid): |D_ij| / sqrt(D_ii D_jj) where both
        diagonal weights clear the floor; nan elsewhere and on the
        diagonal."""
        d = self.diagonal()
        ok = d > DIAG_WEIGHT_FLOOR
        valid = ok[:, None] & ok[None, :]
        np.fill_diagonal(valid, False)
        ratios = np.full(self.matrix.shape, np.nan)
        denom = np.sqrt(np.outer(np.abs(d), np.abs(d)))
        ratios[valid] = np.abs(self.matrix[valid]) / denom[valid]
        return ratios, valid


def decoherence_functional(
        spec: HistorySpec, ops: OperatorSet,
        pcfg: LindbladPropagatorConfig) -> DecoherenceMatrix:
    """Evaluate D over every history string of the specification.

    With include_complement on, each time's partition is completed to
    the identity, so the matrix sums to Tr rho0 up to propagation
    error.  History times must lie on the dt_oracle grid, within t_end.
    """
    if spec.rho0.shape != (ops.n_fock, ops.n_fock):
        raise DimensionError(f"rho0 of shape {spec.rho0.shape} does not "
                             f"fit n_fock={ops.n_fock}")
    n_end = steps_on_grid(pcfg.t_end, pcfg.dt_oracle, "t_end")
    for t in spec.times:
        if steps_on_grid(t, pcfg.dt_oracle, "history time") > n_end:
            raise ConfigError(f"history time {t} is beyond t_end "
                              f"{pcfg.t_end}")
    n_fock = ops.n_fock

    # a cell that recurs at several times is built once
    built = {c: cell_projector(c, ops)
             for c in {c for cells_t in spec.cells for c in cells_t}}
    projs, time_labels = [], []
    for cells_t in spec.cells:
        ps = [built[c] for c in cells_t]
        lab = list(range(len(cells_t)))
        if spec.include_complement:
            comp = np.eye(n_fock, dtype=complex)
            for p in ps:
                comp -= p
            ps.append(comp)
            lab.append(-1)
        projs.append(np.stack(ps))
        time_labels.append(lab)

    width = math.prod(len(p) for p in projs[:-1])
    if width * width * n_fock * n_fock > _PAIR_BUDGET:
        raise ConfigError("history too wide for the pairwise cache; "
                          "reduce depth or cell counts")

    cur = np.asarray(spec.rho0, dtype=complex)[None, None]
    for t0, t1, p in zip((0.0, *spec.times), spec.times, projs):
        if t1 > t0:
            cur = propagate_matrices(cur, ops, t1 - t0)
        if t1 < spec.times[-1]:
            cur = (p[:, None, None] @ cur[:, None, :, None] @ p).reshape(
                -1, len(cur) * len(p), n_fock, n_fock)
    # at the last time's p, Tr(P_i X P_j) = sum_ab (P_j P_i)^T_ab X_ab:
    # close out with one product of the flattened matrices
    npre, c = len(cur), len(p)
    t_ij = (p[None] @ p[:, None]).mT.reshape(c * c, -1)
    d = (cur.reshape(npre * npre, -1) @ t_ij.T).reshape(npre, npre, c, c)
    return DecoherenceMatrix(
        labels=tuple(itertools.product(*time_labels)),
        matrix=d.transpose(0, 2, 1, 3).reshape(npre * c, npre * c))


@dataclass(frozen=True)
class PeakingReport:
    """Most probable history against the noise-free damped orbit."""

    best_label: tuple
    best_prob: float
    classical_path: tuple   # mean amplitude at each history time
    center_path: tuple      # chosen cell centers; None for complement
    distances: tuple        # amplitude-plane distance, nan for complement


def classical_peaking_report(D: DecoherenceMatrix, spec: HistorySpec,
                             ops: OperatorSet) -> PeakingReport:
    p = ops.params
    # Tr(rho0 a) with a |n> = sqrt(n) |n-1>
    alpha0 = complex(np.diagonal(spec.rho0, -1)
                     @ np.sqrt(np.arange(1, ops.n_fock))
                     / np.trace(spec.rho0))
    diag = D.diagonal()
    # exact ties, as of a symmetric cat's branches at gamma = 0, differ by
    # rounding: the first label within 1e-12 relative of the top wins
    top = diag.max()
    best = int(np.argmax(np.isnan(diag) | (diag >= top - 1e-12 * abs(top))))
    label = D.labels[best]
    rate = 1j * p.omega + 0.5 * p.gamma
    classical = tuple(complex(alpha0 * np.exp(-rate * t)) for t in spec.times)
    centers = tuple(None if i < 0 else cells[i].center
                    for cells, i in zip(spec.cells, label))
    return PeakingReport(
        best_label=label, best_prob=float(diag[best]),
        classical_path=classical, center_path=centers,
        distances=tuple(math.nan if c is None else abs(c - a)
                        for c, a in zip(centers, classical)))


@dataclass(frozen=True)
class IntervalScan:
    """Aggregate suppression against the interval after branch projection."""

    intervals: np.ndarray
    ratios: np.ndarray
    crossing: float  # first interval below SUPPRESSION_THRESHOLD, interpolated


def cat_interval_scan(alpha0: complex, ops: OperatorSet,
                      pcfg: LindbladPropagatorConfig, t_max: float,
                      branch_cell=(1.0, 1.0), h: float = 0.2) -> IntervalScan:
    """How long until branch-distinguishing histories decohere.

    The initial state is the even superposition of |+alpha0> and
    |-alpha0>.  The first projection (at t=0) separates the branches
    with cells at the branch centers.  The reported quantity is the
    aggregate suppression of the branch off-diagonal block over a
    maximally fine second-time partition: for a complete rank-one
    outcome set, sum_{bb'} |D((+,b),(-,b'))|^2 = ||K[P+ rho P-]||_F^2
    and sum_b D((+,b),(+,b)) = Tr K[P+ rho P+], so

        ratio(Dt) = ||K[X+-]||_F / sqrt(Tr K[X++] * Tr K[X--])

    which is basis independent.  A single probe cell would instead
    measure the local fringe visibility, which is contaminated by
    amplitude regrowth at the cell boundary and does not isolate the
    environmental decay; the block norm does.  The denominator is the
    conserved branch weight, so the ratio is exactly 1 at Dt = 0 for
    a pure initial state (rank-one cross block) and exactly constant
    under undamped evolution; its first crossing of
    SUPPRESSION_THRESHOLD estimates the decoherence interval.  The
    generator conserves the trace exactly, truncated or not
    (Tr(L X L^dag) = Tr(L^dag L X)), so the branch weights are read at
    Dt = 0 and only the cross block is evolved, by oracle._band_norms,
    which reads its norm from the band layout (duplicated entries
    zeroed, no phases) without rebuilding the N x N block.  It is read
    at every point of the dt_oracle grid up to t_max; a coarser grid
    thins them to rounding.
    """
    dt = pcfg.dt_oracle
    n_steps = steps_on_grid(t_max, dt, "t_max")
    if n_steps < 1:
        raise ConfigError("t_max shorter than one oracle step")
    if n_steps > steps_on_grid(pcfg.t_end, dt, "t_end"):
        raise ConfigError(f"t_max {t_max} is beyond t_end {pcfg.t_end}")

    psi = cat_state(ops, alpha0)
    rho = np.outer(psi, psi.conj())
    p_plus, p_minus = (cell_projector(PhaseCell(
        center=c, w_re=branch_cell[0], w_im=branch_cell[1], h=h), ops)
        for c in (alpha0, -alpha0))

    w_plus, w_minus = (np.trace(p @ rho @ p).real for p in (p_plus, p_minus))
    scale = (math.sqrt(w_plus * w_minus)
             if min(w_plus, w_minus) >= DIAG_WEIGHT_FLOOR else math.nan)

    intervals = np.arange(n_steps + 1) * dt
    ratios = np.empty(n_steps + 1)
    for i, norms in _band_norms(p_plus @ rho @ p_minus, ops, dt, n_steps):
        ratios[i:i + len(norms)] = norms
    ratios /= scale

    crossing = float("nan")
    for s in range(1, ratios.size):
        # false where either ratio is nan
        if ratios[s] < SUPPRESSION_THRESHOLD <= ratios[s - 1]:
            frac = ((ratios[s - 1] - SUPPRESSION_THRESHOLD)
                    / (ratios[s - 1] - ratios[s]))
            crossing = float(intervals[s - 1]
                             + frac * (intervals[s] - intervals[s - 1]))
            break
    return IntervalScan(intervals=intervals, ratios=ratios, crossing=crossing)
