"""The benchmark's workloads: inputs from a seed, solve calls, checks.

Each workload calls qsdsim only through attributes of the package (so a
traced run sees every call) and only with required arguments and the
fields of the config dataclasses.  ``setup`` builds operators and
initial states; ``operations`` lists the solve calls of one pass;
``check`` compares the last pass's outputs with the independent
references in ``reference.py`` and returns the faults found.
"""

from __future__ import annotations

import math

import numpy as np

from reference import HBAR, K_B, M, Oscillator, expect, self_test, \
    trace_distance

# The acceptance gate's tolerances (qsdsim.constants), fixed here so a
# change to the program cannot loosen the benchmark's checks.
SHAPE_TOL = 0.05
SUPPRESSION_THRESHOLD = 0.1
DIAG_WEIGHT_FLOOR = 1e-9

# Ensemble means are compared at every sample of three fields, so the
# band is wider than the gate's 4 standard errors: at 5 the chance
# that a sound program fails one of the ~60 comparisons is about 1e-5.
MEAN_BAND = 5.0
# Trace distance of an m-trajectory mean dyad from the exact rho, in
# units of 1/sqrt(m).  Measured as 0.17 to 0.91 over 94 seeds at
# m = 256 (mean 0.38).  Noise increments scaled by sqrt(2) read 1.5 to
# 2.0, and a 5% error in the drift 0.85 to 1.4.
RHO_SPREAD = 1.25
NORM_TOL = 1e-12


def _seed_inputs(seed: int):
    """A phase in [0, 2 pi) and a 31-bit program seed, from --seed."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.0, 2.0 * math.pi)), int(rng.integers(2 ** 31))


def _params(q, osc: Oscillator):
    return q.ModelParams(m=M, omega=osc.omega, gamma=osc.gamma,
                         temperature=osc.temperature, hbar=HBAR, k_B=K_B)


class EnsembleWide:
    """Batched ensemble at n_fock=40 from a coherent start, warm bath."""

    name = "ensemble_wide"
    osc = Oscillator(n_fock=40, omega=2.0, gamma=0.5, nbar=0.5)
    m = 256            # four batches of the program's TRAJ_BATCH = 64
    dt = 1e-3
    t_end = 1.0
    stride = 50

    def __init__(self, seed: int):
        phase, self.base_seed = _seed_inputs(seed)
        self.alpha = complex(np.exp(1j * phase))
        self.traj_steps_per_pass = self.m * round(self.t_end / self.dt)

    def setup(self, q):
        self.ops = q.build_operators(_params(q, self.osc), self.osc.n_fock)
        self.cfg = q.EnsembleConfig(
            m=self.m, base_seed=self.base_seed,
            integrator=q.IntegratorConfig(dt=self.dt, t_end=self.t_end,
                                          record_stride=self.stride),
            initial=q.InitialStateSpec(kind="coherent", alpha=self.alpha),
            rho_times=(self.t_end,))

    def operations(self, q):
        return [("run_ensemble", lambda: q.run_ensemble(self.cfg, self.ops))]

    def check(self, q, out) -> list[str]:
        osc = self.osc
        prop = osc.propagator(self.t_end)
        faults = self_test(osc, prop, self.t_end, self.alpha)
        stats = out["run_ensemble"]
        psi0 = osc.coherent(self.alpha)
        rho_ref = prop.apply(np.outer(psi0, psi0.conj()))
        rates = osc.omega ** 2 + osc.gamma ** 2
        dist = trace_distance(stats.rhos[-1], rho_ref)
        bound = RHO_SPREAD / math.sqrt(self.m) + rates * self.dt * self.t_end
        if not dist <= bound:
            faults.append(f"rho(t_end) trace distance {dist:.4f} > {bound:.4f}")

        t = np.asarray(stats.times)
        a_pred = osc.mean_a(self.alpha, t)
        n_pred = osc.mean_n(abs(self.alpha) ** 2, t)
        amp = abs(self.alpha)
        preds = {
            "q_mean": (2.0 * osc.sigma_q * a_pred.real, 2.0 * osc.sigma_q * amp),
            "p_mean": (2.0 * osc.sigma_p * a_pred.imag, 2.0 * osc.sigma_p * amp),
            "n_mean": (n_pred, amp ** 2 + osc.nbar),
        }
        for field, (pred, scale) in preds.items():
            # Euler bias grows as O(dt) per unit time (as in criterion 9)
            allow = rates * self.dt * t * scale
            band = MEAN_BAND * np.sqrt(stats.stderrs[field] ** 2 + allow ** 2)
            dev = np.abs(stats.means[field] - pred)
            if not np.all(dev <= band + 1e-9):
                k = int(np.argmax(dev - band))
                faults.append(f"{field} at t={t[k]:.3g} off the closed form "
                              f"by {dev[k]:.3e} (band {band[k]:.3e})")
        drift = np.abs(np.linalg.norm(stats.final_states, axis=1) - 1.0).max()
        if not drift <= NORM_TOL:
            faults.append(f"final-state norm off 1 by {drift:.3e}")
        return faults


class TrajectoryRecords:
    """One long single trajectory at n_fock=32, recorded every 5 steps."""

    name = "trajectory_records"
    osc = Oscillator(n_fock=32, omega=1.0, gamma=0.2, nbar=0.5)
    dt = 1e-3
    t_end = 10.0
    stride = 5

    def __init__(self, seed: int):
        phase, self.traj_seed = _seed_inputs(seed)
        self.alpha = complex(np.exp(1j * phase))
        self.traj_steps_per_pass = round(self.t_end / self.dt)

    def setup(self, q):
        self.ops = q.build_operators(_params(q, self.osc), self.osc.n_fock)
        self.psi0 = q.coherent_state(self.ops, self.alpha)
        self.cfg = q.IntegratorConfig(dt=self.dt, t_end=self.t_end,
                                      seed=self.traj_seed,
                                      record_stride=self.stride)

    def operations(self, q):
        return [("run_trajectory",
                 lambda: q.run_trajectory(self.psi0, self.ops, self.cfg))]

    def check(self, q, out) -> list[str]:
        faults = []
        rec = out["run_trajectory"]
        psi = np.asarray(rec.final_state)
        drift = abs(np.linalg.norm(psi) - 1.0)
        if not drift <= NORM_TOL:
            faults.append(f"final-state norm off 1 by {drift:.3e}")
        rho = np.outer(psi, psi.conj())
        spread = (expect(rho, self.osc.number()).real
                  - abs(expect(rho, self.osc.lowering())) ** 2)
        if not spread < SHAPE_TOL:
            faults.append(f"final spread {spread:.4f} not below {SHAPE_TOL}")
        if not abs(rec.bundles[-1].delta_alpha_sq - spread) <= 1e-9:
            faults.append(f"recorded spread {rec.bundles[-1].delta_alpha_sq} "
                          f"!= {spread}")
        n_samples = round(self.t_end / self.dt) // self.stride + 1
        if len(rec.times) != n_samples or len(rec.bundles) != n_samples:
            faults.append(f"{len(rec.times)} times, {len(rec.bundles)} "
                          f"samples; expected {n_samples}")
        else:
            grid = np.arange(n_samples) * self.stride * self.dt
            tol = 1e-12 * self.t_end
            off = max(np.abs(np.asarray(rec.times) - grid).max(),
                      max(abs(b.t - g) for b, g in zip(rec.bundles, grid)))
            if not off <= tol:
                faults.append(f"sample times off the grid by {off:.3e}")
        return faults


class OracleHistories:
    """Master-equation propagation and two-time histories of a damped cat."""

    name = "oracle_histories"
    # gamma, nbar and the cell geometry of acceptance criterion 10
    osc = Oscillator(n_fock=40, omega=1.0, gamma=3.0 / (10.0 * math.pi),
                     nbar=2.0)
    alpha0 = 2.2
    center = 1.8
    w_re = 0.85
    h = 0.12
    dt_oracle = 0.02

    def __init__(self, seed: int):
        # the seed turns the cat by up to 0.3 rad off the cells' axis;
        # the worst branch suppression stays near 0.005 over that range
        phase, _ = _seed_inputs(seed)
        self.alpha = self.alpha0 * complex(np.exp(0.3j * math.sin(phase)))
        # three localization times, tanh(hbar omega / 2kT) / gamma, on the grid
        t_loc = 1.0 / (self.osc.gamma * (2.0 * self.osc.nbar + 1.0))
        self.interval = round(3.0 * t_loc / self.dt_oracle) * self.dt_oracle
        self.traj_steps_per_pass = 0

    def setup(self, q):
        self.ops = q.build_operators(_params(q, self.osc), self.osc.n_fock)
        psi = q.cat_state(self.ops, self.alpha)
        self.rho0 = np.outer(psi, psi.conj())
        self.pcfg = q.LindbladPropagatorConfig(dt_oracle=self.dt_oracle,
                                               t_end=self.interval)
        self.cells = tuple(q.PhaseCell(center=s * self.center, w_re=self.w_re,
                                       w_im=1.0 / self.w_re, h=self.h)
                           for s in (-1.0, 1.0))
        self.spec = q.HistorySpec(times=(0.0, self.interval),
                                  cells=(self.cells, self.cells),
                                  rho0=self.rho0, include_complement=True)

    def operations(self, q):
        return [
            ("propagate", lambda: q.propagate(self.rho0, self.ops, self.pcfg)),
            ("decoherence_functional",
             lambda: q.decoherence_functional(self.spec, self.ops, self.pcfg)),
            ("cat_interval_scan",
             lambda: q.cat_interval_scan(self.alpha, self.ops, self.pcfg,
                                         self.interval)),
        ]

    def check(self, q, out) -> list[str]:
        osc = self.osc
        prop = osc.propagator(self.interval)
        faults = self_test(osc, prop, self.interval, self.alpha)

        run = out["propagate"]
        dist = trace_distance(run.rhos[-1], prop.apply(self.rho0))
        # RK4 at dt_oracle = 0.02 is 1.4e-6 off; the bound leaves 7x room
        if not (abs(run.times[-1] - self.interval) <= 1e-12 and dist <= 1e-5):
            faults.append(f"propagate: rho(t={run.times[-1]}) is {dist:.3e} "
                          f"from the expm reference")

        D = out["decoherence_functional"]
        mat = np.asarray(D.matrix)
        scale = float(np.abs(mat).max())
        herm = float(np.abs(mat - mat.conj().T).max())
        if not herm <= 1e-12 * scale:
            faults.append(f"D is not Hermitian: {herm:.3e}")
        total = abs(complex(mat.sum()) - np.trace(self.rho0))
        if not total <= 1e-9:
            faults.append(f"D sums to Tr rho0 only within {total:.3e}")

        projs = [q.cell_projector(c, self.ops) for c in self.cells]
        comp = np.eye(osc.n_fock, dtype=complex) - sum(projs)
        proj = {i: p for i, p in enumerate(projs)} | {-1: comp}
        # D((a,b),(a,b)) = Tr(P_b K[P_a rho0 P_a] P_b); the projectors
        # are only approximately idempotent, so P_b^2 is kept.
        evolved = {a: prop.apply(p @ self.rho0 @ p) for a, p in proj.items()}
        ref = np.array([np.trace(proj[b] @ evolved[a] @ proj[b]).real
                        for a, b in D.labels])
        diag_err = float(np.abs(np.diagonal(mat).real - ref).max())
        if not diag_err <= 1e-6:
            faults.append(f"D diagonal off the expm reference by {diag_err:.3e}")

        branch = [i for i, lab in enumerate(D.labels) if -1 not in lab]
        weights = np.diagonal(mat).real
        worst = max((abs(mat[i, j]) / math.sqrt(weights[i] * weights[j])
                     for i in branch for j in branch
                     if i != j and min(weights[i], weights[j]) > DIAG_WEIGHT_FLOOR),
                    default=math.nan)
        if not worst < SUPPRESSION_THRESHOLD:
            faults.append(f"branch suppression {worst:.4f} not below "
                          f"{SUPPRESSION_THRESHOLD}")

        scan = out["cat_interval_scan"]
        if not (scan.intervals[0] == 0.0 and abs(scan.ratios[0] - 1.0) <= 1e-9):
            faults.append(f"interval-scan ratio at 0 is {scan.ratios[0]!r}")
        return faults


WORKLOADS = {w.name: w for w in (EnsembleWide, TrajectoryRecords,
                                 OracleHistories)}
