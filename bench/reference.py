"""Independent references the benchmark checks the program against.

Nothing here calls into qsdsim.  The ladder operators, the Liouvillian
superoperator and the thermal state are built from scratch in plain
numpy, and the propagator is the dense matrix exponential of the
Liouvillian (scipy.linalg.expm), not a time stepper.  The closed forms
for the first moments of the damped oscillator give a second, analytic
reference; ``self_test`` checks the two against each other, so the
checker is itself checked before it judges the program.

Model: H = hbar omega (n + 1/2), L1 = sqrt(gamma (nbar+1)) a,
L2 = sqrt(gamma nbar) a^dag, q = sigma_q (a + a^dag),
p = -i sigma_p (a - a^dag).  Row-major vec: vec(A X B) = (A kron B^T) vec(X).
Units are dimensionless: m = hbar = k_B = 1.

scipy is imported only where the propagator is built, so a process that
merely sets a workload up (the setup_s probe) does not load it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

M = HBAR = K_B = 1.0


@dataclass(frozen=True)
class Oscillator:
    """The damped oscillator, parametrized by the bath occupation."""

    n_fock: int
    omega: float
    gamma: float
    nbar: float

    @property
    def temperature(self) -> float:
        """k_B T with 1 / (exp(hbar omega / k_B T) - 1) = nbar > 0."""
        return HBAR * self.omega / (K_B * math.log1p(1.0 / self.nbar))

    @property
    def sigma_q(self) -> float:
        return math.sqrt(HBAR / (2.0 * M * self.omega))

    @property
    def sigma_p(self) -> float:
        return math.sqrt(HBAR * M * self.omega / 2.0)

    def lowering(self) -> np.ndarray:
        return np.diag(np.sqrt(np.arange(1.0, self.n_fock)), 1).astype(complex)

    def number(self) -> np.ndarray:
        return np.diag(np.arange(self.n_fock, dtype=float)).astype(complex)

    def liouvillian(self) -> np.ndarray:
        """(N^2, N^2) generator acting on row-major vec(rho)."""
        n = self.n_fock
        a = self.lowering()
        eye = np.eye(n)
        h = HBAR * self.omega * (self.number() + 0.5 * eye)
        gen = (-1j / HBAR) * (np.kron(h, eye) - np.kron(eye, h.T))
        for c in (math.sqrt(self.gamma * (self.nbar + 1.0)) * a,
                  math.sqrt(self.gamma * self.nbar) * a.conj().T):
            cdc = c.conj().T @ c
            gen += (np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye)
                    - 0.5 * np.kron(eye, cdc.T))
        return gen

    def propagator(self, t: float) -> "Propagator":
        import scipy.linalg

        return Propagator(self.n_fock, scipy.linalg.expm(self.liouvillian() * t))

    def thermal(self) -> np.ndarray:
        """Geometric populations nbar^n / (1+nbar)^(n+1), renormalized."""
        pops = (self.nbar / (1.0 + self.nbar)) ** np.arange(self.n_fock)
        return np.diag(pops / pops.sum()).astype(complex)

    def coherent(self, alpha: complex) -> np.ndarray:
        """Normalized |alpha>, amplitudes alpha^n / sqrt(n!) in log form."""
        n = np.arange(self.n_fock)
        logs = np.array([math.lgamma(k + 1.0) for k in n])
        if alpha == 0:
            amp = (n == 0).astype(complex)
        else:
            amp = np.exp(n * cmath.log(alpha) - 0.5 * logs)
        return amp / np.linalg.norm(amp)

    def mean_a(self, alpha0: complex, t):
        """<a>(t) = alpha0 exp(-(i omega + gamma/2) t)."""
        return alpha0 * np.exp(-(1j * self.omega + 0.5 * self.gamma)
                               * np.asarray(t, dtype=float))

    def mean_n(self, n0: float, t):
        """<n>(t) = nbar + (n0 - nbar) exp(-gamma t)."""
        return self.nbar + (n0 - self.nbar) * np.exp(
            -self.gamma * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class Propagator:
    """exp(L t) as a dense matrix on row-major vec(rho)."""

    n_fock: int
    matrix: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        n = self.n_fock
        return (self.matrix @ np.asarray(rho, dtype=complex).reshape(n * n)
                ).reshape(n, n)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the Hermitian part of rho - sigma."""
    diff = rho - sigma
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def expect(rho: np.ndarray, op: np.ndarray) -> complex:
    return complex(np.trace(rho @ op) / np.trace(rho))


def self_test(osc: Oscillator, prop: Propagator, t: float,
              alpha: complex) -> list[str]:
    """Faults of the reference itself; empty when it is sound.

    The propagator must hold the thermal state fixed and carry a
    coherent state's <a> and <n> along the closed forms.  The closed
    forms ignore the truncation, whose error scales with the thermal
    weight (nbar / (1 + nbar))^n_fock beyond the last level; a factor
    50 over it covers the workloads' settings, and a wrong rate, sign
    or factor in the Liouvillian is off by orders of magnitude more.
    """
    tol = 1e-10 + 50.0 * (osc.nbar / (1.0 + osc.nbar)) ** osc.n_fock
    faults = []
    th = osc.thermal()
    drift = float(np.abs(prop.apply(th) - th).max())
    if not drift < tol:
        faults.append(f"thermal state moved by {drift:.3e} over t={t}")
    psi = osc.coherent(alpha)
    rho_t = prop.apply(np.outer(psi, psi.conj()))
    n0 = float(np.vdot(psi, osc.number() @ psi).real)
    err_n = abs(expect(rho_t, osc.number()).real - float(osc.mean_n(n0, t)))
    if not err_n < tol:
        faults.append(f"<n>({t}) off the closed form by {err_n:.3e}")
    a0 = complex(np.vdot(psi, osc.lowering() @ psi))
    err_a = abs(expect(rho_t, osc.lowering()) - complex(osc.mean_a(a0, t)))
    if not err_a < tol:
        faults.append(f"<a>({t}) off the closed form by {err_a:.3e}")
    return faults
