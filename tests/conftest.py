import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import _criteria
from qsdsim.model import ModelParams, build_operators, temperature_for_nbar
from qsdsim.oracle import lindblad_rhs

settings.register_profile(
    "suite", deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def warm_params():
    # gamma=0.2, nbar=0.5: both damping channels active
    return ModelParams(m=1.0, omega=1.0, gamma=0.2,
                       temperature=temperature_for_nbar(0.5))


@pytest.fixture(scope="session")
def ops20(warm_params):
    return build_operators(warm_params, 20)


def random_states(n: int, dim: int, seed: int) -> np.ndarray:
    """(n, dim) normalized complex states, reproducible."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def rk4_step(mat, ops, dt):
    """One classical 4th-order step of the master equation; batched.

    The slow, independent reference for the exact band propagator.
    """
    k1 = lindblad_rhs(mat, ops)
    k2 = lindblad_rhs(mat + 0.5 * dt * k1, ops)
    k3 = lindblad_rhs(mat + 0.5 * dt * k2, ops)
    k4 = lindblad_rhs(mat + dt * k3, ops)
    return mat + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def liouvillian(ops):
    """The master-equation generator as a dense N^2 x N^2 matrix.

    It acts on row-major flattened matrices, where
    vec(A X B) = (A kron B^T) vec(X).
    """
    eye = np.eye(ops.n_fock)
    gen = (-1j / ops.params.hbar) * (np.kron(ops.h, eye)
                                     - np.kron(eye, ops.h.T))
    for l in ops.lindblad_ops:
        m = l.conj().T @ l
        gen = gen + np.kron(l, l.conj()) - 0.5 * (np.kron(m, eye)
                                                  + np.kron(eye, m.T))
    return gen


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria.results:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, ok in sorted(_criteria.results):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {num:2d}: {desc}")
