"""Parameters, derived scales, operators, and state constructors."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

from conftest import dense_operators
import qsdsim
from qsdsim.constants import MAX_N_FOCK
from qsdsim.errors import DimensionError, ParameterError, TruncationError
from qsdsim.model import (ModelParams, build_operators, cat_state,
                          coherent_state, fock_state, normalize, tail_mass,
                          temperature_for_nbar)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ModelParams(m=0.0)
    with pytest.raises(ParameterError):
        ModelParams(omega=-1.0)
    with pytest.raises(ParameterError):
        ModelParams(gamma=-0.1)
    with pytest.raises(ParameterError):
        ModelParams(temperature=-1.0)
    with pytest.raises(ParameterError):
        ModelParams(hbar=0.0)
    # a nan passes a plain `x <= 0` check; each refusal names its field
    for name in ("m", "omega", "gamma", "temperature", "hbar", "k_B"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError, match=rf"\b{name} must"):
                ModelParams(**{name: bad})


def test_nbar_limits():
    assert ModelParams(temperature=0.0).nbar == 0.0
    # far below the oscillator quantum the bath looks empty
    assert ModelParams(temperature=1e-4).nbar < 1e-40
    # equipartition regime: nbar -> k_B T / (hbar omega)
    hot = ModelParams(temperature=1e4)
    assert hot.nbar == pytest.approx(1e4, rel=1e-4)


def test_nbar_against_geometric_populations():
    # independent route: nbar is the mean of the geometric level law
    par = ModelParams(temperature=1.7)
    x = par.hbar * par.omega / (par.k_B * par.temperature)
    n = np.arange(400)
    pops = np.exp(-x * n) * (1.0 - np.exp(-x))
    assert par.nbar == pytest.approx(float((n * pops).sum()), rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_temperature_for_nbar_roundtrip(nbar):
    par = ModelParams(temperature=temperature_for_nbar(nbar))
    assert par.nbar == pytest.approx(nbar, rel=1e-9)


def test_temperature_for_nbar_edge():
    assert temperature_for_nbar(0.0) == 0.0
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match="nbar"):
            temperature_for_nbar(bad)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_quadrature_width_product(m, omega):
    par = ModelParams(m=m, omega=omega)
    assert par.sigma_q * par.sigma_p == pytest.approx(par.hbar / 2.0)


def test_derived_scales():
    # zero temperature: localization time is the damping time
    cold = ModelParams(gamma=0.25, temperature=0.0)
    assert cold.t_loc == pytest.approx(4.0)
    # high temperature: tanh shrinks it by hbar omega / (2 k_B T)
    hot = ModelParams(gamma=0.25, temperature=50.0)
    assert hot.t_loc == pytest.approx(math.tanh(0.01) / 0.25, rel=1e-12)
    with pytest.raises(ParameterError):
        ModelParams(gamma=0.0).t_loc


@pytest.mark.parametrize("kwargs, label", [
    ({"m": 1e308}, "sigma_q"),                     # 2 m omega overflows
    ({"omega": 1e308}, "sigma_q"),
    ({"m": 1e-200, "omega": 1e-200}, "sigma_q"),   # 2 m omega underflows
    ({"m": 1e10, "hbar": 1e308}, "sigma_p"),       # hbar m omega overflows
    # finite squares whose ensemble statistics would overflow
    ({"m": 1e-300}, "sigma_q"),
    ({"omega": 1e-101}, "sigma_q"),
    ({"m": 1e101}, "sigma_p"),
])
def test_quadrature_widths_are_positive_and_finite(kwargs, label):
    # each parameter is finite and positive, but a derived width or its
    # square, which the observables divide by, is not, or the square is
    # above MAX_WIDTH_SQ
    with pytest.raises(ParameterError, match=label):
        ModelParams(**kwargs)


def _scales(ops):
    """sqrt((nbar + 1) gamma) and sqrt(nbar gamma): L1 / a and L2 / a_dag."""
    par = ops.params
    return (math.sqrt((par.nbar + 1.0) * par.gamma),
            math.sqrt(par.nbar * par.gamma))


def test_operator_matrices(ops20):
    # H is diagonal, L1 lowers and L2 raises by one level, and the dense
    # matrices carry exactly the band vectors
    n = ops20.n_fock
    par = ops20.params
    h, l1, l2 = dense_operators(ops20)
    assert np.array_equal(h, np.diag(ops20.h))
    assert np.array_equal(l1, np.diag(ops20.c, 1))
    assert np.array_equal(l2, np.diag(ops20.d, -1))
    assert np.allclose(ops20.h, par.hbar * par.omega * (np.arange(n) + 0.5))
    # ladder convention a|n> = sqrt(n)|n-1>
    a = l1 / _scales(ops20)[0]
    assert a[0, 1] == pytest.approx(1.0)
    assert a[3, 4] == pytest.approx(2.0)
    assert np.allclose(h, par.hbar * par.omega
                       * (a.conj().T @ a + 0.5 * np.eye(n)))
    # commutator is the identity except the truncation corner
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(comm[:n - 1, :n - 1], np.eye(n - 1))
    assert comm[n - 1, n - 1] == pytest.approx(-(n - 1))


def test_quadrature_operators(ops20):
    n = ops20.n_fock
    par = ops20.params
    a = dense_operators(ops20)[1] / _scales(ops20)[0]
    q = par.sigma_q * (a + a.conj().T)
    p = -1j * par.sigma_p * (a - a.conj().T)
    assert np.allclose(q, q.conj().T)
    assert np.allclose(p, p.conj().T)
    comm = q @ p - p @ q
    assert np.allclose(comm[:n - 1, :n - 1],
                       1j * par.hbar * np.eye(n - 1))


def test_lindblad_operator_scaling(ops20):
    s1, s2 = _scales(ops20)
    root_n = np.sqrt(np.arange(1, ops20.n_fock))
    assert np.allclose(ops20.c, s1 * root_n)
    assert np.allclose(ops20.d, s2 * root_n)
    _, l1, l2 = dense_operators(ops20)
    assert np.allclose(l2, (s2 / s1) * l1.conj().T)
    # mu = diag(L1^dag L1 + L2^dag L2); the top level has no L2 partner
    assert np.allclose(ops20.mu, np.diag(l1.conj().T @ l1
                                         + l2.conj().T @ l2).real)
    assert ops20.mu[-1] == pytest.approx(s1 ** 2 * (ops20.n_fock - 1))


def test_operator_set_refuses_non_band_values(ops20):
    # the band vectors are the whole model, so they are checked once,
    # where an operator set is made
    n = ops20.n_fock
    bad = {"h": [ops20.h[:-1], np.diag(ops20.h), ops20.h + 0j,
                 np.where(np.arange(n) == 3, np.nan, ops20.h)],
           "c": [ops20.c[:-1], ops20.c + 1e-3j, ops20.c.astype(np.float32),
                 np.where(np.arange(n - 1) == 0, np.inf, ops20.c)],
           "d": [np.append(ops20.d, 1.0), ops20.d * (1 - 1j),
                 np.full(n - 1, np.nan), list(ops20.d)]}
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ParameterError, match=name):
                dataclasses.replace(ops20, **{name: value})
    with pytest.raises(DimensionError):
        dataclasses.replace(ops20, n_fock=1, h=ops20.h[:1],
                            c=ops20.c[:0], d=ops20.d[:0])


def test_operator_set_refuses_an_overflowing_loss(ops20):
    # c and d are finite, but mu = c**2 + d**2 is not; refused without
    # an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="mu"):
            dataclasses.replace(ops20, c=np.full(ops20.n_fock - 1, 1e155))
        with pytest.raises(ParameterError, match="mu"):
            build_operators(ModelParams(gamma=1e308), 8)


def test_build_operators_rejects_tiny_space(warm_params):
    with pytest.raises(DimensionError):
        build_operators(warm_params, 1)


def test_build_operators_bounds_n_fock(warm_params):
    # refused before any vector is sized by it; an arange of -10**30
    # levels would raise numpy's own ValueError
    assert build_operators(warm_params, MAX_N_FOCK).n_fock == MAX_N_FOCK
    for n_fock in (MAX_N_FOCK + 1, 10 ** 30, -10 ** 30):
        with pytest.raises(DimensionError):
            build_operators(warm_params, n_fock)
    with pytest.raises(DimensionError, match=f"maximum of {MAX_N_FOCK}"):
        build_operators(warm_params, MAX_N_FOCK + 1)


def test_coherent_state_moments(ops20):
    alpha = 0.8 - 0.3j
    psi = coherent_state(ops20, alpha)
    par = ops20.params
    a = dense_operators(ops20)[1] / _scales(ops20)[0]
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert np.vdot(psi, a @ psi) == pytest.approx(alpha, abs=1e-10)
    # <n> from the diagonal of H = hbar omega (n + 1/2)
    n_mean = np.abs(psi) ** 2 @ (ops20.h / (par.hbar * par.omega) - 0.5)
    assert n_mean == pytest.approx(abs(alpha) ** 2, abs=1e-10)
    # eigenstate property of the annihilator
    resid = a @ psi - alpha * psi
    assert np.linalg.norm(resid[:-1]) < 1e-8


def test_coherent_state_poisson_occupation(ops20):
    alpha = 1.2
    psi = coherent_state(ops20, alpha)
    pops = np.abs(psi) ** 2
    ref = sps.poisson.pmf(np.arange(ops20.n_fock), alpha ** 2)
    assert np.allclose(pops, ref, atol=1e-12)


def test_coherent_state_headroom(ops20):
    with pytest.raises(TruncationError):
        coherent_state(ops20, 2.5)  # 6.25 + 12.5 + 5 > 20


def test_cat_state_structure(ops20):
    psi = cat_state(ops20, 1.0, phase=0.0)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    # even superposition kills the odd levels
    assert np.abs(psi[1::2]).max() < 1e-14
    odd = cat_state(ops20, 1.0, phase=math.pi)
    assert np.abs(odd[0::2]).max() < 1e-14
    with pytest.raises(TruncationError):
        cat_state(ops20, 3.0)


def test_fock_state_range(ops20):
    psi = fock_state(ops20, 3)
    assert psi[3] == 1.0 and np.abs(psi).sum() == 1.0
    with pytest.raises(DimensionError):
        fock_state(ops20, 20)
    with pytest.raises(DimensionError):
        fock_state(ops20, -1)


def test_normalize_and_tail(ops20):
    with pytest.raises(DimensionError):
        normalize(np.zeros(4, dtype=complex))
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError):
            normalize(np.array([1.0, bad, 0.0], dtype=complex))
    state = np.zeros(20, dtype=complex)
    state[0] = math.sqrt(0.999)
    state[19] = math.sqrt(0.001)
    assert tail_mass(state) == pytest.approx(0.001)


def test_import_does_not_load_scipy(tmp_path):
    # numpy is the package's one runtime dependency: neither a bare
    # import, nor a decay fit with its 95% interval, nor the thermalize
    # command, whose last check is a chi-square tail, loads scipy
    src = str(Path(qsdsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    config = Path(__file__).parents[1] / "scripts" / "configs"
    code = """
import sys
import qsdsim
def loaded():
    print("scipy", sorted(m for m in sys.modules if m.startswith("scipy")))
loaded()
import numpy as np
from qsdsim.cli import main
from qsdsim.observables import fit_exponential_decay
t = np.linspace(0.0, 2.0, 20)
assert fit_exponential_decay(t, np.exp(-t), 1e-3 * np.exp(-t)).ci95 > 0
assert main(["thermalize", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
loaded()
"""
    out = subprocess.run([sys.executable, "-c", code,
                          str(config / "thermalize.json"), str(tmp_path)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    seen = [line for line in out.splitlines() if line.startswith("scipy")]
    assert seen == ["scipy []", "scipy []"]
