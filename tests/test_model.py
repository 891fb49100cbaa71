"""Parameters, derived scales, operators, and state constructors."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

import qsdsim
from qsdsim.errors import DimensionError, ParameterError, TruncationError
from qsdsim.model import (ModelParams, build_operators, cat_state,
                          coherent_state, derive, expectation, fock_state,
                          normalize, tail_mass, temperature_for_nbar)


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
    with pytest.raises(ParameterError):
        temperature_for_nbar(-0.5)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_quadrature_width_product(m, omega):
    par = ModelParams(m=m, omega=omega)
    assert par.sigma_q * par.sigma_p == pytest.approx(par.hbar / 2.0)


def test_derived_scales():
    # zero temperature: localization time is the damping time
    cold = derive(ModelParams(gamma=0.25, temperature=0.0))
    assert cold.t_loc == pytest.approx(4.0)
    # high temperature: tanh shrinks it by hbar omega / (2 k_B T)
    hot_par = ModelParams(gamma=0.25, temperature=50.0)
    hot = derive(hot_par)
    assert hot.t_loc == pytest.approx(math.tanh(0.01) / 0.25, rel=1e-12)
    with pytest.raises(ParameterError):
        derive(ModelParams(gamma=0.0))


def test_operator_matrices(ops20):
    n = ops20.n_fock
    # ladder convention a|n> = sqrt(n)|n-1>
    assert ops20.a[0, 1] == pytest.approx(1.0)
    assert ops20.a[3, 4] == pytest.approx(2.0)
    assert np.allclose(ops20.a_dag, ops20.a.conj().T)
    assert np.allclose(ops20.n_op, ops20.a_dag @ ops20.a)
    # commutator is the identity except the truncation corner
    comm = ops20.a @ ops20.a_dag - ops20.a_dag @ ops20.a
    assert np.allclose(comm[:n - 1, :n - 1], np.eye(n - 1))
    assert comm[n - 1, n - 1] == pytest.approx(-(n - 1))


def test_quadrature_operators(ops20):
    n = ops20.n_fock
    par = ops20.params
    assert np.allclose(ops20.q, ops20.q.conj().T)
    assert np.allclose(ops20.p, ops20.p.conj().T)
    comm = ops20.q @ ops20.p - ops20.p @ ops20.q
    assert np.allclose(comm[:n - 1, :n - 1],
                       1j * par.hbar * np.eye(n - 1))


def test_lindblad_operator_scaling(ops20):
    par = ops20.params
    nbar = par.nbar
    assert np.allclose(ops20.l1, math.sqrt((nbar + 1) * par.gamma) * ops20.a)
    assert np.allclose(ops20.l2, math.sqrt(nbar * par.gamma) * ops20.a_dag)


def test_build_operators_rejects_tiny_space(warm_params):
    with pytest.raises(DimensionError):
        build_operators(warm_params, 1)


def test_coherent_state_moments(ops20):
    alpha = 0.8 - 0.3j
    psi = coherent_state(ops20, alpha)
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert expectation(psi, ops20.a) == pytest.approx(alpha, abs=1e-10)
    assert expectation(psi, ops20.n_op).real == pytest.approx(
        abs(alpha) ** 2, abs=1e-10)
    # eigenstate property of the annihilator
    resid = ops20.a @ psi - alpha * psi
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


def test_expectation_dimension_check(ops20):
    with pytest.raises(DimensionError):
        expectation(np.ones(5, dtype=complex), ops20.a)


def test_import_does_not_load_scipy():
    # scipy is imported by the few functions that use it, so a bare
    # import of the package stays at numpy's start-up cost
    src = str(Path(qsdsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, qsdsim; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
