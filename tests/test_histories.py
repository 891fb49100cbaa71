"""Coarse-grained history machinery: projectors, D, and interval scans."""
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from qsdsim import (
    ConfigError,
    DecoherenceMatrix,
    DimensionError,
    HistorySpec,
    LindbladPropagatorConfig,
    ModelParams,
    PhaseCell,
    QuadratureError,
    TruncationError,
    build_operators,
    cat_interval_scan,
    cat_state,
    cell_projector,
    classical_peaking_report,
    coherent_state,
    decoherence_functional,
    propagate_matrices,
    temperature_for_nbar,
)
from qsdsim import histories, oracle
from qsdsim.constants import MAX_CELL_AMPLITUDES
from qsdsim.model import coherent_states
from conftest import liouvillian


def test_cell_geometry():
    cell = PhaseCell(center=1.0 + 0.5j, w_re=0.5, w_im=0.25, h=0.05)
    assert cell.area_hbar == pytest.approx(8.0 * 0.5 * 0.25)
    with pytest.raises(ConfigError):
        PhaseCell(center=0.0, w_re=-1.0, w_im=0.5, h=0.1)
    with pytest.raises(ConfigError):
        PhaseCell(center=0.0, w_re=1.0, w_im=0.5, h=0.0)
    # a nan passes a plain `x <= 0` check; each refusal names its field
    for name in ("w_re", "w_im", "h"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=name):
                PhaseCell(**{"center": 0.0, "w_re": 1.0, "w_im": 0.5,
                             "h": 0.1, name: bad})
    with pytest.raises(ConfigError, match="center"):
        PhaseCell(center=complex(0.0, math.nan), w_re=1.0, w_im=0.5, h=0.1)


def test_projector_working_memory_is_bounded(warm_params):
    # 63 x 63 = 3969 points at 100 levels: the coherent states take 6.4
    # MB, and the Gram sum holds its running total and one slice product
    # at a time, where a stack of all 497 products takes 80 MB
    ops = build_operators(warm_params, 100)
    cell = PhaseCell(center=0.0, w_re=3.15, w_im=3.15, h=0.1)
    tracemalloc.start()
    try:
        proj = cell_projector(cell, ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert proj.shape == (100, 100)
    assert peak < 32 * 2 ** 20


def test_projector_captures_contained_packet(warm_params):
    ops = build_operators(warm_params, 40)
    cell = PhaseCell(center=0.8, w_re=2.0, w_im=2.0, h=0.2)
    proj = cell_projector(cell, ops)
    psi = coherent_state(ops, 0.8)
    inside = np.vdot(psi, proj @ psi).real
    # Gaussian overlap integral over the cell: erf(2)^2 = 0.9906
    assert inside == pytest.approx(math.erf(2.0) ** 2, abs=5e-3)
    far = coherent_state(ops, -3.5j)
    assert np.vdot(far, proj @ far).real < 0.05


def test_projector_is_hermitian_psd(warm_params):
    ops = build_operators(warm_params, 30)
    proj = cell_projector(
        PhaseCell(center=0.5 - 0.5j, w_re=1.0, w_im=0.8, h=0.1), ops)
    assert np.allclose(proj, proj.conj().T, atol=1e-14)
    evals = np.linalg.eigvalsh(proj)
    assert evals.min() > -1e-13
    assert evals.max() < 1.1


def test_projector_points_match_coherent_state(ops20):
    # the quadrature points are built together, by the level recursion
    # run over all points at once; each row is the single-point state
    alphas = (0.4 - 0.3j + np.linspace(-1.0, 1.0, 7)[:, None]
              + 1j * np.linspace(-0.8, 0.8, 5)[None, :]).ravel()
    rows = coherent_states(ops20, alphas)
    for alpha, row in zip(alphas, rows):
        assert np.abs(row - coherent_state(ops20, alpha)).max() < 1e-14
    with pytest.raises(TruncationError):
        coherent_states(ops20, np.array([0.0, 3.0]))


def test_branch_weights_are_conserved(warm_params):
    # Tr(L X L^dag) = Tr(L^dag L X) for any finite L, so the truncated
    # generator keeps each branch weight Tr(P rho P) fixed; the
    # interval scan reads the weights at t = 0 on this ground
    ops = build_operators(warm_params, 20)
    psi = cat_state(ops, 1.0)
    rho = np.outer(psi, psi.conj())
    kernel = expm(6.28 * liouvillian(ops))
    for center in (1.0, -1.0):
        p = cell_projector(PhaseCell(center=center, w_re=0.8, w_im=0.8,
                                     h=0.1), ops)
        block = p @ rho @ p
        evolved = (kernel @ block.reshape(-1)).reshape(block.shape)
        assert abs(np.trace(evolved) - np.trace(block)) < 1e-13
        got = propagate_matrices(block, ops, 6.28)
        assert abs(np.trace(got) - np.trace(block)) < 1e-13


def test_coarse_quadrature_rejected(ops20):
    cell = PhaseCell(center=0.0, w_re=0.4, w_im=0.4, h=0.2)
    with pytest.raises(QuadratureError):
        cell_projector(cell, ops20)


@pytest.mark.parametrize("h", [1e-300, 1e-4])
def test_fine_quadrature_grid_is_bounded(ops20, monkeypatch, h):
    # 1e-4 would ask for 1.6e8 coherent states; refused before any array
    # is sized by the grid, as the guard below shows
    def unreachable(*_):
        raise AssertionError("an array was sized by the grid")

    monkeypatch.setattr(histories, "coherent_states", unreachable)
    cell = PhaseCell(center=0.0, w_re=0.7, w_im=0.9, h=h)
    with pytest.raises(QuadratureError, match=str(MAX_CELL_AMPLITUDES)):
        cell_projector(cell, ops20)


def test_quadrature_grid_bound_admits_its_largest_grid():
    # 256 x 256 points at 64 levels are exactly MAX_CELL_AMPLITUDES; one
    # more column of points is refused
    cell = PhaseCell(center=0.0, w_re=1.0, w_im=1.0, h=2.0 / 256)
    cell.check(64)
    with pytest.raises(QuadratureError):
        dataclasses.replace(cell, w_re=1.0 + 1.0 / 256).check(64)


def test_history_spec_validation(ops20):
    rho0 = np.eye(20, dtype=complex) / 20.0
    ok = PhaseCell(center=0.0, w_re=0.5, w_im=0.5, h=0.1)
    far = PhaseCell(center=2.0, w_re=0.5, w_im=0.5, h=0.1)
    with pytest.raises(ConfigError):
        HistorySpec(times=(), cells=(), rho0=rho0)
    with pytest.raises(ConfigError):
        HistorySpec(times=(0.0, 0.1, 0.2, 0.3),
                    cells=((ok,),) * 4, rho0=rho0)
    with pytest.raises(ConfigError):
        HistorySpec(times=(0.0, 0.1), cells=((ok,),), rho0=rho0)
    with pytest.raises(ConfigError):
        HistorySpec(times=(0.1, 0.1), cells=((ok,), (ok,)), rho0=rho0)
    with pytest.raises(ConfigError):
        HistorySpec(times=(-0.1,), cells=((ok,),), rho0=rho0)
    with pytest.raises(ConfigError):
        shifted = PhaseCell(center=0.3, w_re=0.5, w_im=0.5, h=0.1)
        HistorySpec(times=(0.0,), cells=((ok, shifted),), rho0=rho0)
    with pytest.raises(ConfigError):
        HistorySpec(times=(0.0,), cells=((),), rho0=rho0)
    with pytest.raises(DimensionError, match="rho0 must be square"):
        HistorySpec(times=(0.0,), cells=((ok,),), rho0=rho0[:, :19])
    # touching cells are a partition, not an overlap
    touch = PhaseCell(center=1.0, w_re=0.5, w_im=0.5, h=0.1)
    HistorySpec(times=(0.0,), cells=((ok, touch, far),), rho0=rho0)


def test_single_time_functional_is_complete(warm_params, ops20):
    psi = coherent_state(ops20, 0.7)
    rho0 = np.outer(psi, psi.conj())
    cells = (PhaseCell(center=0.7, w_re=0.8, w_im=0.8, h=0.1),
             PhaseCell(center=-1.0, w_re=0.3, w_im=0.3, h=0.05))
    spec = HistorySpec(times=(0.0,), cells=(cells,), rho0=rho0)
    pcfg = LindbladPropagatorConfig(dt_oracle=1e-3, t_end=0.0)
    D = decoherence_functional(spec, ops20, pcfg)
    assert D.labels == ((0,), (1,), (-1,))
    # no propagation happens at t=0, so completeness is exact
    assert np.sum(D.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert abs(np.sum(D.matrix).imag) < 1e-12
    assert np.allclose(D.matrix, D.matrix.conj().T, atol=1e-12)


def test_two_time_functional(warm_params, ops20):
    psi = coherent_state(ops20, 0.7)
    rho0 = np.outer(psi, psi.conj())
    first = (PhaseCell(center=0.7, w_re=0.8, w_im=0.8, h=0.1),)
    second = (PhaseCell(center=0.5 - 0.35j, w_re=0.7, w_im=0.7, h=0.1),
              PhaseCell(center=-1.3 + 0.7j, w_re=0.4, w_im=0.4, h=0.08))
    spec = HistorySpec(times=(0.0, 0.5), cells=(first, second), rho0=rho0)
    pcfg = LindbladPropagatorConfig(dt_oracle=2e-3, t_end=0.5)
    D = decoherence_functional(spec, ops20, pcfg)
    assert len(D.labels) == 6
    assert D.labels[0] == (0, 0)
    assert D.labels[-1] == (-1, -1)
    assert np.allclose(D.matrix, D.matrix.conj().T, atol=1e-10)
    # complement-completed partitions sum to Tr rho up to rounding
    assert np.sum(D.matrix).real == pytest.approx(1.0, abs=1e-8)
    for lab, w in zip(D.labels, D.diagonal()):
        if -1 not in lab:
            assert w > -1e-9
    # history times must lie on the dt_oracle grid
    with pytest.raises(ConfigError):
        decoherence_functional(
            spec, ops20, LindbladPropagatorConfig(dt_oracle=0.3, t_end=0.6))
    # and not beyond the propagation horizon t_end
    with pytest.raises(ConfigError):
        decoherence_functional(
            spec, ops20, LindbladPropagatorConfig(dt_oracle=2e-3, t_end=0.4))


def test_functional_and_scan_match_dense_propagator(ops20):
    ops = ops20
    gen = liouvillian(ops)
    kernels = {t: expm(t * gen) for t in (0.0, 0.1, 0.15, 0.3, 0.4)}

    def evolve(mat, t):
        return (kernels[t] @ mat.reshape(-1)).reshape(mat.shape)

    psi = coherent_state(ops, 0.7)
    rho0 = np.outer(psi, psi.conj())
    first = (PhaseCell(center=0.7, w_re=0.8, w_im=0.8, h=0.1),)
    second = (PhaseCell(center=0.5 - 0.35j, w_re=0.7, w_im=0.7, h=0.1),)
    spec = HistorySpec(times=(0.0, 0.4), cells=(first, second), rho0=rho0)
    D = decoherence_functional(
        spec, ops, LindbladPropagatorConfig(dt_oracle=0.1, t_end=0.4))
    # label -1, the complement, indexes the last projector of a time
    p0, p1 = ([ps, np.eye(20) - ps] for ps in
              (cell_projector(cells[0], ops) for cells in spec.cells))
    want = np.array([[np.trace(p1[a1] @ evolve(p0[a0] @ rho0 @ p0[b0], 0.4)
                               @ p1[b1])
                      for b0, b1 in D.labels] for a0, a1 in D.labels])
    assert np.abs(D.matrix - want).max() < 1e-12
    # a third time, after an intermediate level of prefix pairs
    spec = HistorySpec(times=(0.0, 0.3, 0.4), cells=(first, second, first),
                       rho0=rho0)
    D = decoherence_functional(
        spec, ops, LindbladPropagatorConfig(dt_oracle=0.1, t_end=0.4))

    def history(a, b):
        mid = p1[a[1]] @ evolve(p0[a[0]] @ rho0 @ p0[b[0]], 0.3) @ p1[b[1]]
        return np.trace(p0[a[2]] @ evolve(mid, 0.1) @ p0[b[2]])

    want = np.array([[history(a, b) for b in D.labels] for a in D.labels])
    assert np.abs(D.matrix - want).max() < 1e-12

    # one ratio at every point of the dt_oracle grid
    scan = cat_interval_scan(
        1.0, ops, LindbladPropagatorConfig(dt_oracle=0.15, t_end=0.3),
        t_max=0.3, branch_cell=(0.8, 0.8), h=0.1)
    assert np.allclose(scan.intervals, [0.0, 0.15, 0.3], rtol=0, atol=1e-15)
    cat = cat_state(ops, 1.0)
    rho = np.outer(cat, cat.conj())
    plus, minus = (cell_projector(PhaseCell(center=s, w_re=0.8, w_im=0.8,
                                            h=0.1), ops) for s in (1.0, -1.0))
    for t, ratio in zip((0.0, 0.15, 0.3), scan.ratios):
        cross, pp, mm = (evolve(a @ rho @ b, t) for a, b in
                         ((plus, minus), (plus, plus), (minus, minus)))
        want = np.linalg.norm(cross) / math.sqrt(
            np.trace(pp).real * np.trace(mm).real)
        assert ratio == pytest.approx(want, abs=1e-12)


def test_peaking_tie_goes_to_the_first_label():
    # histories_control.json: at gamma = 0 the symmetric cat's two branch
    # histories (0, 0) and (1, 1) weigh the same in exact arithmetic, so
    # rounding alone orders them; a one-ulp nudge of either entry, up or
    # down, must leave the first of them the best label
    cfg = json.loads((Path(__file__).parents[1] / "scripts" / "configs"
                      / "histories_control.json").read_text())
    sec = cfg["histories"]
    assert cfg["params"] == {"m": 1.0, "omega": 1.0, "gamma": 0.0,
                             "nbar": 0.0}
    ops = build_operators(ModelParams(m=1.0, omega=1.0, gamma=0.0,
                                      temperature=0.0), cfg["fock"]["n_fock"])
    psi = cat_state(ops, cfg["initial"]["alpha"])
    cells = tuple(PhaseCell(center=complex(c["center"]), w_re=c["w_re"],
                            w_im=c["w_im"], h=sec["h"]) for c in sec["cells"])
    spec = HistorySpec(times=tuple(sec["times"]), cells=(cells, cells),
                       rho0=np.outer(psi, psi.conj()),
                       include_complement=sec["include_complement"])
    D = decoherence_functional(spec, ops, LindbladPropagatorConfig(
        dt_oracle=sec["dt_oracle"], t_end=max(sec["times"])))
    assert D.labels[0] == (0, 0) and D.labels[3] == (1, 1)
    assert abs(D.diagonal()[3] - D.diagonal()[0]) <= 1e-15
    assert classical_peaking_report(D, spec, ops).best_label == (0, 0)
    flipped = 0
    for i in (0, 3):
        for to in (-np.inf, np.inf):
            m = D.matrix.copy()
            m[i, i] = complex(np.nextafter(m[i, i].real, to), m[i, i].imag)
            nudged = dataclasses.replace(D, matrix=m)
            report = classical_peaking_report(nudged, spec, ops)
            assert report.best_label == (0, 0)
            assert report.best_prob == nudged.diagonal()[0]
            flipped += int(np.argmax(nudged.diagonal())) == 3
    assert flipped   # a plain argmax would name (1, 1)


def test_peaking_follows_damped_orbit(warm_params):
    # initial packet at 1.2; the damped orbit reaches about 1.0 - 0.55j
    # at t = 0.5, well inside the first candidate cell.  Cells are a
    # full packet width so the in-orbit string beats the complement.
    ops = build_operators(warm_params, 24)
    psi = coherent_state(ops, 1.2)
    rho0 = np.outer(psi, psi.conj())
    first = (PhaseCell(center=1.2, w_re=1.0, w_im=1.0, h=0.15),)
    second = (PhaseCell(center=1.0 - 0.5j, w_re=1.0, w_im=1.0, h=0.15),
              PhaseCell(center=-1.0 + 1.0j, w_re=0.6, w_im=0.6, h=0.15))
    spec = HistorySpec(times=(0.0, 0.5), cells=(first, second), rho0=rho0)
    pcfg = LindbladPropagatorConfig(dt_oracle=2e-3, t_end=0.5)
    D = decoherence_functional(spec, ops, pcfg)
    report = classical_peaking_report(D, spec, ops)
    assert report.best_label == (0, 0)
    # each projection keeps <P^2>, roughly half the naive cell overlap
    assert report.best_prob > 0.2
    par = warm_params
    want = 1.2 * np.exp(-(1j * par.omega + 0.5 * par.gamma) * 0.5)
    assert report.classical_path[1] == pytest.approx(want, abs=1e-12)
    assert report.distances[0] == pytest.approx(0.0, abs=1e-12)
    assert report.distances[1] < 0.3


def test_history_width_budget(ops20):
    rho0 = np.eye(20, dtype=complex) / 20.0
    row = tuple(PhaseCell(center=-2.0 + 0.25 * k, w_re=0.1, w_im=0.1,
                          h=0.025)
                for k in range(16))
    spec = HistorySpec(times=(0.0, 0.1, 0.2), cells=(row, row, row),
                       rho0=rho0)
    pcfg = LindbladPropagatorConfig(dt_oracle=1e-3, t_end=0.2)
    with pytest.raises(ConfigError):
        decoherence_functional(spec, ops20, pcfg)


def test_suppression_ratio_floor():
    labels = ((0,), (1,), (-1,))
    matrix = np.array([[0.5, 0.1j, 0.0],
                       [-0.1j, 0.25, 0.0],
                       [0.0, 0.0, 1e-12]], dtype=complex)
    D = DecoherenceMatrix(labels=labels, matrix=matrix)
    ratios, valid = D.suppression()
    assert valid[0, 1] and valid[1, 0]
    assert not valid[0, 0]
    assert not valid[0, 2] and not valid[2, 1]
    want = 0.1 / math.sqrt(0.5 * 0.25)
    assert ratios[0, 1] == pytest.approx(want, abs=1e-12)
    assert np.isnan(ratios[0, 2])


def test_pure_state_scan_starts_at_unity():
    # for a pure state the cross block is rank one, so the aggregate
    # ratio is exactly 1 before any evolution
    par = ModelParams(gamma=0.4, temperature=temperature_for_nbar(1.0))
    ops = build_operators(par, 30)
    pcfg = LindbladPropagatorConfig(dt_oracle=1e-3, t_end=1.0)
    scan = cat_interval_scan(1.4, ops, pcfg, t_max=5e-3,
                             branch_cell=(0.8, 0.8), h=0.1)
    assert scan.ratios[0] == pytest.approx(1.0, abs=1e-9)
    assert scan.intervals[0] == 0.0
    # t_max must lie within t_end and hold at least one step
    for t_max, t_end, message in ((5e-3, 4e-3, "beyond t_end"),
                                  (0.0, 1.0, "shorter than")):
        with pytest.raises(ConfigError, match=message):
            cat_interval_scan(
                1.4, ops, LindbladPropagatorConfig(dt_oracle=1e-3,
                                                   t_end=t_end),
                t_max=t_max, branch_cell=(0.8, 0.8), h=0.1)


def test_undamped_scan_stays_at_unity():
    par = ModelParams(gamma=1e-12, temperature=1.0)
    ops = build_operators(par, 24)
    pcfg = LindbladPropagatorConfig(dt_oracle=5e-3, t_end=1.0)
    scan = cat_interval_scan(1.2, ops, pcfg, t_max=0.02,
                             branch_cell=(1.0, 1.0), h=0.2)
    assert np.all(np.abs(scan.ratios - 1.0) < 1e-5)
    assert math.isnan(scan.crossing)


def test_decoherence_interval_shrinks_with_separation_squared():
    # frozen pair: doubling the branch separation must cut the
    # decoherence interval by about four
    par = ModelParams(gamma=0.5, temperature=temperature_for_nbar(10.0))
    pcfg = LindbladPropagatorConfig(dt_oracle=1e-3, t_end=1.0)
    small = cat_interval_scan(
        2.0, build_operators(par, 42), pcfg, t_max=0.1,
        branch_cell=(0.9, 0.9), h=0.06)
    large = cat_interval_scan(
        4.0, build_operators(par, 72), pcfg, t_max=0.03,
        branch_cell=(0.9, 0.9), h=0.06)
    assert small.crossing == pytest.approx(0.0347, abs=0.002)
    assert large.crossing == pytest.approx(0.0073, abs=0.001)
    ratio = small.crossing / large.crossing
    assert 2.0 < ratio < 6.0


@pytest.mark.parametrize("n_fock", [11, 12])
@pytest.mark.parametrize("n_steps, t_max", [(1, 0.3), (2, 0.5)])
def test_scan_band_norm_is_the_dense_block_norm(warm_params, n_fock, n_steps,
                                                t_max):
    # the scan reads ||K[X]||_F from the band layout; the whole cross
    # block, evolved by propagate_matrices, must give the same norm, so
    # no band is dropped or counted twice (band 0, and band N / 2 of an
    # even N)
    ops = build_operators(warm_params, n_fock)
    alpha, w, h = 0.5, 0.4, 0.1
    dt = t_max / n_steps
    pcfg = LindbladPropagatorConfig(dt_oracle=dt, t_end=t_max)
    scan = cat_interval_scan(alpha, ops, pcfg, t_max=t_max,
                             branch_cell=(w, w), h=h)
    cat = cat_state(ops, alpha)
    rho = np.outer(cat, cat.conj())
    plus, minus = (cell_projector(PhaseCell(center=s * alpha, w_re=w,
                                            w_im=w, h=h), ops)
                   for s in (1.0, -1.0))
    cross = plus @ rho @ minus
    # counting either band twice would move the norm by far more than
    # the 1e-12 allowed below
    for k in (0, n_fock // 2):
        assert (np.linalg.norm(np.diagonal(cross, k))
                > 1e-5 * np.linalg.norm(cross))
    scale = math.sqrt(np.trace(plus @ rho @ plus).real
                      * np.trace(minus @ rho @ minus).real)
    assert len(scan.ratios) == n_steps + 1
    want = [np.linalg.norm(cross) / scale]
    for _ in range(n_steps):
        cross = propagate_matrices(cross, ops, dt)
        want.append(np.linalg.norm(cross) / scale)
    assert np.abs(scan.ratios - want).max() <= 1e-12 * max(want)


def test_oracle_paths_load_no_scipy():
    # the propagator is built in numpy, so propagating, the decoherence
    # functional and the interval scan never import scipy
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = """
import sys
import numpy as np
import qsdsim as q
ops = q.build_operators(q.ModelParams(gamma=0.3, temperature=1.0), 20)
psi = q.coherent_state(ops, 0.7)
rho0 = np.outer(psi, psi.conj())
pcfg = q.LindbladPropagatorConfig(dt_oracle=0.1, t_end=0.4)
q.propagate(rho0, ops, pcfg)
cells = (q.PhaseCell(center=0.7, w_re=0.8, w_im=0.8, h=0.1),)
q.decoherence_functional(
    q.HistorySpec(times=(0.0, 0.4), cells=(cells, cells), rho0=rho0),
    ops, pcfg)
q.cat_interval_scan(1.0, ops, pcfg, t_max=0.4, branch_cell=(0.8, 0.8),
                    h=0.1)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
