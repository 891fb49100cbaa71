"""Noise stream, single steps, and whole trajectories.

The one-step tests are the unraveling oracle in miniature: the
ensemble mean of the propagated dyad must reproduce the
density-matrix generator to first order in dt, and the Ito variance
of the norm must match the isometry prediction.
"""

import ctypes
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import StepKernel, dense_operators, draw_noise_block, \
    integrate_reference, lindblad_rhs, numpy_streams, pair_seed, \
    random_states, run_split, stream_state
from qsdsim import qsd
from qsdsim.constants import LOOP_CACHE_KEEP, MAX_SEED, MAX_STEPS, TRAJ_BATCH
from qsdsim.errors import (ConfigError, DimensionError, ParameterError,
                           StepSizeWarning, TrajectoryError)
from qsdsim.model import (ModelParams, build_operators, coherent_state,
                          fock_state, tail_levels, tail_mass,
                          temperature_for_nbar)
from qsdsim.ensemble import EnsembleConfig, InitialStateSpec, run_ensemble
from qsdsim.observables import STAT_FIELDS, _moments, bundle_arrays
from qsdsim.qsd import (IntegratorConfig, check_step_size, run_trajectory,
                        splitmix64, trajectory_seed)

# First outputs of the splitmix64 stream seeded at 0; published test
# vectors for the algorithm, reproduced by successive state increments.
_SPLITMIX_REF = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_vectors():
    gamma = 0x9E3779B97F4A7C15
    for k, want in enumerate(_SPLITMIX_REF):
        assert splitmix64((k * gamma) % 2 ** 64) == want


def test_trajectory_seed_properties():
    seeds = [trajectory_seed(7, k) for k in range(2000)]
    assert len(set(seeds)) == 2000
    assert all(0 <= s < 2 ** 64 for s in seeds)
    # depends only on (base, index)
    assert trajectory_seed(7, 123) == trajectory_seed(7, 123)
    assert trajectory_seed(8, 123) != trajectory_seed(7, 123)
    with pytest.raises(ParameterError):
        trajectory_seed(7, -1)


def test_seed_arrays_equal_int_seeds():
    # splitmix64 and trajectory_seed of a 1-d uint64 array give the int
    # results entry by entry, bit for bit: bases up to MAX_SEED, and
    # indices whose products with the increment and sums with the base
    # wrap past 2**64, which an array does without a warning
    indices = np.array([0, 1, 2, 3, 255, 2 ** 32, 2 ** 63 - 1, 2 ** 63,
                        2 ** 64 - 2, 2 ** 64 - 1], dtype=np.uint64)
    assert splitmix64(indices).tolist() == [splitmix64(int(i))
                                            for i in indices]
    for base in (0, 7, MAX_SEED - 1, MAX_SEED):
        got = trajectory_seed(base, indices)
        assert got.dtype == np.uint64
        assert got.tolist() == [trajectory_seed(base, int(i))
                                for i in indices]


def test_noise_block_matches_single_draws():
    # the frozen stream layout: step k takes four raw normals as
    # (Re dxi1, Im dxi1, Re dxi2, Im dxi2), whatever the block size
    dt = 2e-3
    block = draw_noise_block(np.random.default_rng(99), dt, 16)
    rng = np.random.default_rng(99)
    for k in range(16):
        z = rng.standard_normal(4) * math.sqrt(dt / 2.0)
        assert block[k, 0] == complex(z[0], z[1])
        assert block[k, 1] == complex(z[2], z[3])


def test_noise_moments_quick():
    dt = 1e-3
    n = 200_000
    block = draw_noise_block(np.random.default_rng(1), dt, n)
    for ch in (0, 1):
        xi = block[:, ch]
        assert abs(xi.mean()) < 4.0 * np.sqrt(dt / n)
        assert abs((xi ** 2).mean()) < 4.0 * dt / np.sqrt(n)
        assert abs((np.abs(xi) ** 2).mean() - dt) < 0.01 * dt


def test_integrator_config_validation():
    with pytest.raises(ParameterError):
        IntegratorConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ParameterError):
        IntegratorConfig(dt=1e-3, t_end=1e-4)
    with pytest.raises(ParameterError):
        IntegratorConfig(dt=1e-3, t_end=1.0, record_stride=0)
    assert IntegratorConfig(dt=1e-3, t_end=1.0).n_steps == 1000
    # t_end off the step grid would silently stop at t = 0.9
    with pytest.raises(ConfigError):
        IntegratorConfig(dt=0.3, t_end=1.0)
    with pytest.raises(ParameterError):
        IntegratorConfig(dt=1e-3, t_end=1.0, seed=-1)
    # the loop seeds each stream from one uint64, so 2**64 + 5 is refused
    assert IntegratorConfig(dt=1e-3, t_end=1.0, seed=2 ** 64 - 1).seed \
        == 2 ** 64 - 1
    with pytest.raises(ParameterError, match=r"2\*\*64"):
        IntegratorConfig(dt=1e-3, t_end=1.0, seed=2 ** 64 + 5)
    # a run of more than MAX_STEPS steps is refused up front, before its
    # sample grid is sized
    assert IntegratorConfig(dt=1.0, t_end=float(MAX_STEPS)).n_steps \
        == MAX_STEPS
    for dt in (1.0 / (MAX_STEPS + 1), 1e-300):
        with pytest.raises(ParameterError, match="steps"):
            IntegratorConfig(dt=dt, t_end=1.0)


def test_record_stride_is_bounded_by_max_steps():
    # the loop keeps the stride in a C long, where 2**64 + 1 once
    # wrapped around and overflowed the sample buffer; a stride past
    # MAX_STEPS is refused, and MAX_STEPS itself samples t = 0 alone
    for stride in (2 ** 63, 2 ** 64 + 1, MAX_STEPS + 1):
        with pytest.raises(ParameterError, match="record_stride"):
            IntegratorConfig(dt=1e-3, t_end=1.0, record_stride=stride)
    ops = build_operators(ModelParams(), 8)
    rec = run_trajectory(coherent_state(ops, 0.5), ops,
                         IntegratorConfig(dt=1e-3, t_end=1.0,
                                          record_stride=MAX_STEPS))
    assert rec.times.tolist() == [0.0] and len(rec.bundles) == 1
    # the drift high-water mark covers all 1000 steps, sampled or not
    every = run_trajectory(coherent_state(ops, 0.5), ops,
                           IntegratorConfig(dt=1e-3, t_end=1.0))
    assert rec.norm_drift == every.norm_drift > 0
    assert np.array_equal(rec.final_state, every.final_state)


def test_step_size_warnings():
    par = ModelParams(gamma=0.5, omega=1.0,
                      temperature=temperature_for_nbar(1.0))
    with pytest.warns(StepSizeWarning):
        check_step_size(0.02, par)   # dissipative guard
    with pytest.warns(StepSizeWarning):
        check_step_size(0.06, par)   # oscillatory guard


def _drift_matrix(ops):
    h, l1, l2 = dense_operators(ops)
    out = (-1j / ops.params.hbar) * h
    for l in (l1, l2):
        out = out - 0.5 * (l.conj().T @ l)
    return out


def _expected_step(psi, ops, noise, dt):
    # independent reimplementation of the update rule
    _, *lindblad = dense_operators(ops)
    exp_l = [np.vdot(psi, l @ psi) for l in lindblad]
    dpsi = _drift_matrix(ops) @ psi * dt
    for l, e, xi in zip(lindblad, exp_l, noise):
        dpsi += (np.conj(e) * dt + xi) * (l @ psi)
        dpsi -= (0.5 * abs(e) ** 2 * dt + e * xi) * psi
    return psi + dpsi


def _low_support(dim, top, seed):
    # random state confined to the lowest levels: one step cannot push
    # mass into the guarded tail, and energy-scale dt^2 terms stay small
    psi = random_states(1, dim, seed=seed)[0]
    psi[top:] = 0.0
    return psi / np.linalg.norm(psi)


def test_single_step_formula(ops20):
    psi = _low_support(20, 6, seed=17)
    noise = np.array([0.01 + 0.02j, -0.015 + 0.005j])
    got, norms, _ = StepKernel(ops20).step(psi[None], noise[None], 1e-3)
    want = _expected_step(psi, ops20, noise, 1e-3)
    assert np.allclose(got[0], want, atol=1e-14)
    assert norms[0] == pytest.approx(np.linalg.norm(want), abs=1e-14)


def test_banded_batch_matches_dense_step(warm_params):
    # every row of a batch against the dense reference, with enough
    # levels that the shifted slices reach far from the ends, from a
    # single trajectory up to the ensemble's batch size
    ops = build_operators(warm_params, 40)
    kern = StepKernel(ops)
    dt = 1e-3
    for size in (1, 64, TRAJ_BATCH):
        psis = random_states(size, 40, seed=23 + size)
        noise = draw_noise_block(np.random.default_rng(24 + size), dt, size)
        got, norms, _ = kern.step(psis, noise, dt)
        for b in range(size):
            want = _expected_step(psis[b], ops, noise[b], dt)
            assert np.abs(got[b] - want).max() <= 1e-14
            assert abs(norms[b] - np.linalg.norm(want)) <= 1e-14


def _low_batch(size, dim, top, seed):
    # random rows confined to the lowest `top` levels, as _low_support
    psis = random_states(size, dim, seed=seed)
    psis[:, top:] = 0.0
    return psis / np.linalg.norm(psis, axis=1, keepdims=True)


def _compiled(ops, psis, seeds, cfg):
    """The production driver on a copy of psis, one stream per seed."""
    return qsd._integrate(ops, np.array(psis, dtype=complex),
                          qsd._seed_streams(seeds), cfg, 0,
                          lambda block, moments, step: None)


def _recorder(cfg):
    """A list of (step, batch copy, moments copy) and the on_sample that
    fills it."""
    samples = []

    def on_sample(block, moments, first_step):
        samples.extend((first_step + i * cfg.record_stride, p.copy(),
                        m.copy()) for i, (p, m) in enumerate(zip(block,
                                                                 moments)))

    return samples, on_sample


def _assert_rows_as_alone(samples, alone):
    """Row b of each _recorder sample of a batch equals, bit for bit, the
    sample of row b stepped alone, alone[b] (a _recorder list), up to
    the batch's last sample."""
    for b, own in enumerate(alone):
        _assert_same_samples([(s, p[b:b + 1], m[b:b + 1])
                              for s, p, m in samples], own[:len(samples)])


def _assert_moments_of_states(ops, samples):
    """Each sample's moments, as the loop summed them, against _moments
    of its states, within 1e-13 ||psi||^2 (1 + <n>); a row that is not
    finite, as a poisoned row is sampled at step 0, has a non-finite
    ||psi||^2 in both, where the loop's 0 |psi_0|^2 term of <n> may be
    nan."""
    for _, states, moments in samples:
        with np.errstate(all="ignore"):
            want = _moments(states, ops)
            tol = 1e-13 * (want[:, 0] + want[:, 5])
            close = np.abs(moments - want) <= tol[:, None]
        finite = np.isfinite(states).all(axis=1)
        assert close[finite].all()
        assert not np.isfinite(moments[~finite, 0]).any()
        assert not np.isfinite(want[~finite, 0]).any()


def test_batch_step_equals_rows_stepped_alone(warm_params):
    # a row's run must not depend on the batch it sits in, bit for bit:
    # batches that fill their last lane group of four partly (1, 3, 5,
    # TRAJ_BATCH + 1) or wholly (TRAJ_BATCH) against each row run as a
    # batch of one, over loop calls that end both at samples and at the
    # end of the run, from all 11 samples in one call to one per call
    ops = build_operators(warm_params, 40)
    cfg = IntegratorConfig(dt=1e-3, t_end=1030e-3, record_stride=97)
    psis = _low_batch(TRAJ_BATCH + 1, 40, 20, seed=25)
    seeds = [100 + b for b in range(TRAJ_BATCH + 1)]
    alone = [_compiled(ops, psis[b:b + 1], seeds[b:b + 1], cfg)
             for b in range(TRAJ_BATCH + 1)]
    for size in (1, 3, 5, TRAJ_BATCH, TRAJ_BATCH + 1):
        got, drift = _compiled(ops, psis[:size], seeds[:size], cfg)
        for b in range(size):
            assert np.array_equal(got[b:b + 1], alone[b][0])
        assert drift == max(d for _, d in alone[:size])


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("batch", [1, 4, 8, 13])
@pytest.mark.parametrize("n_fock", [3, 4, 17, 24])
def test_loop_moments_match_numpy_moments(n_fock, batch, stride):
    # the six moments the loop writes beside each sampled row, against
    # _moments of the row within 1e-13 ||psi||^2 (1 + <n>), and bit for
    # bit those of the row stepped alone: a lone row, a whole four- or
    # eight-lane group and a ragged last group, with 3 and 4 levels,
    # where the <a^2> sum has one and two terms.  Random rows whose top
    # tail_levels hold 1e-8 of their mass keep within the tail guard
    # under a cold bath.
    ops = build_operators(ModelParams(gamma=0.2), n_fock)
    psis = random_states(batch, n_fock, seed=n_fock)
    psis[:, n_fock - tail_levels(n_fock):] *= 1e-4
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    cfg = IntegratorConfig(dt=1e-3, t_end=30e-3, record_stride=stride)
    err, _, _, samples, _ = _run_driver(qsd._integrate, ops, psis,
                                        qsd._seed_streams(range(batch)), cfg)
    assert err is None and len(samples) == 30 // stride + 1
    _assert_moments_of_states(ops, samples)
    assert np.abs(samples[-1][2][:, 3:5]).min() > 0   # <a^2> is not 0
    _assert_rows_as_alone(samples, [
        _run_driver(qsd._integrate, ops, psis[b:b + 1],
                    qsd._seed_streams([b]), cfg)[3] for b in range(batch)])


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("batch", [1, 4, 9, 13])
def test_moments_before_a_failure_are_whole(warm_params, batch, stride):
    # row batch // 2 starts with 3e-3 in level 35 of 40 and, drawing
    # from seed 9, leaks past the tail guard at step 13, within one loop
    # call: the samples of every step before it, and no other, are
    # handed over, with the moments of their states, which are those of
    # each row stepped alone
    ops = build_operators(warm_params, 40)
    psis = np.zeros((batch, 40), complex)
    psis[:, 0] = 1.0
    psis[batch // 2, 35] = 3e-3
    seeds = [9 if b == batch // 2 else 100 + b for b in range(batch)]
    cfg = IntegratorConfig(dt=1e-3, t_end=30e-3, record_stride=stride)
    err, _, _, samples, _ = _run_driver(qsd._integrate, ops, psis,
                                        qsd._seed_streams(seeds), cfg)
    assert err[0] == batch // 2 and err[1] == pytest.approx(13e-3)
    assert [s for s, _, _ in samples] == list(range(0, 13, stride))
    _assert_moments_of_states(ops, samples)
    _assert_rows_as_alone(samples, [
        _run_driver(qsd._integrate, ops, psis[b:b + 1],
                    qsd._seed_streams(seeds[b:b + 1]), cfg)[3]
        for b in range(batch)])


def _both_drivers(ops, psis, seeds, cfg, cuts=None):
    """(error, final, drift, samples, streams) of the compiled and numpy
    drivers.

    The compiled driver's streams come from its seeder, the numpy
    driver's from numpy's, and are returned where the next draws start.
    error is (trajectory, time, tail) of a TrajectoryError, else None;
    samples are (step, batch) pairs.  With cuts, both run through
    run_split.
    """
    return [_run_driver(drive, ops, psis, streams(seeds), cfg, cuts)
            for drive, streams in ((qsd._integrate, qsd._seed_streams),
                                   (integrate_reference, numpy_streams))]


def _assert_matches_reference(ops, psis, seeds, cfg, cuts=None):
    """The compiled driver's outputs, checked against the numpy driver's:
    final and sampled states and drift to rounding (its vecdot sums in
    another order), the streams' next states and a failure's row and
    time exactly."""
    compiled, reference = _both_drivers(ops, psis, seeds, cfg, cuts)
    err_c, final_c, drift_c, samples_c, streams_c = compiled
    err_r, final_r, drift_r, samples_r, streams_r = reference
    assert (err_c is None) == (err_r is None)
    if err_c is not None:
        assert err_c[:2] == err_r[:2]
        if math.isnan(err_r[2]):
            assert math.isnan(err_c[2])
        else:
            assert err_c[2] == pytest.approx(err_r[2], rel=1e-12)
    else:
        assert np.abs(final_c - final_r).max() <= 1e-14
        assert abs(drift_c - drift_r) <= 1e-14
        assert np.array_equal(streams_c, streams_r)
    assert [s for s, _, _ in samples_c] == [s for s, _, _ in samples_r]
    for (_, a, _), (_, b, _) in zip(samples_c, samples_r):
        assert np.allclose(a, b, rtol=0, atol=1e-14, equal_nan=True)
    _assert_moments_of_states(ops, samples_c)
    return compiled


def _run_driver(drive, ops, psis, streams, cfg, cuts=None, first_index=0):
    """(error, final, drift, samples, streams) of one driver, as
    _both_drivers gives them, for rows that start at first_index."""
    samples, on_sample = _recorder(cfg)
    err = final = drift = None
    try:
        with np.errstate(all="ignore"):
            if cuts is None:
                final, drift = drive(ops, psis.copy(), streams, cfg,
                                     first_index, on_sample)
            else:
                final, drift = run_split(drive, ops, psis, streams, cfg,
                                         first_index, on_sample, cuts)
    except TrajectoryError as exc:
        err = (exc.trajectory, exc.time, exc.tail_mass)
    return err, final, drift, samples, streams


@given(n_fock=st.integers(2, 48), batch=st.sampled_from([1, 2, 5, 9, 13]),
       seed=st.integers(0, 2 ** 32 - 1), n_steps=st.integers(1, 60),
       stride=st.integers(1, 9),
       poison=st.none() | st.tuples(st.integers(0, 12), st.integers(0, 59)))
def test_compiled_loop_matches_reference(warm_params, n_fock, batch, seed,
                                         n_steps, stride, poison):
    # row by row against the numpy kernel, which draws each row's noise
    # with draw_noise_block, as _assert_matches_reference checks.  Every
    # row of the batch is also that row run alone, bit for bit: a lone
    # row and the last row of 5, 9 or 13 rows where the lane groups
    # leave one go through the one-lane group, the others through wider
    # groups.  poison (row, step) writes a nan into a row after that
    # step; 2 and 3 levels fail the tail guard within a few steps.
    ops = build_operators(warm_params, n_fock)
    psis = _low_batch(batch, n_fock, max(1, n_fock // 2), seed)
    cfg = IntegratorConfig(dt=1e-3, t_end=n_steps * 1e-3,
                           record_stride=stride)
    seeds = [pair_seed(seed, b) for b in range(batch)]
    cuts = {} if poison is None else _state_cuts(
        [(poison[0], poison[1], 0, np.nan)], batch, n_steps)
    compiled = _assert_matches_reference(ops, psis, seeds, cfg, cuts)
    err_c, final_c, drift_c, samples_c, streams_c = compiled
    alone = [_run_driver(qsd._integrate, ops, psis[b:b + 1],
                         qsd._seed_streams(seeds[b:b + 1]), cfg,
                         {step: [(0, level, value)
                                 for row, level, value in entries if row == b]
                          for step, entries in cuts.items()}, b)
             for b in range(batch)]
    if err_c is None:
        assert drift_c == max(a[2] for a in alone)
        for b, (_, final, _, _, streams) in enumerate(alone):
            assert np.array_equal(final_c[b], final[0])
            assert np.array_equal(streams_c[b], streams[0])
    else:
        # the serial rule: earliest step, then the first nan, then the
        # largest tail, then the lowest row
        fails = [a[0] for a in alone if a[0] is not None]
        first = [f for f in fails if f[1] == min(f[1] for f in fails)]
        nans = [f for f in first if math.isnan(f[2])]
        want = nans[0] if nans else max(first, key=lambda f: f[2])
        assert err_c[:2] == want[:2]
        assert err_c[2] == want[2] or math.isnan(err_c[2]) and math.isnan(
            want[2])
    _assert_rows_as_alone(samples_c, [a[3] for a in alone])


def _state_cuts(hits, batch, n_steps):
    """run_split cuts that write hits (row, step, level, value) into rows.

    step is taken modulo n_steps, so every hit lands before the last
    step and makes the next one fail.
    """
    cuts = {}
    for row, step, level, value in hits:
        cuts.setdefault(step % n_steps, []).append((row % batch, level, value))
    return cuts


_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan),
                               complex(0, -np.inf)])


@given(n_fock=st.integers(4, 40), batch=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1), n_steps=st.integers(1, 40),
       stride=st.integers(1, 16), spread=st.booleans(),
       hits=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 39),
                               st.integers(0, 39), _NON_FINITE),
                     min_size=1, max_size=4))
def test_non_finite_rows_fail_closed_like_reference(
        warm_params, n_fock, batch, seed, n_steps, stride, spread, hits):
    # a non-finite amplitude written into a row mid-run makes the row's
    # next step non-finite; both loops must stop at the first failing
    # step and name the same row: the first nan among the failing rows,
    # else the one with the largest tail.  Spread states put mass in the
    # tail, so every row also fails the tail check at the first step.
    ops = build_operators(warm_params, n_fock)
    if spread:
        psis = random_states(batch, n_fock, seed=seed)
    else:
        psis = _low_batch(batch, n_fock, max(2, n_fock // 2), seed)
    cuts = _state_cuts([(r, s, level % n_fock, v) for r, s, level, v in hits],
                       batch, n_steps)
    cfg = IntegratorConfig(dt=1e-3, t_end=n_steps * 1e-3,
                           record_stride=stride)
    compiled, reference = _both_drivers(
        ops, psis, [pair_seed(seed, b) for b in range(batch)], cfg, cuts)
    err_c, err_r = compiled[0], reference[0]
    assert err_c is not None and err_r is not None
    assert err_c[:2] == err_r[:2]
    if math.isnan(err_r[2]):
        assert math.isnan(err_c[2])
    else:
        assert err_c[2] == pytest.approx(err_r[2], rel=1e-12)
    assert err_c[1] <= (min(cuts) + 1) * cfg.dt * (1 + 1e-12)
    assert [s for s, _, _ in compiled[3]] == [s for s, _, _ in reference[3]]
    _assert_moments_of_states(ops, compiled[3])


@given(batch=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
       n_steps=st.integers(1, 40), stride=st.integers(1, 16),
       hits=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 39),
                               st.integers(0, 23), _NON_FINITE),
                     min_size=1, max_size=4))
def test_poisoned_lanes_fail_like_rows_stepped_alone(
        warm_params, batch, seed, n_steps, stride, hits):
    # rows made non-finite mid-run share lane groups with clean rows.
    # The batch raises the failure the serial rule picks from the rows
    # stepped alone: earliest step, then the first nan, then the largest
    # tail, then the lowest row.  Every sample taken before the failure
    # is the row's sample stepped alone, and the clean rows stepped alone
    # are bitwise the rows of the batch run without poison.
    ops = build_operators(warm_params, 24)
    psis = _low_batch(batch, 24, 12, seed)
    cuts = _state_cuts(hits, batch, n_steps)
    poisoned_rows = {row for entries in cuts.values()
                     for row, _, _ in entries}
    cfg = IntegratorConfig(dt=1e-3, t_end=n_steps * 1e-3,
                           record_stride=stride)

    def run(rows, poisoned=True):
        samples, on_sample = _recorder(cfg)
        streams = qsd._seed_streams([pair_seed(seed, b) for b in rows])
        own = {step: [(row - rows.start, level, value)
                      for row, level, value in entries if row in rows]
               for step, entries in cuts.items()} if poisoned else {}
        try:
            with np.errstate(all="ignore"):
                final, _ = run_split(qsd._integrate, ops,
                                     psis[rows.start:rows.stop], streams,
                                     cfg,
                                     rows.start, on_sample, own)
        except TrajectoryError as exc:
            return (exc.trajectory, exc.time, exc.tail_mass), samples
        return final, samples

    alone = [run(range(b, b + 1)) for b in range(batch)]
    fails = [res for res, _ in alone if isinstance(res, tuple)]
    first = min(t for _, t, _ in fails)
    at_first = [f for f in fails if f[1] == first]
    nans = [f for f in at_first if math.isnan(f[2])]
    want = nans[0] if nans else max(at_first, key=lambda f: f[2])
    got, samples = run(range(batch))
    assert isinstance(got, tuple) and got[:2] == want[:2]
    assert got[2] == want[2] or math.isnan(got[2]) and math.isnan(want[2])
    # a row poisoned at step 0 is sampled as written there
    _assert_rows_as_alone(samples, [a[1] for a in alone])
    clean, _ = run(range(batch), poisoned=False)
    for b in range(batch):
        if b not in poisoned_rows:
            assert np.array_equal(alone[b][0][0], clean[b])


@given(n_fock=st.integers(12, 40), batch=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1), n_steps=st.integers(2, 120),
       split=st.integers(1, 119), stride=st.integers(1, 30))
def test_split_run_equals_unsplit_run(warm_params, n_fock, batch, seed,
                                      n_steps, split, stride):
    # a run stopped after any step and continued with the same
    # streams is the run made in one go, bit for bit: states, drift
    # and every sample that falls on the unsplit run's grid
    ops = build_operators(warm_params, n_fock)
    psis = _low_batch(batch, n_fock, n_fock // 3, seed)
    cfg = IntegratorConfig(dt=1e-3, t_end=n_steps * 1e-3,
                           record_stride=stride)
    split = 1 + split % (n_steps - 1)
    runs = []
    for cuts in (None, {split: []}):
        samples, on_sample = _recorder(cfg)
        streams = qsd._seed_streams([pair_seed(seed, b)
                                     for b in range(batch)])
        if cuts is None:
            final, drift = qsd._integrate(ops, psis.copy(), streams, cfg, 0,
                                          on_sample)
        else:
            final, drift = run_split(qsd._integrate, ops, psis, streams,
                                     cfg, 0, on_sample, cuts)
        runs.append((final, drift, {step: (state, moments)
                                    for step, state, moments in samples}))
    (final, drift, whole), (final_s, drift_s, parts) = runs
    assert np.array_equal(final, final_s)
    assert drift == drift_s
    assert [k for k in whole if k <= split] == [k for k in parts
                                                if k <= split]
    for step, (state, moments) in parts.items():
        if step in whole:
            assert np.array_equal(state, whole[step][0])
            assert np.array_equal(moments, whole[step][1])


@given(batch=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
       n_steps=st.integers(1, 300), stride=st.integers(1, 40))
def test_generators_continue_the_noise_stream(warm_params, batch, seed,
                                              n_steps, stride):
    # each row's stream advances by exactly the draw_noise_block stream
    # of its steps, to the state of numpy's PCG64 of its seed after
    # those normals: padded lanes draw nothing, and the samples a call
    # holds do not change the draw
    ops = build_operators(warm_params, 24)
    cfg = IntegratorConfig(dt=1e-3, t_end=n_steps * 1e-3,
                           record_stride=stride)
    seeds = [pair_seed(seed, b) for b in range(batch)]
    streams = qsd._seed_streams(seeds)
    qsd._integrate(ops, _low_batch(batch, 24, 6, seed), streams, cfg, 0,
                   lambda block, moments, step: None)
    for stream, row_seed in zip(streams, seeds):
        ref = np.random.default_rng(row_seed)
        draw_noise_block(ref, cfg.dt, n_steps)
        assert stream_state(stream) == ref.bit_generator.state


@given(seed=st.integers(0, 2 ** 32 - 1),
       n_samples=st.sampled_from([TRAJ_BATCH - 1, TRAJ_BATCH + 1,
                                  2 * TRAJ_BATCH + 1]))
def test_trajectory_samples_match_reference(warm_params, seed, n_samples):
    # run_trajectory at record_stride=1 against the numpy reference, with
    # sample counts on either side of the blocks of TRAJ_BATCH states
    ops = build_operators(warm_params, 20)
    psi0 = coherent_state(ops, 0.6 - 0.3j)
    cfg = IntegratorConfig(dt=1e-3, t_end=(n_samples - 1) * 1e-3, seed=seed)
    rec = run_trajectory(psi0, ops, cfg)
    samples, on_sample = _recorder(cfg)
    final, drift = integrate_reference(
        ops, psi0[None].copy(), numpy_streams([seed]), cfg, 0, on_sample)
    assert [s for s, _, _ in samples] == list(range(n_samples))
    assert np.array_equal(rec.times, cfg.sample_times)
    assert np.array_equal(rec.bundles.t, rec.times)
    assert np.abs(rec.final_state - final[0]).max() <= 1e-14
    assert abs(rec.norm_drift - drift) <= 1e-14
    # the record array starts uninitialized, so every column of every
    # row is checked against the reference; a nan fails the comparison
    assert len(rec.bundles) == n_samples
    want = bundle_arrays(np.array([p[0] for _, p, _ in samples]), ops)
    for f in STAT_FIELDS:
        assert np.abs(rec.bundles[f] - want[f]).max() <= 1e-12, f
    # rows read by attribute, as the README's example reads them
    assert rec.bundles[-1].delta_alpha_sq == rec.bundles.delta_alpha_sq[-1]
    assert [b.t for b in rec.bundles] == rec.times.tolist()


@given(seed=st.integers(0, 2 ** 32 - 1), n_steps=st.integers(1, 700),
       stride=st.integers(1, 9))
def test_single_member_ensemble_equals_trajectory(warm_params, seed,
                                                  n_steps, stride):
    # an m=1 ensemble is run_trajectory with the same seed in every
    # field, whichever blocks of samples the two entry points get
    ops = build_operators(warm_params, 20)
    t_end = n_steps * 1e-3
    last = (n_steps // stride) * stride * 1e-3
    stats = run_ensemble(EnsembleConfig(
        m=1, base_seed=seed,
        integrator=IntegratorConfig(dt=1e-3, t_end=t_end,
                                    record_stride=stride),
        initial=InitialStateSpec(kind="coherent", alpha=0.5 + 0.5j),
        rho_times=(last,), store_series=STAT_FIELDS), ops)
    rec = run_trajectory(coherent_state(ops, 0.5 + 0.5j), ops,
                         IntegratorConfig(dt=1e-3, t_end=t_end,
                                          seed=trajectory_seed(seed, 0),
                                          record_stride=stride))
    assert np.array_equal(stats.final_states[0], rec.final_state)
    assert np.array_equal(stats.times, rec.times)
    for f in STAT_FIELDS:
        assert np.array_equal(stats.means[f], rec.bundles[f]), f
        assert np.array_equal(stats.series[f][0], rec.bundles[f]), f
        assert not stats.stderrs[f].any()


def _loop_built_with(path, *flags):
    """The loop built with flags added to qsd._CFLAGS.

    qsd._build_library builds it and runs its self-check, as it builds
    the library in use.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsd, "_CFLAGS", (*qsd._CFLAGS, *flags))
        qsd._build_library(
            (Path(qsd.__file__).parent / "qsd_step.c").read_bytes(), path)
    return qsd._load_library(path)


def _skip_unless_above_baseline():
    if qsd.stepping_loop()["isa"] == "default":
        pytest.skip("the library in use is built for the baseline target "
                    "already, so there is no second build to compare")


def _loop_outputs(ops, psis, cfg, seeds, cuts):
    """(final, drift, samples, streams) of a clean run and the
    (trajectory, time, tail, samples) of a run poisoned by the run_split
    cuts.  The streams, seeded by the loop in use, are left where the
    next draws start."""
    samples, on_sample = _recorder(cfg)
    streams = qsd._seed_streams(seeds)
    final, drift = qsd._integrate(ops, psis.copy(), streams, cfg, 0,
                                  on_sample)
    clean = final, drift, samples, streams
    samples, on_sample = _recorder(cfg)
    try:
        with np.errstate(all="ignore"):
            run_split(qsd._integrate, ops, psis,
                      qsd._seed_streams([pair_seed(300, b)
                                         for b in range(len(psis))]),
                      cfg, 0, on_sample, cuts)
    except TrajectoryError as exc:
        return clean, (exc.trajectory, exc.time, exc.tail_mass, samples)
    return clean, None


def _assert_same_samples(got, want):
    """Two _recorder lists, equal bit for bit in steps, states and
    moments."""
    assert [s for s, _, _ in got] == [s for s, _, _ in want]
    for (_, a, m), (_, b, n) in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(m, n, equal_nan=True)


def _assert_same_outputs(got, want):
    (final, drift, samples, streams), err = got
    (final_w, drift_w, samples_w, streams_w), err_w = want
    assert np.array_equal(final, final_w)
    assert drift == drift_w
    _assert_same_samples(samples, samples_w)
    assert np.array_equal(streams, streams_w)
    assert err is not None and err_w is not None
    _assert_same_samples(err[3], err_w[3])
    assert err[:2] == err_w[:2]
    assert err[2] == err_w[2] or math.isnan(err[2]) and math.isnan(err_w[2])


def test_baseline_build_equals_production_library(tmp_path, warm_params,
                                                  monkeypatch):
    # the loop built for the x86-64 baseline (SSE2, four- and one-lane
    # groups) steps bit for bit as the library in use, which is built
    # for the host and steps eight-lane groups where it has AVX-512F:
    # rounding must not depend on the instruction set.
    # Nine rows fill an eight-lane group and a lone row on the host, and
    # two four-lane groups and a lone row on the baseline.
    _skip_unless_above_baseline()
    plain = _loop_built_with(tmp_path / "plain.so", "-march=x86-64")
    assert qsd.stepping_loop() in ({"isa": "avx512f", "lanes": [8, 4, 1]},
                                   {"isa": "avx", "lanes": [4, 1]})
    ops = build_operators(warm_params, 40)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.05, record_stride=9)
    psis = _low_batch(9, 40, 20, seed=31)
    cuts = {20: [(2, 1, np.nan), (6, 1, np.nan)]}
    want = _loop_outputs(ops, psis, cfg, range(200, 209), cuts)
    monkeypatch.setattr(qsd, "_compiled_loop", lambda: plain)
    got = _loop_outputs(ops, psis, cfg, range(200, 209), cuts)
    _assert_same_outputs(got, want)
    assert want[1][0] == 2 and want[1][1] == pytest.approx(21e-3)
    assert math.isnan(got[1][2]) and math.isnan(want[1][2])
    assert qsd.stepping_loop() == {"isa": "default", "lanes": [4, 1]}


@pytest.fixture(scope="module")
def narrow_loop(tmp_path_factory):
    # the library in use built without AVX-512F, so with four- and
    # one-lane groups only
    if qsd.stepping_loop()["isa"] != "avx512f":
        pytest.skip("the CPU has no AVX-512F, so the loop steps four-lane "
                    "groups only and there is no second width to compare")
    return _loop_built_with(tmp_path_factory.mktemp("narrow") / "narrow.so",
                            "-mno-avx512f")


@pytest.mark.parametrize("batch", [1, 3, 4, 5, 7, 8, 9, 13, 256])
def test_eight_lane_groups_equal_four_lane_groups(warm_params, narrow_loop,
                                                  monkeypatch, batch):
    # eight-lane groups with a four- or one-lane tail step every row bit
    # for bit as four-lane groups with a one-lane tail: final and
    # sampled states with their moments, drift, the streams' next states
    # and a failure's row, time, tail and the samples before it
    ops = build_operators(warm_params, 40)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.03, record_stride=7)
    psis = _low_batch(batch, 40, 20, seed=batch)
    cuts = {10: [(batch // 2, 3, np.nan)], 20: [(batch - 1, 1, np.nan)]}
    want = _loop_outputs(ops, psis, cfg, range(batch), cuts)
    monkeypatch.setattr(qsd, "_compiled_loop", lambda: narrow_loop)
    assert qsd.stepping_loop() == {"isa": "avx", "lanes": [4, 1]}
    _assert_same_outputs(_loop_outputs(ops, psis, cfg, range(batch), cuts),
                         want)


@pytest.mark.parametrize("cuts, row, step", [
    ({20: [(5, 1, np.nan)]}, 5, 21),                  # eight-lane group
    ({12: [(8, 1, np.nan)]}, 8, 13),                  # lone last row
    ({20: [(3, 1, np.nan)], 12: [(8, 2, np.nan)]}, 8, 13),
    ({15: [(8, 2, np.nan), (2, 1, np.nan)]}, 2, 16),  # first nan row wins
])
def test_nan_lanes_fail_alike_at_both_widths(warm_params, narrow_loop,
                                             monkeypatch, cuts, row, step):
    # nine rows: rows 0-7 share an eight-lane group or two four-lane
    # groups, and row 8 is a one-lane group; a NaN in either names the
    # same row, time and tail at both widths, under the serial rule
    ops = build_operators(warm_params, 40)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.03, record_stride=7)
    psis = _low_batch(9, 40, 20, seed=41)
    want = _loop_outputs(ops, psis, cfg, range(9), cuts)
    monkeypatch.setattr(qsd, "_compiled_loop", lambda: narrow_loop)
    got = _loop_outputs(ops, psis, cfg, range(9), cuts)
    _assert_same_outputs(got, want)
    assert want[1][0] == row and want[1][1] == pytest.approx(step * 1e-3)
    assert math.isnan(want[1][2])


#: Where numpy's ziggurat starts its tail: every draw beyond it is a
#: tail draw.
_ZIGGURAT_R = 3.6541528853610088


def test_inline_sampler_draws_generator_standard_normal():
    # 1e7 normals through qsd_normals, in blocks from one stream the
    # loop seeded, against Generator.standard_normal of the same seed,
    # bit for bit; they include tail draws, and both end in one state
    lib = qsd._compiled_loop()
    ours, ref = qsd._seed_streams([1])[0], np.random.default_rng(1)
    tails = 0
    for _ in range(10):
        got = qsd._normals(lib, ours, 10 ** 6)
        want = ref.standard_normal(10 ** 6)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        tails += np.count_nonzero(np.abs(got) > _ZIGGURAT_R)
    assert tails > 0
    assert stream_state(ours) == ref.bit_generator.state


def test_seeder_starts_numpys_pcg64():
    # the loop's seeder against numpy's SeedSequence -> PCG64: seeds
    # with one and with two 32-bit words of entropy, both ends of each,
    # and 300 random 64-bit seeds start in numpy's (state, inc), and the
    # loop's sampler then draws default_rng(seed)'s normals and leaves
    # the stream in its state
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
             *map(int, np.random.default_rng(19).integers(
                 0, 2 ** 64, 300, dtype=np.uint64))]
    lib = qsd._compiled_loop()
    for stream, seed in zip(qsd._seed_streams(seeds), seeds):
        assert stream_state(stream) == np.random.PCG64(seed).state, seed
        ref = np.random.default_rng(seed)
        got = qsd._normals(lib, stream, 5)
        assert np.array_equal(got.view(np.uint64),
                              ref.standard_normal(5).view(np.uint64)), seed
        assert stream_state(stream) == ref.bit_generator.state, seed
    # a seed outside [0, 2**64) names no stream of the loop
    for seed in (-1, 2 ** 64):
        with pytest.raises(OverflowError):
            qsd._seed_streams([seed])


@pytest.mark.parametrize("batch", [1, 3, 8, 9, 256])
@pytest.mark.parametrize("n_fock", [12, 40])
def test_inline_sampler_steps_as_numpy_sampler(warm_params, n_fock, batch):
    # _integrate, whose inline ziggurat draws each row's normals, against
    # the numpy kernel, whose noise Generator.standard_normal draws, as
    # _assert_matches_reference checks: a clean run, whose streams end
    # in the same states, and a poisoned one.  The 256 rows draw about
    # 2e5 normals, tail draws among them.
    ops = build_operators(warm_params, n_fock)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.2, record_stride=7)
    psis = _low_batch(batch, n_fock, n_fock // 3, seed=batch)
    assert _assert_matches_reference(ops, psis, range(batch), cfg)[0] is None
    err = _assert_matches_reference(ops, psis, range(batch), cfg,
                                    {50: [(batch // 2, 3, np.nan)]})[0]
    assert err[1] == pytest.approx(51e-3)
    if batch == 256:
        draws = np.concatenate([np.random.default_rng(s).standard_normal(
            4 * cfg.n_steps) for s in range(batch)])
        assert np.count_nonzero(np.abs(draws) > _ZIGGURAT_R) > 0


@pytest.mark.parametrize("name, value, flags, tool", [
    # the archive has no such member, which ar does not report by its
    # exit status
    ("_DISTRIBUTIONS_O", "src_distributions_missing.c.o", (), "ar"),
    # the tables stay local symbols, so the link cannot find them
    ("_ZIGGURAT_TABLES", ("ki_missing", "wi_missing", "fi_missing"), (),
     None),
    # the wedge reads the wrong table: the build links, fails its check
    (None, None, ("-Dfi_double=wi_double",), None),
], ids=["missing_member", "local_tables", "wrong_table"])
def test_sampler_without_numpys_tables_fails_closed(tmp_path, monkeypatch,
                                                    name, value, flags,
                                                    tool):
    # a build whose tables cannot be found, or whose normals differ from
    # numpy's, is refused with an error naming the member, numpy's
    # archive and version, and the tool of the failed step, and leaves no
    # library in the cache or in the temporary build directory it made
    # there
    if name is not None:
        monkeypatch.setattr(qsd, name, value)
    monkeypatch.setattr(qsd, "_CFLAGS", (*qsd._CFLAGS, *flags))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.raises(RuntimeError) as exc:
        qsd._compiled_loop.__wrapped__()
    assert str(qsd._NPYRANDOM_A) in str(exc.value)
    assert qsd._DISTRIBUTIONS_O in str(exc.value)
    assert f"(numpy {np.__version__})" in str(exc.value)
    if tool is not None:
        assert str(exc.value).startswith(f"{tool} could not build")
    assert list((tmp_path / "qsdsim").iterdir()) == []


def test_loop_is_built_on_first_use_and_cached(tmp_path, monkeypatch):
    # importing qsdsim and building operators compile nothing; the first
    # trajectory builds one library, named by a hash, in the cache and
    # removes the builds beyond the LOOP_CACHE_KEEP most recent
    cache = tmp_path / "cache"
    (cache / "qsdsim").mkdir(parents=True)
    stale = [f"qsd_step-{i:016d}.so" for i in range(LOOP_CACHE_KEEP)]
    for age, name in enumerate(stale):
        (cache / "qsdsim" / name).write_bytes(b"")
        os.utime(cache / "qsdsim" / name, (1e9 - age, 1e9 - age))
    code = "\n".join([
        "import sys, pathlib, qsdsim",
        "ops = qsdsim.build_operators(qsdsim.ModelParams(), 8)",
        "cache = pathlib.Path(sys.argv[1]) / 'qsdsim'",
        "assert len(list(cache.iterdir())) == int(sys.argv[2])",
        "cfg = qsdsim.IntegratorConfig(dt=1e-3, t_end=1e-2)",
        "qsdsim.run_trajectory(qsdsim.coherent_state(ops, 0.5), ops, cfg)",
    ])
    env = dict(os.environ, XDG_CACHE_HOME=str(cache),
               PYTHONPATH=os.path.dirname(os.path.dirname(qsd.__file__)))
    subprocess.run([sys.executable, "-c", code, str(cache),
                    str(LOOP_CACHE_KEEP)], env=env, check=True)
    names = {p.name for p in (cache / "qsdsim").iterdir()}
    built = names - set(stale)
    assert names - built == set(stale[:-1])
    [first] = built
    assert first.startswith("qsd_step-") and first.endswith(".so")
    # a build for another target keeps the first library: two checkouts
    # or compilers that alternate each find their own
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(qsd, "_target_macros", lambda: b"#define OTHER 1\n")
    monkeypatch.setattr(qsd, "_build_library",
                        lambda source, out: out.write_bytes(b""))
    monkeypatch.setattr(qsd, "_load_library", lambda path: path.name)
    second = qsd._compiled_loop.__wrapped__()
    names = {p.name for p in (cache / "qsdsim").iterdir()}
    assert second != first and {first, second} <= names
    assert len(names) == LOOP_CACHE_KEEP


def test_library_removed_before_loading_is_built_again(tmp_path,
                                                       monkeypatch):
    # another process's new build removes this process's library between
    # its exists() check and its load: the library is built once more.
    # The library to copy is loaded before the cache moves to tmp_path,
    # so a cold process does not build it into tmp_path first.
    built = qsd._compiled_loop()._name
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    builds = []

    def build(source, out):
        builds.append(out)
        shutil.copyfile(built, out)

    def load(path, load=qsd._load_library):
        if len(builds) == 1:
            path.unlink()
        return load(path)

    monkeypatch.setattr(qsd, "_build_library", build)
    monkeypatch.setattr(qsd, "_load_library", load)
    lib = qsd._compiled_loop.__wrapped__()
    assert len(builds) == 2
    assert Path(lib._name).exists()


@pytest.mark.parametrize("flags", [(), ("-march=x86-64",)])
def test_loop_builds_without_warnings(tmp_path, flags):
    # for the host and for the x86-64 baseline
    if flags:
        _skip_unless_above_baseline()
    _loop_built_with(tmp_path / "strict.so", "-Wall", "-Wextra", "-Werror",
                     *flags)


#: Run in a child process by test_loop_is_clean_under_sanitizers: builds
#: the loop with the flags in argv[2:] into $XDG_CACHE_HOME and steps a
#: grid through it and through the library at argv[1], whose outputs,
#: sampled states and their moments included, must agree bit for bit.
#: The grid covers 2, 3 and odd level counts (the <a^2> moment sums no
#: term at 2 levels and one at 3), batches that leave lone rows and
#: partly filled lane groups, strides 1 and 7, rows failing early (2 and
#: 3 levels under the warm bath, after 1 to 20 steps) and rows failing
#: mid-block: a start of 3e-3 in level 35 of 40 leaks past the tail
#: guard after 10 to 24 steps, with samples taken before it.  At stride
#: 1 and 17 or 40 levels, the 301 samples of batches up to 13 rows fill
#: whole sample blocks, so the moments of a block's last sample are
#: written too; at 257 rows each call holds one sample.
_SANITIZED_GRID = """
import hashlib, sys
from pathlib import Path
import numpy as np
from qsdsim import qsd
from qsdsim.errors import TrajectoryError
from qsdsim.model import ModelParams, build_operators, temperature_for_nbar

def grid():
    par = ModelParams(m=1.0, omega=1.0, gamma=0.2,
                      temperature=temperature_for_nbar(0.5))
    digest = hashlib.sha256()
    runs = [(n, b, stride, None) for n in (2, 3, 17, 40)
            for b in (1, 3, 5, 9, 13, 257) for stride in (1, 7)]
    for n, b, stride, weak in runs + [(40, 1, 7, 0), (40, 9, 7, 8),
                                      (40, 9, 7, 2)]:
        ops = build_operators(par, n)
        psis = np.zeros((b, n), complex)
        psis[:, 0] = 1.0
        if weak is not None:
            psis[weak, 35] = 3e-3
        cfg = qsd.IntegratorConfig(dt=1e-3, t_end=(12 if b > 256 else 300)
                                   * 1e-3, record_stride=stride)
        streams = qsd._seed_streams(range(b))
        samples = []
        try:
            out = qsd._integrate(ops, psis, streams, cfg, 0,
                                 lambda block, moments, step:
                                 samples.extend((block.copy(),
                                                 moments.copy())))
        except TrajectoryError as exc:
            assert weak is None or exc.time > stride * cfg.dt
            out = [exc.trajectory, exc.time, exc.tail_mass]
        else:
            assert weak is None
        for a in (*out, streams, *samples):
            digest.update(np.asarray(a).tobytes())
    return digest.hexdigest()

production = qsd._load_library(Path(sys.argv[1]))
qsd._CFLAGS = (*qsd._CFLAGS, *sys.argv[2:])
sanitized = qsd._compiled_loop()
digests = []
for lib in (sanitized, production):
    qsd._compiled_loop = lambda lib=lib: lib
    digests.append(grid())
assert digests[0] == digests[1], digests
"""


def _sanitizer_runtimes():
    """The paths of gcc's ASan and UBSan runtimes, or None if either is
    missing; gcc prints the bare name of a file it cannot find."""
    paths = [subprocess.run([qsd._gcc(), f"-print-file-name={name}"],
                            capture_output=True, text=True).stdout.strip()
             for name in ("libasan.so", "libubsan.so")]
    return paths if all(map(os.path.isabs, paths)) else None


def test_loop_is_clean_under_sanitizers(tmp_path):
    # the loop's pointer arithmetic (padded rows, the scratch that lane
    # groups of every width carve up, sample and moment offsets, lanes
    # past B - 1, streams advanced in place) under AddressSanitizer and
    # UndefinedBehaviorSanitizer: any report aborts the child.  -O0
    # builds in half the time of -O3; the sanitizers check every access
    # of the source at any level, and the rounding does not depend on
    # it.
    runtimes = _sanitizer_runtimes()
    if runtimes is None:
        pytest.skip("gcc has no ASan or UBSan runtime")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               LD_PRELOAD=":".join(runtimes),
               ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.path.dirname(os.path.dirname(qsd.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _SANITIZED_GRID, qsd._compiled_loop()._name,
         "-O0", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    # the child stepped a library of its own build
    assert list((tmp_path / "qsdsim").glob("qsd_step-*.so"))


def test_cache_key_follows_the_host_target(tmp_path, monkeypatch):
    # the library's name hashes the macros gcc predefines for its
    # target, so hosts with different CPUs sharing a cache, or a gcc
    # upgrade, never load a library built for another target
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(qsd, "_build_library",
                        lambda source, out: out.write_bytes(b""))
    monkeypatch.setattr(qsd, "_load_library", lambda path: path.name)
    names = []
    for macros in (b"#define __AVX512F__ 1\n", b"#define __AVX__ 1\n",
                   b"#define __AVX512F__ 1\n"):
        monkeypatch.setattr(qsd, "_target_macros", lambda: macros)
        names.append(qsd._compiled_loop.__wrapped__())
    assert names[0] != names[1]
    assert names[0] == names[2]


def test_missing_compiler_is_a_clear_error(tmp_path, monkeypatch, ops20):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(qsd.shutil, "which", lambda name: None)
    qsd._compiled_loop.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="needs gcc"):
            run_trajectory(coherent_state(ops20, 0.5), ops20,
                           IntegratorConfig(dt=1e-3, t_end=1e-2))
    finally:
        qsd._compiled_loop.cache_clear()


@pytest.mark.parametrize("name", ["_NPYRANDOM_A"])
def test_missing_sampler_is_a_clear_error(tmp_path, monkeypatch, ops20,
                                          name):
    # the loop links numpy's ziggurat tables; without their archive the
    # first stepping call names the missing file, even with a library
    # in the cache, since the cache key hashes it
    missing = tmp_path / "numpy-sampler-missing"
    monkeypatch.setattr(qsd, name, missing)
    qsd._compiled_loop.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=str(missing)):
            run_trajectory(coherent_state(ops20, 0.5), ops20,
                           IntegratorConfig(dt=1e-3, t_end=1e-2))
    finally:
        qsd._compiled_loop.cache_clear()


def test_struct_size_mismatch_is_refused(monkeypatch):
    # a _Segment that no longer matches qsd_step.c's struct segment is
    # refused when the library is loaded, before any call
    class Longer(ctypes.Structure):
        _fields_ = [*qsd._Segment._fields_, ("extra", ctypes.c_long)]

    size = ctypes.sizeof(qsd._Segment)
    monkeypatch.setattr(qsd, "_Segment", Longer)
    with pytest.raises(RuntimeError, match=rf"{size} bytes.*{size + 8}"):
        qsd._load_library(Path(qsd._compiled_loop()._name))


def test_sweep_script_runs():
    # the one script that drives the private _integrate, at a tiny size;
    # 12 levels is the smallest basis that holds its coherent start
    # under the tail guard
    script = Path(__file__).parents[1] / "scripts" / "sweep_traj_batch.py"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qsd.__file__)))
    proc = subprocess.run(
        [sys.executable, str(script), "--n-fock", "12", "--batch", "4",
         "--steps", "10", "--repeat", "1"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "| 12 | " in proc.stdout


def test_step_renormalizes(ops20):
    # the kernel leaves renormalization to the driver: it reports each
    # row's norm and the tail mass relative to the squared norm
    psi = _low_support(20, 6, seed=18)
    noise = np.array([[0.03j, 0.02]])
    got, norms, tails = StepKernel(ops20).step(psi[None], noise, 1e-3)
    assert norms[0] == pytest.approx(np.linalg.norm(got[0]), rel=1e-14)
    assert tails[0] == pytest.approx(tail_mass(got[0]) / norms[0] ** 2,
                                     rel=1e-9)


def test_step_tail_guard(warm_params):
    ops = build_operators(warm_params, 10)
    # all mass on the top level: the first step's tail check must trip
    psi = fock_state(ops, 9)
    with pytest.raises(TrajectoryError) as exc_info:
        run_trajectory(psi, ops, IntegratorConfig(dt=1e-3, t_end=1e-2))
    assert exc_info.value.time == pytest.approx(1e-3)
    assert exc_info.value.trajectory == 0


def test_mean_dyad_reproduces_generator(ops20):
    # E[|psi'><psi'|] = rho + dt L[rho] + O(dt^2) over the noise
    rng = np.random.default_rng(7)
    dt = 1e-3
    n_draws = 40_000
    psi = coherent_state(ops20, 0.7 + 0.2j)
    kern = StepKernel(ops20)
    noise = draw_noise_block(rng, dt, n_draws)
    out, _, _ = kern.step(np.tile(psi, (n_draws, 1)), noise, dt)
    dyads = np.einsum("bi,bj->bij", out, out.conj())
    mean_dyad = dyads.mean(axis=0)
    rho = np.outer(psi, psi.conj())
    target = rho + dt * lindblad_rhs(rho, ops20)
    dev = mean_dyad - target
    # aggregate z-score from the empirical entrywise spread
    stderr_sq = np.var(dyads, axis=0) / n_draws
    z = np.linalg.norm(dev) / np.sqrt(stderr_sq.sum())
    assert z < 4.0


def test_norm_is_martingale_with_gram_variance(ops20):
    # <psi|(L_n - <L_n>)psi> = 0 kills the O(sqrt(dt)) norm noise, so
    # ||psi'||^2 fluctuates only through the quadratic form
    # sum_nm <v_n|v_m> conj(xi_n) xi_m with v_n = (L_n - <L_n>) psi,
    # whose mean shifts by dt Tr(Gram) (cancelled by the drift) and
    # whose variance is dt^2 ||Gram||_F^2.
    rng = np.random.default_rng(8)
    dt = 1e-3
    n_draws = 60_000
    psi = _low_support(20, 6, seed=21)
    kern = StepKernel(ops20)
    noise = draw_noise_block(rng, dt, n_draws)
    out, _, _ = kern.step(np.tile(psi, (n_draws, 1)), noise, dt)
    norms_sq = np.einsum("bi,bi->b", out.conj(), out).real

    vs = [(l @ psi) - np.vdot(psi, l @ psi) * psi
          for l in dense_operators(ops20)[1:]]
    gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
    predicted_var = dt ** 2 * float(np.sum(np.abs(gram) ** 2))

    # exact one-step mean: deterministic part plus dt per noise channel
    det = _expected_step(psi, ops20, (0.0j, 0.0j), dt)
    predicted_mean = (np.linalg.norm(det) ** 2
                      + dt * sum(np.vdot(v, v).real for v in vs))
    mean_se = norms_sq.std() / np.sqrt(n_draws)
    assert abs(norms_sq.mean() - predicted_mean) < 4.0 * mean_se
    # variance of a Gaussian quadratic form concentrates slower than
    # 1/sqrt(n); a 10% band is plenty to catch a wrong noise scale
    assert norms_sq.var() == pytest.approx(predicted_var, rel=0.10)


def test_trajectory_determinism_and_grid(ops20):
    psi0 = coherent_state(ops20, 0.5)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.2, seed=12, record_stride=50)
    rec1 = run_trajectory(psi0, ops20, cfg)
    rec2 = run_trajectory(psi0, ops20, cfg)
    assert np.array_equal(rec1.final_state, rec2.final_state)
    assert np.allclose(rec1.times, np.arange(5) * 0.05, atol=1e-12)
    assert len(rec1.bundles) == 5
    assert rec1.norm_drift == rec2.norm_drift
    assert rec1.seed == 12
    other = run_trajectory(psi0, ops20, IntegratorConfig(
        dt=1e-3, t_end=0.2, seed=13, record_stride=50))
    assert not np.array_equal(rec1.final_state, other.final_state)


def test_trajectory_norm_drift_scale(ops20):
    # the drift before renormalization is O(dt) at every step; catches
    # step bugs
    psi0 = fock_state(ops20, 2)
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, seed=3)
    rec = run_trajectory(psi0, ops20, cfg)
    assert np.linalg.norm(rec.final_state) == pytest.approx(1.0, abs=1e-12)
    assert 0 < rec.norm_drift < 50 * 1e-3


def test_trajectory_coherent_quasi_deterministic():
    # at T = 0 the noise leaves a coherent state almost untouched
    par = ModelParams(gamma=0.3, temperature=0.0)
    ops = build_operators(par, 16)
    rec = run_trajectory(coherent_state(ops, 1.0), ops,
                         IntegratorConfig(dt=1e-3, t_end=1.0, seed=5,
                                          record_stride=100))
    for b in rec.bundles:
        assert abs(b.delta_alpha_sq) < 5e-3


def test_trajectory_tail_abort():
    par = ModelParams(gamma=0.5, temperature=temperature_for_nbar(2.0))
    ops = build_operators(par, 8)
    with pytest.raises(TrajectoryError) as exc_info:
        run_trajectory(fock_state(ops, 0), ops,
                       IntegratorConfig(dt=1e-3, t_end=20.0, seed=0))
    assert exc_info.value.time is not None
    assert exc_info.value.tail_mass > 1e-6


def test_non_finite_initial_state_rejected(ops20):
    psi = coherent_state(ops20, 0.3)
    psi[1] = np.nan
    with pytest.raises(ParameterError):
        run_trajectory(psi, ops20, IntegratorConfig(dt=1e-3, t_end=0.01))


def test_wrong_length_state_rejected(ops20):
    # the compiled loop reads n_fock levels per row; a shorter state
    # must be refused before any pointer reaches it
    with pytest.raises(DimensionError):
        run_trajectory(np.ones(5), ops20,
                       IntegratorConfig(dt=1e-3, t_end=0.01))


@pytest.mark.parametrize("make", [
    lambda s: s.astype(np.int64),
    lambda s: s[:, :3].copy(),
    lambda s: np.asfortranarray(s),
    lambda s: np.lib.stride_tricks.as_strided(s, writeable=False),
], ids=["dtype", "shape", "fortran", "read_only"])
def test_noise_streams_the_loop_cannot_advance_are_refused(ops20, make):
    # the loop writes each row's stream back in place, so streams it
    # could not read as (B, 4) uint64 words or not write are refused
    # before any pointer reaches them
    streams = make(qsd._seed_streams([1, 2]))
    psis = np.stack([coherent_state(ops20, 0.5)] * 2)
    with pytest.raises(DimensionError, match="noise streams"):
        qsd._integrate(ops20, psis, streams,
                       IntegratorConfig(dt=1e-3, t_end=0.01), 0,
                       lambda block, moments, step: None)
