"""Ensemble runner: determinism and statistics."""
import numpy as np
import pytest

from qsdsim import (
    STAT_FIELDS,
    ConfigError,
    DimensionError,
    EnsembleConfig,
    InitialStateSpec,
    IntegratorConfig,
    ModelParams,
    ParameterError,
    TrajectoryError,
    TruncationError,
    build_operators,
    coherent_state,
    run_ensemble,
    run_trajectory,
    temperature_for_nbar,
    trace_distance,
    trajectory_seed,
)
from conftest import density_matrix, run_split, thermal_state
from qsdsim import ensemble, qsd
from qsdsim.constants import MAX_TRAJECTORIES, TRAJ_BATCH


def _cfg(m, *, seed=5, dt=1e-3, t_end=0.5, stride=100, **kw):
    return EnsembleConfig(
        m=m,
        base_seed=seed,
        integrator=IntegratorConfig(dt=dt, t_end=t_end, record_stride=stride),
        initial=InitialStateSpec(kind="coherent", alpha=0.8),
        **kw,
    )


def test_single_member_equals_bare_trajectory(warm_params, ops20):
    # 601 samples cross two edges of the trajectory's TRAJ_BATCH blocks
    # of diagnostics and end inside a third
    stats = run_ensemble(_cfg(1, t_end=4.2, stride=7), ops20)
    solo_cfg = IntegratorConfig(dt=1e-3, t_end=4.2, record_stride=7,
                                seed=trajectory_seed(5, 0))
    rec = run_trajectory(coherent_state(ops20, 0.8), ops20, solo_cfg)
    n_samples = len(rec.bundles)
    assert n_samples > 2 * TRAJ_BATCH and n_samples % TRAJ_BATCH
    assert np.array_equal(stats.final_states[0], rec.final_state)
    assert np.array_equal(stats.times, rec.times)
    assert np.array_equal(stats.times, rec.bundles.t)
    for f in STAT_FIELDS:
        assert np.array_equal(stats.means[f], rec.bundles[f]), f


def test_norm_drift_is_the_largest_over_members(ops20, monkeypatch):
    # one member keeps its trajectory's drift bit for bit; over three
    # batches of one, the ensemble keeps the largest, here the middle one
    def solo(k):
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5, record_stride=100,
                               seed=trajectory_seed(5, k))
        return run_trajectory(coherent_state(ops20, 0.8), ops20,
                              cfg).norm_drift

    drifts = [solo(k) for k in range(3)]
    assert min(drifts) > 0 and len(set(drifts)) == 3
    assert run_ensemble(_cfg(1), ops20).norm_drift == drifts[0]
    assert max(drifts) == drifts[1]
    monkeypatch.setattr(ensemble, "TRAJ_BATCH", 1)
    assert run_ensemble(_cfg(3), ops20).norm_drift == drifts[1]


def test_batch_membership_does_not_change_results(ops20):
    # m = 2 TRAJ_BATCH + 2 straddles two batch boundaries; its first
    # batch must end exactly where an ensemble of one full batch does
    small = run_ensemble(_cfg(TRAJ_BATCH, t_end=0.2, stride=50), ops20)
    large = run_ensemble(_cfg(2 * TRAJ_BATCH + 2, t_end=0.2, stride=50),
                         ops20)
    assert np.array_equal(large.final_states[:TRAJ_BATCH],
                          small.final_states)


@pytest.mark.parametrize("m", [3, 40])
def test_sample_buffer_does_not_change_stats(ops20, monkeypatch, m):
    # the loop hands on blocks of max(1, qsd.TRAJ_BATCH // m) samples:
    # 85 or 6 at the default, so the snapshot at sample 40 of 101 lies
    # inside a block there, and 2 or 1 at a buffer of 7
    cfg = _cfg(m, t_end=0.5, stride=5, rho_times=(0.015, 0.2),
               store_series=STAT_FIELDS)
    ref = run_ensemble(cfg, ops20)
    for buffer in (1, 7):
        monkeypatch.setattr(qsd, "TRAJ_BATCH", buffer)
        stats = run_ensemble(cfg, ops20)
        for name in ("times", "rhos", "rho_times", "final_states"):
            assert np.array_equal(getattr(stats, name),
                                  getattr(ref, name)), (buffer, name)
        for name in ("means", "stderrs", "series"):
            got, want = getattr(stats, name), getattr(ref, name)
            assert got.keys() == want.keys()
            for f in want:
                assert np.array_equal(got[f], want[f]), (buffer, name, f)


def test_single_member_stderrs_are_zero(ops20):
    stats = run_ensemble(_cfg(1, stride=7), ops20)
    for f in STAT_FIELDS:
        assert not stats.stderrs[f].any(), f


def test_initial_state_tail_is_checked_before_stepping():
    # |alpha| = 1 passes check_headroom at 11 levels, but the top
    # tail_levels(11) = 2 levels hold 1.115e-6 of the state
    ops = build_operators(ModelParams(), 11)
    spec = InitialStateSpec(kind="coherent", alpha=1.0)
    with pytest.raises(TruncationError) as exc_info:
        spec.build(ops)
    assert type(exc_info.value) is TruncationError
    assert exc_info.value.tail_mass == pytest.approx(1.115e-6, rel=1e-3)
    with pytest.raises(TruncationError):
        run_ensemble(EnsembleConfig(
            m=2, base_seed=0, initial=spec,
            integrator=IntegratorConfig(dt=1e-3, t_end=0.01)), ops)
    assert spec.build(build_operators(ModelParams(), 12)).shape == (12,)
    # a state on a top level is all tail
    with pytest.raises(TruncationError):
        InitialStateSpec(kind="fock", n=10).build(ops)
    assert InitialStateSpec(kind="fock", n=8).build(ops)[8] == 1.0


def test_negative_base_seed_rejected():
    with pytest.raises(ParameterError):
        _cfg(4, seed=-1)


def test_base_seed_beyond_64_bits_rejected():
    # trajectory_seed would reduce it mod 2**64 into another base_seed
    assert _cfg(4, seed=2 ** 64 - 1).base_seed == 2 ** 64 - 1
    with pytest.raises(ParameterError, match=r"2\*\*64"):
        _cfg(4, seed=2 ** 64)


def test_ensemble_size_is_bounded():
    # run_ensemble would size an (m, n_fock) array of final states by it
    assert _cfg(MAX_TRAJECTORIES).m == MAX_TRAJECTORIES
    for m in (MAX_TRAJECTORIES + 1, 10 ** 30):
        with pytest.raises(ParameterError,
                           match=f"maximum of {MAX_TRAJECTORIES}"):
            _cfg(m)


def test_non_finite_custom_state_rejected(ops20):
    amps = (1.0, float("nan")) + (0.0,) * 18
    cfg = EnsembleConfig(
        m=2, base_seed=1,
        integrator=IntegratorConfig(dt=1e-3, t_end=0.01),
        initial=InitialStateSpec(kind="custom", amplitudes=amps))
    with pytest.raises(ParameterError):
        run_ensemble(cfg, ops20)


def test_non_finite_row_fails_closed(ops20, monkeypatch):
    # make row 3 of the 6-row second batch non-finite after its fourth
    # step: the guard must name that trajectory and the time of its
    # fifth step rather than average a nan.  The batch is stopped there
    # and continued with the same streams.
    integrate = ensemble._integrate
    batches = []

    def poisoned(ops, psis, streams, cfg, first_index, on_sample):
        batches.append((first_index, len(streams)))
        cuts = {4: [(3, 0, np.nan)]} if first_index == TRAJ_BATCH else {}
        return run_split(integrate, ops, psis, streams, cfg, first_index,
                         on_sample, cuts)

    monkeypatch.setattr(ensemble, "_integrate", poisoned)
    with pytest.raises(TrajectoryError) as exc_info:
        run_ensemble(_cfg(TRAJ_BATCH + 6, t_end=0.02, stride=10), ops20)
    assert batches == [(0, TRAJ_BATCH), (TRAJ_BATCH, 6)]
    assert exc_info.value.trajectory == TRAJ_BATCH + 3
    assert exc_info.value.time == pytest.approx(5e-3)


def test_snapshot_density_matrix_properties(ops20):
    cfg = _cfg(16, t_end=0.4, stride=200, rho_times=(0.2, 0.4))
    stats = run_ensemble(cfg, ops20)
    assert len(stats.rhos) == 2
    for rho in stats.rhos:
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_snapshot_times_must_be_sampled(ops20):
    cfg = _cfg(4, rho_times=(0.05,))   # stride 100 samples only 0.0, 0.1, ...
    with pytest.raises(ConfigError):
        run_ensemble(cfg, ops20)
    # a repeated time would need a second snapshot slot
    with pytest.raises(ConfigError):
        run_ensemble(_cfg(4, rho_times=(0.1, 0.2, 0.1)), ops20)


def test_unknown_series_name_rejected():
    with pytest.raises(ConfigError):
        _cfg(4, store_series=("n_mean", "bogus"))


def test_series_consistent_with_means(ops20):
    cfg = _cfg(12, store_series=("n_mean", "R"))
    stats = run_ensemble(cfg, ops20)
    assert stats.series["n_mean"].shape == (12, len(stats.times))
    assert np.allclose(stats.series["n_mean"].mean(axis=0),
                       stats.means["n_mean"], atol=1e-12)
    assert np.allclose(stats.series["R"].mean(axis=0),
                       stats.means["R"], atol=1e-12)


def test_stderr_shrinks_like_root_m(ops20):
    small = run_ensemble(_cfg(32, t_end=0.3, stride=300), ops20)
    big = run_ensemble(_cfg(512, t_end=0.3, stride=300), ops20)
    s, b = small.stderrs["n_mean"][-1], big.stderrs["n_mean"][-1]
    # same-population stderr ratio should be close to sqrt(512/32) = 4
    assert 2.0 < s / b < 8.0


@pytest.mark.parametrize("m", [192, TRAJ_BATCH + 3])
def test_stderr_is_zero_where_every_trajectory_agrees(m):
    # at t=0 every trajectory holds the d=6 cat start of
    # scripts/configs/localize_cat_sweep.json, so every stderr is 0; a
    # one-pass (sum v^2 - (sum v)^2 / m) cancels to 1e-8 here
    params = ModelParams(gamma=0.2, temperature=temperature_for_nbar(5.0))
    stats = run_ensemble(EnsembleConfig(
        m=m, base_seed=42,
        integrator=IntegratorConfig(dt=2.5e-4, t_end=1e-3, record_stride=4),
        initial=InitialStateSpec(kind="cat", alpha=3.0)),
        build_operators(params, 64))
    for f in STAT_FIELDS:
        assert stats.stderrs[f][0] == 0.0, f


def test_density_matrix_of_orthogonal_states(ops20):
    from qsdsim import fock_state
    states = np.stack([fock_state(ops20, 0), fock_state(ops20, 1)])
    rho = density_matrix(states)
    want = np.zeros((20, 20), dtype=complex)
    want[0, 0] = want[1, 1] = 0.5
    assert np.allclose(rho, want, atol=1e-15)


def _dyad_mean(states):
    return sum(np.outer(s, s.conj()) / np.vdot(s, s).real
               for s in states) / len(states)


def test_snapshot_and_density_matrix_match_outer_products(ops20):
    # 13 trajectories, off the Gram sum's slices of 8; the snapshot at
    # t_end is the mean dyad of the final states
    stats = run_ensemble(_cfg(13, t_end=0.4, stride=200, rho_times=(0.4,)),
                         ops20)
    want = _dyad_mean(stats.final_states)
    assert np.abs(stats.rhos[0] - want).max() <= 1e-14 * np.abs(want).max()
    # rows of unequal norm, each normalized first
    rng = np.random.default_rng(3)
    states = ((rng.normal(size=(11, 7)) + 1j * rng.normal(size=(11, 7)))
              * 10.0 ** rng.uniform(-3, 3, size=(11, 1)))
    want = _dyad_mean(states)
    got = density_matrix(states)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("states, error, message", [
    ([[0, 0], [1, 0]], DimensionError, "zero state"),
    ([[np.nan, 0]], ParameterError, "non-finite"),
    ([[1, 0], [np.inf, 1]], ParameterError, "non-finite"),
])
def test_density_matrix_refuses_a_zero_or_non_finite_state(states, error,
                                                         message):
    # refused as normalize refuses it, not averaged into a nan matrix
    with pytest.raises(error, match=message):
        density_matrix(states)


def test_trace_distance_properties(warm_params):
    # nbar = 0.5 needs 22+ levels before the thermal tail clears 1e-10
    ops = build_operators(warm_params, 24)
    rho = thermal_state(warm_params, 24)
    psi = coherent_state(ops, 0.5)
    pure = np.outer(psi, psi.conj())
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    d = trace_distance(rho, pure)
    assert 0.0 < d <= 1.0
    assert trace_distance(pure, rho) == pytest.approx(d, abs=1e-12)
