"""Experiment driver.

Each subcommand reads a JSON config, runs one experiment family, writes
CSV/JSON outputs plus a manifest and a gnuplot stub into the output
directory, and exits 0 only when the experiment's own pass condition
holds.  Exit codes: 0 pass, 1 assertion fail, 2 config error,
3 numerical error.

The keys of a config and the JSON kind of each value are listed in
CONFIG_KEYS below and checked by check_config when the config is
loaded; the ranges of the values are checked by the dataclasses and
commands that read them, in each command's config stage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .constants import (CHI2_MIN_EXPECTED, CHI2_MIN_P,
                        DECORRELATION_TIME_FACTOR, LATE_FRACTION, SHAPE_TOL,
                        SIGMA_BAND, SUPPRESSION_THRESHOLD,
                        CONTROL_SUPPRESSION_MIN)
from .errors import ConfigError, SimulationError
from .model import ModelParams, build_operators, temperature_for_nbar
from .observables import (CSV_COLUMNS, chi2_sf, fit_exponential_decay,
                          write_bundle_csv)
from .oracle import LindbladPropagatorConfig, propagate_matrices
from .qsd import IntegratorConfig, check_seed, run_trajectory, stepping_loop
from .ensemble import (EnsembleConfig, InitialStateSpec, run_ensemble,
                       trace_distance, write_stats_csv)
from .histories import (HistorySpec, PhaseCell, classical_peaking_report,
                        decoherence_functional, write_decoherence_json,
                        write_suppression_csv)

# The JSON kind of each config key: a type name, a one-item list for an
# array of that kind, or a dict for an object.  A "complex" is a number
# or an [re, im] pair.  Ranges are checked where the values are read, by
# the dataclasses and the commands, not here.
_CELL = {"center": "complex", "w_re": "number", "w_im": "number"}
CONFIG_KEYS = {
    "params": dict.fromkeys(("m", "omega", "gamma", "temperature", "nbar",
                             "hbar", "k_B"), "number"),
    "fock": {"n_fock": "integer"},
    "integrator": {"dt": "number", "t_end": "number", "seed": "integer",
                   "record_stride": "integer"},
    "ensemble": {"m": "integer", "base_seed": "integer"},
    "initial": {"kind": "string", "alpha": "complex", "n": "integer",
                "phase": "number", "amplitudes": ["complex"]},
    # cat separations d = 2|alpha| in units of the coherent label
    "localize": {"separations": ["number"]},
    "thermalize": {"max_n": "integer"},
    "histories": {"times": ["number"], "cells": [_CELL], "h": "number",
                  "dt_oracle": "number", "include_complement": "boolean",
                  "control": "boolean"},
}
# Keys that an object of CONFIG_KEYS must hold; the others may be left
# out.  No key name is required in one object and optional in another.
REQUIRED_KEYS = {"params", "fock", "m", "omega", "gamma", "n_fock", "dt",
                 "t_end", "kind", "times", "cells", "h", "dt_oracle", *_CELL}
# bool is not an int here, and an int for a number must fit a float
_TYPES = {"number": (int, float), "complex": (int, float), "integer": (int,),
          "boolean": (bool,), "string": (str,)}

# Config sections each subcommand reads beyond params and fock.
REQUIRED_SECTIONS = {
    "stationary": ("integrator",),
    "localize": ("integrator", "ensemble", "initial"),
    "thermalize": ("integrator", "ensemble", "initial"),
    "oracle-compare": ("integrator", "ensemble", "initial"),
    "histories": ("histories", "initial"),
}

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1])
    return complex(value)


def check_config(value, kind=CONFIG_KEYS, path: str = "") -> None:
    """Refuse a value not of its JSON kind and an object with an unknown
    or a missing key, naming the key path."""
    if isinstance(kind, dict):
        where = path or "config"
        if type(value) is not dict:
            raise ConfigError(f"{where}: {value!r} is not of type 'object'")
        for key in value:
            if key not in kind:
                raise ConfigError(f"{where}: unknown key {key!r}")
        for key in kind:
            if key in REQUIRED_KEYS and key not in value:
                raise ConfigError(f"{where}: {key!r} is a required key")
        for key, item in value.items():
            check_config(item, kind[key], f"{path}.{key}" if path else key)
    elif isinstance(kind, list):
        if type(value) is not list:
            raise ConfigError(f"{path}: {value!r} is not of type 'array'")
        for i, item in enumerate(value):
            check_config(item, kind[0], f"{path}[{i}]")
    elif kind == "complex" and type(value) is list and len(value) == 2:
        check_config(value, ["number"], path)
    elif type(value) not in _TYPES[kind]:
        raise ConfigError(f"{path}: {value!r} is not of type '{kind}'")
    elif kind != "integer" and type(value) is int \
            and abs(value) > sys.float_info.max:
        raise ConfigError(f"{path}: {value} is too large for a float")


def load_config(path: Path) -> dict:
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    # a JSONDecodeError, or an integer literal of over 4300 digits
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    check_config(cfg)
    return cfg


@contextmanager
def config_stage():
    """Report a SimulationError raised while a command builds and checks
    everything it takes from its config as a ConfigError, so a bad
    value exits 2, not 3."""
    try:
        yield
    except ConfigError:
        raise
    except SimulationError as exc:
        raise ConfigError(str(exc)) from exc


def _model(cfg: dict):
    """(params, operators) of the params and fock sections."""
    sec = dict(cfg["params"])
    if ("temperature" in sec) == ("nbar" in sec):
        raise ConfigError("params needs exactly one of temperature, nbar")
    nbar = sec.pop("nbar", None)
    params = ModelParams(**sec)
    if nbar is not None:
        params = replace(params, temperature=temperature_for_nbar(nbar,
                                                                  params))
    return params, build_operators(params, cfg["fock"]["n_fock"])


def _initial(section: dict) -> InitialStateSpec:
    sec = dict(section)
    if "alpha" in sec:
        sec["alpha"] = _as_complex(sec["alpha"])
    sec["amplitudes"] = tuple(map(_as_complex, sec.get("amplitudes", ())))
    return InitialStateSpec(**sec)


def _ensemble(cfg: dict, ops) -> EnsembleConfig:
    """The ensemble settings; their initial state is built once as a check.

    Trajectory k is seeded from ensemble.base_seed and k alone, so an
    integrator.seed, which would be ignored, is refused.
    """
    if "seed" in cfg["integrator"]:
        raise ConfigError("the ensemble commands do not read "
                          "integrator.seed; set ensemble.base_seed")
    ecfg = EnsembleConfig(**{"base_seed": 0, **cfg["ensemble"]},
                          integrator=IntegratorConfig(**cfg["integrator"]),
                          initial=_initial(cfg["initial"]))
    ecfg.initial.build(ops)
    return ecfg


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Holds common plumbing: output dir, config, manifest, gnuplot stub."""

    def __init__(self, args):
        self.args = args
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path = Path(args.config)
        self.cfg = load_config(self.config_path)
        missing = [name for name in REQUIRED_SECTIONS[args.command]
                   if name not in self.cfg]
        if missing:
            raise ConfigError(f"{args.command} needs the config sections "
                              f"{', '.join(missing)}")
        if args.seed is not None:
            # the one seed the command reads
            name, key = (("ensemble", "base_seed")
                         if "ensemble" in REQUIRED_SECTIONS[args.command]
                         else ("integrator", "seed"))
            if name in self.cfg:
                self.cfg[name][key] = args.seed
        self.started = time.monotonic()
        self.outputs: list[str] = []
        self.checks: list[tuple[str, bool]] = []

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.out / name

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def finish(self) -> int:
        command = self.args.command
        manifest = {
            "command": command,
            "config": self.config_path.name,
            "config_sha256": _sha256(self.config_path),
            "versions": {
                "package": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            # the compiled loop's body on this CPU, for the commands
            # that step trajectories
            "stepping_loop": (stepping_loop() if "integrator"
                              in REQUIRED_SECTIONS[command] else None),
            "seed_override": self.args.seed,
            "wall_time_s": round(time.monotonic() - self.started, 3),
            "outputs": self.outputs,
            "checks": [{"label": lbl, "passed": ok}
                       for lbl, ok in self.checks],
            "passed": self.passed,
        }
        with open(self.out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        return EXIT_PASS if self.passed else EXIT_FAIL

    def gnuplot_stub(self, csv_name: str, columns: dict[str, int],
                     title: str) -> None:
        lines = [
            "# gnuplot stub; run: gnuplot plot.gp",
            "set datafile separator comma",
            "set key autotitle columnhead",
            "set grid",
            f'set title "{title}"',
            'set xlabel "t"',
            "plot " + ", \\\n     ".join(
                f'"{csv_name}" using 1:{idx} with lines title "{name}"'
                for name, idx in columns.items()),
        ]
        with open(self.out / "plot.gp", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        self.outputs.append("plot.gp")


def cmd_stationary(run: Runner) -> int:
    with config_stage():
        params, ops = _model(run.cfg)
        icfg = IntegratorConfig(**run.cfg["integrator"])
        psi0 = _initial(run.cfg.get("initial", {"kind": "coherent",
                                                "alpha": 1.0})).build(ops)
        if run.args.expect_fail and icfg.sample_times.size < 2:
            raise ConfigError("--expect-fail needs at least two samples; "
                              "lower record_stride")
    record = run_trajectory(psi0, ops, icfg)
    write_bundle_csv(run.path("trajectory.csv"), record.bundles)
    run.gnuplot_stub("trajectory.csv",
                     {name: CSV_COLUMNS.index(name) + 1
                      for name in ("Q", "P", "delta_alpha_sq")}, "shape drift")

    b = record.bundles
    # Q labels the position excess, P the momentum excess
    diags = {
        "max|Q|": np.max(np.abs(b.excess_q)),
        "max|P|": np.max(np.abs(b.excess_p)),
        "max|R|/hbar": np.max(np.abs(b.R)) / params.hbar,
        "max_dalpha2": np.max(b.delta_alpha_sq),
    }
    if run.args.expect_fail:
        # a non-coherent start must break shape early, then localize
        series = np.stack([np.abs(b.excess_q), np.abs(b.excess_p),
                           np.abs(b.R) / params.hbar, b.delta_alpha_sq])
        worst = series.max(axis=0)
        half = worst.size // 2
        run.check("shape broken early (some diagnostic > "
                  f"{SHAPE_TOL} in first half)",
                  float(worst[:half].max()) > SHAPE_TOL)
        run.check("diagnostics decay below threshold by the end",
                  float(worst[-1]) < SHAPE_TOL)
    else:
        for name, value in diags.items():
            run.check(f"{name} = {value:.4g} < {SHAPE_TOL}",
                      value < SHAPE_TOL)
    return run.finish()


def _localize_rate(ecfg, ops, tag, run):
    stats = run_ensemble(ecfg, ops)
    write_stats_csv(run.path(f"localize_{tag}.csv"), stats)
    fit = fit_exponential_decay(stats.times,
                                stats.means["delta_alpha_sq"],
                                stats.stderrs["delta_alpha_sq"])
    return stats, fit


def cmd_localize(run: Runner) -> int:
    with config_stage():
        params, ops = _model(run.cfg)
        ecfg = _ensemble(run.cfg, ops)
        initial = ecfg.initial
        if initial.kind not in ("fock", "cat"):
            raise ConfigError("localize expects a fock or cat initial state")
        sweep = run.cfg.get("localize", {})
        if "separations" in sweep and initial.kind != "cat":
            raise ConfigError("localize.separations sweeps cat starts; "
                              f"the initial state is {initial.kind}")
        separations = sweep.get("separations", [])
        if "separations" in sweep and not separations:
            raise ConfigError("localize.separations needs at least one entry")
        # nan passes here and is refused as non-finite by its state
        for d in separations:
            if d <= 0:
                raise ConfigError(f"localize.separations: {d} is less than "
                                  "or equal to the minimum of 0")
        # one cat start per separation, each built once as a check, so
        # a bad separation is refused before any ensemble runs
        specs = [InitialStateSpec(kind="cat", alpha=d / 2.0,
                                  phase=initial.phase) for d in separations]
        for spec in specs:
            spec.build(ops)
    bound = 2.0 * params.gamma * (params.nbar + 0.5)
    report: dict = {"rate_bound": bound}

    if separations:
        rates = []
        for d, spec in zip(separations, specs):
            _, fit = _localize_rate(replace(ecfg, initial=spec), ops,
                                    f"d{d:g}", run)
            rates.append({"separation": d, "rate": fit.rate,
                          "ci95": fit.ci95})
            print(f"d={d:g}: rate {fit.rate:.4f} +- {fit.ci95:.4f}")
        report["sweep"] = rates
        for lo, hi in zip(rates, rates[1:]):
            expected = (hi["separation"] / lo["separation"]) ** 2
            ratio = hi["rate"] / lo["rate"]
            run.check(
                f"rate ratio d={hi['separation']:g}/{lo['separation']:g}"
                f" = {ratio:.2f} within 50% of {expected:g}",
                abs(ratio - expected) <= 0.5 * expected)
    else:
        stats, fit = _localize_rate(ecfg, ops, "main", run)
        report["rate"] = fit.rate
        report["ci95"] = fit.ci95
        if params.gamma == 0.0:
            series = stats.means["delta_alpha_sq"]
            drift = abs(series[-1] - series[0]) / max(series[0], 1e-12)
            run.check(f"no decay at gamma=0 (relative drift {drift:.3f})",
                      drift < 0.1)
        else:
            run.check(
                f"fitted rate {fit.rate:.4f} +- {fit.ci95:.4f} >= "
                f"bound {bound:.4f} within 95% interval",
                fit.rate + fit.ci95 >= bound)
    with open(run.path("localize_report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    run.gnuplot_stub(run.outputs[0], {"delta_alpha_sq mean": 3},
                     "localization decay")
    return run.finish()


def cmd_thermalize(run: Runner) -> int:
    with config_stage():
        params, ops = _model(run.cfg)
        ecfg = _ensemble(run.cfg, ops)
        icfg = ecfg.integrator
        if params.gamma * icfg.t_end < 10.0:   # also refuses gamma = 0
            raise ConfigError("thermalize needs t_end >= 10/gamma")
        times = icfg.sample_times
        if times.size < 2:
            raise ConfigError("thermalize needs at least two samples; "
                              "lower record_stride")
        late = times >= (1.0 - LATE_FRACTION) * times[-1]
        max_n = run.cfg.get("thermalize", {}).get("max_n", 6)
        if not 1 <= max_n < ops.n_fock:
            raise ConfigError(f"thermalize.max_n must be from 1 to n_fock - "
                              f"1 = {ops.n_fock - 1}, got {max_n}")
        nbar = params.nbar
        if nbar > 0.0:
            # chi-square against the thermal law on decorrelated late
            # snapshots, sized before any trajectory runs
            stride_t = DECORRELATION_TIME_FACTOR / params.gamma
            step = max(1, int(round(stride_t
                                    / (icfg.record_stride * icfg.dt))))
            rows = np.flatnonzero(late)[::step]
            m_eff = ecfg.m * rows.size
            expected_p = np.array([nbar ** n / (1 + nbar) ** (n + 1)
                                   for n in range(max_n + 1)])
            expected = expected_p * m_eff
            if np.any(expected < CHI2_MIN_EXPECTED):
                raise ConfigError("expected counts below "
                                  f"{CHI2_MIN_EXPECTED:g}; raise M or "
                                  "lower max_n")
    stats = run_ensemble(ecfg, ops)
    write_stats_csv(run.path("thermalize.csv"), stats)
    run.gnuplot_stub("thermalize.csv", {"mean": 3}, "occupation relaxation")

    n_mean = stats.means["n_mean"]
    n_err = stats.stderrs["n_mean"]
    if nbar == 0.0:
        fit = fit_exponential_decay(times, n_mean, n_err)
        ok_rate = abs(fit.rate - params.gamma) <= max(fit.ci95,
                                                      0.25 * params.gamma)
        run.check(f"T=0 decay rate {fit.rate:.4f} ~ gamma "
                  f"{params.gamma:g}", ok_rate)
        run.check(f"final occupation {n_mean[-1]:.2e} < 0.01",
                  n_mean[-1] < 0.01)
        return run.finish()

    late_mean = float(n_mean[late].mean())
    late_err = float(np.mean(n_err[late]))
    run.check(
        f"late mean occupation {late_mean:.4f} = nbar {nbar:g} within "
        f"{SIGMA_BAND:g} stderr ({late_err:.4f})",
        abs(late_mean - nbar) <= SIGMA_BAND * late_err)

    occ = stats.occupation[rows].mean(axis=0)
    observed = occ[:max_n + 1] * m_eff
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    p_value = chi2_sf(chi2, max_n)
    with open(run.path("occupation_histogram.csv"), "w") as fh:
        fh.write("n,observed_fraction,thermal_fraction\n")
        for n in range(max_n + 1):
            fh.write(f"{n},{float(occ[n])!r},{float(expected_p[n])!r}\n")
    run.check(f"occupation chi-square p = {p_value:.3f} > {CHI2_MIN_P}",
              p_value > CHI2_MIN_P)
    return run.finish()


def cmd_oracle_compare(run: Runner) -> int:
    with config_stage():
        _, ops = _model(run.cfg)
        ecfg = _ensemble(run.cfg, ops)
        icfg, m = ecfg.integrator, ecfg.m
        t_end = icfg.t_end
        runs = []
        for label, mm, dd in (("M", m, icfg.dt), ("4M", 4 * m, icfg.dt),
                              ("4M_dt/2", 4 * m, icfg.dt / 2.0)):
            # sampled at t = 0 and t_end only
            ic = replace(icfg, dt=dd, record_stride=max(1, round(t_end / dd)))
            runs.append((label, replace(ecfg, m=mm, integrator=ic,
                                        rho_times=(t_end,))))
    psi0 = ecfg.initial.build(ops)
    oracle_rho = propagate_matrices(np.outer(psi0, psi0.conj()), ops, t_end)
    dists = [trace_distance(run_ensemble(rcfg, ops).rhos[0], oracle_rho)
             for _, rcfg in runs]
    with open(run.path("oracle_compare.csv"), "w") as fh:
        fh.write("label,m,dt,trace_distance\n")
        for (label, rcfg), dist in zip(runs, dists):
            fh.write(f"{label},{rcfg.m},{float(rcfg.integrator.dt)!r},"
                     f"{float(dist)!r}\n")
    d_m, d_4m, d_half = dists
    # an ensemble that matches the oracle exactly (no bath, a Fock
    # start) has nothing to halve: the ratio is nan and the check fails
    ratio = d_m / d_4m if d_4m > 0 else math.nan
    run.check(f"distance halves when M quadruples: ratio {ratio:.2f} "
              "in [1.4, 2.6]", 1.4 <= ratio <= 2.6)
    run.check(f"distance falls when dt halves: {d_half:.4g} < {d_4m:.4g}",
              d_half < d_4m)
    return run.finish()


def cmd_histories(run: Runner) -> int:
    sec = run.cfg["histories"]
    with config_stage():
        _, ops = _model(run.cfg)
        psi0 = _initial(run.cfg["initial"]).build(ops)
        cells = tuple(PhaseCell(**c | {"center": _as_complex(c["center"]),
                                       "h": sec["h"]}) for c in sec["cells"])
        for cell in cells:
            cell.check(ops.n_fock)
        spec = HistorySpec(times=tuple(sec["times"]),
                           cells=tuple(cells for _ in sec["times"]),
                           rho0=np.outer(psi0, psi0.conj()),
                           **{k: v for k, v in sec.items()
                              if k == "include_complement"})
        pcfg = LindbladPropagatorConfig(dt_oracle=sec["dt_oracle"],
                                        t_end=max(sec["times"]))
    dmat = decoherence_functional(spec, ops, pcfg)
    write_decoherence_json(run.path("decoherence.json"), dmat, spec)
    write_suppression_csv(run.path("suppression.csv"), dmat)
    report = classical_peaking_report(dmat, spec, ops)
    with open(run.path("peaking_report.json"), "w") as fh:
        json.dump(report.as_dict(), fh, indent=2)
        fh.write("\n")

    ratios, valid = dmat.suppression()
    off = ratios[valid]
    worst = float(off.max()) if off.size else 0.0
    if sec.get("control", False):
        run.check(f"control keeps coherence: max suppression ratio "
                  f"{worst:.3f} > {CONTROL_SUPPRESSION_MIN}",
                  worst > CONTROL_SUPPRESSION_MIN)
    else:
        run.check(f"max off-diagonal suppression ratio {worst:.3f} < "
                  f"{SUPPRESSION_THRESHOLD}",
                  worst < SUPPRESSION_THRESHOLD)
    return run.finish()


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdsim",
        description="stochastic pure-state simulator for a damped "
                    "harmonic oscillator in a thermal bath")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config path")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config's seed: ensemble.base_seed "
                             "for the ensemble commands, else "
                             "integrator.seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stationary", parents=[common],
                       help="single-trajectory coherent shape preservation")
    p.add_argument("--expect-fail", action="store_true",
                   help="pass iff the shape breaks early and then decays")
    p.set_defaults(func=cmd_stationary)
    sub.add_parser("localize", parents=[common],
                   help="ensemble localization rate vs the analytic bound"
                   ).set_defaults(func=cmd_localize)
    sub.add_parser("thermalize", parents=[common],
                   help="relaxation to the thermal occupation law"
                   ).set_defaults(func=cmd_thermalize)
    sub.add_parser("oracle-compare", parents=[common],
                   help="ensemble density matrix against the deterministic "
                        "propagator").set_defaults(func=cmd_oracle_compare)
    sub.add_parser("histories", parents=[common],
                   help="decoherence functional over phase-space cells"
                   ).set_defaults(func=cmd_histories)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.seed is not None:
            with config_stage():
                check_seed("--seed", args.seed)
        return args.func(Runner(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
