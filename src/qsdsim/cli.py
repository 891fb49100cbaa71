"""Experiment driver.

Each subcommand reads a JSON config, runs one experiment family, writes
CSV/JSON outputs plus a manifest into the output directory, and exits 0
only when the experiment's own pass condition holds.  stationary,
localize and thermalize also write a gnuplot stub, plot.gp.  Every CSV
is written by Runner.write_csv and every JSON file by Runner.write_json,
both through Runner._write, which reports a file it cannot write as a
config error.  Exit codes: 0 pass, 1 assertion fail, 2 config error, 3
numerical error.

The keys of a config and the JSON kind of each value are listed in
CONFIG_KEYS below and checked by check_config when the config is
loaded; the ranges of the values are checked by the dataclasses and
commands that read them, in each command's config stage.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
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
from .observables import STAT_FIELDS, bundle_arrays, chi2_sf, \
    fit_exponential_decay
from .oracle import LindbladPropagatorConfig, propagate_matrices
from .qsd import IntegratorConfig, check_seed, run_trajectory, stepping_loop
from .ensemble import (EnsembleConfig, InitialStateSpec, run_ensemble,
                       trace_distance)
from .histories import (HistorySpec, PhaseCell, classical_peaking_report,
                        decoherence_functional)

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


def _pair(z) -> list | None:
    """A complex number as the [re, im] pair _as_complex reads; None
    stays None."""
    return None if z is None else [float(z.real), float(z.imag)]


def _history_label(label) -> str:
    """A history string, its cell index per time joined by dots, with r
    for the complement: (0, -1) is "0.r"."""
    return ".".join("r" if i < 0 else str(i) for i in label)


# The output column of each diagnostic field: the position excess is
# the Q column, the momentum excess the P column.
_COLUMN_NAMES = {f: {"excess_q": "Q", "excess_p": "P"}.get(f, f)
                 for f in STAT_FIELDS}


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


class Runner:
    """Holds common plumbing: output dir, config, the writers of every
    output file, manifest, gnuplot stub."""

    def __init__(self, args):
        self.args = args
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
        # made once the config is loaded, so a refused one leaves none
        self.out = Path(args.out)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the output directory "
                              f"{self.out}: {exc}") from exc
        self.started = time.monotonic()
        self.outputs: list[str] = []
        self.headers: dict[str, list[str]] = {}
        self.checks: list[tuple[str, bool]] = []

    def _write(self, name: str, text: str) -> None:
        """Every file of the run is written here, into --out, and listed
        as an output.  An OSError, as when a directory holds the name,
        is a ConfigError naming the file, so the run exits 2."""
        self.outputs.append(name)
        try:
            (self.out / name).write_text(text, newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write the output file "
                              f"{self.out / name}: {exc}") from exc

    def write_csv(self, name: str, columns: dict) -> None:
        """A CSV file of equal-length columns: the header, then one row
        per index; a float is written as its repr, anything else as its
        str."""
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(columns)
        writer.writerows([repr(float(v)) if isinstance(v, float)
                          else str(v) for v in row]
                         for row in zip(*columns.values()))
        self._write(name, text.getvalue())
        self.headers[name] = list(columns)

    def write_json(self, name: str, doc) -> None:
        self._write(name, json.dumps(doc, indent=2) + "\n")

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")

    def finish(self) -> int:
        command = self.args.command
        passed = all(ok for _, ok in self.checks)
        manifest = {
            "command": command,
            "config": self.config_path.name,
            "config_sha256": hashlib.sha256(
                self.config_path.read_bytes()).hexdigest(),
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
            "outputs": list(self.outputs),
            "checks": [{"label": lbl, "passed": ok}
                       for lbl, ok in self.checks],
            "passed": passed,
        }
        self.write_json("manifest.json", manifest)
        return EXIT_PASS if passed else EXIT_FAIL

    def gnuplot_stub(self, csv_names: list[str], columns: tuple[str, ...],
                     title: str) -> None:
        """plot.gp: each named column of each CSV against its first, at
        the column's place in the header written; with several CSVs,
        each curve's title also names its file."""
        curves = [(name, col, f"{col} {name}" if len(csv_names) > 1 else col)
                  for name in csv_names for col in columns]
        lines = [
            "# gnuplot stub; run: gnuplot plot.gp",
            "set datafile separator comma",
            "set key autotitle columnhead",
            "set grid",
            f'set title "{title}"',
            'set xlabel "t"',
            "plot " + ", \\\n     ".join(
                f'"{name}" using 1:{self.headers[name].index(col) + 1} '
                f'with lines title "{label}"' for name, col, label in curves),
        ]
        self._write("plot.gp", "\n".join(lines) + "\n")


def _shape_series(vals, hbar: float) -> np.ndarray:
    """|Q|, |P|, |R|/hbar and (delta alpha)^2 of bundles or of
    bundle_arrays fields, stacked; Q labels the position excess, P the
    momentum excess."""
    return np.stack([np.abs(vals["excess_q"]), np.abs(vals["excess_p"]),
                     np.abs(vals["R"]) / hbar, vals["delta_alpha_sq"]])


def cmd_stationary(run: Runner) -> int:
    """A coherent start must keep its shape.  A start whose shape is off
    by more than SHAPE_TOL must break it early, then localize (the
    paper's global stability), which needs at least two samples."""
    with config_stage():
        params, ops = _model(run.cfg)
        icfg = IntegratorConfig(**run.cfg["integrator"])
        psi0 = _initial(run.cfg.get("initial", {"kind": "coherent",
                                                "alpha": 1.0})).build(ops)
        # the start's shape, as sample 0 measures it
        broken = float(_shape_series(bundle_arrays(psi0[None], ops),
                                     params.hbar).max()) > SHAPE_TOL
        if broken and icfg.sample_times.size < 2:
            raise ConfigError("a start that is not coherent needs at least "
                              "two samples; lower record_stride")
    record = run_trajectory(psi0, ops, icfg)
    run.write_csv("trajectory.csv", {
        "t": record.bundles["t"],
        **{col: record.bundles[f] for f, col in _COLUMN_NAMES.items()}})
    run.gnuplot_stub(["trajectory.csv"], ("Q", "P", "delta_alpha_sq"),
                     "shape drift")

    series = _shape_series(record.bundles, params.hbar)
    if broken:
        worst = series.max(axis=0)
        half = worst.size // 2
        run.check("shape broken early (some diagnostic > "
                  f"{SHAPE_TOL} in first half)",
                  float(worst[:half].max()) > SHAPE_TOL)
        run.check("diagnostics decay below threshold by the end",
                  float(worst[-1]) < SHAPE_TOL)
    else:
        for name, value in zip(("max|Q|", "max|P|", "max|R|/hbar",
                                "max_dalpha2"), series.max(axis=1)):
            run.check(f"{name} = {value:.4g} < {SHAPE_TOL}",
                      value < SHAPE_TOL)
    return run.finish()


def _write_stats(run: Runner, name: str, stats) -> None:
    """One row per sample: t, the mean of each field, then its stderr."""
    run.write_csv(name, {
        "t": stats.times,
        **{col: stats.means[f] for f, col in _COLUMN_NAMES.items()},
        **{f"{col}_stderr": stats.stderrs[f]
           for f, col in _COLUMN_NAMES.items()}})


def _localize_rate(ecfg, ops, tag, run):
    stats = run_ensemble(ecfg, ops)
    _write_stats(run, f"localize_{tag}.csv", stats)
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
    run.write_json("localize_report.json", report)
    # every stats CSV written: one per separation
    run.gnuplot_stub(list(run.headers), ("delta_alpha_sq",),
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
    _write_stats(run, "thermalize.csv", stats)
    run.gnuplot_stub(["thermalize.csv"], ("n_mean",), "occupation relaxation")

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
    run.write_csv("occupation_histogram.csv", {
        "n": range(max_n + 1), "observed_fraction": occ[:max_n + 1],
        "thermal_fraction": expected_p})
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
    labels, cfgs = zip(*runs)
    run.write_csv("oracle_compare.csv", {
        "label": labels, "m": [c.m for c in cfgs],
        "dt": [c.integrator.dt for c in cfgs], "trace_distance": dists})
    d_m, d_4m, d_half = dists
    # an ensemble within round-off of the oracle (no bath, a Fock start)
    # has nothing to halve: the ratio is nan and the check fails
    ratio = d_m / d_4m if d_4m > 1e-12 else math.nan
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
    labels = [_history_label(lab) for lab in dmat.labels]
    run.write_json("decoherence.json", {
        "labels": labels,
        "matrix": [[_pair(z) for z in row] for row in dmat.matrix],
        "times": list(spec.times),
        "cell_areas_hbar": [[c.area_hbar for c in cells_t]
                            for cells_t in spec.cells]})
    ratios, valid = dmat.suppression()
    upper = np.triu(valid)   # each pair once, in row order
    rows, cols = np.nonzero(upper)
    run.write_csv("suppression.csv", {
        "label_a": [labels[i] for i in rows],
        "label_b": [labels[j] for j in cols], "ratio": ratios[upper]})
    report = classical_peaking_report(dmat, spec, ops)
    run.write_json("peaking_report.json", {
        "best_label": _history_label(report.best_label),
        "best_prob": report.best_prob,
        "classical_path": [_pair(z) for z in report.classical_path],
        "center_path": [_pair(z) for z in report.center_path],
        "distances": [d if math.isfinite(d) else None
                      for d in report.distances]})

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

    sub.add_parser("stationary", parents=[common],
                   help="single-trajectory shape preservation, or global "
                        "stability from a non-coherent start"
                   ).set_defaults(func=cmd_stationary)
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
