"""End-to-end driver tests: exit codes, outputs, manifest, determinism.

Every run goes through main(argv) in process.  Configs are small
versions of the real experiments, sized to keep this file fast.
"""
import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import re
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsdsim
import qsdsim.cli
from conftest import thermal_state
from qsdsim import (STAT_FIELDS, ConfigError, EnsembleConfig, HistorySpec,
                    InitialStateSpec, IntegratorConfig,
                    LindbladPropagatorConfig, ModelParams, PhaseCell,
                    build_operators, coherent_state, decoherence_functional,
                    qsd, run_ensemble, run_trajectory, temperature_for_nbar)
from qsdsim.cli import (CONFIG_KEYS, EXIT_CONFIG, EXIT_FAIL, EXIT_NUMERICAL,
                        EXIT_PASS, Runner, _model, check_config, load_config,
                        main, make_parser)
from qsdsim.constants import (MAX_N_FOCK, MAX_SEED, MAX_SNAPSHOT_BYTES,
                              MAX_STEPS, MAX_TRAJECTORIES)


CONFIGS = Path(__file__).parents[1] / "scripts" / "configs"
# (command, config stem) of every canned experiment, as the runner
# script finds them in CONFIGS
_EXPERIMENTS = [(command, path.stem) for command, path in runpy.run_path(
    str(CONFIGS.parent / "run_all_experiments.py"))["experiments"]()]


def _canned(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _run(tmp_path, command, cfg, *extra):
    cpath = _write(tmp_path, cfg)
    out = tmp_path / "out"
    return main([command, "--config", str(cpath), "--out", str(out),
                 *extra]), out


# one curve of plot.gp: its CSV, column number and title
_CURVE = re.compile(r'"([^"]+)" using 1:(\d+) with lines title "([^"]+)"')


def _check_outputs(out):
    """Every output the manifest names exists and parses, each CSV with
    rows as long as its header; each curve of plot.gp reads the column
    of its CSV that the first word of its title names, against a first
    column that rises row by row, one row per sample.  Returns the
    manifest and the CSV files' rows."""
    manifest = json.loads((out / "manifest.json").read_text())
    tables = {}
    for name in manifest["outputs"]:
        if name.endswith(".csv"):
            with open(out / name, newline="") as fh:
                rows = tables[name] = list(csv.reader(fh))
            assert {len(row) for row in rows} == {len(rows[0])}
        elif name.endswith(".json"):
            json.loads((out / name).read_text())
        else:
            assert name == "plot.gp"
            curves = _CURVE.findall((out / name).read_text())
            assert curves
            for csv_name, k, title in curves:
                head, *rows = tables[csv_name]
                assert head[int(k) - 1] == title.split()[0]
                times = [float(row[0]) for row in rows]
                assert all(a < b for a, b in zip(times, times[1:]))
    return manifest, tables


def _stationary_cfg(**over):
    cfg = {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.2, "nbar": 0.5},
        "fock": {"n_fock": 32},
        "integrator": {"dt": 1e-3, "t_end": 2.0, "record_stride": 20},
        "initial": {"kind": "coherent", "alpha": 1.0},
    }
    cfg.update(over)
    return cfg


def test_missing_config_is_config_error(tmp_path):
    code = main(["stationary", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("cfg", [
    None, _stationary_cfg(surprise=1),
    {k: v for k, v in _stationary_cfg().items() if k != "integrator"}],
    ids=["missing", "unknown key", "no section"])
def test_config_refused_on_load_makes_no_directory(tmp_path, capsys, cfg):
    # the config is loaded before --out is made
    path = tmp_path / "nope.json" if cfg is None else _write(tmp_path, cfg)
    out = tmp_path / "out" / "nested"
    code = main(["stationary", "--config", str(path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["a file", "under a file"])
def test_unusable_out_is_config_error(tmp_path, capsys, where):
    # an --out that cannot be a directory exits 2 naming the path, with
    # no traceback, and leaves the file as it was
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker if where == "a file" else blocker / "out"
    code = main(["stationary", "--config",
                 str(_write(tmp_path, _stationary_cfg())), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot make the output directory "
                          f"{out}: ")
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("name", ["manifest.json", "plot.gp",
                                  "thermalize.csv"])
def test_blocked_output_file_is_config_error(tmp_path, capsys, name):
    # a directory in the place of one output file, met after the
    # experiment has run, exits 2 naming the file, with no traceback
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code = main(["thermalize", "--config",
                 str(_write(tmp_path, _thermalize_cfg())), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: cannot write the output file {out / name}: ")
    assert (out / name).is_dir()


def test_unparseable_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["stationary", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("text", [
    '{"fock": {"n_fock": ' + "1" * 5000 + "}}",   # past int's digit limit
    "[" * 100_000 + "]" * 100_000,                 # past the recursion limit
])
def test_json_that_python_refuses_is_config_error(tmp_path, capsys, text):
    # json.loads raises a plain ValueError or a RecursionError here, not
    # a JSONDecodeError
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["stationary", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "config is not valid JSON" in capsys.readouterr().err


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_canned_configs_pass_the_check_and_keys_match_fields():
    for path in sorted(CONFIGS.glob("*.json")):
        load_config(path)   # checks it
    # each section feeds a dataclass by field name
    assert CONFIG_KEYS["integrator"].keys() == _fields(IntegratorConfig)
    assert CONFIG_KEYS["initial"].keys() == _fields(InitialStateSpec)
    cell = CONFIG_KEYS["histories"]["cells"][0]
    assert cell.keys() | {"h"} == _fields(PhaseCell)
    assert CONFIG_KEYS["params"].keys() - {"nbar"} <= _fields(ModelParams)
    assert CONFIG_KEYS["ensemble"].keys() <= _fields(EnsembleConfig)


# The digest of the canned experiments' outputs that
# test_canned_experiments_pass holds every run to.  It is test data:
# rewrite it, with `pytest tests/test_cli.py -k canned --regen-canned`,
# only where an output is meant to change.
GOLDEN = Path(__file__).parent / "golden" / "canned.json"
# outputs that a BLAS product or an eigensolver feeds; each value must
# match to 1e-12 relative, or, at rounding level (below 1e-9 of the
# largest finite magnitude of its column or key), to 1e-12 of that
# largest magnitude.  The rest, the loop's
# statistics and the fits and text made from them, must match exactly:
# the loop's IEEE-order rule makes them the same at every lane width
_BLAS_OUTPUTS = frozenset({"decoherence.json", "peaking_report.json",
                           "suppression.csv", "oracle_compare.csv",
                           "occupation_histogram.csv"})
# rows a CSV digest keeps: all of a short file, else this many evenly
# spaced ones beside the column sums
_DIGEST_ROWS = 6


def _digest(out, manifest, tables, code):
    """What the canned digest keeps of one run: its exit code, check
    labels and verdicts, and each output, a CSV as its header and rows
    (thinned, with exact column sums, past 2 * _DIGEST_ROWS rows)."""
    files = {}
    for name in manifest["outputs"]:
        if name.endswith(".csv"):
            head, *rows = tables[name]
            files[name] = {"head": head, "rows": rows}
            if len(rows) > 2 * _DIGEST_ROWS and name not in _BLAS_OUTPUTS:
                keep = np.linspace(0, len(rows) - 1, _DIGEST_ROWS)
                files[name] = {
                    "head": head, "n_rows": len(rows),
                    "rows": {str(i): rows[i] for i in keep.round().astype(int)},
                    "sums": [math.fsum(map(float, col)) for col in zip(*rows)]}
        elif name.endswith(".json"):
            files[name] = json.loads((out / name).read_text())
        else:
            files[name] = (out / name).read_text()
    return {"exit": code, "files": files,
            "checks": [[c["label"], c["passed"]] for c in manifest["checks"]]}


def _numbers(value):
    """value as a float array, or None where it holds anything else."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return None


def _match_digest(name, got, want):
    """got, a run's digest, is want: exactly, but for the values of the
    _BLAS_OUTPUTS, which match to 1e-12 relative."""
    assert got.keys() == want.keys(), name
    assert got["files"].keys() == want["files"].keys(), name
    for file, doc in want["files"].items():
        where = f"{name}/{file}"
        if file not in _BLAS_OUTPUTS:
            # as text, so that a nan matches a nan
            assert json.dumps(got["files"][file]) == json.dumps(doc), where
            continue
        mine = got["files"][file]
        if file.endswith(".csv"):   # compared column by column
            assert mine["head"] == doc["head"], where
            doc, mine = (dict(zip(d["head"], zip(*d["rows"])))
                         for d in (doc, mine))
        assert mine.keys() == doc.keys(), where
        for key, value in doc.items():
            expect, actual = _numbers(value), _numbers(mine[key])
            if expect is None or actual is None:
                assert mine[key] == value, f"{where}: {key}"
                continue
            scale = np.abs(expect[np.isfinite(expect)]).max(initial=0.0)
            assert actual.shape == expect.shape, f"{where}: {key}"
            size = np.abs(expect)
            with np.errstate(invalid="ignore"):   # inf - inf, nan
                tol = 1e-12 * np.where(size < 1e-9 * scale, scale, size)
                same = ((actual == expect) | (np.abs(actual - expect) <= tol)
                        | np.isnan(actual) & np.isnan(expect))
            assert same.all(), f"{where}: {key} at {np.argwhere(~same)[:4]}"
    for part in ("exit", "checks"):
        assert got[part] == want[part], f"{name}: {part}"


def test_canned_digest_holds_each_entry_of_d_to_1e_12():
    # a drift of 1e-10 relative in the smallest entry of D above
    # rounding level, and in no other, fails the digest match
    want = json.loads(GOLDEN.read_text())["histories_cat"]
    _match_digest("histories_cat", want, want)
    got = copy.deepcopy(want)
    flat = np.ravel(got["files"]["decoherence.json"]["matrix"])
    size = np.abs(flat)
    small = np.argmin(np.where(size < 1e-9 * size.max(), np.inf, size))
    assert size[small] < 1e-4 * size.max()
    flat[small] *= 1.0 + 1e-10
    got["files"]["decoherence.json"]["matrix"] = flat.reshape(
        np.shape(want["files"]["decoherence.json"]["matrix"])).tolist()
    with pytest.raises(AssertionError, match="decoherence.json: matrix"):
        _match_digest("histories_cat", got, want)


def test_canned_experiments_pass(tmp_path, regen_canned):
    # every published experiment, as scripts/run_all_experiments.py runs
    # it, in this process: it exits 0, passes each of its checks and
    # gives the outputs of the committed digest
    assert len(_EXPERIMENTS) == len(list(CONFIGS.glob("*.json"))) > 0
    tables, digests = {}, {}
    for command, name in _EXPERIMENTS:
        out = tmp_path / name
        code = main([command, "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(out)])
        manifest, tables[name] = _check_outputs(out)
        assert code == EXIT_PASS, name
        assert manifest["passed"] and manifest["checks"], name
        assert all(c["passed"] for c in manifest["checks"]), name
        digests[name] = _digest(out, manifest, tables[name], code)
    if regen_canned:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert golden.keys() == digests.keys()
    for name, want in golden.items():
        _match_digest(name, digests[name], want)
    # thermalize's inline law is the diagonal of the reference thermal
    # state to within its truncation residual, (nbar / (1 + nbar))^n_fock
    cfg = _canned("thermalize")
    params, ops = _model(cfg)
    diag = thermal_state(params, ops.n_fock).diagonal().real
    head, *rows = tables["thermalize"]["occupation_histogram.csv"]
    law = [float(row[head.index("thermal_fraction")]) for row in rows]
    np.testing.assert_allclose(law, diag[:cfg["thermalize"]["max_n"] + 1],
                               rtol=1e-10, atol=0.0)


def test_import_cli_loads_no_jsonschema():
    # the config check is plain Python, so a CLI process does not pay
    # for a schema library at start-up
    src = str(Path(qsdsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    names = ("jsonschema", "referencing", "rpds", "attrs")
    code = ("import sys, qsdsim.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in "
            f"{names!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_schema_rejects_unknown_key(tmp_path):
    cfg = _stationary_cfg()
    cfg["surprise"] = {"x": 1}
    code, _ = _run(tmp_path, "stationary", cfg)
    assert code == EXIT_CONFIG


def test_temperature_and_nbar_conflict(tmp_path):
    cfg = _stationary_cfg()
    cfg["params"]["temperature"] = 1.0   # nbar is also set
    code, _ = _run(tmp_path, "stationary", cfg)
    assert code == EXIT_CONFIG


def test_stationary_smoke(tmp_path):
    code, out = _run(tmp_path, "stationary", _stationary_cfg())
    assert code == EXIT_PASS
    manifest, tables = _check_outputs(out)
    assert manifest["outputs"] == ["trajectory.csv", "plot.gp"]
    assert tables["trajectory.csv"][0][:3] == ["t", "q_mean", "p_mean"]
    assert manifest["command"] == "stationary"
    assert manifest["passed"] is True
    assert manifest["checks"] and all(c["passed"] for c in manifest["checks"])
    digest = hashlib.sha256((tmp_path / "config.json").read_bytes())
    assert manifest["config_sha256"] == digest.hexdigest()
    assert manifest["stepping_loop"] == qsd.stepping_loop()
    assert manifest["stepping_loop"]["lanes"][-2:] == [4, 1]


def test_trajectory_csv_roundtrip(tmp_path, warm_params):
    # the columns are the fields of a sample, excess_q and excess_p
    # labelled Q and P; repr round-trips doubles exactly
    code, out = _run(tmp_path, "stationary", _stationary_cfg(), "--seed", "42")
    assert code == EXIT_PASS
    _, tables = _check_outputs(out)
    rows = tables["trajectory.csv"]
    assert ",".join(rows[0]) == ("t,q_mean,p_mean,var_q,var_p,R,Q,P,"
                                 "delta_alpha_sq,n_mean")
    ops = build_operators(warm_params, 32)
    cfg = _stationary_cfg()["integrator"]
    record = run_trajectory(coherent_state(ops, 1.0), ops,
                            IntegratorConfig(**cfg, seed=42))
    assert record.bundles.dtype.names == ("t", *STAT_FIELDS)
    assert [tuple(map(float, row)) for row in rows[1:]] == \
        record.bundles.tolist()


def test_stationary_expect_fail_mode(tmp_path):
    # a start off the coherent shape is checked for breaking it early,
    # then localizing; there is no flag for it
    cfg = {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.5, "nbar": 0.5},
        "fock": {"n_fock": 32},
        "integrator": {"dt": 1e-3, "t_end": 12.0, "record_stride": 50},
        "initial": {"kind": "fock", "n": 2},
    }
    code, out = _run(tmp_path, "stationary", cfg)
    assert code == EXIT_PASS
    manifest, _ = _check_outputs(out)
    assert [c["label"] for c in manifest["checks"]] == [
        "shape broken early (some diagnostic > 0.05 in first half)",
        "diagnostics decay below threshold by the end"]
    with pytest.raises(SystemExit):
        make_parser().parse_args(["stationary", "--config", "c", "--out",
                                  "o", "--expect-fail"])


def test_seed_override_controls_noise(tmp_path):
    cfg = _stationary_cfg()
    code_a, out_a = _run(tmp_path, "stationary", cfg, "--seed", "42")
    body_a = (out_a / "trajectory.csv").read_bytes()
    (out_a / "trajectory.csv").unlink()
    code_b, out_b = _run(tmp_path, "stationary", cfg, "--seed", "42")
    assert code_a == code_b == EXIT_PASS
    assert (out_b / "trajectory.csv").read_bytes() == body_a
    _, out_c = _run(tmp_path, "stationary", cfg, "--seed", "43")
    assert (out_c / "trajectory.csv").read_bytes() != body_a


def test_negative_seed_is_config_error(tmp_path, capsys):
    code, _ = _run(tmp_path, "stationary", _stationary_cfg(), "--seed", "-1")
    assert code == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, section, key", [
    ("stationary", "stationary", "integrator", "seed"),
    ("thermalize", "thermalize", "ensemble", "base_seed"),
    ("stationary", "stationary", None, "--seed"),
    ("thermalize", "thermalize", None, "--seed"),
])
@pytest.mark.parametrize("seed", [2 ** 64, 2 ** 64 + 5])
def test_seed_beyond_64_bits_is_config_error(tmp_path, capsys, command,
                                             name, section, key, seed):
    # the stepping loop seeds from one uint64, and trajectory_seed
    # reduces base_seed mod 2**64, so 2**64 + 5 names no stream of its
    # own; it exits 2 with a message and writes nothing, and --seed is
    # refused before the output directory is made
    cfg = _canned(name)
    extra = ()
    if section is None:
        extra = (key, str(seed))
    else:
        cfg[section][key] = seed
    code, out = _run(tmp_path, command, cfg, *extra)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert (f"maximum of {MAX_SEED}" if section else "2**64") in err
    assert list(out.iterdir()) == [] if section else not out.exists()


def test_tail_overflow_is_numerical_error(tmp_path):
    # a high Fock start in a tiny basis pumps the guarded tail at once
    cfg = {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.5, "nbar": 1.0},
        "fock": {"n_fock": 8},
        "integrator": {"dt": 1e-3, "t_end": 1.0},
        "initial": {"kind": "fock", "n": 6},
    }
    code, _ = _run(tmp_path, "stationary", cfg)
    assert code == EXIT_NUMERICAL


def test_localize_fock_rate_beats_bound(tmp_path):
    cfg = {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.2, "nbar": 0.5},
        "fock": {"n_fock": 24},
        "integrator": {"dt": 1e-3, "t_end": 8.0, "record_stride": 20},
        "ensemble": {"m": 64, "base_seed": 9},
        "initial": {"kind": "fock", "n": 1},
    }
    code, out = _run(tmp_path, "localize", cfg)
    assert code == EXIT_PASS
    _check_outputs(out)
    report = json.loads((out / "localize_report.json").read_text())
    assert report["rate"] - report["ci95"] > 0.0
    assert report["rate"] + report["ci95"] >= report["rate_bound"]
    assert (out / "localize_main.csv").exists()


def test_stats_csv_layout(tmp_path):
    # one row per sample: t, the mean of each field as trajectory.csv
    # names it, then each field's stderr, bit for bit those of
    # run_ensemble on the same config
    cfg = {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.0, "nbar": 0.5},
        "fock": {"n_fock": 16},
        "integrator": {"dt": 1e-3, "t_end": 1.0, "record_stride": 50},
        "ensemble": {"m": 4},
        "initial": {"kind": "fock", "n": 1},
    }
    code, out = _run(tmp_path, "localize", cfg)
    assert code == EXIT_PASS
    _, tables = _check_outputs(out)
    head, *rows = tables["localize_main.csv"]
    names = ["q_mean", "p_mean", "var_q", "var_p", "R", "Q", "P",
             "delta_alpha_sq", "n_mean"]
    assert head == ["t", *names, *(f"{name}_stderr" for name in names)]
    params = ModelParams(gamma=0.0, temperature=temperature_for_nbar(0.5))
    stats = run_ensemble(
        EnsembleConfig(m=4, base_seed=0,
                       integrator=IntegratorConfig(**cfg["integrator"]),
                       initial=InitialStateSpec(kind="fock", n=1)),
        build_operators(params, 16))
    assert len(rows) == len(stats.times) == 21
    got = np.array(rows, dtype=float).T
    assert got[0].tolist() == stats.times.tolist()
    for k, f in enumerate(STAT_FIELDS):
        assert got[1 + k].tolist() == stats.means[f].tolist()
        assert got[10 + k].tolist() == stats.stderrs[f].tolist()


def test_localize_sweep_plots_every_separation(tmp_path):
    code, out = _run(tmp_path, "localize", _canned("localize_cat_sweep"))
    assert code == EXIT_PASS
    manifest, _ = _check_outputs(out)
    plotted = _CURVE.findall((out / "plot.gp").read_text())
    assert [(name, title) for name, _, title in plotted] == [
        (name, f"delta_alpha_sq {name}")
        for name in ("localize_d3.csv", "localize_d6.csv")]
    assert manifest["outputs"] == ["localize_d3.csv", "localize_d6.csv",
                                   "localize_report.json", "plot.gp"]


def test_localize_without_damping_checks_no_decay(tmp_path, capsys):
    # at gamma = 0 the spread of |1> stays put: the check is on its
    # drift, not on the decay-rate bound
    cfg = {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.0, "nbar": 0.5},
        "fock": {"n_fock": 16},
        "integrator": {"dt": 1e-3, "t_end": 1.0, "record_stride": 50},
        "ensemble": {"m": 4},
        "initial": {"kind": "fock", "n": 1},
    }
    code, out = _run(tmp_path, "localize", cfg)
    assert code == EXIT_PASS
    assert "[PASS] no decay at gamma=0" in capsys.readouterr().out
    report = json.loads((out / "localize_report.json").read_text())
    assert report["rate_bound"] == 0.0
    assert abs(report["rate"]) < 1e-9


def test_localize_rejects_coherent_initial(tmp_path):
    cfg = {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.2, "nbar": 0.5},
        "fock": {"n_fock": 24},
        "integrator": {"dt": 1e-3, "t_end": 2.0, "record_stride": 20},
        "ensemble": {"m": 8},
        "initial": {"kind": "coherent", "alpha": 1.0},
    }
    code, _ = _run(tmp_path, "localize", cfg)
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("separation, message", [
    (float("nan"), "non-finite"),
    (20.0, "too large for n_fock=24"),
    (0.0, "less than or equal to the minimum of 0"),
    (-2.0, "less than or equal to the minimum of 0"),
])
def test_localize_bad_separation_is_config_error(tmp_path, capsys,
                                                 separation, message):
    # every sweep state is built as a check before the first ensemble,
    # so no output of the good separation d=1 is written
    cfg = {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.2, "nbar": 0.5},
        "fock": {"n_fock": 24},
        "integrator": {"dt": 1e-3, "t_end": 2.0, "record_stride": 20},
        "ensemble": {"m": 8},
        "initial": {"kind": "cat", "alpha": 0.5},
        "localize": {"separations": [1.0, separation]},
    }
    code, out = _run(tmp_path, "localize", cfg)
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (out / "localize_d1.csv").exists()


@pytest.mark.parametrize("command, name", [
    ("stationary", "stationary"),
    ("localize", "localize_fock"),
    ("oracle-compare", "oracle_compare"),
])
def test_too_many_steps_is_config_error(tmp_path, capsys, command, name):
    # dt = 1e-300 puts 1e300 steps on the grid: refused by
    # IntegratorConfig before any array is sized by the step count
    cfg = _canned(name)
    cfg["integrator"]["dt"] = 1e-300
    code, _ = _run(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert "steps; at most" in capsys.readouterr().err


@pytest.mark.parametrize("stride", [2 ** 63, 2 ** 64 + 1, MAX_STEPS + 1])
def test_record_stride_past_max_steps_is_config_error(tmp_path, capsys,
                                                      stride):
    # the stepping loop keeps the stride in a C long, where 2**64 + 1
    # once wrapped around and overflowed the sample buffer; it exits 2
    # with a message and writes nothing
    cfg = _stationary_cfg()
    cfg["integrator"]["record_stride"] = stride
    code, out = _run(tmp_path, "stationary", cfg)
    assert code == EXIT_CONFIG
    assert f"maximum of {MAX_STEPS}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_half_step_over_the_limit_is_config_error(tmp_path, capsys,
                                                monkeypatch):
    # oracle-compare also runs at dt/2: twice the steps, refused before
    # the first ensemble at dt runs
    monkeypatch.setattr(qsd, "MAX_STEPS", 3000)
    cfg = _canned("oracle_compare")   # 2000 steps of dt
    code, out = _run(tmp_path, "oracle-compare", cfg)
    assert code == EXIT_CONFIG
    assert "steps; at most 3000" in capsys.readouterr().err
    assert not (out / "oracle_compare.csv").exists()


@pytest.mark.parametrize("section, key, value", [
    ("ensemble", "m", 8.0),
    ("fock", "n_fock", 24.0),
    ("integrator", "record_stride", 10.0),
    ("integrator", "seed", 3.0),
    ("ensemble", "base_seed", 1e308),
    ("initial", "n", 1.0),
    ("thermalize", "max_n", 4.0),
])
def test_integral_float_is_config_error(tmp_path, capsys, section, key,
                                        value):
    # 8.0 is a JSON number, not an integer: refused with its key path,
    # not passed on to code that counts or sizes by it
    cfg = _canned("thermalize")
    cfg[section][key] = value
    code, _ = _run(tmp_path, "thermalize", cfg)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "is not of type 'integer'" in err
    assert f"{section}.{key}:" in err


@pytest.mark.parametrize("command, name, path, where", [
    ("stationary", "stationary", ("params", "gamma"), "params.gamma"),
    ("stationary", "stationary", ("integrator", "t_end"), "integrator.t_end"),
    ("stationary", "stationary", ("initial", "alpha"), "initial.alpha"),
    ("localize", "localize_cat_sweep", ("localize", "separations", 1),
     "localize.separations[1]"),
    ("histories", "histories_cat", ("histories", "cells", 0, "w_re"),
     "histories.cells[0].w_re"),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_integer_beyond_float_range_is_config_error(tmp_path, capsys,
                                                    command, name, path,
                                                    where, sign):
    # float() cannot hold it; refused with its key path, not by an
    # OverflowError where a dataclass converts it
    cfg = _canned(name)
    value = sign * 10 ** 400
    functools.reduce(operator.getitem, path[:-1], cfg)[path[-1]] = value
    code, out = _run(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert f"{where}: {value} is too large for a float" in \
        capsys.readouterr().err
    assert not out.exists()   # refused on load, before the directory


@pytest.mark.parametrize("change, message", [
    ({"params": {"m": True, "omega": 1.0, "gamma": 0.2}},
     "params.m: True is not of type 'number'"),
    ({"initial": {"kind": "coherent", "alpha": [1.0, "x"]}},
     "initial.alpha[1]: 'x' is not of type 'number'"),
    ({"initial": {"kind": "coherent", "alpha": [1.0, 0.0, 0.0]}},
     "initial.alpha: [1.0, 0.0, 0.0] is not of type 'complex'"),
    ({"initial": {"kind": "custom", "amplitudes": [0.0, [1, 2], None]}},
     "initial.amplitudes[2]: None is not of type 'complex'"),
    ({"initial": {"kind": 3}}, "initial.kind: 3 is not of type 'string'"),
    ({"initial": {"alpha": 1.0}}, "initial: 'kind' is a required key"),
    ({"fock": {"n_fock": 24, "N": 3}}, "fock: unknown key 'N'"),
    ({"fock": [24]}, "fock: [24] is not of type 'object'"),
    ({"histories": {"times": 0.0, "cells": [], "h": 0.1,
                    "dt_oracle": 0.1}},
     "histories.times: 0.0 is not of type 'array'"),
    ({"histories": {"times": [0.0], "h": 0.1, "dt_oracle": 0.1,
                    "cells": [{"center": 0.0, "w_re": 1.0}]}},
     "histories.cells[0]: 'w_im' is a required key"),
    ({"histories": {"times": [0.0], "h": 0.1, "dt_oracle": 0.1,
                    "include_complement": 1,
                    "cells": [{"center": 0.0, "w_re": 1.0, "w_im": 1.0}]}},
     "histories.include_complement: 1 is not of type 'boolean'"),
])
def test_check_config_names_the_key_path(change, message):
    cfg = _stationary_cfg(**change)
    with pytest.raises(ConfigError) as info:
        check_config(cfg)
    assert str(info.value) == message


def test_check_config_refuses_a_missing_section_and_a_non_object():
    cfg = _stationary_cfg()
    del cfg["fock"]
    with pytest.raises(ConfigError, match="config: 'fock' is a required"):
        check_config(cfg)
    with pytest.raises(ConfigError, match="config: 3 is not of type"):
        check_config(3)


@pytest.mark.parametrize("command, name, section, key, value, message", [
    ("histories", "histories_cat", "cell", "center", 10.0, "too large"),
    ("histories", "histories_cat", "cell", "w_im", 1e300, "too large"),
    ("thermalize", "thermalize", "thermalize", "max_n", 6,
     "expected counts below"),
    ("thermalize", "thermalize", "integrator", "record_stride", 20000,
     "at least two samples"),
    # a start that is not coherent is checked over at least two samples
    ("stationary", "stationary", None, None,
     {"initial": {"kind": "fock", "n": 2},
      "integrator": {"dt": 0.001, "t_end": 50.0, "record_stride": 100000}},
     "at least two samples"),
    # finite values whose quadrature width or loss diagonal is not
    ("localize", "localize_fock", "params", "m", 1e308, "sigma_q"),
    ("stationary", "stationary", "params", "gamma", 1e308, "mu"),
    # a start whose own tail mass is above TAIL_TOL (1.115e-6 at 11
    # levels) must not reach the stepping loop's guard
    ("stationary", "stationary", "fock", "n_fock", 11, "tail mass"),
    ("thermalize", "thermalize", None, None,
     {"fock": {"n_fock": 11}, "initial": {"kind": "coherent", "alpha": 1.0}},
     "tail mass"),
    # an ensemble that run_ensemble would size an (m, n_fock) array by;
    # the last is within the bound, but the 4M run of oracle-compare is
    # not
    ("localize", "localize_fock", "ensemble", "m", 10 ** 30,
     f"maximum of {MAX_TRAJECTORIES}"),
    ("thermalize", "thermalize", "ensemble", "m", MAX_TRAJECTORIES + 1,
     f"maximum of {MAX_TRAJECTORIES}"),
    ("oracle-compare", "oracle_compare", "ensemble", "m",
     MAX_TRAJECTORIES // 4 + 1, f"maximum of {MAX_TRAJECTORIES}"),
    # a cell grid of about 1e8 coherent states, and one past numpy's
    # largest array
    ("histories", "histories_cat", "histories", "h", 1e-4,
     "coherent states"),
    ("histories", "histories_control", "histories", "h", 1e-300,
     "coherent states"),
    ("thermalize", "thermalize", "thermalize", "max_n", 32,
     "thermalize.max_n must be from 1 to n_fock - 1 = 31"),
    ("localize", "localize_cat_sweep", "localize", "separations", [],
     "needs at least one entry"),
    # a sweep of cat starts from a Fock start would be dropped
    ("localize", "localize_fock", None, None,
     {"localize": {"separations": [1, 2]}},
     "localize.separations sweeps cat starts; the initial state is fock"),
    # and so is a coherent one: one sample at t = 0 shows nothing
    ("stationary", "stationary", "integrator", "record_stride", 100000,
     "at least two samples"),
])
def test_config_stage_refuses_before_any_output(tmp_path, capsys, command,
                                                name, section, key, value,
                                                message):
    # each mistake is found in the command's config stage, before the
    # experiment writes anything or sizes an array by the point count
    cfg = _canned(name)
    if section == "cell":
        cfg["histories"]["cells"][0][key] = value
    elif section is None:   # whole sections replaced
        cfg.update(value)
    else:
        cfg[section][key] = value
    code, out = _run(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_huge_n_fock_is_config_error(tmp_path, capsys):
    # refused by the schema's maximum before any matrix is sized by it
    cfg = _canned("stationary")
    cfg["fock"]["n_fock"] = 10 ** 30
    code, out = _run(tmp_path, "stationary", cfg)
    assert code == EXIT_CONFIG
    assert f"maximum of {MAX_N_FOCK}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_thermalize_refuses_snapshots_past_the_bound(tmp_path, capsys,
                                                      monkeypatch):
    # 51 decorrelated late rows at MAX_N_FOCK levels would hold 3.2 GiB
    # of density matrices; the config stage refuses the run before any
    # trajectory runs and before a single snapshot is allocated
    def refuse(*args, **kwargs):
        raise AssertionError("run_ensemble called")

    monkeypatch.setattr(qsdsim.cli, "run_ensemble", refuse)
    cfg = _canned("thermalize")
    cfg["fock"]["n_fock"] = MAX_N_FOCK
    cfg["integrator"]["t_end"] = 200.0
    tracemalloc.start()
    try:
        code, out = _run(tmp_path, "thermalize", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "51 density-matrix snapshots" in err
    assert f"maximum of {MAX_SNAPSHOT_BYTES / 2 ** 30:g} GiB" in err
    assert "fock.n_fock" in err and "integrator.t_end" in err
    assert list(out.iterdir()) == []
    assert peak < MAX_N_FOCK ** 2 * 16


@pytest.mark.parametrize("command, name", [
    ("localize", "localize_fock"),
    ("thermalize", "thermalize"),
    ("oracle-compare", "oracle_compare"),
])
def test_ensemble_commands_refuse_integrator_seed(tmp_path, capsys, command,
                                                  name):
    # trajectory k is seeded from ensemble.base_seed and k alone, so a
    # seed in the integrator section would be ignored; it is refused,
    # and --seed sets base_seed only
    cfg = _canned(name)
    args = make_parser().parse_args([command, "--config",
                                     str(_write(tmp_path, cfg)), "--out",
                                     str(tmp_path / "seeded"), "--seed", "9"])
    seeded = Runner(args).cfg
    assert seeded["ensemble"]["base_seed"] == 9
    assert "seed" not in seeded["integrator"]
    cfg["integrator"]["seed"] = 5
    code, out = _run(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert "ensemble.base_seed" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, missing", [
    ("stationary", "integrator"),
    ("localize", "integrator"),
    ("localize", "ensemble"),
    ("thermalize", "ensemble"),
    ("thermalize", "initial"),
    ("oracle-compare", "ensemble"),
    ("histories", "histories"),
    ("histories", "initial"),
])
def test_missing_section_is_config_error(tmp_path, capsys, command, missing):
    cfg = {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.2, "nbar": 0.5},
        "fock": {"n_fock": 24},
        "integrator": {"dt": 1e-3, "t_end": 2.0},
        "ensemble": {"m": 8},
        "initial": {"kind": "fock", "n": 1},
        "histories": {"times": [0.0], "h": 0.1, "dt_oracle": 1e-3,
                      "cells": [{"center": 0.0, "w_re": 1.0, "w_im": 1.0}]},
    }
    del cfg[missing]
    code, _ = _run(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert f"needs the config sections {missing}" in capsys.readouterr().err


def _thermalize_cfg():
    return {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 1.0, "nbar": 0.8},
        "fock": {"n_fock": 32},
        "integrator": {"dt": 1e-3, "t_end": 10.0, "record_stride": 100},
        "ensemble": {"m": 128, "base_seed": 3},
        "initial": {"kind": "fock", "n": 0},
        "thermalize": {"max_n": 4},
    }


def test_negative_gamma_is_config_error(tmp_path, capsys):
    cfg = _stationary_cfg()
    cfg["params"]["gamma"] = -1.0
    code, _ = _run(tmp_path, "stationary", cfg)
    assert code == EXIT_CONFIG
    assert "config error: damping rate" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("stationary", "gamma", float("nan")),
    ("stationary", "omega", float("inf")),
    ("stationary", "nbar", float("nan")),
    ("histories", "w_re", float("nan")),
])
def test_non_finite_value_is_config_error(tmp_path, capsys, command, key,
                                          value):
    # json.loads accepts NaN and Infinity; they must not pass a check
    # that only asks `x <= 0`
    if command == "histories":
        cfg = _undamped_histories_cfg()
        cfg["histories"]["cells"][0][key] = value
    else:
        cfg = _stationary_cfg()
        cfg["params"][key] = value
    code, _ = _run(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("key, value, message", [
    ("h", 0.5, "too coarse"),
    ("dt_oracle", 0.0, "dt_oracle must be positive"),
    # t / inf is 0 steps of an infinite grid, and 0 * inf is nan
    ("dt_oracle", float("inf"), "dt_oracle must be positive"),
    ("dt_oracle", float("nan"), "dt_oracle must be positive"),
])
def test_histories_setup_mistake_is_config_error(tmp_path, capsys, key,
                                                 value, message):
    cfg = _undamped_histories_cfg()
    cfg["histories"][key] = value
    code, out = _run(tmp_path, "histories", cfg)
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_custom_state_without_amplitudes_is_config_error(tmp_path, capsys):
    cfg = _undamped_histories_cfg()
    cfg["initial"] = {"kind": "custom"}
    code, _ = _run(tmp_path, "histories", cfg)
    assert code == EXIT_CONFIG
    assert "config error: custom state has 0 amplitudes" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["stationary", "thermalize"])
def test_zero_custom_state_is_config_error(tmp_path, capsys, command):
    # an ensemble builds its state inside run_ensemble; the CLI must
    # still report it as a config mistake before any trajectory runs
    cfg = _thermalize_cfg()
    cfg["initial"] = {"kind": "custom", "amplitudes": [0.0] * 32}
    code, _ = _run(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert "config error: cannot normalize a zero state" in \
        capsys.readouterr().err


def test_thermalize_too_short_rejected(tmp_path):
    cfg = _thermalize_cfg()
    cfg["integrator"]["t_end"] = 3.0
    code, _ = _run(tmp_path, "thermalize", cfg)
    assert code == EXIT_CONFIG


def test_thermalize_without_damping_rejected(tmp_path):
    # gamma = 0 has no relaxation time: a config error, not a crash
    cfg = _thermalize_cfg()
    cfg["params"]["gamma"] = 0.0
    code, _ = _run(tmp_path, "thermalize", cfg)
    assert code == EXIT_CONFIG


def test_thermalize_at_zero_temperature_fits_the_decay(tmp_path, capsys):
    # nbar = 0 checks the fitted decay rate of <n> against gamma, with
    # its 95% interval, in place of the chi-square against the thermal
    # law; a coherent start stays coherent and decays as exp(-gamma t)
    cfg = _thermalize_cfg()
    cfg["params"]["nbar"] = 0.0
    cfg["ensemble"]["m"] = 8
    cfg["initial"] = {"kind": "coherent", "alpha": 1.0}
    code, out = _run(tmp_path, "thermalize", cfg)
    assert code == EXIT_PASS
    printed = capsys.readouterr().out
    assert "[PASS] T=0 decay rate " in printed
    assert "[PASS] final occupation" in printed
    assert not (out / "occupation_histogram.csv").exists()


def test_thermalize_reaches_thermal_law(tmp_path):
    code, out = _run(tmp_path, "thermalize", _thermalize_cfg())
    assert code == EXIT_PASS
    manifest, tables = _check_outputs(out)
    assert manifest["outputs"] == ["thermalize.csv", "plot.gp",
                                   "occupation_histogram.csv"]
    assert [(name, title) for name, _, title in _CURVE.findall(
        (out / "plot.gp").read_text())] == [("thermalize.csv", "n_mean")]
    hist = tables["occupation_histogram.csv"]
    assert hist[0] == ["n", "observed_fraction", "thermal_fraction"]
    assert [row[0] for row in hist[1:]] == ["0", "1", "2", "3", "4"]


def test_oracle_compare_convergence(tmp_path):
    cfg = {
        "params": {"m": 1.0, "omega": 2.0, "gamma": 0.5, "nbar": 0.5},
        "fock": {"n_fock": 32},
        "integrator": {"dt": 1e-3, "t_end": 2.0, "record_stride": 2000},
        "ensemble": {"m": 128, "base_seed": 1},
        "initial": {"kind": "coherent", "alpha": 1.0},
    }
    code, out = _run(tmp_path, "oracle-compare", cfg)
    assert code == EXIT_PASS
    _, tables = _check_outputs(out)
    rows = tables["oracle_compare.csv"]
    assert rows[0] == ["label", "m", "dt", "trace_distance"]
    assert [row[:3] for row in rows[1:]] == [
        ["M", "128", "0.001"], ["4M", "512", "0.001"],
        ["4M_dt/2", "512", "0.0005"]]


def test_histories_damped_cat_decoheres(tmp_path):
    cfg = {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.3, "nbar": 2.0},
        "fock": {"n_fock": 24},
        "initial": {"kind": "cat", "alpha": 1.4},
        "histories": {
            "times": [0.0, 6.285],
            "cells": [
                {"center": 1.2, "w_re": 0.7, "w_im": 1.4286},
                {"center": -1.2, "w_re": 0.7, "w_im": 1.4286},
            ],
            "h": 0.12,
            "dt_oracle": 5e-3,
            "include_complement": False,
        },
    }
    code, out = _run(tmp_path, "histories", cfg)
    assert code == EXIT_PASS
    _, tables = _check_outputs(out)
    dmat = json.loads((out / "decoherence.json").read_text())
    assert dmat["labels"] == ["0.0", "0.1", "1.0", "1.1"]
    assert tables["suppression.csv"][0] == ["label_a", "label_b", "ratio"]
    peak = json.loads((out / "peaking_report.json").read_text())
    assert peak["best_label"] in dmat["labels"]
    assert [len(z) for z in peak["classical_path"]] == [2, 2]
    assert len(peak["distances"]) == 2


def test_histories_writers(tmp_path, warm_params):
    # one time, one cell and its complement, labelled "r"; D as [re, im]
    # pairs, bit for bit those of decoherence_functional
    cfg = {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.2, "nbar": 0.5},
        "fock": {"n_fock": 20},
        "initial": {"kind": "coherent", "alpha": 0.7},
        "histories": {"times": [0.0], "h": 0.1, "dt_oracle": 1e-3,
                      "cells": [{"center": 0.7, "w_re": 0.8, "w_im": 0.8}]},
    }
    code, out = _run(tmp_path, "histories", cfg)
    assert code in (EXIT_PASS, EXIT_FAIL)
    _, tables = _check_outputs(out)
    doc = json.loads((out / "decoherence.json").read_text())
    assert doc["labels"] == ["0", "r"]
    ops = build_operators(warm_params, 20)
    psi = coherent_state(ops, 0.7)
    cells = (PhaseCell(center=0.7, w_re=0.8, w_im=0.8, h=0.1),)
    D = decoherence_functional(
        HistorySpec(times=(0.0,), cells=(cells,),
                    rho0=np.outer(psi, psi.conj())),
        ops, LindbladPropagatorConfig(dt_oracle=1e-3, t_end=0.0))
    got = np.array(doc["matrix"])
    assert got.shape == (2, 2, 2)
    assert (got[..., 0] + 1j * got[..., 1]).tolist() == D.matrix.tolist()
    assert doc["times"] == [0.0]
    assert doc["cell_areas_hbar"] == [[pytest.approx(8.0 * 0.64)]]
    assert tables["suppression.csv"][0] == ["label_a", "label_b", "ratio"]


def _undamped_histories_cfg():
    return {
        "params": {"m": 1.0, "omega": 1.0, "gamma": 0.0, "nbar": 0.0},
        "fock": {"n_fock": 20},
        "initial": {"kind": "cat", "alpha": 0.7},
        "histories": {
            "times": [0.0, 6.285],
            "cells": [
                {"center": 0.7, "w_re": 0.7, "w_im": 1.4286},
                {"center": -0.7, "w_re": 0.7, "w_im": 1.4286},
            ],
            "h": 0.12,
            "dt_oracle": 5e-3,
            "include_complement": False,
        },
    }


def test_histories_undamped_control_keeps_coherence(tmp_path):
    code, out = _run(tmp_path, "histories", _undamped_histories_cfg())
    assert code == EXIT_PASS
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "histories"
    assert manifest["passed"] is True
    assert manifest["stepping_loop"] is None   # no trajectory is stepped
    # gamma = 0 alone makes the run the control
    [check] = manifest["checks"]
    assert check["label"].startswith("control keeps coherence")


def test_failing_check_exits_one(tmp_path):
    # the control's cat under a weak damping is held to the suppression
    # bound; it keeps most of its coherence, so the check must fail
    cfg = _undamped_histories_cfg()
    cfg["params"]["gamma"] = 1e-3
    code, out = _run(tmp_path, "histories", cfg)
    assert code == EXIT_FAIL
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is False
    [check] = manifest["checks"]
    assert check["label"].startswith("max off-diagonal suppression ratio")


# Huge integers and a tiny positive value are refused before anything
# is sized by them: an ensemble size or a level count above its
# maximum, an integer beyond the float range, a step count above
# MAX_STEPS, a cell grid above MAX_CELL_AMPLITUDES and a quadrature
# width whose square is above MAX_WIDTH_SQ (m or omega at 1e-300).
_MUTATIONS = ["delete", "scale", "reverse", "repeat",
              0, -1, float("nan"), float("inf"), 1e308, "x", 8.0,
              10 ** 30, 10 ** 400, 1e-300]


def _paths(node, path=()):
    """The key path of every value in a JSON tree, containers included."""
    yield path
    if isinstance(node, (dict, list)):
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _paths(node[key], path + (key,))


def _mutate(node, key, mutation):
    """Apply one menu entry to node[key]; "scale" puts a number off its
    grid, "reverse" and "repeat" make a list descending or repeated."""
    value = node[key]
    if mutation == "delete":
        del node[key]
    elif mutation == "scale":
        # an integer too large for a float is left as it is
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            with contextlib.suppress(OverflowError):
                node[key] = value * 8 / 7
    elif mutation in ("reverse", "repeat"):
        if isinstance(value, list) and value:
            node[key] = value[::-1] if mutation == "reverse" \
                else value[:1] + value
    else:
        node[key] = mutation


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_no_config_mistake_escapes_main(data):
    command, name = data.draw(st.sampled_from(_EXPERIMENTS))
    cfg = _canned(name)
    if "integrator" in cfg:   # a short horizon and a small ensemble
        cfg["integrator"]["t_end"] = min(cfg["integrator"]["t_end"], 0.2)
    if "ensemble" in cfg:
        cfg["ensemble"]["m"] = min(cfg["ensemble"]["m"], 8)
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(cfg))[1:]))
        node = functools.reduce(operator.getitem, path[:-1], cfg)
        _mutate(node, path[-1], data.draw(st.sampled_from(_MUTATIONS)))
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = _run(Path(tmp), command, cfg)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERICAL)


def test_oracle_compare_exact_ensemble_fails_the_check(tmp_path, capsys):
    # no bath and the vacuum: every trajectory and the oracle stay at
    # the vacuum, so the distances can be exactly 0 and their ratio is
    # not a number; the check fails and main returns, with no traceback
    cfg = _canned("oracle_compare")
    cfg["integrator"]["t_end"] = 0.2
    cfg["ensemble"]["m"] = 8
    cfg["params"]["gamma"] = 0
    del cfg["initial"]["alpha"]
    code, out = _run(tmp_path, "oracle-compare", cfg)
    assert code == EXIT_FAIL
    assert "ratio nan" in capsys.readouterr().out
    assert (out / "oracle_compare.csv").exists()
