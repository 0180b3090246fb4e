import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import os
import re
import sys
import threading

import numpy as np
import pytest

from latfold import (E8, ConfigurationError, ExperimentConfig,
                     emit_tables, run_sweep, table3_config, table4_config)
from latfold.cli import main
from latfold.experiments import (DemoRecoveryError, concentration_modes, demo_power_ratio,
                                 emit_trajectory_demo, quantize_bench, trial_seed)


def _tiny_config(**kw):
    base = dict(of_list=(6,), snr_db_list=(None,), architectures=("square", "e8"),
                n_trials=3, master_seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_roundtrip(tmp_path):
    cfg = table3_config(n_trials=7, master_seed=3)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = ExperimentConfig.load(path)
    assert loaded == cfg
    raw = json.loads(path.read_text())
    assert raw["schema_version"] == 4


def test_config_rejects_unknown_schema():
    with pytest.raises(Exception):
        ExperimentConfig.from_dict({"schema_version": 99})


def test_config_reads_v1_dropping_tol():
    v3 = table3_config(n_trials=7).to_dict()
    lasso = {"lasso_mu": None, "max_iters": 5000}
    v1 = {**v3, **lasso, "schema_version": 1, "tol": 1e-10}
    assert ExperimentConfig.from_dict(v1) == table3_config(n_trials=7)
    v2 = {**v3, **lasso, "schema_version": 2}
    assert ExperimentConfig.from_dict(v2) == table3_config(n_trials=7)
    with pytest.raises(ConfigurationError, match="tol"):
        ExperimentConfig.from_dict({**v2, "tol": 1e-10})
    with pytest.raises(ConfigurationError, match="schema True"):     # not schema 1
        ExperimentConfig.from_dict({**v3, "schema_version": True, "tol": 1e-10})
    for key, value in lasso.items():
        with pytest.raises(ConfigurationError, match=key):
            ExperimentConfig.from_dict({**v3, key: value})


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="nope"):
        ExperimentConfig.from_dict({"nope": 1})


# the study constants as schemas up to 3 wrote them, and another value of each
STUDY_KEYS = {"n_channels": 8, "omega_max": 10.0, "duration": 2.0, "lam": 0.1,
              "dr_factor": 10.0, "guard": 0.04, "noise_law": "gaussian"}
OTHER_VALUES = {"n_channels": 4, "omega_max": 5.0, "duration": 1.0, "lam": 1.0,
                "dr_factor": 3.0, "guard": 0.2, "noise_law": "uniform"}


def test_config_reads_v3_study_constants():
    v3 = {**table3_config().to_dict(), **STUDY_KEYS, "schema_version": 3}
    assert len(v3) == 17
    assert ExperimentConfig.from_dict(v3) == table3_config()


@pytest.mark.parametrize("key", sorted(OTHER_VALUES))
def test_config_rejects_other_study_constant(key, tmp_path, capsys):
    for version in (3, 4):
        cfg = {**table3_config().to_dict(), key: OTHER_VALUES[key],
               "schema_version": version}
        with pytest.raises(ConfigurationError, match=re.escape(
                f"{key} is fixed at {STUDY_KEYS[key]!r}, got {OTHER_VALUES[key]!r}")):
            ExperimentConfig.from_dict(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(path)])
    assert exc.value.code == 2
    assert f"{key} is fixed at" in capsys.readouterr().err


def test_cli_dump_config_holds_no_study_constant(tmp_path):
    path = tmp_path / "cfg.json"
    assert main(["sweep", "--preset", "quantization", "--trials", "3",
                 "--dump-config", str(path)]) == 0
    raw = json.loads(path.read_text())
    assert not set(raw) & set(STUDY_KEYS)
    assert ExperimentConfig.load(path) == table4_config(n_trials=3)


def test_cli_sweep_flags_override_any_base_config(tmp_path):
    cfg_path, dumped = tmp_path / "cfg.json", tmp_path / "dumped.json"
    _tiny_config().save(cfg_path)
    assert main(["sweep", "--config", str(cfg_path), "--dump-config", str(dumped)]) == 0
    assert ExperimentConfig.load(dumped) == _tiny_config()       # master_seed 1 kept
    assert main(["sweep", "--config", str(cfg_path), "--seed", "5",
                 "--dump-config", str(dumped)]) == 0
    assert ExperimentConfig.load(dumped) == _tiny_config(master_seed=5)
    assert main(["sweep", "--preset", "quantization", "--seed", "3", "--trials", "4",
                 "--dump-config", str(dumped)]) == 0
    assert ExperimentConfig.load(dumped) == table4_config(n_trials=4, master_seed=3)


def test_cli_sweep_config_and_preset_exclusive(tmp_path, capsys):
    cfg_path, dumped = tmp_path / "cfg.json", tmp_path / "dumped.json"
    _tiny_config().save(cfg_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg_path), "--preset", "quantization",
              "--dump-config", str(dumped)])
    assert exc.value.code == 2
    assert "not allowed with argument --config" in capsys.readouterr().err
    assert not dumped.exists()


@pytest.mark.parametrize("argv,named", [
    (["table1", "--samples", "5000"], "need at least 1e4 samples, got 5000"),
    (["table1", "--workers", "0"], "workers must be an integer >= 1, got 0"),
    (["table1", "--workers", "-3"], "workers must be an integer >= 1, got -3"),
    (["demo2d", "--lam", "-1"], "inradius must be positive and finite, got -1.0"),
    (["demo2d", "--lam", "nan"], "inradius must be positive and finite, got nan"),
    (["demo2d", "--power-trials", "0"], "power_trials must be an integer >= 1, got 0"),
    (["quantize-bench", "--bits", "2,x"], "'2,x'"),
    (["quantize-bench", "--bits", "30"], "bits must be an integer in 1..24, got 30"),
    (["sweep", "--config", "NOT_UTF8"], "NOT_UTF8: not valid JSON"),
    *[([command, "--seed", "-1"], "seed must be a non-negative integer, got '-1'")
      for command in ("table1", "sweep", "demo2d", "quantize-bench")],
    (["sweep", "--seed", "4294967296"], "master_seed must be in 0..4294967295, got 4294967296"),
    (["sweep", "--workers", "0"], "workers must be an integer >= 1, got 0"),
    (["sweep", "--workers", "-3"], "workers must be an integer >= 1, got -3"),
    (["demo2d", "--workers", "0"], "workers must be an integer >= 1, got 0"),
    (["demo2d", "--workers", "-3"], "workers must be an integer >= 1, got -3"),
])
def test_cli_bad_input_exits_2_before_any_output(argv, named, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    argv = [str(bad) if a == "NOT_UTF8" else a for a in argv]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert named.replace("NOT_UTF8", str(bad)) in capsys.readouterr().err
    assert not out.exists()


def test_trial_seed_stability():
    a = trial_seed(5, 4, "snr", 30.0, 2).entropy
    b = trial_seed(5, 4, "snr", 30.0, 2).entropy
    assert a == b
    assert trial_seed(5, 4, "snr", 25.0, 2).entropy != a
    assert trial_seed(5, 6, "snr", 30.0, 2).entropy != a


def test_sweep_noiseless_tiny():
    result = run_sweep(_tiny_config())
    assert len(result.cells) == 2
    for c in result.cells:
        assert c.error is None
        assert c.rate == 1.0
        assert c.level_kind == "clean"


def test_sweep_deterministic():
    cfg = _tiny_config(snr_db_list=(25.0,))
    r1 = run_sweep(cfg)
    r2 = run_sweep(cfg)
    for a, b in zip(r1.cells, r2.cells):
        assert a.rate == b.rate
        assert a.n_success == b.n_success
        assert a.mse_mean == b.mse_mean


@pytest.mark.parametrize("field,value,named", [
    ("of_list", (6, 3), "oversampling factor 3"),
    ("architectures", ("square", "hex"), "architecture 'hex'"),
    ("algorithm", "nope", "algorithm 'nope'"),
    ("n_trials", 0, "n_trials must be >= 1, got 0"),
    ("snr_db_list", (25, -5), "snr_db must be positive and finite, got -5"),
    ("bits_list", (0,), "bits must be an integer in 1..24, got 0"),
    ("bits_list", (4, 25), "bits must be an integer in 1..24, got 25"),
    ("bits_list", (2.5,), "bits must be an integer in 1..24, got 2.5"),
    ("algorithm", "lasso", "algorithm 'lasso'"),
    ("bits_list", (4,), "architecture 'square' has no quantizer for bits_list"),
    ("snr_db_list", (math.inf,), "snr_db must be positive and finite, got inf"),
    ("bits_list", (math.inf,), "bits must be an integer in 1..24, got inf"),
    ("master_seed", -1, "master_seed must be in 0..4294967295, got -1"),
    ("master_seed", 2**32, "master_seed must be in 0..4294967295, got 4294967296"),
    ("bits_list", (None,), "level ('clean', None) is repeated"),     # snr_db_list has None
    ("snr_db_list", (25, 25.0), "level ('snr', 25.0) is repeated"),
    ("of_list", (6, 6.0), "oversampling factor 6.0 is repeated"),
    ("architectures", ("e8", "square", "e8"), "architecture 'e8' is repeated"),
    ("snr_db_list", (20, 25, 25.0004), "snr levels 25 and 25.0004 share their trial seeds"),
])
def test_sweep_rejects_bad_config_up_front(field, value, named, monkeypatch):
    import latfold.experiments as experiments
    monkeypatch.setattr(experiments, "_run_cell_trials",
                        lambda *a: pytest.fail("a cell ran before the config check"))
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        run_sweep(_tiny_config(**{field: value}))


@pytest.mark.parametrize("order", [0, 2.5, True])
def test_sweep_rejects_bad_hod_order_up_front(order, monkeypatch):
    import latfold.experiments as experiments
    monkeypatch.setattr(experiments, "_run_cell_trials",
                        lambda *a: pytest.fail("a cell ran before the config check"))
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"hod_order must be an integer >= 1, got {order!r}")):
        run_sweep(_tiny_config(algorithm="hod", hod_order=order))


def test_cli_sweep_reports_bad_config(tmp_path, capsys):
    bad_of = tmp_path / "of.json"
    bad_of.write_text(json.dumps({**_tiny_config().to_dict(), "of_list": [3]}))
    bad_key = tmp_path / "key.json"
    bad_key.write_text(json.dumps({"schema_version": 2, "nope": 1}))
    dumped = tmp_path / "dumped.json"
    for argv, named in (
            (["--config", str(bad_of)], "oversampling factor 3"),
            (["--config", str(bad_key)], "nope"),
            (["--algorithm", "hod", "--order", "0"], "hod_order must be an integer >= 1, got 0"),
            (["--trials", "0", "--dump-config", str(dumped)], "n_trials must be >= 1, got 0")):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *argv])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
    assert not dumped.exists()


def test_config_is_immutable():
    cfg = table3_config()
    for key, value in (("guard", 0.2), ("n_trials", 3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, key, value)
    assert (cfg.guard, cfg.n_trials) == (0.04, 50)
    assert "guard" not in cfg.to_dict()
    with pytest.raises(ConfigurationError, match=re.escape("n_trials must be >= 1, got 0")):
        dataclasses.replace(cfg, n_trials=0)


def test_config_lists_and_tuples_are_one_config(tmp_path):
    lists = ExperimentConfig(of_list=[6], snr_db_list=[25, None], bits_list=[],
                             architectures=["e8"])
    tuples = ExperimentConfig(of_list=(6,), snr_db_list=(25, None), bits_list=(),
                              architectures=("e8",))
    assert lists == tuples and hash(lists) == hash(tuples)
    path = tmp_path / "cfg.json"
    lists.save(path)
    assert ExperimentConfig.load(path) == tuples


@pytest.mark.parametrize("key,value,named", [
    ("n_trials", "3", "n_trials must be an integer, got '3'"),
    ("n_trials", True, "n_trials must be an integer, got True"),
    ("master_seed", "x", "master_seed must be an integer, got 'x'"),
    ("of_list", 6, "of_list must be a list, got 6"),
    ("bits_list", [True], "bits must be an integer in 1..24, got True"),
    ("snr_db_list", [True], "snr_db must be positive and finite, got True"),
    ("snr_db_list", [math.inf], "snr_db must be positive and finite, got inf"),   # JSON Infinity
    ("bits_list", [math.inf], "bits must be an integer in 1..24, got inf"),
])
def test_config_rejects_bad_type_up_front(key, value, named, tmp_path, capsys, monkeypatch):
    import latfold.experiments as experiments
    monkeypatch.setattr(experiments, "_run_cell_trials",
                        lambda *a: pytest.fail("a cell ran before the config check"))
    raw = {**_tiny_config().to_dict(), key: value}
    for build in (lambda: ExperimentConfig.from_dict(raw),
                  lambda: dataclasses.replace(_tiny_config(), **{key: value})):
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            build()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(path)])
    assert exc.value.code == 2
    assert f"{path}: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("text,named", [
    ("[]", "a config must be a JSON object, got list"),
    ('"abc"', "a config must be a JSON object, got str"),
    ("5", "a config must be a JSON object, got int"),
    ('{"n_trials": 3', "not valid JSON"),
])
def test_cli_sweep_rejects_config_file_not_an_object(text, named, tmp_path, capsys,
                                                     monkeypatch):
    import latfold.experiments as experiments
    monkeypatch.setattr(experiments, "_run_cell_trials",
                        lambda *a: pytest.fail("a cell ran before the config check"))
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(path)])
    assert exc.value.code == 2
    assert f"{path}: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("name,reason", [("missing.json", "No such file or directory"),
                                         (".", "Is a directory")])
def test_cli_sweep_rejects_unreadable_config_file(name, reason, tmp_path, capsys):
    path = tmp_path / name
    with pytest.raises(ConfigurationError, match=re.escape(f"cannot read {path}: {reason}")):
        ExperimentConfig.load(path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(path)])
    assert exc.value.code == 2
    assert f"cannot read {path}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--mu", "--max-iters"])
def test_cli_sweep_rejects_removed_lasso_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", flag, "0.1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_sweep_rejects_removed_guard_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--guard", "0.1"])
    assert exc.value.code == 2
    assert "--guard" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["demo2d", "quantize-bench"])
def test_cli_json_only_commands_reject_format(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_hod_sweep_rates_pinned():
    # HOD needs OF >= 6 on the 8-channel burst study, for both lattices
    cfg = ExperimentConfig(algorithm="hod", snr_db_list=(20, 30, None),
                           architectures=("square", "e8"), n_trials=5,
                           master_seed=0)
    cells = run_sweep(cfg).cells
    assert len(cells) == 4 * 3 * 2
    for c in cells:
        assert c.error is None and c.algorithm == "hod"
        assert c.rate == (0.0 if c.of in (2, 4) else 1.0), c


def test_cli_out_writes_what_stdout_shows(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _tiny_config(n_trials=2).save(cfg_path)
    for argv in (["sweep", "--config", str(cfg_path), "--format", "csv"],
                 ["table1", "--samples", "10000", "--format", "json"],
                 ["quantize-bench", "--samples", "2000"]):
        assert main(argv) == 0
        shown = capsys.readouterr().out
        assert shown
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == shown


def test_noise_seed_built_only_for_snr_cells(monkeypatch):
    import latfold.experiments as experiments
    calls = []
    original = experiments.noise_seed
    monkeypatch.setattr(experiments, "noise_seed",
                        lambda *a: calls.append(a) or original(*a))
    run_sweep(_tiny_config(snr_db_list=(), bits_list=(6, None), n_trials=2,
                           architectures=("sq+sqq", "e8+e8q")), workers=1)
    assert calls == []
    run_sweep(_tiny_config(snr_db_list=(25, None), n_trials=2), workers=1)
    assert sorted({a[2] for a in calls}) == ["snr"]
    assert len(calls) == 2 * 2                # architectures x trials


def test_concentration_modes_memoized_read_only():
    modes = concentration_modes(120, 19, 60)
    assert concentration_modes(120, 19, 60) is modes
    assert modes.shape == (120, 38)
    assert not modes.flags.writeable
    assert np.allclose(np.abs(modes).max(axis=0), 1.0)


def test_sweep_csv_pinned():
    # digests of the preset tables at 2 trials, seeds 0 and 3: any change to
    # the trial pipeline that moves a single outcome or MSE digit shows here
    for make, seed, digest in (
            (table3_config, 0, "bdced0a6001186901a4f38d8a1f45fb950d59117e6f17307c07a8cc58cf59478"),
            (table4_config, 0, "0f3fc7474ca9f8a5ed5611dd8beecff32e189e6c9ab533b5bdff44f2526bd862"),
            (table3_config, 3, "c776a1b907d0f33416b284b13ac3254d6605b78fc1a99b944747ca05803a2fae"),
            (table4_config, 3, "4f7044421f2dea3a21bf962a15031689b2a9095e609b938d280013d7149e9b00")):
        out = emit_tables(run_sweep(make(n_trials=2, master_seed=seed)), "csv")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_mixed_grid_csv_pinned():
    # two architectures share each E8 draw beside one that folds with Z^n:
    # a change to how a group shares its draws that moves any digit shows here
    cfg = ExperimentConfig(of_list=(4, 6), snr_db_list=(), bits_list=(4, 8, None),
                           architectures=("sq+sqq", "e8+sqq", "e8+e8q"), n_trials=3,
                           master_seed=2)
    out = emit_tables(run_sweep(cfg), "csv")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "7cdab48b5e59f93cfcdb85c59f3338f212cca9d7286551253df10c00f86b9959"


def test_shared_draws_leave_rows_unchanged(monkeypatch):
    import latfold.experiments as experiments
    grid = dict(of_list=(4, 6), snr_db_list=(), bits_list=(4, None), n_trials=3,
                master_seed=2)

    def rows(archs, arch):
        out = emit_tables(run_sweep(ExperimentConfig(architectures=archs, **grid), workers=1),
                          "csv")
        return [r for r in out.splitlines() if f",{arch}," in r]

    alone = rows(("e8+e8q",), "e8+e8q")
    draws = []
    original = experiments.draw_folded
    monkeypatch.setattr(experiments, "draw_folded",
                        lambda *a: draws.append(a) or original(*a))
    assert rows(("e8+sqq", "e8+e8q"), "e8+e8q") == alone
    assert len(alone) == 4 and len(draws) == 4 * 3       # one draw per group and trial


def test_failed_draws_stay_cell_errors(monkeypatch):
    import latfold.experiments as experiments

    def bad_lattice(family, n, lam):
        raise ConfigurationError("inradius must be positive, got -1.0")

    with monkeypatch.context() as m:
        m.setattr(experiments, "make_lattice", bad_lattice)
        bad_lam = run_sweep(_tiny_config())
    assert [c.error for c in bad_lam.cells] == \
        ["ConfigurationError: inradius must be positive, got -1.0"] * 2
    original = experiments.draw_margin_trial

    def fail_second_e8_trial(seed, lattice, *a):
        if lattice.family == E8 and seed.entropy[-1] == 1:
            raise ConfigurationError("could not draw a fold-free margin signal")
        return original(seed, lattice, *a)

    monkeypatch.setattr(experiments, "draw_margin_trial", fail_second_e8_trial)
    square, e8 = run_sweep(_tiny_config()).cells
    assert square.error is None and square.rate == 1.0
    assert e8.error == "ConfigurationError: could not draw a fold-free margin signal"


# one grid per recovery path; OF 8 comes first in the pool, not in the grid
_POOL_GRIDS = {
    "additive": dict(of_list=(4, 8), snr_db_list=(25, None), architectures=("square", "e8")),
    "quantization": dict(of_list=(6, 8), snr_db_list=(), bits_list=(4, 8),
                         architectures=("sq+sqq", "e8+sqq", "e8+e8q")),
    "hod": dict(of_list=(6, 8), snr_db_list=(30, None), algorithm="hod"),
}


@pytest.mark.parametrize("grid", sorted(_POOL_GRIDS))
def test_tables_same_for_every_worker_count(grid):
    cfg = _tiny_config(n_trials=1, master_seed=4, **_POOL_GRIDS[grid])
    tables = {w: [emit_tables(run_sweep(cfg, workers=w), fmt) for fmt in ("csv", "json")]
              for w in (1, 2, 7)}                     # 7: more workers than the 4 groups
    assert tables[2] == tables[1] and tables[7] == tables[1]
    assert multiprocessing.active_children() == []


def _fail_e8_at_of8(monkeypatch):
    """Make every e8 trial at OF 8 raise, naming the process that ran it."""
    import latfold.experiments as experiments
    original = experiments.run_trial

    def run_trial(cfg, of, kind, level, arch, *a):
        if arch == "e8" and of == 8:
            raise RuntimeError(f"trial in process {os.getpid()}")
        return original(cfg, of, kind, level, arch, *a)

    monkeypatch.setattr(experiments, "run_trial", run_trial)     # forked workers inherit it


@pytest.mark.parametrize("workers", [1, 2])
def test_cell_error_in_worker_stays_that_cell(workers, monkeypatch):
    _fail_e8_at_of8(monkeypatch)
    cells = run_sweep(_tiny_config(of_list=(6, 8), snr_db_list=(25, None), n_trials=2),
                      workers=workers).cells
    assert multiprocessing.active_children() == []
    failed = [c for c in cells if c.error]
    assert [(c.of, c.architecture) for c in failed] == [(8, "e8")] * 2
    assert all(c.n_success == 0 and c.mse_mean is None for c in failed)
    assert all(c.error is None for c in cells if c not in failed)
    pids = {int(c.error.rsplit(" ", 1)[1]) for c in failed}
    if workers == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids                  # the forked workers ran them


def test_sweep_forks_no_worker_while_another_thread_runs(monkeypatch):
    _fail_e8_at_of8(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        cells = run_sweep(_tiny_config(of_list=(6, 8), n_trials=2), workers=2).cells
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert [c.error for c in cells if c.error] == [f"RuntimeError: trial in process {os.getpid()}"]


def test_cli_strict_sweep_leaves_no_worker(monkeypatch, tmp_path, capsys):
    _fail_e8_at_of8(monkeypatch)
    cfg_path = tmp_path / "cfg.json"
    _tiny_config(of_list=(6, 8), n_trials=2).save(cfg_path)
    assert main(["sweep", "--config", str(cfg_path), "--workers", "2", "--strict"]) == 1
    assert multiprocessing.active_children() == []
    assert "cell error: OF=8 clean=None e8: RuntimeError" in capsys.readouterr().err


def test_emit_csv_byte_stable():
    cfg = _tiny_config()
    out1 = emit_tables(run_sweep(cfg), fmt="csv")
    out2 = emit_tables(run_sweep(cfg), fmt="csv")
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header.startswith("of,level_kind,level,architecture")


def test_emit_empty_sweep_header_only():
    for cfg in (_tiny_config(of_list=(), architectures=("square",)),
                _tiny_config(architectures=())):
        result = run_sweep(cfg)
        assert result.cells == ()
        assert emit_tables(result, fmt="csv").count("\n") == 1


def test_emit_json_and_text_forms():
    result = run_sweep(_tiny_config())
    payload = json.loads(emit_tables(result, fmt="json"))
    assert payload["config"]["schema_version"] == 4
    assert len(payload["cells"]) == 2
    text = emit_tables(result, fmt="text")
    assert "architecture" in text.splitlines()[0]


def test_quantize_bench_values():
    rep = quantize_bench(n_samples=60000, seed=0, bits=(2, 4))
    for name in ("z", "a2", "d4", "e8"):
        for b, row in rep["matched"][name].items():
            assert row["ratio"] == pytest.approx(1.0, abs=0.03)
    for b, row in rep["mismatched"].items():
        assert row["ratio"] == pytest.approx(1.0, abs=0.02)
    with pytest.raises(ConfigurationError, match="bits must be an integer in 1..24, got inf"):
        quantize_bench(bits=(math.inf,))


def test_demo_power_ratio_matches_second_moment():
    ratio = demo_power_ratio(lam=1.0, n_trials=60, seed=0)
    assert ratio == pytest.approx(5.0 / 6.0, abs=0.03)


def test_demo2d_outputs(tmp_path):
    summary = emit_trajectory_demo(tmp_path, seed=0, lam=1.0, power_trials=20)
    for name in ("square", "hexagon"):
        assert summary[name]["max_error"] <= 1e-8 * summary[name]["peak"]
        csv = (tmp_path / f"demo2d_{name}.csv").read_text().splitlines()
        assert csv[0] == "t,orig0,orig1,folded0,folded1,rec0,rec1"
        assert len(csv) == 121
    hexpoly = np.loadtxt(tmp_path / "cell_hexagon.csv", delimiter=",",
                         skiprows=1)
    assert hexpoly.shape == (7, 2)
    assert (tmp_path / "demo2d_summary.json").exists()


def test_demo2d_outputs_pinned(tmp_path):
    # digests of every demo output file at seeds 0 and 7: any change to the
    # test signal, the fold or the LASSO that moves a single written digit
    # shows here (the cell outlines do not depend on the seed)
    cells = {
        "cell_hexagon.csv": "cd2ec4680bd054fa27ad1f92ddd1b44b11a31b4345a76efc8b6d515cb37bd8ed",
        "cell_square.csv": "86c87ce48aff026e4a3b8e1c55ac4f68b2105b555fd81d75755032a147bcbec9",
    }
    pinned = {
        0: {"demo2d_hexagon.csv": "6e7be587e7a6c3c48fce85dc0def76990fb487bc27e3ec3abacc65cc0090b218",
            "demo2d_square.csv": "ba97fc32f983291846e4ebb615ad5371cbe63f46c1ba384ba00d90f357e70ebc",
            "demo2d_summary.json": "f9a374f04fc07b2326168780b6eaeccd34df6ef730fb8649c6988b17a721dc86"},
        7: {"demo2d_hexagon.csv": "bfa19b84e86eac4eebc9a3bad2cf016f3288d7c3d67b2a79f65fe5da900332ed",
            "demo2d_square.csv": "0379a82c42204dcde78f011fca4342a075fe6ed95b9b8aee30bc1a8ff97c54e5",
            "demo2d_summary.json": "f45f59b2697850affb0cbe98e2752c8c4277104163d552f7f51663028227d483"},
    }
    for seed, digests in pinned.items():
        out = tmp_path / str(seed)
        emit_trajectory_demo(out, seed=seed, lam=1.0, power_trials=20)
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
        assert got == {**cells, **digests}


@pytest.mark.parametrize("workers", [1, 2])
def test_demo2d_outputs_pinned_for_every_worker_count(workers, tmp_path, monkeypatch):
    # the pinned digests above, with the demo run in-process and forked
    monkeypatch.setattr(sys.modules[__name__], "emit_trajectory_demo",
                        functools.partial(emit_trajectory_demo, workers=workers))
    test_demo2d_outputs_pinned(tmp_path)
    assert multiprocessing.active_children() == []


def test_demo2d_failure_same_for_every_worker_count(tmp_path):
    # seed 138 fails on the hexagon: the square's files stay, as in serial order
    seen = {}
    for workers in (1, 2):
        out = tmp_path / str(workers)
        with pytest.raises(DemoRecoveryError) as exc:
            emit_trajectory_demo(out, seed=138, lam=1.0, power_trials=20, workers=workers)
        assert multiprocessing.active_children() == []
        seen[workers] = (str(exc.value), {p.name: p.read_bytes() for p in out.iterdir()})
    assert seen[2] == seen[1]
    assert seen[1][0].startswith("hexagon: reconstruction error")
    assert sorted(seen[1][1]) == ["cell_square.csv", "demo2d_square.csv"]


def test_demo2d_forks_no_worker_while_another_thread_runs(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("forked a worker")

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        summary = emit_trajectory_demo(tmp_path, seed=0, lam=1.0, power_trials=20, workers=2)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert summary == json.loads((tmp_path / "demo2d_summary.json").read_text())
    assert multiprocessing.active_children() == []


@pytest.mark.xfail(strict=True, raises=DemoRecoveryError,
                   reason="hexagon LASSO ends off by lattice vectors on seed 138")
def test_demo2d_seed_138_recovers(tmp_path):
    emit_trajectory_demo(tmp_path, seed=138, lam=1.0, power_trials=20)


def test_table4_preset_architectures():
    cfg = table4_config()
    assert set(cfg.architectures) == {"sq+sqq", "e8+sqq", "e8+e8q"}
    assert cfg.bits_list[-1] is None


def test_rate_monotone_in_snr():
    cfg = _tiny_config(of_list=(6,), snr_db_list=(15.0, 25.0, None),
                       architectures=("e8",), n_trials=12)
    result = run_sweep(cfg)
    by_level = {c.level: c.rate for c in result.cells}
    assert by_level[15.0] <= by_level[25.0] <= by_level[None]


def test_rate_monotone_in_bits():
    cfg = _tiny_config(of_list=(6,), snr_db_list=(),
                       bits_list=(2, 6, None), architectures=("e8+e8q",),
                       n_trials=10)
    result = run_sweep(cfg)
    by_level = {c.level: c.rate for c in result.cells}
    assert by_level[2.0] <= by_level[6.0] <= by_level[None]
