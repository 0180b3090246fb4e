import hashlib
import json
import re

import numpy as np
import pytest

from latfold import (E8, ZN, ConfigurationError, ExperimentConfig,
                     emit_tables, run_sweep, table3_config, table4_config)
from latfold.cli import main
from latfold.experiments import (DemoRecoveryError, _shared_draws,
                                 concentration_modes, demo_power_ratio,
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
    assert raw["schema_version"] == 2


def test_config_rejects_unknown_schema():
    with pytest.raises(Exception):
        ExperimentConfig.from_dict({"schema_version": 99})


def test_config_reads_v1_dropping_tol():
    v1 = {**table3_config(n_trials=7).to_dict(), "schema_version": 1, "tol": 1e-10}
    assert ExperimentConfig.from_dict(v1) == table3_config(n_trials=7)
    v2 = {**v1, "schema_version": 2}
    with pytest.raises(ConfigurationError, match="tol"):
        ExperimentConfig.from_dict(v2)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="nope"):
        ExperimentConfig.from_dict({"nope": 1})


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


def test_sweep_bad_architecture_is_cell_error():
    cfg = _tiny_config(bits_list=(4,), snr_db_list=(), architectures=("square",))
    # "square" has no quantizer: the bits cell must fail gracefully
    result = run_sweep(cfg)
    bits_cells = [c for c in result.cells if c.level_kind == "bits"]
    assert bits_cells and all(c.error for c in bits_cells)


@pytest.mark.parametrize("field,value,named", [
    ("of_list", (6, 3), "oversampling factor 3"),
    ("architectures", ("square", "hex"), "architecture 'hex'"),
    ("algorithm", "nope", "algorithm 'nope'"),
    ("n_trials", 0, "n_trials must be >= 1, got 0"),
    ("snr_db_list", (25, -5), "snr_db must be positive (or inf), got -5"),
    ("bits_list", (0,), "bits must be an integer in 1..24 or inf, got 0"),
    ("bits_list", (4, 25), "bits must be an integer in 1..24 or inf, got 25"),
    ("bits_list", (2.5,), "bits must be an integer in 1..24 or inf, got 2.5"),
])
def test_sweep_rejects_bad_config_up_front(field, value, named, monkeypatch):
    import latfold.experiments as experiments
    monkeypatch.setattr(experiments, "_run_cell_trials",
                        lambda *a: pytest.fail("a cell ran before the config check"))
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        run_sweep(_tiny_config(**{field: value}))


def test_cli_sweep_reports_bad_config(tmp_path, capsys):
    bad_of = tmp_path / "of.json"
    _tiny_config(of_list=(3,)).save(bad_of)
    bad_key = tmp_path / "key.json"
    bad_key.write_text(json.dumps({"schema_version": 2, "nope": 1}))
    for path, named in ((bad_of, "oversampling factor 3"), (bad_key, "nope")):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(path)])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err


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
    run_sweep(_tiny_config(snr_db_list=(), bits_list=(6, None), n_trials=2))
    assert calls == []
    run_sweep(_tiny_config(snr_db_list=(25, None), n_trials=2))
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


def test_shared_draws_leave_rows_unchanged(monkeypatch):
    import latfold.experiments as experiments
    grid = dict(of_list=(4, 6), snr_db_list=(), bits_list=(4, None), n_trials=3,
                master_seed=2)

    def rows(archs, arch):
        out = emit_tables(run_sweep(ExperimentConfig(architectures=archs, **grid)), "csv")
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
    bad_lam = run_sweep(_tiny_config(lam=-1.0))
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


def test_shared_draws_are_read_only():
    cfg = _tiny_config(architectures=("e8+sqq", "sq+sqq", "e8+e8q"), n_trials=2)
    draws = _shared_draws(cfg, 6, "clean", None)
    assert sorted(draws) == [(E8, 0), (E8, 1), (ZN, 0), (ZN, 1)]
    for _, (y, p_true) in draws.values():
        for a in (y, p_true):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
    with pytest.raises(TypeError):
        draws[E8, 0] = None
    assert _shared_draws(_tiny_config(architectures=()), 6, "clean", None) == {}
    assert run_sweep(_tiny_config(architectures=())).cells == ()


def test_emit_csv_byte_stable():
    cfg = _tiny_config()
    out1 = emit_tables(run_sweep(cfg), fmt="csv")
    out2 = emit_tables(run_sweep(cfg), fmt="csv")
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header.startswith("of,level_kind,level,architecture")


def test_emit_empty_sweep_header_only():
    cfg = _tiny_config(of_list=(), architectures=("square",))
    out = emit_tables(run_sweep(cfg), fmt="csv")
    assert out.count("\n") == 1


def test_emit_json_and_text_forms():
    result = run_sweep(_tiny_config())
    payload = json.loads(emit_tables(result, fmt="json"))
    assert payload["config"]["schema_version"] == 2
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
