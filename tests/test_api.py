import dataclasses
import importlib
import inspect
import os
import pickle
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import latfold
import latfold.experiments
from latfold.cli import main

# The package's public functions, classes and constants. Adding or removing
# a public name means editing this list.
PUBLIC_API = [
    "A2", "ConfigurationError", "DN", "DegenerateSignalError", "E8",
    "EquivalentGains", "ExperimentConfig", "ExperimentResult", "FAMILIES",
    "InputRangeError", "NonFiniteInputError", "OobOperator", "RecoveryNumericalError",
    "RecoveryResult", "ScaledLattice", "SecondMomentEstimate", "SignalConfig",
    "UnsupportedLatticeError", "ZN", "add_noise", "b2r2_recover",
    "build_oob_operator", "check_recovery", "emit_tables", "emit_trajectory_demo",
    "equivalent_gains", "estimate_second_moment", "fold", "fold_iterative",
    "fold_signal", "folds_to_zero", "hod_recover", "in_voronoi_cell",
    "lasso_b2r2_recover", "lattice_quantize", "make_lattice",
    "make_test_signal", "mse_ratio", "nearest_point", "predicted_mse",
    "quantize_bench", "relevant_vectors", "run_sweep", "sample_uniform_cell",
    "scalar_quantize", "snap_to_lattice", "table1_report", "table3_config",
    "table4_config", "voronoi_cell_polygon",
]

# The channel and recovery stages take and return (K, n) sample arrays; the
# lattice and the solver settings are plain arguments.
PIPELINE_SIGNATURES = {
    "fold_signal": ["f", "lattice"],
    "add_noise": ["y", "snr_db", "seed"],
    "scalar_quantize": ["y", "bits", "lam"],
    "lattice_quantize": ["y", "lattice", "bits"],
    "hod_recover": ["y", "lattice", "order"],
    "b2r2_recover": ["y", "lattice", "oob", "support_margin", "bound"],
    "lasso_b2r2_recover": ["y", "lattice", "oob", "mu"],
    "check_recovery": ["p_hat", "p_true", "lattice"],
}

# Functions whose tolerances, retry bounds and modes are constants: every
# parameter is one a caller sets, and none has a default.
FIXED_KNOB_SIGNATURES = {
    latfold.sample_uniform_cell: ["lattice", "rng", "size"],
    latfold.in_voronoi_cell: ["lattice", "r"],
    latfold.fold_iterative: ["x", "lattice"],
    latfold.experiments.burst_signal: ["rng", "n_ch", "K", "m_max", "margin", "gamma",
                                       "lam", "leak_amp"],
    latfold.experiments.draw_margin_trial: ["seed_seq", "lattice", "n_ch", "K", "m_max",
                                            "margin", "gamma", "leak_amp"],
    latfold.experiments._start_in_cell_signal: ["cfg", "lattice"],
}

# The sweep's settable surface: the config fields and the long options of
# `latfold sweep`. Adding or removing a knob means editing these lists.
EXPERIMENT_CONFIG_FIELDS = [
    "name", "of_list", "snr_db_list", "bits_list", "architectures", "algorithm",
    "hod_order", "n_trials", "master_seed",
]
SWEEP_OPTIONS = [
    "--algorithm", "--config", "--dump-config", "--format",
    "--help", "--order", "--out", "--preset", "--seed", "--strict", "--trials",
    "--workers",
]


def test_public_api():
    assert sorted(latfold.__all__) == PUBLIC_API


def test_pipeline_signatures():
    for name, params in PIPELINE_SIGNATURES.items():
        assert list(inspect.signature(getattr(latfold, name)).parameters) == params, name


def test_fixed_knob_signatures():
    for func, params in FIXED_KNOB_SIGNATURES.items():
        sig = inspect.signature(func).parameters
        assert list(sig) == params, func.__name__
        assert all(p.default is p.empty for p in sig.values()), func.__name__


def test_experiment_config_fields():
    fields = [f.name for f in dataclasses.fields(latfold.ExperimentConfig)]
    assert fields == EXPERIMENT_CONFIG_FIELDS


def test_sweep_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert sorted(shown) == SWEEP_OPTIONS


def _exception_classes() -> list:
    """Every exception class that a ``latfold`` module defines."""
    found = set()
    for name in ("channels", "experiments", "lattices", "moments", "recovery", "signals"):
        module = importlib.import_module(f"latfold.{name}")
        found.update(v for v in vars(module).values() if isinstance(v, type)
                     and issubclass(v, Exception) and v.__module__ == module.__name__)
    return sorted(found, key=lambda cls: cls.__name__)


def test_every_exception_survives_pickling():
    # a forked worker sends its errors back pickled
    classes = _exception_classes()
    assert {"DemoRecoveryError", "RecoveryNumericalError"} <= {c.__name__ for c in classes}
    for cls in classes:
        exc = cls(7) if cls is latfold.RecoveryNumericalError else cls("bad value 7")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))
    assert pickle.loads(pickle.dumps(latfold.RecoveryNumericalError(7))).iteration == 7


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_python(args, **env):
    """Run a new interpreter on this ``latfold`` with no BLAS thread variable set."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    base["PYTHONPATH"] = str(Path(latfold.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], env={**base, **env},
                          capture_output=True, text=True, timeout=120)


def test_import_pins_blas_threads_unless_set():
    show = "import os, latfold; print([os.environ[v] for v in %r])" % (BLAS_VARS,)
    assert _fresh_python(["-c", show]).stdout.strip() == "['1', '1', '1']"
    kept = _fresh_python(["-c", show], OPENBLAS_NUM_THREADS="3")
    assert kept.stdout.strip() == "['3', '1', '1']"


def test_python_dash_m_runs_the_cli():
    proc = _fresh_python(["-m", "latfold", "table1", "--samples", "10000", "--format", "csv"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("name,n,G,std_err")


def test_fresh_sweep_same_for_one_and_two_workers():
    argv = ["-m", "latfold", "sweep", "--preset", "quantization", "--trials", "2"]
    with ThreadPoolExecutor(2) as ex:                   # the two interpreters at once
        one, two = ex.map(lambda w: _fresh_python([*argv, "--workers", w]), ("1", "2"))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout and one.stdout.startswith("of ")
    assert two.stderr == ""


def test_fresh_demo2d_same_for_one_and_two_workers(tmp_path):
    def demo(workers):
        out = tmp_path / workers
        proc = _fresh_python(["-m", "latfold", "demo2d", "--power-trials", "20",
                              "--out", str(out), "--workers", workers])
        return proc, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    with ThreadPoolExecutor(2) as ex:                   # the two interpreters at once
        (one, one_files), (two, two_files) = ex.map(demo, ("1", "2"))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout and '"power_ratio"' in one.stdout
    assert one_files == two_files and len(one_files) == 5
    assert two.stderr == ""


def test_import_loads_no_process_pool():
    code = ("import sys, latfold\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures.process')"
            " if m in sys.modules])")
    proc = _fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_demo2d_forks_no_worker_when_numpy_loaded_first(tmp_path):
    code = ("import numpy, os, sys, latfold\n"
            "def fork(): raise AssertionError('forked a worker')\n"
            "os.fork = fork\n"
            "s = latfold.emit_trajectory_demo(sys.argv[1], power_trials=20, workers=2)\n"
            "print(s['square']['iterations'] > 0, s['hexagon']['iterations'] > 0)")
    proc = _fresh_python(["-c", code, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True True"


def test_sweep_forks_no_worker_when_numpy_loaded_first():
    # the BLAS pin of `import latfold` then comes too late, and each forked
    # worker would spin up its own BLAS threads
    code = ("import numpy, os, latfold\n"
            "def fork(): raise AssertionError('forked a worker')\n"
            "os.fork = fork\n"
            "cfg = latfold.ExperimentConfig(of_list=(6, 8), snr_db_list=(None,), n_trials=1)\n"
            "print([c.rate for c in latfold.run_sweep(cfg, workers=2).cells])")
    proc = _fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[1.0, 1.0, 1.0, 1.0]"
