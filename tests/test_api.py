import dataclasses
import importlib
import inspect
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
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
    "make_test_signal", "mse_ratio", "nearest_point", "quantize_bench",
    "relevant_vectors", "run_sweep", "sample_uniform_cell",
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
    latfold.experiments._start_in_cell_signal: ["cfg", "lattice", "anchors"],
}

# The sweep's settable surface: the config fields and the long options of
# `latfold sweep`. Adding or removing a knob means editing these lists.
EXPERIMENT_CONFIG_FIELDS = [
    "name", "of_list", "snr_db_list", "bits_list", "architectures", "algorithm",
    "hod_order", "n_trials", "master_seed",
]
SWEEP_OPTIONS = [
    "--algorithm", "--config", "--dump-config", "--format",
    "--help", "--order", "--out", "--preset", "--seed", "--trials",
]

# The fields a caller sets on a test signal; the band, the component count
# and the duration are class constants.
SIGNAL_CONFIG_FIELDS = ["n_channels", "of", "dr_factor", "seed", "complex_pair"]


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


def test_cpu_set_is_the_only_worker_control():
    # every pool sizes itself from the process's CPU set; no parameter overrides it
    for name in latfold.__all__:
        value = getattr(latfold, name)
        if inspect.isfunction(value):
            assert "workers" not in inspect.signature(value).parameters, name
    assert list(inspect.signature(latfold.moments._worker_count).parameters) == []


def _zn(n: int):
    return latfold.make_lattice(latfold.ZN, n, 1.0)


@pytest.mark.parametrize("call,named", [
    (lambda: latfold.hod_recover(np.zeros((4, 1)), _zn(1), 1.5),
     "order must be an integer >= 1, got 1.5"),
    (lambda: latfold.hod_recover(np.zeros((4, 1)), _zn(1), True),
     "order must be an integer >= 1, got True"),
    (lambda: latfold.estimate_second_moment(_zn(1), 1e5, 0),
     "n_samples must be an integer >= 10000, got 100000.0"),
    (lambda: latfold.table1_report(1e5), "n_samples must be an integer >= 10000, got 100000.0"),
    (lambda: latfold.SignalConfig(n_channels=0), "n_channels must be an integer >= 1, got 0"),
    (lambda: latfold.sample_uniform_cell(_zn(2), np.random.default_rng(0), 2.7),
     "size must be an integer >= 1, got 2.7"),
], ids=["hod_order_float", "hod_order_bool", "second_moment_samples", "table1_samples",
        "signal_channels_0",
        "sample_cell_size_float"])
def test_counts_are_checked_up_front(call, named):
    # a bool, a float or a count below the minimum fails at once, naming the parameter
    with pytest.raises(latfold.ConfigurationError, match=re.escape(named)):
        call()


def test_experiment_config_fields():
    fields = [f.name for f in dataclasses.fields(latfold.ExperimentConfig)]
    assert fields == EXPERIMENT_CONFIG_FIELDS


def test_signal_config_fields():
    assert [f.name for f in dataclasses.fields(latfold.SignalConfig)] == SIGNAL_CONFIG_FIELDS
    cfg = latfold.SignalConfig(n_channels=1)
    assert (cfg.n_components, cfg.omega_max, cfg.duration) == (14, 10.0, 1.0)
    with pytest.raises(TypeError):
        latfold.SignalConfig(n_channels=1, omega_max=5.0)


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
        exc = cls("bad value 7")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_env(**env) -> dict:
    """The environment of a new interpreter on this ``latfold``, no BLAS thread variable set."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    base["PYTHONPATH"] = str(Path(latfold.__file__).resolve().parents[1])
    return {**base, **env}


def _fresh_python(args, **env):
    """Run a new interpreter on this ``latfold`` with no BLAS thread variable set."""
    return subprocess.run([sys.executable, *args], env=_fresh_env(**env),
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


def _latfold_on(cpus: int, args) -> list:
    """Arguments to a new interpreter: ``python -m latfold`` on ``cpus`` of this one's CPUs."""
    pin = ("import os, runpy; os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:%d]); "
           "runpy.run_module('latfold', run_name='__main__')" % cpus)
    return ["-c", pin, *args]


def _fresh_latfold(args, cpus: int):
    return _fresh_python(_latfold_on(cpus, args))


def test_fresh_sweep_same_for_one_and_two_workers():
    argv = ["sweep", "--preset", "quantization", "--trials", "2"]
    with ThreadPoolExecutor(2) as ex:                   # the two interpreters at once
        one, two = ex.map(lambda cpus: _fresh_latfold(argv, cpus), (1, 2))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout and one.stdout.startswith("of ")
    assert two.stderr == ""


def test_fresh_demo2d_same_for_one_and_two_workers(tmp_path):
    def demo(cpus):
        out = tmp_path / str(cpus)
        proc = _fresh_latfold(["demo2d", "--power-trials", "20", "--out", str(out)], cpus)
        return proc, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    with ThreadPoolExecutor(2) as ex:                   # the two interpreters at once
        (one, one_files), (two, two_files) = ex.map(demo, (1, 2))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout and '"power_ratio"' in one.stdout
    assert one_files == two_files and len(one_files) == 5
    assert two.stderr == ""


def test_import_loads_no_process_pool():
    # nor scipy, which only the sweep uses: it is half of a command's start-up
    for module in ("latfold", "latfold.cli"):
        code = (f"import sys, {module}\n"
                "print([m for m in ('multiprocessing', 'concurrent.futures.process', 'scipy')"
                " if m in sys.modules])")
        proc = _fresh_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


def test_commands_other_than_sweep_load_no_scipy(tmp_path):
    code = ("import sys\n"
            "from latfold.cli import main\n"
            "out = sys.argv[1]\n"
            "for argv in (['table1', '--samples', '10000'],\n"
            "             ['demo2d', '--power-trials', '20', '--out', out + '/demo'],\n"
            "             ['quantize-bench', '--samples', '1000'],\n"
            "             ['sweep', '--dump-config', out + '/cfg.json']):\n"
            "    assert main(argv) == 0, argv\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'], file=sys.stderr)")
    proc = _fresh_python(["-c", code, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"
    assert (tmp_path / "cfg.json").exists() and len(list((tmp_path / "demo").iterdir())) == 5


def test_sweep_loads_scipy_before_it_forks():
    # forked workers share the parent's modules; workers that each imported
    # scipy themselves cut the sweep's throughput by a third
    code = ("import os, sys, latfold\n"
            "fork, seen = os.fork, []\n"
            "def record():\n"
            "    seen.append('scipy.linalg' in sys.modules)\n"
            "    return fork()\n"
            "os.fork = record\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "cfg = latfold.ExperimentConfig(of_list=(6, 8), snr_db_list=(None,), n_trials=1)\n"
            "print([c.rate for c in latfold.run_sweep(cfg).cells], seen)")
    proc = _fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[1.0, 1.0, 1.0, 1.0] [True, True]"


def test_demo2d_forks_no_worker_when_numpy_loaded_first(tmp_path):
    code = ("import numpy, os, sys, latfold\n"
            "def fork(): raise AssertionError('forked a worker')\n"
            "os.fork = fork\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "s = latfold.emit_trajectory_demo(sys.argv[1], power_trials=20)\n"
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
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "cfg = latfold.ExperimentConfig(of_list=(6, 8), snr_db_list=(None,), n_trials=1)\n"
            "print([c.rate for c in latfold.run_sweep(cfg).cells])")
    proc = _fresh_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[1.0, 1.0, 1.0, 1.0]"


def _children(pid: int) -> list:
    return [int(c) for c in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the sweep forks workers only on two CPUs or more")
@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/<pid>/task/<pid>/children")
def test_sweep_workers_end_when_the_parent_is_killed():
    # a worker of a killed parent would finish its group, then wait forever
    argv = ["sweep", "--preset", "additive", "--trials", "200"]
    proc = subprocess.Popen([sys.executable, *_latfold_on(2, argv)], env=_fresh_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.02)
            workers = _children(proc.pid)
        assert len(workers) == 2, "the sweep forked no two workers"
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        proc.kill()
        proc.wait(timeout=10)
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
