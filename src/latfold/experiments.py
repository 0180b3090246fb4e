"""Monte Carlo experiment harness: seeded sweeps, table emission, 2D demo.

Recovery sweeps use a burst ensemble: in-band signals concentrated on a
short active window at the end of the record, with the long quiet prefix
staying inside the Voronoi cell. This is the periodic analogue of the
finite-energy tails that make the time-domain support restriction of the
out-of-band solver meaningful; the per-oversampling active-window lengths
below are calibrated so the recovery thresholds probe the interesting SNR
and bit-depth range.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import threading
import time
import zlib
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path
from typing import ClassVar, Mapping, Optional

import numpy as np

from . import _blas_one_thread
from .channels import _check_bits, add_noise, fold_signal, lattice_quantize, scalar_quantize
from .lattices import (A2, E8, ZN, ConfigurationError, ScaledLattice, _check_count,
                       _check_positive, _is_integer, folds_to_zero, in_voronoi_cell,
                       make_lattice, voronoi_cell_polygon)
from .moments import ESTIMATED_FAMILIES, _worker_count, sample_uniform_cell
from .recovery import (b2r2_recover, build_oob_operator, check_recovery,
                       hod_recover, lasso_b2r2_recover)
from .signals import SignalConfig, make_test_signal

SCHEMA_VERSION = 4

# (active samples of the signal, active samples assumed by the solver,
# margin leak budget as a fraction of the peak) per oversampling factor,
# for the 8-channel study at duration 2 s and occupied band <= 9.5 Hz
ACTIVE_SCHEDULE = {
    2: (20, 20, 0.06),
    4: (18, 38, 0.06),
    6: (28, 28, 0.06),
    8: (48, 48, 0.03),
}

ARCHITECTURES = {
    # additive-noise architectures: fold lattice only
    "square": {"fold": ZN, "quantizer": None},
    "e8": {"fold": E8, "quantizer": None},
    # quantization architectures
    "sq+sqq": {"fold": ZN, "quantizer": "scalar"},
    "e8+sqq": {"fold": E8, "quantizer": "scalar"},
    "e8+e8q": {"fold": E8, "quantizer": "lattice"},
}

ALGORITHMS = ("b2r2", "hod")
_LIST_KEYS = ("of_list", "snr_db_list", "bits_list", "architectures")    # JSON lists


class DemoRecoveryError(RuntimeError):
    """2D demo failed to reconstruct; carries diagnostics."""


# ---------------------------------------------------------------------------
# burst ensemble


@functools.lru_cache(maxsize=32)
def concentration_modes(K: int, m_max: int, margin: int) -> np.ndarray:
    """In-band (bins 1..m_max) sequences ordered by margin energy fraction.

    Returns the modes as read-only unit-peak columns. The leading columns
    are the most concentrated on the active window ``[margin, K)``.
    """
    from scipy.linalg import eigh
    k = np.arange(K)
    cols = []
    for m in range(1, m_max + 1):
        cols.append(np.cos(2 * np.pi * m * k / K))
        cols.append(np.sin(2 * np.pi * m * k / K))
    W = np.stack(cols, axis=1)
    G = W.T @ W
    Gm = W[:margin].T @ W[:margin]
    _, vecs = eigh(Gm, G)
    modes = W @ vecs
    modes = modes / np.abs(modes).max(axis=0, keepdims=True)
    modes.setflags(write=False)
    return modes


def burst_signal(rng: np.random.Generator, n_ch: int, K: int, m_max: int,
                 margin: int, gamma: float, lam: float, leak_amp: float) -> np.ndarray:
    """One draw from the burst ensemble (peak normalized to gamma*lam).

    Uses the concentrated modes whose margin amplitude is below
    ``leak_amp`` (at least two); the caller is responsible for the
    fold-free margin check, which depends on the folding lattice.
    """
    modes = concentration_modes(K, m_max, margin)
    lk = np.abs(modes[:margin]).max(axis=0)
    n_modes = max(2, int((lk <= leak_amp).sum()))
    coef = rng.standard_normal((n_modes, n_ch))
    f = modes[:, :n_modes] @ coef
    return f * (gamma * lam / np.abs(f).max())


def draw_margin_trial(seed_seq: np.random.SeedSequence, lattice: ScaledLattice,
                      n_ch: int, K: int, m_max: int, margin: int,
                      gamma: float, leak_amp: float):
    """Draw burst signals, at most 80, until the margin folds to zero for this lattice."""
    rng = np.random.default_rng(seed_seq)
    for _ in range(80):
        f = burst_signal(rng, n_ch, K, m_max, margin, gamma, lattice.lam, leak_amp)
        if folds_to_zero(f[:margin], lattice):
            return f
    raise ConfigurationError("could not draw a fold-free margin signal")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative sweep description; serializes to versioned JSON.

    Immutable, and checked however it is built (``dataclasses.replace`` too):
    a config no cell can run raises ConfigurationError. Lists become tuples.
    """

    # the study ACTIVE_SCHEDULE is calibrated for: constants, not config keys
    n_channels: ClassVar[int] = 8
    omega_max: ClassVar[float] = 10.0
    duration: ClassVar[float] = 2.0
    lam: ClassVar[float] = 0.1
    dr_factor: ClassVar[float] = 10.0
    guard: ClassVar[float] = 0.04

    name: str = "study8d"
    of_list: tuple = (2, 4, 6, 8)
    snr_db_list: tuple = ()            # finite SNRs; None entry means noiseless
    bits_list: tuple = ()
    architectures: tuple = ("square", "e8")
    algorithm: str = "b2r2"
    hod_order: int = 2
    n_trials: int = 50
    master_seed: int = 0

    def __post_init__(self):
        for key in _LIST_KEYS:
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)):
                raise ConfigurationError(f"{key} must be a list, got {values!r}")
            object.__setattr__(self, key, tuple(values))
        for name, values, known in (("oversampling factor", self.of_list, ACTIVE_SCHEDULE),
                                    ("architecture", self.architectures, ARCHITECTURES),
                                    ("algorithm", (self.algorithm,), ALGORITHMS)):
            known = sorted(known)              # a list: a value read from JSON may be unhashable
            bad = [v for v in values if v not in known]
            if bad:
                raise ConfigurationError(f"unknown {name} {bad[0]!r}, known: {known}")
        _check_count("n_trials", self.n_trials)
        _check_count("hod_order", self.hod_order)
        if not _is_integer(self.master_seed):
            raise ConfigurationError(f"master_seed must be an integer, got {self.master_seed!r}")
        if not 0 <= self.master_seed < 2**32:       # the seeds keep its low 32 bits
            raise ConfigurationError(f"master_seed must be in 0..{2**32 - 1}, "
                                     f"got {self.master_seed!r}")
        for level in [v for v in self.snr_db_list if v is not None]:
            _check_positive("snr_db", level)
        for level in [v for v in self.bits_list if v is not None]:
            _check_bits(level)
        plain = [a for a in self.architectures if ARCHITECTURES[a]["quantizer"] is None]
        if plain and any(b is not None for b in self.bits_list):
            raise ConfigurationError(f"architecture {plain[0]!r} has no quantizer for bits_list")
        for name, values in (("oversampling factor", self.of_list),
                             ("architecture", self.architectures), ("level", _levels(self))):
            again = [v for i, v in enumerate(values) if v in values[:i]]
            if again:
                raise ConfigurationError(f"{name} {again[0]!r} is repeated in the grid")
        codes = {}          # the seeds see a level only through its code
        for kind, level in _levels(self):
            try:
                key = (kind, _level_code(level))
            except OverflowError:
                raise ConfigurationError(f"{kind} level {level!r} is too large for a trial "
                                         "seed") from None
            if key in codes:
                raise ConfigurationError(f"{kind} levels {codes[key]!r} and {level!r} share "
                                         f"their trial seeds (level code {key[1]})")
            codes[key] = level

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = SCHEMA_VERSION
        for key in _LIST_KEYS:
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExperimentConfig":
        if not isinstance(d, Mapping):
            raise ConfigurationError(f"a config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if not (_is_integer(version) and version == SCHEMA_VERSION):     # 4.0 is no schema
            raise ConfigurationError(f"unsupported config schema {version!r}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown config keys {unknown}")
        return cls(**d)

    def save(self, path) -> None:
        with _writing(path):
            Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """Read a JSON config file; any failure is a ConfigurationError naming ``path``."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except OSError as exc:
            raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"{path}: not valid JSON: {exc}") from None
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _writing(path):
    """Turn a failed write to ``path`` into a ConfigurationError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror}") from None


def _levels(cfg: ExperimentConfig) -> list:
    """``(kind, level)`` per level group, SNRs first; a None level, or none, is "clean"."""
    return [("clean" if v is None else kind, v) for kind, vals in
            (("snr", cfg.snr_db_list), ("bits", cfg.bits_list)) for v in vals] or [("clean", None)]


def table3_config(n_trials: int = 50, master_seed: int = 0) -> ExperimentConfig:
    """Additive-noise recovery-rate sweep (square vs E8)."""
    return ExperimentConfig(name="additive", snr_db_list=(10, 15, 20, 25, 30, 35, None),
                            bits_list=(), architectures=("square", "e8"),
                            n_trials=n_trials, master_seed=master_seed)


def table4_config(n_trials: int = 50, master_seed: int = 0) -> ExperimentConfig:
    """Quantization recovery-rate sweep (three architectures)."""
    return ExperimentConfig(name="quantization", snr_db_list=(),
                            bits_list=(2, 4, 6, 8, 10, None),
                            architectures=("sq+sqq", "e8+sqq", "e8+e8q"),
                            n_trials=n_trials, master_seed=master_seed)


PRESETS = {"additive": table3_config, "quantization": table4_config}


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class CellResult:
    """One sweep cell; ``trials`` holds each trial's ``run_trial`` outcome, None if it raised."""
    of: float
    level_kind: str                # "snr", "bits" or "clean"
    level: Optional[float]
    architecture: str
    algorithm: str
    trials: tuple
    wall_time: float
    error: Optional[str] = None

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def rate(self) -> float:
        return sum(bool(t and t[0]) for t in self.trials) / self.n_trials

    @property
    def mse_mean(self) -> Optional[float]:         # over the recovered trials, in order
        mses = [t[1] for t in self.trials if t and t[0]]
        return sum(mses) / len(mses) if mses else None

    @property
    def mse_db(self) -> Optional[float]:
        if self.mse_mean is None or self.mse_mean <= 0:
            return None
        return 10.0 * math.log10(self.mse_mean)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    cells: tuple


def _level_code(level) -> int:
    return 999999999 if level is None else int(round(float(level) * 1000.0)) & 0xFFFFFFFF


def trial_seed(master_seed: int, of, kind: str, level, trial: int) -> np.random.SeedSequence:
    """Stable per-trial seed from cell coordinates, not grid position."""
    parts = [int(master_seed), int(round(float(of) * 10)),
             zlib.crc32(kind.encode()), _level_code(level), int(trial)]
    return np.random.SeedSequence([p & 0xFFFFFFFF for p in parts])


def noise_seed(master_seed: int, of, kind: str, level, trial: int) -> np.random.SeedSequence:
    """Per-trial noise seed; like ``trial_seed``, shared by every architecture."""
    return np.random.SeedSequence([(int(master_seed) + 7) & 0xFFFFFFFF,
                                   int(round(float(of) * 10)),
                                   _level_code(level), int(trial)])


def _geometry(cfg: ExperimentConfig, of):
    """(sampling rate, record length K, highest in-band bin) at one OF."""
    fs = of * 2.0 * cfg.omega_max
    m_max = int(math.floor(cfg.omega_max * cfg.duration)) - 1
    return fs, int(round(fs * cfg.duration)), m_max


def draw_folded(cfg: ExperimentConfig, of, lattice: ScaledLattice, sig_seed):
    """One trial's signal folded with ``lattice``: read-only (samples, offsets)."""
    _, K, m_max = _geometry(cfg, of)
    sig_act, _, leak_amp = ACTIVE_SCHEDULE[int(of)]
    f = draw_margin_trial(sig_seed, lattice, cfg.n_channels, K, m_max, K - sig_act,
                          cfg.dr_factor, leak_amp)
    return fold_signal(f, lattice)


def run_trial(cfg: ExperimentConfig, of, kind: str, level, arch: str, t: int,
              lattice: ScaledLattice, drawn):
    """Trial ``t`` of a cell, on its ``draw_folded(cfg, of, lattice, ...)`` draw.

    Returns (all offsets recovered, channel MSE per coordinate). Only an
    ``snr`` cell draws from a noise seed, ``noise_seed(..., t)``.
    """
    clean, p_true = drawn
    y = clean
    fs, K, m_max = _geometry(cfg, of)
    band = m_max / cfg.duration
    _, solver_act, _ = ACTIVE_SCHEDULE[int(of)]

    if kind == "snr":
        y = add_noise(clean, float(level), noise_seed(cfg.master_seed, of, kind, level, t))
    elif kind == "bits" and ARCHITECTURES[arch]["quantizer"] == "scalar":
        y = scalar_quantize(clean, float(level), cfg.lam)
    elif kind == "bits":                   # the config gives every bits cell a quantizer
        y = lattice_quantize(clean, lattice, float(level))

    oob = build_oob_operator(K, band, fs, cfg.guard)
    if cfg.algorithm == "b2r2":
        result = b2r2_recover(y, lattice, oob, K - solver_act,
                              cfg.dr_factor * cfg.lam + lattice.d_min)
    else:                                  # "hod"
        result = hod_recover(y, lattice, cfg.hod_order)

    mse = float(((y - clean) ** 2).sum() / clean.size)
    return check_recovery(result.p_hat, p_true, lattice) == 0, mse


def _run_cell_trials(cfg: ExperimentConfig, of, kind: str, level, arch: str, draws) -> CellResult:
    t0 = time.perf_counter()
    try:
        lattice, folded = draws(ARCHITECTURES[arch]["fold"])
        trials, error = [], None
    except Exception as exc:               # no lattice or no draw: every trial fails
        folded, trials, error = (), [None] * cfg.n_trials, f"{type(exc).__name__}: {exc}"
    for t, drawn in enumerate(folded):
        try:
            trials.append(run_trial(cfg, of, kind, level, arch, t, lattice, drawn))
        except Exception as exc:           # fails this trial only
            trials.append(None)
            error = error or f"trial {t}: {type(exc).__name__}: {exc}"
    return CellResult(of=float(of), level_kind=kind, level=None if level is None else float(level),
                      architecture=arch, algorithm=cfg.algorithm, trials=tuple(trials),
                      wall_time=time.perf_counter() - t0, error=error)


def _run_group(group) -> list:
    """The cells of one ``(cfg, OF, kind, level)`` group, one per architecture, in order.

    The signal seed does not depend on the architecture, so architectures
    that fold with the same lattice share the ``draws`` memo: the lattice
    and every trial, drawn in one pass so that the draw and then the
    solver stay hot in cache. The memo keeps no exception: a failed lattice
    or draw raises again, with the same message, in each cell that needs it.
    """
    cfg, of, kind, level = group

    @functools.cache
    def draws(family):
        lat = make_lattice(family, cfg.n_channels, cfg.lam)
        seeds = (trial_seed(cfg.master_seed, of, kind, level, t) for t in range(cfg.n_trials))
        return lat, tuple(draw_folded(cfg, of, lat, seed) for seed in seeds)

    return [_run_cell_trials(cfg, of, kind, level, arch, draws) for arch in cfg.architectures]


_PR_SET_PDEATHSIG = 1           # linux/prctl.h


def _end_with_parent(parent: int) -> None:
    """Pool initializer: end the worker with the ``parent`` process.

    A worker whose parent was killed would finish its task and then wait
    forever for the next one. So the kernel sends the worker SIGTERM when
    its parent ends, and a worker whose parent has already ended (its
    parent PID is no longer ``parent``) exits here. Without ``prctl`` (not
    Linux) only that check holds.
    """
    import ctypes                   # numpy and multiprocessing have loaded both
    import signal
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(_PR_SET_PDEATHSIG, ctypes.c_ulong(signal.SIGTERM))
    if os.getppid() != parent:
        os._exit(1)


def _run_forked(fn, tasks: list) -> list:
    """``fn`` of each task, submitted in the order given, in forked processes.

    ``fn`` is a module-level function and each task plain data, so both
    pickle. The pool holds one process per CPU this process may run on, at
    most one per task, and the results come back in task order. A forked
    worker inherits the BLAS pin of ``import latfold`` without re-importing
    anything, and ends with this process, even when this process is killed.
    The tasks run here, in turn, when the pool would hold one process, while
    another thread runs (forking a threaded process is unsafe), or when
    numpy was loaded before ``import latfold`` could pin BLAS to one thread.
    No worker outlives the call.
    """
    workers = min(_worker_count(), len(tasks))
    if workers <= 1 or not _blas_one_thread or threading.active_count() > 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                               initializer=_end_with_parent, initargs=(os.getpid(),))
    try:
        return list(pool.map(fn, tasks))
    finally:
        pool.shutdown(cancel_futures=True)          # joins every worker


def run_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every (OF, level, architecture) cell of the sweep, in grid order.

    Per-trial seeds hash the cell coordinates and the trial index, so adding
    grid cells never perturbs existing ones. Each fold lattice and each draw
    is built once per group (``_run_group``). Each cell keeps its per-trial
    outcomes (``CellResult.trials``); a trial that raises fails only itself.

    The (OF, level) groups run through ``_run_forked``, in one worker
    process per CPU this process may run on. The highest OF, whose records
    are longest, is submitted first, so no worker idles at the end on a
    costly group. The cells are byte-identical for every CPU set, and each
    cell's ``wall_time`` is measured in the process that ran it. Each worker
    is about 50 MB resident, about 11 MB of it its own (fork shares the rest
    with this process).
    """
    groups = [(cfg, of, kind, level) for of in cfg.of_list for kind, level in _levels(cfg)]
    order = sorted(range(len(groups)), key=lambda i: -groups[i][1])
    # Every group needs scipy (``concentration_modes``, ``_window_solve``).
    # Loaded here, before the fork, the workers share its modules. Loaded in
    # each new worker instead, it cut the quantization sweep's items/s in the
    # benchmark by 24-34% (2 vCPUs).
    import scipy.linalg  # noqa: F401
    done = dict(zip(order, _run_forked(_run_group, [groups[i] for i in order])))
    return ExperimentResult(config=cfg,
                            cells=tuple(c for i in range(len(groups)) for c in done[i]))


# ---------------------------------------------------------------------------
# emission


def _cell_row(c: CellResult) -> dict:
    return {
        "of": f"{c.of:g}",
        "level_kind": c.level_kind,
        "level": "" if c.level is None else f"{c.level:g}",
        "architecture": c.architecture,
        "algorithm": c.algorithm,
        "n_trials": str(c.n_trials),
        "rate": f"{c.rate:.4f}",
        "mse": "" if c.mse_mean is None else f"{c.mse_mean:.6e}",
        "mse_db": "" if c.mse_db is None else f"{c.mse_db:.3f}",
        "seed": str(_seed_label(c)),
        "error": c.error or "",
    }


def _seed_label(c: CellResult) -> int:
    return zlib.crc32(f"{c.of:g}/{c.level_kind}/{c.level}/{c.architecture}".encode())


def emit_tables(result: ExperimentResult, fmt: str = "csv") -> str:
    """Render the sweep as csv / json / aligned text; byte-stable per config."""
    rows = [_cell_row(c) for c in result.cells]
    cols = ["of", "level_kind", "level", "architecture", "algorithm",
            "n_trials", "rate", "mse", "mse_db", "seed", "error"]
    if fmt == "csv":
        out = ",".join(cols) + "\n"
        out += "".join(",".join(r[c] for c in cols) + "\n" for r in rows)
    elif fmt == "json":
        payload = {"config": result.config.to_dict(), "cells": rows}
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "text":
        widths = {c: max(len(c), *(len(r[c]) for r in rows)) if rows else len(c)
                  for c in cols}
        out = " ".join(c.ljust(widths[c]) for c in cols) + "\n"
        out += "".join(" ".join(r[c].ljust(widths[c]) for c in cols) + "\n"
                       for r in rows)
    else:
        raise ConfigurationError(f"unknown format {fmt!r}")
    return out


# ---------------------------------------------------------------------------
# 2D trajectory demo


# the two demo geometries: the lattice family each folds with, in dimension 2
DEMO_GEOMETRIES = {"square": ZN, "hexagon": A2}


def demo2d_config(seed: int = 0) -> SignalConfig:
    return SignalConfig(n_channels=2, n_components=14, omega_max=10.0, of=6.0,
                        duration=1.0, dr_factor=3.0, seed=seed, complex_pair=True)


def _start_in_cell_signal(cfg: SignalConfig, lattice: ScaledLattice):
    """Regenerate, at most 500 times, until the first sample folds to zero (demo anchor)."""
    seed = cfg.seed
    for _ in range(500):
        f, band = make_test_signal(replace(cfg, seed=seed), lattice.lam)
        if folds_to_zero(f[:1], lattice):
            return f, band
        seed += 7919
    raise DemoRecoveryError("no start-in-cell signal found")


def _recover_geometry(cfg: SignalConfig, name: str, lattice: ScaledLattice):
    """One demo geometry: draw the start-in-cell signal, fold, check, recover.

    Returns the signal, its fold, the LASSO reconstruction and the summary
    entry; raises DemoRecoveryError when reconstruction misses machine
    precision.
    """
    f, band = _start_in_cell_signal(cfg, lattice)
    y, _ = fold_signal(f, lattice)
    if not in_voronoi_cell(lattice, y):
        raise DemoRecoveryError(f"{name}: folded samples left the cell")
    oob = build_oob_operator(len(f), band, cfg.fs, 0.05)
    result = lasso_b2r2_recover(y, lattice, oob)
    err = float(np.abs(result.f_hat - f).max())
    peak = float(np.abs(f).max())
    if err > 1e-8 * peak:
        raise DemoRecoveryError(
            f"{name}: reconstruction error {err:.3e} exceeds 1e-8 * peak "
            f"(peak {peak:.3f}, iterations {result.iterations})")
    return f, y, result.f_hat, {"max_error": err, "peak": peak,
                                "iterations": result.iterations}


def _demo_task(task):
    """One ``(name, seed, lam, power_trials)`` task of the demo: a geometry or the power ratio."""
    name, seed, lam, power_trials = task
    if name == "power_ratio":
        return demo_power_ratio(lam=lam, n_trials=power_trials, seed=seed)
    return _recover_geometry(demo2d_config(seed), name,
                             make_lattice(DEMO_GEOMETRIES[name], 2, lam))


def emit_trajectory_demo(outdir, seed: int = 0, lam: float = 1.0,
                         power_trials: int = 200) -> dict:
    """Square vs hexagon folding of the 2D complex demo signal.

    Writes per-geometry trajectory CSVs (original, folded, recovered), the
    Voronoi cell outlines, and returns a summary including the folded-power
    ratio over a fresh ensemble. Raises DemoRecoveryError if either
    geometry misses machine-precision reconstruction.

    The square, the hexagon and the power ratio are three ``_demo_task``
    tasks of ``_run_forked``, in one worker process per CPU this process
    may run on. The files and the summary are byte-identical for every CPU
    set. Bad input raises before ``outdir`` is created, an unusable
    ``outdir`` before the work, and the first failed task in task order
    before any file is written.
    """
    _check_count("power_trials", power_trials)
    geometries = {name: make_lattice(family, 2, lam) for name, family in DEMO_GEOMETRIES.items()}
    cfg = demo2d_config(seed)
    outdir = Path(outdir)
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)

    tasks = [*geometries, "power_ratio"]            # the costly LASSO recoveries start first
    done = dict(zip(tasks, _run_forked(_demo_task,
                                       [(name, seed, lam, power_trials) for name in tasks])))
    summary = {"power_ratio": done["power_ratio"]}
    with _writing(outdir):
        for name, lattice in geometries.items():
            f, y, f_hat, summary[name] = done[name]
            t = np.arange(len(f)) / cfg.fs
            np.savetxt(outdir / f"demo2d_{name}.csv", np.column_stack([t, f, y, f_hat]),
                       delimiter=",", header="t,orig0,orig1,folded0,folded1,rec0,rec1",
                       comments="", fmt="%.12g")
            np.savetxt(outdir / f"cell_{name}.csv", voronoi_cell_polygon(lattice),
                       delimiter=",", header="x,y", comments="", fmt="%.12g")
        (outdir / "demo2d_summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def demo_power_ratio(lam: float = 1.0, n_trials: int = 200, seed: int = 0) -> float:
    """Hexagon / square folded-power ratio over the 2D demo ensemble."""
    _check_count("n_trials", n_trials)
    sq, hexl = (make_lattice(DEMO_GEOMETRIES[name], 2, lam) for name in ("square", "hexagon"))
    p_hex = p_sq = 0.0
    for i in range(n_trials):
        cfg = demo2d_config(seed + i)
        f, _ = make_test_signal(cfg, lam)
        y_hex, _ = fold_signal(f, hexl)
        y_sq, _ = fold_signal(f, sq)
        p_hex += (y_hex**2).sum()
        p_sq += (y_sq**2).sum()
    return float(p_hex / p_sq)


# ---------------------------------------------------------------------------
# quantizer bench


def quantize_bench(n_samples: int = 200000, seed: int = 0,
                   bits: tuple = (2, 4, 6)) -> dict:
    """Matched-quantizer scaling law and the mismatched-quantizer null.

    For each supported lattice, compares empirical matched-quantizer MSE on
    uniform cell samples against the per-cell MSE scaled by 4^-B, and
    checks that a common scalar quantizer yields the same MSE on cube- and
    E8-folded data; ``std_err`` is the standard error of their difference.
    """
    _check_count("n_samples", n_samples)
    for b in bits:
        _check_bits(b)
    rng = np.random.default_rng(seed)
    report = {"matched": {}, "mismatched": {}}
    for name, family, n in ESTIMATED_FAMILIES:
        lat = make_lattice(family, n, 1.0)
        r = sample_uniform_cell(lat, rng, n_samples)
        base = float((r**2).sum(axis=1).mean())
        rows = {}
        for b in bits:
            mse = float(((r - lattice_quantize(r, lat, b)) ** 2).sum(axis=1).mean())
            rows[int(b)] = {"mse": mse, "predicted": base * 4.0 ** (-b),
                            "ratio": mse / (base * 4.0 ** (-b))}
        report["matched"][name] = rows
    cube = make_lattice(ZN, 8, 1.0)
    e8 = make_lattice(E8, 8, 1.0)
    r_sq = sample_uniform_cell(cube, rng, n_samples)
    r_e8 = sample_uniform_cell(e8, rng, n_samples)
    for b in (6, 8):
        e_sq = ((r_sq - scalar_quantize(r_sq, b, 1.0)) ** 2).sum(axis=1)
        e_e8 = ((r_e8 - scalar_quantize(r_e8, b, 1.0)) ** 2).sum(axis=1)
        mse_sq, mse_e8 = float(e_sq.mean()), float(e_e8.mean())
        report["mismatched"][int(b)] = {
            "cube_folded": mse_sq, "e8_folded": mse_e8, "ratio": mse_e8 / mse_sq,
            "std_err": float(np.hypot(e_sq.std(), e_e8.std()) / np.sqrt(n_samples))}
    return report
