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

import functools
import json
import math
import time
import zlib
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np
from scipy.linalg import eigh

from .channels import (_check_bits, _check_snr, add_noise, fold_signal,
                       lattice_quantize, scalar_quantize)
from .lattices import (A2, DN, E8, ZN, ConfigurationError, ScaledLattice, fold,
                       folds_to_zero, in_voronoi_cell, make_lattice,
                       voronoi_cell_polygon)
from .recovery import (b2r2_recover, build_oob_operator, check_recovery,
                       hod_recover, lasso_b2r2_recover)
from .signals import SignalConfig, make_test_signal

SCHEMA_VERSION = 2

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

ALGORITHMS = ("b2r2", "lasso", "hod")


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
                 margin: int, gamma: float, lam: float,
                 leak_amp: float = 0.06, min_modes: int = 2) -> np.ndarray:
    """One draw from the burst ensemble (peak normalized to gamma*lam).

    Uses the concentrated modes whose margin amplitude is below
    ``leak_amp`` (at least ``min_modes``); the caller is responsible for
    the fold-free margin check, which depends on the folding lattice.
    """
    modes = concentration_modes(K, m_max, margin)
    lk = np.abs(modes[:margin]).max(axis=0)
    n_modes = max(min_modes, int((lk <= leak_amp).sum()))
    coef = rng.standard_normal((n_modes, n_ch))
    f = modes[:, :n_modes] @ coef
    return f * (gamma * lam / np.abs(f).max())


def draw_margin_trial(seed_seq: np.random.SeedSequence, lattice: ScaledLattice,
                      n_ch: int, K: int, m_max: int, margin: int,
                      gamma: float, leak_amp: float, max_tries: int = 80):
    """Draw burst signals until the margin folds to zero for this lattice."""
    rng = np.random.default_rng(seed_seq)
    for _ in range(max_tries):
        f = burst_signal(rng, n_ch, K, m_max, margin, gamma, lattice.lam, leak_amp)
        if folds_to_zero(f[:margin], lattice):
            return f
    raise ConfigurationError("could not draw a fold-free margin signal")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """Declarative sweep description; serializes to versioned JSON."""

    name: str = "study8d"
    n_channels: int = 8
    omega_max: float = 10.0
    duration: float = 2.0
    lam: float = 0.1
    dr_factor: float = 10.0
    of_list: tuple = (2, 4, 6, 8)
    snr_db_list: tuple = ()            # finite SNRs; None entry means noiseless
    bits_list: tuple = ()
    architectures: tuple = ("square", "e8")
    algorithm: str = "b2r2"
    hod_order: int = 2
    lasso_mu: Optional[float] = None
    guard: float = 0.04
    max_iters: int = 5000
    noise_law: str = "gaussian"
    n_trials: int = 50
    master_seed: int = 0

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = SCHEMA_VERSION
        for key in ("of_list", "snr_db_list", "bits_list", "architectures"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        version = d.pop("schema_version", SCHEMA_VERSION)
        if version == 1:
            d.pop("tol", None)     # v1 only: tolerance of the removed GD solver
        elif version != SCHEMA_VERSION:
            raise ConfigurationError(f"unsupported config schema {version}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown config keys {unknown}")
        for key in ("of_list", "snr_db_list", "bits_list", "architectures"):
            if key in d and d[key] is not None:
                d[key] = tuple(d[key])
        return cls(**d)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


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


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class CellResult:
    of: float
    level_kind: str                # "snr", "bits" or "clean"
    level: Optional[float]
    architecture: str
    algorithm: str
    n_trials: int
    n_success: int
    rate: float
    mse_mean: Optional[float]      # over successful trials
    wall_time: float
    error: Optional[str] = None

    @property
    def mse_db(self) -> Optional[float]:
        if self.mse_mean is None or self.mse_mean <= 0:
            return None
        return 10.0 * math.log10(self.mse_mean)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    cells: tuple


def _level_code(kind: str, level) -> int:
    if level is None:
        return 999999999
    return int(round(float(level) * 1000.0)) & 0xFFFFFFFF


def trial_seed(master_seed: int, of, kind: str, level, trial: int) -> np.random.SeedSequence:
    """Stable per-trial seed from cell coordinates, not grid position."""
    parts = [int(master_seed), int(round(float(of) * 10)),
             zlib.crc32(kind.encode()), _level_code(kind, level), int(trial)]
    return np.random.SeedSequence([p & 0xFFFFFFFF for p in parts])


def noise_seed(master_seed: int, of, kind: str, level, trial: int) -> np.random.SeedSequence:
    """Per-trial noise seed; like ``trial_seed``, shared by every architecture."""
    return np.random.SeedSequence([(int(master_seed) + 7) & 0xFFFFFFFF,
                                   int(round(float(of) * 10)),
                                   _level_code(kind, level), int(trial)])


def _geometry(cfg: ExperimentConfig, of):
    """(sampling rate, record length K, highest in-band bin) at one OF."""
    fs = of * 2.0 * cfg.omega_max
    m_max = int(math.floor(cfg.omega_max * cfg.duration)) - 1
    return fs, int(round(fs * cfg.duration)), m_max


def fold_lattice(cfg: ExperimentConfig, family: str) -> ScaledLattice:
    """The sweep's folding lattice of one family (E8 is always 8-D)."""
    return make_lattice(family, cfg.n_channels if family != E8 else 8, cfg.lam)


def draw_folded(cfg: ExperimentConfig, of, lattice: ScaledLattice, sig_seed):
    """One trial's signal folded with ``lattice``: read-only (samples, offsets)."""
    _, K, m_max = _geometry(cfg, of)
    sig_act, _, leak_amp = ACTIVE_SCHEDULE[int(of)]
    f = draw_margin_trial(sig_seed, lattice, cfg.n_channels, K, m_max, K - sig_act,
                          cfg.dr_factor, leak_amp)
    return fold_signal(f, lattice)


def run_trial(cfg: ExperimentConfig, of, kind: str, level, arch: str,
              lattice: ScaledLattice, drawn, noise_seed):
    """One trial of a ``draw_folded(cfg, of, lattice, ...)`` draw.

    Returns (all offsets recovered, channel MSE per coordinate).
    """
    layout = ARCHITECTURES[arch]
    clean, p_true = drawn
    y = clean
    fs, K, m_max = _geometry(cfg, of)
    band = m_max / cfg.duration
    _, solver_act, _ = ACTIVE_SCHEDULE[int(of)]

    if kind == "snr" and level is not None:
        y = add_noise(clean, float(level), noise_seed, law=cfg.noise_law)
    elif kind == "bits" and level is not None:
        if layout["quantizer"] == "scalar":
            y = scalar_quantize(clean, float(level), cfg.lam)
        elif layout["quantizer"] == "lattice":
            y = lattice_quantize(clean, lattice, float(level))
        else:
            raise ConfigurationError(f"architecture {arch} has no quantizer")

    oob = build_oob_operator(K, band, fs, cfg.guard)
    if cfg.algorithm == "b2r2":
        result = b2r2_recover(y, lattice, oob, K - solver_act,
                              cfg.dr_factor * cfg.lam + lattice.d_min)
    elif cfg.algorithm == "lasso":
        result = lasso_b2r2_recover(y, lattice, oob, cfg.lasso_mu, cfg.max_iters)
    elif cfg.algorithm == "hod":
        result = hod_recover(y, lattice, cfg.hod_order)
    else:
        raise ConfigurationError(f"unknown algorithm {cfg.algorithm!r}")

    mse = float(((y - clean) ** 2).sum() / clean.size)
    return check_recovery(result.p_hat, p_true, lattice) == 0, mse


def _shared_draws(cfg: ExperimentConfig, of, kind: str, level) -> Mapping:
    """Every trial's ``(lattice, draw_folded(...))`` per fold family.

    Covers one (OF, level) group, keyed ``(family, trial)``; each family's
    lattice is built once. The signal seed does not depend on the architecture, so every architecture
    that folds with the same lattice reads the same entry. A family stops
    at its first lattice or draw that raises and stores the exception as
    that trial's entry; each cell of the family raises it there as its
    cell error.
    """
    draws = {}
    for family in dict.fromkeys(ARCHITECTURES[a]["fold"] for a in cfg.architectures):
        t = 0
        try:
            lattice = fold_lattice(cfg, family)
            for t in range(cfg.n_trials):
                draws[family, t] = lattice, draw_folded(
                    cfg, of, lattice, trial_seed(cfg.master_seed, of, kind, level, t))
        except Exception as exc:          # reported by the cells, as above
            draws[family, t] = exc
    return MappingProxyType(draws)


def _run_cell_trials(cfg: ExperimentConfig, of, kind: str, level, arch: str,
                     draws: Mapping) -> CellResult:
    family = ARCHITECTURES[arch]["fold"]
    t0 = time.perf_counter()
    succ, error = [], None
    try:
        for t in range(cfg.n_trials):
            entry = draws[family, t]
            if isinstance(entry, Exception):
                raise entry
            nseed = (noise_seed(cfg.master_seed, of, kind, level, t)
                     if kind == "snr" else None)    # only the noise draws from it
            ok, mse = run_trial(cfg, of, kind, level, arch, *entry, nseed)
            if ok:
                succ.append(mse)
    except Exception as exc:               # per-cell failure, sweep continues
        succ, error = [], f"{type(exc).__name__}: {exc}"
    return CellResult(
        of=float(of), level_kind=kind,
        level=None if level is None else float(level),
        architecture=arch, algorithm=cfg.algorithm,
        n_trials=cfg.n_trials, n_success=len(succ),
        rate=len(succ) / cfg.n_trials,
        mse_mean=(sum(succ) / len(succ)) if succ else None,
        wall_time=time.perf_counter() - t0, error=error)


def _check_config(cfg: ExperimentConfig) -> None:
    for name, values, known in (("oversampling factor", cfg.of_list, ACTIVE_SCHEDULE),
                                ("architecture", cfg.architectures, ARCHITECTURES),
                                ("algorithm", (cfg.algorithm,), ALGORITHMS)):
        bad = [v for v in values if v not in known]
        if bad:
            raise ConfigurationError(f"unknown {name} {bad[0]!r}, known: {sorted(known)}")
    if cfg.n_trials < 1:
        raise ConfigurationError(f"n_trials must be >= 1, got {cfg.n_trials!r}")
    for check, levels in ((_check_snr, cfg.snr_db_list), (_check_bits, cfg.bits_list)):
        for level in [v for v in levels if v is not None]:
            try:
                check(level)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(str(exc)) from None


def run_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every (OF, level, architecture) cell of the sweep, in grid order.

    Per-trial seeds hash the cell coordinates and the trial index, so adding
    grid cells never perturbs existing ones. The architectures of one
    (OF, level) group share each trial's draw and fold (``_shared_draws``).
    A config no cell can run raises ConfigurationError before the first
    cell.
    """
    _check_config(cfg)
    levels = [("snr", s) for s in cfg.snr_db_list] + \
             [("bits", b) for b in cfg.bits_list]
    cells = []
    for of in cfg.of_list:
        for kind, level in levels or [("clean", None)]:
            kind = "clean" if level is None else kind
            draws = _shared_draws(cfg, of, kind, level)
            cells += [_run_cell_trials(cfg, of, kind, level, arch, draws)
                      for arch in cfg.architectures]
    return ExperimentResult(config=cfg, cells=tuple(cells))


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


def demo2d_config(seed: int = 0) -> SignalConfig:
    return SignalConfig(n_channels=2, n_components=14, omega_max=10.0, of=6.0,
                        duration=1.0, dr_factor=3.0, seed=seed, complex_pair=True)


def _start_in_cell_signal(cfg: SignalConfig, lattice: ScaledLattice,
                          max_tries: int = 500):
    """Regenerate until the first sample folds to zero (demo anchor)."""
    seed = cfg.seed
    for _ in range(max_tries):
        f, band = make_test_signal(replace(cfg, seed=seed), lattice.lam)
        _, p0 = fold(f[:1], lattice)
        if np.all(p0 == 0):
            return f, band
        seed += 7919
    raise DemoRecoveryError("no start-in-cell signal found")


def emit_trajectory_demo(outdir, seed: int = 0, lam: float = 1.0,
                         power_trials: int = 200) -> dict:
    """Square vs hexagon folding of the 2D complex demo signal.

    Writes per-geometry trajectory CSVs (original, folded, recovered), the
    Voronoi cell outlines, and returns a summary including the folded-power
    ratio over a fresh ensemble. Raises DemoRecoveryError if either
    geometry misses machine-precision reconstruction.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = demo2d_config(seed)
    summary = {}
    for name, family in (("square", ZN), ("hexagon", A2)):
        lattice = make_lattice(family, 2, lam)
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
        t = np.arange(len(f)) / cfg.fs
        data = np.column_stack([t, f, y, result.f_hat])
        header = "t,orig0,orig1,folded0,folded1,rec0,rec1"
        np.savetxt(outdir / f"demo2d_{name}.csv", data, delimiter=",",
                   header=header, comments="", fmt="%.12g")
        poly = voronoi_cell_polygon(lattice)
        np.savetxt(outdir / f"cell_{name}.csv", poly, delimiter=",",
                   header="x,y", comments="", fmt="%.12g")
        summary[name] = {"max_error": err, "peak": peak,
                         "iterations": result.iterations}

    summary["power_ratio"] = demo_power_ratio(lam=lam, n_trials=power_trials,
                                              seed=seed)
    (outdir / "demo2d_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def demo_power_ratio(lam: float = 1.0, n_trials: int = 200, seed: int = 0) -> float:
    """Hexagon / square folded-power ratio over the 2D demo ensemble."""
    hexl = make_lattice(A2, 2, lam)
    sq = make_lattice(ZN, 2, lam)
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
    E8-folded data.
    """
    from .moments import sample_uniform_cell
    rng = np.random.default_rng(seed)
    report = {"matched": {}, "mismatched": {}}
    plan = [("z", ZN, 1), ("a2", A2, 2), ("d4", DN, 4), ("e8", E8, 8)]
    for name, family, n in plan:
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
        mse_sq = float(((r_sq - scalar_quantize(r_sq, b, 1.0)) ** 2).sum(axis=1).mean())
        mse_e8 = float(((r_e8 - scalar_quantize(r_e8, b, 1.0)) ** 2).sum(axis=1).mean())
        report["mismatched"][int(b)] = {"cube_folded": mse_sq,
                                        "e8_folded": mse_e8,
                                        "ratio": mse_e8 / mse_sq}
    return report
