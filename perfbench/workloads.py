"""The four benchmark workloads and the output checks for each.

A workload is a fixed round of ``latfold`` CLI invocations, given as the
argument lists a user would type. ``argvs`` derives the CLI seeds of round
``r`` from the run seed, so the same run seed gives the same inputs.
``check`` reads what the round wrote and returns a list of ``Failure``;
every reference it compares against is computed here, from closed forms
and the stated inputs, never from a stored copy of the program's output.

The checks are plain functions of parsed output (``check_sweep``,
``check_table1``, ``check_demo``) so the self-test can feed them corrupted
copies.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from latfold.experiments import demo2d_config, table3_config, table4_config
from latfold.lattices import A2, DN, E8, ZN, make_lattice

# closed-form dimensionless second moments (Conway & Sloane, ch. 2 and 21)
G_REF = {
    "z": 1.0 / 12.0,
    "a2": 5.0 / (36.0 * math.sqrt(3.0)),
    "d4": 13.0 / (120.0 * math.sqrt(2.0)),
    "e8": 929.0 / 12960.0,
}
# cell volume over the volume of the cube of equal inradius, (n, ratio)
VOLUME_RATIO = {"z": (1, 1.0), "a2": (2, math.sqrt(3.0) / 2.0),
                "d4": (4, 0.5), "e8": (8, 1.0 / 16.0)}
G_E8 = G_REF["e8"]

# Monte Carlo checks accept Z_MAX standard errors either side
Z_MAX = 5.0
# relative spread of one trial's quantization MSE around the law, so the mean
# of MSE / law over n recovered trials may deviate from 1 by
# Z_MAX * TRIAL_MSE_SD / sqrt(n). Over 40 seeds at 10 trials per cell, the
# mean over an architecture's 60 recovered trials at bits >= 8 had sd 0.0058
# (sq+sqq), 0.0048 (e8+sqq) and 0.0022 (e8+e8q), so 0.045 per trial at most,
# and stayed within 1.7% of 1. Slow quiet-window samples break the
# uniform-error model below 8 bits: OF=8 at 6 bits reads 28% low.
TRIAL_MSE_SD = 0.05
# hexagon/square folded-power band: 5/6 +- 0.035. Over 40 demo seeds spread
# across [0, 4e6) the ratio ranged 0.823..0.854 (mean 0.836, sd 0.006).
POWER_RATIO_BAND = (5.0 / 6.0 - 0.035, 5.0 / 6.0 + 0.035)
DEMO_LAM = 1.0
# demo2d seeds. The CLI fails on about 1 seed in 70 (hexagon LASSO recovery
# ends off by lattice vectors: seeds 138, 180 and 28003 of those tried), so
# the workload uses a fixed list, none of which fails, instead of seeds
# drawn from the run seed.
DEMO_SEEDS = tuple(range(40))


@dataclass(frozen=True)
class Failure:
    items: int          # items of the round this failure invalidates
    message: str


def _cli_seed(run_seed: int, r: int) -> int:
    return (int(run_seed) * 1000 + int(r)) % 2**31


# ---------------------------------------------------------------------------
# sweeps


def _sweep_grid(cfg):
    """(OF, level kind, level, architecture) per cell, in the program's order."""
    levels = [("clean", None) if s is None else ("snr", float(s))
              for s in cfg.snr_db_list] + \
             [("clean", None) if b is None else ("bits", float(b))
              for b in cfg.bits_list]
    return [(float(of), kind, level, arch)
            for of in cfg.of_list for kind, level in levels or [("clean", None)]
            for arch in cfg.architectures]


def parse_sweep_csv(text: str) -> list:
    return list(csv.DictReader(text.splitlines()))


def _num(s: str):
    return None if s == "" else float(s)


def check_sweep(rows: list, cfg, n_trials: int) -> list:
    """Output checks shared by both sweep presets.

    * the table covers the preset grid in order, one row per cell;
    * a cell that carries an ``error`` fails its trials;
    * every ``clean`` cell has rate 1.0 and zero MSE;
    * additive: where square and e8 both recover at the same (OF, SNR),
      the e8 MSE is below the square MSE;
    * quantization, bits >= 8: the scalar-quantizer MSE matches
      ``(2 lam / 2^B)^2 / 12`` and the matched E8 quantizer MSE matches
      ``G_E8 * 2 lam^2 * 4^-B``: per architecture, the mean of MSE / law
      over the recovered trials of every such cell lies within Z_MAX
      standard errors of 1.
    """
    grid = _sweep_grid(cfg)
    if len(rows) != len(grid):
        return [Failure(len(grid) * n_trials,
                        f"sweep: {len(rows)} rows, expected {len(grid)}")]
    fails = []
    cells = {}
    for row, (of, kind, level, arch) in zip(rows, grid):
        label = f"OF={of:g} {kind}={level} {arch}"
        got = (_num(row["of"]), row["level_kind"], _num(row["level"]),
               row["architecture"])
        if got != (of, kind, level, arch):
            fails.append(Failure(n_trials, f"sweep: row {got} where {label} expected"))
            continue
        if row["error"]:
            fails.append(Failure(n_trials, f"sweep: {label} error {row['error']}"))
            continue
        rate, mse = float(row["rate"]), _num(row["mse"])
        n_ok = round(rate * n_trials)
        if (int(row["n_trials"]) != n_trials or row["algorithm"] != "b2r2"
                or abs(n_ok - rate * n_trials) > 1e-3
                or (mse is None) != (n_ok == 0)):
            fails.append(Failure(n_trials, f"sweep: {label} inconsistent row {row}"))
            continue
        if kind == "clean" and (n_ok != n_trials or mse != 0.0):
            fails.append(Failure(n_trials, f"sweep: {label} noiseless rate {rate} "
                                           f"mse {mse}, expected 1.0 and 0"))
            continue
        cells[(of, kind, level, arch)] = (n_ok, mse)

    lam = cfg.lam
    pooled = {}             # arch -> [recovered trials, sum of MSE / law, cells]
    for (of, kind, level, arch), (n_ok, mse) in cells.items():
        if kind == "snr" and arch == "e8":
            sq = cells.get((of, kind, level, "square"))
            if sq and sq[0] and n_ok and not mse < sq[1]:
                fails.append(Failure(2 * n_trials,
                                     f"sweep: OF={of:g} SNR={level:g} e8 MSE {mse:.6e} "
                                     f"not below square MSE {sq[1]:.6e}"))
        if kind == "bits" and level >= 8 and n_ok:
            step = 2.0 * lam / 2.0 ** level
            ref = (G_E8 * 2.0 * lam**2 * 4.0 ** -level if arch == "e8+e8q"
                   else step**2 / 12.0)
            p = pooled.setdefault(arch, [0, 0.0, 0])
            p[0] += n_ok
            p[1] += n_ok * mse / ref
            p[2] += 1
    for arch, (n, total, n_cells) in pooled.items():
        tol = Z_MAX * TRIAL_MSE_SD / math.sqrt(n) + 1e-5
        if abs(total / n - 1.0) > tol:
            fails.append(Failure(n_cells * n_trials,
                                 f"sweep: bits>=8 {arch} MSE / law {total / n:.4f} "
                                 f"over {n} recovered trials, expected 1 within "
                                 f"{tol:.3g}"))
    return fails


@dataclass
class Sweep:
    preset: str
    trials: int

    def setup(self):
        """Build the preset config and its lattices: the work setup_s counts."""
        make = table3_config if self.preset == "additive" else table4_config
        self.cfg = make(n_trials=self.trials)
        self.lattices = [make_lattice(ZN, self.cfg.n_channels, self.cfg.lam),
                         make_lattice(E8, 8, self.cfg.lam)]
        return self

    @property
    def items(self) -> int:
        """One Monte Carlo trial per item."""
        return len(_sweep_grid(self.cfg)) * self.trials

    @property
    def of_by_K(self) -> dict:
        cfg = self.cfg
        return {int(round(of * 2.0 * cfg.omega_max * cfg.duration)): int(of)
                for of in cfg.of_list}

    def argvs(self, run_seed: int, r: int, outdir: Path) -> list:
        return [["sweep", "--preset", self.preset, "--trials", str(self.trials),
                 "--seed", str(_cli_seed(run_seed, r)), "--format", "csv",
                 "--out", str(outdir / "sweep.csv")]]

    def check(self, outdir: Path, stdouts: list) -> list:
        rows = parse_sweep_csv((outdir / "sweep.csv").read_text())
        return check_sweep(rows, self.cfg, self.trials)


# ---------------------------------------------------------------------------
# table1


def check_table1(rows: list, n_samples: int) -> list:
    """Each estimated G within Z_MAX std_err of its closed form.

    Also checks the volume ratios exactly, ``mse_ratio = 12 G vr^(2/n)``
    (a2 -> 5/6, e8 -> 0.430) within the same band, that ``std_err`` is no
    larger than the coordinate-uniform bound ``G sqrt(1/N)``, and that the
    two literature rows are flagged as constants.
    """
    fails = []
    by_name = {r.get("name"): r for r in rows}
    for name, g_ref in G_REF.items():
        r = by_name.get(name)
        if r is None:
            fails.append(Failure(n_samples, f"table1: no {name} row"))
            continue
        n, vr = VOLUME_RATIO[name]
        se = r["std_err"]
        ratio_ref = 12.0 * g_ref * vr ** (2.0 / n)
        problems = []
        if not (r["estimated"] is True and r["n"] == n):
            problems.append(f"n={r['n']} estimated={r['estimated']}")
        if not 0.0 < se <= g_ref / math.sqrt(n_samples):
            problems.append(f"std_err {se:.3e} out of range")
        if abs(r["G"] - g_ref) > Z_MAX * se:
            problems.append(f"G {r['G']:.7f} vs {g_ref:.7f} (std_err {se:.2e})")
        if abs(r["volume_ratio"] - vr) > 1e-12:
            problems.append(f"volume_ratio {r['volume_ratio']} vs {vr}")
        if abs(r["mse_ratio"] - ratio_ref) > Z_MAX * se * ratio_ref / g_ref:
            problems.append(f"mse_ratio {r['mse_ratio']:.5f} vs {ratio_ref:.5f}")
        if problems:
            fails.append(Failure(n_samples, f"table1 {name}: " + "; ".join(problems)))
    for name in ("a3*", "leech24"):
        r = by_name.get(name)
        if r is None or r["estimated"] is not False:
            fails.append(Failure(0, f"table1: constant row {name} missing or "
                                    f"marked estimated"))
    return fails


@dataclass
class Table1:
    samples: int

    def setup(self):
        """Build the table's lattices: the work setup_s counts."""
        self.lattices = [make_lattice(f, n, 1.0)
                         for f, n in ((ZN, 1), (A2, 2), (DN, 4), (E8, 8))]
        return self

    @property
    def items(self) -> int:
        """One Voronoi-cell sample of one lattice family per item."""
        return len(G_REF) * self.samples

    of_by_K = {}

    def argvs(self, run_seed: int, r: int, outdir: Path) -> list:
        return [["table1", "--samples", str(self.samples),
                 "--seed", str(_cli_seed(run_seed, r)), "--format", "json",
                 "--out", str(outdir / "table1.json")]]

    def check(self, outdir: Path, stdouts: list) -> list:
        rows = json.loads((outdir / "table1.json").read_text())
        return check_table1(rows, self.samples)


# ---------------------------------------------------------------------------
# demo2d


_HEX_NORMALS = np.array([[math.cos(a), math.sin(a)]
                         for a in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0)])
# generator matrices (columns) at inradius lam = 1
_BASIS = {"square": 2.0 * np.eye(2),
          "hexagon": 2.0 * np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])}
_CIRCUMRADIUS = {"square": math.sqrt(2.0), "hexagon": 2.0 / math.sqrt(3.0)}


def read_demo(outdir: Path) -> dict:
    """Parse one ``latfold demo2d`` output directory."""
    out = {"summary": json.loads((outdir / "demo2d_summary.json").read_text())}
    for geom in ("square", "hexagon"):
        out[geom] = np.loadtxt(outdir / f"demo2d_{geom}.csv", delimiter=",",
                               skiprows=1, ndmin=2)
        out["cell_" + geom] = np.loadtxt(outdir / f"cell_{geom}.csv",
                                         delimiter=",", skiprows=1, ndmin=2)
    return out


def check_demo(demo: dict, stdout: str, n_samples: int) -> list:
    """Checks on one demo2d seed; any problem fails that seed's one item.

    Per geometry: the folded samples lie in the closed cell by the facet
    test (square |r_i| <= lam; hexagon |<r,u>| <= lam for unit normals at
    0, 60 and 120 degrees); original minus folded is a lattice point; the
    recovered samples equal the original within 1e-8 * peak; the cell
    outline is closed with every vertex at the circumradius. The printed
    summary equals the summary file and its ``power_ratio`` lies in
    POWER_RATIO_BAND.
    """
    lam = DEMO_LAM
    problems = []
    for geom in ("square", "hexagon"):
        data = demo[geom]
        if data.shape != (n_samples, 7):
            problems.append(f"{geom} trajectory shape {data.shape}")
            continue
        orig, folded, rec = data[:, 1:3], data[:, 3:5], data[:, 5:7]
        normals = np.eye(2) if geom == "square" else _HEX_NORMALS
        if np.abs(folded @ normals.T).max() > lam * (1.0 + 1e-9):
            problems.append(f"{geom} folded sample outside the cell")
        coords = np.linalg.solve(_BASIS[geom], (orig - folded).T)
        if np.abs(coords - np.round(coords)).max() > 1e-8:
            problems.append(f"{geom} original minus folded is not a lattice point")
        peak = np.abs(orig).max()
        if np.abs(rec - orig).max() > 1e-8 * peak:
            problems.append(f"{geom} recovered differs from original by "
                            f"{np.abs(rec - orig).max():.3e}")
        cell = demo["cell_" + geom]
        radii = np.linalg.norm(cell, axis=1)
        if (cell.shape != ((5, 2) if geom == "square" else (7, 2))
                or not np.allclose(cell[0], cell[-1])
                or np.abs(radii - _CIRCUMRADIUS[geom] * lam).max() > 1e-9):
            problems.append(f"{geom} cell outline wrong")
    summary = demo["summary"]
    try:
        printed = json.loads(stdout)
    except ValueError:
        printed = None
    if printed != summary:
        problems.append("printed summary differs from demo2d_summary.json")
    lo, hi = POWER_RATIO_BAND
    if not lo <= summary.get("power_ratio", math.nan) <= hi:
        problems.append(f"power_ratio {summary.get('power_ratio')} outside "
                        f"[{lo:.4f}, {hi:.4f}]")
    return [Failure(1, "demo2d: " + "; ".join(problems))] if problems else []


@dataclass
class Demo2d:
    seeds_per_round: int

    def setup(self):
        """Build the demo config and both lattices: the work setup_s counts."""
        self.cfg = demo2d_config(0)
        self.n_samples = int(round(self.cfg.duration * self.cfg.fs))
        self.lattices = [make_lattice(ZN, 2, DEMO_LAM), make_lattice(A2, 2, DEMO_LAM)]
        return self

    @property
    def items(self) -> int:
        """One demo seed per item."""
        return self.seeds_per_round

    of_by_K = {}

    def demo_seeds(self, run_seed: int, r: int) -> list:
        """Round r takes the next group of DEMO_SEEDS, starting at the run seed."""
        k = self.seeds_per_round
        g = (run_seed + r) % (len(DEMO_SEEDS) // k)
        return list(DEMO_SEEDS[g * k:(g + 1) * k])

    def argvs(self, run_seed: int, r: int, outdir: Path) -> list:
        return [["demo2d", "--seed", str(s), "--lam", str(DEMO_LAM),
                 "--out", str(outdir / f"seed{j}")]
                for j, s in enumerate(self.demo_seeds(run_seed, r))]

    def check(self, outdir: Path, stdouts: list) -> list:
        fails = []
        for j, text in enumerate(stdouts):
            fails += check_demo(read_demo(outdir / f"seed{j}"), text, self.n_samples)
        return fails


# full size: each round takes about 2-4 s on one core
FULL = {
    "sweep-additive": lambda: Sweep("additive", trials=10),
    "sweep-quantization": lambda: Sweep("quantization", trials=10),
    "table1": lambda: Table1(samples=10**6),
    "demo2d": lambda: Demo2d(seeds_per_round=4),
}
# smoke size: the same rounds at a fraction of the cost, for the self-test
SMOKE = {
    "sweep-additive": lambda: Sweep("additive", trials=2),
    "sweep-quantization": lambda: Sweep("quantization", trials=2),
    "table1": lambda: Table1(samples=20000),
    "demo2d": lambda: Demo2d(seeds_per_round=1),
}


def make(name: str, size: str = "full"):
    return (SMOKE if size == "smoke" else FULL)[name]().setup()
