"""Voronoi-cell second moments by Monte Carlo and closed-form MSE ratios."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattices import (A2, DN, E8, ZN, ConfigurationError, ScaledLattice, _check_count, fold,
                       make_lattice)

_CHUNK = 1 << 18
# rows drawn, folded and squared at a time within a chunk: it bounds every
# temporary (the decoder's largest is (cosets, _TILE, n) floats, 512 KB on
# E8), and the estimate does not depend on it
_TILE = 1 << 12

# best known 3D / 24D quantizers; no nearest-point algorithm here, so their
# rows are reported as literature constants only
CONSTANT_ROWS = {
    "a3*": {"n": 3, "G": 0.0785, "volume_ratio": 0.707, "mse_ratio": 0.748},
    "leech24": {"n": 24, "G": 0.0658, "volume_ratio": 5.96e-8, "mse_ratio": 0.197},
}

G_CUBIC = 1.0 / 12.0

# (name, family, dimension) of the lattices whose cells are sampled
ESTIMATED_FAMILIES = (("z", ZN, 1), ("a2", A2, 2), ("d4", DN, 4), ("e8", E8, 8))


@dataclass(frozen=True)
class SecondMomentEstimate:
    G: float
    std_err: float


def sample_uniform_cell(lattice: ScaledLattice, rng: np.random.Generator, size: int):
    """``(size, n)`` exactly uniform samples on the Voronoi cell.

    Draws uniformly on the fundamental parallelepiped and folds; the fold is
    a volume-preserving bijection modulo the lattice, so no rejection is
    needed.
    """
    _check_count("size", size)
    u = rng.random((size, lattice.n))
    w = u @ lattice.basis.T
    r, _ = fold(w, lattice)
    return r


def _worker_count() -> int:
    """Threads or processes to run at once: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_sums(lattice: ScaledLattice, seed, i: int, size: int):
    """Sums of ``|r|^2`` and ``|r|^4`` over chunk ``i``, drawn tile by tile."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
    r2 = np.empty(size)
    for t in range(0, size, _TILE):
        r = sample_uniform_cell(lattice, rng, min(_TILE, size - t))
        r2[t:t + len(r)] = (r**2).sum(axis=1)
    return r2.sum(), (r2**2).sum()


def _estimate_all(lattices, n_samples: int, seed) -> list:
    """Second-moment estimates of ``lattices``, their chunks in one thread pool.

    The chunks of every lattice are submitted to one pool, the highest
    dimension (the costliest per sample) first, so no thread waits at a
    lattice boundary. Each lattice's sums are reduced in chunk order.
    """
    _check_count("n_samples", n_samples, 10**4)
    sizes = [min(_CHUNK, n_samples - i) for i in range(0, n_samples, _CHUNK)]
    costliest_first = sorted(range(len(lattices)), key=lambda k: -lattices[k].n)
    with ThreadPoolExecutor(max_workers=_worker_count()) as ex:
        futures = {k: [ex.submit(_chunk_sums, lattices[k], seed, i, size)
                       for i, size in enumerate(sizes)] for k in costliest_first}
    estimates = []
    for k, lat in enumerate(lattices):
        parts = [f.result() for f in futures[k]]
        # reduce in chunk order: merge-order independent by construction
        s1 = sum(p[0] for p in parts)
        s2 = sum(p[1] for p in parts)
        mean = s1 / n_samples
        var = max(s2 / n_samples - mean**2, 0.0)
        denom = lat.n * lat.volume ** (2.0 / lat.n)
        G = mean / denom
        std_err = math.sqrt(var / n_samples) / denom
        estimates.append(SecondMomentEstimate(G=G, std_err=std_err))
    return estimates


def estimate_second_moment(lattice: ScaledLattice, n_samples: int, seed) -> SecondMomentEstimate:
    """Monte Carlo estimate of the dimensionless second moment G.

    Samples are partitioned into fixed-size chunks with independent
    substreams seeded by ``(seed, chunk_index)``. Each chunk is streamed
    through tiles of ``_TILE`` rows that draw from its substream in order,
    and only its ``(m,)`` squared norms are kept, so each thread holds one
    tile's temporaries and one chunk's norms, not a chunk's draw.
    One thread per CPU this process may run on estimates the chunks; the
    result depends on neither the tile size nor the thread count.
    ``G = E|r|^2 / (n V^{2/n})`` for ``r`` uniform on the cell; the
    estimate is invariant to the inradius.
    """
    return _estimate_all([lattice], n_samples, seed)[0]


def mse_ratio(l1: ScaledLattice, l2: ScaledLattice, G1: float, G2: float) -> float:
    """Dimensionless MSE ratio of two same-dimension lattices; lam cancels."""
    if l1.n != l2.n:
        raise ConfigurationError("mse_ratio needs lattices of equal dimension")
    return (G1 * l1.volume ** (2.0 / l1.n)) / (G2 * l2.volume ** (2.0 / l2.n))


@dataclass(frozen=True)
class EquivalentGains:
    snr_db: float
    of_factor: float
    bits_saved: float


def equivalent_gains(ratio: float) -> EquivalentGains:
    """Convert an MSE ratio into equivalent SNR / oversampling / bit savings."""
    if not 0.0 < ratio <= 1.0:
        raise ConfigurationError(f"ratio must be in (0, 1], got {ratio}")
    inv = 1.0 / ratio
    return EquivalentGains(snr_db=10.0 * math.log10(inv),
                           of_factor=inv,
                           bits_saved=math.log(inv) / math.log(4.0))


def table1_report(n_samples: int = 10**6, seed: int = 0):
    """Second-moment comparison rows, cubic baseline at equal inradius.

    Estimated rows: Z (n=1), A2, D4, E8, their chunks estimated by one
    thread pool (see ``estimate_second_moment``). The 3D and 24D
    quantizers are emitted from literature constants and flagged as such.
    """
    lattices = [make_lattice(family, n, 1.0) for _, family, n in ESTIMATED_FAMILIES]
    estimates = _estimate_all(lattices, n_samples, seed)
    rows = []
    for (name, _, n), lat, est in zip(ESTIMATED_FAMILIES, lattices, estimates):
        cube = make_lattice(ZN, n, 1.0)
        ratio = mse_ratio(lat, cube, est.G, G_CUBIC)
        rows.append({
            "name": name, "n": n, "G": est.G, "std_err": est.std_err,
            "volume_ratio": lat.volume / (2.0 * lat.lam) ** n,
            "mse_ratio": ratio, "estimated": True,
        })
    for name, c in CONSTANT_ROWS.items():
        rows.append({
            "name": name, "n": c["n"], "G": c["G"], "std_err": 0.0,
            "volume_ratio": c["volume_ratio"], "mse_ratio": c["mse_ratio"],
            "estimated": False,
        })
    return rows


def format_report_csv(rows) -> str:
    lines = ["name,n,G,std_err,volume_ratio,mse_ratio,source"]
    for r in rows:
        src = "estimated" if r["estimated"] else "constant, not estimated"
        lines.append(f"{r['name']},{r['n']},{r['G']:.6f},{r['std_err']:.2e},"
                     f"{r['volume_ratio']:.6g},{r['mse_ratio']:.4f},{src}")
    return "\n".join(lines) + "\n"


def format_report_text(rows) -> str:
    hdr = f"{'lattice':>8} {'n':>3} {'G':>8} {'V/(2lam)^n':>11} {'MSE ratio':>10}  source"
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        src = "estimated" if r["estimated"] else "constant, not estimated"
        lines.append(f"{r['name']:>8} {r['n']:>3} {r['G']:>8.4f} "
                     f"{r['volume_ratio']:>11.4g} {r['mse_ratio']:>10.3f}  {src}")
    return "\n".join(lines) + "\n"
