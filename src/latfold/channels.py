"""ADC distortion models applied to folded records.

Three channels: additive noise at a prescribed SNR, a component-wise
mid-tread scalar quantizer, and a matched lattice quantizer on the scaled
lattice ``2^-B * Lambda``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattices import ScaledLattice, fold, nearest_point


def _check_bits(bits) -> None:
    if not (bits == math.inf or (math.isfinite(bits) and bits == int(bits)
                                 and 1 <= bits <= 24)):
        raise ValueError(f"bits must be an integer in 1..24 or inf, got {bits!r}")


def _check_snr(snr_db) -> None:
    if not snr_db > 0:
        raise ValueError(f"snr_db must be positive (or inf), got {snr_db!r}")


@dataclass(frozen=True)
class FoldedRecord:
    """Folded samples and the lattice they were folded with."""

    samples: np.ndarray             # (K, n)
    lattice: ScaledLattice

    @property
    def per_dim_power(self) -> float:
        return float((self.samples**2).sum() / self.samples.size)


def fold_signal(f: np.ndarray, lattice: ScaledLattice):
    """Fold a (K, n) sample array; returns ``(FoldedRecord, offsets)``."""
    residue, offsets = fold(np.asarray(f, dtype=float), lattice)
    return FoldedRecord(samples=residue, lattice=lattice), offsets


def add_noise(rec: FoldedRecord, snr_db: float, seed, law: str = "gaussian") -> FoldedRecord:
    """Additive noise at the prescribed SNR relative to this record's power.

    Per-coordinate noise variance equals ``P_y * 10^(-snr/10)`` with ``P_y``
    the empirical mean of ``|y[k]|^2 / n`` over the record. ``snr_db=inf``
    returns the record unchanged. The uniform law matches the Gaussian
    variance.
    """
    _check_snr(snr_db)
    if math.isinf(snr_db):
        return rec
    rng = np.random.default_rng(seed)
    var = rec.per_dim_power * 10.0 ** (-snr_db / 10.0)
    sigma = math.sqrt(var)
    if law == "gaussian":
        noise = sigma * rng.standard_normal(rec.samples.shape)
    elif law == "uniform":
        a = sigma * math.sqrt(3.0)
        noise = rng.uniform(-a, a, rec.samples.shape)
    else:
        raise ValueError(f"unknown noise law {law!r}")
    return FoldedRecord(samples=rec.samples + noise, lattice=rec.lattice)


def scalar_quantize(rec: FoldedRecord, bits: float, lam: float) -> FoldedRecord:
    """Uniform mid-tread scalar quantizer with step ``2*lam / 2^bits``.

    The grid is the same for every folding lattice, which is the point of
    the mismatched architecture: per-coordinate error is uniform on
    ``[-step/2, step/2]`` regardless of the cell shape. The output is not
    clipped to ``[-lam, lam]``: cells other than the cube extend past
    ``lam`` per coordinate, and clipping there would distort the error law.
    """
    _check_bits(bits)
    if math.isinf(bits):
        return rec
    step = 2.0 * lam / 2.0 ** int(bits)
    q = step * np.round(rec.samples / step)
    return FoldedRecord(samples=q, lattice=rec.lattice)


def lattice_quantize(rec: FoldedRecord, lattice: ScaledLattice, bits: float) -> FoldedRecord:
    """Matched quantizer: nearest point of the scaled lattice ``2^-B Lambda``."""
    _check_bits(bits)
    if math.isinf(bits):
        return rec
    s = 2.0 ** (-int(bits))
    q = s * nearest_point(rec.samples / s, lattice)
    return FoldedRecord(samples=q, lattice=rec.lattice)

