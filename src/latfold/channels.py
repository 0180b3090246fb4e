"""ADC distortion models applied to folded records.

Every stage takes and returns a ``(K, n)`` sample array. Three channels:
additive noise at a prescribed SNR, a component-wise mid-tread scalar
quantizer, and a matched lattice quantizer on the scaled lattice
``2^-B * Lambda``. Each rejects NaN and infinite samples.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .lattices import (ConfigurationError, ScaledLattice, _check_finite, _check_positive, fold,
                       nearest_point)


def _check_bits(bits) -> None:
    if isinstance(bits, bool) or not isinstance(bits, numbers.Real) or bits not in range(1, 25):
        raise ConfigurationError(f"bits must be an integer in 1..24, got {bits!r}")


def fold_signal(f: np.ndarray, lattice: ScaledLattice):
    """Fold a (K, n) sample array; returns read-only ``(residue, offsets)``."""
    residue, offsets = fold(np.asarray(f, dtype=float), lattice)
    residue.setflags(write=False)
    offsets.setflags(write=False)
    return residue, offsets


def add_noise(y: np.ndarray, snr_db: float, seed) -> np.ndarray:
    """Additive Gaussian noise at the prescribed SNR relative to this record's power.

    Per-coordinate noise variance equals ``P_y * 10^(-snr/10)`` with ``P_y``
    the empirical mean of ``|y[k]|^2 / n`` over the record. ``snr_db`` is
    finite: a noiseless record is not passed through the channel.
    """
    _check_positive("snr_db", snr_db)
    _check_finite(y, "channel input")
    rng = np.random.default_rng(seed)
    var = float((y**2).sum() / y.size) * 10.0 ** (-snr_db / 10.0)
    return y + math.sqrt(var) * rng.standard_normal(y.shape)


def scalar_quantize(y: np.ndarray, bits: float, lam: float) -> np.ndarray:
    """Uniform mid-tread scalar quantizer with step ``2*lam / 2^bits``.

    The grid is the same for every folding lattice, which is the point of
    the mismatched architecture: per-coordinate error is uniform on
    ``[-step/2, step/2]`` regardless of the cell shape. The output is not
    clipped to ``[-lam, lam]``: cells other than the cube extend past
    ``lam`` per coordinate, and clipping there would distort the error law.
    ``bits`` is an integer in 1..24; a noiseless record skips the channel.
    """
    _check_bits(bits)
    _check_finite(y, "channel input")
    step = 2.0 * lam / 2.0 ** int(bits)
    return step * np.round(y / step)


def lattice_quantize(y: np.ndarray, lattice: ScaledLattice, bits: float) -> np.ndarray:
    """Matched quantizer: nearest point of the scaled lattice ``2^-B Lambda``, B in 1..24."""
    _check_bits(bits)
    _check_finite(y, "channel input")
    s = 2.0 ** (-int(bits))
    return s * nearest_point(y / s, lattice)
