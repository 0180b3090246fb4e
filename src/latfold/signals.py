"""Multichannel bandlimited test signals on a uniform sampling grid.

Component frequencies are snapped to the DFT grid of the record
(``f = m / duration`` with integer ``m >= 1``) so a finite record is exactly
periodic and carries no spectral leakage. This discretizes the continuous
draw, whose probability of landing exactly on 0 is zero, hence ``m >= 1``
and every generated channel has exactly zero record mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .lattices import ConfigurationError, _check_count, _check_positive


class DegenerateSignalError(ValueError):
    """Signal is identically zero and cannot be normalized."""


@dataclass(frozen=True)
class SignalConfig:
    # every record has 14 components in a 10 Hz band over 1 s: constants, not fields
    n_components: ClassVar[int] = 14
    omega_max: ClassVar[float] = 10.0      # Hz
    duration: ClassVar[float] = 1.0        # seconds

    n_channels: int
    of: float = 6.0                # oversampling factor, > 1
    dr_factor: float = 3.0         # gamma = peak amplitude / lam
    seed: int = 0
    complex_pair: bool = False     # 2 channels = Re/Im of a complex signal

    def __post_init__(self):
        _check_count("n_channels", self.n_channels)
        _check_count("seed", self.seed, 0)
        _check_positive("dr_factor", self.dr_factor)
        _check_positive("of", self.of, 1)
        if self.complex_pair and self.n_channels != 2:
            raise ConfigurationError(f"complex_pair needs n_channels 2, got {self.n_channels!r}")

    @property
    def fs(self) -> float:
        return self.of * 2.0 * self.omega_max


def _snap(f_hz: np.ndarray, duration: float, m_cap: int) -> np.ndarray:
    m = np.round(f_hz * duration)
    m = np.clip(np.abs(m), 1, m_cap) * np.where(m < 0, -1.0, 1.0)
    return m / duration


def _normalize(samples: np.ndarray, peak: float) -> np.ndarray:
    """Rescale so the largest absolute sample over all channels is ``peak``."""
    top = np.abs(samples).max()
    if top == 0.0:
        raise DegenerateSignalError("cannot normalize an all-zero signal")
    return (peak / top) * samples


def make_test_signal(cfg: SignalConfig, lam: float):
    """Random multisine sampled at ``cfg.fs`` from t = 0, peak ``dr_factor*lam``.

    Real mode: per channel, ``N_c`` components with frequency
    ``U[0, omega_max]`` (snapped), amplitude ``U[0.5, 1]`` and phase
    ``U[0, 2 pi)``, summed as ``amp * cos(2 pi f t + phase)``. Complex-pair
    mode: one set of components with frequency ``U[-omega_max, omega_max]``;
    channel 0 is the real part of the complex sum and channel 1 its
    imaginary part.

    Returns ``(samples, band_hz)``: the ``(ceil(duration*fs), n_channels)``
    samples and the largest component frequency magnitude.
    """
    rng = np.random.default_rng(cfg.seed)
    m_cap = int(np.floor(cfg.omega_max * cfg.duration))
    if cfg.complex_pair:
        shape, f_lo = cfg.n_components, -cfg.omega_max
    else:
        shape, f_lo = (cfg.n_channels, cfg.n_components), 0.0
    freqs = _snap(rng.uniform(f_lo, cfg.omega_max, shape), cfg.duration, m_cap)
    amps = rng.uniform(0.5, 1.0, shape)
    phases = rng.uniform(0.0, 2.0 * np.pi, shape)
    t = np.arange(int(np.ceil(cfg.duration * cfg.fs))) / cfg.fs
    if cfg.complex_pair:
        c = amps * np.exp(1j * phases)
        z = (c[None, :] * np.exp(2j * np.pi * freqs[None, :] * t[:, None])).sum(axis=1)
        samples = np.stack([z.real, z.imag], axis=1)
    else:
        arg = 2.0 * np.pi * freqs[None, :, :] * t[:, None, None] + phases[None, :, :]
        samples = (amps[None, :, :] * np.cos(arg)).sum(axis=-1)
    return _normalize(samples, cfg.dr_factor * lam), float(np.abs(freqs).max())
