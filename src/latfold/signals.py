"""Multichannel bandlimited test signals on a uniform sampling grid.

Component frequencies are snapped to the DFT grid of the record
(``f = m / duration`` with integer ``m >= 1``) so a finite record is exactly
periodic and carries no spectral leakage. This discretizes the continuous
draw, whose probability of landing exactly on 0 is zero, hence ``m >= 1``
and every generated channel has exactly zero record mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateSignalError(ValueError):
    """Signal is identically zero and cannot be normalized."""


@dataclass(frozen=True)
class SignalConfig:
    n_channels: int
    n_components: int = 14
    omega_max: float = 10.0        # Hz
    of: float = 6.0                # oversampling factor, > 1
    duration: float = 1.0          # seconds
    dr_factor: float = 3.0         # gamma = peak amplitude / lam
    seed: int = 0
    complex_pair: bool = False     # 2 channels = Re/Im of a complex signal

    def __post_init__(self):
        if self.of <= 1:
            raise ValueError("oversampling factor must exceed 1")
        if self.dr_factor <= 0 or self.n_components < 1:
            raise ValueError("bad signal configuration")
        if self.complex_pair and self.n_channels != 2:
            raise ValueError("complex_pair mode requires exactly 2 channels")

    @property
    def fs(self) -> float:
        return self.of * 2.0 * self.omega_max


@dataclass(frozen=True)
class SampledSignal:
    samples: np.ndarray            # (K, n)
    fs: float
    t0: float = 0.0

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.shape[0]) / self.fs


@dataclass(frozen=True)
class MultisineSignal:
    """Continuous-signal handle: per-channel sums of grid-snapped sinusoids.

    Real mode stores ``amp * cos(2 pi m t / duration + phase)`` per channel.
    Complex-pair mode stores one complex coefficient set; channel 0 is the
    real part and channel 1 the imaginary part.
    """

    freqs_hz: np.ndarray           # (n_ch, N_c) or (N_c,) complex mode
    amps: np.ndarray
    phases: np.ndarray
    duration: float
    complex_pair: bool = False
    scale: float = 1.0

    def __call__(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.complex_pair:
            c = self.amps * np.exp(1j * self.phases)
            z = (c[None, :] * np.exp(2j * np.pi * self.freqs_hz[None, :] * t[:, None])).sum(axis=1)
            out = np.stack([z.real, z.imag], axis=1)
        else:
            arg = (2.0 * np.pi * self.freqs_hz[None, :, :] * t[:, None, None]
                   + self.phases[None, :, :])
            out = (self.amps[None, :, :] * np.cos(arg)).sum(axis=-1)
        return self.scale * out

    def scaled(self, factor: float) -> "MultisineSignal":
        return MultisineSignal(self.freqs_hz, self.amps, self.phases,
                               self.duration, self.complex_pair,
                               self.scale * factor)

    @property
    def occupied_band_hz(self) -> float:
        return float(np.abs(self.freqs_hz).max())


def _snap(f_hz: np.ndarray, duration: float, m_cap: int) -> np.ndarray:
    m = np.round(f_hz * duration)
    m = np.clip(np.abs(m), 1, m_cap) * np.where(m < 0, -1.0, 1.0)
    return m / duration


def generate_multisine(cfg: SignalConfig) -> MultisineSignal:
    """Random multisine with frequencies snapped to the record's DFT grid.

    Real mode: per channel, ``N_c`` components with frequency ``U[0, omega_max]``
    (snapped), amplitude ``U[0.5, 1]`` and phase ``U[0, 2 pi)``. Complex-pair
    mode: one set of components with frequency ``U[-omega_max, omega_max]``.
    """
    rng = np.random.default_rng(cfg.seed)
    m_cap = int(np.floor(cfg.omega_max * cfg.duration))
    if cfg.complex_pair:
        f = rng.uniform(-cfg.omega_max, cfg.omega_max, cfg.n_components)
        freqs = _snap(f, cfg.duration, m_cap)
        amps = rng.uniform(0.5, 1.0, cfg.n_components)
        phases = rng.uniform(0.0, 2.0 * np.pi, cfg.n_components)
    else:
        shape = (cfg.n_channels, cfg.n_components)
        f = rng.uniform(0.0, cfg.omega_max, shape)
        freqs = _snap(f, cfg.duration, m_cap)
        amps = rng.uniform(0.5, 1.0, shape)
        phases = rng.uniform(0.0, 2.0 * np.pi, shape)
    return MultisineSignal(freqs_hz=freqs, amps=amps, phases=phases,
                           duration=cfg.duration, complex_pair=cfg.complex_pair)


def sample_signal(signal: MultisineSignal, cfg: SignalConfig) -> SampledSignal:
    """Uniform samples at ``fs = of * 2 * omega_max`` starting at t = 0."""
    fs = cfg.fs
    K = int(np.ceil(cfg.duration * fs))
    t = np.arange(K) / fs
    return SampledSignal(samples=signal(t), fs=fs, t0=0.0)


def normalize_dr(sampled: SampledSignal, lam: float, gamma: float):
    """Rescale so the peak absolute sample over all channels equals gamma*lam.

    Returns ``(normalized SampledSignal, scale factor applied)``.
    """
    peak = np.abs(sampled.samples).max()
    if peak == 0.0:
        raise DegenerateSignalError("cannot normalize an all-zero signal")
    c = gamma * lam / peak
    return SampledSignal(samples=c * sampled.samples, fs=sampled.fs,
                         t0=sampled.t0), c


def make_test_signal(cfg: SignalConfig, lam: float):
    """Generate, sample and normalize in one step.

    Returns ``(handle, SampledSignal)`` with the handle rescaled to match the
    normalized samples.
    """
    sig = generate_multisine(cfg)
    sampled = sample_signal(sig, cfg)
    normalized, c = normalize_dr(sampled, lam, cfg.dr_factor)
    return sig.scaled(c), normalized
