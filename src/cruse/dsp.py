"""STFT analysis/synthesis frontend for the suppression-gain pipeline.

Spectrograms are complex float arrays of shape ``(frames, bins)``.  Framing is
causal: the head of the signal is zero-padded by one hop so that frame ``n``
depends only on input samples up to ``n * hop_len + window_len``, and the
algorithmic delay of an analysis/synthesis round trip equals one window length
(20 ms at the default configuration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_LOG_FLOOR = 1e-12

# OLA positions with accumulated window energy below this are emitted as zero
# instead of being renormalized (guards the division at frame boundaries).
_ENVELOPE_EPS = 1e-12


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters: 16 kHz, 20 ms square-root Hann windows, 50% overlap."""

    sample_rate: int = 16000
    window_len: int = 320
    fft_len: int = 320

    def __post_init__(self):
        if self.window_len < 2 or self.window_len % 2:
            raise ValueError(f"window_len must be even and >= 2, got {self.window_len}")
        if self.fft_len < self.window_len:
            raise ValueError(f"fft_len {self.fft_len} smaller than window_len {self.window_len}")

    @property
    def hop_len(self) -> int:
        """Half a window: the overlap-add assumes 50% overlap."""
        return self.window_len // 2

    @property
    def num_bins(self) -> int:
        return self.fft_len // 2 + 1

    @property
    def hop_ms(self) -> float:
        """Duration of one hop in milliseconds (10 ms at the defaults)."""
        return 1000.0 * self.hop_len / self.sample_rate

    @property
    def head_pad(self) -> int:
        """Zeros prepended to the signal so the first frame is causal-aligned."""
        return self.window_len - self.hop_len


def make_window(window_len: int) -> np.ndarray:
    """Square root of the periodic Hann window.

    The same vector is used for analysis and synthesis.  At 50% overlap the
    squared window satisfies the COLA identity exactly:
    ``w[i]**2 + w[i + window_len // 2]**2 == 1``.
    """
    if window_len < 2 or window_len % 2:
        raise ValueError(f"window_len must be even and >= 2, got {window_len}")
    i = np.arange(window_len)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * i / window_len)
    return np.sqrt(hann)


def num_frames(num_samples: int, config: StftConfig) -> int:
    """Frame count produced by :func:`stft` for ``num_samples`` input samples."""
    padded = num_samples + config.head_pad
    if padded < config.window_len:
        return 0
    return (padded - config.window_len) // config.hop_len + 1


def require_frames(num_samples: int, config: StftConfig) -> int:
    """:func:`num_frames`, raising ``ValueError`` when it is zero (a signal
    shorter than one hop)."""
    frames = num_frames(num_samples, config)
    if frames < 1:
        raise ValueError(
            f"signal of {num_samples} samples is shorter than one hop ({config.hop_len})"
        )
    return frames


def stft(samples: np.ndarray, config: StftConfig = StftConfig()) -> np.ndarray:
    """Forward transform of a mono signal.

    Args:
        samples: real 1-D signal.
        config: framing parameters.

    Returns:
        Complex array of shape ``(frames, num_bins)``.  Trailing samples that
        do not fill a full frame are dropped.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {samples.shape}")
    frames = require_frames(len(samples), config)
    padded = np.concatenate([np.zeros(config.head_pad), samples])
    usable = (frames - 1) * config.hop_len + config.window_len
    segments = sliding_window_view(padded[:usable], config.window_len)[:: config.hop_len]
    return np.fft.rfft(segments * make_window(config.window_len), n=config.fft_len, axis=1)


def istft(spec: np.ndarray, config: StftConfig = StftConfig()) -> np.ndarray:
    """Inverse transform via synthesis windowing and normalized overlap-add.

    Returns ``frames * hop_len`` samples; ``istft(stft(x))`` reconstructs the
    corresponding prefix of ``x``.  Overlap-added samples are divided by the
    accumulated squared-window envelope, which is exactly 1 in the interior
    (COLA) and corrects the partially covered final hop.
    """
    spec = np.asarray(spec)
    if spec.ndim != 2 or spec.shape[1] != config.num_bins:
        raise ValueError(
            f"expected spectrogram with {config.num_bins} bins, got shape {spec.shape}"
        )
    frames = spec.shape[0]
    window = make_window(config.window_len)
    hop, wlen = config.hop_len, config.window_len
    total = (frames - 1) * hop + wlen

    segments = np.fft.irfft(spec, n=config.fft_len, axis=1)[:, :wlen] * window
    # hop == wlen / 2: each frame's first half lands on hop f, its second on
    # hop f + 1, so the overlap-add is two slice adds
    acc = np.zeros(total)
    acc[:-hop] += segments[:, :hop].reshape(-1)
    acc[hop:] += segments[:, hop:].reshape(-1)
    wsq = window * window
    env = np.zeros(total)
    env[:-hop] += np.tile(wsq[:hop], frames)
    env[hop:] += np.tile(wsq[hop:], frames)

    out = normalize_overlap_add(acc, env)
    return out[config.head_pad : config.head_pad + frames * hop]


def normalize_overlap_add(acc: np.ndarray, env: np.ndarray) -> np.ndarray:
    """Divide overlap-added samples by their accumulated squared-window envelope.

    Positions whose envelope is at most ``_ENVELOPE_EPS`` are emitted as zero.
    """
    return np.where(env > _ENVELOPE_EPS, acc / np.maximum(env, _ENVELOPE_EPS), 0.0)


def log_power_features(spec: np.ndarray, floor: float = DEFAULT_LOG_FLOOR) -> np.ndarray:
    """Per-frame log power spectra, floored before the logarithm.

    ``out[n, k] = ln(max(|spec[n, k]|**2, floor))``; all outputs are finite.
    """
    if floor <= 0:
        raise ValueError(f"log floor must be positive, got {floor}")
    power = np.abs(np.asarray(spec)) ** 2
    return np.log(np.maximum(power, floor))


def apply_gain(spec: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Multiply a complex spectrogram by a real gain mask of identical shape."""
    spec = np.asarray(spec)
    gains = np.asarray(gains)
    if spec.shape != gains.shape:
        raise ValueError(f"gain shape {gains.shape} does not match spectrogram {spec.shape}")
    return spec * gains


def consistency_project(spec: np.ndarray, config: StftConfig = StftConfig()) -> np.ndarray:
    """Project onto the set of consistent spectrograms: ``stft(istft(spec))``.

    Idempotent, and the identity (up to rounding) on spectrograms that were
    produced by :func:`stft`.
    """
    return stft(istft(spec, config), config)
