"""STFT analysis/synthesis frontend for the suppression-gain pipeline.

Spectrograms are complex float arrays of shape ``(frames, bins)``.  Framing is
causal: the head of the signal is zero-padded by one hop so that frame ``n``
depends only on input samples up to ``n * hop_len + window_len``, and the
algorithmic delay of an analysis/synthesis round trip equals one window length
(20 ms at the default configuration).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

# The one rate of the whole pipeline: framing, data synthesis and metrics.
SAMPLE_RATE = 16000

DEFAULT_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters: 20 ms square-root Hann windows at 50% overlap.

    The rate is fixed at :data:`SAMPLE_RATE`; only the window and FFT
    lengths are settable.
    """

    sample_rate: ClassVar[int] = SAMPLE_RATE
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

    @cached_property
    def window(self) -> np.ndarray:
        """The analysis and synthesis window, :func:`make_window`; made once
        per config and read-only."""
        window = make_window(self.window_len)
        window.flags.writeable = False
        return window

    @cached_property
    def _cola(self) -> np.ndarray:
        """Squared-window envelope of a hop that two frames overlap: 1 to
        rounding (COLA), so dividing by it needs no guard."""
        wsq = self.window * self.window
        return wsq[: self.hop_len] + wsq[self.hop_len :]


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
    """Frame count produced by :func:`stft` for ``num_samples`` input samples:
    one per whole hop, since the head is padded by one hop."""
    return num_samples // config.hop_len


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
    return _frame_spectra(np.zeros(config.hop_len), samples[: frames * config.hop_len], config)


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
    if not len(spec):
        return np.zeros(0)
    hops, tail = _overlap_add(spec, np.zeros(config.hop_len), config)
    # the first hop is the head padding
    return np.concatenate([hops, _last_hop(tail, config)])[config.hop_len :]


# hop_len == window_len / 2, so frame t is hop t - 1 followed by hop t, and
# every hop but the last is covered by two frame halves whose squared windows
# sum to the COLA envelope.  The helpers below are the only code that relies
# on it.


def _frame_spectra(head: np.ndarray, samples: np.ndarray, config: StftConfig) -> np.ndarray:
    """Windowed spectra ``(T, num_bins)`` of the frames that end in ``samples``.

    ``samples`` holds a whole number T >= 1 of hops and ``head`` the hop
    before them: the first half of frame 0.
    """
    hop = config.hop_len
    hops = samples.reshape(-1, hop)
    frames = np.empty((len(hops), config.window_len))
    frames[0, :hop] = head
    frames[1:, :hop] = hops[:-1]
    frames[:, hop:] = hops
    frames *= config.window
    return np.fft.rfft(frames, n=config.fft_len)


def _overlap_add(spec: np.ndarray, tail: np.ndarray, config: StftConfig):
    """Synthesize the T >= 1 frames of ``spec`` and overlap-add them onto a carried tail.

    ``tail`` is the windowed second half of the frame before ``spec[0]``;
    zeros stand for a silent frame.  Returns ``(hops, tail)``: the
    ``T * hop_len`` samples the frames complete, normalized, and the second
    half of the last frame, to carry into the next call or to end the
    signal with :func:`_last_hop`.
    """
    hop, window = config.hop_len, config.window
    frames = np.fft.irfft(spec, n=config.fft_len)[:, : config.window_len] * window
    acc = frames[:, :hop]
    acc[0] += tail
    acc[1:] += frames[:-1, hop:]
    return (acc / config._cola).reshape(-1), frames[-1, hop:]


def _last_hop(tail: np.ndarray, config: StftConfig) -> np.ndarray:
    """The hop after the last frame: that frame's second half alone, normalized.

    The squared window there is at least ``sin(pi / window_len)**2 > 0``, so
    the division needs no guard.
    """
    return tail / config.window[config.hop_len :] ** 2


def log_power_features(spec: np.ndarray) -> np.ndarray:
    """Per-frame log power spectra, floored before the logarithm.

    ``out[n, k] = ln(max(|spec[n, k]|**2, DEFAULT_LOG_FLOOR))``; all outputs
    are finite.
    """
    power = np.abs(np.asarray(spec)) ** 2
    return np.log(np.maximum(power, DEFAULT_LOG_FLOOR))


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
