"""Mono WAV file access: RIFF PCM 16-bit and 32-bit IEEE float at 16 kHz.

Samples are normalized floats in [-1, 1); 16-bit data is divided by 32768 on
read and scaled back on write, where out-of-range samples are clipped and
counted.
"""

from __future__ import annotations

import numpy as np
from scipy.io import wavfile

PCM16_SCALE = 32768.0


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a mono WAV file.

    Returns:
        ``(samples, sample_rate)`` with samples as float64 in [-1, 1).

    Raises:
        ValueError: for multi-channel files or unsupported sample formats.
    """
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono audio, got {data.ndim} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / PCM16_SCALE
    elif data.dtype == np.float32 or data.dtype == np.float64:
        samples = data.astype(np.float64)
    else:
        raise ValueError(
            f"{path}: unsupported sample format {data.dtype}; use 16-bit PCM or 32-bit float"
        )
    return samples, int(rate)


def write_wav(path, samples: np.ndarray, sample_rate: int, fmt: str = "pcm16") -> int:
    """Write a mono WAV file as 16-bit PCM (default) or 32-bit IEEE float.

    Returns the number of samples clipped to the 16-bit range (0 for float32).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError(f"expected a mono signal, got shape {samples.shape}")
    if fmt == "float32":
        wavfile.write(path, sample_rate, samples.astype(np.float32))
        return 0
    if fmt != "pcm16":
        raise ValueError(f"unknown WAV format {fmt!r}; use 'pcm16' or 'float32'")
    scaled = np.round(samples * PCM16_SCALE)
    clipped = np.clip(scaled, -PCM16_SCALE, PCM16_SCALE - 1)
    wavfile.write(path, sample_rate, clipped.astype(np.int16))
    return int(np.count_nonzero(clipped != scaled))
