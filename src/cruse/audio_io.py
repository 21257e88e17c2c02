"""Mono WAV file access: RIFF PCM 16-bit and 32-bit IEEE float at 16 kHz.

Samples are normalized floats in [-1, 1); 16-bit data is divided by 32768 on
read and scaled back on write, where out-of-range samples are clipped and
counted.
"""

from __future__ import annotations

import io
import struct

import numpy as np
from scipy.io import wavfile

from .dsp import SAMPLE_RATE

PCM16_SCALE = 32768.0


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a mono WAV file.

    Returns:
        ``(samples, sample_rate)`` with samples as float64 in [-1, 1).

    Raises:
        ValueError: naming the path, for a file that is not a readable WAV
            file, one shorter than its RIFF header or its data chunk header
            declares (truncated), multi-channel audio, or an unsupported
            sample format.
    """
    with open(path, "rb") as fh:
        head, size = fh.read(8), fh.seek(0, io.SEEK_END)
    declared = 8 + int.from_bytes(head[4:], "little")
    if head[:4] == b"RIFF" and size < declared:
        raise ValueError(f"{path}: truncated WAV file ({size} of {declared} bytes)")
    # Memory-mapped, so that a data chunk cut short raises instead of reading
    # short.  The exceptions are those scipy raises on malformed headers, and
    # its warnings when warnings are errors.
    try:
        rate, data = wavfile.read(path, mmap=True)
    except (ValueError, TypeError, ArithmeticError, UnboundLocalError, struct.error,
            wavfile.WavFileWarning) as exc:
        raise ValueError(f"{path}: not a readable WAV file ({exc})") from exc
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


def read_pipeline_wav(path) -> np.ndarray:
    """Read a mono WAV file at the pipeline rate, :data:`cruse.dsp.SAMPLE_RATE`.

    Raises:
        ValueError: naming the path, as :func:`read_wav` does, for any other
            sample rate (there is no implicit resampling) or a NaN or Inf sample.
    """
    samples, rate = read_wav(path)
    if rate != SAMPLE_RATE:
        raise ValueError(
            f"{path}: sample rate {rate} not supported; expected {SAMPLE_RATE} "
            "(no implicit resampling)"
        )
    if not np.isfinite(samples).all():
        raise ValueError(f"{path}: non-finite samples (NaN or Inf)")
    return samples


def write_wav(path, samples: np.ndarray, sample_rate: int, fmt: str = "pcm16") -> int:
    """Write a mono WAV file as 16-bit PCM (default) or 32-bit IEEE float.

    Returns the number of samples clipped to the 16-bit range (0 for float32,
    which stores any value).  A NaN has no 16-bit value: it raises ``ValueError``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError(f"expected a mono signal, got shape {samples.shape}")
    if fmt == "float32":
        wavfile.write(path, sample_rate, samples.astype(np.float32))
        return 0
    if fmt != "pcm16":
        raise ValueError(f"unknown WAV format {fmt!r}; use 'pcm16' or 'float32'")
    if np.isnan(samples).any():
        raise ValueError(f"{path}: NaN samples cannot be written as 16-bit PCM")
    scaled = np.round(samples * PCM16_SCALE)
    clipped = np.clip(scaled, -PCM16_SCALE, PCM16_SCALE - 1)
    wavfile.write(path, sample_rate, clipped.astype(np.int16))
    return int(np.count_nonzero(clipped != scaled))
