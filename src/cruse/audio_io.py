"""Mono WAV file access: RIFF PCM 16-bit and 32-bit IEEE float at 16 kHz.

Samples are normalized floats in [-1, 1); 16-bit data is divided by 32768 on
read and scaled back on write, where out-of-range samples are clipped and
counted.  The reader also takes 64-bit float data and the
``WAVE_FORMAT_EXTENSIBLE`` header with a PCM or float subformat, and skips
chunks it does not use.
"""

from __future__ import annotations

import struct

import numpy as np

from .dsp import SAMPLE_RATE

PCM16_SCALE = 32768.0

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# the subformat GUID of an extensible header is the format tag followed by these
_KSDATAFORMAT_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> sample dtype
_SAMPLE_DTYPES = {
    (_WAVE_FORMAT_PCM, 16): np.dtype("<i2"),
    (_WAVE_FORMAT_IEEE_FLOAT, 32): np.dtype("<f4"),
    (_WAVE_FORMAT_IEEE_FLOAT, 64): np.dtype("<f8"),
}


def _parse_wav(raw: bytes) -> tuple[np.ndarray, int]:
    """The samples and rate of the mono WAV file ``raw``; ``ValueError`` if it is not one."""
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError("not a RIFF WAVE file")
    end = 8 + int.from_bytes(raw[4:8], "little")
    if len(raw) < end:
        raise ValueError(f"truncated WAV file ({len(raw)} of {end} bytes)")
    dtype = rate = None
    pos = 12
    while pos + 8 <= end:
        chunk_id, size = raw[pos : pos + 4], int.from_bytes(raw[pos + 4 : pos + 8], "little")
        body = pos + 8
        if body + size > end:
            raise ValueError(
                f"truncated WAV file: the {chunk_id!r} chunk at byte {pos} declares "
                f"{size} bytes, {body + size - end} more than the RIFF chunk holds"
            )
        if chunk_id == b"fmt ":
            dtype, rate = _parse_fmt(raw[body : body + size])
        elif chunk_id == b"data":
            if dtype is None:
                raise ValueError("data chunk before the fmt chunk")
            if size % dtype.itemsize:
                raise ValueError(f"data chunk of {size} bytes holds no whole number of samples")
            return np.frombuffer(raw, dtype, size // dtype.itemsize, body), rate
        pos = body + size + (size & 1)  # a chunk of odd size is followed by a pad byte
    raise ValueError("no data chunk")


def _parse_fmt(fmt: bytes) -> tuple[np.dtype, int]:
    """The sample dtype and rate a ``fmt `` chunk body declares, for mono audio."""
    if len(fmt) < 16:
        raise ValueError(f"fmt chunk of {len(fmt)} bytes, expected at least 16")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 40 or fmt[26:40] != _KSDATAFORMAT_GUID_TAIL:
            raise ValueError("extensible fmt chunk without a known subformat")
        tag = int.from_bytes(fmt[24:26], "little")
    if channels != 1:
        raise ValueError(f"expected mono audio, got {channels} channels")
    dtype = _SAMPLE_DTYPES.get((tag, bits))
    if dtype is None:
        raise ValueError(
            f"unsupported sample format (format tag {tag:#06x}, {bits} bits); "
            "use 16-bit PCM or 32-bit float"
        )
    if block_align != dtype.itemsize:
        raise ValueError(f"block align {block_align} does not match {bits}-bit samples")
    return dtype, rate


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a mono WAV file.

    Returns:
        ``(samples, sample_rate)`` with samples as float64 in [-1, 1).

    Raises:
        ValueError: naming the path, for a file that is not a readable WAV
            file, one shorter than its RIFF header or one of its chunk headers
            declares (truncated), multi-channel audio, or an unsupported
            sample format.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data, rate = _parse_wav(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    samples = data.astype(np.float64)
    if data.dtype.kind == "i":
        samples /= PCM16_SCALE
    return samples, rate


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


def _write_riff(path, data: np.ndarray, sample_rate: int) -> None:
    """Write mono ``<i2`` or ``<f4`` samples as a canonical RIFF WAVE file.

    PCM gets the 16-byte ``fmt `` chunk; float gets an 18-byte one (``cbSize``
    0) and a ``fact`` chunk with the sample count, as the WAVE format asks of
    non-PCM data.
    """
    width = data.dtype.itemsize
    if data.dtype.kind == "i":
        fmt = struct.pack("<HHIIHH", _WAVE_FORMAT_PCM, 1, sample_rate, sample_rate * width,
                          width, 8 * width)
        fact = b""
    else:
        fmt = struct.pack("<HHIIHHH", _WAVE_FORMAT_IEEE_FLOAT, 1, sample_rate,
                          sample_rate * width, width, 8 * width, 0)
        fact = b"fact" + struct.pack("<II", 4, len(data))
    header = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact
              + b"data" + struct.pack("<I", data.nbytes))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(header) + data.nbytes) + header)
        fh.write(data.tobytes())


def write_wav(path, samples: np.ndarray, sample_rate: int, fmt: str = "pcm16") -> int:
    """Write a mono WAV file as 16-bit PCM (default) or 32-bit IEEE float.

    Returns the number of samples clipped to the 16-bit range (0 for float32,
    which stores any value).  A NaN has no 16-bit value: it raises ``ValueError``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError(f"expected a mono signal, got shape {samples.shape}")
    if fmt == "float32":
        _write_riff(path, samples.astype("<f4"), sample_rate)
        return 0
    if fmt != "pcm16":
        raise ValueError(f"unknown WAV format {fmt!r}; use 'pcm16' or 'float32'")
    if np.isnan(samples).any():
        raise ValueError(f"{path}: NaN samples cannot be written as 16-bit PCM")
    scaled = np.round(samples * PCM16_SCALE)
    clipped = np.clip(scaled, -PCM16_SCALE, PCM16_SCALE - 1)
    _write_riff(path, clipped.astype("<i2"), sample_rate)
    return int(np.count_nonzero(clipped != scaled))
