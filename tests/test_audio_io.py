import re

import numpy as np
import pytest
from scipy.io import wavfile

from cruse.audio_io import read_pipeline_wav, read_wav, write_wav


def test_pcm16_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    x = np.clip(rng.standard_normal(1000) * 0.2, -1.0, 0.999)
    path = tmp_path / "x.wav"
    write_wav(path, x, 16000)
    y, rate = read_wav(path)
    assert rate == 16000
    assert np.max(np.abs(y - x)) <= 1.0 / 32768.0


def test_float32_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1000) * 0.3
    path = tmp_path / "x.wav"
    write_wav(path, x, 16000, fmt="float32")
    y, rate = read_wav(path)
    np.testing.assert_array_equal(y, x.astype(np.float32).astype(np.float64))


def test_pcm16_clips_out_of_range(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(path, np.array([2.0, -2.0]), 16000)
    y, _ = read_wav(path)
    assert y[0] == (32767.0 / 32768.0)
    assert y[1] == -1.0


def test_pcm16_write_returns_the_number_of_clipped_samples(tmp_path):
    # 1.0 and 0.99999 round to 32768, one above the largest 16-bit value;
    # -1.0 is representable and -1.00002 rounds to -32769; infinities clip
    x = np.array([0.5, 1.0, -1.0, 0.99999, 2.0, -2.0, -1.00002, 0.0, -0.3, np.inf, -np.inf])
    assert write_wav(tmp_path / "x.wav", x, 16000) == 7
    assert write_wav(tmp_path / "y.wav", x, 16000, fmt="float32") == 0
    assert write_wav(tmp_path / "z.wav", np.zeros(10), 16000) == 0


def test_pcm16_write_rejects_nan_naming_the_path(tmp_path):
    path = tmp_path / "x.wav"
    x = np.array([0.5, np.nan, np.inf])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        write_wav(path, x, 16000)
    assert not path.exists()
    assert write_wav(path, x, 16000, fmt="float32") == 0  # float32 stores any value
    np.testing.assert_array_equal(read_wav(path)[0], x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_pipeline_read_rejects_non_finite_samples_naming_the_path(tmp_path, bad):
    path = tmp_path / "x.wav"
    x = np.zeros(100)
    x[7] = bad
    write_wav(path, x, 16000, fmt="float32")
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*non-finite"):
        read_pipeline_wav(path)


def test_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(ValueError, match="mono"):
        read_wav(path)


def test_rejects_unsupported_dtype(tmp_path):
    path = tmp_path / "i32.wav"
    wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
    with pytest.raises(ValueError, match="format"):
        read_wav(path)


def test_truncated_wav_raises_naming_the_path(truncated_wavs):
    for path in truncated_wavs:
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_wav(path)


def test_data_chunk_declaring_more_samples_than_the_file_holds_raises(tmp_path):
    # a consistent RIFF size, but a data chunk header 40 bytes too long
    path = tmp_path / "x.wav"
    write_wav(path, np.full(100, 0.5), 16000)
    raw = bytearray(path.read_bytes())
    at = raw.index(b"data") + 4
    raw[at : at + 4] = (int.from_bytes(raw[at : at + 4], "little") + 40).to_bytes(4, "little")
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_wav(path)


@pytest.mark.parametrize("fmt", ["pcm16", "float32"])
def test_header_bit_flips_raise_only_value_errors(tmp_path, fmt):
    rng = np.random.default_rng(8)
    path = tmp_path / "x.wav"
    write_wav(path, 0.1 * rng.standard_normal(1600), 16000, fmt=fmt)
    raw = path.read_bytes()
    header = raw.index(b"data") + 8
    for _ in range(300):
        flipped = bytearray(raw)
        flipped[rng.integers(header)] ^= 1 << int(rng.integers(8))
        path.write_bytes(flipped)
        try:
            read_wav(path)
        except ValueError as exc:
            assert str(path) in str(exc)


def test_write_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_wav(tmp_path / "x.wav", np.zeros(10), 16000, fmt="pcm24")
