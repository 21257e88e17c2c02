import re
import struct

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


def test_write_rejects_a_two_dimensional_signal(tmp_path):
    with pytest.raises(ValueError, match=r"mono signal, got shape \(100, 2\)"):
        write_wav(tmp_path / "x.wav", np.zeros((100, 2)), 16000)


# ---------------------------------------------------------------------------
# the RIFF reader and writer against scipy.io.wavfile, and hand-built headers


def _riff(*chunks):
    """A RIFF WAVE file of ``(chunk_id, body)`` chunks, each odd body padded."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) & 1) for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _extensible_fmt(subformat, bits):
    guid = struct.pack("<H", subformat) + b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    width = bits // 8
    return struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 16000 * width, width, bits, 22, bits,
                       0x4) + guid


@pytest.mark.parametrize("fmt", ["pcm16", "float32"])
def test_write_wav_bytes_equal_scipy(tmp_path, fmt):
    x = 0.1 * np.random.default_rng(3).standard_normal(1001)
    write_wav(tmp_path / "ours.wav", x, 16000, fmt=fmt)
    stored = np.round(x * 32768).astype(np.int16) if fmt == "pcm16" else x.astype(np.float32)
    wavfile.write(tmp_path / "scipy.wav", 16000, stored)
    ours = (tmp_path / "ours.wav").read_bytes()
    assert ours == (tmp_path / "scipy.wav").read_bytes()
    assert len(ours) == (44 if fmt == "pcm16" else 58) + stored.nbytes


@pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
def test_reads_scipy_written_files(tmp_path, dtype):
    x = 0.1 * np.random.default_rng(4).standard_normal(777)
    stored = np.round(x * 32768).astype(dtype) if dtype == np.int16 else x.astype(dtype)
    path = tmp_path / "x.wav"
    wavfile.write(path, 22050, stored)
    y, rate = read_wav(path)
    assert rate == 22050 and y.dtype == np.float64
    scale = 32768.0 if dtype == np.int16 else 1.0
    np.testing.assert_array_equal(y, stored.astype(np.float64) / scale)


@pytest.mark.parametrize("subformat, dtype", [(1, "<i2"), (3, "<f4")], ids=["pcm16", "float32"])
def test_reads_extensible_header(tmp_path, subformat, dtype):
    samples = (np.arange(-50, 50) * 300).astype(dtype)
    path = tmp_path / "x.wav"
    fmt = _extensible_fmt(subformat, 8 * samples.itemsize)
    path.write_bytes(_riff((b"fmt ", fmt), (b"data", samples.tobytes())))
    y, rate = read_wav(path)
    scale = 32768.0 if subformat == 1 else 1.0
    assert rate == 16000
    np.testing.assert_array_equal(y, samples.astype(np.float64) / scale)
    bad_guid = fmt[:-1] + b"\x72"
    path.write_bytes(_riff((b"fmt ", bad_guid), (b"data", samples.tobytes())))
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*subformat"):
        read_wav(path)


def test_skips_an_odd_sized_list_chunk_before_data(tmp_path):
    samples = np.array([1, -2, 3, 32767, -32768], dtype="<i2")
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    info = b"INFOISFT\x05\x00\x00\x00test\x00"  # 17 bytes, then a pad byte
    path = tmp_path / "x.wav"
    path.write_bytes(_riff((b"fmt ", fmt), (b"LIST", info), (b"data", samples.tobytes())))
    assert len(info) % 2 == 1
    y, _ = read_wav(path)
    np.testing.assert_array_equal(y, samples / 32768.0)


def test_rejects_a_16_bit_data_chunk_of_odd_byte_count(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    path = tmp_path / "x.wav"
    path.write_bytes(_riff((b"fmt ", fmt), (b"data", b"\x01\x00\x02\x00\x03")))
    with pytest.raises(ValueError, match="5 bytes holds no whole number of samples"):
        read_wav(path)
