import dataclasses
import hashlib

import numpy as np
import pytest

from cruse.dsp import (
    DEFAULT_LOG_FLOOR,
    StftConfig,
    apply_gain,
    istft,
    log_power_features,
    make_window,
    stft,
)

CFG = StftConfig()


def dft_oracle(frame):
    """Direct DFT sum, independent of np.fft."""
    n = len(frame)
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    return (frame[None, :] * np.exp(-2j * np.pi * k * t / n)).sum(axis=1)


# ---------------------------------------------------------------------------
# window


def test_window_cola_identity():
    w = make_window(320)
    overlap = w[:160] ** 2 + w[160:] ** 2
    assert np.max(np.abs(overlap - 1.0)) < 1e-9


@pytest.mark.parametrize("wlen", [4, 64, 320, 640])
def test_window_cola_other_sizes(wlen):
    w = make_window(wlen)
    half = wlen // 2
    assert np.max(np.abs(w[:half] ** 2 + w[half:] ** 2 - 1.0)) < 1e-9


def test_window_small_case():
    w = make_window(4)
    expected = np.sqrt([0.0, 0.5, 1.0, 0.5])  # periodic Hann starts at zero
    np.testing.assert_allclose(w, expected, atol=1e-15)
    assert w[0] == 0.0


def test_window_peak_at_center():
    w = make_window(320)
    assert w[160] == pytest.approx(1.0, abs=1e-15)
    assert np.argmax(w) == 160


@pytest.mark.parametrize("wlen", [0, 1, 5, -4])
def test_window_invalid_length(wlen):
    with pytest.raises(ValueError):
        make_window(wlen)


@pytest.mark.parametrize("wlen", [3, 0])
def test_stft_config_rejects_invalid_window_length(wlen):
    # the window length is fixed at 320: StftConfig takes no window_len at
    # all, and make_window still rejects the length on its own
    with pytest.raises(TypeError, match="window_len"):
        StftConfig(window_len=wlen)
    with pytest.raises(ValueError):
        make_window(wlen)


def test_stft_config_is_the_fixed_paper_framing():
    assert dataclasses.fields(StftConfig) == ()
    for name in ("window_len", "fft_len"):
        with pytest.raises(TypeError):
            StftConfig(**{name: 640})
    assert StftConfig() == StftConfig()
    assert (CFG.window_len, CFG.hop_len, CFG.fft_len, CFG.num_bins, CFG.hop_ms) == (
        320, 160, 320, 161, 10.0)
    np.testing.assert_array_equal(StftConfig.window, make_window(320))
    with pytest.raises(ValueError, match="read-only"):
        StftConfig.window[0] = 1.0


# ---------------------------------------------------------------------------
# stft


def test_stft_zero_input():
    spec = stft(np.zeros(3200), CFG)
    assert spec.shape == (20, 161)
    assert np.all(spec == 0)


def test_stft_frame_count():
    assert stft(np.ones(3200), CFG).shape == (20, 161)
    assert stft(np.ones(160), CFG).shape == (1, 161)
    assert stft(np.ones(1600), CFG).shape == (10, 161)
    # one frame per whole hop, at any signal length
    for n in (160, 161, 319, 320, 641, 4999):
        assert len(stft(np.ones(n), CFG)) == n // CFG.hop_len
    with pytest.raises(ValueError, match="shorter than one hop"):
        stft(np.ones(CFG.hop_len - 1), CFG)


def test_stft_too_short_errors():
    with pytest.raises(ValueError):
        stft(np.ones(100), CFG)
    with pytest.raises(ValueError):
        stft(np.ones((10, 10)), CFG)


def test_stft_sine_peaks_at_expected_bin():
    # 500 Hz at 16 kHz with 50 Hz bin spacing -> bin 10
    t = np.arange(3200) / CFG.sample_rate
    spec = stft(np.sin(2 * np.pi * 500.0 * t), CFG)
    power = np.abs(spec[5:15]) ** 2
    assert np.all(np.argmax(power, axis=1) == 10)


def test_stft_matches_direct_dft_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1600)
    spec = stft(x, CFG)
    padded = np.concatenate([np.zeros(CFG.hop_len), x])
    w = make_window(320)
    for f in [0, 3, 7]:
        frame = padded[f * 160 : f * 160 + 320] * w
        np.testing.assert_allclose(spec[f], dft_oracle(frame), atol=1e-9)


def test_stft_impulse_first_frame_closed_form():
    x = np.zeros(640)
    x[0] = 1.0
    spec = stft(x, CFG)
    # the impulse sits at padded position 160; w[160] = 1
    k = np.arange(161)
    expected = make_window(320)[160] * np.exp(-2j * np.pi * k * 160 / 320)
    np.testing.assert_allclose(spec[0], expected, atol=1e-12)


# ---------------------------------------------------------------------------
# istft


def test_roundtrip_white_noise():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(16000)
    y = istft(stft(x, CFG), CFG)
    assert len(y) == 16000
    assert np.max(np.abs(y - x)) < 1e-6


def test_istft_zero_spectrogram():
    out = istft(np.zeros((12, 161), dtype=complex), CFG)
    assert out.shape == (12 * 160,)
    assert np.all(out == 0)


def test_istft_dc_only_matches_overlap_add_closed_form():
    # Each frame's time content is exactly all-ones (only bin 0 set), so the
    # whole synthesis path reduces to a hand-computable windowed overlap-add.
    frames = 10
    spec = np.zeros((frames, 161), dtype=complex)
    spec[:, 0] = 320.0
    out = istft(spec, CFG)

    w = make_window(320)
    total = (frames - 1) * 160 + 320
    num = np.zeros(total)
    den = np.zeros(total)
    for f in range(frames):
        num[f * 160 : f * 160 + 320] += w
        den[f * 160 : f * 160 + 320] += w * w
    keep = slice(160, 160 + frames * 160)  # drop the padded head (den[0] is 0 there)
    expected = num[keep] / den[keep]
    np.testing.assert_allclose(out, expected, atol=1e-9)


# SHA-256 of the istft output bytes for a seeded random spectrogram, recorded
# with the per-frame overlap-add loop that the slice adds replaced.
ISTFT_GOLDEN = {
    0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    1: "1f9314c86ec74f9510ef70aecd9452db46bc2709259c4cb4be89a91c9be0631d",
    2: "eb166b41dc22dde9c3dcc8b3885e0da3f125e8ba69ef049a1c65114d4b38e51d",
    37: "00f3c891dfdb6512743c30a44c2fee2d67301d373ec5c498d7f731afa8e02444",
}


@pytest.mark.parametrize("frames", sorted(ISTFT_GOLDEN))
def test_istft_output_bits_match_golden(frames):
    rng = np.random.default_rng([1984, frames])
    spec = rng.standard_normal((frames, 161)) + 1j * rng.standard_normal((frames, 161))
    out = istft(spec, CFG)
    assert out.shape == (frames * 160,)
    assert hashlib.sha256(out.tobytes()).hexdigest() == ISTFT_GOLDEN[frames]


def test_roundtrip_recovers_constant_signal():
    out = istft(stft(np.ones(3200), CFG), CFG)
    np.testing.assert_allclose(out, 1.0, atol=1e-9)


def test_istft_bin_mismatch_errors():
    with pytest.raises(ValueError):
        istft(np.zeros((4, 100), dtype=complex), CFG)


# ---------------------------------------------------------------------------
# features / gains


def test_log_power_unit_magnitude_is_zero():
    spec = np.full((2, 161), 1.0 + 0j)
    np.testing.assert_allclose(log_power_features(spec), 0.0, atol=1e-15)


def test_log_power_floor():
    spec = np.zeros((1, 161), dtype=complex)
    feats = log_power_features(spec)
    np.testing.assert_allclose(feats, np.log(DEFAULT_LOG_FLOOR))
    assert DEFAULT_LOG_FLOOR == 1e-12
    assert np.all(np.isfinite(feats))


def test_log_power_scaling_shift():
    rng = np.random.default_rng(2)
    spec = rng.standard_normal((5, 161)) + 1j * rng.standard_normal((5, 161))
    base = log_power_features(spec)
    shifted = log_power_features(spec * 10.0)
    np.testing.assert_allclose(shifted - base, np.log(100.0), atol=1e-9)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64, np.float32, np.int64])
def test_log_power_equals_the_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(4)
    spec = 30.0 * (rng.standard_normal((6, 161)) + 1j * rng.standard_normal((6, 161)))
    spec[0, :4] = 0.0  # below the floor
    if not np.issubdtype(dtype, np.complexfloating):
        spec = spec.real
    spec = spec.astype(dtype)
    expected = np.log(np.maximum(np.abs(spec) ** 2, DEFAULT_LOG_FLOOR))
    feats = log_power_features(spec)
    assert feats.dtype == expected.dtype
    assert feats.tobytes() == expected.tobytes()


def test_apply_gain_cases():
    rng = np.random.default_rng(3)
    spec = rng.standard_normal((4, 161)) + 1j * rng.standard_normal((4, 161))
    np.testing.assert_array_equal(apply_gain(spec, np.ones((4, 161))), spec)
    assert np.all(apply_gain(spec, np.zeros((4, 161))) == 0)
    assert apply_gain(np.array([[2 + 2j]]), np.array([[0.5]]))[0, 0] == 1 + 1j


def test_apply_gain_preserves_phase():
    rng = np.random.default_rng(4)
    spec = rng.standard_normal((3, 161)) + 1j * rng.standard_normal((3, 161))
    gains = rng.uniform(0.1, 1.0, (3, 161))
    out = apply_gain(spec, gains)
    np.testing.assert_allclose(np.angle(out), np.angle(spec), atol=1e-12)
    np.testing.assert_allclose(np.abs(out), gains * np.abs(spec), atol=1e-12)


def test_apply_gain_shape_mismatch():
    with pytest.raises(ValueError):
        apply_gain(np.zeros((2, 161), dtype=complex), np.zeros((3, 161)))


# ---------------------------------------------------------------------------
# consistency projection


def consistency_project(spec):
    """Projection onto the consistent spectrograms: ``stft(istft(spec))``."""
    return stft(istft(spec, CFG), CFG)


def test_consistency_identity_on_stft_images():
    rng = np.random.default_rng(5)
    spec = stft(rng.standard_normal(4800), CFG)
    np.testing.assert_allclose(consistency_project(spec), spec, atol=1e-6)


def test_consistency_idempotent():
    rng = np.random.default_rng(6)
    spec = rng.standard_normal((20, 161)) + 1j * rng.standard_normal((20, 161))
    once = consistency_project(spec)
    twice = consistency_project(once)
    assert once.shape == spec.shape
    np.testing.assert_allclose(twice, once, atol=1e-6)


def test_consistency_moves_inconsistent_points():
    rng = np.random.default_rng(7)
    spec = rng.standard_normal((20, 161)) + 1j * rng.standard_normal((20, 161))
    assert np.max(np.abs(consistency_project(spec) - spec)) > 1e-3


# ---------------------------------------------------------------------------
# delay


def frame_input_horizon(frame_index, cfg=CFG):
    """Last input sample index (exclusive) frame f depends on, unpadded."""
    return frame_index * cfg.hop_len + cfg.hop_len


@pytest.mark.parametrize("n", [0, 160, 161, 500, 777, 1000])
def test_algorithmic_delay_is_one_window(n):
    x = np.zeros(3200)
    x[n] = 1.0
    spec = stft(x, CFG)
    nonzero = np.where(np.abs(spec).max(axis=1) > 1e-12)[0]
    latest = int(nonzero.max())
    # the event is fully representable once input through n + window_len arrives
    assert frame_input_horizon(latest) <= n + CFG.window_len
    if n % CFG.hop_len == 1:
        # worst case: one hop is not enough, the full window is needed
        assert frame_input_horizon(latest) > n + CFG.window_len - CFG.hop_len
    # and the impulse reconstructs in place
    y = istft(spec, CFG)
    assert abs(y[n] - 1.0) < 1e-6
