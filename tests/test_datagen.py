import hashlib
import math

import numpy as np
import pytest

from cruse.datagen import (
    AssetStore,
    MixtureRecipe,
    _convolve_each,
    _fast_len,
    active_rms,
    assemble_clip,
    classify_reverberant,
    estimate_active_level,
    find_direct_sound,
    generate_pair,
    mix_at_snr,
    sample_recipe,
    scale_pair_to_level,
    shape_rir,
)

SR = 16000


# ---------------------------------------------------------------------------
# classification and RIR shaping


def test_classify_reverberant_rule():
    assert classify_reverberant(0.30, 10.0) is True
    assert classify_reverberant(0.10, 25.0) is False
    assert classify_reverberant(0.22, 18.0) is False  # strict at both boundaries
    assert classify_reverberant(0.30, 18.0) is False
    assert classify_reverberant(0.22, 10.0) is False
    assert classify_reverberant(None, None) is False


def test_find_direct_sound_cases():
    impulse = np.zeros(100)
    impulse[0] = 1.0
    assert find_direct_sound(impulse) == 0
    assert find_direct_sound(np.array([0.0, 0.0, 1.0, 0.3])) == 2


def test_find_direct_sound_with_preringing():
    rng = np.random.default_rng(0)
    rir = np.zeros(400)
    rir[45:50] = 0.1 * rng.standard_normal(5)
    rir[50] = 1.0
    rir[51:] = 0.2 * rng.standard_normal(349)
    assert find_direct_sound(rir) == 50
    # threshold-scan oracle
    mag = np.abs(rir)
    expected = min(i for i in range(len(rir)) if mag[i] >= 0.5 * mag.max())
    assert find_direct_sound(rir) == expected


def test_find_direct_sound_rejects_silence():
    with pytest.raises(ValueError):
        find_direct_sound(np.zeros(10))


def test_shape_rir_closed_forms():
    t0 = 80
    rir = np.ones(SR)
    shaped = shape_rir(rir, t0)
    assert shaped[t0] == 1.0  # weight is exactly 1 at the direct sound
    at = t0 + int(0.15 * SR)
    assert abs(shaped[at] - 1e-3) < 1e-12
    np.testing.assert_array_equal(shaped[:t0], rir[:t0])
    assert np.all(np.diff(shaped[t0:]) < 0)


# ---------------------------------------------------------------------------
# levels


def test_active_level_full_scale():
    assert estimate_active_level(np.ones(SR)) == 0.0
    alternating = np.tile([1.0, -1.0], SR // 2)
    assert estimate_active_level(alternating) == 0.0


def test_active_level_homogeneity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(SR) * 0.2
    base = estimate_active_level(x)
    assert abs(estimate_active_level(0.5 * x) - (base + 20.0 * math.log10(0.5))) < 1e-12
    assert abs(estimate_active_level(0.1 * x) - (base - 20.0)) < 1e-9


def test_active_level_ignores_silence_padding():
    rng = np.random.default_rng(2)
    burst = 0.5 * rng.standard_normal(int(0.2 * SR))
    padded = np.concatenate([burst, np.zeros(int(1.8 * SR))])
    active = estimate_active_level(padded)
    burst_level = estimate_active_level(burst)
    whole_rms_level = 20.0 * math.log10(np.sqrt(np.mean(padded**2)))
    assert abs(active - burst_level) < 0.5
    assert active - whole_rms_level > 9.0  # 10% duty cycle -> ~10 dB gap


def test_active_level_rejects_silence():
    with pytest.raises(ValueError):
        estimate_active_level(np.zeros(SR))


# ---------------------------------------------------------------------------
# clip assembly and mixing


def test_assemble_truncates_long_segment():
    rng = np.random.default_rng(3)
    seg = 0.3 * rng.standard_normal(12 * SR)
    clip = assemble_clip([seg], 10.0)
    assert len(clip) == 10 * SR
    # content is the first 10 s, up to one common gain
    ratio = clip[1000] / seg[1000]
    np.testing.assert_allclose(clip, seg[: 10 * SR] * ratio, atol=1e-12)


def test_assemble_concatenates_two_segments():
    rng = np.random.default_rng(4)
    a = 0.3 * rng.standard_normal(6 * SR)
    b = 0.1 * rng.standard_normal(6 * SR)
    clip = assemble_clip([a, b], 10.0)
    assert len(clip) == 10 * SR
    level_a = estimate_active_level(clip[: 6 * SR])
    level_b = estimate_active_level(clip[6 * SR :])
    assert abs(level_a - level_b) < 0.1


def test_assemble_tiles_short_input():
    rng = np.random.default_rng(5)
    seg = 0.2 * rng.standard_normal(3 * SR)
    clip = assemble_clip([seg], 10.0)
    assert len(clip) == 10 * SR
    np.testing.assert_array_equal(clip[: 3 * SR], clip[3 * SR : 6 * SR])


def test_mix_at_snr_unit_scale_at_zero():
    speech = np.tile([0.5, -0.5], SR)
    noise = np.tile([-0.5, 0.5], SR)
    mixture, scale = mix_at_snr(speech, noise, 0.0)
    assert scale == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(mixture, speech + noise, atol=1e-12)


def test_mix_at_snr_twenty_db():
    speech = np.tile([0.5, -0.5], SR)
    noise = np.tile([0.5, -0.5], SR)
    _, scale = mix_at_snr(speech, noise, 20.0)
    assert scale == pytest.approx(10 ** (-20 / 20), abs=1e-12)


def test_mix_at_snr_self_consistent():
    rng = np.random.default_rng(6)
    speech = 0.3 * rng.standard_normal(2 * SR)
    noise = 0.05 * rng.standard_normal(2 * SR)
    for snr in (-5.0, 0.0, 12.5):
        _, scale = mix_at_snr(speech, noise, snr)
        achieved = estimate_active_level(speech) - estimate_active_level(scale * noise)
        assert abs(achieved - snr) < 0.1


def test_mix_at_snr_length_mismatch():
    with pytest.raises(ValueError):
        mix_at_snr(np.ones(10), np.ones(11), 0.0)


def test_scale_pair_unit_factor_when_already_at_level():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(SR)
    x = x * (10 ** (-28.0 / 20.0) / active_rms(x))  # put it exactly at -28 dBFS
    scaled = scale_pair_to_level(x, x.copy(), -28.0)
    assert scaled.factor == pytest.approx(1.0, rel=1e-9)
    assert not scaled.peak_limited
    assert scaled.achieved_level_dbfs == pytest.approx(-28.0, abs=1e-9)


def test_scale_pair_peak_limits_loud_requests():
    rng = np.random.default_rng(8)
    mixture = 0.5 * rng.standard_normal(SR)
    target = 0.4 * rng.standard_normal(SR)
    scaled = scale_pair_to_level(mixture, target, -2.0)
    assert scaled.peak_limited
    peak = max(np.max(np.abs(scaled.mixture)), np.max(np.abs(scaled.target)))
    assert peak == pytest.approx(32767.0 / 32768.0, rel=1e-12)
    assert scaled.achieved_level_dbfs < -2.0


def test_scale_pair_common_factor_preserves_ratio():
    rng = np.random.default_rng(9)
    mixture = 0.2 * rng.standard_normal(SR)
    target = 0.1 * rng.standard_normal(SR)
    before = estimate_active_level(mixture) - estimate_active_level(target)
    scaled = scale_pair_to_level(mixture, target, -20.0)
    after = estimate_active_level(scaled.mixture) - estimate_active_level(scaled.target)
    assert abs(before - after) < 1e-9
    np.testing.assert_allclose(scaled.target, target * scaled.factor, atol=1e-15)


# ---------------------------------------------------------------------------
# recipes and pair synthesis


def test_sample_recipe_distributions_smoke(asset_store):
    rng = np.random.default_rng(100)
    recipes = [sample_recipe(rng, asset_store) for _ in range(1500)]
    snrs = np.array([r.snr_db for r in recipes])
    levels = np.array([r.level_dbfs for r in recipes])
    assert abs(snrs.mean() - 5.0) < 1.0
    assert abs(snrs.std() - 10.0) < 1.0
    assert abs(levels.mean() + 28.0) < 1.0


def test_sample_recipe_reverb_assignment(asset_store):
    rng = np.random.default_rng(101)
    recipes = [sample_recipe(rng, asset_store) for _ in range(3000)]
    entries = asset_store.entries
    for r in recipes:
        if entries[r.speech_ids[0]].reverberant:
            assert r.rir_id is None  # reverberant speech is used as-is
    nonrev = [r for r in recipes if not entries[r.speech_ids[0]].reverberant]
    frac_without = sum(r.rir_id is None for r in nonrev) / len(nonrev)
    assert abs(frac_without - 0.2) < 0.04


def test_sample_recipe_fills_clip_duration(asset_store):
    rng = np.random.default_rng(102)
    recipe = sample_recipe(rng, asset_store, clip_seconds=10.0)
    total = sum(asset_store.duration(i) for i in recipe.speech_ids)
    assert total >= 10.0 or len(recipe.speech_ids) == 16
    assert len(recipe.speech_ids) >= 2  # assets are shorter than the clip


def test_sample_recipe_deterministic(asset_store):
    a = [sample_recipe(np.random.default_rng(7), asset_store) for _ in range(10)]
    b = [sample_recipe(np.random.default_rng(7), asset_store) for _ in range(10)]
    assert a == b


# SHA-256 of the JSON lines of 1,000 recipes drawn from default_rng(2021) over
# the conftest assets.  Pins the order of the random draws in sample_recipe:
# any reordering changes the recipes and therefore the digest.
RECIPES_2021_SHA256 = "fb547da61ab8a4eea8312c502d7fa5a7bfa83891308bae887542b828805900cb"


def test_sample_recipe_draw_order_is_pinned(asset_store):
    rng = np.random.default_rng(2021)
    lines = "\n".join(sample_recipe(rng, asset_store).to_json() for _ in range(1000))
    assert hashlib.sha256(lines.encode()).hexdigest() == RECIPES_2021_SHA256


def test_recipe_json_round_trip(asset_store):
    recipe = sample_recipe(np.random.default_rng(1), asset_store)
    assert MixtureRecipe.from_json(recipe.to_json()) == recipe


def test_generate_pair_deterministic(asset_store):
    recipe = sample_recipe(np.random.default_rng(2), asset_store, clip_seconds=2.0)
    a = generate_pair(recipe, asset_store)
    b = generate_pair(recipe, asset_store)
    np.testing.assert_array_equal(a.noisy, b.noisy)
    np.testing.assert_array_equal(a.target, b.target)


def test_generate_pair_shapes_and_alignment(asset_store):
    recipe = MixtureRecipe(
        speech_ids=("speech_dry1.wav",),
        noise_ids=("noise_white.wav",),
        rir_id="rir_room.wav",
        snr_db=5.0,
        level_dbfs=-28.0,
        clip_seconds=2.0,
        seed=3,
    )
    pair = generate_pair(recipe, asset_store)
    assert len(pair.noisy) == len(pair.target) == 2 * SR
    assert np.isfinite(pair.noisy).all() and np.isfinite(pair.target).all()


def test_generate_pair_impulse_rir_is_identity(asset_store):
    recipe = MixtureRecipe(
        speech_ids=("speech_dry1.wav", "speech_dry2.wav"),
        noise_ids=("noise_white.wav",),
        rir_id="rir_delta.wav",
        snr_db=80.0,  # noise negligible
        level_dbfs=-28.0,
        clip_seconds=2.0,
        seed=4,
    )
    pair = generate_pair(recipe, asset_store)
    dry = assemble_clip([asset_store.load(i) for i in recipe.speech_ids], 2.0)
    # with a unit-impulse RIR both paths equal the dry speech, up to the level factor
    factor = pair.target[1000] / dry[1000]
    np.testing.assert_allclose(pair.target, dry * factor, atol=1e-10)
    np.testing.assert_allclose(pair.noisy, pair.target, atol=5e-4 * np.abs(pair.target).max())


def test_generate_pair_high_snr_matches_reverberant_speech(asset_store):
    recipe = MixtureRecipe(
        speech_ids=("speech_dry1.wav",),
        noise_ids=("noise_white.wav",),
        rir_id="rir_room.wav",
        snr_db=60.0,
        level_dbfs=-25.0,
        clip_seconds=2.0,
        seed=5,
    )
    pair = generate_pair(recipe, asset_store)
    from scipy.signal import fftconvolve

    rir = asset_store.load("rir_room.wav")
    dry = assemble_clip([asset_store.load("speech_dry1.wav")], 2.0)
    reverberant = fftconvolve(dry, rir)[: 2 * SR]
    corr = np.corrcoef(pair.noisy, reverberant)[0, 1]
    assert corr > 0.999


def _assert_convolutions_match(x, kernels, length):
    from scipy.signal import fftconvolve

    outs = _convolve_each(x, kernels, length)
    assert len(outs) == len(kernels)
    for out, h in zip(outs, kernels):
        ref = fftconvolve(x, h)[:length]
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_shared_spectrum_convolution_matches_fftconvolve(asset_store):
    dry = assemble_clip([asset_store.load("speech_dry1.wav")], 2.0)
    rir = asset_store.load("rir_room.wav")
    shaped = shape_rir(rir, find_direct_sound(rir))
    _assert_convolutions_match(dry, (rir, shaped), len(dry))


@pytest.mark.parametrize("n, taps", [(16001, 7001), (4999, 333), (1001, 4003), (2001, 1)])
def test_shared_spectrum_convolution_odd_long_and_delta_kernels(n, taps):
    # odd lengths, a kernel longer than the signal, and a one-sample delta
    rng = np.random.default_rng(n + taps)
    x = rng.standard_normal(n)
    rir = rng.standard_normal(taps) * np.exp(-np.arange(taps) / max(taps / 4, 1.0))
    shaped = shape_rir(rir, find_direct_sound(rir))
    _assert_convolutions_match(x, (rir, shaped), n)


def test_fast_len_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    for n in [*range(1, 5000), *range(150_000, 170_001, 7)]:
        assert _fast_len(n) == next_fast_len(n, True), n


def test_generate_pair_shaped_target_decays(asset_store):
    rir = asset_store.load("rir_room.wav")
    t0 = find_direct_sound(rir)
    shaped = shape_rir(rir, t0)
    cut = t0 + int(0.3 * SR)
    full_tail = np.sqrt(np.mean(rir[cut:] ** 2))
    shaped_tail = np.sqrt(np.mean(shaped[cut:] ** 2))
    assert shaped_tail < full_tail * 1e-3  # >= 60 dB down past the decay horizon
    ratio_at_cut = abs(shaped[cut] / rir[cut])
    assert ratio_at_cut < 1e-3 * 1.0001


def test_generate_pair_reverberant_speech_is_own_target(asset_store):
    recipe = MixtureRecipe(
        speech_ids=("speech_rev1.wav",),
        noise_ids=("noise_hum.wav",),
        rir_id=None,
        snr_db=70.0,
        level_dbfs=-28.0,
        clip_seconds=2.0,
        seed=6,
    )
    pair = generate_pair(recipe, asset_store)
    corr = np.corrcoef(pair.noisy, pair.target)[0, 1]
    assert corr > 0.999


def test_generate_pair_missing_asset(asset_store):
    recipe = MixtureRecipe(("nope.wav",), ("noise_white.wav",), None, 5.0, -28.0, 2.0, 7)
    with pytest.raises(ValueError, match="unknown asset"):
        generate_pair(recipe, asset_store)


@pytest.mark.parametrize(
    "text, message",
    [
        ("kind,t60,c50\nspeech\n", "no path column"),
        ("path,t60,c50\nspeech_dry1.wav,,\n", "no kind column"),
        ("", "no kind or path column"),
        ("path,kind\nspeech_dry1.wav\n", "unknown asset kind ''"),
        ("path,kind,t60,c50\nspeech_dry1.wav,speech,abc,22.0\n",
         r"manifest\.csv: line 2, column 't60'"),
        ("path,kind,t60,c50\nnoise_white.wav,noise,,\nrir1.wav,rir,0.4,nan\n",
         r"manifest\.csv: line 3, column 'c50'"),
        ("path,kind,t60,c50\nrir1.wav,rir,inf,3.0\n", r"manifest\.csv: line 2, column 't60'"),
    ],
    ids=["no-path", "no-kind", "empty", "short-row", "abc", "nan", "inf"],
)
def test_manifest_without_a_column_or_value_errors(tmp_path, text, message):
    path = tmp_path / "manifest.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        AssetStore.from_manifest(path)


def test_manifest_repeating_a_path_errors(tmp_path):
    # the second row would otherwise give the same file other metadata and
    # a second share of the speech draws
    path = tmp_path / "manifest.csv"
    path.write_text("path,kind,t60,c50\na.wav,speech,0.1,30\nb.wav,speech,0.1,30\n"
                    " a.wav ,speech,0.5,5\n")
    with pytest.raises(ValueError, match=r"manifest\.csv: line 4: path 'a\.wav' repeats line 2"):
        AssetStore.from_manifest(path)


def test_manifest_saved_with_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with U+FEFF, ahead of the first header
    path = tmp_path / "manifest.csv"
    path.write_text("path,kind,t60,c50\nspeech_dry1.wav,speech,,\nrir1.wav,rir,0.4,3.0\n",
                    encoding="utf-8-sig")
    store = AssetStore.from_manifest(path)
    assert sorted(store.entries) == ["rir1.wav", "speech_dry1.wav"]
    assert (store.entries["rir1.wav"].t60, store.entries["rir1.wav"].c50) == (0.4, 3.0)
