import math

import numpy as np
import pytest

from cruse.dsp import StftConfig, apply_gain, istft, stft
from cruse.metrics import (
    LOSS_BLEND,
    ccmse_terms,
    cepstral_distance,
    level_normalize_pair,
    loss_ccmse,
    read_scores_file,
    si_sdr,
    training_loss,
    validation_q,
)

CFG = StftConfig()
SR = 16000


def cd_oracle(est, ref, cfg=CFG, order=24, floor=1e-12):
    """Direct cosine-series cepstra, independent of np.fft.irfft."""
    spec_e, spec_r = stft(est, cfg), stft(ref, cfg)
    pow_e, pow_r = np.abs(spec_e) ** 2, np.abs(spec_r) ** 2
    en_e, en_r = pow_e.sum(axis=1), pow_r.sum(axis=1)
    active = (en_e >= en_e.max() * 1e-4) & (en_r >= en_r.max() * 1e-4)
    n = cfg.fft_len

    def cepstrum(log_mag, p):
        s = log_mag[0] + ((-1) ** p) * log_mag[n // 2]
        s += 2.0 * sum(log_mag[k] * math.cos(2.0 * math.pi * k * p / n) for k in range(1, n // 2))
        return s / n

    values = []
    for idx in np.where(active)[0]:
        le = 0.5 * np.log(np.maximum(pow_e[idx], floor))
        lr = 0.5 * np.log(np.maximum(pow_r[idx], floor))
        acc = sum((cepstrum(le, p) - cepstrum(lr, p)) ** 2 for p in range(1, order + 1))
        values.append((10.0 / math.log(10.0)) * math.sqrt(2.0 * acc))
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# level normalization


def test_level_normalize_identity_at_full_scale():
    target = np.tile([1.0, -1.0], SR)
    pred = np.random.default_rng(0).standard_normal(2 * SR)
    pred_n, target_n = level_normalize_pair(pred, target)
    np.testing.assert_array_equal(pred_n, pred)
    np.testing.assert_array_equal(target_n, target)


def test_level_normalize_common_factor_invariance():
    rng = np.random.default_rng(1)
    pred = rng.standard_normal(SR)
    target = rng.standard_normal(SR) * 0.3
    base = level_normalize_pair(pred, target)
    scaled = level_normalize_pair(0.5 * pred, 0.5 * target)
    np.testing.assert_array_equal(scaled[0], base[0])  # power-of-two scale: bit-exact
    np.testing.assert_array_equal(scaled[1], base[1])


def test_level_normalize_only_target_sets_norm():
    rng = np.random.default_rng(2)
    pred = rng.standard_normal(SR)
    target = rng.standard_normal(SR)
    base_pred, _ = level_normalize_pair(pred, target)
    doubled_pred, _ = level_normalize_pair(2.0 * pred, target)
    np.testing.assert_array_equal(doubled_pred, 2.0 * base_pred)


def test_level_normalize_silent_target_errors():
    with pytest.raises(ValueError):
        level_normalize_pair(np.ones(SR), np.zeros(SR))


# ---------------------------------------------------------------------------
# compressed complex loss


def test_loss_identity_is_zero():
    rng = np.random.default_rng(3)
    spec = rng.standard_normal((10, 161)) + 1j * rng.standard_normal((10, 161))
    assert loss_ccmse(spec, spec) == 0.0


def test_loss_single_bin_against_zero():
    ref = np.array([[1.0 + 0j]])
    est = np.array([[0.0 + 0j]])
    assert loss_ccmse(ref, est) == pytest.approx(1.0, abs=1e-9)


def test_loss_phase_flip_case():
    ref = np.array([[-1.0 + 0j]])  # magnitude 1, phase pi
    est = np.array([[1.0 + 0j]])
    assert loss_ccmse(ref, est) == pytest.approx(1.2, abs=1e-9)
    mag_term, complex_term = ccmse_terms(ref, est)
    assert mag_term == pytest.approx(0.0, abs=1e-12)
    assert complex_term == pytest.approx(4.0, abs=1e-12)


def test_loss_blends_its_two_terms():
    rng = np.random.default_rng(4)
    ref = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    est = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    mag_term, complex_term = ccmse_terms(ref, est)
    expected = (1 - LOSS_BLEND) * mag_term + LOSS_BLEND * complex_term
    assert loss_ccmse(ref, est) == pytest.approx(expected, rel=1e-12)


def test_loss_nonnegative_and_shape_checked():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert loss_ccmse(a, b) > 0.0
    with pytest.raises(ValueError):
        loss_ccmse(a, b[:2])


# ---------------------------------------------------------------------------
# training loss (consistency + level-invariant path)


def speechlike(rng, seconds=1.0):
    t = np.arange(int(seconds * SR)) / SR
    return 0.3 * np.sin(2 * np.pi * 220 * t) * (0.5 + 0.5 * np.sin(2 * np.pi * 2.0 * t)) + \
        0.01 * rng.standard_normal(len(t))


def test_training_loss_zero_for_perfect_prediction():
    target = speechlike(np.random.default_rng(6))
    assert training_loss(stft(target, CFG), target) <= 1e-9


def test_training_loss_level_invariance_exact():
    rng = np.random.default_rng(7)
    target = speechlike(rng)
    pred_spec = apply_gain(stft(target, CFG), rng.uniform(0.2, 1.0, (100, 161)))
    base = training_loss(pred_spec, target)
    scaled = training_loss(pred_spec * 2.0, 2.0 * target)
    assert scaled == base  # power-of-two scaling is bit-exact end to end


def test_training_loss_level_invariance_general():
    rng = np.random.default_rng(8)
    target = speechlike(rng)
    pred_spec = apply_gain(stft(target, CFG), rng.uniform(0.2, 1.0, (100, 161)))
    base = training_loss(pred_spec, target)
    scaled = training_loss(pred_spec * 3.0, 3.0 * target)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_training_loss_scores_consistency_projection():
    rng = np.random.default_rng(9)
    target = speechlike(rng)
    inconsistent = stft(target, CFG) + 0.1 * (
        rng.standard_normal((100, 161)) + 1j * rng.standard_normal((100, 161))
    )
    direct = training_loss(inconsistent, target)
    projected = training_loss(stft(istft(inconsistent, CFG), CFG), target)
    assert direct == pytest.approx(projected, rel=1e-6)


# ---------------------------------------------------------------------------
# siSDR


def test_si_sdr_identity_caps():
    x = np.random.default_rng(10).standard_normal(SR)
    assert si_sdr(x, x) == 100.0


def test_si_sdr_scale_invariance():
    x = np.random.default_rng(11).standard_normal(SR)
    assert si_sdr(2.0 * x, x) == 100.0
    assert si_sdr(0.1 * x, x) == 100.0


def test_si_sdr_orthogonal_equal_energy_is_zero():
    rng = np.random.default_rng(12)
    ref = rng.standard_normal(SR)
    w = rng.standard_normal(SR)
    w -= (np.dot(w, ref) / np.dot(ref, ref)) * ref  # orthogonalize
    w *= np.linalg.norm(ref) / np.linalg.norm(w)
    assert abs(si_sdr(ref + w, ref)) < 0.01


def test_si_sdr_orthogonal_estimate_is_the_floor():
    ref = np.tile([1.0, 0.0], SR // 2)
    assert si_sdr(np.roll(ref, 1), ref) == -100.0  # no projection onto the reference


def test_si_sdr_decreases_with_noise():
    rng = np.random.default_rng(13)
    ref = rng.standard_normal(SR)
    noise = rng.standard_normal(SR)
    assert si_sdr(ref + 0.1 * noise, ref) > si_sdr(ref + 0.5 * noise, ref)


def test_si_sdr_silent_reference_errors():
    with pytest.raises(ValueError):
        si_sdr(np.ones(10), np.zeros(10))


def test_si_sdr_shape_mismatch_errors():
    with pytest.raises(ValueError, match="shape mismatch"):
        si_sdr(np.ones(10), np.ones(11))


# ---------------------------------------------------------------------------
# cepstral distance


def test_cd_zero_on_identity():
    x = speechlike(np.random.default_rng(14))
    assert cepstral_distance(x, x) == 0.0


def test_cd_gain_invariant():
    x = 0.3 * np.random.default_rng(15).standard_normal(SR)  # all bins well above floor
    assert cepstral_distance(3.0 * x, x) < 1e-7


def test_cd_symmetric():
    rng = np.random.default_rng(16)
    a = 0.3 * rng.standard_normal(SR)
    b = np.convolve(a, np.ones(5) / 5.0, mode="same")
    assert cepstral_distance(a, b) == cepstral_distance(b, a)


def test_cd_lowpass_positive_and_matches_oracle():
    rng = np.random.default_rng(17)
    ref = 0.3 * rng.standard_normal(SR // 2)
    est = np.convolve(ref, np.ones(8) / 8.0, mode="same")  # lowpassed copy
    cd = cepstral_distance(est, ref)
    assert cd > 0.5
    assert cd == pytest.approx(cd_oracle(est, ref), rel=1e-9)


@pytest.mark.parametrize("silent", ["est", "ref"])
def test_cd_silent_input_errors(silent):
    signals = {"est": np.ones(SR) * 0.1, "ref": np.ones(SR) * 0.1, silent: np.zeros(SR)}
    with pytest.raises(ValueError, match="silent"):
        cepstral_distance(signals["est"], signals["ref"])


def _burst(start_ms, end_ms, total_ms=600):
    # seeded noise between start_ms and end_ms, silence elsewhere
    x = np.zeros(SR * total_ms // 1000)
    lo, hi = SR * start_ms // 1000, SR * end_ms // 1000
    x[lo:hi] = 0.1 * np.random.default_rng(start_ms).standard_normal(hi - lo)
    return x


@pytest.mark.parametrize(
    "est, ref, message",
    [
        (_burst(0, 200), _burst(400, 600), "no jointly active frames"),
        (0.1 * np.ones(SR), 0.1 * np.ones(SR + 160), "frame count"),
    ],
    ids=["disjoint-activity", "frame-counts"],
)
def test_cd_rejects_a_pair_it_cannot_compare(est, ref, message):
    with pytest.raises(ValueError, match=message):
        cepstral_distance(est, ref)


# ---------------------------------------------------------------------------
# validation criterion


def test_validation_q_arithmetic():
    assert validation_q(pesq=2.0, sisdr=10.0, cd=3.0) == pytest.approx(1.0)
    assert validation_q(pesq=0.0, sisdr=0.0, cd=0.0) == 0.0
    base = validation_q(pesq=3.0, sisdr=7.0, cd=1.0)
    bumped = validation_q(pesq=3.0, sisdr=8.0, cd=1.0)
    assert bumped - base == pytest.approx(0.2)


def test_read_scores_file(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("id,pesq,dnsmos\nutt1,2.5,3.1\nutt2,1.9,\n")
    scores = read_scores_file(path)
    assert scores["utt1"] == {"pesq": 2.5, "dnsmos": 3.1}
    assert scores["utt2"] == {"pesq": 1.9}


def test_read_scores_file_saved_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("id,pesq\nutt1,2.5\n", encoding="utf-8-sig")
    assert read_scores_file(path) == {"utt1": {"pesq": 2.5}}


@pytest.mark.parametrize(
    "text, message",
    [
        ("name,pesq\nutt1,2.5\n", "no id column"),
        ("id,dnsmos\nutt1,3.1\n", "no pesq column"),
        ("id,pesq\nutt1\n", "could not convert"),
        ("id,pesq\nutt1,2.5\nutt2,abc\n", r"scores\.csv: line 3, column 'pesq'"),
        ("id,pesq\nutt1,nan\n", r"scores\.csv: line 2, column 'pesq'"),
        ("id,pesq,dnsmos\nutt1,2.5,inf\n", r"scores\.csv: line 2, column 'dnsmos'"),
        ("id,pesq\nutt1,-1e999\n", r"scores\.csv: line 2, column 'pesq'"),
    ],
    ids=["no-id", "no-pesq", "short-row", "abc", "nan", "inf-dnsmos", "overflow"],
)
def test_read_scores_file_without_a_column_or_value_errors(tmp_path, text, message):
    path = tmp_path / "scores.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_scores_file(path)
