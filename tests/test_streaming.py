import numpy as np
import pytest

from cruse.dsp import StftConfig, apply_gain, istft, log_power_features, stft
from cruse.models import (
    build_model,
    cruse_spec,
    infer_utterance,
    init_test_weights,
    nsnet2_spec,
    parse_model_name,
)
from cruse.streaming import StreamingEnhancer, enhance_signal

CFG = StftConfig()


def test_streaming_matches_batch_pipeline():
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-64-1xGRU2")), 21)
    rng = np.random.default_rng(0)
    x = 0.1 * rng.standard_normal(4800)
    streamed, stats = enhance_signal(graph, x, CFG)
    spec = stft(x, CFG)
    gains = infer_utterance(graph, log_power_features(spec))
    batch = istft(apply_gain(spec, gains), CFG)
    assert len(streamed) == len(x)
    np.testing.assert_allclose(streamed[: len(batch)], batch, atol=1e-10)
    assert stats.frames == 30
    assert stats.mean_frame_ms > 0


def test_output_length_equals_input_length():
    graph = init_test_weights(build_model(parse_model_name("NSnet2-32")), 22)
    for n in (160, 1600, 1601, 4799):
        out, _ = enhance_signal(graph, np.random.default_rng(1).standard_normal(n) * 0.1, CFG)
        assert len(out) == n


def test_silence_in_near_silence_out():
    graph = init_test_weights(build_model(parse_model_name("NSnet2-32")), 23)
    out, _ = enhance_signal(graph, np.zeros(3200), CFG)
    in_rms = 0.0
    out_rms = float(np.sqrt(np.mean(out**2)))
    assert out_rms <= in_rms + 1e-6


def test_enhancer_rejects_bin_mismatch():
    graph = build_model(cruse_spec(num_bins=129))
    with pytest.raises(ValueError, match="bins"):
        StreamingEnhancer(graph, CFG)


def test_process_hop_validates_length():
    graph = build_model(parse_model_name("NSnet2-16"))
    engine = StreamingEnhancer(graph, CFG)
    with pytest.raises(ValueError):
        engine.process_hop(np.zeros(100))


def test_stats_use_the_configured_hop():
    cfg = StftConfig(window_len=640, fft_len=640)  # 20 ms hop, 321 bins
    graph = init_test_weights(build_model(nsnet2_spec(16, num_bins=321)), 24)
    x = 0.1 * np.random.default_rng(2).standard_normal(3200)
    _, stats = enhance_signal(graph, x, cfg)
    assert stats.frames == 10
    assert stats.realtime_factor == stats.mean_frame_ms / 20
    assert stats.hop_ms == 20.0
    assert 0 < stats.mean_frame_ms <= stats.max_frame_ms


def test_stats_before_any_hop_are_zero():
    stats = StreamingEnhancer(build_model(parse_model_name("NSnet2-16")), CFG).stats()
    assert (stats.frames, stats.mean_frame_ms, stats.max_frame_ms) == (0, 0.0, 0.0)
    assert stats.realtime_factor == 0.0


def test_short_signal_errors():
    graph = build_model(parse_model_name("NSnet2-16"))
    for n in (0, 100, 159):
        with pytest.raises(ValueError, match="shorter than one hop"):
            enhance_signal(graph, np.zeros(n), CFG)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_is_zeroed_and_counted(bad):
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-32-1xGRU2")), 25)
    x = 0.1 * np.random.default_rng(3).standard_normal(40 * CFG.hop_len)
    hops = x.reshape(-1, CFG.hop_len)
    poisoned = hops.copy()
    poisoned[5, 17] = bad
    zeroed = hops.copy()
    zeroed[5, 17] = 0.0
    engine = StreamingEnhancer(graph, CFG)
    reference = StreamingEnhancer(graph, CFG)
    for i in range(len(hops)):
        out = engine.process_hop(poisoned[i])
        np.testing.assert_array_equal(out, reference.process_hop(zeroed[i]))
        assert np.isfinite(out).all()
    assert engine.stats().nonfinite_hops == 1
    assert reference.stats().nonfinite_hops == 0
