import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
SRC = Path(__file__).resolve().parents[1] / "src"


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
    graph = init_test_weights(build_model(nsnet2_spec(16)), 24)
    x = 0.1 * np.random.default_rng(2).standard_normal(3200)
    _, stats = enhance_signal(graph, x, CFG)
    assert stats.frames == 20
    assert stats.realtime_factor == stats.mean_frame_ms / 10
    assert stats.hop_ms == 10.0
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


# 1e160 is finite, but its power overflows to inf
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e160])
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


def test_non_finite_state_is_reset_and_counted():
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-32-1xGRU2")), 25)
    hops = 0.1 * np.random.default_rng(4).standard_normal((12, CFG.hop_len))
    engine = StreamingEnhancer(graph, CFG)
    for hop in hops[:4]:
        engine.process_hop(hop)
    states = dict(engine.state)
    states[graph.bottleneck.name][0, 0, 0, 0] = np.nan
    # the call that meets the NaN: finite output, every state array zeroed in place
    assert np.isfinite(engine.process_hop(hops[4])).all()
    assert engine.stats().state_resets == 1
    assert all(engine.state[name] is array for name, array in states.items())
    assert not any(array.any() for array in states.values())
    for chunk in (hops[5:7], hops[7], hops[8:12]):   # k = 2, 1, 4 from the zeroed state
        assert np.isfinite(engine.process_hop(chunk.ravel())).all()
    assert engine.stats().state_resets == 1
    assert engine.stats().nonfinite_hops == 0
    reference = StreamingEnhancer(graph, CFG)
    for hop in hops:
        reference.process_hop(hop)
    assert reference.stats().state_resets == 0


def test_samples_up_to_the_largest_float32_are_kept():
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-32-1xGRU2")), 25)
    limit = float(np.finfo(np.float32).max)
    engine = StreamingEnhancer(graph, CFG)
    engine.process_hop(np.full(CFG.hop_len, -limit))
    assert engine.stats().nonfinite_hops == 0
    engine.process_hop(np.full(CFG.hop_len, np.nextafter(limit, np.inf)))
    assert engine.stats().nonfinite_hops == 1


# ---------------------------------------------------------------------------
# chunked streaming: k hops per process_hop call


@st.composite
def small_engines(draw):
    """A small seeded graph of either family at the transform's 161 bins."""
    if draw(st.booleans()):
        spec = nsnet2_spec(draw(st.integers(1, 16)))
    else:
        spec = cruse_spec(
            layers=draw(st.integers(1, 2)),
            last_channels=draw(st.integers(1, 8)),
            rnn_kind=draw(st.sampled_from(["gru", "lstm"])),
            kernel=draw(st.sampled_from([(1, 3), (2, 3)])),
        )
    return init_test_weights(build_model(spec), draw(st.integers(0, 2**32 - 1))), CFG


@settings(max_examples=30)
@given(small_engines(), st.lists(st.integers(1, 9), min_size=1, max_size=10),
       st.integers(0, 2**32 - 1))
def test_chunked_stream_equals_hop_by_hop_stream(case, chunks, seed):
    graph, cfg = case
    hop = cfg.hop_len
    x = 0.1 * np.random.default_rng(seed).standard_normal(sum(chunks) * hop)
    chunked = StreamingEnhancer(graph, cfg)
    single = StreamingEnhancer(graph, cfg)
    ends = np.cumsum(chunks) * hop
    out = [chunked.process_hop(x[end - k * hop : end]) for k, end in zip(chunks, ends)]
    ref = [single.process_hop(h) for h in x.reshape(-1, hop)]
    assert [len(o) for o in out] == [k * hop for k in chunks]
    np.testing.assert_allclose(
        np.concatenate(out + [chunked.flush()]), np.concatenate(ref + [single.flush()]),
        rtol=0, atol=1e-10,
    )
    assert chunked.stats().frames == single.stats().frames == sum(chunks)


@settings(max_examples=25)
@given(st.integers(1, 8), st.data())
def test_nonfinite_hops_counts_hops_not_calls(k, data):
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-32-1xGRU2")), 26)
    hop = CFG.hop_len
    bad = data.draw(st.lists(st.integers(0, k * hop - 1), min_size=1, max_size=6, unique=True))
    values = data.draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]),
                                min_size=len(bad), max_size=len(bad)))
    x = 0.1 * np.random.default_rng(k).standard_normal((3, k * hop))
    poisoned, zeroed = x.copy(), x.copy()
    poisoned[1, bad] = values
    zeroed[1, bad] = 0.0
    engine = StreamingEnhancer(graph, CFG)
    reference = StreamingEnhancer(graph, CFG)
    for chunk, clean in zip(poisoned, zeroed):  # clean, poisoned, clean
        out = engine.process_hop(chunk)
        np.testing.assert_array_equal(out, reference.process_hop(clean))
        assert np.isfinite(out).all()
    assert engine.stats().nonfinite_hops == len({i // hop for i in bad})
    assert engine.stats().frames == 3 * k
    assert reference.stats().nonfinite_hops == 0


NOT_WHOLE_HOPS = st.one_of(
    st.integers(0, 6 * CFG.hop_len).filter(lambda n: n % CFG.hop_len or not n).map(lambda n: (n,)),
    st.tuples(st.integers(1, 3), st.integers(1, 3).map(lambda k: k * CFG.hop_len)),
)


@settings(max_examples=30)
@given(NOT_WHOLE_HOPS)
def test_process_hop_rejects_anything_but_whole_hops_and_keeps_its_state(shape):
    graph = init_test_weights(build_model(parse_model_name("NSnet2-16")), 27)
    x = 0.1 * np.random.default_rng(8).standard_normal(CFG.hop_len)
    engine = StreamingEnhancer(graph, CFG)
    with pytest.raises(ValueError, match="whole number"):
        engine.process_hop(np.ones(shape))
    assert engine.stats().frames == 0
    np.testing.assert_array_equal(engine.process_hop(x), StreamingEnhancer(graph, CFG).process_hop(x))


THREAD_PROBE = """
import _thread

started = []
start = _thread.start_new_thread


def counted(*args):
    started.append(args)
    return start(*args)


_thread.start_new_thread = counted

import numpy as np
from cruse.models import build_model, init_test_weights, parse_model_name
from cruse.streaming import StreamingEnhancer

rng = np.random.default_rng(3)
for name in ("CRUSE4-128-1xGRU4", "NSnet2-400"):
    engine = StreamingEnhancer(init_test_weights(build_model(parse_model_name(name)), 1234))
    for k in (1, 1, 4, 2):
        engine.process_hop(0.1 * rng.standard_normal(160 * k))
print(len(started))
"""


def test_streaming_models_with_small_recurrent_cells_start_no_thread():
    # their cells (2.8 MiB and 3.7 MiB of input weights) stay below the size at
    # which a projection moves to a helper thread, and hops of k < 16 frames
    # never split a hidden product, so they run as before; the count covers
    # every thread started from Python after the wrapper, the import of cruse
    # included; the BLAS runs one thread, which opens the helper's gate
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True,
                            text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"]
