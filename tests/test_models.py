import dataclasses
import json

import numpy as np
import pytest

from cruse.layers import _tconv_taps, tconv2d_step
from cruse.models import (
    BUNDLE_MAGIC,
    LCG_INC,
    LCG_MULT,
    FcLayer,
    RnnLayer,
    StreamState,
    build_model,
    conv_freq_sizes,
    cruse_spec,
    format_model_name,
    infer_frame,
    infer_utterance,
    init_test_weights,
    load_weights,
    nsnet2_spec,
    parse_model_name,
    save_weights,
)

CANONICAL_NAMES = [
    "NSnet2-400",
    "NSnet2-500",
    "CRUSE4-128-1xGRU4",
    "CRUSE4-128-1xGRU1",
    "CRUSE4-120-1xGRU4",
    "CRUSE5-256-2xLSTM1",
]


# ---------------------------------------------------------------------------
# naming


def test_parse_cruse_example():
    spec = parse_model_name("CRUSE4-120-1xGRU4")
    assert spec.family == "cruse"
    assert spec.layers == 4
    assert spec.channels == (16, 32, 64, 120)
    assert spec.rnn_layers == 1
    assert spec.rnn_kind == "gru"
    assert spec.parallel_groups == 4


def test_parse_nsnet2():
    spec = parse_model_name("NSnet2-400")
    assert spec.family == "nsnet2"
    assert spec.rnn_width == 400
    assert spec.num_bins == 161


def test_parse_lstm_variant():
    spec = parse_model_name("CRUSE5-256-2xLSTM1")
    assert spec.rnn_kind == "lstm"
    assert spec.rnn_layers == 2
    assert spec.channels == (16, 32, 64, 128, 256)


@pytest.mark.parametrize(
    "bad", ["CRUSE9", "CRUSE4-120", "CRUSE4-120-1xTANH4", "NSnet2-", "NSnet2-x", "whatever"]
)
def test_parse_malformed_names(bad):
    with pytest.raises(ValueError, match="name|family"):
        parse_model_name(bad)


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_name_round_trip(name):
    assert format_model_name(parse_model_name(name)) == name


# ---------------------------------------------------------------------------
# construction


def test_nsnet2_layer_dims():
    graph = build_model(nsnet2_spec(400))
    fc = [l for l in graph.stack if isinstance(l, FcLayer)]
    dims = [l.weight.shape for l in fc]
    assert dims == [(400, 161), (600, 400), (600, 600), (161, 600)]
    rnn = [l for l in graph.stack if isinstance(l, RnnLayer)]
    assert len(rnn) == 2
    assert all(stack[0].width == 400 for l in rnn for stack in l.groups)
    assert fc[-1].activation == "sigmoid"


def test_cruse_bottleneck_grouping():
    graph = build_model(parse_model_name("CRUSE4-128-1xGRU4"))
    assert conv_freq_sizes(161, 4) == [161, 81, 41, 21, 11]
    assert graph.bottleneck.width == 128 * 11
    assert len(graph.bottleneck.groups) == 4
    assert all(stack[0].width == 352 for stack in graph.bottleneck.groups)


def test_cruse_indivisible_groups_error():
    with pytest.raises(ValueError, match="divisible"):
        build_model(cruse_spec(layers=4, last_channels=128, parallel_groups=5))


def test_unsupported_kernel_errors_in_spec_and_build():
    with pytest.raises(ValueError, match="unsupported kernel"):
        cruse_spec(kernel=(2, 5))
    with pytest.raises(ValueError, match="unsupported kernel"):
        dataclasses.replace(cruse_spec(layers=2, last_channels=16), kernel=(2, 5))


@pytest.mark.parametrize(
    "family, field, value",
    [
        ("cruse", "family", "crusE"),
        ("cruse", "num_bins", 0),
        ("cruse", "layers", 0),
        ("cruse", "channels", (16,)),
        ("cruse", "channels", (16, 0)),
        ("cruse", "rnn_kind", "lstn"),
        ("cruse", "skip_kind", "adl"),
        ("cruse", "rnn_layers", 0),
        ("cruse", "parallel_groups", 0),
        ("cruse", "parallel_groups", 3),
        ("cruse", "rnn_width", 16),
        ("nsnet2", "rnn_width", 0),
        ("nsnet2", "rnn_kind", "lstm"),
        ("nsnet2", "parallel_groups", 2),
        ("nsnet2", "channels", (16,)),
    ],
)
def test_spec_checks_itself_however_it_is_made(family, field, value):
    valid = cruse_spec(layers=2, last_channels=16) if family == "cruse" else nsnet2_spec(16)
    with pytest.raises(ValueError):
        dataclasses.replace(valid, **{field: value})


def test_cruse_decoder_mirrors_encoder():
    graph = build_model(parse_model_name("CRUSE4-128-1xGRU4"))
    enc_shapes = [l.weight.shape for l in graph.encoder]
    dec_shapes = [l.weight.shape for l in graph.decoder]
    assert enc_shapes == [(16, 1, 2, 3), (32, 16, 2, 3), (64, 32, 2, 3), (128, 64, 2, 3)]
    assert dec_shapes == [(64, 128, 2, 3), (32, 64, 2, 3), (16, 32, 2, 3), (1, 16, 2, 3)]
    assert [l.f_target for l in graph.decoder] == [21, 41, 81, 161]
    assert graph.decoder[-1].activation == "sigmoid"


def test_cruse_concat_doubles_decoder_inputs():
    graph = build_model(cruse_spec(skip_kind="concat"))
    assert [l.weight.shape[1] for l in graph.decoder] == [256, 128, 64, 32]


def test_param_count_cruse4_128():
    graph = build_model(parse_model_name("CRUSE4-128-1xGRU4"))
    assert graph.param_count() == 3_111_713


# ---------------------------------------------------------------------------
# deterministic weights


def scalar_lcg_values(seed, n):
    state = seed % 2**64
    out = []
    for _ in range(n):
        state = (LCG_MULT * state + LCG_INC) % 2**64
        u = (state >> 11) / float(2**53)
        out.append(float(np.float32(-0.1 + 0.2 * u)))
    return out


def test_init_weights_deterministic():
    a = init_test_weights(build_model(nsnet2_spec(32)), seed=42)
    b = init_test_weights(build_model(nsnet2_spec(32)), seed=42)
    for la, lb in zip(a.iter_layers(), b.iter_layers()):
        for (_, wa), (_, wb) in zip(la.param_arrays(), lb.param_arrays()):
            np.testing.assert_array_equal(wa, wb)


def test_init_weights_seed_sensitivity():
    a = init_test_weights(build_model(nsnet2_spec(32)), seed=42)
    b = init_test_weights(build_model(nsnet2_spec(32)), seed=43)
    first_a = next(iter(a.iter_layers())).weight
    first_b = next(iter(b.iter_layers())).weight
    assert not np.array_equal(first_a, first_b)


def test_init_weights_match_scalar_lcg_oracle():
    graph = init_test_weights(build_model(nsnet2_spec(8)), seed=42)
    first = next(iter(graph.iter_layers())).weight.ravel()
    expected = scalar_lcg_values(42, 20)
    np.testing.assert_array_equal(first[:20], expected)
    assert np.all(np.abs(first) < 0.1)


# ---------------------------------------------------------------------------
# bundles


def test_bundle_round_trip_bit_identical(tmp_path):
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-64-1xGRU2")), 7)
    path = tmp_path / "w.cwb"
    save_weights(graph, path)
    loaded = load_weights(path)
    feats = np.random.default_rng(0).standard_normal((6, 161))
    np.testing.assert_array_equal(infer_utterance(graph, feats), infer_utterance(loaded, feats))


@pytest.mark.parametrize("source", ["build_model", "init_test_weights", "load_weights"])
def test_tconv_weights_are_stored_as_their_tap_matrix(tmp_path, source):
    # concat doubles the decoder inputs; the last decoder layer has one output
    spec = cruse_spec(layers=3, last_channels=32, skip_kind="concat")
    rng = np.random.default_rng(6)
    graph = build_model(spec)
    if source == "build_model":
        for layer in graph.decoder:
            layer.weight[...] = rng.uniform(-0.1, 0.1, layer.weight.shape)
    else:
        init_test_weights(graph, 6)
    if source == "load_weights":
        save_weights(graph, tmp_path / "w.cwb")
        graph = load_weights(tmp_path / "w.cwb")
    for layer in graph.decoder:
        assert np.shares_memory(_tconv_taps(layer.weight), layer.weight)
        copy = np.ascontiguousarray(layer.weight)
        c_out, c_in = copy.shape[:2]
        for t_len in (1, 64):
            x = rng.standard_normal((t_len, c_in, layer.in_freq))
            x = x[0] if t_len == 1 else x
            state = rng.standard_normal((c_out, layer.f_target))
            out, new_state = tconv2d_step(layer.weight, layer.bias, x, state, layer.f_target)
            ref_out, ref_state = tconv2d_step(copy, layer.bias, x, state, layer.f_target)
            np.testing.assert_array_equal(out, ref_out)
            np.testing.assert_array_equal(new_state, ref_state)


def test_bundle_truncated_blob_errors(tmp_path):
    graph = init_test_weights(build_model(nsnet2_spec(16)), 1)
    path = tmp_path / "w.cwb"
    save_weights(graph, path)
    data = path.read_bytes()
    path.write_bytes(data[:-100])
    with pytest.raises(ValueError, match="blob"):
        load_weights(path)


def test_bundle_manifest_kind_mismatch_errors(tmp_path):
    graph = init_test_weights(build_model(cruse_spec(layers=2, last_channels=32)), 1)
    path = tmp_path / "w.cwb"
    save_weights(graph, path)
    raw = path.read_bytes()
    off = len(BUNDLE_MAGIC)
    mlen = int.from_bytes(raw[off : off + 4], "little")
    manifest = json.loads(raw[off + 4 : off + 4 + mlen].decode())
    manifest["spec"]["rnn_kind"] = "lstm"  # declares LSTM, blob holds GRU sizes
    tampered = json.dumps(manifest).encode()
    path.write_bytes(
        raw[:off] + len(tampered).to_bytes(4, "little") + tampered + raw[off + 4 + mlen :]
    )
    with pytest.raises(ValueError):
        load_weights(path)


def test_bundle_bad_magic_errors(tmp_path):
    path = tmp_path / "junk.cwb"
    path.write_bytes(b"NOTAWBNDL" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_weights(path)


def test_bundle_malformed_manifest_or_non_finite_weight_errors(malformed_bundle):
    with pytest.raises(ValueError, match="malformed manifest|not an object|non-finite"):
        load_weights(malformed_bundle)


# ---------------------------------------------------------------------------
# inference


@pytest.mark.parametrize("name", ["NSnet2-32", "CRUSE4-32-1xGRU2"])
def test_zero_weights_give_half_gains(name):
    graph = build_model(parse_model_name(name))
    state = StreamState(graph)
    gains = infer_frame(graph, state, np.random.default_rng(0).standard_normal(161))
    np.testing.assert_array_equal(gains, np.full(161, 0.5))


@pytest.mark.parametrize("name", ["NSnet2-64", "CRUSE4-64-1xGRU4", "CRUSE4-64-2xLSTM2"])
def test_gains_strictly_inside_unit_interval(name):
    graph = init_test_weights(build_model(parse_model_name(name)), 5)
    rng = np.random.default_rng(1)
    gains = infer_utterance(graph, rng.standard_normal((20, 161)) * 3)
    assert np.all(gains > 0.0)
    assert np.all(gains < 1.0)


def test_repeated_frame_converges_to_fixed_point():
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-64-1xGRU2")), 9)
    state = StreamState(graph)
    frame = np.random.default_rng(2).standard_normal(161)
    prev = infer_frame(graph, state, frame)
    diffs = []
    for _ in range(60):
        cur = infer_frame(graph, state, frame)
        diffs.append(float(np.max(np.abs(cur - prev))))
        prev = cur
    assert diffs[20] < diffs[5]
    assert diffs[50] < diffs[20]
    assert diffs[-1] < 1e-6


def test_utterance_equals_streaming_loop():
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-64-1xGRU2")), 11)
    feats = np.random.default_rng(3).standard_normal((25, 161))
    state = StreamState(graph)
    streamed = np.stack([infer_frame(graph, state, f) for f in feats])
    # block matmuls round differently from per-frame ones
    np.testing.assert_allclose(infer_utterance(graph, feats), streamed, rtol=0, atol=1e-12)


def test_single_frame_utterance():
    graph = init_test_weights(build_model(nsnet2_spec(32)), 4)
    feats = np.random.default_rng(4).standard_normal((1, 161))
    one = infer_frame(graph, StreamState(graph), feats[0])
    np.testing.assert_array_equal(infer_utterance(graph, feats), one[None, :])


def test_empty_utterance():
    graph = build_model(nsnet2_spec(16))
    gains = infer_utterance(graph, np.empty((0, 161)))
    assert gains.shape == (0, 161)


def test_feature_shape_validation():
    graph = build_model(nsnet2_spec(16))
    for shape in [(100,), (3, 100), (2, 3, 161)]:  # a frame, a block, 3-D
        with pytest.raises(ValueError):
            infer_frame(graph, StreamState(graph), np.zeros(shape))


def test_block_of_frames_matches_single_frames():
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-64-1xGRU2")), 12)
    feats = np.random.default_rng(6).standard_normal((5, 161))
    state = StreamState(graph)
    looped = np.stack([infer_frame(graph, state, f) for f in feats])
    block = infer_frame(graph, StreamState(graph), feats)
    assert block.shape == feats.shape
    np.testing.assert_allclose(block, looped, rtol=0, atol=1e-12)


def test_causality_under_perturbation():
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-64-1xGRU2")), 13)
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((15, 161))
    perturbed = feats.copy()
    perturbed[7] += rng.standard_normal(161)
    base = infer_utterance(graph, feats)
    changed = infer_utterance(graph, perturbed)
    np.testing.assert_array_equal(base[:7], changed[:7])
    assert np.max(np.abs(base[7:] - changed[7:])) > 0
