import collections
import dataclasses
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

import cruse.models
from cruse.cli import _check_block_diagonal
from cruse.layers import _tconv_taps, gru_step, lstm_step, tconv2d_step
from cruse.models import (
    _FILL_BLOCK,
    BUNDLE_MAGIC,
    LCG_INC,
    LCG_MULT,
    SKIP_KINDS,
    FcLayer,
    RnnLayer,
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
    assert all(l.w_hidden.shape == (1, 1, 3 * 400, 400) for l in rnn)
    assert fc[-1].activation == "sigmoid"


def test_cruse_bottleneck_grouping():
    graph = build_model(parse_model_name("CRUSE4-128-1xGRU4"))
    assert conv_freq_sizes(161, 4) == [161, 81, 41, 21, 11]
    p, _, _, w = graph.bottleneck.w_hidden.shape
    assert p * w == 128 * 11
    assert graph.bottleneck.w_hidden.shape == (4, 1, 3 * 352, 352)  # 4 groups of 1 GRU


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
    # the 176-channel layers make an encoder weight and a decoder tap-matrix
    # weight of 16,896 values each, so the fill crosses a block boundary in a
    # contiguous and in a strided array, and every array boundary
    spec = cruse_spec(layers=2, last_channels=176, parallel_groups=16, num_bins=3)
    graph = init_test_weights(build_model(spec), seed=42)
    arrays = [arr for layer in graph.iter_layers() for _, arr in layer.param_arrays()]
    big = [arr for arr in arrays if arr.size > _FILL_BLOCK]
    assert [arr.flags.c_contiguous for arr in big] == [True, False]
    assert big[1] is graph.decoder[0].weight
    values = np.concatenate([arr.ravel() for arr in arrays])
    np.testing.assert_array_equal(values, scalar_lcg_values(42, values.size))
    assert np.all(np.abs(values) < 0.1)


# Bytes allocated beyond the graph itself while it is filled, loaded or
# saved.  Measured on NSnet2-400 (21.5 MB of float64 weights): 0.40 MB to
# fill it from the LCG, 0.11 MB above the graph to load it and 0.08 MB to
# save it, against 9.6, 24.2 and 21.5 MB when each array was copied whole.
TRANSIENT_BOUND = 2**20


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn()`` runs, above those traced when it starts."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_weights_are_made_loaded_and_saved_in_bounded_memory(tmp_path):
    graph = build_model(nsnet2_spec(400))
    graph_bytes = sum(arr.nbytes for layer in graph.iter_layers() for _, arr in layer.param_arrays())
    assert traced_peak(lambda: init_test_weights(graph, 3)) < TRANSIENT_BOUND
    path = tmp_path / "w.cwb"
    assert traced_peak(lambda: save_weights(graph, path)) < TRANSIENT_BOUND
    assert traced_peak(lambda: load_weights(path)) < graph_bytes + TRANSIENT_BOUND


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
            state = rng.standard_normal((c_out, layer.f_target))
            ref_state = state.copy()
            out = tconv2d_step(layer.weight, layer.bias, x, state, layer.f_target)
            ref_out = tconv2d_step(copy, layer.bias, x, ref_state, layer.f_target)
            np.testing.assert_array_equal(out, ref_out)
            np.testing.assert_array_equal(state, ref_state)


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


def test_weight_blob_that_ends_early_raises_value_error_naming_the_path():
    # load_weights checks the blob size first, so this guards only a file that
    # shrinks while it is read
    read = cruse.models._blob_source(io.BytesIO(bytes(12)), "short.cwb")
    with pytest.raises(ValueError, match="short.cwb: weight blob ended early"):
        read(4)


def test_hostile_bundle_raises_value_error_naming_the_path(hostile_bundle):
    # the loader checks the manifest and the blob size before it allocates
    # (test_cli checks the memory this takes, in a subprocess)
    with pytest.raises(ValueError, match=re.escape(str(hostile_bundle))):
        load_weights(hostile_bundle)


def test_bundle_that_does_not_fit_in_memory_raises_value_error(tmp_path, monkeypatch):
    path = tmp_path / "w.cwb"
    save_weights(init_test_weights(build_model(nsnet2_spec(16)), 1), path)

    def out_of_memory(spec):
        raise MemoryError

    monkeypatch.setattr(cruse.models, "build_model", out_of_memory)
    with pytest.raises(ValueError, match="do not fit in memory"):
        load_weights(path)


# ---------------------------------------------------------------------------
# inference


@pytest.mark.parametrize("name", ["NSnet2-32", "CRUSE4-32-1xGRU2"])
def test_zero_weights_give_half_gains(name):
    graph = build_model(parse_model_name(name))
    state = graph.zero_state()
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
    state = graph.zero_state()
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
    state = graph.zero_state()
    streamed = np.stack([infer_frame(graph, state, f) for f in feats])
    # block matmuls round differently from per-frame ones
    np.testing.assert_allclose(infer_utterance(graph, feats), streamed, rtol=0, atol=1e-12)


def test_single_frame_utterance():
    graph = init_test_weights(build_model(nsnet2_spec(32)), 4)
    feats = np.random.default_rng(4).standard_normal((1, 161))
    one = infer_frame(graph, graph.zero_state(), feats[0])
    np.testing.assert_array_equal(infer_utterance(graph, feats), one[None, :])


def test_empty_utterance():
    graph = build_model(nsnet2_spec(16))
    gains = infer_utterance(graph, np.empty((0, 161)))
    assert gains.shape == (0, 161)


def test_feature_shape_validation():
    graph = build_model(nsnet2_spec(16))
    for shape in [(100,), (3, 100), (2, 3, 161)]:  # a frame, a block, 3-D
        with pytest.raises(ValueError):
            infer_frame(graph, graph.zero_state(), np.zeros(shape))
    with pytest.raises(ValueError, match=r"expected \(frames, bins\) features"):
        infer_utterance(graph, np.zeros(161))  # one frame is not an utterance


def test_block_of_frames_matches_single_frames():
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-64-1xGRU2")), 12)
    feats = np.random.default_rng(6).standard_normal((5, 161))
    state = graph.zero_state()
    looped = np.stack([infer_frame(graph, state, f) for f in feats])
    block = infer_frame(graph, graph.zero_state(), feats)
    assert block.shape == feats.shape
    np.testing.assert_allclose(block, looped, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["NSnet2-32", "CRUSE3-32-1xGRU2", "CRUSE3-32-2xLSTM2"])
def test_infer_frame_advances_each_state_array_in_place(name):
    graph = init_test_weights(build_model(parse_model_name(name)), 7)
    state = graph.zero_state()
    arrays = dict(state)
    feats = np.random.default_rng(7).standard_normal((4, 161))
    for block in (feats[0], feats[1:3], feats[3]):
        infer_frame(graph, state, block)
        for key, array in arrays.items():
            assert state[key] is array, key
            assert np.all(array != 0), key  # advanced from its zeros


@pytest.mark.parametrize("name", ["NSnet2-32", "CRUSE3-32-1xGRU2", "CRUSE3-32-2xLSTM2"])
def test_zero_frame_block_returns_no_gains_and_keeps_the_state(name):
    graph = init_test_weights(build_model(parse_model_name(name)), 8)
    state = graph.zero_state()
    infer_frame(graph, state, np.random.default_rng(8).standard_normal((3, 161)))
    before = {key: array.copy() for key, array in state.items()}
    assert infer_frame(graph, state, np.zeros((0, 161))).shape == (0, 161)
    for key, array in state.items():
        np.testing.assert_array_equal(array, before[key], err_msg=key)


def _forward_in_wiring_order(graph, states, feats):
    """``infer_frame``'s wiring of a ``(T, bins)`` block, written out with
    each layer's ``forward``."""
    if graph.spec.family == "nsnet2":
        x = feats
        for layer in graph.stack:
            x = layer.forward(x, states.get(layer.name))
        return x
    encoded = [feats[:, None]]
    for layer in graph.encoder:
        encoded.append(layer.forward(encoded[-1], states[layer.name]))
    x = graph.bottleneck.forward(encoded[-1], states[graph.bottleneck.name])
    for j, (layer, skip) in enumerate(zip(graph.decoder, graph.skips)):
        x = layer.forward(skip.forward(encoded[-1 - j], x), states[layer.name])
    return x[:, 0]


FORWARD_SPECS = [nsnet2_spec(32)] + [
    cruse_spec(3, 32, kind, rnn_layers=2, parallel_groups=2, skip_kind=skip, kernel=kernel)
    for skip in SKIP_KINDS for kernel in ((2, 3), (1, 3)) for kind in ("gru", "lstm")
]


@pytest.mark.parametrize(
    "spec", FORWARD_SPECS,
    ids=lambda s: f"{format_model_name(s)}-{s.skip_kind}-{s.kernel[0]}x{s.kernel[1]}",
)
def test_layer_forwards_in_wiring_order_equal_infer_frame(spec):
    graph = init_test_weights(build_model(spec), 9)
    feats = np.random.default_rng(9).standard_normal((5, 161))
    state, by_hand = graph.zero_state(), graph.zero_state()
    for block in (feats[:1], feats[1:]):
        gains = infer_frame(graph, state, block)
        np.testing.assert_array_equal(_forward_in_wiring_order(graph, by_hand, block), gains)
    assert by_hand.keys() == state.keys()
    for key, array in state.items():
        np.testing.assert_array_equal(by_hand[key], array, err_msg=key)


@pytest.mark.parametrize(
    "name", ["NSnet2-32", "CRUSE3-32-2xGRU2", "CRUSE4-64-1xGRU4", "CRUSE3-32-2xLSTM2"]
)
@pytest.mark.parametrize("frames", [1, 3])
def test_infer_frame_calls_each_primitive_through_its_module_binding(name, frames, monkeypatch):
    # a profiler that rebinds the cruse.models primitives sees every call:
    # one per cell of every group, and one per conv and tconv layer
    calls = collections.Counter()
    for primitive in ("gru_step", "lstm_step", "conv2d_step", "tconv2d_step"):
        def counted(*args, _name=primitive, _original=getattr(cruse.models, primitive)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cruse.models, primitive, counted)
    spec = parse_model_name(name)
    graph = build_model(spec)
    infer_frame(graph, graph.zero_state(), np.zeros((frames, 161)))
    if spec.family == "nsnet2":
        assert calls == {"gru_step": 2}
    else:
        assert calls == {
            f"{spec.rnn_kind}_step": spec.parallel_groups * spec.rnn_layers,
            "conv2d_step": spec.layers,
            "tconv2d_step": spec.layers,
        }


@pytest.mark.parametrize("name", ["CRUSE4-64-1xGRU4", "CRUSE4-64-1xLSTM4", "CRUSE3-32-2xLSTM2"])
def test_grouped_block_equals_its_block_diagonal_cells(name):
    ok, detail = _check_block_diagonal(name)
    assert ok, detail


def _forward_group_by_group(layer, x, state):
    """Each group's whole stack of cells on its own column chunk, the group
    outputs joined in order: the composition ``RnnLayer.forward`` must equal,
    for a ``(T, width)`` block."""
    step = gru_step if layer.kind == "gru" else lstm_step
    p, cells = layer.w_hidden.shape[:2]
    outs = []
    for g, y in enumerate(np.split(x, p, axis=1)):
        for n in range(cells):
            y = step(layer.w_input[g, n], layer.w_hidden[g, n], layer.b_input[g, n],
                     layer.b_hidden[g, n], y, state[g, n])
        outs.append(y)
    return np.concatenate(outs, axis=1)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("groups", [1, 2, 4])
@pytest.mark.parametrize("cells", [1, 2])
@pytest.mark.parametrize("frames", [0, 1, 3])
def test_rnn_forward_equals_each_group_stepped_on_its_own(kind, groups, cells, frames):
    rng = np.random.default_rng(groups * 10 + cells)
    w = 5
    rows = (3 if kind == "gru" else 4) * w
    layer = RnnLayer(
        name="rnn", kind=kind,
        w_input=rng.standard_normal((groups, cells, rows, w)),
        w_hidden=rng.standard_normal((groups, cells, rows, w)),
        b_input=rng.standard_normal((groups, cells, rows)),
        b_hidden=rng.standard_normal((groups, cells, rows)),
    )
    start = rng.standard_normal(layer.zero_state().shape)
    # a column slice of a wider block is not contiguous
    x = rng.standard_normal((frames, groups * w + 3))[:, 2:-1]
    state, expected_state = start.copy(), start.copy()
    out = layer.forward(x, state)
    expected = _forward_group_by_group(layer, x, expected_state)
    assert out.shape == x.shape
    assert out.tobytes() == expected.tobytes()
    assert state.tobytes() == expected_state.tobytes()


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
