"""Property tests of block-wise inference and MAC accounting over random architectures.

``infer_utterance`` runs blocks of ``BLOCK_FRAMES`` frames, so utterances of
up to 150 frames cross one or two block boundaries.  Every block leaves each
layer's state array with the shape and dtype of that layer's
``zero_state()``.  The examples come from the derandomized profile
registered in ``conftest.py``.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cruse.macs import macs_model
from cruse.models import (
    RnnLayer,
    build_model,
    conv_freq_sizes,
    cruse_spec,
    infer_frame,
    infer_utterance,
    init_test_weights,
    nsnet2_spec,
)

BINS = st.integers(5, 40)


@st.composite
def cruse_specs(draw):
    layers = draw(st.integers(1, 3))
    last_channels = draw(st.integers(1, 12))
    num_bins = draw(BINS)
    width = last_channels * conv_freq_sizes(num_bins, layers)[-1]
    groups = draw(st.sampled_from([p for p in (1, 2, 3, 4) if width % p == 0]))
    return cruse_spec(
        layers=layers,
        last_channels=last_channels,
        rnn_kind=draw(st.sampled_from(["gru", "lstm"])),
        rnn_layers=draw(st.integers(1, 2)),
        parallel_groups=groups,
        skip_kind=draw(st.sampled_from(["none", "add", "add_conv1x1", "concat"])),
        kernel=draw(st.sampled_from([(1, 3), (2, 3)])),
        num_bins=num_bins,
    )


SPECS = st.one_of(cruse_specs(), st.builds(nsnet2_spec, st.integers(1, 48), BINS))


def _case(spec, seed, frames):
    graph = init_test_weights(build_model(spec), seed)
    rng = np.random.default_rng(seed)
    return graph, 3.0 * rng.standard_normal((frames, spec.num_bins)), rng


@settings(max_examples=25)
@given(SPECS, st.integers(0, 2**32 - 1), st.integers(0, 150))
def test_utterance_equals_frame_loop(spec, seed, frames):
    graph, feats, _ = _case(spec, seed, frames)
    state = graph.zero_state()
    layers = {layer.name: layer for layer in graph.iter_layers()}
    looped = []
    for f in feats:
        looped.append(infer_frame(graph, state, f))
        for name, carried in state.items():
            zero = layers[name].zero_state()
            assert (carried.shape, carried.dtype) == (zero.shape, zero.dtype), name
    looped = np.array(looped).reshape(feats.shape)
    np.testing.assert_allclose(infer_utterance(graph, feats), looped, rtol=0, atol=1e-12)


@settings(max_examples=25)
@given(SPECS, st.integers(0, 2**32 - 1), st.integers(1, 150), st.data())
def test_perturbing_a_frame_leaves_earlier_rows_bit_identical(spec, seed, frames, data):
    graph, feats, rng = _case(spec, seed, frames)
    t = data.draw(st.integers(0, frames - 1))
    perturbed = feats.copy()
    perturbed[t] += rng.standard_normal(spec.num_bins)
    np.testing.assert_array_equal(
        infer_utterance(graph, perturbed)[:t], infer_utterance(graph, feats)[:t]
    )


def _rnn_matrix_macs(spec) -> int:
    # the recurrent rows of the MAC report less their one add per bias value
    graph = build_model(spec)
    rows = {row.name: row.macs for row in macs_model(graph).layers}
    return sum(
        rows[layer.name] - layer.b_input.size - layer.b_hidden.size
        for layer in graph.iter_layers()
        if isinstance(layer, RnnLayer)
    )


@settings(max_examples=50)
@given(SPECS)
def test_mac_report_identities(spec):
    graph = build_model(spec)
    report = macs_model(graph)
    assert sum(row.macs for row in report.layers) == report.per_frame
    assert report.params == graph.param_count()
    if spec.family == "cruse":
        gru = _rnn_matrix_macs(replace(spec, rnn_kind="gru"))
        lstm = _rnn_matrix_macs(replace(spec, rnn_kind="lstm"))
        assert gru > 0 and 3 * lstm == 4 * gru
        ungrouped = _rnn_matrix_macs(replace(spec, parallel_groups=1))
        assert _rnn_matrix_macs(spec) * spec.parallel_groups == ungrouped
