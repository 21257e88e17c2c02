import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cruse import layers
from cruse.layers import (
    GRU_GATES,
    LSTM_GATES,
    _sigmoid,
    activation_apply,
    conv2d_step,
    fc_forward,
    gru_step,
    lstm_step,
    skip_combine,
    tconv2d_step,
)
from cruse.models import RnnLayer

SRC = Path(__file__).resolve().parents[1] / "src"


def cell_arrays(make, gates, in_dims, width):
    """One cell's ``(w_input, w_hidden, b_input, b_hidden)``, each ``make(shape)``."""
    rows = gates * width
    return make((rows, in_dims)), make((rows, width)), make(rows), make(rows)


def zero_cell(gates, in_dims, width):
    return cell_arrays(np.zeros, gates, in_dims, width)


def random_gru(rng, in_dims, width):
    return cell_arrays(rng.standard_normal, GRU_GATES, in_dims, width)


def random_lstm(rng, in_dims, width):
    return cell_arrays(rng.standard_normal, LSTM_GATES, in_dims, width)


def rnn_layer(kind, groups):
    """An ``RnnLayer`` whose cell n of group g has the arrays ``groups[g][n]``."""
    arrays = (np.array([[cell[i] for cell in stack] for stack in groups]) for i in range(4))
    return RnnLayer("rnn", kind, *arrays)


# ---------------------------------------------------------------------------
# scalar-loop oracles, independent of the vectorized implementations


def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def gru_oracle(w, x, h):
    w_input, w_hidden, b_input, b_hidden = w
    width = w_hidden.shape[1]
    out = np.zeros(width)
    for i in range(width):
        pre = [0.0, 0.0, 0.0]
        rec = [0.0, 0.0, 0.0]
        for gate in range(3):
            row = gate * width + i
            pre[gate] = b_input[row] + sum(w_input[row][j] * x[j] for j in range(len(x)))
            rec[gate] = b_hidden[row] + sum(w_hidden[row][j] * h[j] for j in range(width))
        r = _sig(pre[0] + rec[0])
        z = _sig(pre[1] + rec[1])
        n = math.tanh(pre[2] + r * rec[2])
        out[i] = (1.0 - z) * n + z * h[i]
    return out


def lstm_oracle(w, x, h, c):
    w_input, w_hidden, b_input, b_hidden = w
    width = w_hidden.shape[1]
    h_out = np.zeros(width)
    c_out = np.zeros(width)
    for idx in range(width):
        g = [0.0] * 4
        for gate in range(4):
            row = gate * width + idx
            g[gate] = (
                b_input[row]
                + b_hidden[row]
                + sum(w_input[row][j] * x[j] for j in range(len(x)))
                + sum(w_hidden[row][j] * h[j] for j in range(width))
            )
        i, f, gg, o = _sig(g[0]), _sig(g[1]), math.tanh(g[2]), _sig(g[3])
        c_out[idx] = f * c[idx] + i * gg
        h_out[idx] = o * math.tanh(c_out[idx])
    return h_out, c_out


def conv_batch_oracle(weight, bias, frames):
    """Dense causal convolution over a whole utterance, loop form."""
    t_len, c_in, freq = frames.shape
    c_out, _, kt, kf = weight.shape
    f_out = (freq - 1) // 2 + 1
    out = np.zeros((t_len, c_out, f_out))
    for t in range(t_len):
        for o in range(c_out):
            for j in range(f_out):
                acc = bias[o]
                for dt in range(kt):
                    ts = t - (kt - 1) + dt
                    if ts < 0:
                        continue
                    for c in range(c_in):
                        for k in range(kf):
                            fi = 2 * j + k - 1  # symmetric pad of 1
                            if 0 <= fi < freq:
                                acc += weight[o, c, dt, k] * frames[ts, c, fi]
                out[t, o, j] = acc
    return out


def tconv_batch_oracle(weight, bias, frames, f_target):
    """Dense transposed convolution over a whole utterance, causally cropped."""
    t_len, c_in, freq = frames.shape
    c_out, _, kt, kf = weight.shape
    full = (freq - 1) * 2 + kf
    left = (full - f_target) // 2
    up = np.zeros((t_len + kt - 1, c_out, full))
    for t in range(t_len):
        for dt in range(kt):
            for o in range(c_out):
                for c in range(c_in):
                    for j in range(freq):
                        for k in range(kf):
                            up[t + dt, o, 2 * j + k] += weight[o, c, dt, k] * frames[t, c, j]
    return up[:t_len, :, left : left + f_target] + bias[None, :, None]


# ---------------------------------------------------------------------------
# fully connected


def test_fc_identity_and_constant():
    x = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(fc_forward(np.eye(3), np.zeros(3), x), x)
    np.testing.assert_array_equal(fc_forward(np.zeros((2, 3)), np.array([5.0, 6.0]), x), [5.0, 6.0])


def test_fc_matches_dot_product_oracle():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 2))
    b = rng.standard_normal(3)
    x = rng.standard_normal(2)
    expected = [sum(w[i][j] * x[j] for j in range(2)) + b[i] for i in range(3)]
    np.testing.assert_allclose(fc_forward(w, b, x), expected, atol=1e-12)


def test_fc_block_rows_equal_single_frames():
    rng = np.random.default_rng(13)
    w = rng.standard_normal((5, 4))
    b = rng.standard_normal(5)
    xs = rng.standard_normal((7, 4))
    out = fc_forward(w, b, xs)
    assert out.shape == (7, 5)
    np.testing.assert_allclose(out, [fc_forward(w, b, x) for x in xs], rtol=0, atol=1e-12)


def test_fc_shape_mismatch():
    with pytest.raises(ValueError):
        fc_forward(np.zeros((2, 3)), np.zeros(2), np.zeros(4))


# ---------------------------------------------------------------------------
# recurrent cells


def test_gru_zero_weights_gives_zero_state():
    w = zero_cell(GRU_GATES, 3, 4)
    state = np.zeros((1, 4))
    y = gru_step(*w, np.ones((1, 3)), state)
    np.testing.assert_array_equal(y, np.zeros((1, 4)))
    np.testing.assert_array_equal(state, np.zeros((1, 4)))


def test_gru_saturated_update_gate_passes_memory():
    w_input, w_hidden, b_input, b_hidden = zero_cell(GRU_GATES, 3, 4)
    b_input[4:8] = 60.0  # z rows saturate to 1
    h0 = np.array([[0.3, -0.7, 1.5, 0.01]])
    state = h0.copy()
    gru_step(w_input, w_hidden, b_input, b_hidden, np.zeros((1, 3)), state)
    np.testing.assert_allclose(state, h0, atol=1e-12)


def test_gru_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    w = random_gru(rng, 3, 4)
    x = rng.standard_normal(3)
    h = rng.standard_normal(4)
    state = h[None].copy()
    y = gru_step(*w, x[None], state)
    np.testing.assert_allclose(state[0], gru_oracle(w, x, h), atol=1e-12)
    np.testing.assert_array_equal(y, state)


def test_gru_shape_mismatch():
    with pytest.raises(ValueError):
        gru_step(*zero_cell(GRU_GATES, 3, 4), np.zeros((1, 5)), np.zeros((1, 4)))


def test_lstm_zero_weights_gives_zero_state():
    w = zero_cell(LSTM_GATES, 3, 4)
    state = np.zeros((2, 4))
    lstm_step(*w, np.ones((1, 3)), state)
    h, c = state
    np.testing.assert_array_equal(h, np.zeros(4))
    np.testing.assert_array_equal(c, np.zeros(4))


def test_lstm_gate_limits_preserve_cell():
    w_input, w_hidden, b_input, b_hidden = zero_cell(LSTM_GATES, 2, 3)
    b_input[3:6] = 60.0   # forget gate -> 1
    b_input[0:3] = -60.0  # input gate -> 0
    c0 = np.array([0.5, -1.0, 2.0])
    state = np.stack([np.zeros(3), c0])
    lstm_step(w_input, w_hidden, b_input, b_hidden, np.ones((1, 2)), state)
    np.testing.assert_allclose(state[1], c0, atol=1e-12)


def test_lstm_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    w = random_lstm(rng, 3, 4)
    x = rng.standard_normal(3)
    h = rng.standard_normal(4)
    c = rng.standard_normal(4)
    state = np.stack([h, c])
    y = lstm_step(*w, x[None], state)
    h_ref, c_ref = lstm_oracle(w, x, h, c)
    np.testing.assert_allclose(state[0], h_ref, atol=1e-12)
    np.testing.assert_allclose(state[1], c_ref, atol=1e-12)
    np.testing.assert_array_equal(y[0], state[0])


def test_recurrent_streaming_matches_sequential_scan():
    rng = np.random.default_rng(3)
    w = random_gru(rng, 4, 5)
    xs = rng.standard_normal((12, 4))
    h = np.zeros((1, 5))
    outs = []
    for x in xs:
        gru_step(*w, x[None], h)
        outs.append(h.copy())
    h2 = np.zeros((1, 5))
    for t, x in enumerate(xs):
        gru_step(*w, x[None], h2)
        np.testing.assert_array_equal(h2, outs[t])


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_recurrent_block_equals_frame_loop(kind):
    rng = np.random.default_rng(14)
    step = gru_step if kind == "gru" else lstm_step
    w = (random_gru if kind == "gru" else random_lstm)(rng, 4, 5)
    xs = rng.standard_normal((9, 4))
    start = np.array([rng.standard_normal(5) for _ in range(1 if kind == "gru" else 2)])
    looped, carried = [], start.copy()
    for x in xs:
        looped.append(step(*w, x[None], carried)[0])
    last = start.copy()
    ys = step(*w, xs, last)
    assert ys.shape == (9, 5)
    np.testing.assert_allclose(ys, looped, rtol=0, atol=1e-12)
    np.testing.assert_allclose(last, carried, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(ys[-1], last[0])


def _cell_formula(kind, w, x, state):
    """The cell's update written out frame by frame, in the operation order of
    ``gru_step``/``lstm_step``: one block matmul for the input projection, then
    each frame's hidden matvec.  Returns the outputs and the advanced state."""
    w_input, w_hidden, b_input, b_hidden = w
    width = w_hidden.shape[1]
    gi = x @ w_input.T + b_input
    h = state[0].copy()
    c = state[-1].copy()
    ys = []
    for g in gi:
        if kind == "gru":
            gh = w_hidden @ h + b_hidden
            r = 1.0 / (1.0 + np.exp(-(g[:width] + gh[:width])))
            z = 1.0 / (1.0 + np.exp(-(g[width : 2 * width] + gh[width : 2 * width])))
            n = np.tanh(g[2 * width :] + r * gh[2 * width :])
            h = z * h + (1.0 - z) * n
        else:
            gates = g + w_hidden @ h + b_hidden
            i = 1.0 / (1.0 + np.exp(-gates[:width]))
            f = 1.0 / (1.0 + np.exp(-gates[width : 2 * width]))
            c = f * c + i * np.tanh(gates[2 * width : 3 * width])
            h = 1.0 / (1.0 + np.exp(-gates[3 * width :])) * np.tanh(c)
        ys.append(h)
    return np.array(ys).reshape(len(x), width), np.array([h] if kind == "gru" else [h, c])


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("frames", [0, 1, 3])
def test_large_cell_with_overlapped_projection_equals_its_formula(kind, frames):
    rng = np.random.default_rng(31 + frames)
    make, step = (random_gru, gru_step) if kind == "gru" else (random_lstm, lstm_step)
    w = tuple(a / 40.0 for a in make(rng, 1400, 512))
    # large enough that the input projection runs on the worker thread
    assert w[0].nbytes >= layers._OVERLAP_MIN_BYTES
    state = rng.standard_normal((1 if kind == "gru" else 2, 512))
    x = rng.standard_normal((frames, 1400))
    expected, expected_state = _cell_formula(kind, w, x, state)
    ys = step(*w, x, state)
    assert ys.tobytes() == expected.tobytes()
    assert state.tobytes() == expected_state.tobytes()
    # the worker exists where more than one CPU may run this process, and
    # only there: a process pinned to one CPU steps every cell in one thread
    if frames:
        workers = [t for t in threading.enumerate() if t.name.startswith("cruse-projection")]
        assert len(workers) == (len(os.sched_getaffinity(0)) > 1)


# a large LSTM cell stepped twice from one state: the first call starts the
# worker thread, the second, on a copy, gives the output every later step of
# the same block from `state` must equal
LARGE_STEP = """
import numpy as np
from cruse.layers import lstm_step

rng = np.random.default_rng(5)
w = tuple(a / 40.0 for a in (rng.standard_normal((2048, 1100)), rng.standard_normal((2048, 512)),
                             rng.standard_normal(2048), rng.standard_normal(2048)))
x = rng.standard_normal((2, 1100))
state = np.zeros((2, 512))
lstm_step(*w, x, state)
expected_state = state.copy()
expected = lstm_step(*w, x, expected_state)


def step_again():
    ys = lstm_step(*w, x, state)
    return ys.tobytes() == expected.tobytes() and state.tobytes() == expected_state.tobytes()
"""

FORK_PROBE = LARGE_STEP + """
import faulthandler
import os

pid = os.fork()
if pid == 0:
    # a hung child exits by itself, with its traceback, instead of outliving the test
    faulthandler.dump_traceback_later(60, exit=True)
    os._exit(0 if step_again() else 3)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""

SHUTDOWN_PROBE = LARGE_STEP + """
import threading
import time


def late():
    threading.main_thread().join()
    time.sleep(0.2)  # by now the interpreter has shut its thread pools down
    print(step_again())


threading.Thread(target=late).start()
"""


def _run_probe(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    return result


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_large_step_in_a_forked_child_makes_its_own_worker():
    # the child has no copy of the parent's worker thread; submitting to the
    # parent's pool there would wait forever, which the timeout turns into a failure
    result = _run_probe(FORK_PROBE)
    assert result.stdout.split() == ["0"], result.stderr


def test_large_step_after_the_main_thread_ended_runs_in_its_own_thread():
    # a thread that outlives the main thread steps after the interpreter has
    # stopped the worker; the pool then refuses work, and the caller computes
    result = _run_probe(SHUTDOWN_PROBE)
    assert result.stdout.split() == ["True"], result.stderr


def test_recurrent_block_rejects_wrong_rank():
    with pytest.raises(ValueError):
        gru_step(*zero_cell(GRU_GATES, 3, 4), np.zeros((2, 2, 3)), np.zeros((1, 4)))


@pytest.mark.parametrize("primitive", ["gru", "lstm", "conv", "tconv", "rnn_block"])
def test_primitives_reject_a_frame_without_its_block_axis(primitive):
    calls = {
        "gru": lambda: gru_step(*zero_cell(GRU_GATES, 3, 4), np.zeros(3), np.zeros((1, 4))),
        "lstm": lambda: lstm_step(*zero_cell(LSTM_GATES, 3, 4), np.zeros(3), np.zeros((2, 4))),
        "conv": lambda: conv2d_step(
            np.zeros((3, 2, 2, 3)), np.zeros(3), np.zeros((2, 8)), np.zeros((1, 2, 8))
        ),
        "tconv": lambda: tconv2d_step(
            np.zeros((2, 3, 2, 3)), np.zeros(2), np.zeros((3, 11)), np.zeros((2, 21)), 21
        ),
        "rnn_block": lambda: rnn_layer("gru", [[zero_cell(GRU_GATES, 3, 3)]]).forward(
            np.zeros(3), np.zeros((1, 1, 1, 3))
        ),
    }
    with pytest.raises(ValueError, match=r"\(T, "):
        calls[primitive]()


# ---------------------------------------------------------------------------
# convolutions


def test_conv_zero_kernel_bias_only():
    w = np.zeros((3, 2, 2, 3))
    out = conv2d_step(w, np.ones(3), np.zeros((1, 2, 8)), np.zeros((1, 2, 8)))
    assert out.shape == (1, 3, 4)
    np.testing.assert_array_equal(out, np.ones((1, 3, 4)))


def test_conv_delta_kernel_copies_strided_input():
    w = np.zeros((1, 1, 2, 3))
    w[0, 0, 1, 1] = 1.0  # current frame, center tap
    x = np.arange(8.0)[None, None, :]
    out = conv2d_step(w, np.zeros(1), x, np.zeros((1, 1, 8)))
    np.testing.assert_array_equal(out[0, 0], x[0, 0, ::2])


@pytest.mark.parametrize("freq", [7, 8])
def test_conv_rejects_frequency_kernel_wider_than_padding(freq):
    with pytest.raises(ValueError, match="frequency kernel 5"):
        conv2d_step(
            np.zeros((1, 1, 2, 5)), np.zeros(1), np.zeros((4, 1, freq)), np.zeros((1, 1, freq))
        )


def test_conv_streaming_matches_batch_oracle():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((2, 1, 2, 3))
    b = rng.standard_normal(2)
    frames = rng.standard_normal((6, 1, 8))
    expected = conv_batch_oracle(w, b, frames)
    state = np.zeros((1, 1, 8))
    for t in range(6):
        out = conv2d_step(w, b, frames[t : t + 1], state)
        np.testing.assert_allclose(out[0], expected[t], atol=1e-12)


def test_conv_first_frame_equals_zero_padded_batch():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((3, 2, 2, 3))
    b = rng.standard_normal(3)
    x = rng.standard_normal((2, 9))
    out = conv2d_step(w, b, x[None], np.zeros((1, 2, 9)))
    np.testing.assert_allclose(out[0], conv_batch_oracle(w, b, x[None])[0], atol=1e-12)


def test_conv_1d_kernel_needs_no_state():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((2, 1, 1, 3))
    b = rng.standard_normal(2)
    frames = rng.standard_normal((3, 1, 8))
    expected = conv_batch_oracle(w, b, frames)
    state = np.zeros((0, 1, 8))
    for t in range(3):
        out = conv2d_step(w, b, frames[t : t + 1], state)
        np.testing.assert_allclose(out[0], expected[t], atol=1e-12)


@pytest.mark.parametrize("kt", [1, 2])
def test_conv_blocks_match_batch_oracle(kt):
    rng = np.random.default_rng(15)
    w = rng.standard_normal((3, 2, kt, 3))
    b = rng.standard_normal(3)
    frames = rng.standard_normal((7, 2, 9))
    expected = conv_batch_oracle(w, b, frames)
    whole = conv2d_step(w, b, frames, np.zeros((kt - 1, 2, 9)))
    np.testing.assert_allclose(whole, expected, atol=1e-12)
    state = np.zeros((kt - 1, 2, 9))
    head = conv2d_step(w, b, frames[:4], state)
    tail = conv2d_step(w, b, frames[4:], state)
    np.testing.assert_allclose(np.concatenate([head, tail]), expected, atol=1e-12)


def test_conv_channel_mismatch():
    with pytest.raises(ValueError):
        conv2d_step(np.zeros((2, 3, 2, 3)), np.zeros(2), np.zeros((1, 1, 8)), np.zeros((1, 3, 8)))


def test_tconv_zero_kernel_constant_output():
    w = np.zeros((2, 3, 2, 3))
    state = np.zeros((2, 21))
    out = tconv2d_step(w, np.array([1.5, -0.5]), np.zeros((1, 3, 11)), state, 21)
    assert out.shape == (1, 2, 21)
    np.testing.assert_array_equal(out[0, 0], np.full(21, 1.5))
    np.testing.assert_array_equal(out[0, 1], np.full(21, -0.5))
    np.testing.assert_array_equal(state, np.zeros((2, 21)))


def test_tconv_streaming_matches_batch_oracle():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((1, 2, 2, 3))
    b = rng.standard_normal(1)
    frames = rng.standard_normal((5, 2, 6))
    expected = tconv_batch_oracle(w, b, frames, 11)
    state = np.zeros((1, 11))
    for t in range(5):
        out = tconv2d_step(w, b, frames[t : t + 1], state, 11)
        np.testing.assert_allclose(out[0], expected[t], atol=1e-12)


@pytest.mark.parametrize("kt", [1, 2])
def test_tconv_blocks_match_batch_oracle(kt):
    rng = np.random.default_rng(16)
    w = rng.standard_normal((2, 3, kt, 3))
    b = rng.standard_normal(2)
    frames = rng.standard_normal((7, 3, 6))
    expected = tconv_batch_oracle(w, b, frames, 11)
    whole = tconv2d_step(w, b, frames, np.zeros((2, 11)), 11)
    np.testing.assert_allclose(whole, expected, atol=1e-12)
    state = np.zeros((2, 11))
    head = tconv2d_step(w, b, frames[:4], state, 11)
    tail = tconv2d_step(w, b, frames[4:], state, 11)
    np.testing.assert_allclose(np.concatenate([head, tail]), expected, atol=1e-12)


def test_tconv_upsampling_shapes():
    # decoder chain mirror: 11 -> 21 -> 41 -> 81 -> 161
    for f_in, f_target in [(11, 21), (21, 41), (41, 81), (81, 161)]:
        out = tconv2d_step(
            np.zeros((1, 1, 2, 3)), np.zeros(1), np.zeros((1, 1, f_in)),
            np.zeros((1, f_target)), f_target,
        )
        assert out.shape == (1, 1, f_target)


def test_tconv_invalid_target_width():
    w = np.zeros((1, 1, 2, 3))
    for bad in (24, 18):
        with pytest.raises(ValueError, match="unreachable"):
            tconv2d_step(w, np.zeros(1), np.zeros((1, 1, 11)), np.zeros((1, bad)), bad)


# ---------------------------------------------------------------------------
# activations, grouping, skips


def test_activations():
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(activation_apply("relu", x), [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(activation_apply("leaky_relu", x), [-0.2, 0.0, 2.0])
    assert activation_apply("sigmoid", np.array([0.0]))[0] == 0.5
    for kind in ("tanh", "none"):  # no layer is built with either
        with pytest.raises(ValueError):
            activation_apply(kind, x)


def test_sigmoid_matches_expit_without_warnings():
    # numpy's exp and the C library's differ by an ulp on some inputs; the
    # clamp at exp(708) gives 3.3e-308 where expit gives a subnormal or zero
    from scipy.special import expit

    rng = np.random.default_rng(11)
    x = np.concatenate([
        10.0 * rng.standard_normal(200_000),
        rng.uniform(-800.0, 800.0, 200_000),
        [np.inf, -np.inf, np.nan, 1e300, -1e300, 0.0, -0.0, 36.0, 37.0,
         708.0, -708.0, 709.0, -709.0, 745.0, -745.0, -746.0, 5e-324],
    ])
    # every floating-point error numpy warns of by default raises; exp(-x)
    # underflowing to 0 for large x is exact here, and numpy ignores it
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        y = _sigmoid(x)
    np.testing.assert_allclose(y, expit(x), rtol=1e-15, atol=1e-300)
    assert np.isnan(y[np.isnan(x)]).all()
    finite = y[~np.isnan(x)]
    assert ((finite >= np.finfo(np.float64).tiny) & (finite <= 1.0)).all()


def test_float32_sigmoid_matches_expit_without_warnings():
    # the clamp follows the dtype: float64's 708 overflows float32's exp, and
    # 88 already gives a subnormal; 87 is the last whole power that does not
    from scipy.special import expit

    rng = np.random.default_rng(12)
    x = np.concatenate([
        10.0 * rng.standard_normal(200_000),
        rng.uniform(-120.0, 120.0, 200_000),
        [np.inf, -np.inf, np.nan, 3e38, -3e38, 0.0, -0.0, 17.0, 87.0, -87.0, 88.0,
         -88.0, -89.0, -100.0, -104.0, 1e-45],
    ]).astype(np.float32)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        y = _sigmoid(x)
        pair = activation_apply("sigmoid", np.float32([-100.0, 0.0]))
    assert y.dtype == pair.dtype == np.float32
    np.testing.assert_allclose(y, expit(x), rtol=1e-6, atol=1e-37)
    assert np.isnan(y[np.isnan(x)]).all()
    finite = y[~np.isnan(x)]
    assert ((finite >= np.finfo(np.float32).tiny) & (finite <= 1.0)).all()
    assert pair[0] >= np.finfo(np.float32).tiny and pair[1] == 0.5


def test_parallel_rnn_single_group_is_plain_gru():
    rng = np.random.default_rng(8)
    w = random_gru(rng, 6, 6)
    x = rng.standard_normal((1, 6))
    h = rng.standard_normal((1, 6))
    y_grouped = rnn_layer("gru", [[w]]).forward(x, h.reshape(1, 1, 1, 6).copy())
    y_plain = gru_step(*w, x, h)
    np.testing.assert_array_equal(y_grouped, y_plain)


def test_parallel_rnn_zero_group_outputs_zero():
    rng = np.random.default_rng(9)
    layer = rnn_layer("gru", [[random_gru(rng, 3, 3)], [zero_cell(GRU_GATES, 3, 3)]])
    y = layer.forward(rng.standard_normal((1, 6)), layer.zero_state())[0]
    np.testing.assert_array_equal(y[3:], np.zeros(3))
    assert np.any(y[:3] != 0)


def test_parallel_rnn_block_equals_frame_loop():
    rng = np.random.default_rng(10)
    layer = rnn_layer("lstm", [[random_lstm(rng, 3, 3)], [random_lstm(rng, 3, 3)]])
    xs = rng.standard_normal((5, 6))
    frame_states, block_states = layer.zero_state(), layer.zero_state()
    assert frame_states.shape == (2, 1, 2, 3)
    looped = np.concatenate([layer.forward(x[None], frame_states) for x in xs])
    np.testing.assert_allclose(layer.forward(xs, block_states), looped, rtol=0, atol=1e-12)
    np.testing.assert_allclose(block_states, frame_states, rtol=0, atol=1e-12)


def test_parallel_rnn_indivisible_length_errors():
    rng = np.random.default_rng(11)
    layer = rnn_layer("gru", [[random_gru(rng, 2, 2)]] * 3)
    with pytest.raises(ValueError, match="divisible"):
        layer.forward(np.zeros((1, 7)), layer.zero_state())


def test_skip_combine_variants():
    rng = np.random.default_rng(12)
    enc = rng.standard_normal((16, 81))
    dec = rng.standard_normal((16, 81))
    np.testing.assert_array_equal(skip_combine("none", enc, dec), dec)
    np.testing.assert_array_equal(skip_combine("add", np.zeros_like(enc), dec), dec)
    np.testing.assert_allclose(
        skip_combine("add_conv1x1", enc, dec, np.ones(16), np.zeros(16)),
        skip_combine("add", enc, dec),
        atol=1e-15,
    )
    assert skip_combine("concat", enc, dec).shape == (32, 81)
    block = skip_combine("concat", np.stack([enc, enc]), np.stack([dec, dec]))
    np.testing.assert_array_equal(block[1], np.concatenate([enc, dec]))
    scale = rng.standard_normal(16)
    bias = rng.standard_normal(16)
    expected = scale[:, None] * enc + bias[:, None] + dec
    np.testing.assert_allclose(skip_combine("add_conv1x1", enc, dec, scale, bias), expected)


def test_skip_combine_shape_mismatch():
    with pytest.raises(ValueError):
        skip_combine("add", np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        skip_combine("wormhole", np.zeros((2, 3)), np.zeros((2, 3)))
