import _thread
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


def _large_cell(kind, frames):
    """A cell whose input weight is over the overlap threshold, a state and
    ``frames`` input frames, seeded by ``frames``."""
    rng = np.random.default_rng(31 + frames)
    make = random_gru if kind == "gru" else random_lstm
    w = tuple(a / 40.0 for a in make(rng, 1400, 512))
    assert w[0].nbytes >= layers._OVERLAP_MIN_BYTES
    state = rng.standard_normal((1 if kind == "gru" else 2, 512))
    return w, rng.standard_normal((frames, 1400)), state


def _count_threads(monkeypatch):
    """Counts the threads started through ``_thread.start_new_thread`` from now
    on: one ``threading.Event`` per thread, set when the thread's function ends."""
    started = []
    start = _thread.start_new_thread

    def counted(func, args, kwargs=None):
        ended = threading.Event()
        started.append(ended)

        def run(*a, **kw):
            try:
                return func(*a, **kw)
            finally:
                ended.set()

        return start(run, args, kwargs or {})

    monkeypatch.setattr(_thread, "start_new_thread", counted)
    return started


def _all_ended(started):
    # the helper returns just after it hands back its last job
    return all(ended.wait(10) for ended in started)


def _two_cpus(monkeypatch):
    # the helper thread starts only where the process may run on two CPUs
    monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _one_blas_thread(monkeypatch):
    # and only where the BLAS multiplies on one thread per call
    monkeypatch.setattr(layers, "_ONE_BLAS_THREAD", True)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("frames", [0, 1, 3])
def test_large_cell_with_overlapped_projection_equals_its_formula(kind, frames, monkeypatch):
    step = gru_step if kind == "gru" else lstm_step
    w, x, state = _large_cell(kind, frames)
    expected, expected_state = _cell_formula(kind, w, x, state)
    _one_blas_thread(monkeypatch)
    started = _count_threads(monkeypatch)
    ys = step(*w, x, state)
    assert ys.tobytes() == expected.tobytes()
    assert state.tobytes() == expected_state.tobytes()
    # one helper thread per call where more than one CPU may run this process,
    # and only there: a process pinned to one CPU steps every cell in one thread
    assert len(started) == (frames > 0 and len(os.sched_getaffinity(0)) > 1)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("frames", [1, 3])
def test_large_cell_steps_in_one_thread_beside_a_threaded_blas(kind, frames, monkeypatch):
    # a BLAS that runs its own threads leaves the helper no CPU, so no plan
    # starts one, even where the process may run on two CPUs
    step = gru_step if kind == "gru" else lstm_step
    w, x, state = _large_cell(kind, frames)
    expected, expected_state = _cell_formula(kind, w, x, state)
    _two_cpus(monkeypatch)
    monkeypatch.setattr(layers, "_ONE_BLAS_THREAD", False)
    started = _count_threads(monkeypatch)
    ys = step(*w, x, state)
    assert ys.tobytes() == expected.tobytes()
    assert state.tobytes() == expected_state.tobytes()
    assert started == []


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_large_cell_raises_what_its_helper_thread_raised(kind, monkeypatch):
    step = gru_step if kind == "gru" else lstm_step
    w, x, state = _large_cell(kind, 2)
    _two_cpus(monkeypatch)
    _one_blas_thread(monkeypatch)
    started = _count_threads(monkeypatch)

    def out_of_memory(*args, **kwargs):
        raise MemoryError("projection")

    monkeypatch.setattr(np, "matmul", out_of_memory)
    with pytest.raises(MemoryError, match="projection"):
        step(*w, x, state)
    assert len(started) == 1


def test_large_cell_computes_its_projection_itself_when_no_thread_starts(monkeypatch):
    # a finalizing interpreter refuses new threads with RuntimeError
    w, x, state = _large_cell("lstm", 3)
    expected, expected_state = _cell_formula("lstm", w, x, state)
    _two_cpus(monkeypatch)
    _one_blas_thread(monkeypatch)

    def refused(*args):
        raise RuntimeError("can't create new thread at interpreter shutdown")

    monkeypatch.setattr(_thread, "start_new_thread", refused)
    ys = lstm_step(*w, x, state)
    assert ys.tobytes() == expected.tobytes()
    assert state.tobytes() == expected_state.tobytes()


# the shapes of the named models' hidden weights: NSnet2-400, a CRUSE4-128-1xGRU4
# group, a CRUSE4-128-1xGRU1 cell and a CRUSE5-256-2xLSTM1 cell
SPLIT_SHAPES = [(1200, 400), (1056, 352), (4224, 1408), (6144, 1536)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", SPLIT_SHAPES)
def test_row_split_matvec_keeps_every_bit(shape, dtype):
    # the split hidden product and projection are only bit-identical to `w @ h`
    # and `x @ w.T` because this BLAS computes each output element as the same
    # dot product whatever rows surround it, for a projection of at least
    # _SPLIT_MIN_FRAMES rows; a build without that property fails here, and the
    # engine digest would change with the number of CPUs
    rng = np.random.default_rng(shape[0])
    w = rng.standard_normal(shape).astype(dtype)
    h = rng.standard_normal(shape[1]).astype(dtype)
    cut = layers._helper_rows(shape[0])
    assert 0 < cut < shape[0] and cut % 8 == 0
    split = np.empty(shape[0], dtype)
    np.matmul(w[:cut], h, out=split[:cut])
    np.matmul(w[cut:], h, out=split[cut:])
    assert split.tobytes() == (w @ h).tobytes()
    for frames in (16, 17, 36, 64):
        assert frames >= layers._SPLIT_MIN_FRAMES
        x = rng.standard_normal((frames, shape[1])).astype(dtype)
        gi = np.empty((frames, shape[0]), dtype)
        np.matmul(x, w[:cut].T, out=gi[:, :cut])
        np.matmul(x, w[cut:].T, out=gi[:, cut:])
        assert gi.tobytes() == (x @ w.T).tobytes(), frames


SPLIT_FRAMES = 17


def _split_cell(kind, large_input):
    """A cell whose hidden weight is over the row-split threshold, a state and
    a block long enough to split; with ``large_input``, the input weight is
    also over the projection threshold (the ``_large_cell`` shape)."""
    if large_input:
        w, x, state = _large_cell(kind, SPLIT_FRAMES)
    else:
        rng = np.random.default_rng(47)
        make = random_gru if kind == "gru" else random_lstm
        w = tuple(a / 40.0 for a in make(rng, 64, 320))
        assert w[0].nbytes < layers._OVERLAP_MIN_BYTES
        state = rng.standard_normal((1 if kind == "gru" else 2, 320))
        x = rng.standard_normal((SPLIT_FRAMES, 64))
    assert w[1].nbytes >= layers._SPLIT_MIN_BYTES
    assert len(x) >= layers._SPLIT_MIN_FRAMES
    return w, x, state


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("env, one", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
    ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "4"}, False),
])
def test_one_blas_thread_reads_the_variables_in_openblas_order(env, one, monkeypatch):
    for var in BLAS_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert layers._one_blas_thread() is one


def _count_jobs(monkeypatch):
    jobs = []
    start = layers._Helper.start

    def counted(self, job, *args, **kwargs):
        jobs.append(job)
        return start(self, job, *args, **kwargs)

    monkeypatch.setattr(layers._Helper, "start", counted)
    return jobs


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("large_input", [False, True])
def test_long_block_with_split_hidden_products_equals_its_formula(kind, large_input,
                                                                  monkeypatch):
    step = gru_step if kind == "gru" else lstm_step
    w, x, state = _split_cell(kind, large_input)
    expected, expected_state = _cell_formula(kind, w, x, state)
    _one_blas_thread(monkeypatch)
    started = _count_threads(monkeypatch)
    jobs = _count_jobs(monkeypatch)
    ys = step(*w, x, state)
    assert ys.tobytes() == expected.tobytes()
    assert state.tobytes() == expected_state.tobytes()
    # one helper thread for the call, with one job for the top rows of the
    # projection and one for those of every frame's hidden product
    two_cpus = len(os.sched_getaffinity(0)) > 1
    assert len(started) == two_cpus
    assert len(jobs) == (SPLIT_FRAMES + 1 if two_cpus else 0)
    assert _all_ended(started)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("frames, one_blas_thread", [
    (SPLIT_FRAMES, False),                 # a BLAS that runs its own threads
    (layers._SPLIT_MIN_FRAMES - 1, True),  # a block too short to split
])
def test_split_size_cell_steps_in_one_thread_without_the_split(kind, frames, one_blas_thread,
                                                               monkeypatch):
    step = gru_step if kind == "gru" else lstm_step
    w, x, state = _split_cell(kind, large_input=False)
    x = x[:frames]
    expected, expected_state = _cell_formula(kind, w, x, state)
    _two_cpus(monkeypatch)
    monkeypatch.setattr(layers, "_ONE_BLAS_THREAD", one_blas_thread)
    started = _count_threads(monkeypatch)
    ys = step(*w, x, state)
    assert ys.tobytes() == expected.tobytes()
    assert state.tobytes() == expected_state.tobytes()
    assert started == []


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("large_input", [False, True])
def test_split_raises_what_its_helper_raised_in_a_later_frame(kind, large_input, monkeypatch):
    step = gru_step if kind == "gru" else lstm_step
    w, x, state = _split_cell(kind, large_input)
    _two_cpus(monkeypatch)
    _one_blas_thread(monkeypatch)
    started = _count_threads(monkeypatch)
    caller = _thread.get_ident()
    matmul = np.matmul
    helper_calls = []

    def fails_in_frame_3(*args, **kwargs):
        if _thread.get_ident() != caller:
            helper_calls.append(args)
            if len(helper_calls) == 5:  # frame 3's top rows, after the projection's
                raise MemoryError("frame 3")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", fails_in_frame_3)
    with pytest.raises(MemoryError, match="frame 3"):
        step(*w, x, state)
    assert len(helper_calls) == 5
    assert len(started) == 1
    assert _all_ended(started)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_split_ends_its_helper_when_the_caller_raises(kind, monkeypatch):
    # the caller's share of frame 4 raises while the helper has its rows
    step = gru_step if kind == "gru" else lstm_step
    w, x, state = _split_cell(kind, large_input=False)
    _two_cpus(monkeypatch)
    _one_blas_thread(monkeypatch)
    started = _count_threads(monkeypatch)
    caller = _thread.get_ident()
    matmul = np.matmul
    caller_calls = []

    def fails_in_frame_4(*args, **kwargs):
        if _thread.get_ident() == caller:
            caller_calls.append(args)
            if len(caller_calls) == 6:  # after the projection and frames 0-3
                raise MemoryError("frame 4")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", fails_in_frame_4)
    with pytest.raises(MemoryError, match="frame 4"):
        step(*w, x, state)
    assert len(started) == 1
    assert _all_ended(started)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("large_input", [False, True])
def test_split_computes_everything_itself_when_no_thread_starts(kind, large_input, monkeypatch):
    step = gru_step if kind == "gru" else lstm_step
    w, x, state = _split_cell(kind, large_input)
    expected, expected_state = _cell_formula(kind, w, x, state)
    _two_cpus(monkeypatch)
    _one_blas_thread(monkeypatch)

    def refused(*args):
        raise RuntimeError("can't create new thread at interpreter shutdown")

    monkeypatch.setattr(_thread, "start_new_thread", refused)
    ys = step(*w, x, state)
    assert ys.tobytes() == expected.tobytes()
    assert state.tobytes() == expected_state.tobytes()


# a large LSTM cell stepped twice from one state: the second call, on a copy,
# gives the output every later step of the same block from `state` must equal.
# `step_again` returns whether it did, the number of threads the step started
# and the number it should start: one (the helper of the pairing plan) where a
# thread may start and the process may run on two CPUs, since `_run_probe`
# runs the BLAS on one thread
LARGE_STEP = """
import _thread
import os

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
start_new_thread = _thread.start_new_thread


def may_start_a_thread():
    try:
        start_new_thread(lambda: None, ())
    except RuntimeError:  # a finalizing interpreter refuses
        return False
    return True


def step_again():
    started = []

    def counted(*args):
        started.append(start_new_thread(*args))
        return started[-1]

    helpers = int(may_start_a_thread() and len(os.sched_getaffinity(0)) > 1)
    _thread.start_new_thread = counted
    try:
        ys = lstm_step(*w, x, state)
    finally:
        _thread.start_new_thread = start_new_thread
    same = ys.tobytes() == expected.tobytes() and state.tobytes() == expected_state.tobytes()
    return same, len(started), helpers
"""

FORK_PROBE = LARGE_STEP + """
import faulthandler

pid = os.fork()
if pid == 0:
    # a hung child exits by itself, with its traceback, instead of outliving the test
    faulthandler.dump_traceback_later(60, exit=True)
    print(*step_again(), flush=True)
    os._exit(0)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""

SHUTDOWN_PROBE = LARGE_STEP + """
import threading
import time


def late():
    threading.main_thread().join()
    time.sleep(0.2)  # by now the interpreter has run its thread shutdown
    print(*step_again())


threading.Thread(target=late).start()
"""

ATEXIT_PROBE = LARGE_STEP + """
import atexit

atexit.register(lambda: print(*step_again()))
"""


def _run_probe(code):
    # one BLAS thread, so that the large step may start its helper thread
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_large_step_in_a_forked_child_makes_its_own_worker():
    # the child steps with the parent's weights and state after the parent
    # has stepped large cells, with a helper thread of its own where two CPUs
    # may run it; a hang there is a failure through the timeout
    helpers = str(int(len(os.sched_getaffinity(0)) > 1))
    assert _run_probe(FORK_PROBE) == ["True", helpers, helpers, "0"]


def test_large_step_after_the_main_thread_ended_runs_in_its_own_thread():
    # a thread that outlives the main thread steps while the interpreter
    # shuts down, and gets the same bits, with a helper where one may start
    same, started, helpers = _run_probe(SHUTDOWN_PROBE)
    assert same == "True"
    assert started == helpers


def test_large_step_in_an_atexit_handler_gives_the_same_bits():
    same, started, helpers = _run_probe(ATEXIT_PROBE)
    assert same == "True"
    assert started == helpers


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
