"""Layer primitives with explicit streaming state.

Every operation here processes a block of consecutive frames along a
leading axis; one frame is a one-row block.  Each stateful primitive takes
its layer's state as one array, advances it in place and returns only its
output block.  Recurrent cells carry their hidden vectors, causal
convolutions a short input history, and transposed convolutions a pending
future-tap contribution, so consecutive blocks of any length compute the
same whole-utterance result up to rounding.  Within a block, a recurrent
cell's hidden matvec and gates run frame by frame, since each frame needs
the one before; everything else is one matmul over the block.  A large cell
shares its matmuls with one helper thread per call (``_recurrent_block``).

Weight conventions (recorded in saved weight bundles):
  * matrices are row-major ``(out, in)``
  * GRU gates are stacked in the order r, z, n; LSTM gates i, f, g, o, as
    the row blocks of one cell's ``(gates*w, in)`` input and ``(gates*w, w)``
    recurrent matrices and ``(gates*w,)`` biases.  A recurrent block holds
    one array per parameter for all its cells, ``(P, N, gates*w, w)`` and
    ``(P, N, gates*w)``, with cell n of group g at ``[g, n]``.
  * the GRU candidate applies the reset gate after the recurrent matmul:
    ``n = tanh(Wn x + bn_in + r * (Un h + bn_hid))``
  * leaky ReLU uses negative slope 0.2
"""

from __future__ import annotations

import _thread
import contextlib
import functools
import os

import numpy as np

LEAKY_RELU_SLOPE = 0.2

GRU_GATES = 3
LSTM_GATES = 4

# An input projection whose weight is at least this large runs on the
# call's helper thread while the caller multiplies the block's first hidden
# vector.  On a 2-vCPU host with one BLAS thread, overlapping every cell made
# the hops of CRUSE4-128-1xGRU4 (2.8 MiB per GRU group) slower and dearer in
# CPU time, while CRUSE5-256-2xLSTM1 (72 MiB per LSTM cell) gained about 40%
# of a hop (measurements in CHANGES.md).
_OVERLAP_MIN_BYTES = 16 * 2**20

# In a block of at least _SPLIT_MIN_FRAMES frames, a hidden weight of at
# least _SPLIT_MIN_BYTES (about one core's L2, so every frame streams it from
# L3 or memory) has each frame's matvec split by rows: the helper thread
# multiplies the top rows while the caller multiplies the rest.  The helper
# takes about 3/8 of the rows, so that the caller rarely sleeps waiting for
# it.  Shorter blocks pay more in hand-overs than they gain: on an NSnet2-400
# cell, 8-frame blocks saved 10% of the wall time for 13% more CPU time, and
# 64-frame blocks 26% for 2% less (measurements in BENCH_row_split.json).
_SPLIT_MIN_BYTES = 2 * 2**20
_SPLIT_MIN_FRAMES = 16


def _one_blas_thread() -> bool:
    """Whether the BLAS multiplies on one thread per call, by the rule
    OpenBLAS (the BLAS of numpy's wheels) applies when it loads: the first of
    ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``
    that holds a positive whole number is 1.  Without any, OpenBLAS runs one
    thread per CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


# A BLAS that already runs a large matvec on every CPU gains nothing from the
# row split, and loses: on a 2-vCPU host with OpenBLAS's default threads,
# whole-file NSnet2-400 took twice the wall time per frame with the split.
# Read once, as OpenBLAS reads its variables once, when numpy loads it.
_ONE_BLAS_THREAD = _one_blas_thread()


def _helper_rows(rows: int) -> int:
    """The top rows of a split matvec that the helper multiplies: 3/8 of
    ``rows``, cut down to a multiple of 8."""
    return rows * 3 // 64 * 8


class _Helper:
    """A thread started for one recurrent call, which runs jobs beside the caller.

    ``start(job, more)`` hands the thread a callable and returns; the first
    call starts the thread on it.  ``wait()`` returns once the job has run
    and raises what it raised.  With ``more`` false the thread ends after
    that job; otherwise it waits for the next one on a ``_thread`` lock and
    reports each through another.  Leaving the ``with`` block waits for a
    job still running, also when the caller raises, and then ends a thread
    still waiting, so no thread outlives the call.  An interpreter that is
    finalizing starts no thread; ``start`` then runs the job in the caller.
    """

    def __init__(self):
        self._job = None
        self._failed = []
        self._busy = False     # a job was handed over and not yet waited for
        self._serving = False  # the thread waits for another job
        self._ready = _thread.allocate_lock()
        self._done = _thread.allocate_lock()
        self._ready.acquire()
        self._done.acquire()

    def _serve(self, job, more):
        while True:
            try:
                job()
            except BaseException as exc:  # raised in the caller by wait()
                self._failed.append(exc)
            self._done.release()
            if not more:
                return
            self._ready.acquire()
            job, more = self._job

    def start(self, job, more=True):
        if self._serving:
            self._job = (job, more)
            self._ready.release()
        else:
            try:
                _thread.start_new_thread(self._serve, (job, more))
            except RuntimeError:
                job()
                return
        self._busy, self._serving = True, more

    def wait(self):
        if self._busy:
            self._done.acquire()
            self._busy = False
        if self._failed:
            raise self._failed.pop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._busy:
            self._done.acquire()
        if self._serving:
            self._job = (lambda: None, False)
            self._ready.release()
            self._done.acquire()


@functools.cache
def _sigmoid_exp_max(dtype: np.dtype) -> float:
    """The clamp on ``-x``: ``exp`` of it is finite and ``1 / (1 + exp)`` of
    it a normal float of ``dtype`` (708 for float64, 87 for float32)."""
    return float(np.floor(-np.log(np.finfo(dtype).tiny)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function ``1 / (1 + exp(-x))``, elementwise.

    ``exp`` never overflows, so no input warns under numpy's default error
    handling, ±inf included; every result is a normal float of ``x``'s dtype
    in (0, 1], or NaN for NaN.
    """
    out = np.negative(x)
    np.minimum(out, _sigmoid_exp_max(out.dtype), out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def fc_forward(weight: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Affine layer ``W @ x + b`` over the last axis of ``(..., in)``.

    The activation is applied separately.
    """
    if weight.shape[1] != x.shape[-1]:
        raise ValueError(f"weight shape {weight.shape} does not match input of {x.shape[-1]}")
    return x @ weight.T + bias


def _recurrent_block(step: str, w_input: np.ndarray, w_hidden: np.ndarray,
                     b_input: np.ndarray, x: np.ndarray, state: np.ndarray, vectors: int):
    """The block and ``(vectors, w)`` state check of :func:`gru_step` and :func:`lstm_step`.

    Returns a context whose value is the block's input projection, the first
    frame's hidden product ``w_hidden @ state[0]`` (unread for an empty
    block), the function that gives ``w_hidden @ h`` for each later frame,
    and the ``(T, w)`` output buffer.  On a process that may run on more
    than one CPU, one :class:`_Helper` thread serves the block when the
    input weight is at least ``_OVERLAP_MIN_BYTES``, or when the block has
    at least ``_SPLIT_MIN_FRAMES`` frames, the hidden weight at least
    ``_SPLIT_MIN_BYTES`` and the BLAS one thread (see :func:`_helped_block`);
    leaving the context ends it.
    """
    w = w_hidden.shape[1]
    if x.ndim != 2 or x.shape[1] != w_input.shape[1] or state.shape != (vectors, w):
        raise ValueError(
            f"{step} expects input (T, {w_input.shape[1]}) and state ({vectors}, {w}), "
            f"got {x.shape} and {state.shape}"
        )
    ys = np.empty((len(x), w))
    project = w_input.nbytes >= _OVERLAP_MIN_BYTES
    split = (len(x) >= _SPLIT_MIN_FRAMES and w_hidden.nbytes >= _SPLIT_MIN_BYTES
             and _ONE_BLAS_THREAD)
    if (len(x) and (project or split) and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1):
        return _helped_block(w_input, w_hidden, b_input, x, state[0], ys, project, split)
    return contextlib.nullcontext(
        (x @ w_input.T + b_input, w_hidden @ state[0], w_hidden.__matmul__, ys))


@contextlib.contextmanager
def _helped_block(w_input, w_hidden, b_input, x, h0, ys, project: bool, split: bool):
    """The value of :func:`_recurrent_block`'s context, computed with a helper.

    With ``project``, the helper computes the input projection while the
    caller computes the first hidden product.  With ``split``, the helper
    multiplies the top :func:`_helper_rows` rows of each later frame's
    hidden product (and of the first one's, without ``project``) while the
    caller multiplies the rest.  Each output row is the same dot product in
    the BLAS kernel on either thread, so the bits do not depend on the
    threads; ``tests/test_layers.py`` checks this property of the BLAS build
    on the named models' shapes.
    """
    cut = _helper_rows(len(w_hidden))
    top, bottom = w_hidden[:cut], w_hidden[cut:]
    with _Helper() as helper:

        def split_hidden(h):
            out = np.empty(len(w_hidden), np.result_type(w_hidden, h))
            helper.start(functools.partial(np.matmul, top, h, out=out[:cut]))
            np.matmul(bottom, h, out=out[cut:])
            helper.wait()
            return out

        hidden = split_hidden if split else w_hidden.__matmul__
        if project:
            gi = np.empty((len(x), len(w_input)), np.result_type(x, w_input))
            helper.start(functools.partial(np.matmul, x, w_input.T, out=gi), more=split)
            first = w_hidden @ h0
            helper.wait()
            gi += b_input
        else:
            gi = x @ w_input.T + b_input
            first = hidden(h0)
        yield gi, first, hidden, ys


def gru_step(w_input: np.ndarray, w_hidden: np.ndarray, b_input: np.ndarray,
             b_hidden: np.ndarray, x: np.ndarray, state: np.ndarray) -> np.ndarray:
    """GRU updates over a block of frames ``(T, in)``; returns ``(T, w)``.

    The weights are one cell's stacked gates: ``w_input`` ``(3w, in)``,
    ``w_hidden`` ``(3w, w)`` and the biases ``(3w,)``.  ``state`` is
    ``(1, w)``, the hidden vector ``h``, advanced in place to the last
    frame's.  The input projection of the whole block is one matmul; only
    the recurrent matmul and the gates run frame by frame.
    """
    block = _recurrent_block("gru_step", w_input, w_hidden, b_input, x, state, 1)
    with block as (gi, first, hidden, ys):
        w = ys.shape[1]
        h = state[0]
        for t, g in enumerate(gi):
            gh = (hidden(h) if t else first) + b_hidden
            rz = _sigmoid(g[: 2 * w] + gh[: 2 * w])
            z = rz[w:]
            n = np.tanh(g[2 * w :] + rz[:w] * gh[2 * w :])
            h = ys[t] = z * h + (1.0 - z) * n
    state[0] = h
    return ys


def lstm_step(w_input: np.ndarray, w_hidden: np.ndarray, b_input: np.ndarray,
              b_hidden: np.ndarray, x: np.ndarray, state: np.ndarray) -> np.ndarray:
    """LSTM updates over a block of frames ``(T, in)``; returns ``(T, w)``.

    As :func:`gru_step`, with four stacked gates (``4w`` rows) and ``state``
    the ``(2, w)`` vectors ``h, c``.
    """
    block = _recurrent_block("lstm_step", w_input, w_hidden, b_input, x, state, 2)
    with block as (gi, first, hidden, ys):
        w = ys.shape[1]
        h, c = state
        for t, g in enumerate(gi):
            gates = g + (hidden(h) if t else first) + b_hidden
            i_f = _sigmoid(gates[: 2 * w])
            c[...] = i_f[w:] * c + i_f[:w] * np.tanh(gates[2 * w : 3 * w])
            h = ys[t] = _sigmoid(gates[3 * w :]) * np.tanh(c)
    state[0] = h
    return ys


def conv2d_step(weight: np.ndarray, bias: np.ndarray, x: np.ndarray, state: np.ndarray):
    """Causal 2-D convolution over a block of frames.

    Time taps cover the stored previous frame(s) plus the current one; the
    frequency axis is zero-padded by 1 on each side and strided by 2, so an
    input of width F yields ``(F - 1) // 2 + 1`` outputs.  A block is one
    patch gather and one matmul.

    Args:
        weight: ``(c_out, c_in, kernel_t, kernel_f)`` with kernel_t in {1, 2}
            and kernel_f at most 3, the padded width.
        bias: ``(c_out,)``.
        x: a block of input frames ``(T, c_in, freq)``.
        state: ``(kernel_t - 1, c_in, freq)`` history, ``ConvLayer.zero_state()``
            at start; advanced in place to the block's last frames.

    Returns:
        ``(T, c_out, freq_out)``.

    Raises:
        ValueError: on a wider frequency kernel, whose patches would reach
            past the padded input, or an input of the wrong shape.
    """
    c_out, c_in, kt, kf = weight.shape
    if kf > 3:
        raise ValueError(f"frequency kernel {kf} is wider than the 1-bin padding allows (3)")
    if x.ndim != 3 or x.shape[1] != c_in:
        raise ValueError(f"expected input of (T, {c_in}, F), got {x.shape}")
    t_len, _, freq = x.shape
    padded = np.zeros((kt - 1 + t_len, c_in, freq + 2))
    padded[: kt - 1, :, 1:-1] = state
    padded[kt - 1 :, :, 1:-1] = x
    f_out = (freq - 1) // 2 + 1
    # every strided patch, as columns (c_in, kt, kf) x (T, f_out); the
    # ndarray constructor raises if they reach past the padded buffer
    s_t, s_c, s_f = padded.strides
    patches = np.ndarray(
        (c_in, kt, kf, t_len, f_out), padded.dtype, padded, 0, (s_c, s_t, s_f, s_t, 2 * s_f)
    ).reshape(c_in * kt * kf, t_len * f_out)
    out = weight.reshape(c_out, -1) @ patches
    out += bias[:, None]
    state[...] = padded[t_len:, :, 1:-1]
    return out.reshape(c_out, t_len, f_out).transpose(1, 0, 2)


def _tconv_taps(weight: np.ndarray) -> np.ndarray:
    # (c_out * kt * kf, c_in): a view of a weight stored so (see build_model)
    return weight.transpose(0, 2, 3, 1).reshape(-1, weight.shape[1])


def tconv2d_step(weight: np.ndarray, bias: np.ndarray, x: np.ndarray, state, f_target: int):
    """Streaming transposed 2-D convolution (frequency upsampling by 2).

    The time kernel of 2 is realized causally: each emitted frame adds the
    second time tap of the previous input frame, and the second tap of the
    last input frame becomes the state.  A time kernel of 1 has no such tap
    and, like an empty block, leaves the state unchanged.  All taps of a
    block are one matmul.

    Args:
        weight: ``(c_out, c_in, kernel_t, kernel_f)``.  The matmul takes its
            rows in ``(c_out, kernel_t, kernel_f)`` order: a view of a weight
            stored as that matrix (``build_model`` does), a copy of others.
        bias: ``(c_out,)``.
        x: a block of input frames ``(T, c_in, freq)``.
        state: pending ``(c_out, f_target)`` contribution,
            ``TconvLayer.zero_state()`` at start; advanced in place.
        f_target: output frequency width (the mirrored encoder layer's input).

    Returns:
        ``(T, c_out, f_target)``.
    """
    c_out, c_in, kt, kf = weight.shape
    if x.ndim != 3 or x.shape[1] != c_in:
        raise ValueError(f"expected input of (T, {c_in}, F), got {x.shape}")
    t_len, _, f_in = x.shape
    full = (f_in - 1) * 2 + kf
    crop = full - f_target
    if crop < 0 or crop > kf - 1:
        raise ValueError(
            f"target width {f_target} unreachable from input width {f_in} "
            f"(full output {full}, max crop {kf - 1})"
        )
    left = crop // 2  # odd crops remove the extra sample at the high end
    cols = _tconv_taps(weight) @ x.transpose(1, 0, 2).reshape(c_in, t_len * f_in)
    cols = cols.reshape(c_out, kt, kf, t_len, f_in)
    up = np.zeros((c_out, kt, t_len, full))
    for k in range(kf):
        # taps 0 and 1 are the first on their bins: a copy costs less than
        # an add, and equals adding to zero up to the sign of a zero
        bins = up[..., k : k + 2 * f_in : 2]
        if k < 2:
            bins[...] = cols[:, :, k]
        else:
            bins += cols[:, :, k]
    up = up[..., left : left + f_target]
    out = up[:, 0] + bias[:, None, None]
    if kt == 2 and t_len:
        out[:, 0] += state
        out[:, 1:] += up[:, 1, :-1]
        state[...] = up[:, 1, -1]
    return out.transpose(1, 0, 2)


def activation_apply(kind: str, x: np.ndarray) -> np.ndarray:
    """Elementwise activation: relu, leaky_relu (slope 0.2) or sigmoid."""
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "leaky_relu":
        return np.maximum(x, LEAKY_RELU_SLOPE * x)
    if kind == "sigmoid":
        return _sigmoid(x)
    raise ValueError(f"unknown activation {kind!r}")


def skip_combine(kind: str, enc: np.ndarray, dec: np.ndarray, scale=None, bias=None) -> np.ndarray:
    """Combine an encoder output with the matching decoder input.

    ``add`` sums the tensors, ``add_conv1x1`` first applies a trainable
    channel-wise scale and bias to the encoder side, ``concat`` stacks the
    encoder channels in front of the decoder channels, ``none`` passes the
    decoder input through.
    """
    if kind == "none":
        return dec
    if kind == "concat":
        return np.concatenate([enc, dec], axis=-2)
    if enc.shape != dec.shape:
        raise ValueError(f"skip shapes differ: encoder {enc.shape} vs decoder {dec.shape}")
    if kind == "add":
        return enc + dec
    if kind == "add_conv1x1":
        return (scale[:, None] * enc + bias[:, None]) + dec
    raise ValueError(f"unknown skip kind {kind!r}")
