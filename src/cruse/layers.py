"""Layer primitives with explicit streaming state.

Every operation here processes one frame at a time; recurrent layers carry
their hidden vectors, causal convolutions a short input history, and
transposed convolutions a pending future-tap contribution.  Processing an
utterance frame by frame through these primitives is numerically equivalent
to the corresponding whole-utterance computation.

Weight conventions (recorded in saved weight bundles):
  * matrices are row-major ``(out, in)``
  * GRU gates are stacked in the order r, z, n; LSTM gates i, f, g, o
  * the GRU candidate applies the reset gate after the recurrent matmul:
    ``n = tanh(Wn x + bn_in + r * (Un h + bn_hid))``
  * leaky ReLU uses negative slope 0.2
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

LEAKY_RELU_SLOPE = 0.2

GRU_GATES = 3
LSTM_GATES = 4


@dataclass
class RnnWeights:
    """Stacked gate weights for one recurrent cell.

    A GRU stacks 3 gates (r, z, n) and an LSTM 4 (i, f, g, o), so the gate
    count is implied by the shapes: ``w_hidden`` is ``(gates*width, width)``.
    """

    w_input: np.ndarray   # (gates*width, in_dims)
    w_hidden: np.ndarray  # (gates*width, width)
    b_input: np.ndarray   # (gates*width,)
    b_hidden: np.ndarray  # (gates*width,)

    @property
    def width(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def in_dims(self) -> int:
        return self.w_input.shape[1]


def zero_rnn_weights(gates: int, in_dims: int, width: int) -> RnnWeights:
    return RnnWeights(
        np.zeros((gates * width, in_dims)),
        np.zeros((gates * width, width)),
        np.zeros(gates * width),
        np.zeros(gates * width),
    )


def fc_forward(weight: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Affine layer ``W @ x + b`` (activation applied separately)."""
    if weight.shape[1] != x.shape[0]:
        raise ValueError(f"weight shape {weight.shape} does not match input of {x.shape[0]}")
    return weight @ x + bias


def gru_step(weights: RnnWeights, x: np.ndarray, h: np.ndarray):
    """One GRU update; returns ``(y, h_new)`` with ``y = h_new``."""
    w = weights.width
    if x.shape[0] != weights.in_dims or h.shape[0] != w:
        raise ValueError(
            f"gru_step expects input {weights.in_dims} and state {w}, "
            f"got {x.shape[0]} and {h.shape[0]}"
        )
    gi = weights.w_input @ x + weights.b_input
    gh = weights.w_hidden @ h + weights.b_hidden
    r = expit(gi[:w] + gh[:w])
    z = expit(gi[w : 2 * w] + gh[w : 2 * w])
    n = np.tanh(gi[2 * w :] + r * gh[2 * w :])
    h_new = (1.0 - z) * n + z * h
    return h_new, h_new


def lstm_step(weights: RnnWeights, x: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One LSTM update; returns ``(y, h_new, c_new)`` with ``y = h_new``."""
    w = weights.width
    if x.shape[0] != weights.in_dims or h.shape[0] != w or c.shape[0] != w:
        raise ValueError(
            f"lstm_step expects input {weights.in_dims} and state {w}, "
            f"got {x.shape[0]}, {h.shape[0]}, {c.shape[0]}"
        )
    gates = weights.w_input @ x + weights.b_input + weights.w_hidden @ h + weights.b_hidden
    i = expit(gates[:w])
    f = expit(gates[w : 2 * w])
    g = np.tanh(gates[2 * w : 3 * w])
    o = expit(gates[3 * w :])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, h_new, c_new


def conv2d_step(weight: np.ndarray, bias: np.ndarray, x_now: np.ndarray, state=None):
    """Causal 2-D convolution evaluated at the current frame.

    Time taps cover the stored previous frame(s) plus the current one; the
    frequency axis is zero-padded by 1 on each side and strided by 2, so an
    input of width F yields ``(F - 1) // 2 + 1`` outputs.

    Args:
        weight: ``(c_out, c_in, kernel_t, kernel_f)`` with kernel_t in {1, 2}.
        bias: ``(c_out,)``.
        x_now: current input frame, ``(c_in, freq)``.
        state: ``(kernel_t - 1, c_in, freq)`` history, or None at stream start.

    Returns:
        ``(out, new_state)`` where out is ``(c_out, freq_out)``.
    """
    c_out, c_in, kt, kf = weight.shape
    if x_now.ndim != 2 or x_now.shape[0] != c_in:
        raise ValueError(f"expected input of ({c_in}, F), got {x_now.shape}")
    freq = x_now.shape[1]
    if state is None:
        state = np.zeros((kt - 1, c_in, freq))
    hist = np.concatenate([state, x_now[None, :, :]], axis=0)
    padded = np.zeros((kt, c_in, freq + 2))
    padded[:, :, 1:-1] = hist
    f_out = (freq - 1) // 2 + 1
    # gather strided patches so the whole frame is one matmul
    patches = np.empty((c_in, kt, kf, f_out))
    for t in range(kt):
        for k in range(kf):
            patches[:, t, k, :] = padded[t, :, k : k + 2 * f_out : 2]
    out = weight.reshape(c_out, -1) @ patches.reshape(-1, f_out) + bias[:, None]
    return out, hist[1:]


def _tconv_freq(w_tap: np.ndarray, x: np.ndarray, f_target: int) -> np.ndarray:
    # Transposed convolution along frequency, stride 2, cropped to f_target.
    c_out, _, kf = w_tap.shape
    f_in = x.shape[1]
    full = (f_in - 1) * 2 + kf
    crop = full - f_target
    if crop < 0 or crop > kf - 1:
        raise ValueError(
            f"target width {f_target} unreachable from input width {f_in} "
            f"(full output {full}, max crop {kf - 1})"
        )
    left = crop // 2  # odd crops remove the extra sample at the high end
    out = np.zeros((c_out, full))
    for k in range(kf):
        out[:, k : k + 2 * f_in : 2] += w_tap[:, :, k] @ x
    return out[:, left : left + f_target]


def tconv2d_step(weight: np.ndarray, bias: np.ndarray, x_now: np.ndarray, state, f_target: int):
    """Streaming transposed 2-D convolution (frequency upsampling by 2).

    The time kernel of 2 is realized causally: the emitted frame adds the
    stored contribution of the previous input frame, and the current frame's
    future-tap contribution is stored in the returned state.

    Args:
        weight: ``(c_out, c_in, kernel_t, kernel_f)``.
        bias: ``(c_out,)``.
        x_now: current input frame, ``(c_in, freq)``.
        state: pending ``(c_out, f_target)`` contribution, or None at start.
        f_target: output frequency width (the mirrored encoder layer's input).

    Returns:
        ``(out, new_state)`` where out is ``(c_out, f_target)``.
    """
    c_out, c_in, kt, kf = weight.shape
    if x_now.ndim != 2 or x_now.shape[0] != c_in:
        raise ValueError(f"expected input of ({c_in}, F), got {x_now.shape}")
    out = _tconv_freq(weight[:, :, 0, :], x_now, f_target) + bias[:, None]
    if kt == 1:
        return out, None
    if state is not None:
        out = out + state
    new_state = _tconv_freq(weight[:, :, 1, :], x_now, f_target)
    return out, new_state


def activation_apply(kind: str, x: np.ndarray) -> np.ndarray:
    """Elementwise activation: relu, leaky_relu (slope 0.2), sigmoid, or none."""
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "leaky_relu":
        return np.where(x >= 0.0, x, LEAKY_RELU_SLOPE * x)
    if kind == "sigmoid":
        return expit(x)
    if kind == "none":
        return x
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
        return np.concatenate([enc, dec], axis=0)
    if enc.shape != dec.shape:
        raise ValueError(f"skip shapes differ: encoder {enc.shape} vs decoder {dec.shape}")
    if kind == "add":
        return enc + dec
    if kind == "add_conv1x1":
        return (scale[:, None] * enc + bias[:, None]) + dec
    raise ValueError(f"unknown skip kind {kind!r}")
