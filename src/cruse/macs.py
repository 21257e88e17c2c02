"""Deterministic multiply-accumulate accounting per layer and per model.

Counting convention: one unit per weight multiply and one per bias add;
activations, the STFT, and feature extraction are excluded.  Transposed
convolutions count only the multiplies that contribute to retained
(non-cropped) output positions, i.e. the work of a streaming implementation
that computes exactly the outputs it emits.  Per-second figures use the hop
of the default :class:`StftConfig` (10 ms, 100 frames/s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dsp import StftConfig
from .layers import GRU_GATES, LSTM_GATES

if TYPE_CHECKING:
    from .models import ModelGraph

@dataclass(frozen=True)
class LayerMacs:
    name: str
    kind: str
    macs: int


@dataclass(frozen=True)
class MacReport:
    model: str
    layers: tuple[LayerMacs, ...]
    params: int

    @property
    def per_frame(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def per_second(self) -> int:
        cfg = StftConfig()
        return self.per_frame * cfg.sample_rate // cfg.hop_len


def macs_fc(in_dims: int, out_dims: int) -> int:
    """Fully connected layer: in*out weight multiplies plus out bias adds."""
    return in_dims * out_dims + out_dims


def _macs_gated(gates: int, in_dims: int, width: int) -> int:
    # per gate: input matmul, recurrent matmul, input bias, recurrent bias
    return gates * (in_dims * width + width * width + 2 * width)


def macs_gru(in_dims: int, width: int) -> int:
    return _macs_gated(GRU_GATES, in_dims, width)


def macs_lstm(in_dims: int, width: int) -> int:
    """Exactly 4/3 of the GRU count at equal dims (4 gates instead of 3)."""
    return _macs_gated(LSTM_GATES, in_dims, width)


def macs_conv2d(kernel: tuple[int, int], c_in: int, c_out: int, f_out: int) -> int:
    """Strided causal convolution, per frame."""
    kt, kf = kernel
    return kt * kf * c_in * c_out * f_out + c_out * f_out


def macs_tconv2d(kernel: tuple[int, int], c_in: int, c_out: int, f_in: int, f_target: int) -> int:
    """Transposed convolution per frame, counting only retained outputs.

    With frequency stride 2, input position j and kernel tap k address
    upsampled position 2j + k; taps landing in the cropped margin are not
    counted.
    """
    kt, kf = kernel
    full = (f_in - 1) * 2 + kf
    left = (full - f_target) // 2
    inside = sum(
        1 for j in range(f_in) for k in range(kf) if left <= 2 * j + k < left + f_target
    )
    return kt * c_in * c_out * inside + c_out * f_target


def macs_skip_conv1x1(channels: int, freq: int) -> int:
    """Channel-wise scale and bias of an add-skip: one multiply and one add per value."""
    return 2 * channels * freq


def macs_model(graph: ModelGraph) -> MacReport:
    """Per-layer and total MAC counts for one model instance.

    Each row is one layer's ``macs()``; a plain add or concat skip counts
    none and has no row.
    """
    from .models import format_model_name  # models imports the formulas above

    rows = [
        LayerMacs(layer.name, type(layer).__name__, layer.macs()) for layer in graph.iter_layers()
    ]
    return MacReport(
        model=format_model_name(graph.spec),
        layers=tuple(row for row in rows if row.macs),
        params=graph.param_count(),
    )
