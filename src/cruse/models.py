"""Model construction, naming, serialization, and block-wise inference.

Two families are supported.  NSnet2 is a fully recurrent stack
(FC-GRU-GRU-FC-FC-FC with ReLU activations and a sigmoid output).  CRUSE is a
convolutional-recurrent U-Net: a strided causal conv encoder, a grouped
recurrent bottleneck fed with the encoder output flattened channel-major,
and a mirrored transposed-conv decoder with per-layer skip connections.

Model names follow ``NSnet2-<R>`` and ``CRUSE<L>-<CL>-<N>x<GRU|LSTM><P>``,
e.g. ``CRUSE4-128-1xGRU4``: 4 encoder/decoder layers with channels
16-32-64-128 and one layer of 4 parallel GRUs.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dsp import StftConfig
from .layers import (
    GRU_GATES,
    LSTM_GATES,
    _tconv_taps,
    activation_apply,
    conv2d_step,
    fc_forward,
    gru_step,
    lstm_step,
    skip_combine,
    tconv2d_step,
)
from .macs import macs_conv2d, macs_fc, macs_gru, macs_lstm, macs_skip_conv1x1, macs_tconv2d

DEFAULT_NUM_BINS = StftConfig.num_bins
FIRST_CHANNELS = 16
NSNET2_FC_WIDTH = 600

# CRUSE encoder-to-decoder skip connections (Section 2 of the paper).
SKIP_KINDS = ("none", "add", "add_conv1x1", "concat")

# Frames per block of whole-utterance inference.  It bounds the memory of the
# intermediates: over 1,000 frames of CRUSE4-128-1xGRU4, one block raised
# peak RSS by 222 MB and blocks of 64 frames by 8 MB.
BLOCK_FRAMES = 64

BUNDLE_MAGIC = b"CRUSEWB1"
BUNDLE_FORMAT = "cruse-weights/1"

# Weight-init LCG (64-bit): state <- (MULT * state + INC) mod 2**64.  Each
# draw maps the top 53 bits of the new state to uniform (-0.1, 0.1).
LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
INIT_WEIGHT_RANGE = 0.1

_CONVENTIONS = {
    "matrix_layout": "row-major (out, in)",
    "gru_gate_order": "r,z,n",
    "gru_variant": "reset applied after the recurrent matmul",
    "lstm_gate_order": "i,f,g,o",
    "leaky_relu_slope": 0.2,
    "freq_padding": "symmetric 1-sample zero pad before each strided encoder conv",
    "tconv_crop": "symmetric, extra sample removed at the high-frequency end",
    "bottleneck_flatten": "channel-major (all frequencies of channel 1 first)",
    "dtype": "float32 little-endian",
}


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; see the family helpers below.

    Every spec is checked when it is made (from a name, a helper,
    ``dataclasses.replace`` or a bundle manifest): an invalid one raises
    ``ValueError``.
    """

    family: str                      # "nsnet2" | "cruse"
    num_bins: int = DEFAULT_NUM_BINS
    rnn_width: int = 0               # nsnet2 GRU width R
    layers: int = 0                  # cruse encoder/decoder depth L
    channels: tuple[int, ...] = ()   # cruse C_1..C_L
    rnn_kind: str = "gru"
    rnn_layers: int = 1              # stacked RNN layers N
    parallel_groups: int = 1         # disconnected parallel RNNs P
    skip_kind: str = "add"           # one of SKIP_KINDS
    kernel: tuple[int, int] = (2, 3)

    def __post_init__(self):
        if self.family not in ("nsnet2", "cruse"):
            raise ValueError(f"unknown model family {self.family!r}")
        if self.num_bins < 1:
            raise ValueError(f"num_bins must be positive, got {self.num_bins}")
        # NSnet2 reads rnn_width and CRUSE all the other fields after num_bins;
        # the fields a family does not read keep their defaults
        for f in fields(self)[2:]:
            value = getattr(self, f.name)
            if (f.name == "rnn_width") == (self.family == "cruse") and value != f.default:
                raise ValueError(f"{f.name} must be {f.default!r} for {self.family}, got {value!r}")
        if self.family == "nsnet2":
            if self.rnn_width < 1:
                raise ValueError(f"NSnet2 RNN width must be positive, got {self.rnn_width}")
            return
        if self.layers < 1:
            raise ValueError(f"CRUSE needs at least one encoder layer, got {self.layers}")
        if len(self.channels) != self.layers or not all(c >= 1 for c in self.channels):
            raise ValueError(f"need {self.layers} positive channel counts, got {self.channels!r}")
        if self.rnn_kind not in ("gru", "lstm"):
            raise ValueError(f"unknown RNN kind {self.rnn_kind!r}")
        if self.skip_kind not in SKIP_KINDS:
            raise ValueError(f"unknown skip kind {self.skip_kind!r}")
        if tuple(self.kernel) not in ((2, 3), (1, 3)):
            raise ValueError(f"unsupported kernel {tuple(self.kernel)}; use (2, 3) or (1, 3)")
        if self.rnn_layers < 1:
            raise ValueError(f"CRUSE needs at least one RNN layer, got {self.rnn_layers}")
        bins = conv_freq_sizes(self.num_bins, self.layers)[-1]
        width = self.channels[-1] * bins
        if self.parallel_groups < 1 or width % self.parallel_groups:
            raise ValueError(
                f"bottleneck width {width} ({self.channels[-1]} channels x {bins} bins) "
                f"is not divisible by {self.parallel_groups} parallel groups"
            )


def nsnet2_spec(rnn_width: int, num_bins: int = DEFAULT_NUM_BINS) -> ModelSpec:
    return ModelSpec(family="nsnet2", num_bins=num_bins, rnn_width=rnn_width)


def cruse_spec(
    layers: int = 4,
    last_channels: int = 128,
    rnn_kind: str = "gru",
    rnn_layers: int = 1,
    parallel_groups: int = 1,
    skip_kind: str = "add",
    kernel: tuple[int, int] = (2, 3),
    num_bins: int = DEFAULT_NUM_BINS,
) -> ModelSpec:
    """CRUSE spec with channels starting at 16 and doubling, except C_L is free."""
    channels = tuple(FIRST_CHANNELS * 2**i for i in range(layers - 1)) + (last_channels,)
    return ModelSpec(
        family="cruse",
        num_bins=num_bins,
        layers=layers,
        channels=channels,
        rnn_kind=rnn_kind,
        rnn_layers=rnn_layers,
        parallel_groups=parallel_groups,
        skip_kind=skip_kind,
        kernel=kernel,
    )


_NSNET2_RE = re.compile(r"^NSnet2-(\d+)$")
_CRUSE_RE = re.compile(r"^CRUSE(\d+)-(\d+)-(\d+)x(GRU|LSTM)(\d+)$")


def parse_model_name(name: str) -> ModelSpec:
    """Parse a canonical model name into a :class:`ModelSpec`.

    Raises:
        ValueError: naming the offending token for malformed names.
    """
    if name.startswith("NSnet2"):
        m = _NSNET2_RE.match(name)
        if not m:
            raise ValueError(f"malformed NSnet2 name {name!r}: expected NSnet2-<width>")
        return nsnet2_spec(int(m.group(1)))
    if name.startswith("CRUSE"):
        m = _CRUSE_RE.match(name)
        if not m:
            raise ValueError(
                f"malformed CRUSE name {name!r}: expected CRUSE<L>-<CL>-<N>x<GRU|LSTM><P>"
            )
        return cruse_spec(
            layers=int(m.group(1)),
            last_channels=int(m.group(2)),
            rnn_layers=int(m.group(3)),
            rnn_kind=m.group(4).lower(),
            parallel_groups=int(m.group(5)),
        )
    raise ValueError(f"unknown model family in {name!r}: expected NSnet2-... or CRUSE...")


def format_model_name(spec: ModelSpec) -> str:
    """Canonical name; round-trips through :func:`parse_model_name`."""
    if spec.family == "nsnet2":
        return f"NSnet2-{spec.rnn_width}"
    kind = spec.rnn_kind.upper()
    return (
        f"CRUSE{spec.layers}-{spec.channels[-1]}-{spec.rnn_layers}x{kind}{spec.parallel_groups}"
    )


# ---------------------------------------------------------------------------
# Graph containers


class _Layer:
    """Base of the layer dataclasses: a layer's parameters are its array fields."""

    def param_arrays(self) -> list[tuple[str, np.ndarray]]:
        """``(field name, array)`` per array field, in declaration (bundle) order."""
        arrays = ((f.name, getattr(self, f.name)) for f in fields(self))
        return [(name, a) for name, a in arrays if isinstance(a, np.ndarray)]


@dataclass
class FcLayer(_Layer):
    name: str
    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def macs(self) -> int:
        out_dims, in_dims = self.weight.shape
        return macs_fc(in_dims, out_dims)

    def forward(self, x: np.ndarray, state=None) -> np.ndarray:
        """``(T, in)`` to ``(T, out)``, activation applied; stateless."""
        return activation_apply(self.activation, fc_forward(self.weight, self.bias, x))


@dataclass
class RnnLayer(_Layer):
    """Grouped recurrent block: P disconnected stacks of N cells each.

    Each parameter is one array over all cells, with cell n of group g at
    ``[g, n]``.  Every cell maps its group's width w to w.
    """

    name: str
    kind: str                    # "gru" | "lstm"
    w_input: np.ndarray          # (P, N, gates*w, w)
    w_hidden: np.ndarray         # (P, N, gates*w, w)
    b_input: np.ndarray          # (P, N, gates*w)
    b_hidden: np.ndarray         # (P, N, gates*w)

    def param_arrays(self):
        """The stored arrays split into the per-cell views ``g{g}n{n}.<field>``."""
        stored = super().param_arrays()
        p, cells = self.w_hidden.shape[:2]
        return [(f"g{g}n{n}.{f}", a[g, n])
                for g in range(p) for n in range(cells) for f, a in stored]

    def macs(self) -> int:
        p, cells, _, w = self.w_hidden.shape
        return p * cells * (macs_gru if self.kind == "gru" else macs_lstm)(w, w)

    def zero_state(self) -> np.ndarray:
        """Zeros ``(P, N, vectors, w)``: per group and cell, ``h`` (GRU) or ``h, c`` (LSTM)."""
        p, cells, _, w = self.w_hidden.shape
        return np.zeros((p, cells, 1 if self.kind == "gru" else 2, w))

    def forward(self, x: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Step the block over a block of frames ``(T, ...)``.

        Each frame, flattened row-major (a CRUSE bottleneck's ``(C, F)``
        channel-major), is viewed as P equal contiguous chunks of one
        ``(T, P, w)`` block; cell n of every group g steps chunk g before
        any cell n+1 runs, and the last cell's outputs take the input's
        shape.  This equals a stack of N cells whose gate matrices are
        block-diagonal with the P group matrices (``cruse selftest`` checks it).

        ``state`` is the ``zero_state()`` array, or one advanced from it:
        ``state[g, n]`` holds the vectors cell n of group g carries, ``h``
        for a GRU and ``h, c`` for an LSTM.  It is advanced in place.

        Raises:
            ValueError: unless ``x`` has a block axis and a frame size
                divisible by P.
        """
        p, cells = self.w_hidden.shape[:2]
        width = math.prod(x.shape[1:])
        if x.ndim < 2 or width % p:
            raise ValueError(
                f"expected (T, width) with width divisible by {p} groups, got {x.shape}"
            )
        step = gru_step if self.kind == "gru" else lstm_step
        y = x.reshape(len(x), p, width // p)
        for n in range(cells):  # cell n of every group is the n-th block-diagonal cell
            y = np.stack([step(self.w_input[g, n], self.w_hidden[g, n], self.b_input[g, n],
                               self.b_hidden[g, n], y[:, g], state[g, n])
                          for g in range(p)], axis=1)
        return y.reshape(x.shape)


@dataclass
class ConvLayer(_Layer):
    name: str
    weight: np.ndarray           # (c_out, c_in, kt, kf)
    bias: np.ndarray
    activation: str
    in_freq: int
    out_freq: int

    def macs(self) -> int:
        c_out, c_in, kt, kf = self.weight.shape
        return macs_conv2d((kt, kf), c_in, c_out, self.out_freq)

    def zero_state(self) -> np.ndarray:
        """Zeros for the ``kernel_t - 1`` input frames before the first."""
        _, c_in, kt, _ = self.weight.shape
        return np.zeros((kt - 1, c_in, self.in_freq))

    def forward(self, x: np.ndarray, state: np.ndarray) -> np.ndarray:
        """``(T, c_in, in_freq)`` to ``(T, c_out, out_freq)``, activation applied."""
        return activation_apply(self.activation, conv2d_step(self.weight, self.bias, x, state))


@dataclass
class TconvLayer(_Layer):
    name: str
    weight: np.ndarray           # (c_out, c_in, kt, kf), stored as its tap matrix (build_model)
    bias: np.ndarray
    activation: str
    in_freq: int
    f_target: int

    def macs(self) -> int:
        c_out, c_in, kt, kf = self.weight.shape
        return macs_tconv2d((kt, kf), c_in, c_out, self.in_freq, self.f_target)

    def zero_state(self) -> np.ndarray:
        """Zeros: no frame before the first leaves a pending contribution."""
        return np.zeros((len(self.bias), self.f_target))

    def forward(self, x: np.ndarray, state: np.ndarray) -> np.ndarray:
        """``(T, c_in, in_freq)`` to ``(T, c_out, f_target)``, activation applied."""
        y = tconv2d_step(self.weight, self.bias, x, state, self.f_target)
        return activation_apply(self.activation, y)


@dataclass
class SkipLayer(_Layer):
    name: str
    kind: str
    freq: int = 0                    # width of the skipped tensor
    scale: np.ndarray | None = None  # (channels,), add_conv1x1 only
    bias: np.ndarray | None = None

    def macs(self) -> int:
        return 0 if self.scale is None else macs_skip_conv1x1(self.scale.size, self.freq)

    def forward(self, enc: np.ndarray, dec: np.ndarray) -> np.ndarray:
        """The decoder input joined with the encoder output it skips to."""
        return skip_combine(self.kind, enc, dec, self.scale, self.bias)


@dataclass
class ModelGraph:
    """Ordered layers plus skip wiring for one architecture instance.

    Weights are treated as immutable during inference, so one graph can be
    shared across threads; all per-stream mutability lives in the dict of
    arrays that :meth:`zero_state` makes.
    """

    spec: ModelSpec
    stack: list = field(default_factory=list)     # nsnet2 sequential path
    encoder: list = field(default_factory=list)   # cruse
    bottleneck: RnnLayer | None = None
    decoder: list = field(default_factory=list)
    skips: list = field(default_factory=list)     # per encoder layer, innermost last

    def iter_layers(self):
        """All layers in canonical (execution and serialization) order."""
        if self.spec.family == "nsnet2":
            yield from self.stack
            return
        yield from self.encoder
        yield self.bottleneck
        yield from self.decoder
        yield from self.skips

    def param_count(self) -> int:
        # the stored arrays: a recurrent block's four, not its per-cell views
        return sum(a.size for layer in self.iter_layers() for _, a in _Layer.param_arrays(layer))

    def zero_state(self) -> dict[str, np.ndarray]:
        """A stream's carryover: by layer name, each stateful layer's
        ``zero_state()``, which inference advances in place.

        One per audio stream; never share one between concurrent streams.
        """
        stateful = (layer for layer in self.iter_layers() if hasattr(layer, "zero_state"))
        return {layer.name: layer.zero_state() for layer in stateful}


def conv_freq_sizes(num_bins: int, layers: int) -> list[int]:
    """Frequency widths along the encoder: 161 -> 81 -> 41 -> 21 -> 11 for L=4."""
    sizes = [num_bins]
    for _ in range(layers):
        sizes.append((sizes[-1] - 1) // 2 + 1)
    return sizes


def _zero_rnn(zeros, name: str, kind: str, groups: int, cells: int, width: int) -> RnnLayer:
    rows = (groups, cells, (GRU_GATES if kind == "gru" else LSTM_GATES) * width)
    return RnnLayer(name, kind, zeros(rows + (width,)), zeros(rows + (width,)),
                    zeros(rows), zeros(rows))


def build_model(spec: ModelSpec) -> ModelGraph:
    """Construct a zero-weighted graph with all shapes resolved."""
    return _build_graph(spec, np.zeros)


def _zero_view(shape) -> np.ndarray:
    """Read-only zeros of ``shape`` that allocate nothing: every stride is 0."""
    return np.broadcast_to(0.0, shape)


def _build_graph(spec: ModelSpec, zeros) -> ModelGraph:
    """The graph of ``spec`` with each array made by ``zeros(shape)``.

    With :func:`_zero_view` it is a graph of shapes alone, whose manifest and
    parameter count are those of ``build_model(spec)``.
    """
    k = spec.num_bins
    if spec.family == "nsnet2":
        r = spec.rnn_width
        stack = [
            FcLayer("fc_in", zeros((r, k)), zeros(r), "relu"),
            _zero_rnn(zeros, "gru1", "gru", 1, 1, r),
            _zero_rnn(zeros, "gru2", "gru", 1, 1, r),
            FcLayer("fc1", zeros((NSNET2_FC_WIDTH, r)), zeros(NSNET2_FC_WIDTH), "relu"),
            FcLayer(
                "fc2",
                zeros((NSNET2_FC_WIDTH, NSNET2_FC_WIDTH)),
                zeros(NSNET2_FC_WIDTH),
                "relu",
            ),
            FcLayer("fc_out", zeros((k, NSNET2_FC_WIDTH)), zeros(k), "sigmoid"),
        ]
        return ModelGraph(spec=spec, stack=stack)

    L = spec.layers
    kt, kf = spec.kernel
    freqs = conv_freq_sizes(k, L)
    chans = (1,) + spec.channels

    encoder = [
        ConvLayer(
            f"enc{l + 1}",
            zeros((chans[l + 1], chans[l], kt, kf)),
            zeros(chans[l + 1]),
            "leaky_relu",
            in_freq=freqs[l],
            out_freq=freqs[l + 1],
        )
        for l in range(L)
    ]

    p = spec.parallel_groups
    group_width = spec.channels[-1] * freqs[-1] // p
    bottleneck = _zero_rnn(zeros, "rnn", spec.rnn_kind, p, spec.rnn_layers, group_width)

    decoder, skips = [], []
    for j in range(L):  # decoder j+1 mirrors encoder L-j, whose output skips[j] joins to it
        c, c_out = spec.channels[L - 1 - j], chans[L - 1 - j]
        c_in = 2 * c if spec.skip_kind == "concat" else c
        # Stored as the tap matrix tconv2d_step multiplies with, which it then
        # takes as a view instead of copying the weight on every call.  The
        # storage is what _tconv_taps makes of a C-ordered weight: a C-ordered
        # copy when c_out > 1, but for the last layer (c_out = 1) the reshape
        # is already a view, so that weight stays C-contiguous and its tap
        # matrix is an F-ordered view.  BLAS rounds the two orders differently.
        # The shorter zeros((c_out, kt, kf, c_in)).transpose(0, 3, 1, 2) makes
        # every tap matrix C-ordered, which moves the output bits of the last
        # layer (13 of the 78 parts of tests/engine_digest.py, in 8 CRUSE models).
        taps = _tconv_taps(zeros((c_out, c_in, kt, kf)))
        decoder.append(
            TconvLayer(
                f"dec{j + 1}",
                taps.reshape(c_out, kt, kf, c_in).transpose(0, 3, 1, 2),
                zeros(c_out),
                "sigmoid" if j == L - 1 else "leaky_relu",
                in_freq=freqs[L - j],
                f_target=freqs[L - 1 - j],
            )
        )
        conv1x1 = (zeros(c), zeros(c)) if spec.skip_kind == "add_conv1x1" else ()
        skips.append(SkipLayer(f"skip{j + 1}", spec.skip_kind, freqs[L - j], *conv1x1))

    return ModelGraph(spec=spec, encoder=encoder, bottleneck=bottleneck, decoder=decoder, skips=skips)


# ---------------------------------------------------------------------------
# Filling and writing the parameters in place

# Parameters are made, loaded and written in blocks of at most this many
# values, so that no step holds more than a block-sized temporary beside the
# graph itself.
_FILL_BLOCK = 1 << 14


def _param_blocks(graph: ModelGraph, mode: str):
    """Every parameter of ``graph`` in canonical order, each array flattened
    row-major, as 1-D blocks of at most ``_FILL_BLOCK`` values.

    ``mode`` is ``"readonly"`` or ``"writeonly"``.  A block of a contiguous
    array is a view of it; a strided array (a tconv weight stored as its tap
    matrix) goes through a block-sized buffer, which in ``"writeonly"`` mode
    is copied back into the array after each block.
    """
    for layer in graph.iter_layers():
        for _, arr in layer.param_arrays():
            with np.nditer(arr, ["external_loop", "buffered"], [[mode]], order="C",
                           buffersize=_FILL_BLOCK) as blocks:
                yield from blocks


def _fill_params(graph: ModelGraph, source) -> ModelGraph:
    """Overwrite every parameter of ``graph`` in place, in canonical order.

    ``source(n)`` returns the next ``n <= _FILL_BLOCK`` values, float32.  The
    arrays stay the same objects, so a tconv weight keeps its tap-matrix
    storage.
    """
    for block in _param_blocks(graph, "writeonly"):
        block[...] = source(block.size)
    return graph


def _lcg_tables(block: int):
    a = np.uint64(LCG_MULT)
    powers = np.ones(block, dtype=np.uint64)
    powers[1:] = a
    powers = np.cumprod(powers, dtype=np.uint64)          # a^0 .. a^(B-1), mod 2^64
    partial = np.cumsum(powers, dtype=np.uint64)          # sum_{i<k} a^i for k=1..B
    return powers * a, partial * np.uint64(LCG_INC)


_LCG_A, _LCG_C = _lcg_tables(_FILL_BLOCK)


def _lcg_source(seed: int):
    """A ``_fill_params`` source drawing from the documented LCG; bit-identical
    to the scalar recurrence, with its work buffers made once."""
    state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    states = np.empty(_FILL_BLOCK, dtype=np.uint64)
    values = np.empty(_FILL_BLOCK)
    rounded = np.empty(_FILL_BLOCK, dtype=np.float32)

    def draw(n: int) -> np.ndarray:
        nonlocal state
        s, v = states[:n], values[:n]
        np.multiply(_LCG_A[:n], state, out=s)
        s += _LCG_C[:n]
        state = s[-1]
        s >>= np.uint64(11)
        # 0.2 * (top 53 bits / 2**53) as one multiply, bit for bit: the bits
        # fit an int64 and a float64 mantissa, and scaling by 2**-53 is exact
        np.multiply(s.view(np.int64), 2.0 * INIT_WEIGHT_RANGE / float(1 << 53), out=v)
        return np.add(v, -INIT_WEIGHT_RANGE, out=rounded[:n])

    return draw


def init_test_weights(graph: ModelGraph, seed: int) -> ModelGraph:
    """Fill all weights from the documented LCG, uniform in (-0.1, 0.1).

    Identical seeds produce bit-identical weights on any platform.  Arrays are
    filled in canonical layer order, each flattened row-major.  Values are
    quantized to float32 so that weight bundles round-trip bit-exactly.
    """
    return _fill_params(graph, _lcg_source(seed))


# ---------------------------------------------------------------------------
# Weight bundles: JSON manifest + float32 little-endian blob

def _manifest(graph: ModelGraph) -> dict:
    """The manifest of a graph, in JSON types (tuples written as lists)."""
    layers = []
    for layer in graph.iter_layers():
        arrays = [{"field": f, "shape": list(a.shape)} for f, a in layer.param_arrays()]
        layers.append({"name": layer.name, "kind": type(layer).__name__, "arrays": arrays})
    spec = asdict(graph.spec)
    return {
        "format": BUNDLE_FORMAT,
        "name": format_model_name(graph.spec),
        "spec": {k: list(v) if isinstance(v, tuple) else v for k, v in spec.items()},
        "conventions": _CONVENTIONS,
        "layers": layers,
        "total_params": graph.param_count(),
    }


def save_weights(graph: ModelGraph, path) -> None:
    """Write a weight bundle: magic, manifest length, JSON manifest, blob
    (written block by block)."""
    manifest = json.dumps(_manifest(graph), indent=1).encode()
    with open(path, "wb") as fh:
        fh.write(BUNDLE_MAGIC)
        fh.write(len(manifest).to_bytes(4, "little"))
        fh.write(manifest)
        for block in _param_blocks(graph, "readonly"):
            fh.write(block.astype("<f4"))


def _spec_from_manifest(manifest: dict) -> ModelSpec:
    spec = manifest["spec"]
    names = {f.name for f in fields(ModelSpec)}
    if not isinstance(spec, dict) or spec.keys() != names:
        raise ValueError(f"spec must be an object with exactly the keys {sorted(names)}")
    return ModelSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()})


def _blob_source(fh, path):
    """A ``_fill_params`` source reading float32 blocks from ``fh``."""
    buf = np.empty(_FILL_BLOCK, dtype="<f4")

    def read(n: int) -> np.ndarray:
        block = buf[:n]
        if fh.readinto(block) != block.nbytes:
            raise ValueError(f"{path}: weight blob ended early")
        if not np.isfinite(block).all():
            raise ValueError(f"{path}: weight blob has non-finite values")
        return block

    return read


def load_weights(path) -> ModelGraph:
    """Read a weight bundle back into an executable graph.

    The blob is read block by block into the graph the manifest describes.

    Raises:
        ValueError: on bad magic, a malformed manifest, a blob whose size
            does not match the parameter count its spec implies, a manifest
            that differs from the one its spec implies (both checked before
            any array is made, the blob size first), parameters that do not
            fit in memory, or a non-finite parameter.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(BUNDLE_MAGIC) + 4)
        if head[: len(BUNDLE_MAGIC)] != BUNDLE_MAGIC:
            raise ValueError(f"{path}: not a weight bundle (bad magic)")
        off = len(head)
        # at most the rest of the file, so that a corrupt length allocates nothing
        mlen = min(int.from_bytes(head[len(BUNDLE_MAGIC) :], "little"), size - off)
        try:
            manifest = json.loads(fh.read(mlen).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: corrupt manifest: {exc}") from exc
        off += mlen
        if not isinstance(manifest, dict):
            raise ValueError(f"{path}: manifest is a JSON {type(manifest).__name__}, not an object")

        # checked on a graph of shapes alone, the blob size before the
        # per-cell manifest: a bundle allocates nothing until both hold, and
        # rejecting one costs work bounded by its layer count
        try:
            spec = _spec_from_manifest(manifest)
            shapes = _build_graph(spec, _zero_view)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed manifest ({type(exc).__name__}: {exc})") from exc
        count = shapes.param_count()
        if size - off != count * 4:
            raise ValueError(
                f"{path}: weight blob is {size - off} bytes, expected {count * 4} "
                f"({count} float32 parameters)"
            )
        implied = _manifest(shapes)
        for key in sorted(implied.keys() | manifest.keys()):
            if manifest.get(key) != implied.get(key):
                raise ValueError(f"{path}: malformed manifest ({key!r} is not what its spec implies)")
        try:
            graph = build_model(spec)
        except MemoryError as exc:
            raise ValueError(f"{path}: {count} parameters do not fit in memory") from exc
        return _fill_params(graph, _blob_source(fh, path))


# ---------------------------------------------------------------------------
# Streaming inference


def infer_frame(graph: ModelGraph, state: dict[str, np.ndarray], features: np.ndarray) -> np.ndarray:
    """One forward pass over a feature frame ``(bins,)`` or a block of
    consecutive frames ``(T, bins)``: the one model body.

    Advances the arrays of ``state``, a :meth:`ModelGraph.zero_state` dict,
    in place and returns per-bin suppression gains of the shape of
    ``features``, each strictly inside (0, 1).  Within a block every layer
    but the recurrent matmul is one matmul over all frames.
    """
    k = graph.spec.num_bins
    features = np.asarray(features, dtype=np.float64)
    if features.ndim not in (1, 2) or features.shape[-1] != k:
        raise ValueError(
            f"expected features of shape ({k},) or (frames, {k}), got {features.shape}"
        )
    x = features.reshape(-1, k)
    if graph.spec.family == "nsnet2":
        for layer in graph.stack:
            x = layer.forward(x, state.get(layer.name))
        return x.reshape(features.shape)

    x = x[:, None, :]  # 1 input channel
    enc_outs = []
    for layer in graph.encoder:
        x = layer.forward(x, state[layer.name])
        enc_outs.append(x)
    x = graph.bottleneck.forward(x, state[graph.bottleneck.name])
    for layer, skip in zip(graph.decoder, graph.skips):
        x = layer.forward(skip.forward(enc_outs.pop(), x), state[layer.name])
    return x[:, 0].reshape(features.shape)


def infer_utterance(graph: ModelGraph, features: np.ndarray) -> np.ndarray:
    """Run a whole utterance ``(frames, bins)`` from a fresh zero state; rows
    are gain frames.

    The frames run through :func:`infer_frame` in consecutive blocks of
    ``BLOCK_FRAMES``, so that memory does not grow with the utterance.
    Matmuls over a block round differently from matmuls over one frame, so
    the gains equal repeated single-frame :func:`infer_frame` calls to within
    1e-12, not bit for bit.  Each row still depends only on the frames up to
    it, exactly.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"expected (frames, bins) features, got shape {features.shape}")
    state = graph.zero_state()
    gains = np.empty_like(features)
    for start in range(0, len(features), BLOCK_FRAMES):
        block = slice(start, start + BLOCK_FRAMES)
        gains[block] = infer_frame(graph, state, features[block])
    return gains
