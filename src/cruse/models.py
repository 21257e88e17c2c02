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
import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np

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
    zero_rnn_weights,
)
from .macs import macs_conv2d, macs_fc, macs_gru, macs_lstm, macs_skip_conv1x1, macs_tconv2d

DEFAULT_NUM_BINS = 161
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


@dataclass
class FcLayer:
    name: str
    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def param_arrays(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def macs(self) -> int:
        out_dims, in_dims = self.weight.shape
        return macs_fc(in_dims, out_dims)


@dataclass
class RnnLayer:
    """Grouped recurrent block: P disconnected stacks of N cells each."""

    name: str
    kind: str                    # "gru" | "lstm"
    groups: list                 # P entries, each a list of N RnnWeights

    def param_arrays(self):
        out = []
        for g, stack in enumerate(self.groups):
            for n, cell in enumerate(stack):
                tag = f"g{g}n{n}"
                out += [
                    (f"{tag}.w_input", cell.w_input),
                    (f"{tag}.w_hidden", cell.w_hidden),
                    (f"{tag}.b_input", cell.b_input),
                    (f"{tag}.b_hidden", cell.b_hidden),
                ]
        return out

    @property
    def width(self) -> int:
        return sum(stack[0].width for stack in self.groups)

    def macs(self) -> int:
        fn = macs_gru if self.kind == "gru" else macs_lstm
        return sum(fn(cell.in_dims, cell.width) for stack in self.groups for cell in stack)

    def zero_state(self) -> list:
        """Per group and cell, the vectors it carries: ``[h]`` (GRU) or ``[h, c]`` (LSTM)."""
        n = 1 if self.kind == "gru" else 2
        return [[[np.zeros(c.width) for _ in range(n)] for c in stack] for stack in self.groups]


@dataclass
class ConvLayer:
    name: str
    weight: np.ndarray           # (c_out, c_in, kt, kf)
    bias: np.ndarray
    activation: str
    in_freq: int
    out_freq: int

    def param_arrays(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def macs(self) -> int:
        c_out, c_in, kt, kf = self.weight.shape
        return macs_conv2d((kt, kf), c_in, c_out, self.out_freq)

    def zero_state(self) -> np.ndarray:
        """Zeros for the ``kernel_t - 1`` input frames before the first."""
        _, c_in, kt, _ = self.weight.shape
        return np.zeros((kt - 1, c_in, self.in_freq))


@dataclass
class TconvLayer:
    name: str
    weight: np.ndarray           # (c_out, c_in, kt, kf), stored as its tap matrix (build_model)
    bias: np.ndarray
    activation: str
    in_freq: int
    f_target: int

    def param_arrays(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def macs(self) -> int:
        c_out, c_in, kt, kf = self.weight.shape
        return macs_tconv2d((kt, kf), c_in, c_out, self.in_freq, self.f_target)

    def zero_state(self) -> np.ndarray:
        """Zeros: no frame before the first leaves a pending contribution."""
        return np.zeros((len(self.bias), self.f_target))


@dataclass
class SkipLayer:
    name: str
    kind: str
    freq: int = 0                    # width of the skipped tensor
    scale: np.ndarray | None = None  # (channels,), add_conv1x1 only
    bias: np.ndarray | None = None

    def param_arrays(self):
        if self.kind != "add_conv1x1":
            return []
        return [("scale", self.scale), ("bias", self.bias)]

    def macs(self) -> int:
        return macs_skip_conv1x1(self.scale.size, self.freq) if self.kind == "add_conv1x1" else 0


@dataclass
class ModelGraph:
    """Ordered layers plus skip wiring for one architecture instance.

    Weights are treated as immutable during inference, so one graph can be
    shared across threads; all per-stream mutability lives in StreamState.
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
        return sum(arr.size for layer in self.iter_layers() for _, arr in layer.param_arrays())


def conv_freq_sizes(num_bins: int, layers: int) -> list[int]:
    """Frequency widths along the encoder: 161 -> 81 -> 41 -> 21 -> 11 for L=4."""
    sizes = [num_bins]
    for _ in range(layers):
        sizes.append((sizes[-1] - 1) // 2 + 1)
    return sizes


def build_model(spec: ModelSpec) -> ModelGraph:
    """Construct a zero-weighted graph with all shapes resolved."""
    k = spec.num_bins
    if spec.family == "nsnet2":
        r = spec.rnn_width
        stack = [
            FcLayer("fc_in", np.zeros((r, k)), np.zeros(r), "relu"),
            RnnLayer("gru1", "gru", [[zero_rnn_weights(GRU_GATES, r, r)]]),
            RnnLayer("gru2", "gru", [[zero_rnn_weights(GRU_GATES, r, r)]]),
            FcLayer("fc1", np.zeros((NSNET2_FC_WIDTH, r)), np.zeros(NSNET2_FC_WIDTH), "relu"),
            FcLayer(
                "fc2",
                np.zeros((NSNET2_FC_WIDTH, NSNET2_FC_WIDTH)),
                np.zeros(NSNET2_FC_WIDTH),
                "relu",
            ),
            FcLayer("fc_out", np.zeros((k, NSNET2_FC_WIDTH)), np.zeros(k), "sigmoid"),
        ]
        return ModelGraph(spec=spec, stack=stack)

    L = spec.layers
    kt, kf = spec.kernel
    freqs = conv_freq_sizes(k, L)
    chans = (1,) + spec.channels

    encoder = [
        ConvLayer(
            f"enc{l + 1}",
            np.zeros((chans[l + 1], chans[l], kt, kf)),
            np.zeros(chans[l + 1]),
            "leaky_relu",
            in_freq=freqs[l],
            out_freq=freqs[l + 1],
        )
        for l in range(L)
    ]

    p = spec.parallel_groups
    group_width = spec.channels[-1] * freqs[-1] // p
    gates = GRU_GATES if spec.rnn_kind == "gru" else LSTM_GATES
    groups = [
        [zero_rnn_weights(gates, group_width, group_width) for _ in range(spec.rnn_layers)]
        for _ in range(p)
    ]
    bottleneck = RnnLayer("rnn", spec.rnn_kind, groups)

    concat = spec.skip_kind == "concat"
    decoder = []
    for j in range(L):
        c_in = spec.channels[L - 1 - j] * (2 if concat else 1)
        c_out = chans[L - 1 - j]
        # Stored as the tap matrix tconv2d_step multiplies with, which it then
        # takes as a view instead of copying the weight on every call.
        taps = _tconv_taps(np.zeros((c_out, c_in, kt, kf)))
        decoder.append(
            TconvLayer(
                f"dec{j + 1}",
                taps.reshape(c_out, kt, kf, c_in).transpose(0, 3, 1, 2),
                np.zeros(c_out),
                "sigmoid" if j == L - 1 else "leaky_relu",
                in_freq=freqs[L - j],
                f_target=freqs[L - 1 - j],
            )
        )

    skips = []
    for j in range(L):  # skips[j] joins encoder L-j with decoder j+1
        c = spec.channels[L - 1 - j]
        freq = freqs[L - j]
        if spec.skip_kind == "add_conv1x1":
            skips.append(SkipLayer(f"skip{j + 1}", spec.skip_kind, freq, np.zeros(c), np.zeros(c)))
        else:
            skips.append(SkipLayer(f"skip{j + 1}", spec.skip_kind, freq))

    return ModelGraph(spec=spec, encoder=encoder, bottleneck=bottleneck, decoder=decoder, skips=skips)


# ---------------------------------------------------------------------------
# Deterministic test weights

_LCG_BLOCK = 1 << 14


def _lcg_tables(block: int):
    a = np.uint64(LCG_MULT)
    powers = np.ones(block, dtype=np.uint64)
    powers[1:] = a
    powers = np.cumprod(powers, dtype=np.uint64)          # a^0 .. a^(B-1), mod 2^64
    partial = np.cumsum(powers, dtype=np.uint64)          # sum_{i<k} a^i for k=1..B
    return powers * a, partial * np.uint64(LCG_INC)


_LCG_A, _LCG_C = _lcg_tables(_LCG_BLOCK)


class _LcgStream:
    """Vectorized 64-bit LCG, bit-identical to the scalar recurrence."""

    def __init__(self, seed: int):
        self.state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def uniform(self, n: int) -> np.ndarray:
        out = np.empty(n)
        i = 0
        while i < n:
            k = min(_LCG_BLOCK, n - i)
            states = _LCG_A[:k] * self.state + _LCG_C[:k]
            mant = (states >> np.uint64(11)).astype(np.float64) / float(1 << 53)
            out[i : i + k] = -INIT_WEIGHT_RANGE + 2.0 * INIT_WEIGHT_RANGE * mant
            self.state = states[k - 1]
            i += k
        return out


def init_test_weights(graph: ModelGraph, seed: int) -> ModelGraph:
    """Fill all weights from the documented LCG, uniform in (-0.1, 0.1).

    Identical seeds produce bit-identical weights on any platform.  Arrays are
    filled in canonical layer order, each flattened row-major.  Values are
    quantized to float32 so that weight bundles round-trip bit-exactly.
    """
    stream = _LcgStream(seed)
    for layer in graph.iter_layers():
        for _, arr in layer.param_arrays():
            values = stream.uniform(arr.size).astype(np.float32).astype(np.float64)
            arr[...] = values.reshape(arr.shape)
    return graph


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
    """Write a weight bundle: magic, manifest length, JSON manifest, blob."""
    manifest = json.dumps(_manifest(graph), indent=1).encode()
    blob = b"".join(
        np.ascontiguousarray(arr, dtype="<f4").tobytes()
        for layer in graph.iter_layers()
        for _, arr in layer.param_arrays()
    )
    with open(path, "wb") as fh:
        fh.write(BUNDLE_MAGIC)
        fh.write(len(manifest).to_bytes(4, "little"))
        fh.write(manifest)
        fh.write(blob)


def _spec_from_manifest(manifest: dict) -> ModelSpec:
    spec = manifest["spec"]
    names = {f.name for f in fields(ModelSpec)}
    if not isinstance(spec, dict) or spec.keys() != names:
        raise ValueError(f"spec must be an object with exactly the keys {sorted(names)}")
    return ModelSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()})


def load_weights(path) -> ModelGraph:
    """Read a weight bundle back into an executable graph.

    Raises:
        ValueError: on bad magic, a malformed manifest or one that differs
            from the manifest its spec implies, a blob whose size does not
            match the declared parameter count, or a non-finite parameter.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(BUNDLE_MAGIC)] != BUNDLE_MAGIC:
        raise ValueError(f"{path}: not a weight bundle (bad magic)")
    off = len(BUNDLE_MAGIC)
    mlen = int.from_bytes(raw[off : off + 4], "little")
    off += 4
    try:
        manifest = json.loads(raw[off : off + mlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt manifest: {exc}") from exc
    off += mlen
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is a JSON {type(manifest).__name__}, not an object")

    try:
        graph = build_model(_spec_from_manifest(manifest))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed manifest ({type(exc).__name__}: {exc})") from exc
    implied = _manifest(graph)
    for key in sorted(implied.keys() | manifest.keys()):
        if manifest.get(key) != implied.get(key):
            raise ValueError(f"{path}: malformed manifest ({key!r} is not what its spec implies)")

    blob = raw[off:]
    expected = graph.param_count() * 4
    if len(blob) != expected:
        raise ValueError(
            f"{path}: weight blob is {len(blob)} bytes, expected {expected} "
            f"({graph.param_count()} float32 parameters)"
        )
    params = np.frombuffer(blob, dtype="<f4")
    if not np.isfinite(params).all():
        raise ValueError(f"{path}: weight blob has non-finite values")
    pos = 0
    for layer in graph.iter_layers():
        for _, arr in layer.param_arrays():
            arr[...] = params[pos : pos + arr.size].reshape(arr.shape)
            pos += arr.size
    return graph


# ---------------------------------------------------------------------------
# Streaming inference


class StreamState:
    """Per-stream carryover of each stateful layer, from its ``zero_state()``.

    One instance per audio stream; never share between concurrent streams.
    """

    def __init__(self, graph: ModelGraph):
        stateful = (layer for layer in graph.iter_layers() if hasattr(layer, "zero_state"))
        self.layer_states = {layer.name: layer.zero_state() for layer in stateful}


def rnn_block_step(layer: RnnLayer, x: np.ndarray, states) -> np.ndarray:
    """Step a grouped recurrent block over one frame or a block of frames.

    ``x`` is ``(width,)`` or ``(T, width)``.  Its last axis is split into P
    equal contiguous chunks, and group g runs its own stack of N cells over
    chunk g; the group outputs are concatenated in order.  This equals a
    stack of N cells whose gate matrices are block-diagonal with the P group
    matrices (``cruse selftest`` checks it).

    ``states[g][n]`` is the list of vectors cell n of group g carries,
    ``[h]`` for a GRU and ``[h, c]`` for an LSTM; it is advanced in place.

    Raises:
        ValueError: when the input width is not divisible by P.
    """
    p = len(layer.groups)
    if x.shape[-1] % p:
        raise ValueError(f"bottleneck width {x.shape[-1]} not divisible by {p} groups")
    chunk = x.shape[-1] // p
    step = gru_step if layer.kind == "gru" else lstm_step
    outs = []
    for g, (stack, carried) in enumerate(zip(layer.groups, states)):
        y = x[..., g * chunk : (g + 1) * chunk]
        for cell, vectors in zip(stack, carried):
            y, *vectors[:] = step(cell, y, *vectors)
        outs.append(y)
    return np.concatenate(outs, axis=-1)


def infer_frame(graph: ModelGraph, state: StreamState, features: np.ndarray) -> np.ndarray:
    """One forward pass over a feature frame ``(bins,)`` or a block of
    consecutive frames ``(T, bins)``: the one model body.

    Advances ``state`` in place and returns per-bin suppression gains of the
    shape of ``features``, each strictly inside (0, 1).  Within a block every
    layer but the recurrent matmul is one matmul over all frames.
    """
    k = graph.spec.num_bins
    features = np.asarray(features, dtype=np.float64)
    if features.ndim not in (1, 2) or features.shape[-1] != k:
        raise ValueError(
            f"expected features of shape ({k},) or (frames, {k}), got {features.shape}"
        )
    ls = state.layer_states
    x = features.reshape(-1, k)
    if graph.spec.family == "nsnet2":
        for layer in graph.stack:
            if isinstance(layer, FcLayer):
                x = activation_apply(layer.activation, fc_forward(layer.weight, layer.bias, x))
            else:
                x = rnn_block_step(layer, x, ls[layer.name])
        return x.reshape(features.shape)

    x = x[:, None, :]  # 1 input channel
    enc_outs = []
    for layer in graph.encoder:
        y, ls[layer.name] = conv2d_step(layer.weight, layer.bias, x, ls[layer.name])
        x = activation_apply(layer.activation, y)
        enc_outs.append(x)

    flat = x.reshape(len(x), -1)  # channel-major per frame
    flat = rnn_block_step(graph.bottleneck, flat, ls[graph.bottleneck.name])
    x = flat.reshape(x.shape)

    for j, layer in enumerate(graph.decoder):
        skip = graph.skips[j]
        x = skip_combine(skip.kind, enc_outs.pop(), x, skip.scale, skip.bias)
        y, ls[layer.name] = tconv2d_step(layer.weight, layer.bias, x, ls[layer.name], layer.f_target)
        x = activation_apply(layer.activation, y)
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
    state = StreamState(graph)
    gains = np.empty_like(features)
    for start in range(0, len(features), BLOCK_FRAMES):
        block = slice(start, start + BLOCK_FRAMES)
        gains[block] = infer_frame(graph, state, features[block])
    return gains
