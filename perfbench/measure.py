"""Measurement pieces of the benchmark: percentiles, outside-in spans, MAC join.

Nothing here changes how ``cruse`` computes.  The tracer replaces public
functions of ``cruse`` modules with timing wrappers for the duration of a
traced phase and restores them afterwards.
"""

from __future__ import annotations

import csv
import functools
import sys
from collections import defaultdict
from time import perf_counter

# A percentile is reported as supported only when at least this many samples
# lie beyond it, so p99 needs 1000 samples.
MIN_TAIL_SAMPLES = 10

# Public functions wrapped in a traced run, as (module, attribute path).  A
# path with a dot names a method on a class of that module.
TRACED = (
    ("layers", "fc_forward"),
    ("layers", "gru_step"),
    ("layers", "lstm_step"),
    ("layers", "conv2d_step"),
    ("layers", "tconv2d_step"),
    ("layers", "activation_apply"),
    ("layers", "skip_combine"),
    ("models", "infer_frame"),
    ("models", "infer_utterance"),
    ("streaming", "StreamingEnhancer.process_hop"),
    ("dsp", "stft"),
    ("dsp", "log_power_features"),
    ("dsp", "apply_gain"),
    ("dsp", "istft"),
    ("datagen", "sample_recipe"),
    ("datagen", "generate_pair"),
    ("metrics", "si_sdr"),
    ("metrics", "cepstral_distance"),
    ("metrics", "training_loss"),
)

# macs_model row kinds and the primitive that executes each row's weights.
# RnnLayer rows go to gru_step or lstm_step by the layer's kind.
PRIMITIVE_OF_ROW = {
    "FcLayer": "layers.fc_forward",
    "ConvLayer": "layers.conv2d_step",
    "TconvLayer": "layers.tconv2d_step",
    "SkipLayer": "layers.skip_combine",
}
MAC_PRIMITIVES = (
    "layers.fc_forward",
    "layers.gru_step",
    "layers.lstm_step",
    "layers.conv2d_step",
    "layers.tconv2d_step",
)


def span_name(module: str, path: str) -> str:
    """``streaming.StreamingEnhancer.process_hop`` is reported as ``streaming.process_hop``."""
    return f"{module}.{path.rsplit('.', 1)[-1]}"


TRACED_NAMES = tuple(span_name(m, p) for m, p in TRACED)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    units = {}
    for name in TRACED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.share"] = "ratio"
        if name in MAC_PRIMITIVES:
            units[f"{name}.gmacs"] = "GMAC/s"
            units[f"{name}.gbs"] = "GB/s"
    units["macs.per_frame"] = "count"
    units["trace.op_ms"] = "ms"
    units["trace.overhead_frac"] = "ratio"
    units["trace.unattributed_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Percentile support


def tail_supported(n: int, q: float) -> bool:
    """True when at least MIN_TAIL_SAMPLES of n samples lie beyond percentile q."""
    return n * (100.0 - q) >= MIN_TAIL_SAMPLES * 100.0


# ---------------------------------------------------------------------------
# Spans


class Tracer:
    """Records one span per call of each traced public function.

    A span is ``(span_id, name, start, end, parent_id, op_id)``; ``parent_id``
    is -1 for a span with no traced caller.  The caller sets ``op`` before
    each operation (a hop or a file) so that the spans of one op share it.
    Single-threaded: spans nest strictly.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.op))

        return traced

    def install(self, targets=TRACED) -> None:
        """Wrap each target at every ``cruse.*`` module attribute bound to it.

        A target missing from its module is skipped; it then reports 0 calls.
        """
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "cruse" or key.startswith("cruse."))
        ]
        for module_name, path in targets:
            owner = sys.modules.get(f"cruse.{module_name}")
            *class_path, attr = path.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(span_name(module_name, path), original)
            if class_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start", "end", "parent", "op"))
            out.writerows(self.spans)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct child spans."""
    child = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return {sid: (end - start) - child[sid] for sid, _, start, end, _, _ in spans}


def aggregate(spans) -> dict[str, tuple[int, float]]:
    """Per span name: ``(calls, total self seconds)``."""
    selfs = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sid, name, *_ in spans:
        entry = out[name]
        entry[0] += 1
        entry[1] += selfs[sid]
    return {name: (calls, total) for name, (calls, total) in out.items()}


def layer_metrics(spans, ops: int, op_seconds: float, frames: int,
                  join: "MacJoin") -> dict[str, float]:
    """Per-op stats of every traced name (0 for names never called).

    Args:
        spans: the traced phase's spans.
        ops: operations traced (hops or files).
        op_seconds: their summed wall time, measured around each op.
        frames: model frames computed in those ops.
        join: MAC and weight-byte counts per frame of each primitive.
    """
    totals = aggregate(spans)
    out = {}
    for name in TRACED_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.self_ms"] = self_s / ops * 1e3
        out[f"{name}.share"] = self_s / op_seconds
        if name in MAC_PRIMITIVES:
            busy = self_s if self_s > 0 else float("inf")
            out[f"{name}.gmacs"] = join.macs.get(name, 0) * frames / busy / 1e9
            out[f"{name}.gbs"] = join.weight_bytes.get(name, 0) * frames / busy / 1e9
    attributed = sum(total for _, total in totals.values())
    out["trace.op_ms"] = op_seconds / ops * 1e3
    out["trace.unattributed_frac"] = 1.0 - attributed / op_seconds
    return out


# ---------------------------------------------------------------------------
# MAC and weight-byte join


class MacJoin:
    """MACs and weight bytes per frame, summed per executing primitive.

    Raises:
        ValueError: for a row kind with no primitive, or when the joined MACs
            do not sum exactly to the report's per-frame total.
    """

    def __init__(self, graph, report):
        layers = {layer.name: layer for layer in graph.iter_layers()}
        self.macs: dict[str, int] = defaultdict(int)
        self.weight_bytes: dict[str, int] = defaultdict(int)
        for row in report.layers:
            layer = layers[row.name]
            if row.kind == "RnnLayer":
                primitive = f"layers.{layer.kind}_step"
            elif row.kind in PRIMITIVE_OF_ROW:
                primitive = PRIMITIVE_OF_ROW[row.kind]
            else:
                raise ValueError(f"no primitive for macs_model row kind {row.kind!r}")
            self.macs[primitive] += row.macs
            self.weight_bytes[primitive] += sum(arr.nbytes for _, arr in layer.param_arrays())
        self.per_frame = report.per_frame
        if sum(self.macs.values()) != self.per_frame:
            raise ValueError(
                f"joined MACs {sum(self.macs.values())} != macs_model per_frame {self.per_frame}"
            )
