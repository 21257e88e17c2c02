"""Frame-by-frame enhancement: analysis, gain inference, synthesis.

The engine consumes one hop of input at a time and emits one hop of enhanced
output, matching the batch path stft -> infer_utterance -> apply_gain ->
istft sample for sample to within 1e-10.  Total algorithmic delay is one
window (20 ms).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dsp import (
    StftConfig,
    log_power_features,
    make_window,
    normalize_overlap_add,
    require_frames,
)
from .models import ModelGraph, StreamState, infer_frame


@dataclass
class EnhanceStats:
    frames: int
    mean_frame_ms: float
    max_frame_ms: float
    hop_ms: float
    nonfinite_hops: int   # hops whose NaN or infinite samples were zeroed

    @property
    def realtime_factor(self) -> float:
        """Mean processing time per hop over the hop duration (< 1 is faster)."""
        return self.mean_frame_ms / self.hop_ms


class StreamingEnhancer:
    """Stateful single-stream processor; create one instance per stream."""

    def __init__(self, graph: ModelGraph, config: StftConfig = StftConfig()):
        if graph.spec.num_bins != config.num_bins:
            raise ValueError(
                f"model expects {graph.spec.num_bins} bins but the transform "
                f"produces {config.num_bins}"
            )
        self.graph = graph
        self.config = config
        self.window = make_window(config.window_len)
        self._wsq = self.window * self.window
        self.state = StreamState(graph)
        self._input = np.zeros(config.window_len)   # head pad: starts as zeros
        self._tail = np.zeros(config.hop_len)       # second half of the last frame
        self._tail_env = np.zeros(config.hop_len)   # and its squared-window envelope
        self._frames = 0
        self._nonfinite_hops = 0
        self._busy_s = 0.0   # summed and worst process_hop wall time
        self._worst_s = 0.0

    def process_hop(self, hop_samples: np.ndarray) -> np.ndarray:
        """Consume exactly one hop of input, emit one hop of enhanced output.

        The first emitted hop reconstructs the causal head padding, not the
        input; callers streaming a whole file drop it (see
        :func:`enhance_signal`).  NaN or infinite input samples are replaced
        by 0.0 before they reach any state, so one bad hop cannot poison
        the stream; such hops are counted in ``stats().nonfinite_hops``.
        """
        cfg = self.config
        hop = cfg.hop_len
        hop_samples = np.asarray(hop_samples, dtype=np.float64)
        if len(hop_samples) != hop:
            raise ValueError(f"expected {hop} samples, got {len(hop_samples)}")
        started = time.perf_counter()

        finite = np.isfinite(hop_samples)
        if not finite.all():
            hop_samples = np.where(finite, hop_samples, 0.0)
            self._nonfinite_hops += 1
        self._input[:-hop] = self._input[hop:]
        self._input[-hop:] = hop_samples

        spec = np.fft.rfft(self._input * self.window, n=cfg.fft_len)
        gains = infer_frame(self.graph, self.state, log_power_features(spec))
        frame = np.fft.irfft(spec * gains, n=cfg.fft_len)[: cfg.window_len] * self.window

        out = normalize_overlap_add(self._tail + frame[:hop], self._tail_env + self._wsq[:hop])
        self._tail, self._tail_env = frame[hop:], self._wsq[hop:]

        self._frames += 1
        elapsed = time.perf_counter() - started
        self._busy_s += elapsed
        self._worst_s = max(self._worst_s, elapsed)
        return out

    def flush(self) -> np.ndarray:
        """Emit the final partially overlapped hop after the last input hop."""
        return normalize_overlap_add(self._tail, self._tail_env)

    def stats(self) -> EnhanceStats:
        mean_s = self._busy_s / self._frames if self._frames else 0.0
        return EnhanceStats(
            frames=self._frames,
            mean_frame_ms=mean_s * 1e3,
            max_frame_ms=self._worst_s * 1e3,
            hop_ms=self.config.hop_ms,
            nonfinite_hops=self._nonfinite_hops,
        )


def enhance_signal(graph: ModelGraph, samples: np.ndarray,
                   config: StftConfig = StftConfig()):
    """Stream a whole signal through an enhancer.

    Returns:
        ``(enhanced, stats)`` where enhanced has exactly the input length;
        any tail shorter than a hop is emitted as silence.

    Raises:
        ValueError: when the signal is shorter than one hop, so that no
            audio would be processed.
    """
    samples = np.asarray(samples, dtype=np.float64)
    require_frames(len(samples), config)
    hop = config.hop_len
    engine = StreamingEnhancer(graph, config)
    n_hops = len(samples) // hop
    out = np.zeros(len(samples))
    for i in range(n_hops):
        chunk = engine.process_hop(samples[i * hop : (i + 1) * hop])
        if i >= 1:  # the first emission is the synthetic head padding
            out[(i - 1) * hop : i * hop] = chunk
    out[(n_hops - 1) * hop : n_hops * hop] = engine.flush()
    return out, engine.stats()
