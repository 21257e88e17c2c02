"""Streaming enhancement: analysis, gain inference, synthesis.

The engine consumes any whole number k >= 1 of hops per call and emits as
many hops of enhanced output, matching the batch path stft ->
infer_utterance -> apply_gain -> istft sample for sample to within 1e-10.
The k frames of a call run as one block through the shared framing and
overlap-add of :mod:`cruse.dsp` and one :func:`infer_frame`, so k trades
k hops of buffering latency for throughput.  Total algorithmic delay is one
window (20 ms) plus that buffering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dsp import (
    StftConfig,
    _frame_spectra,
    _last_hop,
    _overlap_add,
    log_power_features,
    require_frames,
)
from .models import BLOCK_FRAMES, ModelGraph, infer_frame

# The largest input magnitude kept: the largest finite float32, so every finite
# WAV sample is kept and no kept sample's power overflows.
_MAX_SAMPLE = np.finfo(np.float32).max


@dataclass
class EnhanceStats:
    frames: int
    mean_frame_ms: float
    max_frame_ms: float
    hop_ms: float
    nonfinite_hops: int   # hops with NaN or beyond-float32 samples, which were zeroed
    state_resets: int     # calls whose gains were non-finite: state zeroed, unit gain

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
        self.state = graph.zero_state()
        self._head = np.zeros(config.hop_len)       # input before the next frame: starts as zeros
        self._tail = np.zeros(config.hop_len)       # second half of the last frame: silence
        self._frames = 0
        self._nonfinite_hops = 0
        self._state_resets = 0
        self._busy_s = 0.0   # summed process_hop wall time, and the worst per hop of a call
        self._worst_s = 0.0

    def process_hop(self, samples: np.ndarray) -> np.ndarray:
        """Consume k >= 1 whole hops of input, emit k hops of enhanced output.

        The k frames run as one block, which is faster per hop than k calls
        and equals them to within 1e-10; the caller pays k hops of buffering
        latency.  The first emitted hop covers the causal head padding, as
        if the stream followed silence, not the input; callers streaming a
        whole file drop it (see :func:`enhance_signal`).  Samples that are
        NaN or larger in magnitude than the largest float32, whose power
        would overflow, are replaced by 0.0 before they reach any state, so
        one bad hop cannot poison the stream; such hops are counted in
        ``stats().nonfinite_hops``.  Should the gains of a call still come out
        non-finite, every state array is zeroed, the call's audio passes with
        unit gain and the call is counted in ``stats().state_resets``.

        Raises:
            ValueError: unless ``samples`` is 1-D with a whole number k >= 1
                of hops.
        """
        cfg = self.config
        hop = cfg.hop_len
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1 or not samples.size or samples.size % hop:
            raise ValueError(
                f"expected a whole number of {hop}-sample hops, got shape {samples.shape}"
            )
        started = time.perf_counter()

        # NaN compares false, so this one test also catches it
        usable = np.abs(samples) <= _MAX_SAMPLE
        if not usable.all():
            self._nonfinite_hops += int((~usable).reshape(-1, hop).any(axis=1).sum())
            samples = np.where(usable, samples, 0.0)

        spec = _frame_spectra(self._head, samples, cfg)
        gains = infer_frame(self.graph, self.state, log_power_features(spec))
        if not np.isfinite(gains).all():
            for array in self.state.values():
                array[...] = 0.0
            gains = 1.0
            self._state_resets += 1
        out, self._tail = _overlap_add(spec * gains, self._tail, cfg)
        self._head = samples[-hop:].copy()

        k = samples.size // hop
        self._frames += k
        elapsed = time.perf_counter() - started
        self._busy_s += elapsed
        self._worst_s = max(self._worst_s, elapsed / k)
        return out

    def flush(self) -> np.ndarray:
        """Emit the final partially overlapped hop after the last input hop."""
        return _last_hop(self._tail, self.config)

    def stats(self) -> EnhanceStats:
        mean_s = self._busy_s / self._frames if self._frames else 0.0
        return EnhanceStats(
            frames=self._frames,
            mean_frame_ms=mean_s * 1e3,
            max_frame_ms=self._worst_s * 1e3,
            hop_ms=self.config.hop_ms,
            nonfinite_hops=self._nonfinite_hops,
            state_resets=self._state_resets,
        )


def enhance_signal(graph: ModelGraph, samples: np.ndarray,
                   config: StftConfig = StftConfig()):
    """Stream a whole signal through an enhancer, ``BLOCK_FRAMES`` hops per call.

    Returns:
        ``(enhanced, stats)`` where enhanced has exactly the input length;
        any tail shorter than a hop is emitted as silence.

    Raises:
        ValueError: when the signal is shorter than one hop, so that no
            audio would be processed.
    """
    samples = np.asarray(samples, dtype=np.float64)
    require_frames(len(samples), config)
    engine = StreamingEnhancer(graph, config)
    whole = samples[: len(samples) - len(samples) % config.hop_len]
    chunk = BLOCK_FRAMES * config.hop_len
    hops = [engine.process_hop(whole[i : i + chunk]) for i in range(0, len(whole), chunk)]
    hops += [engine.flush(), np.zeros(len(samples) - len(whole))]
    # the first emitted hop is the synthetic head padding
    return np.concatenate(hops)[config.hop_len :], engine.stats()
