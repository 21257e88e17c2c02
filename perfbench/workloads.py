"""The benchmark's three closed-loop workloads, their inputs and their checks.

Every input is made from the run seed: synthetic speech, noise and room
impulse responses feed ``cruse.datagen``, whose seeded mixtures are what the
enhancers see.  Model weights come from ``init_test_weights`` with a fixed
seed, so a run seed changes the audio but not the model.
"""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

# Traced functions are called through their module attribute, where the
# tracer installs its wrappers.
from cruse import datagen, dsp, macs, metrics, models, streaming
from cruse.datagen import AssetEntry, AssetStore

from measure import MacJoin, Tracer, layer_metrics, tail_supported

CFG = dsp.StftConfig()
HOP_S = CFG.hop_len / CFG.sample_rate
WEIGHT_SEED = 1234          # the CLI's default seed
SETUP_REPEATS = 5           # setup_s is the median of at least this many set-ups
SETUP_MIN_S = 2.0           # that together take at least this long
SIGNAL_TOL = 1e-10          # streaming-vs-batch signal tolerance of the test suite
STREAM_CLIP_S = 10.0        # each stream loops one seeded mixture of this length
SPEECH_FILE_S = 3.5         # every synthetic speech file has this length
OFFLINE_CLIP_S = 1.0
QUALITY_FILES = 8           # sisdr_db averages the seed's first files
TRACE_SLICES = 8            # untraced/traced slice pairs in a traced run


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    streams: int            # 0 for the whole-file workload
    warmup: int             # ticks, or files for the whole-file workload
    check_hops: int = 0     # first hops of each stream checked against the batch path


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload was chosen: BENCHMARK.json and NOTES.md.
        # stream-cruse4x4 checks every hop before its input wraps.  The batch
        # path of CRUSE5 costs 30-38 ms a frame, so stream-cruse5 checks its
        # first 200 hops and stays within the time budget of a run.
        Workload("stream-cruse4x4", "CRUSE4-128-1xGRU4", 4, 50,
                 int(round(STREAM_CLIP_S / HOP_S))),
        Workload("stream-cruse5", "CRUSE5-256-2xLSTM1", 1, 30, 200),
        Workload("offline-corpus", "NSnet2-400", 0, 1),
    )
}


# ---------------------------------------------------------------------------
# Synthetic assets


class MemoryAssetStore(AssetStore):
    """An AssetStore whose signals are synthesized in memory, not read from WAV."""

    def __init__(self, assets):
        super().__init__([entry for entry, _ in assets])
        self._signals = {entry.asset_id: samples for entry, samples in assets}

    def load(self, asset_id: str) -> np.ndarray:
        self.entry(asset_id)  # raises ValueError for unknown ids
        return self._signals[asset_id]


def _speech(rng, seconds: float, sr: int) -> np.ndarray:
    """Harmonic tone bursts with vibrato and amplitude envelope, split by silence."""
    n = int(seconds * sr)
    out = np.zeros(n)
    pos = 0
    while pos < n:
        length = min(int(rng.uniform(0.15, 0.4) * sr), n - pos)
        t = np.arange(length) / sr
        f0 = rng.uniform(100.0, 280.0) * (1.0 + 0.03 * np.sin(2 * np.pi * 5.0 * t))
        phase = 2 * np.pi * np.cumsum(f0) / sr
        k = np.arange(1, 11)[:, None]
        voiced = np.sum(np.sin(k * phase) / k, axis=0)
        envelope = np.sin(np.pi * np.arange(length) / length)
        out[pos : pos + length] = rng.uniform(0.2, 0.5) * voiced * envelope
        pos += length + int(rng.uniform(0.05, 0.2) * sr)
    return out


def _rir(rng, sr: int) -> np.ndarray:
    n = int(0.4 * sr)
    t0 = int(rng.integers(20, 80))
    decay_s = rng.uniform(0.3, 0.8)
    h = np.zeros(n)
    h[t0] = 1.0
    tail = np.arange(1, n - t0) / sr
    h[t0 + 1 :] = 0.3 * rng.standard_normal(n - t0 - 1) * np.exp(-tail * 6.9 / decay_s)
    return h


def synth_assets(seed: int, sr: int = CFG.sample_rate) -> MemoryAssetStore:
    """Four speech files (one reverberant), three noises and two RIRs.

    Every seed synthesizes the same lengths, so set-up does the same work.
    """
    rng = np.random.default_rng([seed, 1])
    assets = []
    for i in range(4):
        reverberant = i == 3
        entry = AssetEntry(
            f"speech{i}", Path(f"speech{i}"), "speech",
            0.6 if reverberant else 0.1, 8.0 if reverberant else 25.0,
        )
        assets.append((entry, _speech(rng, SPEECH_FILE_S, sr)))
    white = 0.1 * rng.standard_normal(4 * sr)
    brown = np.cumsum(rng.standard_normal(5 * sr))
    brown = 0.1 * (brown - np.convolve(brown, np.ones(401) / 401, mode="same"))
    t = np.arange(6 * sr) / sr
    hum = sum(0.05 / k * np.sin(2 * np.pi * 50.0 * k * t) for k in range(1, 8))
    hum = hum + 0.01 * rng.standard_normal(t.size)
    for name, samples in (("white", white), ("brown", brown), ("hum", hum)):
        assets.append((AssetEntry(f"noise_{name}", Path(name), "noise"), samples))
    for i in range(2):
        entry = AssetEntry(f"rir{i}", Path(f"rir{i}"), "rir", 0.5, 12.0)
        assets.append((entry, _rir(rng, sr)))
    return MemoryAssetStore(assets)


def seeded_graph(model: str):
    return models.init_test_weights(
        models.build_model(models.parse_model_name(model)), WEIGHT_SEED
    )


# ---------------------------------------------------------------------------
# Run bookkeeping


@dataclass
class Outcome:
    """What a run measured: metric values, sample counts and op accounting."""

    values: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)   # name -> (value, unit, samples), not gated

    def put(self, name: str, value: float, samples: int) -> None:
        self.values[name] = value
        self.samples[name] = samples


def _report_failure(what: str) -> None:
    print(f"failure in {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _timed_setups(setup):
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        ctx = None  # release the previous set-up before building the next
        started = perf_counter()
        ctx = setup()
        times.append(perf_counter() - started)
    return ctx, times


@dataclass
class Phase:
    """One measured stretch of a workload.

    Stream workloads: ``wall`` and ``cpu`` hold each hop's wall-clock and
    CPU time, and ``ticks`` the CPU time of each tick (one hop of every
    stream).  Whole-file workload: ``wall`` and ``cpu`` hold each file's
    per-frame cost of the enhancement path (``stft`` to ``istft`` ÷ frames),
    and ``ticks`` is empty.

    CPU time is ``process_time``, which counts every thread of the process,
    so work moved to helper threads still shows.  The median latency is
    wall-clock.  The tail is CPU time: on a shared machine about 1% of hops
    are preempted, enough to set a wall-clock tail, and preemption is not
    CPU time.  Throughput (audio_s) is wall-clock.
    """

    op_times: list
    wall: list
    cpu: list
    ticks: list
    streams: int
    frames: int
    audio_s: float
    elapsed: float


def _end_to_end(phase: Phase, outcome: Outcome) -> None:
    n = len(phase.wall)
    outcome.put("hop_ms_p50", np.percentile(phase.wall, 50) * 1e3, n)
    outcome.put("audio_s_per_s", phase.audio_s / phase.elapsed, len(phase.op_times))
    if phase.ticks:
        # The gated tail is p95: a p99 of about 1,000 hops is set by the few
        # bursts a neighbour on a shared host lands in a run (NOTES.md).
        ticks = len(phase.ticks)
        outcome.put("hop_ms_p95", np.percentile(phase.cpu, 95) * 1e3, n)
        outcome.put("rt_streams",
                    phase.streams * HOP_S / np.percentile(phase.ticks, 95), ticks)
        outcome.extra["hop_ms_p99"] = (np.percentile(phase.cpu, 99) * 1e3, "ms", n)
        outcome.extra["rt_streams_p99"] = (
            phase.streams * HOP_S / np.percentile(phase.ticks, 99), "streams", ticks)
        outcome.extra["hop_wall_ms_p99"] = (np.percentile(phase.wall, 99) * 1e3, "ms", n)
        tails = (("hop_ms_p95", n, 95), ("rt_streams", ticks, 95),
                 ("hop_ms_p99", n, 99), ("rt_streams_p99", ticks, 99))
    else:
        # Whole files have no per-hop deadline, and a few hundred files
        # support no high percentile steadily.  The two tail slots carry the
        # mean per-frame CPU cost instead; the per-file p99 is printed ungated.
        frame_s = statistics.fmean(phase.cpu)
        outcome.put("hop_ms_p95", frame_s * 1e3, n)
        outcome.put("rt_streams", HOP_S / frame_s, n)
        outcome.extra["file_frame_ms_p99"] = (np.percentile(phase.cpu, 99) * 1e3, "ms", n)
        tails = (("file_frame_ms_p99", n, 99),)
    for name, count, q in tails:
        if not tail_supported(count, q):
            outcome.notes.append(
                f"{name}: p{q} of {count} samples has fewer than 10 beyond it; not supported"
            )


# ---------------------------------------------------------------------------
# Streaming workloads


def reverberant_recipe(rng, store: AssetStore) -> datagen.MixtureRecipe:
    """The next drawn recipe that convolves with a room impulse response.

    Every stream input then costs the same to synthesize, whatever the seed.
    """
    while True:
        recipe = datagen.sample_recipe(rng, store, STREAM_CLIP_S)
        if recipe.rir_id is not None:
            return recipe


class StreamRun:
    """S enhancers sharing one graph, stepped lockstep one hop per tick."""

    def __init__(self, workload: Workload, seed: int):
        self.graph = seeded_graph(workload.model)
        store = synth_assets(seed)
        rng = np.random.default_rng(seed)
        self.inputs = [
            datagen.generate_pair(reverberant_recipe(rng, store), store).noisy
            for _ in range(workload.streams)
        ]
        self.enhancers = [streaming.StreamingEnhancer(self.graph, CFG) for _ in self.inputs]
        self.ticks = 0
        self.check_hops = workload.check_hops
        self.kept = np.zeros((workload.streams, self.check_hops, CFG.hop_len))
        self.failed_hops = [set() for _ in self.inputs]

    def phase(self, seconds: float, tracer: Tracer | None = None,
              max_ops: int | None = None) -> Phase:
        """Step all streams for ``seconds``, or for ``max_ops`` ticks if that ends first."""
        hop = CFG.hop_len
        hop_wall, hop_cpu, tick_cpu = [], [], []
        outs = [None] * len(self.enhancers)
        started = perf_counter()
        deadline = started + seconds
        while perf_counter() < deadline and len(tick_cpu) != max_ops:
            i = self.ticks
            tick_start = process_time()
            for s, (enhancer, x) in enumerate(zip(self.enhancers, self.inputs)):
                offset = (i * hop) % len(x)
                if tracer is not None:
                    tracer.op += 1
                t0, c0 = perf_counter(), process_time()
                try:
                    outs[s] = enhancer.process_hop(x[offset : offset + hop])
                except Exception:  # a failed hop is counted and the run goes on
                    outs[s] = None
                    if not any(self.failed_hops):
                        _report_failure(f"stream {s} hop {i}")
                hop_cpu.append(process_time() - c0)
                hop_wall.append(perf_counter() - t0)
            tick_cpu.append(process_time() - tick_start)
            for s, out in enumerate(outs):
                if out is None or not np.isfinite(out).all():
                    self.failed_hops[s].add(i)
                elif i < self.check_hops:
                    self.kept[s, i] = out
            self.ticks += 1
        elapsed = perf_counter() - started
        return Phase(hop_wall, hop_wall, hop_cpu, tick_cpu, len(self.enhancers),
                     len(hop_wall), len(hop_wall) * HOP_S, elapsed)

    def finish(self, outcome: Outcome) -> None:
        """Check each stream's first hops against the float64 batch path.

        Streamed hop i (i >= 1) is batch hop i - 1; the batch path over the
        first K input hops yields K - 1 fully overlapped hops.
        """
        hop = CFG.hop_len
        k = min(self.check_hops, self.ticks)
        for s, x in enumerate(self.inputs):
            spec = dsp.stft(x[: k * hop], CFG)
            gains = models.infer_utterance(self.graph, dsp.log_power_features(spec))
            batch = dsp.istft(dsp.apply_gain(spec, gains), CFG).reshape(-1, hop)
            err = np.abs(self.kept[s, 1:k] - batch[: k - 1]).max(axis=1, initial=0.0)
            for i in np.flatnonzero(~(err <= SIGNAL_TOL)):
                self.failed_hops[s].add(int(i) + 1)
        outcome.attempted = self.ticks * len(self.inputs)
        outcome.failed = sum(len(f) for f in self.failed_hops)


# ---------------------------------------------------------------------------
# Whole-file workload


class OfflineRun:
    """Synthesize, enhance whole-file and score one seeded clip per op."""

    def __init__(self, workload: Workload, seed: int):
        self.graph = seeded_graph(workload.model)
        self.store = synth_assets(seed)
        self.rng = np.random.default_rng(seed)
        self.files = 0
        self.failed = 0
        self.sisdr: list[float] = []

    def _one_file(self):
        recipe = datagen.sample_recipe(self.rng, self.store, OFFLINE_CLIP_S)
        pair = datagen.generate_pair(recipe, self.store)
        started, started_cpu = perf_counter(), process_time()
        spec = dsp.stft(pair.noisy, CFG)
        gains = models.infer_utterance(self.graph, dsp.log_power_features(spec))
        enhanced_spec = dsp.apply_gain(spec, gains)
        enhanced = dsp.istft(enhanced_spec, CFG)
        enhance_cpu = process_time() - started_cpu
        enhance_s = perf_counter() - started
        target = pair.target[: len(enhanced)]
        scores = (
            metrics.si_sdr(enhanced, target),
            metrics.cepstral_distance(enhanced, target, CFG),
            metrics.training_loss(enhanced_spec, pair.target, stft_cfg=CFG),
        )
        ok = (
            len(enhanced) == spec.shape[0] * CFG.hop_len
            and bool(np.isfinite(enhanced).all())
            and all(math.isfinite(v) for v in scores)
        )
        return ok, spec.shape[0], enhance_cpu, enhance_s, scores[0]

    def phase(self, seconds: float, tracer: Tracer | None = None,
              max_ops: int | None = None) -> Phase:
        """Process files for ``seconds``, or ``max_ops`` files if that ends first."""
        op_times, frame_cpu, frame_wall = [], [], []
        frames = 0
        started = perf_counter()
        deadline = started + seconds
        while perf_counter() < deadline and len(op_times) != max_ops:
            if tracer is not None:
                tracer.op += 1
            t0 = perf_counter()
            try:
                ok, n_frames, enhance_cpu, enhance_s, sisdr = self._one_file()
            except Exception:  # a failed file is counted and the run goes on
                ok = False
                if not self.failed:
                    _report_failure(f"file {self.files}")
            op_times.append(perf_counter() - t0)
            if ok:
                frames += n_frames
                frame_cpu.append(enhance_cpu / n_frames)
                frame_wall.append(enhance_s / n_frames)
                if self.files < QUALITY_FILES:
                    self.sisdr.append(sisdr)
            else:
                self.failed += 1
            self.files += 1
        elapsed = perf_counter() - started
        return Phase(op_times, frame_wall, frame_cpu, [], 1, frames,
                     len(op_times) * OFFLINE_CLIP_S, elapsed)

    def finish(self, outcome: Outcome) -> None:
        outcome.attempted = self.files
        outcome.failed = self.failed
        if self.sisdr:
            outcome.extra["sisdr_db"] = (statistics.fmean(self.sisdr), "dB", len(self.sisdr))


# ---------------------------------------------------------------------------


def _audio_rate(phases) -> float:
    return sum(p.audio_s for p in phases) / sum(p.elapsed for p in phases)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 spans_path: Path) -> Outcome:
    """Set up, warm up, measure and check one workload.

    Untraced runs report the end-to-end metrics.  Traced runs spend half the
    time untraced and half traced, and report the per-layer metrics.
    """
    run_class = OfflineRun if workload.streams == 0 else StreamRun
    ctx, setup_times = _timed_setups(lambda: run_class(workload, seed))
    join = MacJoin(ctx.graph, macs.macs_model(ctx.graph))
    ctx.phase(math.inf, max_ops=workload.warmup)
    outcome = Outcome()
    if trace:
        # Alternate untraced and traced slices so that drift in machine speed
        # does not read as tracing overhead.
        tracer = Tracer()
        untraced, traced = [], []
        for _ in range(TRACE_SLICES):
            untraced.append(ctx.phase(seconds / (2 * TRACE_SLICES)))
            with tracer:
                traced.append(ctx.phase(seconds / (2 * TRACE_SLICES), tracer))
        ops = sum(len(p.op_times) for p in traced)
        values = layer_metrics(tracer.spans, ops, sum(sum(p.op_times) for p in traced),
                                sum(p.frames for p in traced), join)
        values["macs.per_frame"] = float(join.per_frame)
        values["trace.overhead_frac"] = 1.0 - _audio_rate(traced) / _audio_rate(untraced)
        for name, value in values.items():
            outcome.put(name, value, ops)
        outcome.notes.append(
            f"traced self times leave {values['trace.unattributed_frac']:.2%} of op time "
            f"unattributed; tracing overhead {values['trace.overhead_frac']:.2%}"
        )
        tracer.write_csv(spans_path)
    else:
        _end_to_end(ctx.phase(seconds), outcome)
        outcome.put("setup_s", statistics.median(setup_times), len(setup_times))
    ctx.finish(outcome)
    return outcome
