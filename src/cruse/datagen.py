"""Training-data synthesis: reverb classification, RIR shaping, SNR mixing.

A recipe fully determines one (noisy, target) pair.  Reverberant speech is
mixed as-is and serves as its own target; non-reverberant speech is convolved
with a room impulse response for the noisy side while the target uses the
same RIR shaped to a short exponential decay, keeping both time-aligned.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import read_pipeline_wav
from .dsp import SAMPLE_RATE

# Reverberant-speech classification thresholds (strict inequalities).
T60_THRESHOLD_S = 0.22
C50_THRESHOLD_DB = 18.0

REVERB_AUGMENT_PROB = 0.8   # non-reverberant speech gets an RIR this often
T60_MAX_S = 0.3             # target-side decay limit for shaped RIRs
DIRECT_SOUND_FRACTION = 0.5

SNR_MEAN_DB, SNR_STD_DB = 5.0, 10.0
LEVEL_MEAN_DBFS, LEVEL_STD_DBFS = -28.0, 10.0
DEFAULT_CLIP_SECONDS = 10.0

SEGMENT_NORM_DBFS = -26.0   # common active level for concatenated segments

ACTIVITY_FRAME_MS = 20
ACTIVITY_RANGE_DB = 40.0

# Largest positive 16-bit sample; scaling never pushes peaks past this.
PEAK_LIMIT = 32767.0 / 32768.0


@dataclass(frozen=True)
class MixtureRecipe:
    """A fully determined synthesis instruction for one training pair."""

    speech_ids: tuple[str, ...]
    noise_ids: tuple[str, ...]
    rir_id: str | None
    snr_db: float
    level_dbfs: float
    clip_seconds: float
    seed: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "speech": list(self.speech_ids),
                "noise": list(self.noise_ids),
                "rir": self.rir_id,
                "snr_db": self.snr_db,
                "level_dbfs": self.level_dbfs,
                "clip_seconds": self.clip_seconds,
                "seed": self.seed,
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "MixtureRecipe":
        d = json.loads(line)
        return cls(
            tuple(d["speech"]), tuple(d["noise"]), d["rir"],
            d["snr_db"], d["level_dbfs"], d["clip_seconds"], d["seed"],
        )


@dataclass
class TrainingPair:
    noisy: np.ndarray
    target: np.ndarray
    recipe: MixtureRecipe
    achieved_level_dbfs: float
    peak_limited: bool


def classify_reverberant(t60: float | None, c50: float | None) -> bool:
    """Reverberant iff T60 exceeds 0.22 s and C50 is below 18 dB."""
    if t60 is None or c50 is None:
        return False
    return t60 > T60_THRESHOLD_S and c50 < C50_THRESHOLD_DB


def find_direct_sound(rir: np.ndarray) -> int:
    """Index of the first sample reaching half the RIR's peak magnitude.

    The 0.5 threshold tolerates pre-ringing in measured responses.
    """
    mag = np.abs(np.asarray(rir, dtype=np.float64))
    peak = mag.max(initial=0.0)
    if peak <= 0.0:
        raise ValueError("all-zero impulse response has no direct sound")
    return int(np.argmax(mag >= DIRECT_SOUND_FRACTION * peak))


def shape_rir(rir: np.ndarray, t0: int) -> np.ndarray:
    """Impose an exponential decay after the direct sound.

    Samples before ``t0`` pass unchanged; from ``t0`` on, sample ``i`` is
    weighted by ``exp(-(i - t0) / fs * 6 ln(10) / T60_MAX_S)``, i.e. a decay
    reaching -60 dB (a weight of 1e-3) after ``T60_MAX_S / 2`` seconds.
    """
    rir = np.asarray(rir, dtype=np.float64)
    i = np.arange(len(rir))
    rel = (i - t0) / float(SAMPLE_RATE)
    weight = np.where(i < t0, 1.0, np.exp(-rel * (6.0 * math.log(10.0) / T60_MAX_S)))
    return rir * weight


def _active_frames(energies: np.ndarray) -> np.ndarray:
    """Frames within ``ACTIVITY_RANGE_DB`` of the loudest; ``ValueError`` if none has energy."""
    peak = energies.max(initial=0.0)
    if peak <= 0.0:
        raise ValueError("silent signal: no active frames")
    return energies >= peak * 10.0 ** (-ACTIVITY_RANGE_DB / 10.0)


def _activity_mask(samples: np.ndarray):
    frame = SAMPLE_RATE * ACTIVITY_FRAME_MS // 1000
    n = len(samples) // frame
    if n == 0:
        frames = samples[None, :]
    else:
        frames = samples[: n * frame].reshape(n, frame)
    return frames, _active_frames(np.sum(frames * frames, axis=1))


def active_rms(samples: np.ndarray) -> float:
    """Linear RMS over active 20 ms frames (those within 40 dB of the loudest).

    Homogeneous: scaling the input by a scales the result by exactly a.
    """
    frames, active = _activity_mask(np.asarray(samples, dtype=np.float64))
    sel = frames[active]
    return float(np.sqrt(np.sum(sel * sel) / sel.size))


def estimate_active_level(samples: np.ndarray) -> float:
    """Active speech level in dBFS; raises on silent input."""
    return 20.0 * math.log10(active_rms(samples))


def _normalize_concat(segments):
    # each segment scaled to the SEGMENT_NORM_DBFS active level, then joined
    if not segments:
        raise ValueError("no segments to assemble")
    target_rms = 10.0 ** (SEGMENT_NORM_DBFS / 20.0)
    return np.concatenate(
        [np.asarray(s, dtype=np.float64) * (target_rms / active_rms(s)) for s in segments]
    )


def _fit(joined: np.ndarray, total: int, offset: int = 0) -> np.ndarray:
    # total samples of joined read cyclically from offset
    return np.take(joined, np.arange(offset, offset + total), mode="wrap")


def assemble_clip(segments, clip_seconds: float = DEFAULT_CLIP_SECONDS) -> np.ndarray:
    """Normalize segments to a common active level, concatenate, fit to length.

    Concatenations shorter than the clip are tiled cyclically before the final
    truncation to exactly ``clip_seconds * SAMPLE_RATE`` samples.
    """
    return _fit(_normalize_concat(segments), int(round(clip_seconds * SAMPLE_RATE)))


def mix_at_snr(speech: np.ndarray, noise: np.ndarray, snr_db: float):
    """Scale the noise for the requested active-level SNR and add it.

    Returns:
        ``(mixture, noise_scale)``.
    """
    speech = np.asarray(speech, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if speech.shape != noise.shape:
        raise ValueError(f"length mismatch: speech {speech.shape} vs noise {noise.shape}")
    scale = active_rms(speech) / active_rms(noise) * 10.0 ** (-snr_db / 20.0)
    return speech + scale * noise, scale


def scale_pair_to_level(mixture: np.ndarray, target: np.ndarray,
                        level_dbfs: float) -> tuple[float, float, bool]:
    """The one common factor that brings the mixture to the requested active level.

    If either signal would clip, the factor is reduced to peak-normalize and
    the achieved level is recorded instead.

    Returns:
        ``(factor, achieved_level_dbfs, peak_limited)``.
    """
    mixture = np.asarray(mixture, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    rms = active_rms(mixture)
    factor = 10.0 ** (level_dbfs / 20.0) / rms
    peak = max(np.max(np.abs(mixture)), np.max(np.abs(target))) * factor
    limited = bool(peak > PEAK_LIMIT)
    if limited:
        factor *= PEAK_LIMIT / peak
    achieved = 20.0 * math.log10(rms * factor)
    return factor, achieved, limited


# ---------------------------------------------------------------------------
# Asset store


def _csv_rows(path, required, key: str):
    """``(line, row)`` for each row of a UTF-8 delimited file with a header,
    with or without a byte-order mark; a missing ``required`` column, or a row
    that repeats an earlier row's stripped ``key`` value, is a ``ValueError``
    naming the file (and both lines)."""
    seen: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = set(required) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: no {' or '.join(sorted(missing))} column")
        for row in reader:
            value = row[key].strip()
            if value in seen:
                raise ValueError(
                    f"{path}: line {reader.line_num}: {key} {value!r} repeats line {seen[value]}"
                )
            seen[value] = reader.line_num
            yield reader.line_num, row


def _csv_float(path, line: int, row: dict, column: str) -> float:
    # one value of a delimited file, which must be a finite float
    try:
        value = float(row[column])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"{path}: line {line}, column {column!r}: "
            f"could not convert {row[column]!r} to a finite float"
        )
    return value


@dataclass(frozen=True)
class AssetEntry:
    asset_id: str
    path: Path
    kind: str                 # speech | noise | rir
    t60: float | None = None
    c50: float | None = None

    @property
    def reverberant(self) -> bool:
        return classify_reverberant(self.t60, self.c50)


class AssetStore:
    """Read-only collection of speech, noise, and RIR files at ``SAMPLE_RATE``.

    Built from a delimited manifest with columns ``path,kind,t60,c50``
    (t60/c50 may be empty for noise); paths resolve against the manifest's
    directory, and a repeated path is an error.
    """

    def __init__(self, entries):
        self.entries = {e.asset_id: e for e in entries}
        self._cache: dict[str, np.ndarray] = {}
        self.speech = [e for e in entries if e.kind == "speech"]
        self.noise = [e for e in entries if e.kind == "noise"]
        self.rirs = [e for e in entries if e.kind == "rir"]

    @classmethod
    def from_manifest(cls, manifest_path) -> "AssetStore":
        manifest_path = Path(manifest_path)
        base = manifest_path.parent
        entries = []
        for line, row in _csv_rows(manifest_path, ("path", "kind"), "path"):
            kind = row["kind"].strip()
            if kind not in ("speech", "noise", "rir"):
                raise ValueError(f"{manifest_path}: unknown asset kind {kind!r}")
            t60 = _csv_float(manifest_path, line, row, "t60") if row.get("t60") else None
            c50 = _csv_float(manifest_path, line, row, "c50") if row.get("c50") else None
            rel = row["path"].strip()
            entries.append(AssetEntry(rel, base / rel, kind, t60, c50))
        return cls(entries)

    def entry(self, asset_id: str) -> AssetEntry:
        try:
            return self.entries[asset_id]
        except KeyError:
            raise ValueError(f"unknown asset {asset_id!r}") from None

    def load(self, asset_id: str) -> np.ndarray:
        if asset_id not in self._cache:
            self._cache[asset_id] = read_pipeline_wav(self.entry(asset_id).path)
        return self._cache[asset_id]

    def duration(self, asset_id: str) -> float:
        return len(self.load(asset_id)) / SAMPLE_RATE


def _segment_ids(rng, first, pool, clip_seconds, store):
    # first, then draws from pool until the clip is filled (at most 16 segments)
    ids = [first.asset_id]
    total = store.duration(first.asset_id)
    while total < clip_seconds and len(ids) < 16:
        extra = pool[rng.integers(len(pool))]
        ids.append(extra.asset_id)
        total += store.duration(extra.asset_id)
    return tuple(ids)


def sample_recipe(rng: np.random.Generator, store: AssetStore,
                  clip_seconds: float = DEFAULT_CLIP_SECONDS) -> MixtureRecipe:
    """Draw one mixture recipe.

    SNR ~ N(5, 10) dB and level ~ N(-28, 10) dBFS, unclipped.  Reverberant
    speech is left as-is; non-reverberant speech receives a random RIR with
    probability 0.8.  Segments concatenated to fill a clip are drawn from the
    same reverberance class as the first one.
    """
    if not store.speech or not store.noise:
        raise ValueError("asset store needs at least one speech and one noise file")
    first = store.speech[rng.integers(len(store.speech))]
    same_class = [e for e in store.speech if e.reverberant == first.reverberant]
    speech_ids = _segment_ids(rng, first, same_class, clip_seconds, store)
    noise_first = store.noise[rng.integers(len(store.noise))]
    noise_ids = _segment_ids(rng, noise_first, store.noise, clip_seconds, store)

    rir_id = None
    if not first.reverberant and store.rirs and rng.random() < REVERB_AUGMENT_PROB:
        rir_id = store.rirs[rng.integers(len(store.rirs))].asset_id

    return MixtureRecipe(
        speech_ids=speech_ids,
        noise_ids=noise_ids,
        rir_id=rir_id,
        snr_db=float(rng.normal(SNR_MEAN_DB, SNR_STD_DB)),
        level_dbfs=float(rng.normal(LEVEL_MEAN_DBFS, LEVEL_STD_DBFS)),
        clip_seconds=clip_seconds,
        seed=int(rng.integers(2**63)),
    )


def _fast_len(n: int) -> int:
    """The smallest ``2**a * 3**b * 5**c`` at least ``n``: a length the FFT takes fast."""
    best = 1 << (n - 1).bit_length()
    pow5 = 1
    while pow5 < best:
        odd = pow5
        while odd < best:
            # the least power-of-two multiple of the odd factor 3**b * 5**c that is >= n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        pow5 *= 5
    return best


def _convolve_each(x: np.ndarray, kernels, length: int) -> list[np.ndarray]:
    """The first ``length`` samples of the full convolution of ``x`` with each kernel.

    One product of real FFTs per kernel, zero-padded to the :func:`_fast_len`
    of the full output; the spectrum of ``x`` is taken once and shared by
    every kernel.
    """
    n = _fast_len(len(x) + max(len(h) for h in kernels) - 1)
    spectrum = np.fft.rfft(x, n)
    return [np.fft.irfft(spectrum * np.fft.rfft(h, n), n)[:length] for h in kernels]


def generate_pair(recipe: MixtureRecipe, store: AssetStore) -> TrainingPair:
    """Synthesize the (noisy, target) pair a recipe describes.

    Deterministic: the recipe seed drives the only internal randomness (the
    cyclic crop offset into the assembled noise).
    """
    total = int(round(recipe.clip_seconds * SAMPLE_RATE))
    rng = np.random.default_rng(recipe.seed)

    dry = assemble_clip([store.load(i) for i in recipe.speech_ids], recipe.clip_seconds)

    noise_joined = _normalize_concat([store.load(i) for i in recipe.noise_ids])
    noise = _fit(noise_joined, total, int(rng.integers(len(noise_joined))))

    if recipe.rir_id is not None:
        rir = store.load(recipe.rir_id)
        shaped = shape_rir(rir, find_direct_sound(rir))
        speech_in, target = _convolve_each(dry, (rir, shaped), total)
    else:
        speech_in = target = dry

    mixture, _ = mix_at_snr(speech_in, noise, recipe.snr_db)
    factor, achieved, limited = scale_pair_to_level(mixture, target, recipe.level_dbfs)
    return TrainingPair(mixture * factor, target * factor, recipe, achieved, limited)
