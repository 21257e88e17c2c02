"""One SHA-256 over the engine's outputs, for checking that a change keeps
every output bit.

Run it at two commits and compare the last line:

    python tests/engine_digest.py

It imports ``cruse`` from the ``src`` directory next to this file, so to
digest another checkout, copy the script into that checkout's ``tests``
directory.  Each line before the last is one part, ``<sha256>  <part>``; the
last line, ``<sha256>  engine``, hashes all of them.  When the digests
differ, the parts say where.

The coverage is fixed here:

* models with seeded weights (``init_test_weights(..., 1234)``): the golden
  models, a model of each skip kind and of each kernel, GRU and LSTM
  bottlenecks with 1, 2 and 4 groups, and CRUSE4-128-1xGRU1 and
  CRUSE5-256-2xLSTM1, whose recurrent cells are large enough to run their
  input projection on a helper thread.  Their ``enhance_signal`` and
  ``infer_utterance`` parts, one 20-frame block each, also split every
  frame's hidden product by rows with that helper, as do those of
  CRUSE4-64-2xLSTM2, CRUSE3-32-2xGRU2 and CRUSE2-8-1xLSTM1/kernel-1x3, whose
  hidden weights (2.6-3.8 MiB) are over the split size; ``process_hop``
  blocks (k <= 3) and ``infer_frame`` loops never split.  The helper runs
  only where the process may use more than one CPU;
* for each model: its parameter arrays; ``process_hop`` with k = 1, 3, 1, 2,
  twice, then ``flush``; ``enhance_signal``; ``infer_utterance``; and a
  20-frame ``infer_frame`` loop with its final states;
* for the small models: the saved bundle bytes, and the bytes of a
  ``load_weights`` and re-save;
* seeded training pairs from ``generate_pair``, with ``training_loss``,
  ``cepstral_distance`` and ``si_sdr`` of each.

Not a tier-1 test: float64 bits can depend on the BLAS build, so the digest
is only compared between commits on one machine.  They also depend on the
number of BLAS threads, which the script sets to one, as ``perfbench`` does,
so that the digest does not change with the CPUs the process may use.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy is first imported

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cruse.audio_io import write_wav  # noqa: E402
from cruse.datagen import AssetStore, generate_pair, sample_recipe  # noqa: E402
from cruse.dsp import SAMPLE_RATE, log_power_features, stft  # noqa: E402
from cruse.metrics import cepstral_distance, si_sdr, training_loss  # noqa: E402
from cruse.models import (  # noqa: E402
    build_model,
    cruse_spec,
    infer_frame,
    infer_utterance,
    init_test_weights,
    load_weights,
    parse_model_name,
    save_weights,
)
from cruse.streaming import StreamingEnhancer, enhance_signal  # noqa: E402

SMALL_MODELS = {
    name: parse_model_name(name)
    for name in ("NSnet2-64", "CRUSE4-64-1xGRU4", "CRUSE4-64-2xLSTM2", "CRUSE3-32-2xGRU2")
}
SMALL_MODELS.update({
    f"CRUSE2-8-1xGRU2/{kind}": cruse_spec(layers=2, last_channels=8, parallel_groups=2,
                                          skip_kind=kind)
    for kind in ("none", "add_conv1x1", "concat")
})
SMALL_MODELS["CRUSE2-8-1xLSTM1/kernel-1x3"] = cruse_spec(
    layers=2, last_channels=8, rnn_kind="lstm", kernel=(1, 3))
LARGE_MODELS = ("CRUSE4-128-1xGRU1", "CRUSE5-256-2xLSTM1")

HOP_PATTERN = (1, 3, 1, 2) * 2
LOOP_FRAMES = 20
PAIR_SEEDS = (1, 2, 3, 9)


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def _model_parts(label, graph, signal, bundle_dir):
    params = (a for layer in graph.iter_layers() for _, a in layer.param_arrays())
    parts = {f"{label}/params": _sha(*params)}
    if bundle_dir is not None:
        path = bundle_dir / "w.cwb"
        save_weights(graph, path)
        parts[f"{label}/bundle"] = hashlib.sha256(path.read_bytes()).hexdigest()
        save_weights(load_weights(path), path)
        parts[f"{label}/resaved-bundle"] = hashlib.sha256(path.read_bytes()).hexdigest()

    hop = 160
    engine = StreamingEnhancer(graph)
    start, outs = 0, []
    for k in HOP_PATTERN:
        outs.append(engine.process_hop(signal[start : start + k * hop]))
        start += k * hop
    outs.append(engine.flush())
    parts[f"{label}/process_hop"] = _sha(*outs)

    parts[f"{label}/enhance_signal"] = _sha(enhance_signal(graph, signal)[0])
    features = log_power_features(stft(signal))
    parts[f"{label}/infer_utterance"] = _sha(infer_utterance(graph, features))
    state = graph.zero_state()
    gains = [infer_frame(graph, state, f) for f in features[:LOOP_FRAMES]]
    finals = [state[name] for name in sorted(state)]
    parts[f"{label}/infer_frame"] = _sha(*gains, *finals)
    return parts


def _assets(root: Path) -> AssetStore:
    """Seeded speech-like tone bursts, noise and a room response, as float32 WAVs."""
    rng = np.random.default_rng(2024)
    t = np.arange(4 * SAMPLE_RATE) / SAMPLE_RATE
    for i, level in enumerate((0.4, 0.3)):
        bursts = (np.sin(2 * np.pi * 3.0 * t) > 0) * np.sin(2 * np.pi * rng.uniform(120, 320) * t)
        write_wav(root / f"speech{i}.wav", level * bursts, SAMPLE_RATE, fmt="float32")
    write_wav(root / "noise.wav", 0.1 * rng.standard_normal(3 * SAMPLE_RATE), SAMPLE_RATE,
              fmt="float32")
    rir = 0.3 * rng.standard_normal(6000) * np.exp(-np.arange(6000) / 1200.0)
    rir[:50] = 0.0
    rir[50] = 1.0
    write_wav(root / "rir.wav", rir, SAMPLE_RATE, fmt="float32")
    (root / "manifest.csv").write_text(
        "path,kind,t60,c50\n"
        "speech0.wav,speech,0.1,25.0\n"
        "speech1.wav,speech,0.6,8.0\n"
        "noise.wav,noise,,\n"
        "rir.wav,rir,0.4,12.0\n"
    )
    return AssetStore.from_manifest(root / "manifest.csv")


def _data_parts(store: AssetStore):
    parts = {}
    for seed in PAIR_SEEDS:
        recipe = sample_recipe(np.random.default_rng(seed), store, clip_seconds=2.0)
        pair = generate_pair(recipe, store)
        scores = np.array([
            training_loss(stft(pair.noisy), pair.target),
            cepstral_distance(pair.noisy, pair.target),
            si_sdr(pair.noisy, pair.target),
        ])
        parts[f"pair-{seed}/recipe"] = hashlib.sha256(recipe.to_json().encode()).hexdigest()
        parts[f"pair-{seed}/signals"] = _sha(pair.noisy, pair.target)
        parts[f"pair-{seed}/scores"] = _sha(scores)
    return parts


def engine_parts() -> dict[str, str]:
    # not a whole number of hops, so the tail of enhance_signal is covered
    signal = 0.1 * np.random.default_rng(2021).standard_normal(3250)
    models = {**SMALL_MODELS, **{name: parse_model_name(name) for name in LARGE_MODELS}}
    parts = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for label, spec in models.items():
            # a large model's bundle would be a few hundred MB on disk
            bundle_dir = root if label in SMALL_MODELS else None
            graph = init_test_weights(build_model(spec), 1234)
            parts.update(_model_parts(label, graph, signal, bundle_dir))
            del graph  # before the next model is built
        parts.update(_data_parts(_assets(root)))
    return parts


def main() -> None:
    text = "".join(f"{sha}  {part}\n" for part, sha in engine_parts().items())
    print(text, end="")
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  engine")


if __name__ == "__main__":
    main()
