"""Shared fixtures: synthetic audio assets and a manifest for datagen tests,
and malformed weight bundles; the hypothesis profile of the property tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import settings

from cruse.audio_io import write_wav

# Derandomized, so that every run of the suite draws the same examples.
settings.register_profile("cruse", derandomize=True, database=None, deadline=None)
settings.load_profile("cruse")

SR = 16000


def synth_speech(rng, seconds, level=0.4):
    """Tone bursts separated by exact silence, speech-like enough for mixing."""
    n = int(seconds * SR)
    out = np.zeros(n)
    t = np.arange(n) / SR
    pos = 0
    burst = int(0.25 * SR)
    gap = int(0.15 * SR)
    while pos < n:
        end = min(pos + burst, n)
        f0 = float(rng.uniform(120.0, 320.0))
        am = 0.6 + 0.4 * np.sin(2 * np.pi * 3.1 * t[pos:end])
        out[pos:end] = level * np.sin(2 * np.pi * f0 * t[pos:end]) * am
        pos = end + gap
    return out


def synth_noise(rng, seconds, level=0.1):
    return level * rng.standard_normal(int(seconds * SR))


def synth_rir(rng, seconds=0.45, t0=50, decay_s=0.5):
    """Synthetic room response: weak pre-ringing, unit direct path, noisy tail."""
    n = int(seconds * SR)
    h = np.zeros(n)
    if t0 > 0:
        h[max(0, t0 - 5) : t0] = 0.05 * rng.standard_normal(min(5, t0))
    h[t0] = 1.0
    tail = np.arange(1, n - t0) / SR
    h[t0 + 1 :] = 0.3 * rng.standard_normal(n - t0 - 1) * np.exp(-tail * 3.0 * np.log(10) / decay_s)
    return h


@pytest.fixture(scope="session")
def asset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("assets")
    rng = np.random.default_rng(2024)

    write_wav(root / "speech_dry1.wav", synth_speech(rng, 3.5), SR, fmt="float32")
    write_wav(root / "speech_dry2.wav", synth_speech(rng, 4.0, level=0.3), SR, fmt="float32")
    write_wav(root / "speech_rev1.wav", synth_speech(rng, 4.5, level=0.35), SR, fmt="float32")
    write_wav(root / "noise_white.wav", synth_noise(rng, 4.0), SR, fmt="float32")
    write_wav(root / "noise_hum.wav", synth_noise(rng, 12.0, level=0.05), SR, fmt="float32")
    write_wav(root / "rir_room.wav", synth_rir(rng), SR, fmt="float32")

    delta = np.zeros(1600)
    delta[0] = 1.0
    write_wav(root / "rir_delta.wav", delta, SR, fmt="float32")

    (root / "manifest.csv").write_text(
        "path,kind,t60,c50\n"
        "speech_dry1.wav,speech,0.12,22.0\n"
        "speech_dry2.wav,speech,0.08,25.0\n"
        "speech_rev1.wav,speech,0.55,9.0\n"
        "noise_white.wav,noise,,\n"
        "noise_hum.wav,noise,,\n"
        "rir_room.wav,rir,0.5,12.0\n"
        "rir_delta.wav,rir,0.05,40.0\n"
    )
    return root


@pytest.fixture(scope="session")
def asset_store(asset_dir):
    from cruse.datagen import AssetStore

    return AssetStore.from_manifest(asset_dir / "manifest.csv")


def _bundle_parts(path):
    from cruse.models import BUNDLE_MAGIC

    raw = path.read_bytes()
    off = len(BUNDLE_MAGIC)
    mlen = int.from_bytes(raw[off : off + 4], "little")
    return json.loads(raw[off + 4 : off + 4 + mlen].decode()), raw[off + 4 + mlen :]


def _write_bundle(path, manifest, blob):
    from cruse.models import BUNDLE_MAGIC

    text = json.dumps(manifest).encode()
    path.write_bytes(BUNDLE_MAGIC + len(text).to_bytes(4, "little") + text + blob)


def _widen_kernel(manifest):
    """Declare a (2, 5) kernel in the spec and in every conv and tconv weight
    shape; return a seeded blob of the matching size."""
    manifest["spec"]["kernel"] = [2, 5]
    for entry in manifest["layers"]:
        if entry["kind"] in ("ConvLayer", "TconvLayer"):
            entry["arrays"][0]["shape"][3] = 5
    total = sum(math.prod(a["shape"]) for e in manifest["layers"] for a in e["arrays"])
    manifest["total_params"] = total
    return np.random.default_rng(1).uniform(-0.1, 0.1, total).astype("<f4").tobytes()


@pytest.fixture(
    params=[
        "no-spec", "no-kernel", "extra-spec-key", "list-manifest", "nan-weight", "inf-weight",
        "kernel-2x5", "skip-kind-adl", "rnn-kind-lstn", "gate-order-zrn", "layer-kind",
    ]
)
def malformed_bundle(request, tmp_path):
    """A weight bundle with one schema or value defect that loading must reject.

    ``kernel-2x5`` is self-consistent (its array shapes match the kernel it
    declares) but names a kernel the layers do not support.  The unknown skip
    and RNN kinds, the gate order and the layer kind are one-field edits whose
    array shapes still match.
    """
    from cruse.models import build_model, cruse_spec, init_test_weights, nsnet2_spec, save_weights

    defect = request.param
    if defect in ("kernel-2x5", "skip-kind-adl"):
        spec = cruse_spec(2, 16)
    elif defect == "rnn-kind-lstn":
        spec = cruse_spec(2, 16, rnn_kind="lstm")
    else:
        spec = nsnet2_spec(16)
    path = tmp_path / f"{defect}.cwb"
    save_weights(init_test_weights(build_model(spec), 1), path)
    manifest, blob = _bundle_parts(path)
    if defect == "no-spec":
        del manifest["spec"]
    elif defect == "no-kernel":
        del manifest["spec"]["kernel"]
    elif defect == "extra-spec-key":
        manifest["spec"]["extra"] = 0
    elif defect == "list-manifest":
        manifest = [manifest]
    elif defect == "kernel-2x5":
        blob = _widen_kernel(manifest)
    elif defect == "skip-kind-adl":
        manifest["spec"]["skip_kind"] = "adl"
    elif defect == "rnn-kind-lstn":
        manifest["spec"]["rnn_kind"] = "lstn"
    elif defect == "gate-order-zrn":
        manifest["conventions"]["gru_gate_order"] = "z,r,n"
    elif defect == "layer-kind":
        manifest["layers"][0]["kind"] = "DenseLayer"
    else:
        params = np.frombuffer(blob, dtype="<f4").copy()
        params[10] = np.nan if defect == "nan-weight" else np.inf
        blob = params.tobytes()
    _write_bundle(path, manifest, blob)
    return path
