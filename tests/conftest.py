"""Shared fixtures: synthetic audio assets and a manifest for datagen tests,
malformed and hostile weight bundles and truncated WAV files; the hypothesis
profile of the property tests."""

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


@pytest.fixture(params=["cruse-8192-groups", "cruse-200000-groups", "nsnet2-width-1e7"])
def hostile_bundle(request, tmp_path):
    """A small bundle whose spec implies arrays of hundreds of MB or more, or
    hundreds of thousands of recurrent cells.

    ``cruse-8192-groups`` is a 210-byte bundle holding only a spec whose
    graph takes 1.6 GB of float64 weights.  ``cruse-200000-groups`` is a
    237-byte bundle holding a format and a spec of 200,000 one-wide GRU
    groups, whose implied manifest lists 800,000 per-cell arrays.
    ``nsnet2-width-1e7`` is the full manifest an NSnet2 of GRU width 10**7
    implies.  Each has an empty blob.
    """
    from cruse.models import BUNDLE_FORMAT, build_model, nsnet2_spec, save_weights

    path = tmp_path / f"{request.param}.cwb"
    if request.param == "cruse-8192-groups":
        spec = {
            "family": "cruse", "num_bins": 5, "rnn_width": 0, "layers": 2,
            "channels": [4096, 4096], "rnn_kind": "gru", "rnn_layers": 1,
            "parallel_groups": 8192, "skip_kind": "add", "kernel": [2, 3],
        }
        _write_bundle(path, {"spec": spec}, b"")
        return path
    if request.param == "cruse-200000-groups":
        spec = {
            "family": "cruse", "num_bins": 1, "rnn_width": 0, "layers": 1,
            "channels": [200000], "rnn_kind": "gru", "rnn_layers": 1,
            "parallel_groups": 200000, "skip_kind": "add", "kernel": [2, 3],
        }
        _write_bundle(path, {"format": BUNDLE_FORMAT, "spec": spec}, b"")
        return path
    width = 10**7
    save_weights(build_model(nsnet2_spec(16)), path)
    manifest, _ = _bundle_parts(path)
    manifest["spec"]["rnn_width"] = width
    manifest["name"] = f"NSnet2-{width}"
    for entry in manifest["layers"]:  # 16 is the GRU width and 48 its 3 gates
        for array in entry["arrays"]:
            array["shape"] = [{16: width, 48: 3 * width}.get(d, d) for d in array["shape"]]
    manifest["total_params"] = sum(
        math.prod(a["shape"]) for e in manifest["layers"] for a in e["arrays"]
    )
    _write_bundle(path, manifest, b"")
    return path


@pytest.fixture(
    params=[f"{fmt}-{part}" for fmt in ("pcm16", "float32") for part in ("header", "fmt", "data")]
)
def truncated_wavs(request, tmp_path):
    """Seeded cuts of a 1 s WAV file inside one part: the RIFF header, the fmt
    chunk (with the fact chunk of a float32 file), or the data chunk.

    The data cuts include the one that keeps half of the samples.
    """
    fmt, part = request.param.split("-")
    rng = np.random.default_rng(5)
    full = tmp_path / "full.wav"
    write_wav(full, 0.1 * rng.standard_normal(SR), SR, fmt=fmt)
    raw = full.read_bytes()
    starts = {"header": 0, "fmt": raw.index(b"fmt "), "data": raw.index(b"data")}
    ends = {"header": starts["fmt"], "fmt": starts["data"], "data": len(raw)}
    lo, hi = starts[part], ends[part]
    cuts = sorted({(lo + 8 + hi) // 2 if part == "data" else lo, *rng.integers(lo, hi, 6)})
    paths = []
    for cut in cuts:
        paths.append(tmp_path / f"{fmt}-{part}-{cut}.wav")
        paths[-1].write_bytes(raw[:cut])
    return paths
