"""Seeded corruption of weight bundles: loading either succeeds or raises ValueError.

Truncations and single-bit flips hit the magic, the manifest length field and
the manifest of two small bundles.  The cases are generated one at a time, so
that only one corrupted copy of a bundle exists at once; a flip rewrites only
the header of the bundle file in place.  Value edits keep the manifest valid
JSON but change one spec or convention field; a bundle that still loads must
be the model its edited manifest describes, and run.
"""

import json

import numpy as np
import pytest

from cruse.models import (
    BUNDLE_MAGIC,
    _manifest,
    build_model,
    cruse_spec,
    infer_utterance,
    init_test_weights,
    load_weights,
    nsnet2_spec,
    save_weights,
)

TRUNCATIONS = 200
FLIPS = 1500
EDITS_PER_FIELD = 12

# JSON values an edit draws from, besides near misses of the field's own value
VALUES = [
    0, 1, -1, 2, 3, 8, 16, 33, 161, 2.0, 0.5, True, False, None, "", "gru", "lstm", "GRU",
    "none", "add", "adl", "concat", "add_conv1x1", "nsnet2", "cruse", "r,z,n", [], [2, 3],
    [1, 3], [2, 5], [3], [8], [16, 8], {},
]

BUNDLE_SPECS = pytest.mark.parametrize(
    "spec",
    [nsnet2_spec(16), cruse_spec(layers=2, last_channels=8, parallel_groups=2, num_bins=33)],
    ids=["NSnet2-16", "CRUSE2-8-1xGRU2-33bins"],
)


def _header_len(raw: bytes) -> int:
    off = len(BUNDLE_MAGIC)
    return off + 4 + int.from_bytes(raw[off : off + 4], "little")


def _truncations(raw: bytes, rng):
    for cut in rng.integers(0, _header_len(raw) + 1, TRUNCATIONS):
        yield f"truncated to {cut} bytes", raw[:cut]


def _flipped_headers(raw: bytes, rng):
    header = raw[: _header_len(raw)]
    for bit in rng.integers(0, 8 * len(header), FLIPS):
        flipped = bytearray(header)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", flipped


@BUNDLE_SPECS
def test_corrupted_bundles_raise_only_value_error(tmp_path, spec):
    original = init_test_weights(build_model(spec), 3)
    bundle = tmp_path / "w.cwb"
    save_weights(original, bundle)
    raw = bundle.read_bytes()
    expected = [arr for layer in original.iter_layers() for _, arr in layer.param_arrays()]
    rng = np.random.default_rng(11)

    def loads(path, what) -> bool:
        try:
            graph = load_weights(path)
        except ValueError:
            return False
        except Exception as exc:  # any other type is the failure under test
            pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
        # a flip the loader ignores (say, in a conventions string) must still
        # put every blob value in place, tconv weights stored as views included
        got = [arr for layer in graph.iter_layers() for _, arr in layer.param_arrays()]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected)), what
        return True

    short = tmp_path / "short.cwb"
    for what, data in _truncations(raw, rng):
        short.write_bytes(data)
        assert not loads(short, what)
    for what, header in _flipped_headers(raw, rng):
        with open(bundle, "r+b") as fh:
            fh.write(header)
        loads(bundle, what)


def _near_misses(value):
    if isinstance(value, bool) or value is None:
        return []
    if isinstance(value, (int, float)):
        return [value + 1, value - 1, value * 2]
    if isinstance(value, str):
        return [value[::-1], value.upper(), value + "x"]
    return [value + [1], value[:-1], [v + 1 for v in value]]


def _value_edits(manifest, rng):
    for section in ("spec", "conventions"):
        for key, value in manifest[section].items():
            picks = rng.choice(len(VALUES), EDITS_PER_FIELD, replace=False)
            for new in [VALUES[i] for i in picks] + _near_misses(value):
                edited = json.loads(json.dumps(manifest))
                edited[section][key] = new
                yield f"{section}.{key} = {new!r}", edited


@BUNDLE_SPECS
def test_value_edits_raise_value_error_or_load_the_edited_model(tmp_path, spec):
    bundle = tmp_path / "w.cwb"
    save_weights(init_test_weights(build_model(spec), 3), bundle)
    raw = bundle.read_bytes()
    header = _header_len(raw)
    manifest = json.loads(raw[len(BUNDLE_MAGIC) + 4 : header])
    rng = np.random.default_rng(12)
    loaded = 0
    for what, edited in _value_edits(manifest, rng):
        text = json.dumps(edited).encode()
        bundle.write_bytes(BUNDLE_MAGIC + len(text).to_bytes(4, "little") + text + raw[header:])
        try:
            graph = load_weights(bundle)
        except ValueError:
            continue
        except Exception as exc:  # any other type is the failure under test
            pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
        assert _manifest(graph) == edited, what
        assert np.isfinite(infer_utterance(graph, np.zeros((2, graph.spec.num_bins)))).all()
        loaded += 1
    assert loaded > 0  # unchanged values and shape-preserving edits load
