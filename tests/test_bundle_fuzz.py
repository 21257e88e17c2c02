"""Seeded corruption of weight bundles: loading either succeeds or raises ValueError.

Truncations and single-bit flips hit the magic, the manifest length field and
the manifest of two small bundles.  The cases are generated one at a time, so
that only one corrupted copy of a bundle exists at once; a flip rewrites only
the header of the bundle file in place.
"""

import numpy as np
import pytest

from cruse.models import (
    BUNDLE_MAGIC,
    build_model,
    cruse_spec,
    init_test_weights,
    load_weights,
    nsnet2_spec,
    save_weights,
)

TRUNCATIONS = 200
FLIPS = 1500


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


@pytest.mark.parametrize(
    "spec",
    [nsnet2_spec(16), cruse_spec(layers=2, last_channels=8, parallel_groups=2, num_bins=33)],
    ids=["NSnet2-16", "CRUSE2-8-1xGRU2-33bins"],
)
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
