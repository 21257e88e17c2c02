"""Golden outputs of seeded models, pinned across refactors of the engine.

Each model is built with ``init_test_weights(..., 1234)``.  The bundle written
by ``save_weights`` must keep its exact bytes (SHA-256), and the streamed
``enhance_signal`` output on a fixed seeded signal must keep three random
projections to 1e-10.
"""

import hashlib

import numpy as np
import pytest

from cruse.models import build_model, init_test_weights, parse_model_name, save_weights
from cruse.streaming import enhance_signal

GOLDEN = {
    "NSnet2-64": (
        "151d697f8e68a5103440fc618d08638ee0ee99a3c7e4c73cbfb46d7f0a52bfda",
        (-1.2502629109829362, 0.40716382453610056, -1.545407622293293),
    ),
    "CRUSE4-64-1xGRU4": (
        "ac91634e009040c8098974998d1a3fe1fe5a89b93df4326d2646f4e5e3bea91a",
        (-1.0399290880213443, 0.7751683369902689, -1.246207004887326),
    ),
    "CRUSE4-64-2xLSTM2": (
        "39573f99267b6e44dca364a60d12f8aa456c07e92380992c99204185d596f909",
        (-1.127705116752733, 0.6235266149296028, -1.3449570339517438),
    ),
    "CRUSE3-32-2xGRU2": (
        "aeab5eafd7b3ccf294022e14b13de23d2b37dd7c4fc1b9e91a881ea242e24034",
        (-1.0047374035501715, 0.8648699915095815, -1.3607371015385252),
    ),
}


@pytest.fixture(scope="module")
def signal():
    return 0.1 * np.random.default_rng(2021).standard_normal(3200)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_bundle_and_output_match_golden(name, signal, tmp_path):
    bundle_sha, projections = GOLDEN[name]
    graph = init_test_weights(build_model(parse_model_name(name)), 1234)
    path = tmp_path / "w.cwb"
    save_weights(graph, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == bundle_sha

    out, _ = enhance_signal(graph, signal)
    basis = np.random.default_rng(5).standard_normal((3, len(signal)))
    np.testing.assert_allclose(basis @ out, projections, rtol=0, atol=1e-10)
