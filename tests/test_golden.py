"""Golden outputs of seeded models and of seeded training pairs, pinned
across refactors of the engine, the data synthesis and the metrics.

Each model is built with ``init_test_weights(..., 1234)``.  The bundle written
by ``save_weights`` must keep its exact bytes (SHA-256), and the streamed
``enhance_signal`` output on a fixed seeded signal must keep three random
projections to 1e-10.  Each training pair is ``generate_pair`` of a 2 s recipe
drawn by ``sample_recipe`` from a seeded generator over the conftest assets;
its noisy and target signals keep three random projections to 1e-10, and
the scores of one pair are pinned too.
"""

import hashlib

import numpy as np
import pytest

from cruse.datagen import generate_pair, sample_recipe
from cruse.dsp import stft
from cruse.metrics import cepstral_distance, level_normalize_pair, training_loss
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


def _projections(x):
    return np.random.default_rng(5).standard_normal((3, len(x))) @ x


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
    np.testing.assert_allclose(_projections(out), projections, rtol=0, atol=1e-10)


def _seeded_pair(asset_store, seed):
    recipe = sample_recipe(np.random.default_rng(seed), asset_store, clip_seconds=2.0)
    return recipe, generate_pair(recipe, asset_store)


# recipe seed: (RIR, noisy projections, target projections)
PAIR_GOLDEN = {
    1: (
        None,
        (-0.9054632061116715, -0.4713928606446498, 1.523367561237305),
        (-0.6651154789388044, -0.4955265737469694, 1.5870364714954575),
    ),
    9: (
        "rir_room.wav",
        (1.9899770281988296, 41.553956729858356, 74.20846000067144),
        (-0.08025227244177428, 6.419353061676603, 12.381717855860503),
    ),
}


@pytest.mark.parametrize("seed", sorted(PAIR_GOLDEN))
def test_seeded_training_pair_matches_golden(seed, asset_store):
    rir_id, noisy, target = PAIR_GOLDEN[seed]
    recipe, pair = _seeded_pair(asset_store, seed)
    assert recipe.rir_id == rir_id
    np.testing.assert_allclose(_projections(pair.noisy), noisy, rtol=0, atol=1e-10)
    np.testing.assert_allclose(_projections(pair.target), target, rtol=0, atol=1e-10)


def test_scores_of_a_seeded_reverberant_pair_match_golden(asset_store):
    _, pair = _seeded_pair(asset_store, 9)
    assert abs(cepstral_distance(pair.noisy, pair.target) - 6.2654193869581825) <= 1e-10
    # a sum over every bin of every frame, near 8e4: pinned relative to its size
    loss = training_loss(stft(pair.noisy), pair.target)
    np.testing.assert_allclose(loss, 76657.73120271112, rtol=1e-12)
    pred_n, target_n = level_normalize_pair(pair.noisy, pair.target)
    np.testing.assert_allclose(
        _projections(pred_n), (30.204038217702973, 630.7094400488775, 1126.3422291692925),
        rtol=0, atol=1e-10,
    )
    np.testing.assert_allclose(
        _projections(target_n), (-1.2180757212475426, 97.43347911071255, 187.93075197341358),
        rtol=0, atol=1e-10,
    )
