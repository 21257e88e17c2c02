"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion in addition to the pytest verdicts.
"""

import time

import numpy as np

from cruse.cli import SELFTEST_CHECKS
from cruse.datagen import sample_recipe, shape_rir
from cruse.dsp import StftConfig, istft, make_window, stft
from cruse.macs import macs_gru, macs_lstm, macs_model
from cruse.metrics import level_normalize_pair, loss_ccmse, si_sdr, training_loss
from cruse.models import (
    StreamState,
    build_model,
    cruse_spec,
    infer_frame,
    infer_utterance,
    init_test_weights,
    parse_model_name,
)

CFG = StftConfig()


def _report(num, detail):
    print(f"criterion {num:>2} PASS: {detail}")


def test_criterion_01_mac_reproduction():
    started = time.perf_counter()
    totals = {}
    for skips in ("none", "add", "add_conv1x1", "concat"):
        graph = build_model(cruse_spec(layers=4, last_channels=128, parallel_groups=4,
                                       skip_kind=skips))
        totals[skips] = macs_model(graph).per_frame
    for skips in ("none", "add", "add_conv1x1"):
        assert 4.3e6 * 0.8 <= totals[skips] <= 4.3e6 * 1.2, (skips, totals[skips])
    assert 4.8e6 * 0.8 <= totals["concat"] <= 4.8e6 * 1.2
    ratio = totals["concat"] / totals["add"]
    assert 1.05 <= ratio <= 1.20
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0  # "instant"
    _report(1, f"per-frame MACs {totals}, concat/add ratio {ratio:.3f}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_gru_lstm_ratio_exact():
    for in_dims, width in [(161, 400), (400, 400), (352, 352), (1408, 1408), (7, 13)]:
        gru, lstm = macs_gru(in_dims, width), macs_lstm(in_dims, width)
        assert gru * 4 == lstm * 3  # exactly 0.75, integer identity
        assert gru / lstm == 0.75
    _report(2, "GRU/LSTM MAC ratio exactly 0.75 at all tested dims")


def test_criterion_03_parallel_grouping_exact():
    width = 1408

    def matrix_term(p):
            group = width // p
            return p * 3 * (group * group + group * group)

    assert matrix_term(4) == matrix_term(1) // 4
    assert matrix_term(2) == matrix_term(1) // 2
    # the same holds for the reported RNN rows once biases are subtracted
    bias_macs = 3 * 2 * width
    rnn_rows = {}
    for p in (1, 2, 4):
        graph = build_model(cruse_spec(layers=4, last_channels=128, parallel_groups=p))
        rnn_rows[p] = next(l.macs for l in macs_model(graph).layers if l.name == "rnn")
    assert rnn_rows[4] - bias_macs == (rnn_rows[1] - bias_macs) // 4
    _report(3, f"gate-matrix MACs scale exactly as width^2/P: {rnn_rows}")


def test_criterion_04_stft_properties():
    started = time.perf_counter()
    window = make_window(CFG.window_len)
    wsq = window * window
    cola_err = float(np.max(np.abs(wsq[:160] + wsq[160:] - 1.0)))
    assert cola_err < 1e-9

    rng = np.random.default_rng(42)
    x = rng.standard_normal(16000)
    y = istft(stft(x, CFG), CFG)
    rt_err = float(np.max(np.abs(y - x[: len(y)])) / np.max(np.abs(x)))
    assert rt_err < 1e-6

    # impulse propagation: energy is fully representable once window_len more
    # input samples arrived, and one hop less does not suffice
    for n in (0, 160, 161, 481, 1000, 1601):
        x = np.zeros(3200)
        x[n] = 1.0
        frames = np.where(np.abs(stft(x, CFG)).max(axis=1) > 1e-12)[0]
        horizon = (int(frames.max()) + 1) * CFG.hop_len
        assert horizon <= n + CFG.window_len
        if n % CFG.hop_len == 1:
            assert horizon > n + CFG.window_len - CFG.hop_len
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(4, f"COLA {cola_err:.1e}, round trip {rt_err:.1e}, delay = one window "
               f"(320 samples), {elapsed * 1e3:.0f} ms")


def test_criterion_05_streaming_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((100, 161))
    worst = 0.0
    for name in ("NSnet2-400", "CRUSE4-128-1xGRU4"):
        graph = init_test_weights(build_model(parse_model_name(name)), 1234)
        state = StreamState(graph)
        streamed = np.stack([infer_frame(graph, state, f) for f in feats])
        batch = infer_utterance(graph, feats)
        worst = max(worst, float(np.max(np.abs(streamed - batch))))
    assert worst <= 1e-6

    # block-diagonal GRU equivalence, as checked by `cruse selftest` (max diff < 1e-6)
    block_ok, block_detail = dict(SELFTEST_CHECKS)["block-diagonal-gru-equivalence"]()
    assert block_ok, block_detail

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(5, f"streaming-vs-batch max diff {worst:.2e}, block-diagonal: {block_detail}, "
               f"{elapsed:.2f} s")


def test_criterion_06_loss_closed_forms():
    assert loss_ccmse(np.eye(1, dtype=complex), np.eye(1, dtype=complex)) == 0.0
    v1 = loss_ccmse(np.array([[1.0 + 0j]]), np.array([[0.0 + 0j]]))
    assert abs(v1 - 1.0) <= 1e-9
    v2 = loss_ccmse(np.array([[-1.0 + 0j]]), np.array([[1.0 + 0j]]))
    assert abs(v2 - 1.2) <= 1e-9

    rng = np.random.default_rng(8)
    t = np.arange(16000) / 16000
    target = 0.3 * np.sin(2 * np.pi * 220 * t) + 0.01 * rng.standard_normal(16000)
    pred = stft(target, CFG) * rng.uniform(0.3, 1.0, (100, 161))
    base = training_loss(pred, target)
    assert training_loss(pred * 2.0, target * 2.0) == base  # exact level invariance

    inconsistent = pred + 0.05 * (rng.standard_normal((100, 161)) * (1 + 1j))
    direct = training_loss(inconsistent, target)
    projected = training_loss(stft(istft(inconsistent, CFG), CFG), target)
    assert abs(direct - projected) / max(abs(direct), 1e-12) <= 1e-6
    _report(6, f"closed forms ({0.0:.1f}, {v1:.9f}, {v2:.9f}), exact level invariance, "
               "consistency-path equality")


def test_criterion_07_rir_weighting_closed_forms():
    fs = 16000
    t0 = 400
    rir = np.ones(fs)
    shaped = shape_rir(rir, t0, fs, t60_max=0.3)
    assert abs(shaped[t0] - 1.0) <= 1e-12
    assert abs(shaped[t0 + int(0.15 * fs)] - 1e-3) <= 1e-12
    _report(7, "weight(t0) = 1 and weight(t0 + 150 ms) = 1e-3 to 1e-12")


def test_criterion_08_datagen_statistics(asset_store):
    started = time.perf_counter()
    rng = np.random.default_rng(20240101)
    recipes = [sample_recipe(rng, asset_store) for _ in range(10_000)]
    snrs = np.array([r.snr_db for r in recipes])
    levels = np.array([r.level_dbfs for r in recipes])
    assert abs(snrs.mean() - 5.0) <= 0.5
    assert abs(snrs.std(ddof=1) - 10.0) <= 0.5
    assert abs(levels.mean() - (-28.0)) <= 0.5
    nonrev = [r for r in recipes if not asset_store.entries[r.speech_ids[0]].reverberant]
    frac = sum(r.rir_id is None for r in nonrev) / len(nonrev)
    assert abs(frac - 0.20) <= 0.02
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(8, f"SNR mean {snrs.mean():.2f} std {snrs.std(ddof=1):.2f}, level mean "
               f"{levels.mean():.2f}, no-RIR fraction {frac:.3f}, {elapsed:.1f} s")


def test_criterion_09_latency_budget():
    rng = np.random.default_rng(9)
    feats = rng.standard_normal(161)

    def frame_times(graph, frames=200):
        state = StreamState(graph)
        for _ in range(20):
            infer_frame(graph, state, feats)
        times = np.empty(frames)
        for i in range(frames):
            t0 = time.perf_counter()
            infer_frame(graph, state, feats)
            times[i] = time.perf_counter() - t0
        return times * 1e3

    target = init_test_weights(build_model(parse_model_name("CRUSE4-128-1xGRU4")), 1234)
    target_ms = frame_times(target)
    assert target_ms.mean() < 10.0  # the hop-size budget

    nsnet = init_test_weights(build_model(parse_model_name("NSnet2-500")), 1234)
    wide = init_test_weights(build_model(parse_model_name("CRUSE4-128-1xGRU1")), 1234)
    nsnet_ms = frame_times(nsnet)
    wide_ms = frame_times(wide)
    assert np.median(nsnet_ms) < np.median(wide_ms)
    _report(9, f"CRUSE4-128-1xGRU4 mean {target_ms.mean():.2f} ms/frame (< 10 ms); "
               f"NSnet2-500 median {np.median(nsnet_ms):.2f} ms < CRUSE4-128-1xGRU1 "
               f"median {np.median(wide_ms):.2f} ms")


def test_criterion_10_sisdr_properties():
    rng = np.random.default_rng(10)
    ref = rng.standard_normal(16000)
    assert si_sdr(ref, ref) == 100.0
    assert si_sdr(2.0 * ref, ref) == 100.0
    assert si_sdr(0.25 * ref, ref) == 100.0

    w = rng.standard_normal(16000)
    w -= (np.dot(w, ref) / np.dot(ref, ref)) * ref
    w *= np.linalg.norm(ref) / np.linalg.norm(w)
    zero_db = si_sdr(ref + w, ref)
    assert abs(zero_db) <= 0.01
    _report(10, f"identity/scale capped at +100 dB, orthogonal construction {zero_db:+.4f} dB")
