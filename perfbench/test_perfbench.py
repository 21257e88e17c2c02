"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cruse  # noqa: E402
import cruse.layers  # noqa: E402
import cruse.models  # noqa: E402
import cruse.streaming  # noqa: E402
from cruse.macs import LayerMacs  # noqa: E402
from measure import (  # noqa: E402
    MacJoin,
    Tracer,
    aggregate,
    layer_metrics,
    per_layer_units,
    self_times,
    tail_supported,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _graph(name, seed=5):
    return cruse.init_test_weights(cruse.build_model(cruse.parse_model_name(name)), seed)


# --- percentile rule --------------------------------------------------------


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert tail_supported(1000, 99)
    assert not tail_supported(999, 99)
    assert tail_supported(20, 50)
    assert not tail_supported(19, 50)
    assert tail_supported(100, 90)
    assert not tail_supported(99, 90)


# --- self time ----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # (span, name, start, end, parent, op): root [0, 10] holds a [1, 4] and
    # b [5, 7]; a holds leaf [2, 3].
    spans = [
        (2, "leaf", 2.0, 3.0, 1, 1),
        (1, "a", 1.0, 4.0, 0, 1),
        (3, "b", 5.0, 7.0, 0, 1),
        (0, "root", 0.0, 10.0, -1, 1),
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    assert aggregate(spans + [(4, "b", 11.0, 11.5, -1, 2)]) == {
        "root": (1, 5.0), "a": (1, 2.0), "leaf": (1, 1.0), "b": (2, 2.5),
    }


def test_layer_metrics_reports_uncalled_names_as_zero():
    graph = _graph("NSnet2-16")
    join = MacJoin(graph, cruse.macs_model(graph))
    spans = [(0, "layers.fc_forward", 0.0, 0.002, -1, 1)]
    out = layer_metrics(spans, ops=2, op_seconds=0.004, frames=2, join=join)
    assert out["layers.fc_forward.calls"] == 0.5
    assert out["layers.fc_forward.share"] == pytest.approx(0.5)
    assert out["layers.fc_forward.gmacs"] == pytest.approx(join.macs["layers.fc_forward"] * 2 / 0.002 / 1e9)
    assert out["layers.lstm_step.calls"] == 0
    assert out["layers.lstm_step.gmacs"] == 0
    assert out["trace.unattributed_frac"] == pytest.approx(0.5)


def test_tracer_wraps_every_binding_nests_spans_and_restores():
    graph = _graph("CRUSE2-32-1xGRU2")
    original = cruse.layers.gru_step
    original_hop = cruse.streaming.StreamingEnhancer.process_hop
    tracer = Tracer()
    with tracer:
        assert cruse.layers.gru_step is not original
        assert cruse.models.gru_step is cruse.layers.gru_step
        assert cruse.infer_frame is cruse.streaming.infer_frame
        enhancer = cruse.streaming.StreamingEnhancer(graph)
        for op in (1, 2):
            tracer.op = op
            enhancer.process_hop(np.full(160, 0.1))
    assert cruse.layers.gru_step is original and cruse.models.gru_step is original
    assert cruse.streaming.StreamingEnhancer.process_hop is original_hop

    totals = aggregate(tracer.spans)
    assert totals["streaming.process_hop"][0] == 2
    assert totals["models.infer_frame"][0] == 2
    assert totals["layers.gru_step"][0] == 4
    assert totals["layers.conv2d_step"][0] == 4
    assert totals["layers.tconv2d_step"][0] == 4
    roots = [s for s in tracer.spans if s[4] == -1]
    assert [s[1] for s in roots] == ["streaming.process_hop"] * 2
    for op in (1, 2):
        root = next(s for s in roots if s[5] == op)
        in_op = sum(total for sid, total in self_times(tracer.spans).items()
                    if next(s for s in tracer.spans if s[0] == sid)[5] == op)
        assert in_op == pytest.approx(root[3] - root[2], rel=1e-9)


def test_tracer_skips_absent_functions():
    tracer = Tracer()
    tracer.install(targets=(("layers", "no_such_function"), ("nomodule", "f"),
                            ("streaming", "NoClass.method")))
    tracer.uninstall()
    assert tracer.spans == []


# --- MAC join -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["NSnet2-400", "CRUSE4-128-1xGRU4", "CRUSE5-256-2xLSTM1"])
def test_mac_join_is_exact_for_benchmark_models(name):
    graph = cruse.build_model(cruse.parse_model_name(name))
    report = cruse.macs_model(graph)
    join = MacJoin(graph, report)
    assert sum(join.macs.values()) == report.per_frame
    rnn = "layers.gru_step" if "GRU" in name or name.startswith("NSnet2") else "layers.lstm_step"
    assert join.macs[rnn] > 0
    params = sum(arr.nbytes for layer in graph.iter_layers() for _, arr in layer.param_arrays())
    assert sum(join.weight_bytes.values()) == params


def test_mac_join_maps_conv1x1_skips_and_rejects_unknown_rows():
    graph = cruse.build_model(cruse.cruse_spec(layers=2, last_channels=32, skip_kind="add_conv1x1"))
    report = cruse.macs_model(graph)
    join = MacJoin(graph, report)
    assert join.macs["layers.skip_combine"] > 0
    row = LayerMacs(report.layers[0].name, "Bogus", report.layers[0].macs)
    bogus = cruse.MacReport(report.model, (row,), report.params)
    with pytest.raises(ValueError, match="Bogus"):
        MacJoin(graph, bogus)


# --- correctness check ----------------------------------------------------------


def test_stream_check_flags_a_hop_that_differs_from_the_batch_path():
    import workloads

    wl = workloads.Workload("tiny", "NSnet2-32", 2, 5, check_hops=20)
    run = workloads.StreamRun(wl, seed=3)
    run.phase(float("inf"), max_ops=20)
    clean = workloads.Outcome()
    run.finish(clean)
    assert (clean.attempted, clean.failed) == (40, 0)
    run.kept[1, 7, 3] += 1e-9
    flagged = workloads.Outcome()
    run.finish(flagged)
    assert flagged.failed == 1 and run.failed_hops[1] == {7}


def test_stream_inputs_cost_the_same_to_synthesize_for_every_seed():
    import workloads

    lengths = None
    for seed in (1, 2, 3):
        store = workloads.synth_assets(seed)
        seen = [len(store.load(e.asset_id)) for e in store.speech + store.noise + store.rirs]
        assert lengths is None or seen == lengths
        lengths = seen
        rng = np.random.default_rng(seed)
        recipes = [workloads.reverberant_recipe(rng, store) for _ in range(4)]
        assert all(r.rir_id is not None for r in recipes)
        assert {len(r.speech_ids) for r in recipes} == {3}


def test_stream_cruse4x4_checks_every_hop_before_its_input_wraps():
    import workloads

    wl = workloads.WORKLOADS["stream-cruse4x4"]
    assert wl.check_hops * workloads.CFG.hop_len == int(workloads.STREAM_CLIP_S * workloads.CFG.sample_rate)


# --- the benchmark definition and smoke runs ------------------------------------


def test_benchmark_json_lists_every_per_layer_metric():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == per_layer_units()
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in names and len(set(names)) == len(names)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    result = _run("offline-corpus", 1)
    assert result["correct"]
    assert set(result["metrics"]) == set(per_layer_units())
    assert result["metrics"]["layers.fc_forward.calls"]["value"] > 0
    assert result["metrics"]["layers.lstm_step.calls"]["value"] == 0
