"""Command-line entry points: enhance, profile, datagen, evaluate, selftest.

Data goes to files or standard output; diagnostics go to the error stream.
All subcommands are deterministic given their inputs and the --seed flag.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import datagen as dg
from . import metrics as mt
from .audio_io import read_wav, write_wav
from .dsp import SAMPLE_RATE, StftConfig, istft, make_window, stft
from .layers import GRU_GATES, gru_step, zero_rnn_weights
from .macs import macs_gru, macs_lstm, macs_model
from .models import (
    SKIP_KINDS,
    StreamState,
    build_model,
    format_model_name,
    infer_frame,
    infer_utterance,
    init_test_weights,
    load_weights,
    parse_model_name,
    rnn_block_step,
)
from .streaming import enhance_signal

DEFAULT_SEED = 1234
DEFAULT_MODEL = "CRUSE4-128-1xGRU4"


def _load_graph(args):
    if args.bundle:
        return load_weights(args.bundle)
    print(
        f"warning: no --bundle given; using seeded test weights for {args.model} "
        "(untrained, for latency benchmarking only)",
        file=sys.stderr,
    )
    graph = build_model(parse_model_name(args.model))
    return init_test_weights(graph, args.seed)


def cmd_enhance(args) -> int:
    samples, rate = read_wav(args.input)
    if rate != SAMPLE_RATE:
        raise ValueError(
            f"{args.input}: sample rate {rate} not supported; expected {SAMPLE_RATE} "
            "(no implicit resampling)"
        )
    graph = _load_graph(args)
    enhanced, stats = enhance_signal(graph, samples)
    clipped = write_wav(args.output, enhanced, rate, fmt=args.wav_format)
    print(
        f"{format_model_name(graph.spec)}: {stats.frames} frames, "
        f"mean {stats.mean_frame_ms:.3f} ms/frame, max {stats.max_frame_ms:.3f} ms, "
        f"realtime factor {stats.realtime_factor:.4f}, {clipped} clipped samples",
        file=sys.stderr,
    )
    return 0


def _profile_rows(names, skip_kind):
    rows = []
    for name in names:
        spec = parse_model_name(name)
        if skip_kind and spec.family == "cruse":
            spec = dataclasses.replace(spec, skip_kind=skip_kind)
        report = macs_model(build_model(spec))
        rows.append((name, report.params, report.per_frame, report.per_second))
    return rows


def cmd_profile(args) -> int:
    rows = _profile_rows(args.models, args.skips)
    header = ("model", "params", "macs_per_frame", "macs_per_second")
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [max(len(str(v)) for v in [h, *col]) for h, col in zip(header, zip(*rows))]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return 0


def cmd_datagen(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = dg.AssetStore.from_manifest(args.manifest)
    rng = np.random.default_rng(args.seed)
    log_path = out_dir / "recipes.log"
    with open(log_path, "w") as log:
        for i in range(args.count):
            recipe = dg.sample_recipe(rng, store)
            if not args.recipes_only:
                pair = dg.generate_pair(recipe, store)
                write_wav(out_dir / f"pair{i:05d}_noisy.wav", pair.noisy, SAMPLE_RATE)
                write_wav(out_dir / f"pair{i:05d}_target.wav", pair.target, SAMPLE_RATE)
            log.write(recipe.to_json() + "\n")
    what = "recipes" if args.recipes_only else "pairs"
    print(f"wrote {args.count} {what} and {log_path}", file=sys.stderr)
    return 0


def _paired_files(enhanced_dir, reference_dir):
    enh = {p.name: p for p in sorted(Path(enhanced_dir).glob("*.wav"))}
    ref = {p.name: p for p in sorted(Path(reference_dir).glob("*.wav"))}
    orphans = sorted(set(enh) ^ set(ref))
    if orphans:
        raise ValueError(
            "enhanced/reference file sets differ; unmatched: " + ", ".join(orphans)
        )
    if not enh:
        raise ValueError("no WAV files to evaluate")
    return [(name, enh[name], ref[name]) for name in sorted(enh)]


def cmd_evaluate(args) -> int:
    scores = {}
    if args.scores:
        scores = mt.read_scores_file(args.scores)
    else:
        print("warning: no external scores file; Q column omitted", file=sys.stderr)

    cfg = StftConfig()
    rows = []
    for name, enh_path, ref_path in _paired_files(args.enhanced, args.reference):
        est, _ = read_wav(enh_path)
        ref, _ = read_wav(ref_path)
        n = min(len(est), len(ref))
        est, ref = est[:n], ref[:n]
        sisdr = mt.si_sdr(est, ref)
        cd = mt.cepstral_distance(est, ref, cfg)
        est_n, ref_n = mt.level_normalize_pair(est, ref)
        loss = mt.loss_ccmse(stft(ref_n, cfg), stft(est_n, cfg))
        row = {"id": name, "sisdr": sisdr, "cd": cd, "loss": loss}
        ext = scores.get(Path(name).stem) or scores.get(name)
        if ext:
            ss = mt.ScoreSet(sisdr=sisdr, cd=cd, pesq=ext["pesq"], dnsmos=ext.get("dnsmos"))
            row["q"] = mt.validation_q(ss)
        rows.append(row)

    fields = ["id", "sisdr", "cd", "loss"] + (["q"] if any("q" in r for r in rows) else [])
    mean_row = {"id": "mean"} | {
        f: float(np.mean([r[f] for r in rows if f in r])) for f in fields[1:]
    }
    out = rows + [mean_row]
    if args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=fields, restval="")
        writer.writeheader()
        for r in out:
            writer.writerow({k: (f"{v:.4f}" if isinstance(v, float) else v) for k, v in r.items()})
    else:
        print("  ".join(f.ljust(12) for f in fields))
        for r in out:
            cells = [str(r.get("id", "")).ljust(12)] + [
                (f"{r[f]:.4f}" if f in r else "-").ljust(12) for f in fields[1:]
            ]
            print("  ".join(cells))
    return 0


# ---------------------------------------------------------------------------
# Self-check suite


def _check_cola():
    window = make_window(320)
    wsq = window * window
    overlap = wsq[:160] + wsq[160:]
    err = float(np.max(np.abs(overlap - 1.0)))
    return err < 1e-9, f"max deviation {err:.2e}"


def _check_roundtrip():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(16000)
    cfg = StftConfig()
    y = istft(stft(x, cfg), cfg)
    err = float(np.max(np.abs(y - x[: len(y)])) / np.max(np.abs(x)))
    return err < 1e-6, f"relative error {err:.2e}"


def _check_streaming_equivalence():
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-64-1xGRU2")), 99)
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((30, 161))
    state = StreamState(graph)
    streamed = np.stack([infer_frame(graph, state, f) for f in feats])
    err = float(np.max(np.abs(streamed - infer_utterance(graph, feats))))
    return err < 1e-6, f"max gain difference {err:.2e}"


def _check_block_diagonal_gru():
    # the P groups of a seeded bottleneck against one block-diagonal GRU
    graph = init_test_weights(build_model(parse_model_name("CRUSE4-64-1xGRU4")), 11)
    layer = graph.bottleneck
    cells = [stack[0] for stack in layer.groups]
    p, chunk = len(cells), cells[0].width
    width = p * chunk
    big = zero_rnn_weights(GRU_GATES, width, width)
    for g, cell in enumerate(cells):
        lo = g * chunk
        for gate in range(GRU_GATES):
            rows = slice(gate * width + lo, gate * width + lo + chunk)
            cell_rows = slice(gate * chunk, (gate + 1) * chunk)
            big.w_input[rows, lo : lo + chunk] = cell.w_input[cell_rows]
            big.w_hidden[rows, lo : lo + chunk] = cell.w_hidden[cell_rows]
            big.b_input[rows] = cell.b_input[cell_rows]
            big.b_hidden[rows] = cell.b_hidden[cell_rows]
    rng = np.random.default_rng(11)
    x = rng.standard_normal(width)
    h = rng.standard_normal(width)
    grouped = rnn_block_step(layer, x, [[[h[g * chunk : (g + 1) * chunk]]] for g in range(p)])
    full, _ = gru_step(big, x, h)
    err = float(np.max(np.abs(grouped - full)))
    return err < 1e-6, f"{p} groups of {chunk}, max difference {err:.2e}"


def _check_mac_monotonicity():
    widths = {}
    for p in (1, 2, 4):
        graph = build_model(parse_model_name(f"CRUSE4-128-1xGRU{p}"))
        widths[p] = macs_model(graph).per_frame
    ratio_ok = macs_gru(400, 400) * 4 == macs_lstm(400, 400) * 3
    mono = widths[4] < widths[2] < widths[1]
    return mono and ratio_ok, f"per-frame MACs {widths}, GRU/LSTM ratio exact: {ratio_ok}"


def _check_rir_shaping():
    # at half of T60_MAX_S = 0.3 s the weight is exactly 10**-3
    fs = SAMPLE_RATE
    t0 = 50
    rir = np.zeros(fs)
    rir[t0:] = 1.0  # constant tail isolates the weighting itself
    shaped = dg.shape_rir(rir, t0)
    at_t0 = abs(shaped[t0] - 1.0)
    at_150ms = abs(shaped[t0 + int(0.15 * fs)] - 1e-3)
    ok = at_t0 < 1e-12 and at_150ms < 1e-12 and np.all(np.diff(shaped[t0:]) < 0)
    return ok, f"|w(t0)-1|={at_t0:.1e}, |w(t0+150ms)-1e-3|={at_150ms:.1e}"


SELFTEST_CHECKS = [
    ("cola-window-identity", _check_cola),
    ("stft-round-trip", _check_roundtrip),
    ("streaming-vs-batch-inference", _check_streaming_equivalence),
    ("block-diagonal-gru-equivalence", _check_block_diagonal_gru),
    ("mac-monotonicity-and-ratio", _check_mac_monotonicity),
    ("rir-shaping-closed-forms", _check_rir_shaping),
]


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in SELFTEST_CHECKS:
        started = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed property is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name} ({elapsed:.3f} s): {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cruse",
        description="Streaming frequency-domain noise suppression toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "enhance", help="denoise a 16 kHz mono WAV file, streaming it 64 hops per call"
    )
    p.add_argument("input", help="input WAV (16 kHz mono, PCM16 or float32)")
    p.add_argument("output", help="output WAV path")
    p.add_argument("--model", default=DEFAULT_MODEL, help=f"model name (default {DEFAULT_MODEL})")
    p.add_argument("--bundle", help="weight bundle path (omitting it uses seeded test weights)")
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"test-weight seed (default {DEFAULT_SEED})"
    )
    p.add_argument("--wav-format", choices=("pcm16", "float32"), default="pcm16")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("profile", help="report per-model parameter and MAC counts")
    p.add_argument("models", nargs="+", help="model names, e.g. NSnet2-400 CRUSE4-128-1xGRU4")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument(
        "--skips",
        choices=SKIP_KINDS,
        help="override the CRUSE skip-connection type (default: add)",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("datagen", help="synthesize (noisy, target) training pairs")
    p.add_argument("--manifest", required=True, help="asset manifest CSV (path,kind,t60,c50)")
    p.add_argument("--count", type=int, required=True, help="number of pairs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}")
    p.add_argument(
        "--recipes-only",
        action="store_true",
        help="write only the recipe log, no audio (fast distribution checks)",
    )
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("evaluate", help="score enhanced files against references")
    p.add_argument("--enhanced", required=True, help="directory of enhanced WAV files")
    p.add_argument("--reference", required=True, help="directory of reference WAV files")
    p.add_argument("--scores", help="external scores CSV (id,pesq[,dnsmos]) enabling the Q column")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("selftest", help="run the built-in property checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
