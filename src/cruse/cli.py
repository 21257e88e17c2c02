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
from .audio_io import read_pipeline_wav, write_wav
from .dsp import SAMPLE_RATE, StftConfig, istft, stft
from .macs import macs_gru, macs_lstm, macs_model
from .models import (
    SKIP_KINDS,
    _build_graph,
    _zero_view,
    build_model,
    format_model_name,
    infer_frame,
    infer_utterance,
    init_test_weights,
    load_weights,
    parse_model_name,
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
    samples = read_pipeline_wav(args.input)
    graph = _load_graph(args)
    enhanced, stats = enhance_signal(graph, samples)
    clipped = write_wav(args.output, enhanced, SAMPLE_RATE, fmt=args.wav_format)
    print(
        f"{format_model_name(graph.spec)}: {stats.frames} frames, "
        f"mean {stats.mean_frame_ms:.3f} ms/frame, max {stats.max_frame_ms:.3f} ms, "
        f"realtime factor {stats.realtime_factor:.4f}, {clipped} clipped samples, "
        f"{stats.nonfinite_hops} non-finite hops, {stats.state_resets} state resets",
        file=sys.stderr,
    )
    return 0


def _profile_rows(names, skip_kind):
    rows = []
    for name in names:
        try:
            spec = parse_model_name(name)
            if skip_kind and spec.family == "cruse":
                spec = dataclasses.replace(spec, skip_kind=skip_kind)
            report = macs_model(_build_graph(spec, _zero_view))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
        rows.append((name, report.params, report.per_frame, report.per_second))
    return rows


def _write_table(fmt: str, header, rows) -> None:
    """Print ``rows`` under ``header`` as CSV or as left-aligned text columns.

    Floats get 4 decimals; a missing cell (``None``) is an empty CSV field
    and ``-`` in text.
    """
    cells = [["" if v is None else f"{v:.4f}" if isinstance(v, float) else str(v) for v in row]
             for row in rows]
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return
    cells = [[c or "-" for c in row] for row in cells]
    widths = [max(map(len, col)) for col in zip(header, *cells)]
    for row in [header, *cells]:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def cmd_profile(args) -> int:
    header = ("model", "params", "macs_per_frame", "macs_per_second")
    _write_table(args.format, header, _profile_rows(args.models, args.skips))
    return 0


def cmd_datagen(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = dg.AssetStore.from_manifest(args.manifest)
    rng = np.random.default_rng(args.seed)
    log_path = out_dir / "recipes.log"
    with open(log_path, "w") as log:
        for i in range(args.count):
            recipe = dg.sample_recipe(rng, store)
            if not args.recipes_only:
                try:
                    pair = dg.generate_pair(recipe, store)
                except ValueError as exc:
                    rir = (recipe.rir_id,) if recipe.rir_id else ()
                    ids = dict.fromkeys(recipe.speech_ids + recipe.noise_ids + rir)
                    raise ValueError(f"pair {i} ({', '.join(ids)}): {exc}") from exc
                write_wav(out_dir / f"pair{i:05d}_noisy.wav", pair.noisy, SAMPLE_RATE)
                write_wav(out_dir / f"pair{i:05d}_target.wav", pair.target, SAMPLE_RATE)
            log.write(recipe.to_json() + "\n")
    what = "recipes" if args.recipes_only else "pairs"
    print(f"wrote {args.count} {what} and {log_path}", file=sys.stderr)
    return 0


def _paired_files(enhanced_dir, reference_dir):
    for directory in (enhanced_dir, reference_dir):
        if not Path(directory).is_dir():
            raise ValueError(f"{directory}: not a directory")
    # a .wav suffix in any case; names still pair exactly
    enh, ref = ({p.name: p for p in Path(d).iterdir() if p.name.lower().endswith(".wav")}
                for d in (enhanced_dir, reference_dir))
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
        est = read_pipeline_wav(enh_path)
        ref = read_pipeline_wav(ref_path)
        n = min(len(est), len(ref))
        est, ref = est[:n], ref[:n]
        try:
            sisdr = mt.si_sdr(est, ref)
            cd = mt.cepstral_distance(est, ref, cfg)
            est_n, ref_n = mt.level_normalize_pair(est, ref)
            loss = mt.loss_ccmse(stft(ref_n, cfg), stft(est_n, cfg))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
        row = {"id": name, "sisdr": sisdr, "cd": cd, "loss": loss}
        ext = scores.get(Path(name).stem) or scores.get(name)
        if ext:
            row["q"] = mt.validation_q(ext["pesq"], sisdr, cd)
        rows.append(row)

    fields = ["id", "sisdr", "cd", "loss"] + (["q"] if any("q" in r for r in rows) else [])
    mean_row = {"id": "mean"} | {
        f: float(np.mean([r[f] for r in rows if f in r])) for f in fields[1:]
    }
    _write_table(args.format, fields, [[r.get(f) for f in fields] for r in rows + [mean_row]])
    return 0


# ---------------------------------------------------------------------------
# Self-check suite


def _check_cola():
    # the envelope _overlap_add divides by
    err = float(np.max(np.abs(StftConfig._cola - 1.0)))
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
    state = graph.zero_state()
    streamed = np.stack([infer_frame(graph, state, f) for f in feats])
    err = float(np.max(np.abs(streamed - infer_utterance(graph, feats))))
    return err < 1e-6, f"max gain difference {err:.2e}"


def _block_diagonal_layer(layer):
    """``layer``'s P groups as one group of the whole width.

    Cell n of the result has gate matrices block-diagonal with the P groups'
    cell-n matrices, and biases the group biases in order.
    """
    p, cells, rows, w = layer.w_hidden.shape
    gates = rows // w
    mats = []
    for stacked in (layer.w_input, layer.w_hidden):
        big = np.zeros((cells, gates, p, w, p, w))
        for g in range(p):
            big[:, :, g, :, g] = stacked[g].reshape(cells, gates, w, w)
        mats.append(big.reshape(1, cells, gates * p * w, p * w))
    biases = [b.reshape(p, cells, gates, w).transpose(1, 2, 0, 3).reshape(1, cells, rows * p)
              for b in (layer.b_input, layer.b_hidden)]
    return dataclasses.replace(layer, w_input=mats[0], w_hidden=mats[1],
                               b_input=biases[0], b_hidden=biases[1])


def _check_block_diagonal(name: str):
    """The P groups of a seeded bottleneck against its block-diagonal cells."""
    layer = init_test_weights(build_model(parse_model_name(name)), 11).bottleneck
    rng = np.random.default_rng(11)
    states = rng.standard_normal(layer.zero_state().shape)
    p, cells, vectors, w = states.shape
    x = rng.standard_normal((1, p * w))
    grouped = layer.forward(x, states.copy())
    merged = states.transpose(1, 2, 0, 3).reshape(1, cells, vectors, p * w)
    full = _block_diagonal_layer(layer).forward(x, merged)
    err = float(np.max(np.abs(grouped - full)))
    return err < 1e-6, f"{p} groups of {w}, max difference {err:.2e}"


def _check_mac_monotonicity():
    widths = {}
    for p in (1, 2, 4):
        graph = _build_graph(parse_model_name(f"CRUSE4-128-1xGRU{p}"), _zero_view)
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
    ("block-diagonal-gru-equivalence", lambda: _check_block_diagonal("CRUSE4-64-1xGRU4")),
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
