import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cruse.audio_io import read_wav, write_wav
from cruse.cli import main
from cruse.models import build_model, init_test_weights, parse_model_name, save_weights

SR = 16000
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# enhance


def test_enhance_silence(tmp_path, capsys):
    src = tmp_path / "in.wav"
    dst = tmp_path / "out.wav"
    write_wav(src, np.zeros(SR), SR)
    code, _, err = run(capsys, "enhance", str(src), str(dst), "--model", "NSnet2-32")
    assert code == 0
    assert "test weights" in err  # warned about the missing bundle
    out, rate = read_wav(dst)
    assert rate == SR and len(out) == SR
    assert np.sqrt(np.mean(out**2)) <= 1e-6


def test_enhance_preserves_length_and_reports_stats(tmp_path, capsys):
    src = tmp_path / "in.wav"
    dst = tmp_path / "out.wav"
    rng = np.random.default_rng(0)
    write_wav(src, 0.1 * rng.standard_normal(SR + 40), SR)
    code, _, err = run(capsys, "enhance", str(src), str(dst), "--model", "CRUSE4-32-1xGRU2")
    assert code == 0
    assert "ms/frame" in err and "realtime factor" in err
    assert "0 non-finite hops, 0 state resets" in err
    out, _ = read_wav(dst)
    assert len(out) == SR + 40


def test_enhance_reports_hops_zeroed_for_samples_beyond_float32(tmp_path, capsys):
    # a 64-bit float WAV holds finite samples no float32 can: the stream zeroes
    # the hop that holds one and counts it
    from scipy.io import wavfile

    x = 0.1 * np.random.default_rng(3).standard_normal(SR)
    x[8000] = 1e200
    src = tmp_path / "in.wav"
    wavfile.write(src, SR, x)
    code, _, err = run(capsys, "enhance", str(src), str(tmp_path / "out.wav"),
                       "--model", "NSnet2-32")
    assert code == 0
    assert ", 1 non-finite hops, 0 state resets" in err
    out, _ = read_wav(tmp_path / "out.wav")
    assert len(out) == SR and np.isfinite(out).all()


def test_enhance_with_bundle(tmp_path, capsys):
    bundle = tmp_path / "w.cwb"
    save_weights(init_test_weights(build_model(parse_model_name("NSnet2-32")), 5), bundle)
    src = tmp_path / "in.wav"
    write_wav(src, 0.05 * np.random.default_rng(1).standard_normal(SR), SR)
    code, _, err = run(capsys, "enhance", str(src), str(tmp_path / "out.wav"), "--bundle", str(bundle))
    assert code == 0
    assert "test weights" not in err


def test_enhance_reports_clipped_output_samples(tmp_path, capsys):
    # zero weights and an output bias of 40 give gains of exactly 1.0, so the
    # enhanced signal is the input and its 7 samples of magnitude 1.5 clip
    graph = build_model(parse_model_name("NSnet2-16"))
    graph.stack[-1].bias[:] = 40.0
    bundle = tmp_path / "identity.cwb"
    save_weights(graph, bundle)
    x = 0.01 * np.random.default_rng(2).standard_normal(SR)
    x[5000:5007] = [1.5, -1.5, 1.5, 1.5, -1.5, 1.5, -1.5]
    src = tmp_path / "in.wav"
    dst = tmp_path / "out.wav"
    write_wav(src, x, SR, fmt="float32")
    code, _, err = run(capsys, "enhance", str(src), str(dst), "--bundle", str(bundle))
    assert code == 0
    assert ", 7 clipped samples" in err
    out, _ = read_wav(dst)
    np.testing.assert_array_equal(np.abs(out[5000:5007]) >= 32767 / 32768, True)


def test_enhance_rejects_malformed_bundle(tmp_path, capsys, malformed_bundle):
    src = tmp_path / "in.wav"
    dst = tmp_path / "out.wav"
    write_wav(src, np.zeros(SR // 10), SR)
    code, _, err = run(capsys, "enhance", str(src), str(dst), "--bundle", str(malformed_bundle))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not dst.exists()


# Runs the CLI in a fresh process and prints its exit code and peak resident
# memory in kB.  The peak is the process's own VmHWM: on Linux the ru_maxrss
# of an exec'd child starts at its parent's peak, here the test runner's.
CLI_PROBE = """
import re, sys
from cruse.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(code, re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
"""


def test_enhance_rejects_hostile_bundle_before_allocating(tmp_path, hostile_bundle):
    src = tmp_path / "in.wav"
    write_wav(src, np.zeros(SR // 10), SR)
    argv = ["enhance", str(src), str(tmp_path / "out.wav"), "--bundle", str(hostile_bundle)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", CLI_PROBE, *argv], env=env,
                            capture_output=True, text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    code, peak_kb = map(int, result.stdout.split())
    assert code == 1
    assert result.stderr.startswith(f"error: {hostile_bundle}:"), result.stderr
    assert "Traceback" not in result.stderr
    assert peak_kb < 100 * 1024


def test_enhance_reports_a_model_too_big_for_memory(tmp_path, capsys, monkeypatch):
    def build_model(spec):
        raise MemoryError("Unable to allocate 120. GiB for an array")

    monkeypatch.setattr("cruse.cli.build_model", build_model)
    src = tmp_path / "in.wav"
    dst = tmp_path / "out.wav"
    write_wav(src, 0.1 * np.ones(SR), SR)
    code, _, err = run(capsys, "enhance", str(src), str(dst), "--model", "NSnet2-16")
    assert code == 1
    assert "error: Unable to allocate 120. GiB" in err and "Traceback" not in err
    assert not dst.exists()


def test_enhance_rejects_input_shorter_than_one_hop(tmp_path, capsys):
    src = tmp_path / "short.wav"
    dst = tmp_path / "out.wav"
    write_wav(src, 0.1 * np.ones(100), SR)
    code, _, err = run(capsys, "enhance", str(src), str(dst), "--model", "NSnet2-16")
    assert code == 1
    assert "error:" in err and "shorter than one hop" in err and "Traceback" not in err
    assert not dst.exists()


def test_enhance_rejects_truncated_wav(tmp_path, capsys, truncated_wavs):
    dst = tmp_path / "out.wav"
    for src in truncated_wavs:
        code, _, err = run(capsys, "enhance", str(src), str(dst), "--model", "NSnet2-16")
        assert code == 1
        assert err.startswith("error:") and str(src) in err and "Traceback" not in err
        assert not dst.exists()


def test_enhance_rejects_wrong_sample_rate(tmp_path, capsys):
    src = tmp_path / "in8k.wav"
    write_wav(src, np.zeros(8000), 8000)
    code, _, err = run(capsys, "enhance", str(src), str(tmp_path / "out.wav"))
    assert code == 1
    assert "sample rate" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_enhance_rejects_non_finite_samples(tmp_path, capsys, bad):
    src = tmp_path / "in.wav"
    dst = tmp_path / "out.wav"
    x = 0.1 * np.random.default_rng(3).standard_normal(SR)
    x[100] = bad
    write_wav(src, x, SR, fmt="float32")
    code, _, err = run(capsys, "enhance", str(src), str(dst), "--model", "NSnet2-16")
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert str(src) in err and "non-finite" in err
    assert not dst.exists()


# ---------------------------------------------------------------------------
# profile


def test_profile_text_table(capsys):
    code, out, _ = run(capsys, "profile", "CRUSE4-128-1xGRU4", "CRUSE4-128-1xGRU1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[:2] == ["model", "params"]
    rows = {l.split()[0]: int(l.split()[2]) for l in lines[1:]}
    assert rows["CRUSE4-128-1xGRU4"] < rows["CRUSE4-128-1xGRU1"]


def test_profile_nsnet2_scaling(capsys):
    code, out, _ = run(capsys, "profile", "NSnet2-400", "NSnet2-500", "--format", "csv")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    macs = {r[0]: int(r[2]) for r in rows}
    assert macs["NSnet2-500"] > macs["NSnet2-400"]


def test_profile_skip_override(capsys):
    _, out_add, _ = run(capsys, "profile", "CRUSE4-128-1xGRU4", "--format", "csv")
    _, out_cc, _ = run(capsys, "profile", "CRUSE4-128-1xGRU4", "--format", "csv", "--skips", "concat")
    add = int(out_add.strip().splitlines()[1].split(",")[2])
    concat = int(out_cc.strip().splitlines()[1].split(",")[2])
    assert concat > add


def test_profile_csv_lines_end_in_a_bare_newline():
    # csv.writer's default line end is "\r\n"; on stdout that would leave a
    # carriage return at the end of every last field
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-m", "cruse.cli", "profile", "NSnet2-400", "CRUSE4-128-1xGRU4",
         "--format", "csv"],
        env=env, capture_output=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    assert b"\r" not in result.stdout
    lines = result.stdout.decode().split("\n")
    assert lines[0].startswith("model,") and lines[-1] == ""
    assert [line.split(",")[0] for line in lines[1:-1]] == ["NSnet2-400", "CRUSE4-128-1xGRU4"]


def test_profile_unknown_name(capsys):
    code, _, err = run(capsys, "profile", "CRUSE9")
    assert code == 1
    assert "CRUSE9" in err


@pytest.mark.parametrize("name", [
    "CRUSE40-128-1xGRU4",  # too big even as a graph of shapes
    "CRUSE4-128-1xGRU3",   # 1408 wide, not divisible by 3 groups
])
def test_profile_error_names_the_failing_model(capsys, name):
    code, out, err = run(capsys, "profile", "NSnet2-400", name)
    assert code == 1
    assert f"error: {name}: " in err
    assert out == ""


def test_profile_counts_without_allocating_the_model(capsys):
    # building CRUSE5-256-2xLSTM1 allocates about 300 MB
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "profile", "CRUSE5-256-2xLSTM1", "--format", "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.splitlines()[1].startswith("CRUSE5-256-2xLSTM1,38296481,41835777,")
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# datagen


def test_datagen_zero_count(tmp_path, capsys, asset_dir):
    out = tmp_path / "out"
    code, _, _ = run(
        capsys, "datagen", "--manifest", str(asset_dir / "manifest.csv"),
        "--count", "0", "--out", str(out),
    )
    assert code == 0
    assert (out / "recipes.log").read_text() == ""


def test_datagen_negative_count_errors(tmp_path, capsys, asset_dir):
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "datagen", "--manifest", str(asset_dir / "manifest.csv"),
        "--count", "-3", "--out", str(out),
    )
    assert code == 1
    assert err.startswith("error:") and "--count" in err
    assert not out.exists()


def test_datagen_deterministic_and_logged(tmp_path, capsys, asset_dir):
    outs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        code, _, _ = run(
            capsys, "datagen", "--manifest", str(asset_dir / "manifest.csv"),
            "--count", "2", "--out", str(out), "--seed", "77",
        )
        assert code == 0
        outs.append(out)
    for name in ("pair00000_noisy.wav", "pair00000_target.wav", "pair00001_noisy.wav", "recipes.log"):
        assert digest(outs[0] / name) == digest(outs[1] / name)
    lines = (outs[0] / "recipes.log").read_text().strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        assert {"speech", "noise", "rir", "snr_db", "level_dbfs", "seed"} <= set(rec)


def test_datagen_recipe_log_snr_distribution(tmp_path, capsys, asset_dir):
    out = tmp_path / "recipes"
    code, _, _ = run(
        capsys, "datagen", "--manifest", str(asset_dir / "manifest.csv"),
        "--count", "1000", "--out", str(out), "--seed", "5", "--recipes-only",
    )
    assert code == 0
    lines = (out / "recipes.log").read_text().strip().splitlines()
    assert len(lines) == 1000
    snrs = np.array([json.loads(l)["snr_db"] for l in lines])
    assert abs(snrs.mean() - 5.0) < 1.0
    assert not list(out.glob("*.wav"))


def test_datagen_rejects_a_non_finite_asset(tmp_path, capsys, asset_dir):
    speech, _ = read_wav(asset_dir / "speech_dry1.wav")
    speech[1000] = np.nan
    write_wav(tmp_path / "speech_nan.wav", speech, SR, fmt="float32")
    for name in ("noise_white.wav", "rir_delta.wav"):
        (tmp_path / name).write_bytes((asset_dir / name).read_bytes())
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "path,kind,t60,c50\n"
        "speech_nan.wav,speech,0.12,22.0\n"
        "noise_white.wav,noise,,\n"
        "rir_delta.wav,rir,0.05,40.0\n"
    )
    code, _, err = run(
        capsys, "datagen", "--manifest", str(manifest), "--count", "2",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert str(tmp_path / "speech_nan.wav") in err and "non-finite" in err


def test_datagen_names_the_pair_of_a_silent_speech_asset(tmp_path, capsys, asset_dir):
    write_wav(tmp_path / "speech_silent.wav", np.zeros(SR), SR)
    for name in ("noise_white.wav", "rir_delta.wav"):
        (tmp_path / name).write_bytes((asset_dir / name).read_bytes())
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "path,kind,t60,c50\n"
        "speech_silent.wav,speech,0.12,22.0\n"
        "noise_white.wav,noise,,\n"
        "rir_delta.wav,rir,0.05,40.0\n"
    )
    code, _, err = run(
        capsys, "datagen", "--manifest", str(manifest), "--count", "2",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert err.startswith("error: pair 0 (speech_silent.wav") and "Traceback" not in err
    assert "silent signal" in err


def test_datagen_missing_manifest(tmp_path, capsys):
    code, _, err = run(
        capsys, "datagen", "--manifest", str(tmp_path / "nope.csv"), "--count", "1",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert "nope.csv" in err


def test_datagen_manifest_without_kind_column(tmp_path, capsys):
    manifest = tmp_path / "no_kind.csv"
    manifest.write_text("path,t60,c50\nspeech_dry1.wav,0.12,22.0\n")
    code, _, err = run(
        capsys, "datagen", "--manifest", str(manifest), "--count", "1",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert err.startswith("error:") and "no kind column" in err and "Traceback" not in err


def test_datagen_manifest_with_a_non_finite_t60(tmp_path, capsys):
    manifest = tmp_path / "inf_t60.csv"
    manifest.write_text("path,kind,t60,c50\nrir1.wav,rir,inf,3.0\n")
    code, _, err = run(
        capsys, "datagen", "--manifest", str(manifest), "--count", "1",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{manifest}: line 2, column 't60'" in err


def test_datagen_manifest_repeating_a_path(tmp_path, capsys):
    manifest = tmp_path / "repeat.csv"
    manifest.write_text("path,kind,t60,c50\na.wav,speech,0.1,30\nb.wav,speech,0.1,30\n"
                        "a.wav,speech,0.5,5\n")
    code, _, err = run(
        capsys, "datagen", "--manifest", str(manifest), "--count", "1",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{manifest}: line 4: path 'a.wav' repeats line 2" in err


# ---------------------------------------------------------------------------
# evaluate


@pytest.fixture()
def eval_dirs(tmp_path):
    enh = tmp_path / "enh"
    ref = tmp_path / "ref"
    enh.mkdir()
    ref.mkdir()
    rng = np.random.default_rng(3)
    for name in ("utt1.wav", "utt2.wav"):
        t = np.arange(SR) / SR
        x = 0.3 * np.sin(2 * np.pi * 200 * t) + 0.02 * rng.standard_normal(SR)
        write_wav(ref / name, x, SR, fmt="float32")
        write_wav(enh / name, x, SR, fmt="float32")
    return enh, ref


def test_evaluate_identical_files(eval_dirs, capsys):
    enh, ref = eval_dirs
    code, out, err = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref),
                         "--format", "csv")
    assert code == 0
    assert "Q column omitted" in err
    rows = [l.split(",") for l in out.strip().splitlines()]
    header, data = rows[0], rows[1:]
    assert header == ["id", "sisdr", "cd", "loss"]
    for row in data[:-1]:
        assert float(row[1]) == 100.0
        assert float(row[2]) == pytest.approx(0.0, abs=1e-9)
        assert float(row[3]) == pytest.approx(0.0, abs=1e-9)
    assert data[-1][0] == "mean"


def test_evaluate_with_scores(eval_dirs, tmp_path, capsys):
    enh, ref = eval_dirs
    scores = tmp_path / "scores.csv"
    scores.write_text("id,pesq,dnsmos\nutt1,2.0,3.0\nutt2,3.0,3.5\n")
    code, out, _ = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref),
                       "--scores", str(scores), "--format", "csv")
    assert code == 0
    header = out.strip().splitlines()[0].split(",")
    assert header[-1] == "q"
    first = out.strip().splitlines()[1].split(",")
    # est == ref: q = pesq + 0.2*100 - 0
    assert float(first[4]) == pytest.approx(2.0 + 20.0, abs=1e-6)


def test_evaluate_with_scores_saved_with_a_byte_order_mark(eval_dirs, tmp_path, capsys):
    enh, ref = eval_dirs
    scores = tmp_path / "scores.csv"
    scores.write_text("id,pesq\nutt1,2.0\nutt2,3.0\n", encoding="utf-8-sig")
    code, out, _ = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref),
                       "--scores", str(scores), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[-1] == "q"
    assert float(lines[1].split(",")[4]) == pytest.approx(2.0 + 20.0, abs=1e-6)


def test_evaluate_orphans_error(eval_dirs, capsys):
    enh, ref = eval_dirs
    write_wav(enh / "extra.wav", np.zeros(SR) + 0.1, SR)
    code, _, err = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref))
    assert code == 1
    assert "extra.wav" in err


def test_evaluate_pairs_wav_files_whose_suffix_is_upper_case(eval_dirs, capsys):
    enh, ref = eval_dirs
    for d in (enh, ref):
        for name in ("utt1", "utt2"):
            (d / f"{name}.wav").rename(d / f"{name.upper()}.WAV")
    (ref / "notes.txt").write_text("not audio")
    code, out, _ = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref),
                       "--format", "csv")
    assert code == 0
    assert [l.split(",")[0] for l in out.strip().splitlines()] == ["id", "UTT1.WAV", "UTT2.WAV",
                                                                  "mean"]


def test_evaluate_pairs_names_exactly(eval_dirs, capsys):
    enh, ref = eval_dirs
    (enh / "utt1.wav").rename(enh / "utt1.WAV")
    code, out, err = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref))
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: enhanced/reference file sets differ; unmatched: " \
        "utt1.WAV, utt1.wav"


def test_evaluate_two_empty_directories(tmp_path, capsys):
    (tmp_path / "enh").mkdir()
    (tmp_path / "ref").mkdir()
    code, out, err = run(capsys, "evaluate", "--enhanced", str(tmp_path / "enh"),
                         "--reference", str(tmp_path / "ref"))
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: no WAV files to evaluate"


@pytest.mark.parametrize("flag", ["--enhanced", "--reference"])
@pytest.mark.parametrize("kind", ["missing", "file"])
def test_evaluate_names_a_side_that_is_not_a_directory(eval_dirs, tmp_path, capsys, flag, kind):
    enh, ref = eval_dirs
    bad = tmp_path / "elsewhere"
    if kind == "file":
        write_wav(bad, np.zeros(SR), SR)
    dirs = {"--enhanced": str(enh), "--reference": str(ref), flag: str(bad)}
    code, out, err = run(capsys, "evaluate", *(arg for item in dirs.items() for arg in item))
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == f"error: {bad}: not a directory"


def test_evaluate_scores_without_pesq_column(eval_dirs, tmp_path, capsys):
    enh, ref = eval_dirs
    scores = tmp_path / "scores.csv"
    scores.write_text("id,dnsmos\nutt1,3.0\n")
    code, _, err = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref),
                       "--scores", str(scores))
    assert code == 1
    assert err.startswith("error:") and "no pesq column" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "nan"])
def test_evaluate_scores_value_that_is_not_a_finite_float(eval_dirs, tmp_path, capsys, value):
    enh, ref = eval_dirs
    scores = tmp_path / "scores.csv"
    scores.write_text(f"id,pesq\nutt1,2.0\nutt2,{value}\n")
    code, _, err = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref),
                       "--scores", str(scores))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{scores}: line 3, column 'pesq'" in err


def test_evaluate_scores_repeating_an_id(eval_dirs, tmp_path, capsys):
    enh, ref = eval_dirs
    scores = tmp_path / "scores.csv"
    scores.write_text("id,pesq\nutt1,2.0\nutt2,3.0\nutt1,2.5\n")
    code, _, err = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref),
                       "--scores", str(scores))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{scores}: line 4: id 'utt1' repeats line 2" in err


def test_evaluate_rejects_a_pair_not_at_16_khz(eval_dirs, capsys):
    enh, ref = eval_dirs
    x = 0.1 * np.random.default_rng(4).standard_normal(3 * SR)
    write_wav(enh / "utt3.wav", x, 3 * SR, fmt="float32")
    write_wav(ref / "utt3.wav", x, 3 * SR, fmt="float32")
    code, out, err = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref))
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith("error:") and "Traceback" not in err
    assert str(enh / "utt3.wav") in last and "sample rate 48000" in last


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("side", ["enh", "ref"])
def test_evaluate_rejects_non_finite_samples(eval_dirs, capsys, bad, side):
    enh, ref = eval_dirs
    path = (enh if side == "enh" else ref) / "utt2.wav"
    x, _ = read_wav(path)
    x[100] = bad
    write_wav(path, x, SR, fmt="float32")
    code, out, err = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref))
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith("error:") and "Traceback" not in err
    assert str(path) in last and "non-finite" in last


@pytest.mark.parametrize(
    "enh_x, ref_x, message",
    [
        (0.1 * np.ones(SR), np.zeros(SR), "silent reference"),
        (0.1 * np.ones(100), 0.1 * np.ones(100), "shorter than one hop"),
    ],
    ids=["silent-reference", "100-samples"],
)
def test_evaluate_names_a_pair_that_cannot_be_scored(eval_dirs, capsys, enh_x, ref_x, message):
    enh, ref = eval_dirs
    write_wav(enh / "utt3.wav", enh_x, SR, fmt="float32")
    write_wav(ref / "utt3.wav", ref_x, SR, fmt="float32")
    code, out, err = run(capsys, "evaluate", "--enhanced", str(enh), "--reference", str(ref))
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith("error: utt3.wav: ") and message in last and "Traceback" not in err


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 6
    assert all(l.startswith("PASS") for l in lines)
    assert all("s)" in l for l in lines)  # per-property timing reported


def test_selftest_reports_a_check_that_raises(capsys, monkeypatch):
    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr("cruse.cli.SELFTEST_CHECKS", [("broken", broken)])
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert out.startswith("FAIL broken (") and out.rstrip().endswith("raised RuntimeError: boom")
