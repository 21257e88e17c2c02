"""Benchmark of the cruse enhancement engine, end to end and layer by layer.

    python3 perfbench/run.py --workload stream-cruse4x4 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the repository root.  Each workload runs in its own process with
BLAS pinned to one thread before numpy is imported; ``all`` runs the three in
turn.  ``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` spends half the time untraced and half with every traced
``cruse`` function wrapped, and reports the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every op
succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
sys.path.insert(0, str(ROOT / "src"))

try:
    import cruse
    import workloads
except ImportError as exc:
    print(f"error: cannot import cruse from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
if ROOT / "src" not in Path(cruse.__file__).resolve().parents:
    print(f"error: imported cruse from {cruse.__file__}, not this checkout", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha() -> str:
    """HEAD commit of the checkout, or "unknown" outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
    }


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10  # bytes vs KiB


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    units = declared_metrics(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}.spans.csv"
    outcome = workloads.run_workload(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spans_path
    )
    if not args.trace:
        outcome.put("peak_rss_mb", peak_rss_mb(), 1)
    if set(outcome.values) != set(units):
        missing = sorted(set(units) - set(outcome.values))
        extra = sorted(set(outcome.values) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 2

    outcome.extra["failed_frac"] = (outcome.failed / max(outcome.attempted, 1), "ratio",
                                    outcome.attempted)
    correct = outcome.failed == 0 and outcome.attempted > 0
    rows = [(name, outcome.values[name], units[name], outcome.samples[name]) for name in units]
    rows += [(name, value, unit, n) for name, (value, unit, n) in outcome.extra.items()]
    for name, value, unit, n in rows:
        print(f"{args.workload:<16} {name:<34} {value:>14.6g} {unit:<8} n={n}")
    for note in outcome.notes:
        print(f"{args.workload:<16} note: {note}")

    meta = run_metadata(args)
    print("meta: " + json.dumps(meta), file=sys.stderr)
    record = {
        "meta": meta,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, v, u, n in rows},
        "notes": outcome.notes,
    }
    (OUT_DIR / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
