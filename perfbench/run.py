"""plcreach benchmark: time to verdict, simulation throughput, layer traces.

    python3 perfbench/run.py --workload concrete-full --seed 1 --seconds 30 --trace 0

Runs one workload (concrete-full, symbolic-por or simulate) in a fresh
single-threaded worker process as a closed loop with one client, checks
every result, and prints each metric by name and unit.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced; with --trace 1 they are its per-layer ones.

Run it from the root of a plcreach checkout (the program is imported
from src/).  See perfbench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("concrete-full", "symbolic-por", "simulate")
# A run measures whole rounds of operations for about --seconds; the last
# round may end up to half a round (about 11 s in concrete-full) later.
TIMEOUT_S = 170


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "plcreach" / "explorer.py").is_file():
        print(f"no plcreach sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)

    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"worker failed with exit code {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the worker is the only child.
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics["peak_rss_mb"] = peak

    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 6
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: closed loop, 1 client, 1 worker process")
    for line in result["notes"]:
        print(f"  {line}")
    for name in sorted(units):
        print(f"  {name:34s} {metrics[name]:>16.6f} {units[name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
