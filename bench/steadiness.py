"""Run the benchmark several times per workload and summarise the spread.

Usage (from the repository root):

    python3 bench/steadiness.py --runs 10 --first-seed 101 [--workload NAME ...]

Each seed (first-seed, first-seed + 1, ...) runs every chosen workload
once, round-robin, with the ``run_seconds`` of BENCHMARK.json. For every
workload and end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the quartile distance
as a share of the median, and the metric's bound. Each run's
result line is appended to ``bench/steadiness/<label>.jsonl``, with the
time it ended and the run's standard error (its per-launch operation
and probe times).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--label", default="set")
    args = parser.parse_args()
    out_dir = BENCH / "steadiness"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"{args.label}.jsonl"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    chosen = args.workload or names
    seeds = range(args.first_seed, args.first_seed + args.runs)
    results = {w: [] for w in chosen}
    # Round-robin over the workloads, so that each workload's runs spread
    # over the whole set and a slow spell of the machine hits them all.
    for seed in seeds:
        for workload in chosen:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[workload].append(result)
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "time": time.time(),
                                     "stderr": proc.stderr.splitlines(), **result}) + "\n")
    for workload, runs in results.items():
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        print(f"\n{workload}: {len(runs)} runs, seeds {seeds.start}-{seeds.stop - 1}, "
              f"correct {all(r['correct'] for r in runs)}, (failed, attempted) {shares}\n")
        print("| metric | median | q1 | q3 | (q3 - q1) / median | bound |")
        print("|---|---|---|---|---|---|")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| `{metric}` | {med:.4f} | {q1:.4f} | {q3:.4f} | {(q3 - q1) / med:.1%} | {bound:.0%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
