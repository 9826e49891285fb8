#!/usr/bin/env python3
"""Record the benchmark baseline: two sets of alternating runs per workload.

Each set runs every workload once per seed, cycling through the workloads
(w1 w2 w3 w4 w1 w2 ...), so slow phases of a shared machine spread over all
workloads instead of landing on one. Both sets use the same seeds, so their
digests and counts must be identical run for run. One traced run per serve
workload closes each set.

Rows go to benchmark/baseline/<workload>.jsonl; a summary of medians and
spreads (quartile distance over median) is printed at the end.

Usage (from the repository root, after a release build):
    python3 benchmark/baseline/collect.py [--runs 5] [--seconds N]
--seconds defaults to run_seconds of BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["topk_v2_100k", "mixed_10k", "durable_replica_10k", "figures_quick"]
SERVE = WORKLOADS[:3]


def run(workload, seed, seconds, traced):
    cmd = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "benchmark" / "Cargo.toml"), "--",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    row = json.loads(lines[0])
    row.update(json.loads(lines[-1]))
    return row


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=5)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    args = parser.parse_args()
    seeds = list(range(1, args.runs + 1))
    rows = {w: [] for w in WORKLOADS}
    for set_index in (1, 2):
        for seed in seeds:
            for workload in WORKLOADS:
                row = run(workload, seed, args.seconds, traced=False)
                row["set"] = set_index
                rows[workload].append(row)
                print(f"set {set_index} seed {seed} {workload}: correct {row['correct']}", flush=True)
        for workload in SERVE:
            row = run(workload, seeds[0], args.seconds, traced=True)
            row["set"] = set_index
            rows[workload].append(row)
    for workload, workload_rows in rows.items():
        with open(HERE / f"{workload}.jsonl", "w") as f:
            for row in workload_rows:
                f.write(json.dumps(row, sort_keys=True) + "\n")

    for workload, workload_rows in rows.items():
        plain = [r for r in workload_rows if not r["traced"]]
        sets = {s: [r for r in plain if r["set"] == s] for s in (1, 2)}
        same = all(a["digest"] == b["digest"] and a["counts"] == b["counts"]
                   for a, b in zip(sets[1], sets[2]))
        print(f"\n{workload}: digests and counts identical across sets: {same}")
        for metric in sorted(plain[0]["metrics"]):
            cells = []
            for s in (1, 2):
                values = [r["metrics"][metric]["value"] for r in sets[s]]
                cells.append(f"median {statistics.median(values):12.4f} spread {100 * spread(values):5.1f}%")
            print(f"  {metric:18s} " + " | ".join(cells))


if __name__ == "__main__":
    main()
