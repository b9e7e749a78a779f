"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload point --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles and the spread (Q3 - Q1) as a
share of the median, next to the metric's bound and the share of failed
operations.  Each run lasts `run_seconds` of BENCHMARK.json.  Each run's
result line is appended to perfbench/out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    values, shares = {}, set()
    (HERE / "out").mkdir(exist_ok=True)
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(HERE / "out" / "spread.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: {len(seeds(args.seeds))} seeds, "
          f"failed share / correct: {sorted(shares)}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"  {metric['name']:12s} median {med:12.6g}  Q1 {q1:12.6g}  Q3 {q3:12.6g}"
              f"  spread {(q3 - q1) / med:7.2%}  bound {metric['bound']:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
