"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmark/spread.py --workload six_arm_rar --seeds 1..10

Runs ``run.py --trace 0`` once per seed, one after another, for
``BENCHMARK.json``'s ``run_seconds``, and prints for each end-to-end metric
the median, the quartiles and their distance as a share of the median
(what ``BENCHMARK.json``'s bounds are compared against).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import BENCH_DIR, ROOT, WORKLOADS


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=300, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {share:.4f}  bound {bounds[name]}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
