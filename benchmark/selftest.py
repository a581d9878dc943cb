"""Self-test of the benchmark at a tiny size.

    python3 benchmark/selftest.py

Runs every workload untraced and traced for one second and checks that:
every metric of ``BENCHMARK.json`` (end-to-end or per-layer) and
``failed_share`` is printed with its unit; nothing fails at this commit;
the traced layer self times plus the unattributed remainder add up to the
traced wall time.  Then it checks that a deliberately perturbed reference
is reported as failed, and that the benchmark refuses to run, without a
result, in a directory holding only ``BENCHMARK.json`` and ``benchmark/``.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

from workloads import BENCH_DIR, REFERENCE_DIR, ROOT, WORK_DIR, WORKLOADS, block_order

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")
SECONDS = "1"
PERTURB_SEED = 7


def run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300, cwd=cwd,
    )


def printed(stdout: str) -> tuple[dict, dict]:
    lines = stdout.strip().splitlines()
    metrics = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            metrics[m[1]] = (float(m[2]), m[3])
    return metrics, json.loads(lines[-1])


def check_run(workload: str, trace: int, bench: dict) -> list[str]:
    proc = run("--workload", workload, "--seed", "1", "--seconds", SECONDS,
               "--trace", str(trace))
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    metrics, result = printed(proc.stdout)
    problems = []
    expected = bench["per_layer" if trace else "end_to_end"]
    expected = expected + [{"name": "failed_share", "unit": "ratio"}]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None or got[1] != m["unit"]:
            problems.append(f"{where}: {m['name']} not printed with unit {m['unit']}")
        elif m["name"] != "failed_share" and (
            result["metrics"].get(m["name"]) != {"value": got[0], "unit": m["unit"]}
        ):
            problems.append(f"{where}: {m['name']} missing from the result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result line keys {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in expected[:-1]}:
        problems.append(f"{where}: result line holds other metrics than BENCHMARK.json")
    if not result["correct"] or result["failed"] or metrics["failed_share"][0] != 0.0:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
    if trace:
        import tracing

        reps = metrics["trace.replicates"][0]
        parts = [metrics[name][0] for name in tracing.SELF_TIME]
        parts.append(metrics["trace.unattributed_ms_per_replicate"][0])
        wall_ms = metrics["trace.wall_s"][0] * 1e3
        if not math.isclose(sum(parts) * reps, wall_ms, rel_tol=1e-6):
            problems.append(
                f"{where}: self times + unattributed = {sum(parts) * reps} ms, "
                f"traced wall = {wall_ms} ms"
            )
    return problems


def check_perturbed() -> list[str]:
    """Perturb, in the block a count_parallel run visits first, one decision,
    one estimate and the summary text, plus the microbenchmark references."""
    wl = WORKLOADS["count_parallel"]
    perturbed = WORK_DIR / "perturbed-reference"
    shutil.rmtree(perturbed, ignore_errors=True)
    shutil.copytree(REFERENCE_DIR, perturbed)
    path = perturbed / f"{wl.pool.design}.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    block = block_order(wl.pool, PERTURB_SEED)[0]
    first, second = wl.pool.seeds(block)[:2]
    ref["records"][str(first)][4][0][0] ^= True
    ref["records"][str(second)][5][0] += 1e-3
    ref["summaries"][str(wl.extended)][block] += "perturbed\n"
    path.write_text(json.dumps(ref), encoding="utf-8")
    micro_path = perturbed / "micro.json"
    micro = json.loads(micro_path.read_text(encoding="utf-8"))
    micro["glm.fit_us_binomial_n216_p6"]["mode"][0] += 1e-9
    micro["substream"]["first_draws"][0] += 1e-12
    micro_path.write_text(json.dumps(micro), encoding="utf-8")

    proc = run("--workload", wl.name, "--seed", str(PERTURB_SEED), "--seconds", SECONDS,
               "--trace", "1", "--reference-dir", str(perturbed))
    if proc.returncode != 0:
        return [f"perturbed reference: exit code {proc.returncode}"]
    _, result = printed(proc.stdout)
    expected = [
        f"seed {first} differs", f"seed {second} differs", "summary text differs",
        "estimates plot data differs", "mode differs", "first draws differ",
    ]
    problems = [
        f"perturbed reference: no failure reported for '{text}'"
        for text in expected if text not in proc.stdout
    ]
    if result["correct"] or result["failed"] < len(expected):
        problems.append(f"perturbed reference: reported {result}")
    return problems


def check_bare_directory() -> list[str]:
    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "six_arm_rar", "--seed", "1", "--seconds", SECONDS,
               "--trace", "0", cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, output {proc.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, bench)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for name, check in (("perturbed reference", check_perturbed),
                        ("bare directory", check_bare_directory)):
        found = check()
        print(f"{name}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
