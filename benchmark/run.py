"""mamsim benchmark: one workload, timed from outside through the public API.

    python3 benchmark/run.py --workload six_arm_rar --seed 1 --seconds 10 --trace 0

Run from anywhere; the checkout is the directory above this file.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run (see README.md).  Every output
is checked against ``reference/``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it name every metric with its unit (``failed_share``
included) and give the environment the run saw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

from workloads import (
    BENCH_DIR, REFERENCE_DIR, ROOT, SRC_DIR, WORK_DIR, WORKLOADS, missing_sources,
)

CHILD = BENCH_DIR / "child.py"
END_TO_END = (
    "replicates_per_s", "setup_s", "cpu_s_per_replicate", "peak_rss_mb",
    "shard_bytes_per_replicate",
)
SETUP_REPEATS = {0: 5, 1: 3}
CHILD_TIMEOUT_S = 170


def child(job: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(CHILD), job, *args],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {job} exited with code {proc.returncode}")
    return proc.stdout


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 of the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC_DIR / "mamsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--reference-dir", default=str(REFERENCE_DIR),
        help="expected outputs to check against (the self-test perturbs a copy)",
    )
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing:
        print(f"benchmark: program files missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = {"nproc": os.cpu_count(), "loadavg_at_start": os.getloadavg()}
    work = WORK_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", wl.name, "--work", str(work)]

    def probe():
        return json.loads(child("setup", "--workload", wl.name))

    # set-up probes go on both sides of the timed run, so that their median
    # does not rest on one phase of a shared machine
    repeats = SETUP_REPEATS[args.trace]
    try:
        if wl.parts:
            child("generate", *common, "--seed", str(args.seed))
        probes = [probe() for _ in range(repeats // 2)]
        child(
            "measure", *common, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--reference", args.reference_dir,
        )
        probes += [probe() for _ in range(repeats - repeats // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    metrics = {k: tuple(v) for k, v in result["metrics"].items()}
    import_s = statistics.median(p["import_s"] for p in probes)
    validate_s = statistics.median(p["validate_s"] for p in probes)
    if args.trace:
        metrics["mamsim.import_s"] = (import_s, "s")
        metrics["config.validate_ms"] = (validate_s * 1e3, "ms")
    else:
        setup = statistics.median(p["import_s"] + p["validate_s"] for p in probes)
        metrics["setup_s"] = (setup, "s")
    attempted, failed = result["attempted"], result["failed"]
    metrics["failed_share"] = (failed / attempted if attempted else 1.0, "ratio")

    env.update(result["env"])
    env.update({"git_commit": git_commit(), "source_sha256": source_digest()})
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  work {work}")
    print("env " + json.dumps(env, sort_keys=True))
    for message in result["failures"]:
        print(f"FAILED {message}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"metric {name} = {value!r} {unit}")

    keep = [k for k in metrics if k != "failed_share"] if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keep},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
