"""Work the benchmark runs in fresh interpreters, one process per job.

    child.py setup    --workload W            time import + parse + validate
    child.py generate --workload W --seed N --work DIR
                                              make a workload's input shards
    child.py measure  --workload W --seed N --seconds S --trace 0|1
                      --work DIR --reference DIR
                                              time the pipeline, check it,
                                              write DIR/result.json

``measure`` runs alone in its process, so its peak resident set and CPU
time belong to the pipeline (and, for a pool, to its worker children).
Only stdlib modules are imported at the top: ``setup`` must time the first
``import mamsim`` of the interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

from workloads import SRC_DIR, WORKLOADS, block_order, design_text

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
MAX_FAILURE_MESSAGES = 20


def setup(wl) -> dict:
    text = design_text(wl.pool.design, wl.extended)
    sys.path.insert(0, str(SRC_DIR))
    t0 = perf_counter()
    import mamsim

    t1 = perf_counter()
    mamsim.validate_spec(mamsim.parse_spec(text))
    t2 = perf_counter()
    if Path(mamsim.__file__).resolve().parent.parent != SRC_DIR:
        raise ImportError(f"mamsim imported from {mamsim.__file__}")
    return {"import_s": t1 - t0, "validate_s": t2 - t1}


def environment() -> dict:
    import multiprocessing
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "pool_start_method": multiprocessing.get_start_method(),
    }


def _rate(rounds) -> float:
    wall = sum(r.wall_ns for r in rounds)
    return sum(r.reps for r in rounds) / wall * 1e9 if wall else 0.0


def _pool_metrics(rounds, workers) -> dict:
    """Parent's view of ``run_batch``: CPU of whoever simulated (the pool's
    children, or this process at one worker) over workers x wall, and the
    computed pickle size of the results a pool sends back."""
    wall = sum(r.batch_wall_ns for r in rounds)
    cpu = sum(
        r.batch_cpu_children_ns if workers > 1 else r.batch_cpu_self_ns for r in rounds
    )
    reps = sum(r.reps for r in rounds)
    return {
        "montecarlo.worker_utilisation": (cpu / (workers * wall) if wall else 0.0, "ratio"),
        "montecarlo.result_pickle_bytes_per_replicate": (
            sum(r.result_pickle_bytes for r in rounds) / reps if reps else 0.0, "B"),
    }


def _slow_decile(values, lower_is_better: bool) -> float:
    """The decile on the slow side: the figure nine rounds in ten reach.

    Neighbours on a shared box speed rounds up for a while when they go
    idle; the median follows those phases, the slow decile much less."""
    if len(values) < 2:
        return values[0]
    deciles = statistics.quantiles(values, n=10)
    return deciles[-1] if lower_is_better else deciles[0]


def _end_to_end(pipeline, rounds) -> dict:
    """Over the rounds of an untraced pass at the workload's worker count."""
    rss = pipeline.peak_rss_mb()
    good = [r for r in rounds if not r.error]
    if not good:
        return {}
    return {
        "replicates_per_s": (
            _slow_decile([r.reps / r.wall_ns * 1e9 for r in good], False), "replicates/s"),
        "cpu_s_per_replicate": (
            _slow_decile([r.cpu_ns / 1e9 / r.reps for r in good], True), "s"),
        "peak_rss_mb": (rss, "MB"),
        "shard_bytes_per_replicate": (
            statistics.median(r.shard_bytes / r.reps for r in good), "B"),
        "rounds": (len(good), "count"),
    }


def _paired_pass(pipeline, tracer, wl, order, seconds, work, parts, check):
    """Untraced and traced rounds of each block, back to back at one worker.

    The tracer is installed only for the traced round, and which of the
    two goes first alternates, so a change in the machine's speed falls on
    both halves of a pair alike."""
    api, traced_api = pipeline.direct_api(), tracer.api()
    spec = pipeline.load_spec(wl.pool.design, wl.extended)
    untraced, traced = [], []

    def step(block):
        new = []
        for with_tracer in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_tracer:
                with tracer.installed():
                    rnd = pipeline.checked_round(
                        traced_api, wl, spec, block, 1, work, parts, check)
                traced.append(rnd)
            else:
                rnd = pipeline.checked_round(api, wl, spec, block, 1, work, parts, check)
                untraced.append(rnd)
            new.append(rnd)
        return new

    pipeline.whole_passes(order, seconds, step)
    return untraced, traced


def _per_layer(pipeline, wl, order, seconds, work, parts, reference_dir, check) -> dict:
    import micro
    import tracing

    # the pool pass, when there is one, takes a third of the run's seconds
    pool = None
    if wl.workers > 1:
        pool = pipeline.run_pass(
            pipeline.direct_api(), wl, order, seconds / 3, wl.workers, work, parts, check)
        seconds -= seconds / 3
    tracer = tracing.Tracer()
    untraced, traced = _paired_pass(
        pipeline, tracer, wl, order, seconds, work, parts, check)
    tracer.write(work / "spans.json.gz")

    metrics = tracing.layer_metrics(
        tracer.spans, sum(r.wall_ns for r in traced), sum(r.reps for r in traced)
    )
    metrics.update(_pool_metrics(pool or untraced, wl.workers))
    pairs = [u.wall_ns / t.wall_ns for u, t in zip(untraced, traced) if t.wall_ns]
    metrics.update({
        "trace.untraced_replicates_per_s": (_rate(untraced), "replicates/s"),
        "trace.traced_replicates_per_s": (_rate(traced), "replicates/s"),
        "trace.overhead_share": (
            1 - statistics.median(pairs) if pairs else 0.0, "ratio"),
    })
    micro_metrics, attempted, failures = micro.run(reference_dir)
    metrics.update(micro_metrics)
    check.attempted += attempted
    check.failures += failures
    return metrics


def measure(wl, args) -> dict:
    import pipeline
    import reference

    work, reference_dir = Path(args.work), Path(args.reference)
    order = block_order(wl.pool, args.seed)
    parts = sorted(work.glob("part*.shard")) if wl.parts else []
    if wl.parts:
        order = order[:1]  # the input shards hold this one block
    check = reference.Checker(
        reference.load(wl.pool, reference_dir), wl.extended, wl.plot_kinds
    )
    api = pipeline.direct_api()
    # an untimed warm-up round fills lazy imports and caches; it is checked too
    spec = pipeline.load_spec(wl.pool.design, wl.extended)
    pipeline.checked_round(api, wl, spec, order[-1], wl.workers, work, parts, check)

    if args.trace:
        metrics = _per_layer(
            pipeline, wl, order, args.seconds, work, parts, reference_dir, check)
    else:
        metrics = _end_to_end(pipeline, pipeline.run_pass(
            api, wl, order, args.seconds, wl.workers, work, parts, check))
    return {
        "attempted": check.attempted,
        "failed": len(check.failures),
        "failures": check.failures[:MAX_FAILURE_MESSAGES],
        "metrics": metrics,
        "env": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("job", choices=("setup", "generate", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work")
    parser.add_argument("--reference")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.job == "setup":
        print(json.dumps(setup(wl)))
    elif args.job == "generate":
        import pipeline

        pipeline.make_parts(wl, block_order(wl.pool, args.seed)[0], Path(args.work))
    else:
        result = measure(wl, args)
        if not result["metrics"]:
            print("measure: no round completed", file=sys.stderr)
            for message in result["failures"]:
                print(message, file=sys.stderr)
            return 1
        (Path(args.work) / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
