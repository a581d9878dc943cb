"""The timed pipelines, run through mamsim's public API from the checkout."""

from __future__ import annotations

import os
import pickle
import resource
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

from workloads import SRC_DIR, Workload, design_text, split

sys.path.insert(0, str(SRC_DIR))
import mamsim  # noqa: E402
from mamsim import montecarlo, report  # noqa: E402

if Path(mamsim.__file__).resolve().parent.parent != SRC_DIR:
    raise ImportError(f"mamsim imported from {mamsim.__file__}, not from {SRC_DIR}")

# The verbs the command line calls, keyed by the layer that owns them.
VERBS = {
    "run_batch": montecarlo,
    "save_shard": montecarlo,
    "load_shard": montecarlo,
    "combine_shard_files": montecarlo,
    "summarize": report,
    "emit_plot_data": report,
}
MIN_ROUNDS = 3


def direct_api() -> SimpleNamespace:
    return SimpleNamespace(**{name: getattr(mod, name) for name, mod in VERBS.items()})


def load_spec(design: str, extended: int):
    return mamsim.validate_spec(mamsim.parse_spec(design_text(design, extended)))


def cpu_ns(who: int) -> int:
    usage = resource.getrusage(who)
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak resident set."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


@dataclass
class Round:
    """One pass of a workload's pipeline over one seed block."""

    block: int
    seeds: list[int]
    reps: int = 0
    wall_ns: int = 0
    cpu_ns: int = 0
    shard_bytes: int = 0
    batch_wall_ns: int = 0
    batch_cpu_self_ns: int = 0
    batch_cpu_children_ns: int = 0
    result_pickle_bytes: int = 0
    outputs: dict = field(default_factory=dict)
    error: str | None = None


def make_parts(wl: Workload, block: int, work: Path) -> list[Path]:
    """Simulate one block as ``wl.parts`` disjoint-seed shards (not timed)."""
    spec = load_spec(wl.pool.design, wl.extended)
    paths = []
    for i, seeds in enumerate(split(wl.pool.seeds(block), wl.parts)):
        path = work / f"part{i}.shard"
        montecarlo.save_shard(montecarlo.run_batch(spec, seeds=seeds, workers=1), path)
        paths.append(path)
    return paths


def run_round(api, wl: Workload, spec, block: int, workers: int, work: Path,
              parts: list[Path]) -> Round:
    rnd = Round(block=block, seeds=wl.pool.seeds(block))
    final = work / "final.shard"
    try:
        t0 = perf_counter_ns()
        c0 = cpu_ns(resource.RUSAGE_SELF) + cpu_ns(resource.RUSAGE_CHILDREN)
        if parts:
            api.combine_shard_files(parts, final)
        else:
            b0 = perf_counter_ns()
            s0 = cpu_ns(resource.RUSAGE_SELF)
            k0 = cpu_ns(resource.RUSAGE_CHILDREN)
            batch = api.run_batch(spec, seeds=rnd.seeds, workers=workers)
            rnd.batch_wall_ns = perf_counter_ns() - b0
            rnd.batch_cpu_self_ns = cpu_ns(resource.RUSAGE_SELF) - s0
            rnd.batch_cpu_children_ns = cpu_ns(resource.RUSAGE_CHILDREN) - k0
            api.save_shard(batch, final)
        loaded = api.load_shard(final)
        _, text = api.summarize(loaded, full=True)
        tables = {
            kind: api.emit_plot_data(api.load_shard(final), kind)[1]
            for kind in wl.plot_kinds
        }
        rnd.wall_ns = perf_counter_ns() - t0
        rnd.cpu_ns = (
            cpu_ns(resource.RUSAGE_SELF) + cpu_ns(resource.RUSAGE_CHILDREN) - c0
        )
    except Exception:  # a failing round is counted, not fatal
        rnd.error = traceback.format_exc()
        return rnd
    rnd.reps = len(rnd.seeds)
    rnd.shard_bytes = os.path.getsize(final)
    if not parts:  # what a pool's workers would send back, computed
        rnd.result_pickle_bytes = len(pickle.dumps((batch.results, batch.results_null)))
    rnd.outputs = {
        "records": [(r.seed, compact(r, spec.spec.model.arm_names)) for r in loaded.results],
        "summary": text,
        "tables": tables,
    }
    return rnd


def checked_round(api, wl: Workload, spec, block: int, workers: int, work: Path,
                  parts: list[Path], check) -> Round:
    """One round, shown to ``check`` and then stripped of its outputs, so
    the process's peak memory does not grow with the run."""
    rnd = run_round(api, wl, spec, block, workers, work, parts)
    check(rnd)
    rnd.outputs = {}
    return rnd


def whole_passes(order: list[int], seconds: float, step) -> list[Round]:
    """Rounds from ``step(block)`` over ``order``, pass after pass, until
    ``seconds`` of them are timed and at least ``MIN_ROUNDS`` are done.

    The time is looked at only between passes, so each block counts equally
    often however fast the code is.  A failed round ends the run."""
    rounds: list[Round] = []
    elapsed = 0
    while elapsed < seconds * 1e9 or len(rounds) < MIN_ROUNDS:
        for block in order:
            new = step(block)
            rounds += new
            if any(r.error for r in new):
                return rounds
            elapsed += sum(r.wall_ns for r in new)
    return rounds


def run_pass(api, wl: Workload, order: list[int], seconds: float, workers: int,
             work: Path, parts: list[Path], check) -> list[Round]:
    """Whole passes of checked rounds over ``order`` at ``workers``."""
    spec = load_spec(wl.pool.design, wl.extended)
    return whole_passes(order, seconds, lambda block: [
        checked_round(api, wl, spec, block, workers, work, parts, check)
    ])


def compact(res, arms) -> list:
    """A replicate's checked outputs, in the stored reference's layout:
    [stop_reason, looks, total_size, sizes by arm, decisions by intervention
    as [efficacy_met, futility_met, timing, look_index], estimates by
    intervention]."""
    return [
        res.stop_reason,
        res.looks_performed,
        res.total_size,
        [res.sample_sizes[a] for a in arms],
        [
            [d.efficacy_met, d.futility_met, d.timing, d.look_index]
            for d in (res.decisions[a] for a in res.arms)
        ],
        [res.estimate_mean.get(a) for a in res.arms],
    ]
