"""Workload definitions shared by the benchmark's processes (stdlib only).

A workload runs one shipped design over blocks of replicate seeds.  Each
design has a fixed pool of seed blocks whose expected outputs are stored in
``reference/``.  A run makes whole passes over the pool, so every run, on
any commit, measures each block equally often; the benchmark's ``--seed``
only chooses the order in which a pass visits the blocks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
DESIGNS_DIR = ROOT / "designs"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".bench_work"


@dataclass(frozen=True)
class Pool:
    """Seed blocks of one design: block b holds seeds b*size+1 .. (b+1)*size."""

    design: str
    block_size: int
    blocks: int

    def seeds(self, block: int) -> list[int]:
        start = block * self.block_size + 1
        return list(range(start, start + self.block_size))


# a pass over either pool takes about 5 s on 2 shared Xeon vCPUs, so that
# a 25 s run ends at most one short pass after its time is up
SIX_ARM_POOL = Pool("orr_six_arm_alternative", block_size=40, blocks=5)
COUNT_POOL = Pool("count_dose_finding", block_size=160, blocks=4)


@dataclass(frozen=True)
class Workload:
    """One timed pipeline.

    A round either simulates one block (``run_batch`` at ``workers``, then
    ``save_shard``) or, when ``parts`` > 0, combines ``parts`` pre-made
    shards that together hold one block.  Every round then loads the shard
    for ``summarize(full=True)`` and once more per plot-data kind, as the
    command-line verbs do.
    """

    name: str
    pool: Pool
    workers: int
    extended: int
    plot_kinds: tuple[str, ...]
    parts: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # engine-bound: fit, datagen, rules and RAR; shard I/O is negligible
        Workload("six_arm_rar", SIX_ARM_POOL, workers=1, extended=0, plot_kinds=()),
        # the only process-pool workload, and the only nbinomial fits
        Workload(
            "count_parallel", COUNT_POOL, workers=2, extended=1,
            plot_kinds=("estimates",),
        ),
        # persistence and report only: the simulation happens before timing
        Workload(
            "shard_report", COUNT_POOL, workers=1, extended=2,
            plot_kinds=("estimates", "size"), parts=4,
        ),
    )
}


def block_order(pool: Pool, seed: int) -> list[int]:
    """The order in which a run with this ``--seed`` visits the pool."""
    order = list(range(pool.blocks))
    random.Random(seed).shuffle(order)
    return order


def split(seeds: list[int], parts: int) -> list[list[int]]:
    """Disjoint contiguous seed ranges, as separate cluster jobs would run."""
    size = -(-len(seeds) // parts)
    return [seeds[i : i + size] for i in range(0, len(seeds), size)]


def design_text(design: str, extended: int) -> str:
    """The shipped design document with its ``extended`` level set."""
    doc = json.loads((DESIGNS_DIR / f"{design}.json").read_text(encoding="utf-8"))
    doc["extended"] = extended
    return json.dumps(doc)


def missing_sources() -> list[str]:
    """Program files the benchmark needs that are absent from the checkout."""
    needed = [SRC_DIR / "mamsim" / "__init__.py"]
    needed += [DESIGNS_DIR / f"{p.design}.json" for p in (SIX_ARM_POOL, COUNT_POOL)]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
