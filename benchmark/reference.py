"""Stored per-seed references and the checks against them.

``reference/<design>.json`` holds, for every seed of the design's pool, the
replicate's stop reason, looks performed, sizes, decisions and estimates,
plus the ``summarize(full=True)`` text of every block at every extended
level a workload uses.  Plot-data rows are derived from the per-seed part
and compared in (seed, arm) order, since their order within a replicate
follows the shard codec's key order and carries no meaning.
Decisions, sizes and text must match exactly; estimates within
``ESTIMATE_TOL``, since a different but equally converged solver (Newton
stops at a score below 1e-8) may change their last digits.

Regenerate the files from the checkout's code with::

    python3 benchmark/reference.py
"""

from __future__ import annotations

import json
import math

from workloads import COUNT_POOL, REFERENCE_DIR, SIX_ARM_POOL, WORKLOADS, Pool

ESTIMATE_TOL = 1e-6


def load(pool: Pool, directory=REFERENCE_DIR) -> dict:
    with open(directory / f"{pool.design}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isfinite(a) and abs(a - b) <= ESTIMATE_TOL


def same_record(got: list, want: list) -> bool:
    return got[:5] == want[:5] and len(got[5]) == len(want[5]) and all(
        _close(a, b) for a, b in zip(got[5], want[5])
    )


def decision(efficacy_met: bool, futility_met: bool) -> str:
    if efficacy_met and futility_met:
        return "both"
    return "efficacy" if efficacy_met else "futility" if futility_met else "none"


def expected_rows(ref: dict, seeds: list[int], kind: str) -> list[tuple]:
    rows = []
    for seed in seeds:
        _, _, total, sizes, decisions, estimates = ref["records"][str(seed)]
        if kind == "estimates":
            for arm, (eff, fut, timing, _), est in zip(
                ref["interventions"], decisions, estimates
            ):
                size = sizes[ref["arms"].index(arm)]
                rows.append((seed, arm, est, size, decision(eff, fut), timing))
        else:
            rows += [(seed, arm, size) for arm, size in zip(ref["arms"], sizes)]
            rows.append((seed, "overall", total))
    return rows


def _row_key(row):
    return row[0], row[1]


def _same_row(got, want) -> bool:
    if len(got) != len(want):
        return False
    if len(want) == 6:  # estimates row: the estimate is a float
        return _close(got[2], want[2]) and (got[:2] + got[3:]) == (want[:2] + want[3:])
    return tuple(got) == tuple(want)


def check_round(ref: dict, extended: int, rnd, kinds) -> tuple[int, list[str]]:
    """Attempted operations of one round and a message per failed one.

    The operations are the block's replicates, its summary text and each
    plot-data table."""
    attempted = len(rnd.seeds) + 1 + len(kinds)
    where = f"block {rnd.block}"
    if rnd.error:
        last = rnd.error.strip().splitlines()[-1]
        return attempted, [f"{where}: raised {last}"] * attempted
    failures = []
    got = dict(rnd.outputs["records"])
    for seed in rnd.seeds:
        if seed not in got:
            failures.append(f"{where}: seed {seed} missing from the shard")
        elif not same_record(got[seed], ref["records"][str(seed)]):
            failures.append(f"{where}: seed {seed} differs from the reference")
    if rnd.outputs["summary"] != ref["summaries"][str(extended)][rnd.block]:
        failures.append(f"{where}: summary text differs from the reference")
    for kind in kinds:
        rows = sorted(rnd.outputs["tables"][kind], key=_row_key)
        want = sorted(expected_rows(ref, rnd.seeds, kind), key=_row_key)
        if len(rows) != len(want) or not all(map(_same_row, rows, want)):
            failures.append(f"{where}: {kind} plot data differs from the reference")
    return attempted, failures


class Checker:
    """Tally of attempted operations and failure messages over rounds."""

    def __init__(self, ref: dict, extended: int, kinds) -> None:
        self.ref, self.extended, self.kinds = ref, extended, kinds
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, rnd) -> None:
        attempted, failures = check_round(self.ref, self.extended, rnd, self.kinds)
        self.attempted += attempted
        self.failures += failures


def _write(pool: Pool, doc: dict, records: dict) -> None:
    """One record per line, so a changed replicate shows as a one-line diff."""
    head = json.dumps(doc, indent=1)[:-2]
    lines = [f'"{seed}": {json.dumps(rec)}' for seed, rec in records.items()]
    text = head + ',\n "records": {\n' + ",\n".join(lines) + "\n }\n}\n"
    (REFERENCE_DIR / f"{pool.design}.json").write_text(text, encoding="utf-8")


def record(pool: Pool) -> None:
    import pipeline

    levels = sorted({w.extended for w in WORKLOADS.values() if w.pool is pool})
    specs = {e: pipeline.load_spec(pool.design, e) for e in levels}
    model = specs[levels[0]].spec.model
    records: dict[int, list] = {}
    summaries: dict[str, list[str]] = {str(e): [] for e in levels}
    for block in range(pool.blocks):
        for level, spec in specs.items():
            batch = pipeline.mamsim.run_batch(spec, seeds=pool.seeds(block), workers=2)
            summaries[str(level)].append(pipeline.mamsim.summarize(batch, full=True)[1])
            for res in batch.results:
                rec = pipeline.compact(res, model.arm_names)
                if records.setdefault(res.seed, rec) != rec:
                    raise RuntimeError(f"seed {res.seed} depends on the extended level")
    doc = {
        "design": pool.design,
        "block_size": pool.block_size,
        "blocks": pool.blocks,
        "arms": list(model.arm_names),
        "interventions": list(model.interventions),
        "summaries": summaries,
    }
    _write(pool, doc, records)


if __name__ == "__main__":
    import micro

    REFERENCE_DIR.mkdir(exist_ok=True)
    for p in (SIX_ARM_POOL, COUNT_POOL):
        record(p)
        print(f"recorded {p.design}: {p.blocks} blocks of {p.block_size} seeds")
    micro.record()
    print("recorded microbenchmark datasets")
