"""Command-line interface.

Verbs:
    run       simulate a design document and write a shard
    combine   merge disjoint-seed shards from the same design
    summary   print operating characteristics for a shard
    plot-data export plot-ready CSV tables from a shard
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from pathlib import Path

from . import config, montecarlo, report
from .config import DataGenError, FitError, SpecError
from .montecarlo import ShardError
from .report import ReportError
from .rules import RuleError


def _parse_seed_range(text: str) -> list[int]:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if match:
        lo, hi = int(match.group(1)), int(match.group(2))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be 'a..b' or a comma list, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mamsim",
        description="Simulate Bayesian adaptive multi-arm multi-stage trial designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a design document")
    run.add_argument("spec", type=Path, help="path to the JSON design document")
    seeds = run.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", type=_parse_seed_range, help="seed range a..b or comma list")
    seeds.add_argument("--replicates", type=int, help="run seeds 1..R")
    run.add_argument("--workers", type=int, default=None,
                     help="processes that simulate: this one plus a pool of N-1")
    run.add_argument("--out", type=Path, default=None, help="output shard path")
    run.add_argument("--extended", type=int, choices=(0, 1, 2), default=None,
                     help="override the document's persistence depth")

    comb = sub.add_parser("combine", help="merge disjoint-seed shards")
    comb.add_argument("shards", nargs="+", type=Path)
    comb.add_argument("--out", type=Path, required=True)

    summ = sub.add_parser("summary", help="print operating characteristics")
    summ.add_argument("shard", type=Path)
    summ.add_argument("--full", action="store_true", help="long variant")

    plot = sub.add_parser("plot-data", help="export plot-ready CSV")
    plot.add_argument("shard", type=Path)
    plot.add_argument("--kind", choices=("estimates", "size"), required=True)
    plot.add_argument("--out", type=Path, required=True)
    return parser


def _cmd_run(args) -> int:
    validated = config.validate_spec(config.parse_spec(args.spec.read_text()))
    if args.extended is not None:
        import dataclasses

        validated = config.validate_spec(
            dataclasses.replace(validated.spec, extended=args.extended)
        )
    if args.replicates is not None:
        if args.replicates < 1:
            raise ShardError("replicates must be >= 1")
        seeds = list(range(1, args.replicates + 1))
    elif args.seeds is not None:
        seeds = args.seeds
    else:
        seeds = None
    workers = montecarlo.resolve_workers(args.workers)
    batch = montecarlo.run_batch(validated, seeds=seeds, workers=workers)
    out = args.out or args.spec.with_suffix(".shard")
    montecarlo.save_shard(batch, out)
    print(f"wrote {len(batch.seeds)} replicates to {out}")
    return 0


def _cmd_combine(args) -> int:
    header = montecarlo.combine_shard_files(args.shards, args.out)
    print(f"wrote {header['n_records']} replicates to {args.out}")
    return 0


def _cmd_summary(args) -> int:
    batch = montecarlo.load_shard(args.shard)
    _, text = report.summarize(batch, full=args.full)
    sys.stdout.write(text)
    return 0


def _cmd_plot_data(args) -> int:
    batch = montecarlo.load_shard(args.shard)
    header, rows = report.emit_plot_data(batch, args.kind)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "combine": _cmd_combine,
    "summary": _cmd_summary,
    "plot-data": _cmd_plot_data,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpecError, ShardError, ReportError, FitError, DataGenError, RuleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
