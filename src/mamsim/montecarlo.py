"""Replicate batches: parallel execution, shard persistence, combination.

Shard container format (``.shard``): a self-describing binary file holding
one JSON record per replicate.  All integers are little-endian.

    magic            8 bytes  b"MAMSHD01"
    header_length    u32
    header           UTF-8 JSON: format/engine versions, design
                     fingerprint, canonical design document, seed range,
                     record count, extended level, creation timestamp
    n_records        u64
    records          n_records x (u32 length + UTF-8 JSON record)

Records are sorted by seed and written by the record codec of
:mod:`mamsim.engine`, so the bytes after the header depend only on (design,
seed set): batches produced with different worker counts are
byte-identical.  ``combine_shard_files`` streams records straight from
input shards to the output, checking design fingerprints, seed order,
seed disjointness and every record on the way.  A JSON export of the same
content is provided for interoperability.
"""

from __future__ import annotations

import heapq
import json
import os
import struct
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import itemgetter

from . import __version__
from .config import (
    ValidatedSpec,
    canonical_document,
    document_diff,
    null_variant,
)
# run_trial is unused here but stays bound: benchmark/tracing.py wraps
# ``montecarlo.run_trial`` by name
from .engine import RecordError, TrialResult, _fields, encode, run_block, run_trial  # noqa: F401

MAGIC = b"MAMSHD01"
FORMAT_VERSION = 1
WORKER_CAP_ENV = "MAMSIM_MAX_WORKERS"


class ShardError(ValueError):
    """Unreadable, incompatible, or mutually inconsistent shards."""


@dataclass
class BatchResult:
    """Aggregated replicate results for one design and seed set."""

    fingerprint: str
    seeds: tuple[int, ...]
    extended: int
    spec_document: dict
    results: list[TrialResult]
    results_null: list[TrialResult] | None
    engine_version: str
    created_at: str


def resolve_workers(flag: int | None) -> int:
    """Worker count policy: an explicit flag wins over the env-var cap."""
    if flag is not None:
        if flag < 1:
            raise ShardError("worker count must be >= 1")
        return flag
    available = os.cpu_count() or 1
    text = os.environ.get(WORKER_CAP_ENV, "0") or "0"
    try:
        cap = int(text)
    except ValueError:
        raise ShardError(f"{WORKER_CAP_ENV} must be an integer, got {text!r}") from None
    return min(available, cap) if cap > 0 else available


def run_batch(
    validated: ValidatedSpec,
    seeds=None,
    workers: int = 1,
) -> BatchResult:
    """Run one replicate per seed, distributed over worker processes.

    The result is independent of ``workers``: replicates are keyed by seed
    and merged in seed order, so parallelism never changes the output.
    When the design sets ``h0_mode`` each seed is also run under the
    matched global-null variant.
    """
    spec = validated.spec
    if seeds is None:
        seeds = spec.seeds
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ShardError("no seeds to run")
    counts = Counter(seeds)
    if len(counts) != len(seeds):
        dupes = sorted(s for s, c in counts.items() if c > 1)
        raise ShardError(f"duplicate seeds: {_preview(dupes)}")
    negative = sorted(s for s in seeds if s < 0)
    if negative:
        raise ShardError(f"seeds must be non-negative: {_preview(negative)}")
    if workers < 1:
        raise ShardError("worker count must be >= 1")
    seeds = sorted(seeds)

    null_spec = null_variant(validated) if spec.h0_mode else None
    chunks = [c for c in _chunk(seeds, workers) if c]
    if len(chunks) == 1 or workers == 1:
        pairs = [_run_chunk(validated, null_spec, seeds)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_chunk, validated, null_spec, chunk)
                for chunk in chunks
            ]
            pairs = [f.result() for f in futures]

    results = [r for res, _ in pairs for r in res]
    nulls = [r for _, res in pairs for r in (res or [])]
    return BatchResult(
        fingerprint=validated.fingerprint,
        seeds=tuple(seeds),
        extended=spec.extended,
        spec_document=canonical_document(spec, include_seeds=False),
        results=results,
        results_null=nulls if spec.h0_mode else None,
        engine_version=__version__,
        created_at=datetime.now(timezone.utc).isoformat(),
    )


def _chunk(seeds, workers):
    size, extra = divmod(len(seeds), workers)
    out, start = [], 0
    for i in range(workers):
        end = start + size + (1 if i < extra else 0)
        out.append(seeds[start:end])
        start = end
    return out


def _run_chunk(validated, null_spec, seeds):
    results = run_block(validated, seeds)
    nulls = run_block(null_spec, seeds) if null_spec else None
    return results, nulls


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------


def _record_doc(batch: BatchResult, i: int) -> dict:
    doc = {"seed": batch.seeds[i], "result": batch.results[i]}
    if batch.results_null is not None:
        doc["null_result"] = batch.results_null[i]
    return doc


def _record_bytes(batch: BatchResult, i: int) -> bytes:
    return encode(_record_doc(batch, i))


_HEADER_KEYS = frozenset({
    "format_version", "engine_version", "fingerprint", "spec_document",
    "seed_min", "seed_max", "n_records", "extended", "has_null", "created_at",
})


def _header_doc(batch: BatchResult) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "engine_version": batch.engine_version,
        "fingerprint": batch.fingerprint,
        "spec_document": batch.spec_document,
        "seed_min": min(batch.seeds),
        "seed_max": max(batch.seeds),
        "n_records": len(batch.seeds),
        "extended": batch.extended,
        "has_null": batch.results_null is not None,
        "created_at": batch.created_at,
    }


def save_shard(batch: BatchResult, path) -> None:
    records = (_record_bytes(batch, i) for i in range(len(batch.seeds)))
    _write_atomic(path, _shard_bytes(_header_doc(batch), records))


def _shard_bytes(header: dict, raw_records):
    """Yield a shard's bytes: magic, header, record count, then each record."""
    blob = encode(header)
    yield MAGIC + struct.pack("<I", len(blob)) + blob + struct.pack("<Q", header["n_records"])
    for raw in raw_records:
        yield struct.pack("<I", len(raw)) + raw


def _write_atomic(path, chunks) -> None:
    """Write the byte strings ``chunks`` to a temp file beside ``path``,
    sync it, then rename it over ``path``: a crash or an error mid-write
    never leaves a partial file, and ``path`` may be one of the files the
    chunks are streamed from."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_shard_json(batch: BatchResult, path) -> None:
    """Plain-JSON export of a batch, for interoperability."""
    doc = {
        "header": _header_doc(batch),
        "records": [_record_doc(batch, i) for i in range(len(batch.seeds))],
    }
    text = json.dumps(doc, default=_fields, sort_keys=True, indent=1)
    _write_atomic(path, [text.encode("utf-8")])


def _read_exact(fh, n, path):
    data = fh.read(n)
    if len(data) != n:
        raise ShardError(f"corrupt shard {path}: truncated file")
    return data


def _read_header(fh, path) -> dict:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise ShardError(f"corrupt shard {path}: bad magic bytes")
    (header_len,) = struct.unpack("<I", _read_exact(fh, 4, path))
    try:
        header = json.loads(_read_exact(fh, header_len, path))
    except json.JSONDecodeError as exc:
        raise ShardError(f"corrupt shard {path}: bad header ({exc.msg})") from None
    return _check_header(header, path)


def _check_header(header, path) -> dict:
    """A header must be a ``_header_doc`` of this format version."""
    if not isinstance(header, dict):
        raise ShardError(f"corrupt shard {path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ShardError(
            f"shard {path} has format version {header.get('format_version')}, "
            f"expected {FORMAT_VERSION}"
        )
    missing = _HEADER_KEYS - header.keys()
    if missing:
        raise ShardError(
            f"corrupt shard {path}: header without {', '.join(sorted(missing))}"
        )
    return header


def read_shard_sections(path) -> tuple[dict, bytes]:
    """Header dict plus the raw record region (used for byte comparisons)."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        payload = fh.read()
    return header, payload


def read_shard_header(path) -> dict:
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _raw_records(fh, header: dict, path):
    """Yield the raw record bytes of the shard open in ``fh``, read up to the
    end of its header, without loading them all."""
    (n_records,) = struct.unpack("<Q", _read_exact(fh, 8, path))
    if n_records != header["n_records"]:
        raise ShardError(f"corrupt shard {path}: record count mismatch")
    for _ in range(n_records):
        (length,) = struct.unpack("<I", _read_exact(fh, 4, path))
        yield _read_exact(fh, length, path)


def _decode(record, path, has_null: bool) -> tuple:
    """Seed, result and null result (None unless ``has_null``) of a record,
    given as raw bytes from a binary shard or as an object from a JSON
    export; a record the codec rejects, or whose results belong to another
    seed, is corrupt."""
    if isinstance(record, bytes):
        try:
            record = json.loads(record)
        except ValueError as exc:
            raise ShardError(f"corrupt shard {path}: bad record ({exc})") from None
    if not isinstance(record, dict) or not isinstance(record.get("seed"), int):
        raise ShardError(f"corrupt shard {path}: record without an integer seed")
    seed = record["seed"]
    if "result" not in record or (has_null and "null_result" not in record):
        raise ShardError(f"corrupt shard {path}: record {seed} without a result")
    try:
        result = TrialResult.from_dict(record["result"])
        null = TrialResult.from_dict(record["null_result"]) if has_null else None
    except RecordError as exc:
        raise ShardError(f"corrupt shard {path}: record {seed}: {exc}") from None
    for res in (result, null):
        if res is not None and res.seed != seed:
            raise ShardError(
                f"corrupt shard {path}: record {seed} holds a result of seed {res.seed}"
            )
    return seed, result, null


def _read_json_export(fh, path) -> tuple[dict, list]:
    """Header and records of a ``save_shard_json`` export open in ``fh``."""
    try:
        doc = json.load(fh)
    except ValueError as exc:
        raise ShardError(f"corrupt shard {path}: not JSON ({exc})") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("records"), list)):
        raise ShardError(f"corrupt shard {path}: JSON export without header and records")
    return _check_header(doc.get("header"), path), doc["records"]


def load_shard(path) -> BatchResult:
    """Read a binary shard, or a ``save_shard_json`` export, into a batch."""
    with open(path, "rb") as fh:
        export = fh.read(len(MAGIC)) != MAGIC and str(path).endswith(".json")
        fh.seek(0)
        if export:
            header, records = _read_json_export(fh, path)
        else:
            header = _read_header(fh, path)
            records = _raw_records(fh, header, path)
        # the raw records are not kept
        decoded = [d[:3] for d in _in_seed_order(records, path, header["has_null"])]
    return BatchResult(
        fingerprint=header["fingerprint"],
        seeds=tuple(d[0] for d in decoded),
        extended=header["extended"],
        spec_document=header["spec_document"],
        results=[d[1] for d in decoded],
        results_null=[d[2] for d in decoded] if header["has_null"] else None,
        engine_version=header["engine_version"],
        created_at=header["created_at"],
    )


# --------------------------------------------------------------------------
# combination
# --------------------------------------------------------------------------


def _check_compatible(headers_or_batches) -> None:
    first = headers_or_batches[0]
    for other in headers_or_batches[1:]:
        if other["fingerprint"] != first["fingerprint"]:
            paths = document_diff(first["spec_document"], other["spec_document"])
            raise ShardError(
                "shards come from different designs; differing field(s): "
                + (", ".join(paths) if paths else "<none; header mismatch?>")
            )
        if other["extended"] != first["extended"]:
            raise ShardError("shards disagree on the extended level")


def _preview(values, limit: int = 20) -> str:
    text = ", ".join(map(str, values[:limit]))
    if len(values) > limit:
        text += f", ... ({len(values)} total)"
    return text


def combine_shards(batches) -> BatchResult:
    """Merge disjoint-seed batches from the same design into one batch."""
    batches = list(batches)
    if not batches:
        raise ShardError("no shards to combine")
    _check_compatible([_header_doc(b) for b in batches])
    streams = [
        sorted(zip(b.seeds, b.results, b.results_null or [None] * len(b.seeds)), key=itemgetter(0))
        for b in batches
    ]
    triples = list(_disjoint(heapq.merge(*streams, key=itemgetter(0))))
    has_null = batches[0].results_null is not None
    return BatchResult(
        fingerprint=batches[0].fingerprint,
        seeds=tuple(t[0] for t in triples),
        extended=batches[0].extended,
        spec_document=batches[0].spec_document,
        results=[t[1] for t in triples],
        results_null=[t[2] for t in triples] if has_null else None,
        engine_version=batches[0].engine_version,
        created_at=datetime.now(timezone.utc).isoformat(),
    )


def combine_shard_files(paths, out_path) -> dict:
    """Stream-combine shard files into one output shard, in one pass.

    Each input is opened and its header read once; its records, each
    checked by the record decoder, are merged in seed order and copied
    verbatim.  Overlapping seed sets and an input out of seed order are
    errors raised before the output replaces anything.  Record payloads are
    never held in memory all at once, and the output is byte-identical to a
    monolithic run over the union of the seed sets.  Returns the header.
    """
    if not paths:
        raise ShardError("no shards to combine")
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "rb")) for path in paths]
        headers = [_read_header(fh, path) for fh, path in zip(files, paths)]
        _check_compatible(headers)
        header = dict(headers[0])
        header["n_records"] = sum(h["n_records"] for h in headers)
        header["seed_min"] = min(h["seed_min"] for h in headers)
        header["seed_max"] = max(h["seed_max"] for h in headers)
        header["created_at"] = datetime.now(timezone.utc).isoformat()
        streams = (
            _in_seed_order(_raw_records(fh, h, path), path, h["has_null"])
            for fh, path, h in zip(files, paths, headers)
        )
        merged = heapq.merge(*streams, key=itemgetter(0))
        _write_atomic(out_path, _shard_bytes(header, (d[-1] for d in _disjoint(merged))))
    return header


def _in_seed_order(records, path, has_null: bool):
    """``(seed, result, null result, record)`` for each of a shard's
    ``records``, each checked by the record decoder, in strictly increasing
    seed order."""
    last = None
    for record in records:
        seed, result, null = _decode(record, path, has_null)
        if last is not None and seed <= last:
            raise ShardError(f"corrupt shard {path}: record {seed} out of seed order")
        last = seed
        yield seed, result, null, record


def _disjoint(merged):
    """The ``(seed, ...)`` items of a merge in seed order; a seed met twice
    is an overlap, reported in full once the merge is spent."""
    overlap, last = [], None
    for item in merged:
        if item[0] == last:
            overlap.append(last)
        elif not overlap:
            yield item
        last = item[0]
    if overlap:
        raise ShardError(f"overlapping seed sets: {_preview(sorted(set(overlap)))}")
