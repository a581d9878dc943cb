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

Records are sorted by seed and written by ``records.encode``, so the bytes
after the header depend only on (design, seed set): batches produced with
different worker counts are byte-identical.  As a shard is read, its
header's design is validated by :mod:`mamsim.config` and each result is
checked by the ``records.RecordSchema`` of that design (both once per design
and process, ``_design``); this module checks the container only.  Headers
and records are strict JSON, written by the stdlib's encoder (records by
orjson, except where its text would differ, see ``records.encode``) and
parsed by orjson (``records.loads``): ``encode``, the only writer, refuses
NaN and infinity, and config keeps every design integer within 64 bits and
every string valid Unicode.
``combine_shard_files`` streams records straight from input shards to the
output, checking design fingerprints, seed order, seed disjointness and
every record on the way.  A JSON export of the same content, written by
the stdlib's encoder, is provided for interoperability.

Only ``run_batch`` simulates, so only it imports the run path (the engine,
which loads numpy and ``scipy.special``, and for a pool
``concurrent.futures``' process pool), before any pool forks: reading,
combining and reporting on shards loads no numpy.  orjson is bound in
:mod:`mamsim.records`, not here.
"""

from __future__ import annotations

import functools
import gc
import heapq
import json
import numbers
import os
import struct
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import itemgetter

from . import __version__
from .config import (
    INT_RANGE, SpecError, ValidatedSpec, canonical_document, canonical_json, document_diff,
    null_variant, parse_spec, validate_spec,
)
from .records import (
    RecordError, RecordSchema, TrialResult, _check, _fields, encode, json_types, loads,
)

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
    """Worker count policy: an explicit flag wins over the env-var cap, and
    the default is the number of CPUs this process may run on."""
    if flag is not None:
        if flag < 1:
            raise ShardError("worker count must be >= 1")
        return flag
    affinity = getattr(os, "sched_getaffinity", None)
    available = len(affinity(0)) if affinity else os.cpu_count() or 1
    text = os.environ.get(WORKER_CAP_ENV, "0") or "0"
    try:
        cap = int(text)
    except ValueError:
        raise ShardError(f"{WORKER_CAP_ENV} must be an integer, got {text!r}") from None
    if cap < 0:
        raise ShardError(f"{WORKER_CAP_ENV} must not be negative, got {text!r}")
    return min(available, cap) if cap > 0 else available


def run_batch(
    validated: ValidatedSpec,
    seeds=None,
    workers: int = 1,
) -> BatchResult:
    """Run one replicate per seed, distributed over worker processes.

    ``workers`` counts every process that simulates: the seeds are split
    into up to ``workers`` chunks, the calling process runs the first and
    a pool of one process fewer runs the rest.  The result is independent
    of ``workers``: replicates are keyed by seed and joined in seed order,
    so parallelism never changes the output.  When the design sets
    ``h0_mode`` each seed is also run under the matched global-null
    variant.
    """
    spec = validated.spec
    if seeds is None:
        seeds = spec.seeds
    seeds = list(seeds)
    # numpy's integer types register as ``numbers.Integral``
    not_ints = [s for s in seeds if isinstance(s, bool) or not isinstance(s, numbers.Integral)]
    if not_ints:
        raise ShardError(f"seeds must be integers, got {_preview([repr(s) for s in not_ints])}")
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
    # a shard's parser reads larger integers as floats
    too_large = sorted(s for s in seeds if s not in INT_RANGE)
    if too_large:
        raise ShardError(f"seeds must be below 2**64: {_preview(too_large)}")
    if workers < 1:
        raise ShardError("worker count must be >= 1")
    seeds = sorted(seeds)

    null_spec = null_variant(validated) if spec.h0_mode else None
    # a pool starts all its workers at the first submit: no more than seeds
    chunks = _chunk(seeds, min(workers, len(seeds)))
    if len(chunks) == 1:
        pairs = [_run_chunk(validated, null_spec, seeds)]
    else:
        # the run path (the engine, numpy, glm and scipy.special), loaded
        # here, is inherited by the pool's forked processes, not imported by
        # each.  The caller runs chunk 0 rather than wait idle on the pool;
        # leaving the block waits for the pool's processes, also when a
        # chunk raised
        from concurrent.futures import ProcessPoolExecutor

        from . import engine  # noqa: F401

        with ProcessPoolExecutor(max_workers=len(chunks) - 1) as pool:
            futures = [
                pool.submit(_run_chunk, validated, null_spec, chunk)
                for chunk in chunks[1:]
            ]
            pairs = [_run_chunk(validated, null_spec, chunks[0])]
            pairs += [f.result() for f in futures]

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
    from . import engine

    results = engine.run_block(validated, seeds)
    nulls = engine.run_block(null_spec, seeds) if null_spec else None
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


_HEADER_TYPES = json_types(
    format_version=int, engine_version=str, fingerprint=str, spec_document=dict, seed_min=int,
    seed_max=int, n_records=int, extended=int, has_null=bool, created_at=str,
)


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
    text = json.dumps(doc, default=_fields, sort_keys=True, indent=1, allow_nan=False)
    _write_atomic(path, [text.encode("utf-8")])


def _read_exact(fh, n, path):
    data = fh.read(n)
    if len(data) != n:
        raise ShardError(f"corrupt shard {path}: truncated file")
    return data


def _read_header(fh, path) -> tuple[dict, RecordSchema]:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise ShardError(f"corrupt shard {path}: bad magic bytes")
    (header_len,) = struct.unpack("<I", _read_exact(fh, 4, path))
    try:
        header = loads(_read_exact(fh, header_len, path))
    except json.JSONDecodeError as exc:
        raise ShardError(f"corrupt shard {path}: bad header ({exc.msg})") from None
    return _check_header(header, path)


def _check_header(header, path) -> tuple[dict, RecordSchema]:
    """A header must be a ``_header_doc`` of this format version whose
    design validates and has the header's fingerprint and extended level;
    returns it with the schema of its records."""
    if isinstance(header, dict) and header.get("format_version") != FORMAT_VERSION:
        version = header.get("format_version")
        raise ShardError(f"shard {path} has format version {version}, expected {FORMAT_VERSION}")
    try:
        _check("header", header, _HEADER_TYPES)
        validated, schema = _design(canonical_json(header["spec_document"]))
    except RecordError as exc:
        raise ShardError(f"corrupt shard {path}: {exc}") from None
    except SpecError as exc:
        raise ShardError(f"corrupt shard {path}: header design: {exc}") from None
    design = {"fingerprint": validated.fingerprint, "extended": validated.spec.extended}
    for key, value in design.items():
        if header[key] != value:
            raise ShardError(f"corrupt shard {path}: header {key} is not its design's")
    return header, schema


@functools.lru_cache(maxsize=8)
def _design(document: bytes) -> tuple[ValidatedSpec, RecordSchema]:
    """The validated design of a header's ``spec_document``, given as its
    canonical bytes, and the schema of its records.  Kept for the last few
    designs: the shards of one job, each read by several verbs, share one."""
    validated = validate_spec(parse_spec(document.decode("utf-8")))
    return validated, RecordSchema(validated)


def _raw_records(fh, header: dict, path):
    """Yield the raw record bytes of the shard open in ``fh``, read up to the
    end of its header, without loading them all."""
    (n_records,) = struct.unpack("<Q", _read_exact(fh, 8, path))
    if n_records != header["n_records"]:
        raise ShardError(f"corrupt shard {path}: record count mismatch")
    for _ in range(n_records):
        (length,) = struct.unpack("<I", _read_exact(fh, 4, path))
        yield _read_exact(fh, length, path)


# a record's keys, indexed by the header's ``has_null``
_ENVELOPE = (frozenset({"seed", "result"}), frozenset({"seed", "result", "null_result"}))


def _decode(record, path, has_null: bool, read) -> tuple:
    """Seed, result and null result (None unless ``has_null``) of a record,
    given as raw bytes from a binary shard or as an object from a JSON
    export; each result is as ``read`` gives it, a ``RecordSchema``'s
    ``result`` or ``check``.  A record is corrupt when it is not the JSON
    object ``{seed, result[, null_result]}``, when ``read`` rejects a
    result, or when a result belongs to another seed."""
    if isinstance(record, bytes):
        try:
            record = loads(record)
        except ValueError as exc:
            raise ShardError(f"corrupt shard {path}: bad record ({exc})") from None
    if not isinstance(record, dict) or type(record.get("seed")) is not int:
        raise ShardError(f"corrupt shard {path}: record without an integer seed")
    seed, envelope = record["seed"], _ENVELOPE[has_null]
    if record.keys() != envelope:
        if envelope - record.keys():
            raise ShardError(f"corrupt shard {path}: record {seed} without a result")
        extra = ", ".join(sorted(record.keys() - envelope))
        raise ShardError(f"corrupt shard {path}: record {seed} with unexpected {extra}")
    try:
        result = read(record["result"])
        null = read(record["null_result"]) if has_null else None
    except RecordError as exc:
        raise ShardError(f"corrupt shard {path}: record {seed}: {exc}") from None
    for key in ("result", "null_result")[: 1 + has_null]:
        if record[key]["seed"] != seed:
            other = record[key]["seed"]
            raise ShardError(f"corrupt shard {path}: record {seed} holds a result of seed {other}")
    return seed, result, null


def _read_json_export(fh, path) -> tuple[tuple[dict, RecordSchema], list]:
    """Header, record schema and records of a ``save_shard_json`` export."""
    try:
        doc = loads(fh.read())
    except ValueError as exc:
        raise ShardError(f"corrupt shard {path}: not JSON ({exc})") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("records"), list)):
        raise ShardError(f"corrupt shard {path}: JSON export without header and records")
    return _check_header(doc.get("header"), path), doc["records"]


def load_shard(path) -> BatchResult:
    """Read a binary shard, or a ``save_shard_json`` export, into a batch.

    The cyclic garbage collector is off while it reads: the results hold no
    reference cycles, so reference counting frees all that is dropped, and
    the collector's passes over the growing batch would find nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            export = fh.read(len(MAGIC)) != MAGIC and str(path).endswith(".json")
            fh.seek(0)
            if export:
                (header, schema), records = _read_json_export(fh, path)
            else:
                header, schema = _read_header(fh, path)
                records = _raw_records(fh, header, path)
            decoded = _in_seed_order(records, path, header, schema.result)
            # the raw records are not kept
            return _batch(header, [d[:3] for d in decoded])
    finally:
        if enabled:
            gc.enable()


def _batch(header: dict, triples) -> BatchResult:
    """The batch of a shard header and its ``(seed, result, null result)``
    triples in seed order."""
    return BatchResult(
        fingerprint=header["fingerprint"],
        seeds=tuple(t[0] for t in triples),
        extended=header["extended"],
        spec_document=header["spec_document"],
        results=[t[1] for t in triples],
        results_null=[t[2] for t in triples] if header["has_null"] else None,
        engine_version=header["engine_version"],
        created_at=header["created_at"],
    )


# --------------------------------------------------------------------------
# combination
# --------------------------------------------------------------------------


def _merged_header(headers) -> dict:
    """The header of the union of shards from the same design: the first
    header's, with the record count and seed range of them all and a new
    timestamp."""
    first = headers[0]
    for other in headers[1:]:
        if other["fingerprint"] != first["fingerprint"]:
            # a checked header's document hashes to its fingerprint: they differ
            paths = ", ".join(document_diff(first["spec_document"], other["spec_document"]))
            raise ShardError(f"shards come from different designs; differing field(s): {paths}")
    return {
        **first,
        "n_records": sum(h["n_records"] for h in headers),
        "seed_min": min(h["seed_min"] for h in headers),
        "seed_max": max(h["seed_max"] for h in headers),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


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
    header = _merged_header([_header_doc(b) for b in batches])
    streams = [
        sorted(zip(b.seeds, b.results, b.results_null or [None] * len(b.seeds)), key=itemgetter(0))
        for b in batches
    ]
    return _batch(header, list(_disjoint(heapq.merge(*streams, key=itemgetter(0)))))


def combine_shard_files(paths, out_path) -> dict:
    """Stream-combine shard files into one output shard, in one pass.

    Each input is opened and its header read once; its records, each
    checked by the record decoder (``RecordSchema.check``, which builds no
    result objects), are merged in seed order and copied verbatim.
    Overlapping seed sets and an input out of seed order are errors raised
    before the output replaces anything.  Record payloads are
    never held in memory all at once, and the output is byte-identical to a
    monolithic run over the union of the seed sets.  Returns the header.
    """
    if not paths:
        raise ShardError("no shards to combine")
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "rb")) for path in paths]
        checked = [_read_header(fh, path) for fh, path in zip(files, paths)]
        header = _merged_header([h for h, _ in checked])
        streams = (
            _in_seed_order(_raw_records(fh, h, path), path, h, schema.check)
            for fh, path, (h, schema) in zip(files, paths, checked)
        )
        merged = heapq.merge(*streams, key=itemgetter(0))
        _write_atomic(out_path, _shard_bytes(header, (d[-1] for d in _disjoint(merged))))
    return header


def _in_seed_order(records, path, header: dict, read):
    """``(seed, result, null result, record)`` for each of a shard's
    ``records``, each checked by the record decoder against the shard's
    ``header`` and its results read by ``read``, in strictly increasing
    seed order."""
    has_null, last = header["has_null"], None
    for record in records:
        seed, result, null = _decode(record, path, has_null, read)
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


# Tracing-only binding, like ``glm``'s: benchmark/tracing.py wraps
# ``montecarlo.run_trial`` by name.  Forwarded, not imported, so that
# ``import mamsim`` loads no engine; it goes when the benchmark hooks what
# runs.
def __getattr__(name):
    if name == "run_trial":
        from .engine import run_trial

        return run_trial
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
