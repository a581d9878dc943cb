"""Batch execution, shard persistence, and combination safety."""

import concurrent.futures
import gc
import json
import multiprocessing
import os
import struct
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import orjson
import pytest

from mamsim import engine, montecarlo, records
from mamsim.engine import run_block
from mamsim.glm import FitError
from mamsim.montecarlo import (
    ShardError,
    combine_shard_files,
    combine_shards,
    load_shard,
    run_batch,
    save_shard,
    save_shard_json,
)
from mamsim.records import encode
from mamsim.report import summarize

from trial_designs import gaussian_two_stage_design, read_shard_sections, validated

DESIGNS_DIR = Path(__file__).resolve().parent.parent / "designs"


@pytest.fixture(scope="module")
def small_spec():
    return validated(gaussian_two_stage_design(replicates=12))


@pytest.fixture(scope="module")
def small_batch(small_spec):
    return run_batch(small_spec, workers=1)


def payload(path):
    return read_shard_sections(path)[1]


def test_scalar_replicates_become_seed_range(small_batch):
    assert small_batch.seeds == tuple(range(1, 13))


def test_worker_count_does_not_change_bytes(small_spec, tmp_path):
    # null results come from the caller's chunk and from the pool's chunks
    null_spec = validated(gaussian_two_stage_design(replicates=12, h0_mode=True))
    for name, spec in (("plain", small_spec), ("h0", null_spec)):
        blobs = []
        for workers in (1, 2, 3, 4):
            batch = run_batch(spec, workers=workers)
            path = tmp_path / f"{name}{workers}.shard"
            save_shard(batch, path)
            blobs.append(payload(path))
        assert (batch.results_null is not None) == (name == "h0")
        assert blobs[1:] == blobs[:1] * 3


def test_pool_is_sized_to_its_chunks(small_spec, small_batch, monkeypatch):
    # a process pool starts all its workers at the first submit, so three
    # seeds get three chunks whatever the worker count: the caller runs the
    # first and a pool of two processes the others
    sizes, submitted = [], []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args[-1])
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    batch = run_batch(small_spec, seeds=[3, 1, 2], workers=8)
    assert sizes == [2]
    assert submitted == [[2], [3]]
    assert [r.seed for r in batch.results] == [1, 2, 3]


def test_caller_runs_the_first_chunk(small_spec, small_batch, monkeypatch):
    # what the pool's processes record stays in their own memory
    ran = []

    def recording(spec, seeds):
        ran.append((os.getpid(), list(seeds)))
        return run_block(spec, seeds)

    monkeypatch.setattr(engine, "run_block", recording)
    batch = run_batch(small_spec, seeds=range(12, 0, -1), workers=3)
    assert ran == [(os.getpid(), [1, 2, 3, 4])]
    assert batch.seeds == small_batch.seeds
    assert [encode(r) for r in batch.results] == [
        encode(r) for r in small_batch.results
    ]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the pool's processes must inherit the patched run_block",
)
@pytest.mark.parametrize("bad_seed", [1, 12], ids=["caller", "pool"])
def test_a_failing_chunk_raises_its_error_and_leaves_no_process(
    small_spec, monkeypatch, bad_seed
):
    def failing(spec, seeds):
        if bad_seed in seeds:
            raise FitError(f"no fit for seed {bad_seed}")
        return run_block(spec, seeds)

    monkeypatch.setattr(engine, "run_block", failing)
    with pytest.raises(FitError, match=f"^no fit for seed {bad_seed}$"):
        run_batch(small_spec, workers=3)
    assert multiprocessing.active_children() == []


def test_duplicate_seeds_rejected(small_spec):
    with pytest.raises(ShardError, match="duplicate"):
        run_batch(small_spec, seeds=[3, 3], workers=1)


@pytest.mark.parametrize(
    "seeds, message",
    [
        ([5, 3, 3, 9, 5, 7, 5], "duplicate seeds: 3, 5"),
        (
            list(range(30, 0, -1)) * 2,
            "duplicate seeds: " + ", ".join(map(str, range(1, 21))) + ", ... (30 total)",
        ),
    ],
    ids=["few", "preview"],
)
def test_duplicate_seeds_message(small_spec, seeds, message):
    with pytest.raises(ShardError) as info:
        run_batch(small_spec, seeds=seeds, workers=1)
    assert str(info.value) == message


def test_shard_round_trip(small_spec, small_batch, tmp_path):
    path = tmp_path / "batch.shard"
    save_shard(small_batch, path)
    again = load_shard(path)
    assert again.fingerprint == small_batch.fingerprint
    assert again.seeds == small_batch.seeds
    assert [encode(r) for r in again.results] == [
        encode(r) for r in small_batch.results
    ]


def test_json_export_round_trip(small_batch, tmp_path):
    path = tmp_path / "batch.json"
    save_shard_json(small_batch, path)
    again = load_shard(path)
    assert again.seeds == small_batch.seeds
    assert [encode(r) for r in again.results] == [
        encode(r) for r in small_batch.results
    ]


def test_non_finite_floats_are_not_written(small_spec, tmp_path):
    batch = run_batch(small_spec, seeds=[1, 2], workers=1)
    batch.results[1].estimate_sd["T1"] = float("inf")
    for save, name in ((save_shard, "inf.shard"), (save_shard_json, "inf.json")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            save(batch, tmp_path / name)
    assert list(tmp_path.iterdir()) == []


def test_failed_json_export_leaves_target_untouched(small_batch, tmp_path, monkeypatch):
    path = tmp_path / "batch.json"
    path.write_bytes(b"previous export")

    def no_sync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(montecarlo.os, "fsync", no_sync)
    with pytest.raises(OSError, match="disk full"):
        save_shard_json(small_batch, path)
    assert path.read_bytes() == b"previous export"
    assert [p.name for p in tmp_path.iterdir()] == ["batch.json"]


def test_combine_partition_equals_monolithic(small_spec, small_batch, tmp_path):
    left = run_batch(small_spec, seeds=range(1, 7), workers=1)
    right = run_batch(small_spec, seeds=range(7, 13), workers=1)
    combined = combine_shards([left, right])
    assert combined.seeds == small_batch.seeds
    assert [encode(r) for r in combined.results] == [
        encode(r) for r in small_batch.results
    ]
    # file-level combination reproduces the monolithic payload byte for byte
    mono = tmp_path / "mono.shard"
    save_shard(small_batch, mono)
    a, b, out = tmp_path / "a.shard", tmp_path / "b.shard", tmp_path / "out.shard"
    save_shard(left, a)
    save_shard(right, b)
    combine_shard_files([a, b], out)
    assert payload(out) == payload(mono)
    # exact aggregate equality, not just approximate
    assert summarize(load_shard(out), full=True)[1] == summarize(small_batch, full=True)[1]


def test_combine_builds_no_result_objects(small_spec, tmp_path, monkeypatch):
    # combine only checks records and copies their bytes: it builds no
    # TrialResult, where a load builds one per record
    built = []

    class Spy(records.TrialResult):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    a, b, out = tmp_path / "a.shard", tmp_path / "b.shard", tmp_path / "out.shard"
    save_shard(run_batch(small_spec, seeds=range(1, 7), workers=1), a)
    save_shard(run_batch(small_spec, seeds=range(7, 13), workers=1), b)
    monkeypatch.setattr(records, "TrialResult", Spy)
    combine_shard_files([a, b], out)
    assert built == []
    assert load_shard(out).seeds == tuple(range(1, 13))
    assert len(built) == 12


@pytest.mark.parametrize("corrupt", [False, True], ids=["good", "corrupt-record"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("container", ["shard", "json"])
def test_load_shard_leaves_the_cyclic_gc_as_it_found_it(
    small_batch, tmp_path, monkeypatch, container, enabled, corrupt
):
    path = tmp_path / f"batch.{container}"
    (save_shard if container == "shard" else save_shard_json)(small_batch, path)
    if corrupt:  # a key renamed in place: the container stays whole
        path.write_bytes(path.read_bytes().replace(b'"total_size"', b'"total_sizf"', 1))
    seen = []
    decode = montecarlo._decode
    monkeypatch.setattr(
        montecarlo, "_decode", lambda *args: seen.append(gc.isenabled()) or decode(*args)
    )
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if corrupt:
            with pytest.raises(ShardError, match="record 1: TrialResult without total_size"):
                load_shard(path)
        else:
            assert load_shard(path).seeds == small_batch.seeds
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # the records are decoded with the collector off
    assert seen and not any(seen)


def test_combine_rejects_overlap(small_spec):
    a = run_batch(small_spec, seeds=range(1, 6), workers=1)
    b = run_batch(small_spec, seeds=range(4, 10), workers=1)
    with pytest.raises(ShardError, match="4, 5"):
        combine_shards([a, b])


def test_combine_rejects_different_designs(small_spec):
    other = validated(
        gaussian_two_stage_design(
            replicates=3, fut_arm_rule={"family": "fixed", "params": {"b_f": 0.2}}
        )
    )
    a = run_batch(small_spec, seeds=[1], workers=1)
    b = run_batch(other, seeds=[2], workers=1)
    with pytest.raises(ShardError, match=r"fut_arm_rule\.params\.b_f"):
        combine_shards([a, b])


def test_combine_file_errors(tmp_path):
    garbage = tmp_path / "junk.shard"
    garbage.write_bytes(b"not a shard at all")
    with pytest.raises(ShardError, match="magic"):
        load_shard(garbage)

    truncated = tmp_path / "short.shard"
    truncated.write_bytes(montecarlo.MAGIC + b"\xff\xff\xff\x7f")
    with pytest.raises(ShardError, match="truncated"):
        load_shard(truncated)


def test_format_version_checked(small_batch, tmp_path):
    path = tmp_path / "v.shard"
    save_shard(small_batch, path)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + header_len])
    header["format_version"] = 99
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + header_len :])
    with pytest.raises(ShardError, match="format version"):
        load_shard(path)


def test_h0_mode_runs_matched_null():
    v = validated(gaussian_two_stage_design(replicates=4, h0_mode=True))
    batch = run_batch(v, workers=2)
    assert batch.results_null is not None
    assert len(batch.results_null) == 4
    # the null companion shares the seed stream structure but zeroed effects
    assert [r.seed for r in batch.results_null] == [r.seed for r in batch.results]


def test_h0_companion_stream_structure_identical():
    # when the targets are already zero the null companion is the same
    # design, so its replicates must be bit-identical to the primary ones
    v = validated(
        gaussian_two_stage_design(replicates=3, h0_mode=True, beta_true=[0.3, 0.0, 0.0])
    )
    batch = run_batch(v, workers=1)
    assert [encode(r) for r in batch.results] == [
        encode(r) for r in batch.results_null
    ]


def test_extended_payloads_survive_persistence(tmp_path):
    v = validated(gaussian_two_stage_design(replicates=2, extended=2))
    batch = run_batch(v, workers=1)
    path = tmp_path / "deep.shard"
    save_shard(batch, path)
    again = load_shard(path)
    assert again.extended == 2
    assert again.results[0].history is not None
    assert again.results[0].dataset is not None


@pytest.mark.parametrize(
    "seeds, shown",
    [
        ([1.7, 2.2], "1.7, 2.2"),
        ([True, "3"], "True, '3'"),
        ([1.2, 1.9], "1.2, 1.9"),
        ([4, np.float64(5.0), np.True_], "np.float64(5.0), np.True_"),
    ],
    ids=["floats", "bool-and-text", "floats-truncating-to-one", "numpy-non-integers"],
)
def test_non_integer_seeds_rejected(small_spec, seeds, shown):
    with pytest.raises(ShardError) as info:
        run_batch(small_spec, seeds=seeds, workers=1)
    assert str(info.value) == f"seeds must be integers, got {shown}"


def test_numpy_integer_seeds_accepted(small_spec, small_batch):
    batch = run_batch(small_spec, seeds=np.arange(12, 0, -1, dtype=np.int32), workers=1)
    assert batch.seeds == small_batch.seeds
    assert all(type(s) is int for s in batch.seeds)
    assert [encode(r) for r in batch.results] == [
        encode(r) for r in small_batch.results
    ]


def test_negative_seeds_rejected_before_any_run(small_spec):
    with pytest.raises(ShardError, match="non-negative: -3, -1"):
        run_batch(small_spec, seeds=[2, -1, -3], workers=2)


def test_seeds_past_64_bits_rejected_and_the_largest_round_trips(small_spec, tmp_path):
    # a shard's parser reads an integer of 2**64 or more as a float
    with pytest.raises(ShardError, match=r"seeds must be below 2\*\*64: 18446744073709551616"):
        run_batch(small_spec, seeds=[1, 2**64], workers=1)
    batch = run_batch(small_spec, seeds=[2**64 - 1], workers=1)
    path = tmp_path / "top.shard"
    save_shard(batch, path)
    again = load_shard(path)
    assert again.seeds == (2**64 - 1,)
    assert [encode(r) for r in again.results] == [encode(r) for r in batch.results]


def _records(path) -> list[bytes]:
    """The raw records of a binary shard."""
    region = payload(path)
    (count,) = struct.unpack_from("<Q", region, 0)
    records, at = [], 8
    for _ in range(count):
        (length,) = struct.unpack_from("<I", region, at)
        records.append(region[at + 4 : at + 4 + length])
        at += 4 + length
    assert at == len(region)
    return records


def _exact(value):
    """A JSON value with each leaf tagged by its type and each float given
    by its bits, so that ``==`` compares floats bit for bit."""
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return type(value).__name__, value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("extended", [0, 1, 2])
@pytest.mark.parametrize("design", sorted(p.stem for p in DESIGNS_DIR.glob("*.json")))
def test_shard_parser_reads_every_record_as_the_stdlib_does(design, extended, tmp_path):
    # shards are read with orjson and written by orjson or the stdlib's
    # encoder: each record must parse to the same values, floats bit for
    # bit, and encode back to its stored bytes, those of the stdlib
    doc = json.loads((DESIGNS_DIR / f"{design}.json").read_text())
    spec = validated({**doc, "extended": extended})
    path = tmp_path / "batch.shard"
    save_shard(run_batch(spec, seeds=range(1, 13), workers=1), path)
    raws = _records(path)
    assert len(raws) == 12
    for raw in raws:
        parsed = orjson.loads(raw)
        assert _exact(parsed) == _exact(json.loads(raw))
        assert encode(parsed) == raw
        assert json.dumps(parsed, sort_keys=True, separators=(",", ":")).encode() == raw


def test_shard_parser_reads_doubles_bit_for_bit():
    bits = np.random.default_rng(17).integers(0, 2**64, size=10**5, dtype=np.uint64)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate([bits.view(np.float64), edges])
    values = values[np.isfinite(values)]
    back = np.array(orjson.loads(json.dumps(values.tolist())), dtype=np.float64)
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))


def test_each_design_validated_once_per_process(small_spec, tmp_path, monkeypatch):
    # a cluster job's verbs read many headers of one design: combining four
    # parts and loading the result three times validates that design once
    parts = []
    for i in range(4):
        parts.append(tmp_path / f"part{i}.shard")
        save_shard(run_batch(small_spec, seeds=range(3 * i + 1, 3 * i + 4), workers=1), parts[-1])
    calls = []
    validate = montecarlo.validate_spec
    monkeypatch.setattr(montecarlo, "validate_spec", lambda spec: calls.append(1) or validate(spec))
    montecarlo._design.cache_clear()
    out = tmp_path / "all.shard"
    combine_shard_files(parts, out)
    for _ in range(3):
        assert load_shard(out).seeds == tuple(range(1, 13))
    assert len(calls) == 1
    # each header is still held to its design's fingerprint
    header, region = read_shard_sections(out)
    blob = encode({**header, "fingerprint": "0" * 64})
    out.write_bytes(montecarlo.MAGIC + struct.pack("<I", len(blob)) + blob + region)
    with pytest.raises(ShardError, match="header fingerprint is not its design's"):
        load_shard(out)
    assert len(calls) == 1


def test_resolve_workers_rejects_a_non_integer_cap(monkeypatch):
    monkeypatch.setenv(montecarlo.WORKER_CAP_ENV, "abc")
    with pytest.raises(ShardError, match="MAMSIM_MAX_WORKERS must be an integer, got 'abc'"):
        montecarlo.resolve_workers(None)


def test_resolve_workers_rejects_a_negative_cap(monkeypatch):
    monkeypatch.setenv(montecarlo.WORKER_CAP_ENV, "-2")
    with pytest.raises(ShardError, match="MAMSIM_MAX_WORKERS must not be negative, got '-2'"):
        montecarlo.resolve_workers(None)


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.setenv(montecarlo.WORKER_CAP_ENV, "1")
    assert montecarlo.resolve_workers(None) == 1
    # an explicit flag wins over the environment cap
    assert montecarlo.resolve_workers(6) == 6
    monkeypatch.delenv(montecarlo.WORKER_CAP_ENV)
    assert montecarlo.resolve_workers(None) >= 1


def test_resolve_workers_counts_the_cpus_this_process_may_use(monkeypatch):
    # a job pinned to 2 of a host's 64 CPUs runs 2 workers, not 64; no pool starts
    monkeypatch.delenv(montecarlo.WORKER_CAP_ENV, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert montecarlo.resolve_workers(None) == 2
    monkeypatch.setenv(montecarlo.WORKER_CAP_ENV, "1")
    assert montecarlo.resolve_workers(None) == 1
    assert montecarlo.resolve_workers(3) == 3
    # where the platform has no affinity call, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delenv(montecarlo.WORKER_CAP_ENV)
    assert montecarlo.resolve_workers(None) == 64
