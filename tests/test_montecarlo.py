"""Batch execution, shard persistence, and combination safety."""

import json

import pytest

from mamsim import montecarlo
from mamsim.montecarlo import (
    ShardError,
    combine_shard_files,
    combine_shards,
    load_shard,
    read_shard_sections,
    run_batch,
    save_shard,
    save_shard_json,
)
from mamsim.report import summarize

from trial_designs import gaussian_two_stage_design, validated


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
    paths = []
    for workers in (1, 2, 4):
        batch = run_batch(small_spec, workers=workers)
        path = tmp_path / f"w{workers}.shard"
        save_shard(batch, path)
        paths.append(path)
    blobs = [payload(p) for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


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
    assert [r.to_dict() for r in again.results] == [
        r.to_dict() for r in small_batch.results
    ]


def test_json_export_round_trip(small_batch, tmp_path):
    path = tmp_path / "batch.json"
    save_shard_json(small_batch, path)
    again = load_shard(path)
    assert again.seeds == small_batch.seeds
    assert [r.to_dict() for r in again.results] == [
        r.to_dict() for r in small_batch.results
    ]


def test_combine_partition_equals_monolithic(small_spec, small_batch, tmp_path):
    left = run_batch(small_spec, seeds=range(1, 7), workers=1)
    right = run_batch(small_spec, seeds=range(7, 13), workers=1)
    combined = combine_shards([left, right])
    assert combined.seeds == small_batch.seeds
    assert [r.to_dict() for r in combined.results] == [
        r.to_dict() for r in small_batch.results
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
    assert [r.to_dict() for r in batch.results] == [
        r.to_dict() for r in batch.results_null
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


def test_negative_seeds_rejected_before_any_run(small_spec):
    with pytest.raises(ShardError, match="non-negative: -3, -1"):
        run_batch(small_spec, seeds=[2, -1, -3], workers=2)


def test_resolve_workers_rejects_a_non_integer_cap(monkeypatch):
    monkeypatch.setenv(montecarlo.WORKER_CAP_ENV, "abc")
    with pytest.raises(ShardError, match="MAMSIM_MAX_WORKERS must be an integer, got 'abc'"):
        montecarlo.resolve_workers(None)


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.setenv(montecarlo.WORKER_CAP_ENV, "1")
    assert montecarlo.resolve_workers(None) == 1
    # an explicit flag wins over the environment cap
    assert montecarlo.resolve_workers(6) == 6
    monkeypatch.delenv(montecarlo.WORKER_CAP_ENV)
    assert montecarlo.resolve_workers(None) >= 1
