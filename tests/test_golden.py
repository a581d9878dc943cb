"""Golden payload hashes: the record bytes of fixed seed sets never move.

Each case runs seeds 1..200 at ``extended=1`` through ``run_batch`` and
``save_shard`` and hashes the record region of the shard (everything after
the header, which carries a timestamp).  A refactor of the engine, the fit
or the codec that keeps the simulated trials unchanged keeps these bytes
unchanged.  The ``GOLDEN`` hashes were re-recorded once, when the engine
moved to lockstep blocks of replicates: the batched fit moved estimates
and tail probabilities in their last digits (by at most 2e-12) and nothing
else.  They must not be edited again unless a change is set out to alter
the simulated records and says so.

The shipped designs are joined by variants that reach branches no shipped
design does: a covariate column in the model, a look whose margin is
disabled, an arm that prob0 never recruits, trial-level stopping rules
that end trials early (the six-arm null design with efficacy assessed at
every look), a nine-arm RAR design whose eight interventions are the
first count at which numpy's pairwise ``sum`` regroups its terms, a
six-arm binomial design whose arm means are exactly 0, 1/2 and 1 at the
edges of the binomial draw, and a gaussian design with ``simple``
allocation and an arm of zero weight.

``SKELETON`` hashes the same records with every float value replaced by a
fixed token.  They pin what a float-level change to the fit must never
move: decisions, sizes, active flags, the pattern of nulls, look counts and
converged flags.  They were recorded once, from the per-replicate engine
that preceded lockstep blocks, and must not be edited.  The
``six_arm_trial_rules`` and ``nine_arm_rar`` hashes, in both tables, were
recorded from the engine whose replicates were still per-replicate
objects inside lockstep blocks, before trial state moved into block
arrays.  The ``binomial_saturated_arms`` and ``gaussian_simple_allocation``
hashes were recorded from the engine that still drew every cohort from a
per-replicate generator, before a block's uniforms came from one
vectorised Philox pass.
"""

import hashlib
import json
import struct
from pathlib import Path

import pytest

from mamsim import montecarlo

from trial_designs import (
    LOGIT,
    count_dose_design,
    gaussian_two_stage_design,
    read_shard_sections,
    validated,
)

DESIGN_DIR = Path(__file__).resolve().parent.parent / "designs"
SEEDS = range(1, 201)


def _shipped(name):
    return json.loads((DESIGN_DIR / f"{name}.json").read_text())


def _gaussian_with_covariate():
    doc = gaussian_two_stage_design(beta_true=[0.0, 0.8, 0.0, 0.5])
    doc["model"] = dict(doc["model"])
    doc["model"]["covariates"] = [
        {"name": "age", "generator": "normal", "params": {"mean": 0, "sd": 1}}
    ]
    return doc


def _gaussian_with_covariate_generators():
    doc = gaussian_two_stage_design(beta_true=[0.0, 0.8, 0.0, 0.3, -0.6, 0.4, 0.2])
    doc["model"] = dict(doc["model"])
    doc["model"]["covariates"] = [
        {"name": "score", "generator": "uniform", "params": {"low": -1, "high": 2}},
        {"name": "smoker", "generator": "bernoulli", "params": {"p": 0.3}},
        {
            "name": "labs",
            "generator": "mvnormal",
            "params": {"names": ["u", "v"], "mean": [0, 1], "cov": [[1, 0.5], [0.5, 2]]},
        },
    ]
    return doc


def _gaussian_interim_null_delta():
    return gaussian_two_stage_design(
        delta_eff=[None, 0.0, 0.0],
        delta_fut=[[0.0, None, 0.0], [None, 0.0, 0.0]],
    )


def _count_zero_weight_arm():
    return count_dose_design(prob0={"control": 1, "A": 1, "B": 0, "C": 1})


def _six_arm_trial_rules():
    doc = _shipped("orr_six_arm_null")
    doc["delta_eff"] = 0.0
    doc["eff_trial_rule"] = {"family": "any_arm_efficacious"}
    doc["fut_trial_rule"] = {"family": "all_arms_futile"}
    return doc


def _binomial_saturated_arms():
    # arm means exactly 0.0, 0.0, 0.269, 0.5, 1.0 and 0.953
    doc = _shipped("orr_six_arm_alternative")
    doc["beta_true"] = [-800, 0, 799, 800, 840, 803]
    return doc


def _gaussian_simple_allocation():
    return gaussian_two_stage_design(
        allocation="simple", prob0={"control": 1, "T1": 2, "T2": 0}
    )


def _nine_arm_rar():
    orr = [0.4, 0.4, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7]
    arms = ["control"] + [f"T{i}" for i in range(1, len(orr))]
    beta0 = LOGIT(orr[0])
    return {
        "model": {
            "response": "response",
            "treatment": "arm",
            "arms": arms,
            "family": "binomial",
            "link": "logit",
        },
        "beta_true": [beta0] + [LOGIT(p) - beta0 for p in orr[1:]],
        "targets": list(range(1, len(orr))),
        "alternative": "greater",
        "n_max": 288,
        "interim_recruited": list(range(90, 271, 18)),
        "prob0": {arm: 1 for arm in arms},
        "allocation": "simple",
        "delta_eff": 0.0,
        "delta_fut": LOGIT(0.5) - LOGIT(0.4),
        "delta_rar": 0.0,
        "eff_arm_rule": {"family": "fixed", "params": {"b_e": 0.01}},
        "fut_arm_rule": {"family": "fixed", "params": {"b_f": 0.05}},
        "rar_rule": {"family": "trippa", "params": {"gamma": 3.0, "eta": 0.75, "nu": 0.25}},
        "replicates": 4,
    }


DESIGNS = {
    "count_dose_finding": lambda: _shipped("count_dose_finding"),
    "orr_six_arm_alternative": lambda: _shipped("orr_six_arm_alternative"),
    "orr_six_arm_alternative_rising_futility": (
        lambda: _shipped("orr_six_arm_alternative_rising_futility")
    ),
    "orr_six_arm_null": lambda: _shipped("orr_six_arm_null"),
    "orr_six_arm_null_rising_futility": (
        lambda: _shipped("orr_six_arm_null_rising_futility")
    ),
    "gaussian_with_covariate": _gaussian_with_covariate,
    "gaussian_interim_null_delta": _gaussian_interim_null_delta,
    "count_zero_weight_arm": _count_zero_weight_arm,
    "six_arm_trial_rules": _six_arm_trial_rules,
    "nine_arm_rar": _nine_arm_rar,
    "binomial_saturated_arms": _binomial_saturated_arms,
    "gaussian_simple_allocation": _gaussian_simple_allocation,
}

GOLDEN = {
    "count_dose_finding": "71904733a01b8560a3ffac0b232522f97ca3a95c37fc7d4f462f4a4f76c2e2f1",
    "count_zero_weight_arm": "2295c9f7980b092fe47bdad1ff666e08bca17d2e1767901845834479aebae5a9",
    "gaussian_interim_null_delta": "7c0322f7c6d71eb099bc4cc39eba1041ad0c39d2338cf2258e512a04a27f57ac",
    "gaussian_with_covariate": "226a68c3b559cdefa694c4ee00f7107ada0cedd1c2a12b57177d03610a69fab4",
    "orr_six_arm_alternative": "f3eeba2db518bcd0437848dd672a337f79aad444ae61a1fc2d0566e21de7cdd6",
    "orr_six_arm_alternative_rising_futility": "47149a7a037aa505d580bccb654c84130844cf0c8df965eaf6578d66f3f10538",
    "orr_six_arm_null": "112178cf8d15db995254c1f82a381644c11444e558d50a71c119962316b76c5c",
    "orr_six_arm_null_rising_futility": "b718f7e7a3b69c08612cd078c8ba8674a335e76dcaaada5c2e1a4d3f25dbc84b",
    "six_arm_trial_rules": "3284f3d5422dcf134deba7d84de1b346e17303eaace7428d5f974645081f80a2",
    "nine_arm_rar": "813e764537c045d59ad4d27c540bb52df930b0a274f03c1c8a85fdba9f3c703f",
    "binomial_saturated_arms": "47282f0468d3a77447b196607fa671c0b85804476399260bca7554c142f657aa",
    "gaussian_simple_allocation": "79c067307774cf4465fdf3fa695534ee9e97ff06de417a10d47dad4cb0a43473",
}


SKELETON = {
    "count_dose_finding": "dc0b9164b4ff228a062fc8dd754dd07b32e0eb95e100909edc1d5c42e969acb9",
    "count_zero_weight_arm": "ebce3e7109130286f2d79be482209933fdce5dabbc0daeb27913f2fa922ac2cf",
    "gaussian_interim_null_delta": "7290f9bde8b9fe62c4fa4187dd4937c9e3bbe9331cc5e69c88a39ca099fb7fa7",
    "gaussian_with_covariate": "1bccc640da3430cb25167b2f7fc9b1b50fb017b934a5e9e668c09cf0d0de6319",
    "orr_six_arm_alternative": "b0252781876cf3dbb6c23128a66ea64c9b9220de9e6b54e25743eecabc179190",
    "orr_six_arm_alternative_rising_futility": "6a17e5716d05399252aa11ebd558333ff3d2751298b0b32e3ac9619427b516f8",
    "orr_six_arm_null": "814999262349f073dec345789dd46b3d43a61da7ea930e422d2c223ffc965370",
    "orr_six_arm_null_rising_futility": "f57d6f6fdd12d9a06556b4b066942e29f0ab61795b246f9916e387d3fea43c3c",
    "six_arm_trial_rules": "e2828dcb1fef1c0b4b018855b09a515ee80067f1ac78703b4a5e217951d0c50f",
    "nine_arm_rar": "6300c8cb6fda4fc4af41615e8215cd496a310fa3ed8e3b40b7fe6a67b87b97d0",
    "binomial_saturated_arms": "01eafc22e1972c097462456eb89df715889441e59e79bdc8274991b98f27599e",
    "gaussian_simple_allocation": "8b94b1d79b9da4011e63233947db9a21d09a3d04b43b6aaf949dc33881abcba2",
}

FLOAT_TOKEN = "<float>"


def _skeleton(value):
    """``value`` with every float replaced by ``FLOAT_TOKEN``."""
    if isinstance(value, float):
        return FLOAT_TOKEN
    if isinstance(value, dict):
        return {k: _skeleton(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_skeleton(v) for v in value]
    return value


def skeleton_digest(records: bytes) -> str:
    """sha256 of a shard's record region with its floats tokenised."""
    (count,) = struct.unpack_from("<Q", records, 0)
    at, digest = 8, hashlib.sha256()
    for _ in range(count):
        (length,) = struct.unpack_from("<I", records, at)
        doc = json.loads(records[at + 4 : at + 4 + length])
        at += 4 + length
        digest.update(json.dumps(_skeleton(doc), sort_keys=True).encode() + b"\n")
    assert at == len(records)
    return digest.hexdigest()


def _record_region(name, tmp_path) -> bytes:
    doc = DESIGNS[name]()
    doc["extended"] = 1
    batch = montecarlo.run_batch(validated(doc), seeds=SEEDS, workers=1)
    path = tmp_path / f"{name}.shard"
    montecarlo.save_shard(batch, path)
    return read_shard_sections(path)[1]


def test_every_shipped_design_is_covered():
    shipped = {p.stem for p in DESIGN_DIR.glob("*.json")}
    assert shipped <= set(DESIGNS)


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_record_bytes_match_golden_hash(name, tmp_path):
    records = _record_region(name, tmp_path)
    assert hashlib.sha256(records).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_record_skeleton_matches_hash(name, tmp_path):
    assert skeleton_digest(_record_region(name, tmp_path)) == SKELETON[name]


# sha256 of ``save_shard_json`` files for a fixed batch with a fixed
# ``created_at``: the whole export, header and records, in its indented
# layout.  The gaussian case carries null results, per-look histories and
# datasets; the count case nbinomial records with histories only.  Recorded
# before the shard writers and readers moved onto one record codec; they
# must not be edited unless a change is set out to alter the export.  The
# six-arm case pins datasets of integer binomial responses drawn for the
# whole block, the covariate case datasets with a covariate column; both
# were recorded while datasets were still built from per-look cohort objects.
# The covariate-generator case pins ``uniform``, ``bernoulli`` and
# ``mvnormal`` columns; it was recorded before the generators checked their
# parameter types and asked ``multivariate_normal`` to validate ``cov``.
EXPORT_CASES = {
    "gaussian_h0_extended2": lambda: gaussian_two_stage_design(h0_mode=True, extended=2),
    "count_dose_extended1": lambda: count_dose_design(extended=1),
    "orr_six_arm_extended2": lambda: {**_shipped("orr_six_arm_alternative"), "extended": 2},
    "gaussian_covariate_extended2": lambda: {**_gaussian_with_covariate(), "extended": 2},
    "covariate_generators_extended2": (
        lambda: {**_gaussian_with_covariate_generators(), "extended": 2}
    ),
}

EXPORT_GOLDEN = {
    "count_dose_extended1": "31aa1aea30075682c8602afaf59d66ca436e941fd966cde5b5a80f26f99ba6fe",
    "gaussian_h0_extended2": "2afd6ead928d888b6d4509338cbeeeabdf48f6150af277a07d84677e22b6cf2d",
    "orr_six_arm_extended2": "e539a4df09b985bb55f777f9a0bb0d3e18b68eb62e7abe2f04adce3a835b1023",
    "gaussian_covariate_extended2": (
        "49d3fe20e18c8883f52417a47ec3c51e401ca56a82e3d6c78b4ed4e920cfee9a"
    ),
    "covariate_generators_extended2": (
        "4136be1c44ba9bbbeb970f0a497f2834e31eb9c611d984a9dcd670f39f9f320e"
    ),
}


@pytest.mark.parametrize("name", sorted(EXPORT_CASES))
def test_json_export_bytes_match_golden_hash(name, tmp_path):
    batch = montecarlo.run_batch(validated(EXPORT_CASES[name]()), seeds=range(1, 9), workers=1)
    batch.created_at = "2024-01-01T00:00:00+00:00"
    path = tmp_path / f"{name}.json"
    montecarlo.save_shard_json(batch, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_GOLDEN[name]
