"""Golden payload hashes: the record bytes of fixed seed sets never move.

Each case runs seeds 1..200 at ``extended=1`` through ``run_batch`` and
``save_shard`` and hashes the record region of the shard (everything after
the header, which carries a timestamp).  The hashes were recorded once and
must not be edited: a refactor of the engine, the fit or the codec that
keeps the simulated trials unchanged keeps these bytes unchanged.

The shipped designs are joined by three variants that reach branches no
shipped design does: a covariate column in the model, a look whose margin
is disabled, and an arm that prob0 never recruits.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mamsim import montecarlo

from trial_designs import count_dose_design, gaussian_two_stage_design, validated

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


def _gaussian_interim_null_delta():
    return gaussian_two_stage_design(
        delta_eff=[None, 0.0, 0.0],
        delta_fut=[[0.0, None, 0.0], [None, 0.0, 0.0]],
    )


def _count_zero_weight_arm():
    return count_dose_design(prob0={"control": 1, "A": 1, "B": 0, "C": 1})


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
}

GOLDEN = {
    "count_dose_finding": "05b1089a0ae4fb23c80539813edd68cf44b3efa4539cd9d564aca5c6ad084ad8",
    "orr_six_arm_alternative": "18cf5d3df6e084c500e5dd196a358b3959b38a7fee4fcbaf1df8e306b22926e7",
    "orr_six_arm_alternative_rising_futility": "8f1784f579d05501ca355e9569fae3c42c27b7bd18df4af7c205820e0dfb5b05",
    "orr_six_arm_null": "80111a2bb5752c7c9cc366a1c71b00a80074b8310d226d0d8366c59afa8fec2b",
    "orr_six_arm_null_rising_futility": "bab9fa1eab5ff7fda6d4dda2115f972429fc3d1f4c347e48f5bb84ce0c860ecf",
    "gaussian_with_covariate": "2feac9d6887aad5fe4789253991cc0157c2466a62363f5f906a933adea0b7466",
    "gaussian_interim_null_delta": "43ff64894513a2d9b7f8550625e7ecf78d9381e8939038870afb4c676d558e6a",
    "count_zero_weight_arm": "2317e5b46b15f296116760465561367306b8a21fd20614ac251c2adeb81803f3",
}


def test_every_shipped_design_is_covered():
    shipped = {p.stem for p in DESIGN_DIR.glob("*.json")}
    assert shipped <= set(DESIGNS)


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_record_bytes_match_golden_hash(name, tmp_path):
    doc = DESIGNS[name]()
    doc["extended"] = 1
    batch = montecarlo.run_batch(validated(doc), seeds=SEEDS, workers=1)
    path = tmp_path / f"{name}.shard"
    montecarlo.save_shard(batch, path)
    _, records = montecarlo.read_shard_sections(path)
    assert hashlib.sha256(records).hexdigest() == GOLDEN[name]
