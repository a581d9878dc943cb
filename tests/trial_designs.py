"""Design documents, and a shard reader for byte comparisons, shared across
the test suite."""

import json
import math

from mamsim import config, montecarlo

LOGIT = lambda p: math.log(p / (1.0 - p))  # noqa: E731


def count_dose_design(**overrides):
    """Four-arm overdispersed-count design: three doses against control.

    The highest dose cuts the mean event count from 4 to 1.6; efficacy uses
    an information-fraction threshold, futility a fixed cut-off, with fixed
    balanced allocation throughout.
    """
    doc = {
        "model": {
            "response": "y",
            "treatment": "treatment",
            "arms": ["control", "A", "B", "C"],
            "family": "nbinomial",
            "link": "log",
            "nuisance": {"dispersion": 0.5},
        },
        "beta_true": [math.log(4.0), 0.0, 0.0, math.log(0.4)],
        "targets": [1, 2, 3],
        "alternative": "less",
        "n_max": 260,
        "interim_recruited": [100, 140, 180, 220],
        "prob0": {"control": 1, "A": 1, "B": 1, "C": 1},
        "allocation": "balanced",
        "delta_eff": 0.0,
        "delta_fut": math.log(0.8),
        "eff_arm_rule": {"family": "infofract", "params": {"b": 0.009, "p": 3.0}},
        "fut_arm_rule": {"family": "fixed", "params": {"b_f": 0.2025}},
        "replicates": 4,
    }
    doc.update(overrides)
    return doc


def binary_six_arm_design(scenario="null", futility="fixed", **overrides):
    """Six-arm binary-endpoint design with Trippa-style adaptive allocation.

    Interims run from 60 recruits and then every 12 up to N=216 (14 looks).
    Efficacy is only assessed at the final look; futility at every look
    against a +10%-response-rate margin.  ``futility`` picks the fixed 0.1
    boundary or the rising boundary 0.8*(n/N)^2.
    """
    orr = {
        "null": [0.4, 0.4, 0.4, 0.4, 0.4, 0.4],
        "alternative": [0.4, 0.4, 0.4, 0.5, 0.7, 0.7],
    }[scenario]
    beta0 = LOGIT(orr[0])
    interims = list(range(60, 205, 12))
    if futility == "fixed":
        fut_rule = {"family": "fixed", "params": {"b_f": 0.1}}
    else:
        fut_rule = {"family": "increasing", "params": {"b_f": 0.8, "p_f": 2.0}}
    doc = {
        "model": {
            "response": "response",
            "treatment": "arm",
            "arms": ["A", "B", "C", "D", "E", "F"],
            "family": "binomial",
            "link": "logit",
        },
        "beta_true": [beta0] + [LOGIT(p) - beta0 for p in orr[1:]],
        "targets": [1, 2, 3, 4, 5],
        "alternative": "greater",
        "n_max": 216,
        "interim_recruited": interims,
        "prob0": {arm: 1 for arm in "ABCDEF"},
        "allocation": "simple",
        "delta_eff": [None] * len(interims) + [0.0],
        "delta_fut": LOGIT(0.5) - LOGIT(0.4),
        "delta_rar": 0.0,
        "eff_arm_rule": {"family": "fixed", "params": {"b_e": 0.05}},
        "fut_arm_rule": fut_rule,
        "rar_rule": {"family": "trippa", "params": {"gamma": 3.0, "eta": 0.75, "nu": 0.25}},
        "replicates": 4,
    }
    doc.update(overrides)
    return doc


def gaussian_two_stage_design(**overrides):
    """Small, fast three-arm gaussian design for engine-level tests."""
    doc = {
        "model": {
            "response": "y",
            "treatment": "treatment",
            "arms": ["control", "T1", "T2"],
            "family": "gaussian",
            "link": "identity",
            "nuisance": {"sd": 1.0},
        },
        "beta_true": [0.0, 1.0, 0.0],
        "targets": [1, 2],
        "alternative": "greater",
        "n_max": 60,
        "interim_recruited": [20, 40],
        "prob0": {"control": 1, "T1": 1, "T2": 1},
        "allocation": "balanced",
        "delta_eff": 0.0,
        "delta_fut": 0.0,
        "eff_arm_rule": {"family": "fixed", "params": {"b_e": 0.05}},
        "fut_arm_rule": {"family": "fixed", "params": {"b_f": 0.05}},
        "replicates": 3,
    }
    doc.update(overrides)
    return doc


def validated(doc) -> config.ValidatedSpec:
    return config.validate_spec(config.parse_spec(json.dumps(doc)))


def read_shard_sections(path) -> tuple[dict, bytes]:
    """Header dict plus the raw record region (used for byte comparisons)."""
    with open(path, "rb") as fh:
        header, _ = montecarlo._read_header(fh, path)
        payload = fh.read()
    return header, payload
