"""The v1 record format of a shard: what a replicate's record holds.

``encode`` writes a ``TrialResult``, ``LookRecord`` or ``ArmDecision`` as the
JSON object of its dataclass fields, except that an unset (None)
``history`` or ``dataset`` is left out; ``RecordSchema`` says what such an
object holds in a shard of a design, and reads it back.  The engine writes
records and :mod:`mamsim.montecarlo` reads them; this module imports no
numpy, so the report verbs read shards without it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .config import ValidatedSpec
from .rules import ArmDecision

OMITTED_WHEN_UNSET = frozenset({"history", "dataset"})


class RecordError(ValueError):
    """A shard header or record that does not fit the v1 format."""


@dataclass
class LookRecord:
    """State captured at one look (stored when extended >= 1).

    ``allocation`` holds the probabilities that recruited this look's
    cohort; ``active`` reflects the arm status after this look's decisions.
    """

    look_index: int
    is_final: bool
    n_total: int
    n_per_arm: dict[str, int]
    active: dict[str, bool]
    allocation: dict[str, float]
    eff_posterior: dict[str, float | None]
    fut_posterior: dict[str, float | None]
    rar_posterior: dict[str, float | None]
    estimate_mean: dict[str, float | None]
    estimate_sd: dict[str, float | None]
    fit_converged: bool


@dataclass
class TrialResult:
    """Outcome of one simulated trial replicate."""

    seed: int
    arms: tuple[str, ...]
    decisions: dict[str, ArmDecision]
    sample_sizes: dict[str, int]
    total_size: int
    stop_reason: str
    looks_performed: int
    estimate_mean: dict[str, float | None]
    estimate_sd: dict[str, float | None]
    non_converged_fits: int
    history: list[LookRecord] | None = None
    dataset: dict | None = None


def _fields(record) -> dict:
    """The JSON object of a record dataclass (the encoder's ``default``),
    from its instance dict, which holds exactly its fields."""
    if type(record) not in (TrialResult, LookRecord, ArmDecision):
        raise TypeError(f"Object of type {type(record).__name__} is not JSON serializable")
    doc = vars(record)
    unset = [name for name in OMITTED_WHEN_UNSET if doc.get(name, 0) is None]
    return {k: v for k, v in doc.items() if k not in unset} if unset else doc


class RecordSchema:
    """The records of one design: each object's key set and field types, each
    per-arm object's key set, ``history`` (one entry per look performed) from
    ``extended`` 1 on and ``dataset`` at 2.  Of the values in per-arm
    objects, only the sample sizes are checked: integers.  A ``dataset``
    holds exactly its three columns, and its arm column only the design's
    arms, which the result shares with the design."""

    def __init__(self, validated: ValidatedSpec) -> None:
        spec = validated.spec
        arms = spec.model.arm_names
        self.interventions = list(arms[1:])
        # each arm name to itself: a dataset's arm column is rebuilt of the
        # design's strings, one object per arm, not one per subject
        self.arm_names = {arm: arm for arm in arms}
        # each per-arm object's key set, named for messages
        by_arm = frozenset(arms), "design's arms"
        by_intervention = frozenset(arms[1:]), "design's interventions"
        by_target = frozenset(arms[t] for t in spec.which_targets), "design's targets"
        estimates = dict(estimate_mean=by_target, estimate_sd=by_target)
        self.result_keys = dict(
            decisions=(by_intervention[0], "arms"), sample_sizes=by_arm, **estimates
        )
        self.look_keys = dict(
            n_per_arm=by_arm, active=by_arm, allocation=by_arm, eff_posterior=by_intervention,
            fut_posterior=by_intervention, rar_posterior=by_intervention, **estimates,
        )
        optional = [("history", list), ("dataset", dict)][: spec.extended]
        self.result_types = json_types(
            seed=int, arms=list, total_size=int, stop_reason=str, looks_performed=int,
            non_converged_fits=int, **dict.fromkeys(self.result_keys, dict), **dict(optional),
        )
        self.look_types = json_types(
            look_index=int, is_final=bool, n_total=int, fit_converged=bool,
            **dict.fromkeys(self.look_keys, dict),
        )

    def result(self, doc) -> TrialResult:
        """The ``TrialResult`` of a JSON object, or ``RecordError``."""
        # before the key sets: decisions that follow foreign arms are an arms fault
        if isinstance(doc, dict) and doc.get("arms", self.interventions) != self.interventions:
            raise RecordError("arms are not the design's interventions")
        _check("TrialResult", doc, self.result_types, self.result_keys.items())
        if set(map(type, doc["sample_sizes"].values())) != {int}:
            raise RecordError("sample sizes must be integers")
        result = TrialResult(**doc)
        result.arms = tuple(result.arms)
        result.decisions = {
            arm: ArmDecision(**_check("ArmDecision", d, _DECISION_TYPES))
            for arm, d in result.decisions.items()
        }
        history, looks = result.history, result.looks_performed
        if history is not None:
            if len(history) != looks:
                raise RecordError(f"TrialResult history of {len(history)} looks, not {looks}")
            keys = self.look_keys.items()
            result.history = [
                LookRecord(**_check("LookRecord", look, self.look_types, keys)) for look in history
            ]
        dataset = result.dataset
        if dataset is not None:
            _check("dataset", dataset, _DATASET_TYPES)
            try:
                dataset["arm"] = list(map(self.arm_names.__getitem__, dataset["arm"]))
            except (KeyError, TypeError):  # a foreign value, or a list or object
                raise RecordError("dataset arms are not all the design's arms") from None
        return result


def json_types(**types) -> dict[str, tuple]:
    """A ``_check`` table: the JSON types each key may hold, as a tuple.  A
    value's type must be one of them exactly, so a boolean is no integer."""
    return {key: kind if isinstance(kind, tuple) else (kind,) for key, kind in types.items()}


_DECISION_TYPES = json_types(
    efficacy_met=bool, futility_met=bool, timing=str, look_index=(int, type(None))
)
_DATASET_TYPES = json_types(arm=list, covariates=dict, response=list)


def _check(name: str, doc, types: dict, keys=()) -> dict:
    """``doc``, a JSON object of the keys and ``json_types`` of ``types`` and
    the per-arm ``(key set, label)`` of ``keys``; ``RecordError`` otherwise."""
    if not isinstance(doc, dict):
        raise RecordError(f"{name} is not a JSON object")
    if doc.keys() != types.keys():
        missing = ", ".join(sorted(types.keys() - doc.keys()))
        if missing:
            raise RecordError(f"{name} without {missing}")
        raise RecordError(f"{name} with unexpected {', '.join(sorted(doc.keys() - types.keys()))}")
    for key, kinds in types.items():
        if type(doc[key]) not in kinds:
            raise RecordError(f"{name} {key} of the wrong type ({type(doc[key]).__name__})")
    for key, (arms, label) in keys:
        if doc[key].keys() != arms:
            raise RecordError(f"{key} are not keyed by exactly the {label}")
    return doc


def encode(doc) -> bytes:
    """Canonical JSON bytes (sorted keys, no spaces) of records and headers.
    A NaN or infinite float is a ``ValueError``: strict JSON has no such
    number, and a shard must be readable by its strict parser."""
    return json.dumps(
        doc, default=_fields, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
