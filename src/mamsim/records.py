"""The v1 record format of a shard: what a replicate's record holds.

``encode`` writes a ``TrialResult``, ``LookRecord`` or ``ArmDecision`` as the
JSON object of its dataclass fields, except that an unset (None)
``history`` or ``dataset`` is left out; ``RecordSchema`` says what such an
object holds in a shard of a design, checks it, and reads it back.  The
bytes are those of the stdlib's ``json`` encoder.  orjson writes records,
and the stdlib's encoder writes headers and each record whose orjson text
would differ.  orjson also parses, through ``loads``: headers, records and
JSON exports.  The engine writes records and :mod:`mamsim.montecarlo`
reads them; this module imports neither numpy nor, until it first encodes
a record or parses, orjson, so the report verbs read shards without numpy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter

from .config import ValidatedSpec, canonical_json
from .rules import ArmDecision

OMITTED_WHEN_UNSET = frozenset({"history", "dataset"})
# orjson's writer, its options and its parser, bound at the first record
# write or parse (``_bind_orjson``), not at import: importing orjson would
# add about 5 ms to every ``import mamsim``
_dumps = _loads = None
_OPTIONS = 0


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
    kind = type(record)
    if kind is TrialResult:
        doc = vars(record)
        if record.history is None or record.dataset is None:
            return {k: v for k, v in doc.items() if v is not None or k not in OMITTED_WHEN_UNSET}
        return doc
    if kind is LookRecord or kind is ArmDecision:
        return vars(record)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


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

    def check(self, doc) -> dict:
        """``doc``, a JSON object that holds a result of this design, or
        ``RecordError``.  Its dataset's arm column is rebuilt of the design's
        strings."""
        # before the key sets: decisions that follow foreign arms are an arms fault
        if isinstance(doc, dict) and doc.get("arms", self.interventions) != self.interventions:
            raise RecordError("arms are not the design's interventions")
        _check("TrialResult", doc, self.result_types, self.result_keys.items())
        if set(map(type, doc["sample_sizes"].values())) != {int}:
            raise RecordError("sample sizes must be integers")
        for d in doc["decisions"].values():
            _check("ArmDecision", d, _DECISION_TYPES)
        history, looks = doc.get("history"), doc["looks_performed"]
        if history is not None:
            if len(history) != looks:
                raise RecordError(f"TrialResult history of {len(history)} looks, not {looks}")
            keys = self.look_keys.items()
            for look in history:
                _check("LookRecord", look, self.look_types, keys)
        dataset = doc.get("dataset")
        if dataset is not None:
            _check("dataset", dataset, _DATASET_TYPES)
            try:
                dataset["arm"] = list(map(self.arm_names.__getitem__, dataset["arm"]))
            except (KeyError, TypeError):  # a foreign value, or a list or object
                raise RecordError("dataset arms are not all the design's arms") from None
        return doc

    def result(self, doc) -> TrialResult:
        """The ``TrialResult`` of a JSON object, or ``RecordError``."""
        result = TrialResult(**self.check(doc))
        result.arms = tuple(result.arms)
        result.decisions = {arm: ArmDecision(**d) for arm, d in result.decisions.items()}
        if result.history is not None:
            result.history = [LookRecord(**look) for look in result.history]
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
    """Canonical JSON bytes (sorted keys, no spaces) of records and headers:
    those of ``_encode_stdlib``.  A NaN or infinite float is a
    ``ValueError``: strict JSON has no such number, and a shard must be
    readable by its strict parser.

    orjson writes a record, several times faster: a record dataclass, or an
    envelope object whose values are integers and record dataclasses.  The
    stdlib's encoder writes every other document (headers, designs and
    exports), and the records whose orjson text would differ or that orjson
    refuses: text that is not ASCII or holds DEL (which the stdlib escapes),
    floats orjson writes with an exponent or in ``[1e-5, 1e-4)`` (``1e16``,
    ``3.2e-7`` and ``0.00001``, where ``repr`` gives ``1e+16``, ``3.2e-07``
    and ``1e-05``), integers beyond 64 bits, keys that are not strings, and
    non-finite floats, which orjson writes as null."""
    kinds = map(type, doc.values()) if type(doc) is dict else (type(doc),)
    if not _ENVELOPE.issuperset(kinds):
        return _encode_stdlib(doc)
    if _dumps is None:
        _bind_orjson()
    try:
        out = _dumps(doc, default=_finite_fields, option=_OPTIONS)
    except TypeError:
        return _encode_stdlib(doc)
    if out.isascii() and b"\x7f" not in out and b"0.0000" not in out and not _EXPONENT(out):
        return out
    return _encode_stdlib(doc)


def _encode_stdlib(doc) -> bytes:
    """``encode``'s bytes, written by the stdlib's encoder: the reference."""
    return canonical_json(doc, default=_fields)


def loads(data):
    """The JSON value of ``data`` (bytes or text), parsed by orjson: strict
    JSON, so NaN and infinity are errors, and integers beyond 64 bits are
    read as floats.  A malformed text raises ``json.JSONDecodeError``."""
    if _loads is None:
        _bind_orjson()
    return _loads(data)


def _bind_orjson() -> None:
    """Bind ``_dumps``, ``_OPTIONS`` and ``_loads`` to orjson, once."""
    global _dumps, _loads, _OPTIONS
    import orjson

    _dumps, _loads = orjson.dumps, orjson.loads
    # record dataclasses go to ``default``, which leaves unset fields out,
    # and so do subclasses of JSON types, which ``_fields`` refuses
    _OPTIONS = (
        orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_SUBCLASS
    )


# an exponent in orjson's text; led by a literal, the search skips from ``e``
# to ``e``, where ``[0-9]e|0\.0000`` would try every byte
_EXPONENT = re.compile(rb"e[-0-9]").search
# the types ``encode`` hands orjson: record dataclasses, and the values of a
# record envelope, integers and record dataclasses
_ENVELOPE = frozenset({int, TrialResult, LookRecord, ArmDecision})
# the fields of a result or look that hold floats, by their annotations:
# objects of floats and nulls
_FLOAT_OBJECTS = {
    cls: attrgetter(*(f.name for f in fields(cls) if "float" in f.type))
    for cls in (TrialResult, LookRecord)
}


def _finite_fields(record) -> dict:
    """``_fields`` for orjson, which writes a non-finite float as null: a
    ``TypeError`` for a result or look that holds one, so that ``encode``
    hands it to the stdlib's encoder and its ``ValueError``.  A record's
    floats are those of its ``_FLOAT_OBJECTS`` and of its dataset's
    response and covariate columns; its other fields hold none."""
    doc = _fields(record)
    objects = _FLOAT_OBJECTS.get(type(record))
    if objects is not None:
        total = sum(filter(None, chain.from_iterable(map(dict.values, objects(record)))))
        dataset = doc.get("dataset")
        if dataset is not None:  # columns of numbers
            covariates = chain.from_iterable(dataset["covariates"].values())
            total += sum(dataset["response"]) + sum(covariates)
        if not math.isfinite(total):
            raise TypeError("a float that is not finite")
    return doc
