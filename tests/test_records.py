"""The record encoder: orjson's bytes equal the stdlib encoder's."""

import collections
import enum
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mamsim import montecarlo, records
from mamsim.records import LookRecord, TrialResult, _fields, encode
from mamsim.rules import ArmDecision

from trial_designs import count_dose_design, validated

ARMS = ("control", "T1", "T2")
# where ``repr`` and orjson part ways (1e-05 against 0.00001, 1e+16 against
# 1e16) or a float is at its limits
EDGES = [1e-5, 9.99e-5, 1e-4, 1e15, 1e16, 5e-324, -0.0]


def reference(doc) -> bytes:
    """The stdlib encoder's bytes, which ``encode`` must give."""
    return json.dumps(
        doc, default=_fields, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _record(floats, arms=ARMS, seed=7) -> dict:
    """A shard record of arms ``arms`` whose estimates, look posteriors and
    allocation, and dataset response and covariate take the values of
    ``floats``, in turn."""
    take = iter(floats * (60 // len(floats) + 1)).__next__
    by = lambda names: {a: take() for a in names}  # noqa: E731
    interventions = arms[1:]
    look = LookRecord(
        look_index=0, is_final=True, n_total=40, n_per_arm=dict.fromkeys(arms, 20),
        active=dict.fromkeys(arms, True), allocation=by(arms), eff_posterior=by(interventions),
        fut_posterior=by(interventions), rar_posterior=dict.fromkeys(interventions),
        estimate_mean=by(interventions), estimate_sd=by(interventions), fit_converged=True,
    )
    decision = ArmDecision(efficacy_met=False, futility_met=False, timing="none", look_index=None)
    result = TrialResult(
        seed=seed, arms=interventions, decisions=dict.fromkeys(interventions, decision),
        sample_sizes=dict.fromkeys(arms, 20), total_size=40, stop_reason="reached_max",
        looks_performed=1, estimate_mean=by(interventions), estimate_sd=by(interventions),
        non_converged_fits=0, history=[look],
        dataset={"arm": list(arms) * 2, "covariates": {"x": [take() for _ in arms]},
                 "response": [take() for _ in range(2 * len(arms))]},
    )
    return {"seed": seed, "result": result}


@settings(max_examples=300, deadline=None)
@given(
    floats=st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES),
        min_size=1, max_size=40,
    )
)
def test_encode_equals_the_stdlib_encoder(floats):
    record = _record(floats)
    assert encode(record) == reference(record)
    header = {"spec_document": {"beta_true": floats, "prob0": dict(zip(ARMS, floats))}}
    assert encode(header) == reference(header)


@settings(max_examples=200, deadline=None)
@given(
    arms=st.lists(st.text(max_size=4), min_size=2, max_size=4, unique=True),
    reason=st.text(),
)
def test_encode_writes_any_text_as_the_stdlib_does(arms, reason):
    # escapes, non-ASCII text and lone surrogates, in keys and values
    record = _record([0.5], arms=tuple(arms))
    record["result"].stop_reason = reason
    assert encode(record) == reference(record)


@pytest.mark.parametrize("value", EDGES + [-1e-5, 3.2e-7, 1.5e300, 0.1, 2.5])
def test_encode_writes_each_edge_as_repr_does(value):
    assert encode([value]) == f"[{value!r}]".encode()
    assert encode(_record([value])) == reference(_record([value]))


@pytest.mark.parametrize(
    "arms",
    [("contrôle", "T1", "T2"), ("control", "T\u2028", "T2"), ("control", "T\x7f", "T\x1f")],
    ids=["non-ascii", "line-separator", "del-and-control"],
)
def test_encode_escapes_text_as_the_stdlib_does(arms):
    record = _record([0.5], arms=arms)
    assert encode(record) == reference(record)
    assert encode(record).isascii()


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**64, -(2**63) - 1])
def test_encode_writes_integers_past_63_bits(seed):
    record = _record([0.5], seed=seed)
    assert encode(record) == reference(record)
    assert f'"seed":{seed}'.encode() in encode(record)


def test_encode_writes_non_string_keys_as_the_stdlib_does():
    # orjson refuses them, and the stdlib writes them as strings
    assert encode({2: 0.5, 1: True}) == reference({2: 0.5, 1: True}) == b'{"1":true,"2":0.5}'


def _estimate(doc, value):
    doc["result"].estimate_mean["T1"] = value


def _posterior(doc, value):
    doc["result"].history[0].eff_posterior["T2"] = value


def _response(doc, value):
    doc["result"].dataset["response"][3] = value


def _covariate(doc, value):
    doc["result"].dataset["covariates"]["x"][0] = value


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place", [_estimate, _posterior, _response, _covariate],
    ids=["result-estimate", "look-posterior", "dataset-response", "dataset-covariate"],
)
def test_encode_refuses_a_non_finite_record_float(place, value):
    # orjson would write null: the stdlib's encoder refuses it
    doc = _record([0.5])
    place(doc, value)
    for part in (doc, doc["result"]):
        with pytest.raises(ValueError, match="not JSON compliant"):
            encode(part)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_encode_refuses_a_non_finite_header_float(value):
    header = montecarlo._header_doc(
        montecarlo.run_batch(validated(count_dose_design()), seeds=[1], workers=1)
    )
    # the stdlib's encoder writes a header, with its fingerprint's hex
    # digits ("e3" and the like) or without them
    assert encode(header) == reference(header)
    header.pop("fingerprint")
    assert encode(header) == reference(header)
    header["spec_document"]["beta_true"][2] = value
    with pytest.raises(ValueError, match="not JSON compliant"):
        encode(header)
    header["spec_document"]["beta_true"][2] = 0.0
    header["spec_document"]["model"]["nuisance"]["dispersion"] = value
    with pytest.raises(ValueError, match="not JSON compliant"):
        encode(header)


def test_encode_hands_orjson_records_only(monkeypatch):
    # headers, designs and other documents go straight to the stdlib's
    # encoder; a record envelope goes to orjson, once
    records._bind_orjson()
    calls = []
    dumps = records._dumps

    def spy(*args, **kwargs):
        calls.append(args[0])
        return dumps(*args, **kwargs)

    designs = sorted((Path(__file__).resolve().parent.parent / "designs").glob("*.json"))
    headers = [
        montecarlo._header_doc(montecarlo.run_batch(validated(json.loads(p.read_text())), [1]))
        for p in designs
    ]
    monkeypatch.setattr(records, "_dumps", spy)
    for doc in [*headers, headers[0]["spec_document"], [0.5, "T1", 3]]:
        assert encode(doc) == reference(doc)
    assert len(headers) == 5 and calls == []
    record = _record([0.5])
    assert encode(record) == reference(record)
    assert calls == [record]


@pytest.mark.parametrize(
    "doc",
    [[math.nan], {"a": [0.5, math.inf]}, {"a": {"b": -math.inf}}, [["x", 0.5, math.nan]],
     (True, None, {"c": (2, math.nan)})],
)
def test_encode_refuses_a_non_finite_float_anywhere(doc):
    with pytest.raises(ValueError, match="not JSON compliant"):
        encode(doc)


def test_encode_writes_subclasses_of_json_types_as_the_stdlib_does():
    class Arm(str):
        pass

    class Level(enum.IntEnum):
        HIGH = 2

    doc = collections.OrderedDict(b=[Arm("T1"), Level.HIGH], a=collections.Counter(x=1))
    assert encode(doc) == reference(doc) == b'{"a":{"x":1},"b":["T1",2]}'
    doc["a"]["y"] = math.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        encode(doc)


def test_encode_sums_no_false_finite():
    # floats that cancel in a sum: inf - inf is nan, and 1e308 + 1e308 an
    # overflow that the stdlib's encoder settles
    with pytest.raises(ValueError, match="not JSON compliant"):
        encode(_record([math.inf, -math.inf]))
    big = _record([1e308])
    assert encode(big) == reference(big)

