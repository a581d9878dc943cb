"""Design-document parsing, validation, and fingerprint behaviour."""

import json
import math

import pytest

from mamsim import config
from mamsim.config import SpecError

from trial_designs import count_dose_design, gaussian_two_stage_design, validated


def test_parse_count_dose_document():
    spec = config.parse_spec(json.dumps(count_dose_design()))
    assert spec.model.arm_names == ("control", "A", "B", "C")
    assert spec.which_targets == (1, 2, 3)
    assert spec.alternative == ("less",) * 3
    assert spec.n_max == 260
    assert spec.interim_recruited == (100, 140, 180, 220)
    assert spec.beta_true[0] == pytest.approx(math.log(4))
    assert spec.beta_true[3] == pytest.approx(math.log(0.4))
    assert spec.n_looks == 5
    # scalar deltas broadcast over every target and look
    assert spec.delta_eff == ((0.0,) * 5,) * 3
    assert spec.rar_rule is None
    assert spec.seeds == tuple(range(1, 5))
    assert spec.extended == 0


def test_missing_required_key_reported():
    doc = gaussian_two_stage_design()
    del doc["interim_recruited"]
    with pytest.raises(SpecError, match="interim_recruited"):
        config.parse_spec(json.dumps(doc))


def test_rule_missing_parameter_lists_name():
    doc = gaussian_two_stage_design(
        rar_rule={"family": "trippa", "params": {"gamma": 3, "eta": 1}},
        delta_rar=0.0,
    )
    with pytest.raises(SpecError, match="nu"):
        config.parse_spec(json.dumps(doc))


def test_unknown_rule_family():
    doc = gaussian_two_stage_design(eff_arm_rule={"family": "bogus", "params": {}})
    with pytest.raises(SpecError, match="unknown rule family"):
        config.parse_spec(json.dumps(doc))


def test_unknown_field_rejected():
    doc = gaussian_two_stage_design(); doc["n_min"] = 5
    with pytest.raises(SpecError, match="n_min"):
        config.parse_spec(json.dumps(doc))


def test_syntax_error_reports_position():
    with pytest.raises(SpecError, match=r"line \d+, column \d+"):
        config.parse_spec('{"model": }')


def test_prob0_normalised():
    v = validated(count_dose_design())
    assert set(v.spec.prob0.values()) == {0.25}


def test_interims_must_increase():
    doc = count_dose_design(interim_recruited=[100, 100, 180])
    with pytest.raises(SpecError, match="strictly increasing"):
        validated(doc)


def test_validation_collects_all_errors():
    doc = count_dose_design(
        interim_recruited=[100, 90],
        targets=[0, 1, 1],
        extended=7,
    )
    with pytest.raises(SpecError) as exc:
        validated(doc)
    text = str(exc.value)
    assert "strictly increasing" in text
    assert "intercept" in text
    assert "distinct" in text
    assert "extended" in text


def test_fingerprint_ignores_seeds():
    a = validated(count_dose_design(replicates=10))
    doc = count_dose_design()
    del doc["replicates"]
    doc["seeds"] = [5, 9, 2]
    b = validated(doc)
    assert a.fingerprint == b.fingerprint


def test_fingerprint_ignores_field_order_and_weight_scale():
    doc = count_dose_design()
    reordered = dict(reversed(list(doc.items())))
    reordered["prob0"] = {k: 4 * v for k, v in doc["prob0"].items()}
    assert validated(doc).fingerprint == validated(reordered).fingerprint


def test_fingerprint_changes_with_any_other_field():
    base = validated(count_dose_design()).fingerprint
    for change in (
        {"n_max": 280},
        {"extended": 1},
        {"h0_mode": True},
        {"fut_arm_rule": {"family": "fixed", "params": {"b_f": 0.21}}},
        {"delta_fut": math.log(0.81)},
    ):
        assert validated(count_dose_design(**change)).fingerprint != base


def test_serialise_parse_round_trip():
    v = validated(count_dose_design(replicates=7))
    text = config.serialize_spec(v)
    again = config.validate_spec(config.parse_spec(text))
    assert again == v
    assert config.serialize_spec(again) == text


def test_per_look_delta_with_nulls():
    doc = gaussian_two_stage_design(delta_eff=[None, None, 0.5])
    spec = config.parse_spec(json.dumps(doc))
    assert spec.delta_eff == ((None, None, 0.5), (None, None, 0.5))


def test_per_target_delta_rows():
    doc = gaussian_two_stage_design(delta_eff=[[0.1, 0.2, 0.3], [None, None, 0.0]])
    spec = config.parse_spec(json.dumps(doc))
    assert spec.delta_eff[0] == (0.1, 0.2, 0.3)
    assert spec.delta_eff[1] == (None, None, 0.0)


def test_delta_wrong_length_rejected():
    doc = gaussian_two_stage_design(delta_eff=[0.0, 0.0])
    with pytest.raises(SpecError, match="interims"):
        config.parse_spec(json.dumps(doc))


def test_family_link_pairing_enforced():
    doc = gaussian_two_stage_design()
    doc["model"]["link"] = "log"
    with pytest.raises(SpecError, match="requires link"):
        validated(doc)


def test_rar_requires_all_interventions_targeted():
    doc = gaussian_two_stage_design(
        targets=[1],
        alternative=["greater"],
        rar_rule={"family": "trippa", "params": {"gamma": 3, "eta": 1, "nu": 0.25}},
    )
    with pytest.raises(SpecError, match="T2"):
        validated(doc)


def test_replicates_and_seeds_mutually_exclusive():
    doc = gaussian_two_stage_design(seeds=[1, 2])
    with pytest.raises(SpecError, match="not both"):
        config.parse_spec(json.dumps(doc))


def test_duplicate_seeds_rejected():
    doc = gaussian_two_stage_design()
    del doc["replicates"]
    doc["seeds"] = [3, 3]
    with pytest.raises(SpecError, match="duplicates"):
        validated(doc)


def test_negative_seeds_rejected():
    doc = gaussian_two_stage_design()
    del doc["replicates"]
    doc["seeds"] = [-1, 2]
    with pytest.raises(SpecError, match="non-negative, got -1"):
        validated(doc)


def test_null_variant_zeroes_targets():
    v = validated(count_dose_design())
    null = config.null_variant(v)
    assert null.spec.beta_true == (math.log(4), 0.0, 0.0, 0.0)
    assert null.fingerprint != v.fingerprint


def test_document_diff_names_paths():
    a = config.canonical_document(validated(count_dose_design()).spec, include_seeds=False)
    b = config.canonical_document(
        validated(count_dose_design(fut_arm_rule={"family": "fixed", "params": {"b_f": 0.3}})).spec,
        include_seeds=False,
    )
    assert config.document_diff(a, b) == ["fut_arm_rule.params.b_f"]


def test_shipped_design_documents_match_builders():
    # the JSON files under designs/ must stay in sync with the documents the
    # test builders produce (fingerprints ignore the seed set)
    from pathlib import Path

    from trial_designs import binary_six_arm_design

    root = Path(__file__).resolve().parent.parent / "designs"
    pairs = {
        "count_dose_finding.json": count_dose_design(),
        "orr_six_arm_null.json": binary_six_arm_design("null", "fixed"),
        "orr_six_arm_alternative.json": binary_six_arm_design("alternative", "fixed"),
        "orr_six_arm_null_rising_futility.json": binary_six_arm_design("null", "increasing"),
        "orr_six_arm_alternative_rising_futility.json": binary_six_arm_design(
            "alternative", "increasing"
        ),
    }
    for name, doc in pairs.items():
        shipped = config.validate_spec(config.parse_spec((root / name).read_text()))
        assert shipped.fingerprint == validated(doc).fingerprint, name
