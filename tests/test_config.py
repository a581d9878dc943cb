"""Design-document parsing, validation, and fingerprint behaviour."""

import dataclasses
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


_REQUIRED_ONLY = {
    "model": {
        "response": "y", "treatment": "arm", "arms": ["ctrl", "T1"],
        "family": "binomial", "link": "logit",
    },
    "beta_true": [0.0, 0.5],
    "targets": [1],
    "alternative": "greater",
    "n_max": 100,
    "interim_recruited": [50],
    "prob0": {"ctrl": 1, "T1": 3},
    "eff_arm_rule": {"family": "fixed", "params": {"b_e": 0.05}},
    "fut_arm_rule": {"family": "fixed", "params": {"b_f": 0.1}},
}


def test_required_keys_alone_take_the_documented_defaults():
    spec = config.validate_spec(config.parse_spec(json.dumps(_REQUIRED_ONLY))).spec
    never = {"family": "never", "params": {}}
    assert config.canonical_document(spec) == {
        "model": {**_REQUIRED_ONLY["model"], "nuisance": {}, "covariates": []},
        "beta_true": [0.0, 0.5],
        "targets": [1],
        "alternative": ["greater"],
        "n_max": 100,
        "interim_recruited": [50],
        "prob0": {"ctrl": 0.25, "T1": 0.75},
        "allocation": "simple",
        "delta_eff": [[0.0, 0.0]],
        "delta_fut": [[0.0, 0.0]],
        "delta_rar": [[0.0, 0.0]],
        "eff_arm_rule": {"family": "fixed", "params": {"b_e": 0.05}},
        "fut_arm_rule": {"family": "fixed", "params": {"b_f": 0.1}},
        "eff_trial_rule": never,
        "fut_trial_rule": never,
        "rar_rule": None,
        "h0_mode": False,
        "extended": 0,
        "seeds": [1],
    }


def _documented_keys(heading: str) -> dict:
    """Key -> required, from the key table under ``heading`` in
    docs/design-format.md; ``family-dependent`` counts as not required."""
    from pathlib import Path

    text = (Path(__file__).resolve().parent.parent / "docs" / "design-format.md").read_text()
    section = text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    return {key.strip().strip("`"): required.strip() == "yes" for key, required in rows}


@pytest.mark.parametrize(
    "heading, table",
    [("## Top-level keys", "_FIELDS"), ("## `model`", "_MODEL_FIELDS")],
    ids=["top-level", "model"],
)
def test_documented_keys_match_the_field_tables(heading, table):
    # ``...`` marks a required key in the tables
    fields = getattr(config, table).items()
    assert _documented_keys(heading) == {key: default is ... for key, default in fields}


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


_RULE_BOUNDS = [
    # (rule key, family, good parameters, parameter to move, allowed, refused)
    ("eff_arm_rule", "fixed", {"b_e": 0.05}, "b_e", [1e-9, 0.999], [0.0, 1.0, -0.1, 1.5]),
    ("eff_arm_rule", "infofract", {"b": 0.01, "p": 3.0}, "b", [1e-9, 0.999], [0.0, 1.0, 1.5]),
    ("eff_arm_rule", "infofract", {"b": 0.01, "p": 3.0}, "p", [0.0, 50.0], [-1e-9, -2.0]),
    ("fut_arm_rule", "fixed", {"b_f": 0.2}, "b_f", [1e-9, 0.999], [0.0, 1.0, 2.0]),
    ("fut_arm_rule", "increasing", {"b_f": 0.8, "p_f": 2.0}, "b_f", [1e-9, 0.999], [0.0, 1.0]),
    ("fut_arm_rule", "increasing", {"b_f": 0.8, "p_f": 2.0}, "p_f", [0.0, 7.0], [-1e-9, -1.0]),
]


@pytest.mark.parametrize(
    "key, family, params, name, allowed, refused", _RULE_BOUNDS,
    ids=[f"{family}-{name}" for _, family, _, name, _, _ in _RULE_BOUNDS],
)
def test_rule_parameter_ranges_checked_by_validation(key, family, params, name, allowed, refused):
    def spec_with(value):
        rule = {"family": family, "params": {**params, name: value}}
        return config.parse_spec(json.dumps(gaussian_two_stage_design(**{key: rule})))

    for value in allowed:
        config.validate_spec(spec_with(value))
    for value in refused:
        with pytest.raises(SpecError) as info:
            config.validate_spec(spec_with(value))
        assert f"{key}: parameter {name} must" in str(info.value)
        assert f"got {value}" in str(info.value)


def test_rule_parameter_range_checked_by_parsing():
    doc = gaussian_two_stage_design(fut_arm_rule={"family": "fixed", "params": {"b_f": 1.5}})
    with pytest.raises(SpecError) as info:
        config.parse_spec(json.dumps(doc))
    assert str(info.value) == "fut_arm_rule: parameter b_f must lie in (0, 1), got 1.5"


def test_unknown_rule_family():
    doc = gaussian_two_stage_design(eff_arm_rule={"family": "bogus", "params": {}})
    with pytest.raises(SpecError, match="unknown rule family"):
        config.parse_spec(json.dumps(doc))


_COVARIATE = {"name": "age", "generator": "normal", "params": {"mean": 50, "sd": 5}}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("fut_arm_rule", {"family": "fixed", "params": {"b_f": 0.1}, "paramz": {}},
         "fut_arm_rule: unknown field(s): paramz"),
        ("eff_trial_rule", {"family": "never", "paramz": {"x": 1}},
         "eff_trial_rule: unknown field(s): paramz"),
        ("fut_arm_rule", {"params": {"b_f": 0.1}}, "fut_arm_rule: missing required key(s): family"),
        ("fut_arm_rule", "fixed", "fut_arm_rule must be an object"),
        ("covariates", [{"name": "age", "generator": "normal", "parms": {"sd": 5}}],
         "covariates[0]: unknown field(s): parms"),
        ("covariates", [_COVARIATE, {"name": "sex"}],
         "covariates[1]: missing required key(s): generator"),
        ("covariates", [5], "covariates[0] must be an object"),
    ],
    ids=["rule-paramz", "trial-rule-paramz", "rule-without-family", "rule-string",
         "covariate-parms", "covariate-without-generator", "covariate-number"],
)
def test_rule_and_covariate_keys_checked_by_their_tables(key, value, message):
    # before, the unknown keys were ignored: a misspelt "parms" ran the
    # generator's defaults
    doc = gaussian_two_stage_design()
    if key == "covariates":
        doc["model"]["covariates"] = value
    else:
        doc[key] = value
    with pytest.raises(SpecError) as info:
        config.parse_spec(json.dumps(doc))
    assert str(info.value) == message


def test_rule_and_covariate_params_may_be_left_out():
    doc = gaussian_two_stage_design(eff_trial_rule={"family": "never"})
    doc["model"]["covariates"] = [{"name": "z", "generator": "bernoulli", "params": {"p": 0.5}}]
    spec = config.parse_spec(json.dumps(doc))
    assert spec.eff_trial_rule.params == {}
    doc["model"]["covariates"] = [{"name": "z", "generator": "normal"}]
    assert config.parse_spec(json.dumps(doc)).model.covariates[0].params == {}


def test_unknown_field_rejected():
    doc = gaussian_two_stage_design(); doc["n_min"] = 5
    with pytest.raises(SpecError, match="n_min"):
        config.parse_spec(json.dumps(doc))


def test_syntax_error_reports_position():
    with pytest.raises(SpecError, match=r"line \d+, column \d+"):
        config.parse_spec('{"model": }')


def test_overlong_integer_reported():
    text = json.dumps(count_dose_design()).replace('"n_max": 260', '"n_max": ' + "1" * 5000)
    with pytest.raises(SpecError, match="unreadable number"):
        config.parse_spec(text)


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


_BIG = "<1e400>"  # stands for the JSON number 1e400, which parses to inf
_MALFORMED = [
    # (case id, path to the mutated field, its value, what the error names)
    ("beta_true-string", ("beta_true", 1), "a", "beta_true[1] must be a finite number"),
    ("beta_true-null", ("beta_true", 1), None, "beta_true[1] must be a finite number"),
    ("prob0-string", ("prob0", "A"), "x", "prob0.A must be a finite number"),
    ("nuisance-list", ("model", "nuisance"), [1], "model.nuisance must be an object"),
    ("nuisance-string", ("model", "nuisance", "dispersion"), "x",
     "model.nuisance.dispersion must be a finite number"),
    ("rule-params-list", ("eff_arm_rule", "params"), [1], "eff_arm_rule.params must be an object"),
    ("rule-params-string", ("eff_arm_rule", "params"), {"b_e": "x"},
     "eff_arm_rule.params.b_e must be a finite number"),
    ("covariates-number", ("model", "covariates"), 5, "model.covariates must be a list"),
    ("covariate-params-list", ("model", "covariates"),
     [{"name": "age", "generator": "normal", "params": [1]}],
     "covariates[0].params must be an object"),
    ("covariate-params-nan", ("model", "covariates"),
     [{"name": "age", "generator": "normal", "params": {"mean": math.nan}}],
     "covariates[0].params.mean must be a finite number"),
    ("mvnormal-names-number", ("model", "covariates"),
     [{"name": "m", "generator": "mvnormal", "params": {"names": 5, "mean": [0], "cov": [[1]]}}],
     "covariates[0].params.names must be a list of column names, got 5"),
    ("mvnormal-names-nested", ("model", "covariates"),
     [{"name": "m", "generator": "mvnormal",
       "params": {"names": ["u", ["v"]], "mean": [0, 0], "cov": [[1, 0], [0, 1]]}}],
     "covariates[0].params.names must be a list of column names"),
    ("arms-null", ("model", "arms", 0), None, "model.arms must be a string, got None"),
    ("response-number", ("model", "response"), 5, "model.response must be a string, got 5"),
    ("treatment-bool", ("model", "treatment"), True, "model.treatment must be a string, got True"),
    ("family-list", ("model", "family"), ["nbinomial"], "model.family must be a string"),
    ("link-null", ("model", "link"), None, "model.link must be a string, got None"),
    ("allocation-null", ("allocation",), None, "allocation must be a string, got None"),
    ("alternative-entry-null", ("alternative",), ["less", None, "less"],
     "alternative must be a string, got None"),
    ("covariate-name-number", ("model", "covariates"),
     [{"name": 3, "generator": "normal", "params": {"mean": 0, "sd": 1}}],
     "covariates[0].name must be a string, got 3"),
    ("covariate-generator-null", ("model", "covariates"), [{"name": "age", "generator": None}],
     "covariates[0].generator must be a string, got None"),
    ("rule-family-number", ("eff_arm_rule", "family"), 1,
     "eff_arm_rule.family must be a string, got 1"),
    ("delta-nan", ("delta_fut",), math.nan, "delta_fut entries must be a finite number"),
    ("h0_mode-string", ("h0_mode",), "no", "h0_mode must be true or false"),
    ("targets-fraction", ("targets", 0), 1.5, "targets must be an integer"),
    # a shard header carries the design: integers within 64 bits, Unicode text
    ("n_max-past-64-bits", ("n_max",), 2**64,
     "n_max must fit in 64 bits, got 18446744073709551616"),
    ("targets-past-64-bits", ("targets", 0), -(2**63) - 1, "targets must fit in 64 bits"),
    ("covariate-params-past-64-bits", ("model", "covariates"),
     [{"name": "age", "generator": "normal", "params": {"mean": 2**64, "sd": 1}}],
     "covariates[0].params.mean must fit in 64 bits"),
    ("arm-lone-surrogate", ("model", "arms", 1), "\ud800",
     "model.arms[1] must be Unicode text, got '\\ud800'"),
    ("prob0-key-lone-surrogate", ("prob0", "A\udc00"), 1, "prob0 keys must be Unicode text"),
] + [
    (f"{name}-{label}", path, value, f"{field} must be a finite number")
    for name, path, field in [
        ("beta_true", ("beta_true", 3), "beta_true[3]"),
        ("prob0", ("prob0", "C"), "prob0.C"),
        ("nuisance", ("model", "nuisance", "dispersion"), "model.nuisance.dispersion"),
    ]
    for label, value in [("nan", math.nan), ("inf", math.inf), ("1e400", _BIG)]
]


@pytest.mark.parametrize("mean", [2**64 - 1, -(2**63)], ids=["largest", "smallest"])
def test_integers_at_the_64_bit_edges_accepted(mean):
    doc = _with_covariates({"name": "age", "generator": "normal", "params": {"mean": mean, "sd": 1}})
    assert validated(doc).spec.model.covariates[0].params["mean"] == mean


def malformed_document(path, value) -> str:
    """The shipped count design with one field replaced, as JSON text."""
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "designs"
    doc = json.loads((root / "count_dose_finding.json").read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc).replace(json.dumps(_BIG), "1e400")


@pytest.mark.parametrize(
    "path, value, message", [case[1:] for case in _MALFORMED], ids=[case[0] for case in _MALFORMED]
)
def test_malformed_field_is_a_spec_error(path, value, message):
    with pytest.raises(SpecError) as info:
        config.validate_spec(config.parse_spec(malformed_document(path, value)))
    assert message in str(info.value)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda model: {
            "model": dataclasses.replace(model, arm_names=("control", "T\ud800", "T2")),
            "prob0": {"control": 1.0, "T\ud800": 1.0, "T2": 1.0},
        }, "model.arms[1] must be Unicode text, got 'T\\ud800'"),
        (lambda model: {"n_max": 2**64}, "n_max must fit in 64 bits, got 18446744073709551616"),
        (lambda model: {"beta_true": (0.0, math.nan, 0.0)},
         "beta_true[1] must be a finite number, got nan"),
        (lambda model: {"model": dataclasses.replace(model, nuisance={"sd": math.inf})},
         "model.nuisance.sd must be a finite number, got inf"),
    ],
    ids=["arm-lone-surrogate", "n_max-past-64-bits", "beta_true-nan", "nuisance-inf"],
)
def test_spec_built_in_code_held_to_what_a_shard_header_carries(change, message):
    # parse_spec refuses these in a document; a spec built in code skips it,
    # and its shard could not be written or read back
    spec = validated(gaussian_two_stage_design()).spec
    with pytest.raises(SpecError) as info:
        config.validate_spec(dataclasses.replace(spec, **change(spec.model)))
    assert info.value.errors == [message]


def test_prob0_weights_whose_sum_overflows_rejected():
    # each weight is finite, but their sum is not: normalised by it, every
    # weight would be 0, and the run would fail at its first allocation
    doc = gaussian_two_stage_design(prob0={"control": 1e308, "T1": 1e308, "T2": 1e308})
    with pytest.raises(SpecError) as info:
        config.validate_spec(config.parse_spec(json.dumps(doc)))
    assert info.value.errors == ["prob0 weights overflow: their sum is inf, not a finite number"]
    # one such weight alone, or two that still sum to a finite value, are fine
    for prob0 in ({"control": 1e308, "T1": 1, "T2": 1}, {"control": 8e307, "T1": 8e307, "T2": 1}):
        spec = validated(gaussian_two_stage_design(prob0=prob0)).spec
        assert math.isclose(sum(spec.prob0.values()), 1.0)


def _with_covariates(*covariates):
    """The gaussian two-stage design with extra predictors and a zero
    coefficient for each column they give."""
    doc = gaussian_two_stage_design()
    doc["model"] = {**doc["model"], "covariates": list(covariates)}
    n_columns = sum(len(c["params"].get("names", [None])) for c in covariates)
    doc["beta_true"] = doc["beta_true"] + [0.0] * n_columns
    return doc


_AGE_NORMAL = {"name": "age", "generator": "normal", "params": {"mean": 0, "sd": 1}}


@pytest.mark.parametrize(
    "covariates",
    [
        [_AGE_NORMAL, {"name": "age", "generator": "uniform", "params": {"low": 5, "high": 6}}],
        [_AGE_NORMAL, {"name": "m", "generator": "mvnormal",
                       "params": {"names": ["age", "v"], "mean": [0, 0], "cov": [[1, 0], [0, 1]]}}],
    ],
    ids=["two-covariates", "mvnormal-name"],
)
def test_repeated_covariate_columns_rejected(covariates):
    with pytest.raises(SpecError, match="covariate column names must be unique; repeated: age"):
        validated(_with_covariates(*covariates))


@pytest.mark.parametrize(
    "covariate, message",
    [
        ({"name": "z", "generator": "bogus", "params": {}},
         "unknown covariate generator id 'bogus'"),
        ({"name": "z", "generator": "normal", "params": {"mean": 0, "sd": -1}},
         "normal covariate sd must be >= 0"),
    ],
    ids=["unknown-generator", "negative-sd"],
)
def test_covariate_generator_errors_refused_by_validation(covariate, message):
    spec = config.parse_spec(json.dumps(_with_covariates(covariate)))
    with pytest.raises(SpecError, match=message):
        config.validate_spec(spec)
