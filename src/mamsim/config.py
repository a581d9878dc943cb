"""Trial design specification: JSON parsing, validation, fingerprints.

A design document is a single JSON object (see the repository's
``docs/design-format.md``) describing the outcome model, true parameter
values, interim schedule, adaptation rules, and Monte Carlo controls.
``parse_spec`` turns the document into a :class:`TrialSpec`;
``validate_spec`` verifies every invariant, normalises the allocation
weights, and attaches a canonical content fingerprint that identifies the
design independently of its seed set.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

from . import rules
from .rules import RuleSpec

# family -> (its link, the nuisance parameter it needs, > 0, or None)
FAMILIES = {
    "gaussian": ("identity", "sd"),
    "binomial": ("logit", None),
    "poisson": ("log", None),
    "nbinomial": ("log", "dispersion"),
}
ALLOCATION_METHODS = ("balanced", "simple")
DIRECTIONS = ("greater", "less")

_RULE_KINDS = {
    "eff_arm_rule": "eff_arm",
    "fut_arm_rule": "fut_arm",
    "eff_trial_rule": "eff_trial",
    "fut_trial_rule": "fut_trial",
    "rar_rule": "rar",
}

# The keys of a design document and of its model, as the format
# documentation lists them, each with the default an absent key takes;
# ``...`` marks a required key.  ``seeds`` defaults to 1..replicates.
_FIELDS = {
    "model": ...,
    "beta_true": ...,
    "targets": ...,
    "alternative": ...,
    "n_max": ...,
    "interim_recruited": ...,
    "prob0": ...,
    "allocation": "simple",
    "delta_eff": 0.0,
    "delta_fut": 0.0,
    "delta_rar": 0.0,
    "eff_arm_rule": ...,
    "fut_arm_rule": ...,
    "eff_trial_rule": {"family": "never"},
    "fut_trial_rule": {"family": "never"},
    "rar_rule": None,
    "h0_mode": False,
    "replicates": 1,
    "seeds": None,
    "extended": 0,
}
_MODEL_FIELDS = {
    "response": ...,
    "treatment": ...,
    "arms": ...,
    "family": ...,
    "link": ...,
    "nuisance": {},
    "covariates": [],
}
# the keys of a rule object and of a covariate object, in the same form
_RULE_FIELDS = {"family": ..., "params": {}}
_COVARIATE_FIELDS = {"name": ..., "generator": ..., "params": {}}
# the integers a shard's parser reads as integers, not floats: a design
# integer outside them could not come back from a shard header
INT_RANGE = range(-(2**63), 2**64)


class SpecError(ValueError):
    """One or more problems in a design document; ``errors`` lists them."""

    def __init__(self, errors):
        self.errors = [errors] if isinstance(errors, str) else list(errors)
        super().__init__("; ".join(self.errors))


# The errors of the fit and of data generation, defined here, where
# validation and the command line reach them without loading numpy;
# ``glm`` and ``datagen`` raise them and bind the same classes.
class FitError(ValueError):
    """Dimension mismatch, invalid nuisance, or pathological inputs."""


class DataGenError(ValueError):
    """Invalid simulation inputs (weights, generators, nuisance values)."""


def check_nuisance(family: str, nuisance) -> None:
    """Reject an unknown family, or invalid plug-in nuisance parameters for
    it (``FAMILIES``)."""
    if family not in FAMILIES:
        raise FitError(f"unknown family {family!r}")
    needed = FAMILIES[family][1]
    if needed is not None and not nuisance.get(needed, 0.0) > 0.0:
        raise FitError(f"{family} family requires nuisance {needed} > 0")
    if family == "gaussian":
        # the fit divides by sd**2, which Python's ** raises on when a finite
        # sd's square overflows; a non-finite sd is the document checks' to name
        sd = nuisance["sd"]
        if sd < math.inf and sd * sd == math.inf:
            raise FitError(
                f"gaussian family requires a nuisance sd whose square is finite, got {sd!r}"
            )


@dataclass(frozen=True)
class CovariateSpec:
    """One extra predictor: a named draw from a registered generator."""

    name: str
    generator: str
    params: Mapping[str, Any]


@dataclass(frozen=True)
class ModelSpec:
    """Outcome model: response, treatment factor, covariates, family, link."""

    response_name: str
    treatment_name: str
    arm_names: tuple[str, ...]  # control first
    family: str
    link: str
    covariates: tuple[CovariateSpec, ...]
    nuisance: Mapping[str, float]

    @property
    def control(self) -> str:
        return self.arm_names[0]

    @property
    def interventions(self) -> tuple[str, ...]:
        return self.arm_names[1:]


# deltas are stored as one row per target and one column per look (interims
# plus final); None disables the corresponding evaluation at that look
DeltaMatrix = tuple[tuple[float | None, ...], ...]


@dataclass(frozen=True)
class TrialSpec:
    model: ModelSpec
    beta_true: tuple[float, ...]
    which_targets: tuple[int, ...]
    alternative: tuple[str, ...]
    n_max: int
    interim_recruited: tuple[int, ...]
    prob0: Mapping[str, float]
    eff_arm_rule: RuleSpec
    fut_arm_rule: RuleSpec
    delta_eff: DeltaMatrix
    delta_fut: DeltaMatrix
    delta_rar: DeltaMatrix
    eff_trial_rule: RuleSpec
    fut_trial_rule: RuleSpec
    rar_rule: RuleSpec | None
    allocation: str
    h0_mode: bool
    seeds: tuple[int, ...]
    extended: int

    @property
    def n_looks(self) -> int:
        """Interim analyses plus the final analysis."""
        return len(self.interim_recruited) + 1


@dataclass(frozen=True)
class ValidatedSpec:
    """A TrialSpec that passed validation, plus its content fingerprint."""

    spec: TrialSpec
    fingerprint: str


def covariate_columns(model: ModelSpec) -> tuple[str, ...]:
    """Design-matrix column names contributed by the extra predictors.

    Univariate generators contribute one column named after the covariate;
    the multivariate-normal generator contributes one column per entry of
    its ``names`` parameter.
    """
    cols: list[str] = []
    for cov in model.covariates:
        if cov.generator == "mvnormal":
            cols.extend(cov.params.get("names", ()))
        else:
            cols.append(cov.name)
    return tuple(cols)


def coefficient_names(model: ModelSpec) -> tuple[str, ...]:
    """Intercept, one indicator per intervention, then covariate columns."""
    return ("intercept",) + model.interventions + covariate_columns(model)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def parse_spec(text: str) -> TrialSpec:
    """Parse a JSON design document into a TrialSpec.

    ``_FIELDS``, ``_MODEL_FIELDS``, ``_RULE_FIELDS`` and
    ``_COVARIATE_FIELDS`` give the keys a document, its model, a rule and a
    covariate may hold, which are required, and the default each absent
    optional key takes.  Every rule is checked here by ``rules.check_rule``,
    so an unknown family or a parameter that is missing, unexpected or out
    of range is a ``SpecError`` naming the rule's key.  So is a string or
    key that is not Unicode text, which no shard header could carry.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise SpecError(f"unreadable number: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecError("design document must be a JSON object")
    _check_unicode(doc, "")
    fields = _fields(doc, _FIELDS, "")

    model = _parse_model(fields["model"])
    beta_true = tuple(
        _as_number(b, f"beta_true[{i}]")
        for i, b in enumerate(_as_list(fields["beta_true"], "beta_true"))
    )
    targets = tuple(_as_int(t, "targets") for t in _as_list(fields["targets"], "targets"))

    alternative = fields["alternative"]
    if isinstance(alternative, str):
        alternative = [alternative] * len(targets)
    alternative = tuple(_as_str(a, "alternative") for a in _as_list(alternative, "alternative"))

    interims = tuple(
        _as_int(v, "interim_recruited")
        for v in _as_list(fields["interim_recruited"], "interim_recruited")
    )
    n_looks = len(interims) + 1

    prob0 = fields["prob0"]
    if not isinstance(prob0, dict):
        raise SpecError("prob0 must map arm names to weights")
    prob0 = {str(k): _as_number(v, f"prob0.{k}") for k, v in prob0.items()}

    # the keys the document gave, not their defaults
    if "replicates" in doc and "seeds" in doc:
        raise SpecError("specify either replicates or seeds, not both")
    if "seeds" in doc:
        seeds = tuple(_as_int(s, "seeds") for s in _as_list(doc["seeds"], "seeds"))
    else:
        r = _as_int(fields["replicates"], "replicates")
        if r < 1:
            raise SpecError("replicates must be >= 1")
        seeds = tuple(range(1, r + 1))
    h0_mode = fields["h0_mode"]
    if not isinstance(h0_mode, bool):
        raise SpecError(f"h0_mode must be true or false, got {h0_mode!r}")

    rar_rule = fields["rar_rule"]
    return TrialSpec(
        model=model,
        beta_true=beta_true,
        which_targets=targets,
        alternative=alternative,
        n_max=_as_int(fields["n_max"], "n_max"),
        interim_recruited=interims,
        prob0=prob0,
        eff_arm_rule=_parse_rule(fields["eff_arm_rule"], "eff_arm_rule"),
        fut_arm_rule=_parse_rule(fields["fut_arm_rule"], "fut_arm_rule"),
        eff_trial_rule=_parse_rule(fields["eff_trial_rule"], "eff_trial_rule"),
        fut_trial_rule=_parse_rule(fields["fut_trial_rule"], "fut_trial_rule"),
        rar_rule=None if rar_rule is None else _parse_rule(rar_rule, "rar_rule"),
        delta_eff=_expand_delta(fields["delta_eff"], len(targets), n_looks, "delta_eff"),
        delta_fut=_expand_delta(fields["delta_fut"], len(targets), n_looks, "delta_fut"),
        delta_rar=_expand_delta(fields["delta_rar"], len(targets), n_looks, "delta_rar"),
        allocation=_as_str(fields["allocation"], "allocation"),
        h0_mode=h0_mode,
        seeds=seeds,
        extended=_as_int(fields["extended"], "extended"),
    )


def _fields(doc: dict, table: dict, prefix: str) -> dict:
    """Every key of ``table`` with its value in ``doc``, or its default where
    ``doc`` leaves it out; a SpecError names unknown and missing keys."""
    errors = []
    unknown = sorted(doc.keys() - table.keys())
    if unknown:
        errors.append(f"{prefix}unknown field(s): " + ", ".join(unknown))
    missing = [k for k, default in table.items() if default is ... and k not in doc]
    if missing:
        errors.append(f"{prefix}missing required key(s): " + ", ".join(missing))
    if errors:
        raise SpecError(errors)
    return {k: doc.get(k, default) for k, default in table.items()}


def _as_list(value, key: str) -> list:
    if not isinstance(value, list):
        raise SpecError(f"{key} must be a list")
    return value


def _as_dict(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"{key} must be an object")
    return value


def _as_str(value, key: str) -> str:
    if not isinstance(value, str):
        raise SpecError(f"{key} must be a string, got {value!r}")
    return value


def _as_number(value, key: str) -> float:
    """A document number as a float: a finite JSON number, not a boolean."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise SpecError(f"{key} must be a finite number, got {value!r}")


def _check_numbers(value, key: str) -> None:
    """Reject a non-finite number, or an integer outside ``INT_RANGE``,
    anywhere in ``value``, a JSON value whose numbers are kept as they are
    (covariate generator parameters, a canonical document)."""
    if isinstance(value, dict):
        for k, v in value.items():
            _check_numbers(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _check_numbers(v, f"{key}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise SpecError(f"{key} must be a finite number, got {value!r}")
    elif type(value) is int and value not in INT_RANGE:
        raise SpecError(f"{key} must fit in 64 bits, got {value!r}")


def _check_unicode(value, key: str) -> None:
    """Reject a string or object key anywhere in the JSON value ``value``
    that holds a lone surrogate (an unpaired ``\\ud800`` escape), which is
    not Unicode text."""
    if isinstance(value, str):
        if not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise SpecError(f"{key} must be Unicode text, got {value!r}") from None
    elif isinstance(value, dict):
        for k, v in value.items():
            _check_unicode(k, f"{key} keys" if key else "design document keys")
            _check_unicode(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _check_unicode(v, f"{key}[{i}]")


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{key} must be an integer, got {value!r}")
    if value not in INT_RANGE:
        raise SpecError(f"{key} must fit in 64 bits, got {value!r}")
    return value


def _parse_model(doc) -> ModelSpec:
    fields = _fields(_as_dict(doc, "model"), _MODEL_FIELDS, "model: ")
    covariates = []
    for i, cov in enumerate(_as_list(fields["covariates"], "model.covariates")):
        cov = _fields(_as_dict(cov, f"covariates[{i}]"), _COVARIATE_FIELDS, f"covariates[{i}]: ")
        name = _as_str(cov["name"], f"covariates[{i}].name")
        generator = _as_str(cov["generator"], f"covariates[{i}].generator")
        params = _as_dict(cov["params"], f"covariates[{i}].params")
        _check_numbers(params, f"covariates[{i}].params")
        names = params.get("names", []) if generator == "mvnormal" else []
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            # they name design-matrix columns (``covariate_columns``)
            raise SpecError(
                f"covariates[{i}].params.names must be a list of column names, got {names!r}"
            )
        covariates.append(CovariateSpec(name=name, generator=generator, params=params))
    nuisance = _as_dict(fields["nuisance"], "model.nuisance")
    return ModelSpec(
        response_name=_as_str(fields["response"], "model.response"),
        treatment_name=_as_str(fields["treatment"], "model.treatment"),
        arm_names=tuple(_as_str(a, "model.arms") for a in _as_list(fields["arms"], "model.arms")),
        family=_as_str(fields["family"], "model.family"),
        link=_as_str(fields["link"], "model.link"),
        covariates=tuple(covariates),
        nuisance={str(k): _as_number(v, f"model.nuisance.{k}") for k, v in nuisance.items()},
    )


def _parse_rule(doc, key: str) -> RuleSpec:
    fields = _fields(_as_dict(doc, key), _RULE_FIELDS, f"{key}: ")
    params = {
        str(k): _as_number(v, f"{key}.params.{k}")
        for k, v in _as_dict(fields["params"], f"{key}.params").items()
    }
    rule = RuleSpec(_as_str(fields["family"], f"{key}.family"), params)
    try:
        rules.check_rule(_RULE_KINDS[key], rule)
    except rules.RuleError as exc:
        raise SpecError(f"{key}: {exc}") from None
    return rule


def _expand_delta(value, n_targets: int, n_looks: int, key: str) -> DeltaMatrix:
    """Normalise a delta field to one optional value per target and look.

    Accepts a scalar (broadcast everywhere), null (disabled everywhere), a
    per-look list broadcast across targets, or a full per-target list of
    per-look lists.  A null entry disables the evaluation at that look.
    """

    def cell(v):
        return None if v is None else _as_number(v, f"{key} entries")

    if value is None or isinstance(value, (int, float)):
        row = (cell(value),) * n_looks
        return (row,) * n_targets
    if not isinstance(value, list):
        raise SpecError(f"{key} must be a number, null, or list")
    if all(isinstance(v, list) for v in value):
        if len(value) != n_targets:
            raise SpecError(f"{key}: expected {n_targets} target rows, got {len(value)}")
        out = []
        for row in value:
            if len(row) != n_looks:
                raise SpecError(f"{key}: each row needs {n_looks} entries (interims + final)")
            out.append(tuple(cell(v) for v in row))
        return tuple(out)
    if len(value) != n_looks:
        raise SpecError(
            f"{key}: per-look list needs {n_looks} entries (interims + final), got {len(value)}"
        )
    row = tuple(cell(v) for v in value)
    return (row,) * n_targets


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


def validate_spec(spec: TrialSpec) -> ValidatedSpec:
    """Verify every invariant; collect all violations before reporting.

    The family's link and nuisance come from ``FAMILIES``, each rule is
    checked by ``rules.check_rule`` as in ``parse_spec`` (for specs built
    in code), and one throwaway draw runs the covariate generators' checks.
    On success the returned spec has prob0 normalised to sum 1 and carries
    the canonical fingerprint (a hash of the design excluding its seeds).
    That hashed document is what a shard header carries, so a spec built in
    code is held to it as ``parse_spec`` holds a document: Unicode text,
    integers within 64 bits and finite numbers only.
    """
    errors: list[str] = []
    model = spec.model

    link = FAMILIES[model.family][0] if model.family in FAMILIES else model.link
    if link != model.link:
        errors.append(f"family {model.family!r} requires link {link!r}, got {model.link!r}")
    try:
        check_nuisance(model.family, model.nuisance)  # or names an unknown family
    except FitError as exc:
        errors.append(str(exc))

    if len(model.arm_names) < 2:
        errors.append("at least two arms (control + intervention) are required")
    if len(set(model.arm_names)) != len(model.arm_names):
        errors.append("arm names must be unique")

    columns = covariate_columns(model)
    repeated = sorted({c for c in columns if columns.count(c) > 1})
    if repeated:
        errors.append("covariate column names must be unique; repeated: " + ", ".join(repeated))
    if model.covariates:
        # one throwaway draw runs every generator's parameter checks; only
        # this branch loads numpy (config -> datagen -> config is a cycle)
        import numpy as np

        from .datagen import simulate_covariates

        try:
            simulate_covariates(model.covariates, 1, np.random.Generator(np.random.Philox(0)))
        except DataGenError as exc:
            errors.append(str(exc))

    n_coef = len(coefficient_names(model))
    if len(spec.beta_true) != n_coef:
        errors.append(
            f"beta_true has {len(spec.beta_true)} entries but the model implies "
            f"{n_coef} coefficients (intercept + interventions + covariates)"
        )

    n_arms = len(model.arm_names)
    if len(set(spec.which_targets)) != len(spec.which_targets):
        errors.append("targets must be distinct")
    for t in spec.which_targets:
        if t == 0:
            errors.append("the intercept (index 0) cannot be a target")
        elif not 1 <= t <= n_arms - 1:
            errors.append(
                f"target index {t} does not name an intervention coefficient "
                f"(expected 1..{n_arms - 1})"
            )
    if not spec.which_targets:
        errors.append("at least one target is required")

    if len(spec.alternative) != len(spec.which_targets):
        errors.append("alternative needs one direction per target")
    for a in spec.alternative:
        if a not in DIRECTIONS:
            errors.append(f"alternative entries must be 'greater' or 'less', got {a!r}")

    if spec.n_max < 1:
        errors.append("n_max must be positive")
    if not spec.interim_recruited:
        errors.append("at least one interim analysis is required")
    else:
        if any(v < 1 for v in spec.interim_recruited):
            errors.append("interim_recruited entries must be positive")
        if any(
            b <= a for a, b in zip(spec.interim_recruited, spec.interim_recruited[1:])
        ):
            errors.append("interim_recruited must be strictly increasing")
        if spec.interim_recruited[-1] >= spec.n_max:
            errors.append("all interim_recruited entries must be < n_max")

    if set(spec.prob0) != set(model.arm_names):
        errors.append("prob0 must assign a weight to every arm (and nothing else)")
    else:
        if any(w < 0 for w in spec.prob0.values()):
            errors.append("prob0 weights must be nonnegative")
        # the weights as given: normalised, an infinite one would read nan
        nonfinite = [
            f"prob0.{k} must be a finite number, got {w!r}"
            for k, w in spec.prob0.items() if not math.isfinite(w)
        ]
        total = sum(spec.prob0.values())
        if nonfinite:
            errors += nonfinite
        elif total <= 0:
            errors.append("prob0 weights must sum to a positive value")
        elif math.isinf(total):
            # normalised by an infinite total, every weight would be 0
            errors.append(f"prob0 weights overflow: their sum is {total}, not a finite number")

    if spec.allocation not in ALLOCATION_METHODS:
        errors.append(f"allocation must be one of {ALLOCATION_METHODS}, got {spec.allocation!r}")

    for key, kind in _RULE_KINDS.items():
        rule = getattr(spec, key)
        if rule is not None:
            try:
                rules.check_rule(kind, rule)
            except rules.RuleError as exc:
                errors.append(f"{key}: {exc}")

    if spec.rar_rule is not None:
        missing = [
            model.arm_names[i + 1]
            for i in range(n_arms - 1)
            if (i + 1) not in spec.which_targets
        ]
        if missing:
            errors.append(
                "response-adaptive randomisation needs every intervention to be "
                "a target; missing: " + ", ".join(missing)
            )

    if len(spec.seeds) != len(set(spec.seeds)):
        errors.append("seed list contains duplicates")
    if spec.seeds and min(spec.seeds) < 0:
        errors.append(f"seeds must be non-negative, got {min(spec.seeds)}")
    if not spec.seeds:
        errors.append("at least one seed is required")

    if spec.extended not in (0, 1, 2):
        errors.append(f"extended must be 0, 1, or 2, got {spec.extended}")

    if errors:
        raise SpecError(errors)

    total = sum(spec.prob0.values())
    if abs(total - 1.0) > 1e-9:
        prob0 = {k: v / total for k, v in spec.prob0.items()}
        spec = dataclasses.replace(spec, prob0=prob0)
    document = canonical_document(spec, include_seeds=False)
    _check_unicode(document, "")
    _check_numbers(document, "")
    return ValidatedSpec(spec=spec, fingerprint=fingerprint(document))


# --------------------------------------------------------------------------
# canonical form, fingerprint, serialisation
# --------------------------------------------------------------------------


def canonical_document(spec: TrialSpec, include_seeds: bool = True) -> dict:
    """Plain-dict form of the spec with every default materialised."""
    doc: dict[str, Any] = {
        "model": {
            "response": spec.model.response_name,
            "treatment": spec.model.treatment_name,
            "arms": list(spec.model.arm_names),
            "family": spec.model.family,
            "link": spec.model.link,
            "nuisance": dict(sorted(spec.model.nuisance.items())),
            "covariates": [
                {"name": c.name, "generator": c.generator, "params": dict(sorted(c.params.items()))}
                for c in spec.model.covariates
            ],
        },
        "beta_true": list(spec.beta_true),
        "targets": list(spec.which_targets),
        "alternative": list(spec.alternative),
        "n_max": spec.n_max,
        "interim_recruited": list(spec.interim_recruited),
        "prob0": {k: spec.prob0[k] for k in spec.model.arm_names if k in spec.prob0},
        "allocation": spec.allocation,
        "delta_eff": [list(row) for row in spec.delta_eff],
        "delta_fut": [list(row) for row in spec.delta_fut],
        "delta_rar": [list(row) for row in spec.delta_rar],
        "eff_arm_rule": _rule_doc(spec.eff_arm_rule),
        "fut_arm_rule": _rule_doc(spec.fut_arm_rule),
        "eff_trial_rule": _rule_doc(spec.eff_trial_rule),
        "fut_trial_rule": _rule_doc(spec.fut_trial_rule),
        "rar_rule": _rule_doc(spec.rar_rule) if spec.rar_rule else None,
        "h0_mode": spec.h0_mode,
        "extended": spec.extended,
    }
    if include_seeds:
        doc["seeds"] = list(spec.seeds)
    return doc


def _rule_doc(rule: RuleSpec) -> dict:
    return {"family": rule.family_id, "params": dict(sorted(rule.params.items()))}


def fingerprint(document: Mapping) -> str:
    """Deterministic hash of a canonical design document, seed set excluded
    (``canonical_document(spec, include_seeds=False)``)."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def serialize_spec(validated: ValidatedSpec) -> str:
    """Render a validated spec back into the document format."""
    doc = canonical_document(validated.spec, include_seeds=True)
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def document_diff(a: Mapping, b: Mapping) -> list[str]:
    """Dotted paths of every field where two canonical documents differ."""
    paths: list[str] = []
    _diff_into(a, b, "", paths)
    return sorted(paths)


def _diff_into(a, b, prefix: str, out: list[str]) -> None:
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a or key not in b:
                out.append(path)
            else:
                _diff_into(a[key], b[key], path, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(prefix or "<root>")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _diff_into(x, y, f"{prefix}[{i}]", out)
    elif a != b:
        out.append(prefix or "<root>")


def null_variant(validated: ValidatedSpec) -> ValidatedSpec:
    """The matched global-null design: all target coefficients set to zero."""
    spec = validated.spec
    beta = list(spec.beta_true)
    for t in spec.which_targets:
        beta[t] = 0.0
    return validate_spec(dataclasses.replace(spec, beta_true=tuple(beta)))
