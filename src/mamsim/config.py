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
from dataclasses import dataclass, field
from typing import Any, Mapping

from . import rules
from .rules import RuleSpec

FAMILY_LINKS = {
    "gaussian": "identity",
    "binomial": "logit",
    "poisson": "log",
    "nbinomial": "log",
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

_TOP_KEYS = (
    "model",
    "beta_true",
    "targets",
    "alternative",
    "n_max",
    "interim_recruited",
    "prob0",
    "allocation",
    "delta_eff",
    "delta_fut",
    "delta_rar",
    "eff_arm_rule",
    "fut_arm_rule",
    "eff_trial_rule",
    "fut_trial_rule",
    "rar_rule",
    "h0_mode",
    "replicates",
    "seeds",
    "extended",
)
_REQUIRED_KEYS = (
    "model",
    "beta_true",
    "targets",
    "alternative",
    "n_max",
    "interim_recruited",
    "prob0",
    "eff_arm_rule",
    "fut_arm_rule",
)
_MODEL_KEYS = ("response", "treatment", "arms", "family", "link", "nuisance", "covariates")
_MODEL_REQUIRED = ("response", "treatment", "arms", "family", "link")


class SpecError(ValueError):
    """One or more problems in a design document; ``errors`` lists them."""

    def __init__(self, errors):
        self.errors = [errors] if isinstance(errors, str) else list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class CovariateSpec:
    """One extra predictor: a named draw from a registered generator."""

    name: str
    generator: str
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ModelSpec:
    """Outcome model: response, treatment factor, covariates, family, link."""

    response_name: str
    treatment_name: str
    arm_names: tuple[str, ...]  # control first
    family: str
    link: str
    covariates: tuple[CovariateSpec, ...] = ()
    nuisance: Mapping[str, float] = field(default_factory=dict)

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
    eff_trial_rule: RuleSpec = RuleSpec("never", {})
    fut_trial_rule: RuleSpec = RuleSpec("never", {})
    rar_rule: RuleSpec | None = None
    allocation: str = "simple"
    h0_mode: bool = False
    seeds: tuple[int, ...] = (1,)
    extended: int = 0

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

    Optional fields take their documented defaults: delta_eff/delta_fut/
    delta_rar 0 at every look, trial rules "never", no RAR, simple
    allocation, extended 0, one replicate (seed 1).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise SpecError("design document must be a JSON object")

    errors: list[str] = []
    unknown = sorted(set(doc) - set(_TOP_KEYS))
    if unknown:
        errors.append("unknown field(s): " + ", ".join(unknown))
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        errors.append("missing required key(s): " + ", ".join(missing))
    if errors:
        raise SpecError(errors)

    model = _parse_model(doc["model"])
    beta_true = tuple(float(b) for b in _as_list(doc["beta_true"], "beta_true"))
    targets = tuple(int(t) for t in _as_list(doc["targets"], "targets"))

    alternative = doc["alternative"]
    if isinstance(alternative, str):
        alternative = [alternative] * len(targets)
    alternative = tuple(str(a) for a in _as_list(alternative, "alternative"))

    interims = tuple(
        _as_int(v, "interim_recruited")
        for v in _as_list(doc["interim_recruited"], "interim_recruited")
    )
    n_looks = len(interims) + 1

    prob0 = doc["prob0"]
    if not isinstance(prob0, dict):
        raise SpecError("prob0 must map arm names to weights")
    prob0 = {str(k): float(v) for k, v in prob0.items()}

    if "replicates" in doc and "seeds" in doc:
        raise SpecError("specify either replicates or seeds, not both")
    if "seeds" in doc:
        seeds = tuple(_as_int(s, "seeds") for s in _as_list(doc["seeds"], "seeds"))
    else:
        r = _as_int(doc.get("replicates", 1), "replicates")
        if r < 1:
            raise SpecError("replicates must be >= 1")
        seeds = tuple(range(1, r + 1))

    spec = TrialSpec(
        model=model,
        beta_true=beta_true,
        which_targets=targets,
        alternative=alternative,
        n_max=_as_int(doc["n_max"], "n_max"),
        interim_recruited=interims,
        prob0=prob0,
        eff_arm_rule=_parse_rule(doc["eff_arm_rule"], "eff_arm_rule"),
        fut_arm_rule=_parse_rule(doc["fut_arm_rule"], "fut_arm_rule"),
        eff_trial_rule=_parse_rule(doc.get("eff_trial_rule", {"family": "never"}), "eff_trial_rule"),
        fut_trial_rule=_parse_rule(doc.get("fut_trial_rule", {"family": "never"}), "fut_trial_rule"),
        rar_rule=(
            _parse_rule(doc["rar_rule"], "rar_rule")
            if doc.get("rar_rule") is not None
            else None
        ),
        delta_eff=_expand_delta(doc.get("delta_eff", 0.0), len(targets), n_looks, "delta_eff"),
        delta_fut=_expand_delta(doc.get("delta_fut", 0.0), len(targets), n_looks, "delta_fut"),
        delta_rar=_expand_delta(doc.get("delta_rar", 0.0), len(targets), n_looks, "delta_rar"),
        allocation=str(doc.get("allocation", "simple")),
        h0_mode=bool(doc.get("h0_mode", False)),
        seeds=seeds,
        extended=_as_int(doc.get("extended", 0), "extended"),
    )
    return spec


def _as_list(value, key: str) -> list:
    if not isinstance(value, list):
        raise SpecError(f"{key} must be a list")
    return value


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{key} must be an integer, got {value!r}")
    return value


def _parse_model(doc) -> ModelSpec:
    if not isinstance(doc, dict):
        raise SpecError("model must be an object")
    errors = []
    unknown = sorted(set(doc) - set(_MODEL_KEYS))
    if unknown:
        errors.append("model: unknown field(s): " + ", ".join(unknown))
    missing = [k for k in _MODEL_REQUIRED if k not in doc]
    if missing:
        errors.append("model: missing required key(s): " + ", ".join(missing))
    if errors:
        raise SpecError(errors)

    covariates = []
    for i, cov in enumerate(doc.get("covariates", [])):
        if not isinstance(cov, dict) or "name" not in cov or "generator" not in cov:
            raise SpecError(f"covariates[{i}] needs 'name' and 'generator'")
        covariates.append(
            CovariateSpec(
                name=str(cov["name"]),
                generator=str(cov["generator"]),
                params=dict(cov.get("params", {})),
            )
        )
    return ModelSpec(
        response_name=str(doc["response"]),
        treatment_name=str(doc["treatment"]),
        arm_names=tuple(str(a) for a in _as_list(doc["arms"], "model.arms")),
        family=str(doc["family"]),
        link=str(doc["link"]),
        covariates=tuple(covariates),
        nuisance={str(k): float(v) for k, v in doc.get("nuisance", {}).items()},
    )


def _parse_rule(doc, key: str) -> RuleSpec:
    kind = _RULE_KINDS[key]
    if not isinstance(doc, dict) or "family" not in doc:
        raise SpecError(f"{key} must be an object with a 'family' field")
    family = str(doc["family"])
    if family not in rules.known_families(kind):
        raise SpecError(
            f"{key}: unknown rule family {family!r}; "
            f"known: {', '.join(rules.known_families(kind))}"
        )
    params = {str(k): float(v) for k, v in doc.get("params", {}).items()}
    required = rules.required_params(kind, family)
    missing = sorted(set(required) - set(params))
    extra = sorted(set(params) - set(required))
    problems = []
    if missing:
        problems.append(f"{key}: missing parameter(s): " + ", ".join(missing))
    if extra:
        problems.append(f"{key}: unexpected parameter(s): " + ", ".join(extra))
    if problems:
        raise SpecError(problems)
    return RuleSpec(family, params)


def _expand_delta(value, n_targets: int, n_looks: int, key: str) -> DeltaMatrix:
    """Normalise a delta field to one optional value per target and look.

    Accepts a scalar (broadcast everywhere), null (disabled everywhere), a
    per-look list broadcast across targets, or a full per-target list of
    per-look lists.  A null entry disables the evaluation at that look.
    """

    def cell(v):
        if v is None:
            return None
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SpecError(f"{key}: entries must be numbers or null")
        return float(v)

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

    On success the returned spec has prob0 normalised to sum 1 and carries
    the canonical fingerprint (a hash of the design excluding its seeds).
    """
    errors: list[str] = []
    model = spec.model

    if model.family not in FAMILY_LINKS:
        errors.append(f"unknown family {model.family!r}")
    elif FAMILY_LINKS[model.family] != model.link:
        errors.append(
            f"family {model.family!r} requires link {FAMILY_LINKS[model.family]!r}, "
            f"got {model.link!r}"
        )
    if model.family == "gaussian" and not model.nuisance.get("sd", 0) > 0:
        errors.append("gaussian family requires nuisance sd > 0")
    if model.family == "nbinomial" and not model.nuisance.get("dispersion", 0) > 0:
        errors.append("nbinomial family requires nuisance dispersion > 0")

    if len(model.arm_names) < 2:
        errors.append("at least two arms (control + intervention) are required")
    if len(set(model.arm_names)) != len(model.arm_names):
        errors.append("arm names must be unique")

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
        if sum(spec.prob0.values()) <= 0:
            errors.append("prob0 weights must sum to a positive value")

    if spec.allocation not in ALLOCATION_METHODS:
        errors.append(f"allocation must be one of {ALLOCATION_METHODS}, got {spec.allocation!r}")

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
    fp = fingerprint(spec)
    return ValidatedSpec(spec=spec, fingerprint=fp)


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


def fingerprint(spec: TrialSpec) -> str:
    """Deterministic hash of the canonical design, seed set excluded."""
    doc = canonical_document(spec, include_seeds=False)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
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
