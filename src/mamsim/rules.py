"""Adaptation rules evaluated at each look of an adaptive trial.

Three kinds of rules are supported, each organised as a registry of named,
parameterised families:

* arm-level efficacy / futility stopping (threshold tests on posterior
  tail probabilities),
* trial-level stopping (functions of the arm decisions so far),
* response-adaptive randomisation (RAR) weights.

All rules are pure functions of a :class:`RuleContext` plus their family
parameters, so re-evaluation is idempotent and safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

# exp() arguments are clamped here to keep RAR weights finite; the weights
# are normalised downstream so the clamp only matters in degenerate designs
_MAX_EXPONENT = 500.0


class RuleError(ValueError):
    """Invalid rule family, parameters, or degenerate rule inputs."""


@dataclass(frozen=True)
class RuleSpec:
    """A named rule family plus its parameter values."""

    family_id: str
    params: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class RuleContext:
    """Per-look quantities handed to every adaptation rule.

    Vectors indexed per arm follow the design's arm order (control first).
    ``posterior`` is indexed per *active intervention* only, in arm order,
    and holds tail probabilities oriented along each target's alternative
    and margined by the delta relevant to the rule being evaluated.
    """

    active: tuple[bool, ...]
    posterior: tuple[float, ...]
    n: tuple[int, ...]
    ref: tuple[bool, ...]
    prob: tuple[float, ...]
    m: int
    n_max: int
    look_index: int
    is_final: bool

    def __post_init__(self) -> None:
        if sum(self.ref) != 1:
            raise RuleError("exactly one arm must be flagged as reference")
        ref_idx = self.ref.index(True)
        if not self.active[ref_idx]:
            raise RuleError("the reference arm can never be inactive")
        if any(p < 0.0 or p > 1.0 for p in self.posterior):
            raise RuleError("posterior probabilities must lie in [0, 1]")
        if sum(self.n) > self.n_max:
            raise RuleError("recruited counts exceed the maximum sample size")

    @property
    def info_fraction(self) -> float:
        """Fraction of the maximum sample size recruited so far."""
        return sum(self.n) / self.n_max

    @property
    def n_active_interventions(self) -> int:
        return sum(
            a and not r for a, r in zip(self.active, self.ref)
        )


@dataclass
class ArmDecision:
    """Stopping flags for one intervention arm.

    Both flags may be true simultaneously; that pathological combination is
    preserved for diagnostics rather than resolved by precedence.
    ``timing`` is "early" when the decision fell at an interim look, "last"
    at the final analysis, "none" while undecided.
    """

    efficacy_met: bool = False
    futility_met: bool = False
    timing: str = "none"
    look_index: int | None = None

    @property
    def decided(self) -> bool:
        return self.efficacy_met or self.futility_met

    @property
    def decision(self) -> str:
        if self.efficacy_met and self.futility_met:
            return "both"
        if self.efficacy_met:
            return "efficacy"
        if self.futility_met:
            return "futility"
        return "none"


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_EvalFn = Callable[[RuleContext, Mapping[str, float]], object]

_REGISTRY: dict[str, dict[str, tuple[tuple[str, ...], _EvalFn]]] = {
    "eff_arm": {},
    "fut_arm": {},
    "rar": {},
    "eff_trial": {},
    "fut_trial": {},
}


def register_family(
    kind: str, name: str, required: tuple[str, ...], fn: _EvalFn
) -> None:
    """Register a rule family; the extension point for library users."""
    if kind not in _REGISTRY:
        raise RuleError(f"unknown rule kind {kind!r}")
    _REGISTRY[kind][name] = (required, fn)


def known_families(kind: str) -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY[kind]))


def required_params(kind: str, name: str) -> tuple[str, ...]:
    try:
        return _REGISTRY[kind][name][0]
    except KeyError:
        raise RuleError(f"unknown {kind} rule family {name!r}") from None


# Threshold parameters lie in (0, 1) and exponents are >= 0, whichever
# family takes them.
_UNIT_INTERVAL = ("b_e", "b", "b_f")
_NONNEGATIVE = ("p", "p_f")


def check_rule(kind: str, rule: RuleSpec) -> _EvalFn:
    """The evaluator of a ``kind`` rule; ``RuleError`` unless the family is
    known and every parameter it requires is given and within range."""
    try:
        required, fn = _REGISTRY[kind][rule.family_id]
    except KeyError:
        raise RuleError(
            f"unknown {kind} rule family {rule.family_id!r}; "
            f"known: {', '.join(known_families(kind))}"
        ) from None
    missing = [k for k in required if k not in rule.params]
    if missing:
        raise RuleError(
            f"{kind} rule {rule.family_id!r} missing parameter(s): "
            + ", ".join(missing)
        )
    for name in required:
        value = rule.params[name]
        if name in _UNIT_INTERVAL and not 0.0 < value < 1.0:
            raise RuleError(f"parameter {name} must lie in (0, 1), got {value}")
        if name in _NONNEGATIVE and not value >= 0.0:
            raise RuleError(f"parameter {name} must be >= 0, got {value}")
    return fn


# --------------------------------------------------------------------------
# arm-level stopping
# --------------------------------------------------------------------------


def _eff_fixed(ctx: RuleContext, params: Mapping[str, float]) -> np.ndarray:
    # declare efficacy when the tail probability clears 1 - b_e
    return np.asarray(ctx.posterior) > 1.0 - params["b_e"]


def _eff_infofract(ctx: RuleContext, params: Mapping[str, float]) -> np.ndarray:
    # threshold 1 - b * (sum(n)/N)^p: strict early, relaxing to 1 - b at full
    # information
    threshold = 1.0 - params["b"] * ctx.info_fraction ** params["p"]
    return np.asarray(ctx.posterior) > threshold


def _fut_fixed(ctx: RuleContext, params: Mapping[str, float]) -> np.ndarray:
    return np.asarray(ctx.posterior) < params["b_f"]


def _fut_increasing(ctx: RuleContext, params: Mapping[str, float]) -> np.ndarray:
    # boundary b_f * (sum(n)/N)^p_f rises with the information fraction and
    # equals b_f exactly at the maximum sample size
    boundary = params["b_f"] * ctx.info_fraction ** params["p_f"]
    return np.asarray(ctx.posterior) < boundary


def efficacy_arm(ctx: RuleContext, rule: RuleSpec) -> np.ndarray:
    """Evaluate the efficacy stopping rule for every active intervention.

    Returns a boolean array aligned with ``ctx.posterior``.
    """
    return check_rule("eff_arm", rule)(ctx, rule.params)


def futility_arm(ctx: RuleContext, rule: RuleSpec) -> np.ndarray:
    """Evaluate the futility stopping rule for every active intervention."""
    return check_rule("fut_arm", rule)(ctx, rule.params)


# --------------------------------------------------------------------------
# trial-level stopping
# --------------------------------------------------------------------------


def trial_stop(
    decisions: Iterable[ArmDecision],
    ctx: RuleContext,
    eff_rule: RuleSpec,
    fut_rule: RuleSpec,
) -> str:
    """Combine arm decisions so far into a trial-level verdict.

    Returns one of ``continue``, ``stop_efficacy``, ``stop_futility``.  The
    efficacy rule is consulted first.  Independently of the families chosen
    here, the engine terminates once every intervention arm is inactive.
    """
    decisions = list(decisions)
    if check_rule("eff_trial", eff_rule)(ctx, eff_rule.params)(decisions):
        return "stop_efficacy"
    if check_rule("fut_trial", fut_rule)(ctx, fut_rule.params)(decisions):
        return "stop_futility"
    return "continue"


def _trial_never(ctx: RuleContext, params: Mapping[str, float]):
    return lambda decisions: False


def _trial_any_efficacious(ctx: RuleContext, params: Mapping[str, float]):
    return lambda decisions: any(d.efficacy_met for d in decisions)


def _trial_all_futile(ctx: RuleContext, params: Mapping[str, float]):
    return lambda decisions: bool(decisions) and all(
        d.futility_met for d in decisions
    )


# --------------------------------------------------------------------------
# response-adaptive randomisation
# --------------------------------------------------------------------------


def _rar_trippa(ctx: RuleContext, params: Mapping[str, float]) -> np.ndarray:
    """Trippa-style allocation weights over the active arms.

    Control weight: exp(max_k(n_k) - n_ref)^nu / K_j with the max over the
    active interventions' recruited counts and K_j the number of active
    interventions.  Intervention weights: posterior^h normalised over the
    active interventions, with h = gamma * (sum(n)/N)^eta.
    """
    gamma, eta, nu = params["gamma"], params["eta"], params["nu"]
    k_active = ctx.n_active_interventions
    if k_active < 1:
        raise RuleError("RAR requires at least one active intervention")

    n = np.asarray(ctx.n, dtype=float)
    ref_idx = ctx.ref.index(True)
    active_int = [
        i for i, (a, r) in enumerate(zip(ctx.active, ctx.ref)) if a and not r
    ]
    exponent = min(nu * (max(n[active_int]) - n[ref_idx]), _MAX_EXPONENT)
    control_weight = math.exp(exponent) / k_active

    h = gamma * ctx.info_fraction**eta
    posterior = np.asarray(ctx.posterior, dtype=float)
    powered = posterior**h
    total = powered.sum()
    if total == 0.0:
        raise RuleError("all RAR posteriors are zero; weights are degenerate")
    return np.concatenate([[control_weight], powered / total])


def rar_weights(ctx: RuleContext, rule: RuleSpec) -> np.ndarray:
    """Unnormalised allocation weights for the active arms, control first."""
    return check_rule("rar", rule)(ctx, rule.params)


def normalize_allocation(weights) -> np.ndarray:
    """Map weights to probabilities via abs(w) / sum(abs(w))."""
    w = np.abs(np.asarray(weights, dtype=float))
    total = w.sum()
    if total == 0.0:
        raise RuleError("cannot normalise an all-zero weight vector")
    return w / total


def delta_from_orr(pi0: float, lift: float) -> float:
    """Log-odds-ratio margin for an absolute response-rate improvement.

    ``pi0`` is the control response proportion and ``lift`` the absolute
    improvement deemed clinically important.
    """
    pi1 = pi0 + lift
    if not (0.0 < pi0 < 1.0 and 0.0 < pi1 < 1.0):
        raise RuleError(
            f"proportions must lie in (0, 1): control {pi0}, improved {pi1}"
        )
    return math.log((pi1 / (1.0 - pi1)) / (pi0 / (1.0 - pi0)))


register_family("eff_arm", "fixed", ("b_e",), _eff_fixed)
register_family("eff_arm", "infofract", ("b", "p"), _eff_infofract)
register_family("fut_arm", "fixed", ("b_f",), _fut_fixed)
register_family("fut_arm", "increasing", ("b_f", "p_f"), _fut_increasing)
register_family("rar", "trippa", ("gamma", "eta", "nu"), _rar_trippa)
register_family("eff_trial", "never", (), _trial_never)
register_family("eff_trial", "any_arm_efficacious", (), _trial_any_efficacious)
register_family("fut_trial", "never", (), _trial_never)
register_family("fut_trial", "all_arms_futile", (), _trial_all_futile)
