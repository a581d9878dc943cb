"""Adaptation rules evaluated at each look of an adaptive trial.

Three kinds of rules are supported, each organised as a registry of named,
parameterised families:

* arm-level efficacy / futility stopping (threshold tests on posterior
  tail probabilities),
* trial-level stopping (functions of the arm decisions so far),
* response-adaptive randomisation (RAR) weights.

Families are registered in block form, evaluating one look of a block of
replicates at once (one row per replicate, one column per arm); the scalar
entry points on a :class:`RuleContext` evaluate a block of one.  All rules
are pure functions of their inputs plus their family parameters.
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
    """Per-look quantities of one trial, handed to the scalar entry points.

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


@dataclass(frozen=True, eq=False)
class RuleBlock:
    """What the rule families read of a look of a block of replicates: the
    (replicates, arms) active flags and recruited counts, and the column
    flags of the reference arm."""

    active: np.ndarray
    n: np.ndarray
    ref: np.ndarray
    n_max: int

    def info_fractions(self) -> list[float]:
        """Per row, the fraction of the maximum sample size recruited so far."""
        return [total / self.n_max for total in self.n.sum(axis=1).tolist()]


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

_BlockFn = Callable[..., np.ndarray]

_REGISTRY: dict[str, dict[str, tuple[tuple[str, ...], _BlockFn]]] = {
    "eff_arm": {},
    "fut_arm": {},
    "rar": {},
    "eff_trial": {},
    "fut_trial": {},
}


def register_family(
    kind: str, name: str, required: tuple[str, ...], fn: _BlockFn
) -> None:
    """Register a rule family in block form; the extension point for
    library users.  ``tails`` is a (replicates, arms) matrix of tail
    probabilities, NaN where an arm is not evaluated.  ``eff_arm`` and
    ``fut_arm``: ``fn(tails, block, params)`` gives (replicates, arms) stop
    flags, ignored where ``tails`` is NaN.  ``eff_trial``, ``fut_trial``:
    ``fn(efficacy, futility, params)`` gives a stop flag per replicate from
    the (replicates, interventions) decision flags so far.  ``rar``:
    ``fn(tails, block, params)`` gives (replicates, arms) weights."""
    if kind not in _REGISTRY:
        raise RuleError(f"unknown rule kind {kind!r}")
    _REGISTRY[kind][name] = (required, fn)


# Threshold parameters lie in (0, 1) and exponents are >= 0, whichever
# family takes them.
_UNIT_INTERVAL = ("b_e", "b", "b_f")
_NONNEGATIVE = ("p", "p_f")


def check_rule(kind: str, rule: RuleSpec) -> _BlockFn:
    """The block form of a ``kind`` rule; ``RuleError`` unless the family is
    known and its parameters are exactly those it requires, each within
    range.  This is the one check of a rule, at parsing, validation and
    evaluation alike."""
    try:
        required, fn = _REGISTRY[kind][rule.family_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY[kind]))
        raise RuleError(f"unknown rule family {rule.family_id!r}; known: {known}") from None
    if rule.params.keys() != set(required):
        missing = sorted(set(required) - rule.params.keys())
        unexpected = sorted(rule.params.keys() - set(required))
        problems = []
        if missing:
            problems.append("missing parameter(s): " + ", ".join(missing))
        if unexpected:
            problems.append("unexpected parameter(s): " + ", ".join(unexpected))
        raise RuleError("; ".join(problems))
    for name in required:
        value = rule.params[name]
        if name in _UNIT_INTERVAL and not 0.0 < value < 1.0:
            raise RuleError(f"parameter {name} must lie in (0, 1), got {value}")
        if name in _NONNEGATIVE and not value >= 0.0:
            raise RuleError(f"parameter {name} must be >= 0, got {value}")
    return fn


def evaluate(kind: str, rule: RuleSpec, *inputs) -> np.ndarray:
    """The block form of the ``kind`` rule ``rule`` on ``inputs``."""
    return check_rule(kind, rule)(*inputs, rule.params)


def _block_of_one(ctx: RuleContext) -> RuleBlock:
    active, ref = np.array([ctx.active], dtype=bool), np.array(ctx.ref, dtype=bool)
    return RuleBlock(active=active, n=np.array([ctx.n]), ref=ref, n_max=ctx.n_max)


def _tails_of_one(ctx: RuleContext) -> tuple[np.ndarray, np.ndarray]:
    """``ctx.posterior`` as a one-row tail matrix, and the columns it fills."""
    columns = np.flatnonzero(np.array(ctx.active) & ~np.array(ctx.ref))
    if len(columns) != len(ctx.posterior):
        raise RuleError("posterior must hold one tail per active intervention")
    tails = np.full((1, len(ctx.active)), np.nan)
    tails[0, columns] = ctx.posterior
    return tails, columns


def row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row, the sum of ``values`` where ``mask``, with the bits numpy's
    1-D ``sum`` of those entries gives: it adds fewer than 8 terms left to
    right, as a running sum of the zero-padded row does, and more in a
    pairwise tree, so such rows are compacted and summed by numpy."""
    sums = np.where(mask, values, 0.0).cumsum(axis=1)[:, -1]
    if mask.shape[1] >= 8:
        for r in np.flatnonzero(mask.sum(axis=1) >= 8).tolist():
            sums[r] = values[r, mask[r]].sum()
    return sums


# --------------------------------------------------------------------------
# arm-level stopping
# --------------------------------------------------------------------------


def _eff_fixed(tails, block: RuleBlock, params: Mapping[str, float]) -> np.ndarray:
    # declare efficacy when the tail probability clears 1 - b_e
    return tails > 1.0 - params["b_e"]


def _eff_infofract(tails, block: RuleBlock, params: Mapping[str, float]) -> np.ndarray:
    # threshold 1 - b * (sum(n)/N)^p: strict early, relaxing to 1 - b at full
    # information
    b, p = params["b"], params["p"]
    thresholds = [1.0 - b * f**p for f in block.info_fractions()]
    return tails > np.array(thresholds)[:, None]


def _fut_fixed(tails, block: RuleBlock, params: Mapping[str, float]) -> np.ndarray:
    return tails < params["b_f"]


def _fut_increasing(tails, block: RuleBlock, params: Mapping[str, float]) -> np.ndarray:
    # boundary b_f * (sum(n)/N)^p_f rises with the information fraction and
    # equals b_f exactly at the maximum sample size
    b_f, p_f = params["b_f"], params["p_f"]
    boundaries = [b_f * f**p_f for f in block.info_fractions()]
    return tails < np.array(boundaries)[:, None]


def _arm_rule(kind: str, ctx: RuleContext, rule: RuleSpec) -> np.ndarray:
    tails, columns = _tails_of_one(ctx)
    return evaluate(kind, rule, tails, _block_of_one(ctx))[0, columns]


def efficacy_arm(ctx: RuleContext, rule: RuleSpec) -> np.ndarray:
    """Evaluate the efficacy stopping rule for every active intervention.

    Returns a boolean array aligned with ``ctx.posterior``.
    """
    return _arm_rule("eff_arm", ctx, rule)


def futility_arm(ctx: RuleContext, rule: RuleSpec) -> np.ndarray:
    """Evaluate the futility stopping rule for every active intervention."""
    return _arm_rule("fut_arm", ctx, rule)


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
    efficacy = np.array([[d.efficacy_met for d in decisions]], dtype=bool)
    futility = np.array([[d.futility_met for d in decisions]], dtype=bool)
    if evaluate("eff_trial", eff_rule, efficacy, futility)[0]:
        return "stop_efficacy"
    if evaluate("fut_trial", fut_rule, efficacy, futility)[0]:
        return "stop_futility"
    return "continue"


def _trial_never(efficacy, futility, params) -> np.ndarray:
    return np.zeros(len(efficacy), dtype=bool)


def _trial_any_efficacious(efficacy, futility, params) -> np.ndarray:
    return efficacy.any(axis=1)


def _trial_all_futile(efficacy, futility, params) -> np.ndarray:
    return futility.all(axis=1) & (futility.shape[1] > 0)


# --------------------------------------------------------------------------
# response-adaptive randomisation
# --------------------------------------------------------------------------


def _rar_trippa(tails, block: RuleBlock, params: Mapping[str, float]) -> np.ndarray:
    """Trippa-style allocation weights over the active arms.

    Control weight: exp(max_k(n_k) - n_ref)^nu / K_j with the max over the
    active interventions' recruited counts and K_j the number of active
    interventions.  Intervention weights: posterior^h normalised over the
    active interventions, with h = gamma * (sum(n)/N)^eta.
    """
    gamma, eta, nu = params["gamma"], params["eta"], params["nu"]
    interventions = block.active & ~block.ref
    k_active = interventions.sum(axis=1)
    if not k_active.all():
        raise RuleError("RAR requires at least one active intervention")

    n_ref = block.n[:, block.ref.argmax()]
    lead = np.where(interventions, block.n, -np.inf).max(axis=1) - n_ref
    exponents = np.minimum(nu * lead, _MAX_EXPONENT).tolist()
    control = [math.exp(e) / k for e, k in zip(exponents, k_active.tolist())]

    h = np.array([gamma * f**eta for f in block.info_fractions()])
    powered = tails ** h[:, None]
    total = row_sums(powered, interventions)
    if (total == 0.0).any():
        raise RuleError("all RAR posteriors are zero; weights are degenerate")
    weights = np.where(interventions, powered, 0.0) / total[:, None]
    weights[:, block.ref] = np.array(control)[:, None]
    return weights


def rar_weights(ctx: RuleContext, rule: RuleSpec) -> np.ndarray:
    """Unnormalised allocation weights for the active arms, in arm order
    (control first)."""
    tails, _ = _tails_of_one(ctx)
    block = _block_of_one(ctx)
    return evaluate("rar", rule, tails, block)[block.active]


def normalize_rows(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row, abs(w) / sum(abs(w)) over the entries in ``mask``; 0 elsewhere."""
    w = np.where(mask, np.abs(weights), 0.0)
    total = row_sums(w, mask)
    if (total == 0.0).any():
        raise RuleError("cannot normalise an all-zero weight vector")
    return w / total[:, None]


def normalize_allocation(weights) -> np.ndarray:
    """Map weights to probabilities via abs(w) / sum(abs(w))."""
    w = np.asarray(weights, dtype=float).reshape(1, -1)
    return normalize_rows(w, np.ones(w.shape, dtype=bool))[0]


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
