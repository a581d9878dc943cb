"""Adaptation rules evaluated at each look of an adaptive trial.

Three kinds of rules are supported, each organised as a registry of named,
parameterised families:

* arm-level efficacy / futility stopping (threshold tests on posterior
  tail probabilities),
* trial-level stopping (functions of the arm decisions so far),
* response-adaptive randomisation (RAR) weights.

Families are registered in block form, evaluating one look of a block of
replicates at once (one row per replicate, one column per arm); the
one-trial entry points of :mod:`mamsim.reference` evaluate a block of one.
All rules are pure functions of their inputs plus their family parameters.

The block families import numpy where they run, not this module: design
parsing checks rules here, and it loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

if TYPE_CHECKING:
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

_BlockFn = Callable[..., "np.ndarray"]

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


def row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row, the sum of ``values`` where ``mask``, with the bits numpy's
    1-D ``sum`` of those entries gives: it adds fewer than 8 terms left to
    right, as a running sum of the zero-padded row does, and more in a
    pairwise tree, so such rows are compacted and summed by numpy."""
    import numpy as np

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
    import numpy as np

    b, p = params["b"], params["p"]
    thresholds = [1.0 - b * f**p for f in block.info_fractions()]
    return tails > np.array(thresholds)[:, None]


def _fut_fixed(tails, block: RuleBlock, params: Mapping[str, float]) -> np.ndarray:
    return tails < params["b_f"]


def _fut_increasing(tails, block: RuleBlock, params: Mapping[str, float]) -> np.ndarray:
    # boundary b_f * (sum(n)/N)^p_f rises with the information fraction and
    # equals b_f exactly at the maximum sample size
    import numpy as np

    b_f, p_f = params["b_f"], params["p_f"]
    boundaries = [b_f * f**p_f for f in block.info_fractions()]
    return tails < np.array(boundaries)[:, None]


# --------------------------------------------------------------------------
# trial-level stopping
# --------------------------------------------------------------------------


def _trial_never(efficacy, futility, params) -> np.ndarray:
    import numpy as np

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
    import numpy as np

    gamma, eta, nu = params["gamma"], params["eta"], params["nu"]
    interventions = block.active & ~block.ref
    k_active = interventions.sum(axis=1)
    if not k_active.all():
        raise RuleError("RAR requires at least one active intervention")

    n_ref = block.n[:, block.ref.argmax()]
    lead = np.where(interventions, block.n, -np.inf).max(axis=1) - n_ref
    exponents = np.minimum(nu * lead, _MAX_EXPONENT).tolist()
    control = [math.exp(e) / k for e, k in zip(exponents, k_active.tolist())]

    try:
        h = np.array([gamma * f**eta for f in block.info_fractions()])
    except OverflowError:
        raise RuleError(
            f"RAR power gamma * (n/N)**eta overflows: gamma {gamma}, eta {eta}"
        ) from None
    powered = tails ** h[:, None]
    total = row_sums(powered, interventions)
    if (total == 0.0).any():
        raise RuleError("all RAR posteriors are zero; weights are degenerate")
    weights = np.where(interventions, powered, 0.0) / total[:, None]
    weights[:, block.ref] = np.array(control)[:, None]
    return weights


def normalize_rows(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row, abs(w) / sum(abs(w)) over the entries in ``mask``; 0 elsewhere."""
    import numpy as np

    w = np.where(mask, np.abs(weights), 0.0)
    total = row_sums(w, mask)
    if (total == 0.0).any():
        raise RuleError("cannot normalise an all-zero weight vector")
    return w / total[:, None]


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


# Tracing-only binding, like ``glm``'s: benchmark/tracing.py looks these
# reference names up on ``rules``.  It goes when the benchmark hooks what
# runs and names ``mamsim.reference`` instead.
_REFERENCE_NAMES = ("efficacy_arm", "futility_arm", "trial_stop", "rar_weights", "normalize_allocation")


def __getattr__(name):
    if name in _REFERENCE_NAMES:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
