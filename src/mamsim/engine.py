"""Single-replicate trial execution.

``run_trial`` walks one simulated trial through its schedule: recruit the
burn-in cohort under the initial allocation, then at each look simulate the
new cohort, refit the model on all accumulated data, evaluate the arm and
trial stopping rules against the look's margins, drop decided arms from
recruitment (their data stay in the fit), update allocation probabilities
(response-adaptive or rescaled fixed weights), and finish with the final
analysis at the maximum sample size unless the trial stopped early.

Each cohort's design rows are built once, when the cohort is simulated;
every fit stacks the row blocks and responses of the cohorts so far.

The function is pure in (validated spec, seed): rerunning it reproduces the
same result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import datagen, glm, rules
from .config import ValidatedSpec
from .datagen import Cohort, substream
from .rules import ArmDecision, RuleContext

STOP_ALL_DECIDED = "all_decided"
STOP_TRIAL_EFFICACY = "trial_rule_efficacy"
STOP_TRIAL_FUTILITY = "trial_rule_futility"
STOP_REACHED_MAX = "reached_max"
_STOP_REASONS = {
    "stop_efficacy": STOP_TRIAL_EFFICACY,
    "stop_futility": STOP_TRIAL_FUTILITY,
}


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

    def to_dict(self) -> dict:
        return {
            "look_index": self.look_index,
            "is_final": self.is_final,
            "n_total": self.n_total,
            "n_per_arm": self.n_per_arm,
            "active": self.active,
            "allocation": self.allocation,
            "eff_posterior": self.eff_posterior,
            "fut_posterior": self.fut_posterior,
            "rar_posterior": self.rar_posterior,
            "estimate_mean": self.estimate_mean,
            "estimate_sd": self.estimate_sd,
            "fit_converged": self.fit_converged,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LookRecord":
        return cls(**doc)


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

    def to_dict(self) -> dict:
        doc = {
            "seed": self.seed,
            "arms": list(self.arms),
            "decisions": {
                arm: {
                    "efficacy_met": d.efficacy_met,
                    "futility_met": d.futility_met,
                    "timing": d.timing,
                    "look_index": d.look_index,
                }
                for arm, d in self.decisions.items()
            },
            "sample_sizes": self.sample_sizes,
            "total_size": self.total_size,
            "stop_reason": self.stop_reason,
            "looks_performed": self.looks_performed,
            "estimate_mean": self.estimate_mean,
            "estimate_sd": self.estimate_sd,
            "non_converged_fits": self.non_converged_fits,
        }
        if self.history is not None:
            doc["history"] = [rec.to_dict() for rec in self.history]
        if self.dataset is not None:
            doc["dataset"] = self.dataset
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TrialResult":
        return cls(
            seed=doc["seed"],
            arms=tuple(doc["arms"]),
            decisions={
                arm: ArmDecision(
                    efficacy_met=d["efficacy_met"],
                    futility_met=d["futility_met"],
                    timing=d["timing"],
                    look_index=d["look_index"],
                )
                for arm, d in doc["decisions"].items()
            },
            sample_sizes=doc["sample_sizes"],
            total_size=doc["total_size"],
            stop_reason=doc["stop_reason"],
            looks_performed=doc["looks_performed"],
            estimate_mean=doc["estimate_mean"],
            estimate_sd=doc["estimate_sd"],
            non_converged_fits=doc["non_converged_fits"],
            history=[LookRecord.from_dict(r) for r in doc["history"]]
            if "history" in doc
            else None,
            dataset=doc.get("dataset"),
        )


def cohort_sizes(spec) -> list[int]:
    """Recruitment increments implied by the interim schedule plus final."""
    sizes = [spec.interim_recruited[0]]
    sizes += [
        b - a
        for a, b in zip(spec.interim_recruited, spec.interim_recruited[1:])
    ]
    sizes.append(spec.n_max - spec.interim_recruited[-1])
    return sizes


def run_trial(validated: ValidatedSpec, seed: int) -> TrialResult:
    """Simulate one trial replicate under the validated design.

    Per-arm state lives in arrays indexed by arm position, control first.
    Target ``t`` is the coefficient of arm ``t``, so the same index serves
    the targets. Tail probabilities are NaN for arms a look does not
    evaluate; arrays become arm-name dicts only in the returned records.
    """
    spec = validated.spec
    model = spec.model
    arms = model.arm_names
    n_arms = len(arms)
    targets = list(spec.which_targets)
    direction = dict(zip(targets, spec.alternative))
    delta_eff = _arm_deltas(spec.delta_eff, targets, n_arms)
    delta_fut = _arm_deltas(spec.delta_fut, targets, n_arms)
    delta_rar = _arm_deltas(spec.delta_rar, targets, n_arms)
    no_tails = np.full(n_arms, np.nan)

    prob0 = np.array([spec.prob0[a] for a in arms])
    active = np.ones(n_arms, dtype=bool)
    n_per_arm = np.zeros(n_arms, dtype=int)
    allocation = prob0
    # one entry per arm; the control's stays undecided
    decisions = [ArmDecision() for _ in arms]
    est_mean = np.full(n_arms, np.nan)
    est_sd = np.full(n_arms, np.nan)

    cohorts: list[Cohort] = []
    x_blocks: list[np.ndarray] = []  # design rows of each cohort
    history: list[LookRecord] | None = [] if spec.extended >= 1 else None
    non_converged = 0
    stop_reason = STOP_REACHED_MAX
    sizes = cohort_sizes(spec)

    for j, m in enumerate(sizes):
        is_final = j == len(sizes) - 1

        def context(tails):
            """Rule inputs at this look, with the active arms' tails in arm order."""
            return RuleContext(
                active=tuple(active.tolist()),
                posterior=tuple(tails[active & ~np.isnan(tails)].tolist()),
                n=tuple(n_per_arm.tolist()),
                ref=(True,) + (False,) * (n_arms - 1),
                prob=tuple(allocation[active].tolist()),
                m=m,
                n_max=spec.n_max,
                look_index=j,
                is_final=is_final,
            )

        # --- recruit and simulate the new cohort
        weights = {arms[i]: allocation[i] for i in np.flatnonzero(active)}
        labels = datagen.allocate_arms(
            m, weights, spec.allocation, substream(seed, "look", j, "alloc")
        )
        covs = {}
        if model.covariates:
            covs = datagen.simulate_covariates(
                model.covariates, m, substream(seed, "look", j, "covariates")
            )
        x_cohort = glm.design_values(labels, covs, model)
        eta = x_cohort @ np.asarray(spec.beta_true)
        y = datagen.simulate_response(
            eta, model.family, model.link, model.nuisance,
            substream(seed, "look", j, "response"),
        )
        cohorts.append(Cohort(arm=labels, covariates=covs, response=y))
        x_blocks.append(x_cohort)
        n_per_arm += [np.count_nonzero(labels == arm) for arm in arms]

        # --- fit on all accumulated data
        fit = glm.fit_laplace(
            np.concatenate(x_blocks), np.concatenate([c.response for c in cohorts]),
            model.family, model.link, model.nuisance,
        )

        verdict = "continue"
        p_eff = p_fut = p_rar = look_mean = look_sd = no_tails

        if fit.converged:
            look_mean = fit.marginal_mean[:n_arms]
            look_sd = fit.marginal_sd[:n_arms]

            def tail_probs(deltas):
                probs = np.full(n_arms, np.nan)
                for t in np.flatnonzero(active & ~np.isnan(deltas)).tolist():
                    probs[t] = glm.marginal_posterior_prob(
                        fit, t, float(deltas[t]), direction[t]
                    )
                return probs

            def arm_flags(rule, tails, rule_spec):
                flags = np.zeros(n_arms, dtype=bool)
                evaluated = ~np.isnan(tails)
                if evaluated.any():
                    flags[evaluated] = rule(context(tails), rule_spec)
                return flags

            p_eff = tail_probs(delta_eff[:, j])
            p_fut = tail_probs(delta_fut[:, j])
            if spec.rar_rule is not None:
                p_rar = tail_probs(delta_rar[:, j])

            hit_eff = arm_flags(rules.efficacy_arm, p_eff, spec.eff_arm_rule)
            hit_fut = arm_flags(rules.futility_arm, p_fut, spec.fut_arm_rule)
            decided = hit_eff | hit_fut
            for t in np.flatnonzero(decided).tolist():
                decisions[t] = ArmDecision(
                    efficacy_met=bool(hit_eff[t]),
                    futility_met=bool(hit_fut[t]),
                    timing="last" if is_final else "early",
                    look_index=j,
                )
            # decided arms keep the estimate of their decision look, the
            # others that of the last converged fit
            est_mean[active] = look_mean[active]
            est_sd[active] = look_sd[active]
            active &= ~decided

            verdict = rules.trial_stop(
                decisions[1:], context(no_tails), spec.eff_trial_rule,
                spec.fut_trial_rule,
            )
        else:
            non_converged += 1

        if history is not None:
            history.append(
                LookRecord(
                    look_index=j,
                    is_final=is_final,
                    n_total=int(n_per_arm.sum()),
                    n_per_arm=dict(zip(arms, n_per_arm.tolist())),
                    active=dict(zip(arms, active.tolist())),
                    allocation=dict(zip(arms, allocation.tolist())),
                    eff_posterior=_by_arm(arms, p_eff, range(1, n_arms)),
                    fut_posterior=_by_arm(arms, p_fut, range(1, n_arms)),
                    rar_posterior=_by_arm(arms, p_rar, range(1, n_arms)),
                    estimate_mean=_by_arm(arms, look_mean, targets),
                    estimate_sd=_by_arm(arms, look_sd, targets),
                    fit_converged=fit.converged,
                )
            )

        if not is_final and (verdict != "continue" or not active[1:].any()):
            stop_reason = _STOP_REASONS.get(verdict, STOP_ALL_DECIDED)
            break

        # --- allocation for the next cohort
        if not is_final:
            if spec.rar_rule is None:
                allocation = _rescale(prob0, active)
            elif not np.isnan(p_rar[active][1:]).any():
                # every recruiting intervention has a tail at this look
                rar_w = rules.rar_weights(context(p_rar), spec.rar_rule)
                allocation = np.zeros(n_arms)
                allocation[active] = rules.normalize_allocation(rar_w)
            else:
                # non-converged fit or margin disabled at this look: keep the
                # current allocation, restricted to the arms still recruiting
                allocation = _rescale(allocation, active)

    dataset = None
    if spec.extended >= 2:
        data = Cohort.concat(cohorts)
        dataset = {
            "arm": data.arm.tolist(),
            "covariates": {k: v.tolist() for k, v in data.covariates.items()},
            "response": data.response.tolist(),
        }

    return TrialResult(
        seed=seed,
        arms=model.interventions,
        decisions=dict(zip(model.interventions, decisions[1:])),
        sample_sizes=dict(zip(arms, n_per_arm.tolist())),
        total_size=int(n_per_arm.sum()),
        stop_reason=stop_reason,
        looks_performed=j + 1,
        estimate_mean=_by_arm(arms, est_mean, targets),
        estimate_sd=_by_arm(arms, est_sd, targets),
        non_converged_fits=non_converged,
        history=history,
        dataset=dataset,
    )


def _arm_deltas(matrix, targets, n_arms: int) -> np.ndarray:
    """Per-target delta rows placed at their arms' rows; NaN where disabled."""
    deltas = np.full((n_arms, len(matrix[0])), np.nan)
    deltas[targets] = np.array(matrix, dtype=float)
    return deltas


def _by_arm(arms, values, index) -> dict[str, float | None]:
    """Arm-name dict of ``values`` at the arm positions in ``index``."""
    return {
        arms[i]: None if np.isnan(values[i]) else float(values[i])
        for i in index
    }


def _rescale(weights: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Restrict weights to active arms and renormalise; dropped arms get 0."""
    live = np.where(active, np.abs(weights), 0.0)
    # left-to-right sum: numpy's pairwise sum can round differently
    total = sum(live.tolist())
    if total == 0.0:
        # every remaining arm carried zero weight; fall back to equal shares
        return active / np.count_nonzero(active)
    return live / total
