"""Trial execution in lockstep blocks of replicates.

``run_block`` walks a block of simulated trials through the schedule
together, look by look.  Each replicate recruits the burn-in cohort under
the initial allocation; then, at each look, every replicate still running
simulates its new cohort, the block refits the model on each replicate's
accumulated data in one batched Newton solve
(:func:`mamsim.glm.fit_laplace_batch`), and each replicate evaluates the
arm and trial stopping rules against the look's margins, drops decided
arms from recruitment (their data stay in the fit), and updates its
allocation probabilities (response-adaptive or rescaled fixed weights).  A
replicate leaves the block when it stops; the others go on to the final
analysis at the maximum sample size.

Arm-only models are fitted on per-arm sufficient statistics (subjects and
response sums per arm, kept up to date with ``np.bincount`` of each
cohort's arm codes); models with covariates on per-subject rows.

Per-seed contract: a replicate draws only from its own Philox substreams,
keyed by (seed, look, purpose), and every batched step acts on each
replicate's own row or slice.  (A block derives its replicates' stream keys
in one pass, :func:`mamsim.datagen.stream_keys`, and restarts one generator
at each key in turn: the draws of :func:`mamsim.datagen.substream`.)  A
replicate's result is therefore a pure function of (validated spec, seed),
bit for bit: it does not depend on the size, membership or order of its
block, nor on how many workers share the seeds.  ``run_trial`` is a block
of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from . import datagen, glm, rules
from .config import ValidatedSpec
from .datagen import Cohort
# not called here: the engine draws from stream keys, which give the same
# streams; kept bound because benchmark/tracing.py wraps ``engine.substream``
from .datagen import substream  # noqa: F401
from .rules import ArmDecision, RuleContext

STOP_ALL_DECIDED = "all_decided"
STOP_TRIAL_EFFICACY = "trial_rule_efficacy"
STOP_TRIAL_FUTILITY = "trial_rule_futility"
STOP_REACHED_MAX = "reached_max"
_STOP_REASONS = {
    "stop_efficacy": STOP_TRIAL_EFFICACY,
    "stop_futility": STOP_TRIAL_FUTILITY,
}
# Replicates per lockstep block.  Throughput is flat from about 128 to 1024
# replicates per block, while each replicate adds a few kB of block state, so
# the cap bounds the memory of large chunks of seeds.
BLOCK_SIZE = 256
# Models with covariates stack every replicate's n_max x p design rows at
# each look; their blocks are cut so that those rows fit in this many bytes.
BLOCK_BYTES = 1 << 19


# The v1 record format, defined once: a ``TrialResult``, ``LookRecord`` or
# ``ArmDecision`` is the JSON object of its dataclass fields, except that an
# unset (None) ``history`` or ``dataset`` is left out.  ``encode`` writes it,
# ``TrialResult.from_dict`` reads it back and fills in no defaults.
OMITTED_WHEN_UNSET = frozenset({"history", "dataset"})


class RecordError(ValueError):
    """A document that is not a v1 record."""


class _Record:
    """``to_dict`` and ``from_dict`` of a record dataclass, by the codec."""

    def to_dict(self) -> dict:
        return json.loads(encode(self))

    @classmethod
    def from_dict(cls, doc):
        return _build(cls, doc)


@dataclass
class LookRecord(_Record):
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
class TrialResult(_Record):
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

    @classmethod
    def from_dict(cls, doc) -> "TrialResult":
        """``RecordError`` unless every object in ``doc`` has exactly its
        fields and ``decisions`` is keyed by exactly ``arms``."""
        result = _build(cls, doc)
        arms, decisions, history = result.arms, result.decisions, result.history
        if not (isinstance(arms, list) and all(isinstance(arm, str) for arm in arms)
                and isinstance(decisions, dict) and decisions.keys() == set(arms)):
            raise RecordError("decisions are not keyed by exactly the arms")
        if not isinstance(history, (list, type(None))):
            raise RecordError("history is not a list")
        result.arms = tuple(arms)
        result.decisions = {arm: _build(ArmDecision, d) for arm, d in decisions.items()}
        if history is not None:
            result.history = [_build(LookRecord, look) for look in history]
        return result


_FIELDS = {
    cls: frozenset(f.name for f in fields(cls)) for cls in (TrialResult, LookRecord, ArmDecision)
}


def _fields(record) -> dict:
    """The JSON object of a record dataclass (the encoder's ``default``),
    from its instance dict, which holds exactly its fields."""
    if type(record) not in _FIELDS:
        raise TypeError(f"Object of type {type(record).__name__} is not JSON serializable")
    doc = vars(record)
    unset = [name for name in OMITTED_WHEN_UNSET if doc.get(name, 0) is None]
    return {k: v for k, v in doc.items() if k not in unset} if unset else doc


def _build(cls, doc):
    """``cls`` from a JSON object holding exactly its fields."""
    if not isinstance(doc, dict):
        raise RecordError(f"{cls.__name__} is not a JSON object")
    names = _FIELDS[cls]
    if doc.keys() != names:
        missing = names - OMITTED_WHEN_UNSET - doc.keys()
        if missing:
            raise RecordError(f"{cls.__name__} without {', '.join(sorted(missing))}")
        extra = doc.keys() - names
        if extra:
            raise RecordError(f"{cls.__name__} with unexpected {', '.join(sorted(extra))}")
    return cls(**doc)


def encode(doc) -> bytes:
    """Canonical JSON bytes (sorted keys, no spaces) of records and headers."""
    return json.dumps(
        doc, default=_fields, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


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
    """Simulate one trial replicate: a lockstep block of one."""
    return run_block(validated, [seed])[0]


def run_block(validated: ValidatedSpec, seeds) -> list[TrialResult]:
    """Simulate one trial replicate per seed, in lockstep blocks of at most
    ``BLOCK_SIZE`` replicates (fewer for models with covariates, see
    ``BLOCK_BYTES``); results come back in the order of ``seeds``."""
    design = _Design(validated.spec)
    seeds = list(seeds)
    size = design.block_size()
    results: list[TrialResult] = []
    for start in range(0, len(seeds), size):
        block = seeds[start : start + size]
        keys = datagen.stream_keys(block, design.paths).reshape(
            len(block), len(design.sizes), len(design.purposes), 2
        )
        trials = [_Trial(design, seed, key) for seed, key in zip(block, keys)]
        live = trials
        for j, m in enumerate(design.sizes):
            for trial in live:
                trial.recruit(j, m)
            for trial, *look in zip(live, *design.analyse(live, j)):
                trial.decide(j, m, *look)
            live = [trial for trial in live if not trial.stopped]
            if not live:
                break
        results += [trial.result() for trial in trials]
    return results


class _Design:
    """What every replicate of a design shares: arm-indexed margins (NaN
    where a look has none), allocation, schedule and the batched analysis.

    Target ``t`` is the coefficient of arm ``t``, so the arm index serves the
    targets too.
    """

    def __init__(self, spec) -> None:
        model = spec.model
        self.spec, self.model = spec, model
        self.arms = model.arm_names
        n_arms = len(self.arms)
        self.names = np.array(self.arms, dtype=object)
        self.targets = list(spec.which_targets)
        self.greater = np.zeros(n_arms, dtype=bool)
        self.greater[self.targets] = [a == "greater" for a in spec.alternative]
        self.delta_eff = _arm_deltas(spec.delta_eff, self.targets, n_arms)
        self.delta_fut = _arm_deltas(spec.delta_fut, self.targets, n_arms)
        self.delta_rar = _arm_deltas(spec.delta_rar, self.targets, n_arms)
        self.no_tails = np.full(n_arms, np.nan)
        self.ref = (True,) + (False,) * (n_arms - 1)
        self.prob0 = np.array([spec.prob0[a] for a in self.arms])
        self.sizes = cohort_sizes(spec)
        self.recruited = np.cumsum(self.sizes).tolist()
        self.beta_true = np.asarray(spec.beta_true, dtype=float)
        # an arm's linear predictor in an arm-only model: beta_0 + beta_arm,
        # the value of its indicator row times beta_true
        self.arm_eta = self.beta_true[:n_arms].copy()
        self.arm_eta[1:] += self.beta_true[0]
        self.gaussian = model.family == "gaussian"
        # a replicate's streams, look by look: the k-th purpose of look j is
        # substream(seed, *paths[j * len(purposes) + k])
        self.purposes = ("alloc", "response")
        if model.covariates:
            self.purposes = ("alloc", "covariates", "response")
        self.paths = [("look", j, k) for j in range(len(self.sizes)) for k in self.purposes]
        self.rng = np.random.Generator(np.random.Philox(0))  # re-keyed per stream
        if not model.covariates:
            # every cohort's response means, checked once for all arms
            self.arm_mu = datagen.response_means(
                self.arm_eta, model.family, model.link, model.nuisance
            )

    def block_size(self) -> int:
        """Replicates per block: ``BLOCK_SIZE``, or fewer so that a covariate
        model's stacked design rows stay within ``BLOCK_BYTES``."""
        if not self.model.covariates:
            return BLOCK_SIZE
        row_bytes = self.spec.n_max * len(self.beta_true) * 8
        return max(1, min(BLOCK_SIZE, BLOCK_BYTES // row_bytes))

    def fit_data(self, live, j):
        """The live replicates' data at look ``j``, all of the same size."""
        if self.model.covariates:
            n = self.recruited[j]
            return glm.SubjectRows(
                np.stack([t.x[:n] for t in live]), np.stack([t.y[:n] for t in live])
            )
        return glm.ArmTotals(
            np.stack([t.n_per_arm for t in live]),
            np.stack([t.total for t in live]),
            np.stack([t.square for t in live]) if self.gaussian else None,
        )

    def analyse(self, live, j):
        """One batched fit of the live replicates at look ``j``: per replicate
        the converged flag, arm estimates and sds, and the efficacy,
        futility and RAR tail probabilities of its active arms."""
        model = self.model
        fit = glm.fit_laplace_batch(self.fit_data(live, j), model.family, model.nuisance)
        n_arms = len(self.arms)
        mean, sd = fit.mode[:, :n_arms], fit.marginal_sd[:, :n_arms]
        evaluated = np.stack([t.active for t in live]) & fit.converged[:, None]

        def tails(deltas):
            delta = deltas[:, j]
            probs = glm.tail_probabilities(mean, sd, delta, self.greater)
            return np.where(evaluated & ~np.isnan(delta), probs, np.nan)

        p_rar = np.full(mean.shape, np.nan)
        if self.spec.rar_rule is not None:
            p_rar = tails(self.delta_rar)
        return (
            fit.converged.tolist(), mean, sd,
            tails(self.delta_eff), tails(self.delta_fut), p_rar,
        )


class _Trial:
    """One replicate's state, per arm in arrays indexed by arm position,
    control first; arrays become arm-name dicts only in the records."""

    def __init__(self, design: _Design, seed: int, keys: np.ndarray) -> None:
        spec = design.spec
        n_arms = len(design.arms)
        self.design, self.seed = design, seed
        self.keys = keys  # (look, purpose, 2) Philox keys
        self.active = np.ones(n_arms, dtype=bool)
        self.n_per_arm = np.zeros(n_arms, dtype=int)
        self.total = np.zeros(n_arms)  # response sums per arm
        self.square = np.zeros(n_arms)  # squared-response sums (gaussian)
        self.allocation = design.prob0
        # one entry per arm; the control's stays undecided
        self.decisions = [ArmDecision() for _ in range(n_arms)]
        self.est_mean = np.full(n_arms, np.nan)
        self.est_sd = np.full(n_arms, np.nan)
        self.history: list[LookRecord] | None = [] if spec.extended >= 1 else None
        self.cohorts: list[Cohort] | None = [] if spec.extended >= 2 else None
        if design.model.covariates:  # per-subject design rows and responses
            self.x = np.empty((spec.n_max, len(design.beta_true)))
            self.y = np.empty(spec.n_max)
        self.non_converged = 0
        self.stop_reason = STOP_REACHED_MAX
        self.looks = 0
        self.stopped = False

    def stream(self, j: int, purpose: str) -> np.random.Generator:
        """The design's generator, restarted at this replicate's stream
        ``substream(seed, "look", j, purpose)``."""
        d = self.design
        return datagen.rekey(d.rng, self.keys[j, d.purposes.index(purpose)])

    def recruit(self, j: int, m: int) -> None:
        """Simulate look ``j``'s cohort of ``m`` subjects."""
        d = self.design
        model = d.model
        recruiting = np.flatnonzero(self.active)
        codes = recruiting[datagen.allocate_codes(
            m, self.allocation[recruiting], d.spec.allocation, self.stream(j, "alloc"),
        )]
        covs = {}
        if model.covariates:
            covs = datagen.simulate_covariates(
                model.covariates, m, self.stream(j, "covariates")
            )
            x_cohort = glm.design_values(d.names[codes], covs, model)
            y = datagen.simulate_response(
                x_cohort @ d.beta_true, model.family, model.link, model.nuisance,
                self.stream(j, "response"),
            )
        else:
            y = datagen.draw_response(
                d.arm_mu[codes], model.family, model.nuisance, self.stream(j, "response")
            )
        if model.covariates:
            start = d.recruited[j] - m
            self.x[start : start + m] = x_cohort
            self.y[start : start + m] = y
        n_arms = len(d.arms)
        self.n_per_arm += np.bincount(codes, minlength=n_arms)
        self.total += np.bincount(codes, weights=y, minlength=n_arms)
        if d.gaussian:
            self.square += np.bincount(codes, weights=y * y, minlength=n_arms)
        if self.cohorts is not None:
            self.cohorts.append(Cohort(arm=d.names[codes], covariates=covs, response=y))

    def shared(self, j: int, m: int, n: tuple[int, ...]) -> dict:
        """The ``RuleContext`` fields that every rule of look ``j`` sees while
        the arms active now stay active."""
        d, active = self.design, self.active
        return dict(
            active=tuple(active.tolist()),
            n=n,
            ref=d.ref,
            prob=tuple(self.allocation[active].tolist()),
            m=m,
            n_max=d.spec.n_max,
            look_index=j,
            is_final=j == len(d.sizes) - 1,
        )

    def context(self, tails, shared: dict) -> RuleContext:
        """Rule inputs of ``shared``, with the active arms' tails in arm order."""
        active = self.active
        return RuleContext(posterior=tuple(tails[active & ~np.isnan(tails)].tolist()), **shared)

    def decide(self, j, m, converged, look_mean, look_sd, p_eff, p_fut, p_rar) -> None:
        """Apply look ``j``'s rules to this replicate's fit and tails."""
        d, spec, active = self.design, self.design.spec, self.active
        arms, n_arms = d.arms, len(d.arms)
        is_final = j == len(d.sizes) - 1
        verdict = "continue"
        if converged:
            n = tuple(self.n_per_arm.tolist())
            shared = self.shared(j, m, n)

            def arm_flags(rule, tails, rule_spec):
                flags = np.zeros(n_arms, dtype=bool)
                evaluated = ~np.isnan(tails)
                if evaluated.any():
                    flags[evaluated] = rule(self.context(tails, shared), rule_spec)
                return flags

            hit_eff = arm_flags(rules.efficacy_arm, p_eff, spec.eff_arm_rule)
            hit_fut = arm_flags(rules.futility_arm, p_fut, spec.fut_arm_rule)
            decided = hit_eff | hit_fut
            for t in np.flatnonzero(decided).tolist():
                self.decisions[t] = ArmDecision(
                    efficacy_met=bool(hit_eff[t]),
                    futility_met=bool(hit_fut[t]),
                    timing="last" if is_final else "early",
                    look_index=j,
                )
            # decided arms keep the estimate of their decision look, the
            # others that of the last converged fit
            self.est_mean[active] = look_mean[active]
            self.est_sd[active] = look_sd[active]
            if decided.any():
                active &= ~decided
                shared = self.shared(j, m, n)

            verdict = rules.trial_stop(
                self.decisions[1:], self.context(d.no_tails, shared),
                spec.eff_trial_rule, spec.fut_trial_rule,
            )
        else:
            self.non_converged += 1
            look_mean = look_sd = d.no_tails

        if self.history is not None:
            self.history.append(
                LookRecord(
                    look_index=j,
                    is_final=is_final,
                    n_total=int(self.n_per_arm.sum()),
                    n_per_arm=dict(zip(arms, self.n_per_arm.tolist())),
                    active=dict(zip(arms, active.tolist())),
                    allocation=dict(zip(arms, self.allocation.tolist())),
                    eff_posterior=_by_arm(arms, p_eff, range(1, n_arms)),
                    fut_posterior=_by_arm(arms, p_fut, range(1, n_arms)),
                    rar_posterior=_by_arm(arms, p_rar, range(1, n_arms)),
                    estimate_mean=_by_arm(arms, look_mean, d.targets),
                    estimate_sd=_by_arm(arms, look_sd, d.targets),
                    fit_converged=converged,
                )
            )

        self.looks = j + 1
        if is_final:
            self.stopped = True
            return
        if verdict != "continue" or not active[1:].any():
            self.stop_reason = _STOP_REASONS.get(verdict, STOP_ALL_DECIDED)
            self.stopped = True
            return

        # --- allocation for the next cohort
        if spec.rar_rule is None:
            self.allocation = _rescale(d.prob0, active)
        elif not np.isnan(p_rar[active][1:]).any():
            # every recruiting intervention has a tail at this look
            rar_w = rules.rar_weights(self.context(p_rar, shared), spec.rar_rule)
            self.allocation = np.zeros(n_arms)
            self.allocation[active] = rules.normalize_allocation(rar_w)
        else:
            # non-converged fit or margin disabled at this look: keep the
            # current allocation, restricted to the arms still recruiting
            self.allocation = _rescale(self.allocation, active)

    def result(self) -> TrialResult:
        d = self.design
        arms, model = d.arms, d.model
        dataset = None
        if self.cohorts is not None:
            data = Cohort.concat(self.cohorts)
            dataset = {
                "arm": data.arm.tolist(),
                "covariates": {k: v.tolist() for k, v in data.covariates.items()},
                "response": data.response.tolist(),
            }
        return TrialResult(
            seed=self.seed,
            arms=model.interventions,
            decisions=dict(zip(model.interventions, self.decisions[1:])),
            sample_sizes=dict(zip(arms, self.n_per_arm.tolist())),
            total_size=int(self.n_per_arm.sum()),
            stop_reason=self.stop_reason,
            looks_performed=self.looks,
            estimate_mean=_by_arm(arms, self.est_mean, d.targets),
            estimate_sd=_by_arm(arms, self.est_sd, d.targets),
            non_converged_fits=self.non_converged,
            history=self.history,
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
