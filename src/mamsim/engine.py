"""Trial execution in lockstep blocks of replicates.

``run_block`` walks a block of simulated trials through the schedule
together, look by look, holding their state in arrays with a row per
replicate and a column per arm.  At each look every replicate still
running simulates its new cohort, the block refits the model on each live
row's accumulated data in one batched Newton solve
(:func:`mamsim.glm.fit_laplace_batch`), and the block forms of the arm and
trial rules (:mod:`mamsim.rules`) act on all live rows at once: they drop
decided arms from recruitment (their data stay in the fit) and set the
allocation probabilities of the rows that go on (response-adaptive or
rescaled fixed weights).  A replicate leaves the block when it stops; the
others go on to the final analysis at the maximum sample size.

Arm-only models are fitted on per-arm sufficient statistics (subjects and
response sums per arm, kept up to date with ``np.bincount`` of each
cohort's arm codes); models with covariates on per-subject rows.

Per-seed contract: a replicate draws only from its own Philox substreams,
keyed by (seed, look, purpose), and every batched step acts on each
replicate's own row or slice with the arithmetic it would get alone.  (A
block derives its replicates' stream keys in one pass,
:func:`mamsim.datagen.stream_keys`, and restarts one generator at each key
in turn: the draws of :func:`mamsim.datagen.substream`.)  A replicate's
result is therefore a pure function of (validated spec, seed), bit for
bit: it does not depend on the size, membership or order of its block, nor
on how many workers share the seeds.  ``run_trial`` is a block of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import datagen, glm, rules
from .config import ValidatedSpec
from .datagen import Cohort
# not called here: the engine draws from stream keys, which give the same
# streams; kept bound because benchmark/tracing.py wraps ``engine.substream``
from .datagen import substream  # noqa: F401
from .rules import ArmDecision

# a record's stop reason, by the code its block keeps for it
STOP_REASONS = ("reached_max", "all_decided", "trial_rule_efficacy", "trial_rule_futility")
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
        fields, each of its JSON type, and ``decisions`` is keyed by exactly
        ``arms``."""
        result = _build(cls, doc)
        arms, decisions, history = result.arms, result.decisions, result.history
        if not (all(isinstance(arm, str) for arm in arms) and decisions.keys() == set(arms)):
            raise RecordError("decisions are not keyed by exactly the arms")
        result.arms = tuple(arms)
        result.decisions = {arm: _build(ArmDecision, d) for arm, d in decisions.items()}
        if history is not None:
            result.history = [_build(LookRecord, look) for look in history]
        return result


# The JSON type of each field of a record, a tuple where it may be null.
# Only the field itself is checked, not the elements of a list or object.
_NULL = type(None)
_TYPES = {
    TrialResult: dict(
        seed=int, arms=list, decisions=dict, sample_sizes=dict, total_size=int,
        stop_reason=str, looks_performed=int, estimate_mean=dict, estimate_sd=dict,
        non_converged_fits=int, history=(list, _NULL), dataset=(dict, _NULL),
    ),
    LookRecord: dict(
        look_index=int, is_final=bool, n_total=int, n_per_arm=dict, active=dict,
        allocation=dict, eff_posterior=dict, fut_posterior=dict, rar_posterior=dict,
        estimate_mean=dict, estimate_sd=dict, fit_converged=bool,
    ),
    ArmDecision: dict(efficacy_met=bool, futility_met=bool, timing=str, look_index=(int, _NULL)),
}
_FIELDS = {cls: frozenset(types) for cls, types in _TYPES.items()}


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
    types = _TYPES[cls]
    for name, value in doc.items():
        if not isinstance(value, types[name]):
            raise RecordError(f"{cls.__name__} {name} of the wrong type ({type(value).__name__})")
    return cls(**doc)


def encode(doc) -> bytes:
    """Canonical JSON bytes (sorted keys, no spaces) of records and headers."""
    return json.dumps(
        doc, default=_fields, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def cohort_sizes(spec) -> list[int]:
    """Recruitment increments implied by the interim schedule plus final."""
    recruited = [0, *spec.interim_recruited, spec.n_max]
    return [b - a for a, b in zip(recruited, recruited[1:])]


def run_trial(validated: ValidatedSpec, seed: int) -> TrialResult:
    """Simulate one trial replicate: a lockstep block of one."""
    return run_block(validated, [seed])[0]


def run_block(validated: ValidatedSpec, seeds) -> list[TrialResult]:
    """Simulate one trial replicate per seed, in lockstep blocks of at most
    ``BLOCK_SIZE`` replicates (fewer for models with covariates, see
    ``BLOCK_BYTES``); results come back in the order of ``seeds``."""
    spec = validated.spec
    seeds = list(seeds)
    size = BLOCK_SIZE
    if spec.model.covariates:
        # each replicate holds n_max x p design rows
        size = max(1, min(BLOCK_SIZE, BLOCK_BYTES // (spec.n_max * len(spec.beta_true) * 8)))
    results: list[TrialResult] = []
    for start in range(0, len(seeds), size):
        results += _Block(spec, seeds[start : start + size]).run()
    return results


class _Block:
    """A block of replicates of one design, run in lockstep, with its trial
    state in arrays of one row per replicate and one column per arm, control
    first.  Target ``t`` is the coefficient of arm ``t``, so arm columns
    serve the targets too.  Records are built from the rows at the end."""

    def __init__(self, spec, seeds: list[int]) -> None:
        model = spec.model
        self.spec, self.model, self.seeds = spec, model, seeds
        self.arms = model.arm_names
        shape = (len(seeds), len(self.arms))
        self.names = np.array(self.arms, dtype=object)
        self.targets = list(spec.which_targets)
        self.greater = np.zeros(shape[1], dtype=bool)
        self.greater[self.targets] = [a == "greater" for a in spec.alternative]
        self.delta_eff = _arm_deltas(spec.delta_eff, self.targets, shape[1])
        self.delta_fut = _arm_deltas(spec.delta_fut, self.targets, shape[1])
        self.delta_rar = _arm_deltas(spec.delta_rar, self.targets, shape[1])
        self.ref = np.arange(shape[1]) == 0  # the control, the rules' reference
        self.prob0 = np.array([spec.prob0[a] for a in self.arms])
        self.sizes = cohort_sizes(spec)
        self.recruited = np.cumsum(self.sizes).tolist()
        self.beta_true = np.asarray(spec.beta_true, dtype=float)
        self.gaussian = model.family == "gaussian"
        if model.covariates:  # per-subject design rows and responses
            self.x = np.empty((len(seeds), spec.n_max, len(self.beta_true)))
            self.y = np.empty((len(seeds), spec.n_max))
        else:
            # every cohort's response means, checked once for all arms: an
            # arm's linear predictor is beta_0 + beta_arm
            eta = self.beta_true[: shape[1]].copy()
            eta[1:] += self.beta_true[0]
            self.arm_mu = datagen.response_means(eta, model.family, model.link, model.nuisance)
        # (replicate, look, purpose, 2) Philox keys of the streams
        # substream(seed, "look", j, purpose)
        covariates = ("covariates",) if model.covariates else ()
        self.purposes = ("alloc", *covariates, "response")
        paths = [("look", j, k) for j in range(len(self.sizes)) for k in self.purposes]
        self.keys = datagen.stream_keys(seeds, paths).reshape(
            len(seeds), len(self.sizes), len(self.purposes), 2
        )
        self.rng = np.random.Generator(np.random.Philox(0))  # re-keyed per stream

        self.active = np.ones(shape, dtype=bool)
        self.count = np.zeros(shape, dtype=int)
        self.total = np.zeros(shape)  # response sums per arm
        self.square = np.zeros(shape)  # squared-response sums (gaussian)
        self.allocation = np.tile(self.prob0, (len(seeds), 1))
        self.efficacy = np.zeros(shape, dtype=bool)
        self.futility = np.zeros(shape, dtype=bool)
        self.decision_look = np.full(shape, -1)  # -1 while undecided
        self.est_mean = np.full(shape, np.nan)
        self.est_sd = np.full(shape, np.nan)
        self.stop = np.zeros(len(seeds), dtype=int)  # index into STOP_REASONS
        self.looks = np.zeros(len(seeds), dtype=int)
        self.non_converged = np.zeros(len(seeds), dtype=int)
        self.history = [[] for _ in seeds] if spec.extended >= 1 else None
        self.cohorts = [[] for _ in seeds] if spec.extended >= 2 else None

    def run(self) -> list[TrialResult]:
        live = np.arange(len(self.seeds))
        for j, m in enumerate(self.sizes):
            self.recruit(live, j, m)
            live = self.look(live, j)
            if not live.size:
                break
        return [self.result(r) for r in range(len(self.seeds))]

    def stream(self, r: int, j: int, purpose: str) -> np.random.Generator:
        """The block's generator, restarted at replicate ``r``'s stream
        ``substream(seed, "look", j, purpose)``."""
        return datagen.rekey(self.rng, self.keys[r, j, self.purposes.index(purpose)])

    def recruit(self, live: np.ndarray, j: int, m: int) -> None:
        """Simulate look ``j``'s cohort of ``m`` subjects in each live row."""
        model = self.model
        codes = np.empty((len(live), m), dtype=int)
        ys = np.empty((len(live), m))
        for i, r in enumerate(live.tolist()):
            recruiting = np.flatnonzero(self.active[r])
            codes[i] = recruiting[datagen.allocate_codes(
                m, self.allocation[r, recruiting], self.spec.allocation, self.stream(r, j, "alloc"),
            )]
            covs = {}
            if model.covariates:
                covs = datagen.simulate_covariates(
                    model.covariates, m, self.stream(r, j, "covariates")
                )
                x_cohort = glm.design_values(self.names[codes[i]], covs, model)
                y = datagen.simulate_response(
                    x_cohort @ self.beta_true, model.family, model.link, model.nuisance,
                    self.stream(r, j, "response"),
                )
                start = self.recruited[j] - m
                self.x[r, start : start + m] = x_cohort
                self.y[r, start : start + m] = y
            else:
                y = datagen.draw_response(
                    self.arm_mu[codes[i]], model.family, model.nuisance,
                    self.stream(r, j, "response"),
                )
            ys[i] = y
            if self.cohorts is not None:
                self.cohorts[r].append(Cohort(arm=self.names[codes[i]], covariates=covs, response=y))
        # one bincount for the block: row i's arms are bins i * arms + code
        n_arms = len(self.arms)
        bins = (codes + n_arms * np.arange(len(live))[:, None]).ravel()

        def per_arm(weights=None):
            return np.bincount(bins, weights, len(live) * n_arms).reshape(len(live), n_arms)

        self.count[live] += per_arm()
        self.total[live] += per_arm(ys.ravel())
        if self.gaussian:
            self.square[live] += per_arm((ys * ys).ravel())

    def rule_block(self, rows: np.ndarray) -> rules.RuleBlock:
        return rules.RuleBlock(self.active[rows], self.count[rows], self.ref, self.spec.n_max)

    def look(self, live: np.ndarray, j: int) -> np.ndarray:
        """Look ``j`` of the live rows: one batched fit of their data so far,
        the tails of their active arms, the arm and trial rules, and the
        next allocation of the rows that go on, which are returned."""
        spec, model, n_arms = self.spec, self.model, len(self.arms)
        if model.covariates:
            n = self.recruited[j]
            data = glm.SubjectRows(self.x[live, :n], self.y[live, :n])
        else:
            square = self.square[live] if self.gaussian else None
            data = glm.ArmTotals(self.count[live], self.total[live], square)
        fit = glm.fit_laplace_batch(data, model.family, model.nuisance)
        converged = fit.converged
        mean, sd = fit.mode[:, :n_arms], fit.marginal_sd[:, :n_arms]
        evaluated = self.active[live] & converged[:, None]

        def tails(deltas):
            delta = deltas[:, j]
            probs = glm.tail_probabilities(mean, sd, delta, self.greater)
            return np.where(evaluated & ~np.isnan(delta), probs, np.nan)

        p_eff, p_fut = tails(self.delta_eff), tails(self.delta_fut)
        p_rar = tails(self.delta_rar) if spec.rar_rule is not None else np.full(mean.shape, np.nan)

        # arm rules; a non-converged row has no tails, so no decisions
        block = self.rule_block(live)
        hit_eff = rules.evaluate("eff_arm", spec.eff_arm_rule, p_eff, block) & ~np.isnan(p_eff)
        hit_fut = rules.evaluate("fut_arm", spec.fut_arm_rule, p_fut, block) & ~np.isnan(p_fut)
        decided = hit_eff | hit_fut
        self.efficacy[live] |= hit_eff
        self.futility[live] |= hit_fut
        self.decision_look[live] = np.where(decided, j, self.decision_look[live])
        # decided arms keep the estimate of their decision look, the others
        # that of the last converged fit
        self.est_mean[live] = np.where(evaluated, mean, self.est_mean[live])
        self.est_sd[live] = np.where(evaluated, sd, self.est_sd[live])
        active = self.active[live] & ~decided
        self.active[live] = active

        # trial rules see the decisions so far; the efficacy rule comes first
        interventions = ~self.ref
        flags = self.efficacy[live][:, interventions], self.futility[live][:, interventions]
        stop_eff = converged & rules.evaluate("eff_trial", spec.eff_trial_rule, *flags)
        stop_fut = converged & ~stop_eff & rules.evaluate("fut_trial", spec.fut_trial_rule, *flags)
        self.non_converged[live] += ~converged
        self.looks[live] = j + 1
        if self.history is not None:
            self.record_look(live, j, converged, mean, sd, p_eff, p_fut, p_rar)
        if j == len(self.sizes) - 1:
            return live[:0]

        stopped = stop_eff | stop_fut | ~active[:, interventions].any(axis=1)
        # codes are indices into STOP_REASONS
        self.stop[live] = np.select([stop_eff, stop_fut, stopped], [2, 3, 1])
        go = ~stopped
        rows, active = live[go], active[go]
        if spec.rar_rule is None:
            self.allocation[rows] = _rescale(self.prob0, active)
            return rows
        # RAR where every recruiting intervention has a tail at this look;
        # elsewhere (non-converged fit or margin disabled) the current
        # allocation, restricted to the arms still recruiting
        rar = ~(np.isnan(p_rar[go]) & active & interventions).any(axis=1)
        self.allocation[rows] = _rescale(self.allocation[rows], active)
        if rar.any():
            block = self.rule_block(rows[rar])
            weights = rules.evaluate("rar", spec.rar_rule, p_rar[go][rar], block)
            self.allocation[rows[rar]] = rules.normalize_rows(weights, block.active)
        return rows

    def record_look(self, live, j, converged, mean, sd, p_eff, p_fut, p_rar) -> None:
        """Append look ``j``'s ``LookRecord`` to each live row's history."""
        arms, interventions = self.arms, range(1, len(self.arms))
        look_mean = np.where(converged[:, None], mean, np.nan)
        look_sd = np.where(converged[:, None], sd, np.nan)
        for i, r in enumerate(live.tolist()):
            counts = self.count[r].tolist()
            self.history[r].append(
                LookRecord(
                    look_index=j,
                    is_final=j == len(self.sizes) - 1,
                    n_total=sum(counts),
                    n_per_arm=dict(zip(arms, counts)),
                    active=dict(zip(arms, self.active[r].tolist())),
                    allocation=dict(zip(arms, self.allocation[r].tolist())),
                    eff_posterior=_by_arm(arms, p_eff[i], interventions),
                    fut_posterior=_by_arm(arms, p_fut[i], interventions),
                    rar_posterior=_by_arm(arms, p_rar[i], interventions),
                    estimate_mean=_by_arm(arms, look_mean[i], self.targets),
                    estimate_sd=_by_arm(arms, look_sd[i], self.targets),
                    fit_converged=bool(converged[i]),
                )
            )

    def result(self, r: int) -> TrialResult:
        """Row ``r``'s record."""
        arms, final = self.arms, len(self.sizes) - 1
        looks = self.decision_look[r].tolist()
        efficacy, futility = self.efficacy[r].tolist(), self.futility[r].tolist()
        decisions = {
            arm: ArmDecision(
                efficacy_met=efficacy[t],
                futility_met=futility[t],
                timing="none" if looks[t] < 0 else "last" if looks[t] == final else "early",
                look_index=None if looks[t] < 0 else looks[t],
            )
            for t, arm in enumerate(self.model.interventions, 1)
        }
        dataset = None
        if self.cohorts is not None:
            data = Cohort.concat(self.cohorts[r])
            dataset = {
                "arm": data.arm.tolist(),
                "covariates": {k: v.tolist() for k, v in data.covariates.items()},
                "response": data.response.tolist(),
            }
        counts = self.count[r].tolist()
        return TrialResult(
            seed=self.seeds[r],
            arms=self.model.interventions,
            decisions=decisions,
            sample_sizes=dict(zip(arms, counts)),
            total_size=sum(counts),
            stop_reason=STOP_REASONS[self.stop[r]],
            looks_performed=int(self.looks[r]),
            estimate_mean=_by_arm(arms, self.est_mean[r], self.targets),
            estimate_sd=_by_arm(arms, self.est_sd[r], self.targets),
            non_converged_fits=int(self.non_converged[r]),
            history=None if self.history is None else self.history[r],
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
    """Restrict weights to active arms and renormalise, row by row; dropped
    arms get 0."""
    live = np.where(active, np.abs(weights), 0.0)
    # running sum, left to right: numpy's pairwise sum can round differently
    total = live.cumsum(axis=-1)[..., -1:]
    # a row whose remaining arms all carry zero weight gets equal shares
    even = active / np.count_nonzero(active, axis=-1, keepdims=True)
    return np.where(total == 0.0, even, live / np.where(total == 0.0, 1.0, total))
