"""Trial execution in lockstep blocks of replicates.

``run_block`` walks a block of simulated trials through the schedule
together, look by look, holding the state of the replicates still running
in arrays with a row per running replicate and a column per arm.  At each
look every running replicate simulates its new cohort, the block refits
the model on each one's accumulated data in one batched Newton solve
(:func:`mamsim.glm.fit_laplace_batch`), and the block forms of the arm and
trial rules (:mod:`mamsim.rules`) act on all of them at once: they drop
decided arms from recruitment (their data stay in the fit) and set the
allocation probabilities of the rows that go on (response-adaptive or
rescaled fixed weights).  A replicate leaves the block when it stops: its
record is built and its rows are dropped from the state.  The others go
on to the final analysis at the maximum sample size.

Arm-only models are fitted on per-arm sufficient statistics (subjects and
response sums per arm, kept up to date with ``np.bincount`` of each
cohort's arm codes); models with covariates on per-subject rows.

Per-seed contract: a replicate draws only from its own Philox substreams,
keyed by (seed, look, purpose), and every batched step acts on each
replicate's own row or slice with the arithmetic it would get alone.  (A
block derives its replicates' stream keys in one pass,
:func:`mamsim.datagen.stream_keys`; it computes the uniforms of ``simple``
allocation and of arm-only binomial responses for a run of looks in one
more, :func:`mamsim.datagen.stream_uniforms`, and restarts one generator
at each key for the other draws: the draws of
:func:`mamsim.datagen.substream`.)  A replicate's
result is therefore a pure function of (validated spec, seed), bit for
bit: it does not depend on the size, membership or order of its block, nor
on how many workers share the seeds.  ``run_trial`` is a block of one.
"""

from __future__ import annotations

import math

import numpy as np

from . import datagen, glm, rules
from .config import ValidatedSpec
# not called here: the engine draws from stream keys, which give the same
# streams; kept bound because benchmark/tracing.py wraps ``engine.substream``
from .datagen import substream  # noqa: F401
from .records import LookRecord, TrialResult
from .rules import ArmDecision

# a record's stop reason, by the code its block keeps for it
STOP_REASONS = ("reached_max", "all_decided", "trial_rule_efficacy", "trial_rule_futility")
# Replicates per lockstep block.  Throughput is flat from about 128 to 1024
# replicates per block, while each replicate adds a few kB of block state, so
# the cap bounds the memory of large chunks of seeds.
BLOCK_SIZE = 256
# Models with covariates stack every replicate's n_max x p design rows at
# each look; their blocks are cut so that those rows fit in this many bytes.
# A block's uniforms (``simple`` allocation, arm-only binomial responses)
# are drawn for all its looks at once, or in runs of looks that fit in it.
BLOCK_BYTES = 1 << 19
# A replicate's record is a ``TrialResult`` with its ``LookRecord`` history
# and ``ArmDecision``s, in the v1 record format of :mod:`mamsim.records`.


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
    """A block of replicates of one design, run in lockstep.  The trial
    state of the rows still running (``live``, their block row indices) is
    held in arrays of one row per live replicate and one column per arm,
    control first; a row's record is built once, at the look it stops, and
    its state rows are then dropped.  Target ``t`` is the coefficient of
    arm ``t``, so arm columns serve the targets too."""

    def __init__(self, spec, seeds: list[int]) -> None:
        model = spec.model
        self.spec, self.model, self.seeds = spec, model, seeds
        self.arms = model.arm_names
        shape = (len(seeds), len(self.arms))
        self.names = np.array(self.arms, dtype=object)
        self.targets = list(spec.which_targets)
        self.greater = np.zeros(shape[1], dtype=bool)
        self.greater[self.targets] = [a == "greater" for a in spec.alternative]
        self.ref = np.arange(shape[1]) == 0  # the control, the rules' reference
        self.prob0 = np.array([spec.prob0[a] for a in self.arms])
        self.sizes = cohort_sizes(spec)
        self.recruited = np.cumsum(self.sizes).tolist()
        # each rule's block form, checked once for the block
        self.rules = {
            kind: (rules.check_rule(kind, rule), rule.params)
            for kind, rule in [
                ("eff_arm", spec.eff_arm_rule), ("fut_arm", spec.fut_arm_rule),
                ("eff_trial", spec.eff_trial_rule), ("fut_trial", spec.fut_trial_rule),
                ("rar", spec.rar_rule),
            ]
            if rule is not None
        }
        # the efficacy, futility and RAR deltas, as (look, margin, 1, arm)
        # for one tail_probabilities call per look: NaN where an arm has no
        # delta, which gives a NaN tail that decides nothing, and all NaN
        # for RAR in a design without a RAR rule
        margins = [spec.delta_eff, spec.delta_fut, spec.delta_rar]
        deltas = np.array([_arm_deltas(m, self.targets, shape[1]) for m in margins])
        if spec.rar_rule is None:
            deltas[2] = np.nan
        self.deltas = deltas.transpose(2, 0, 1)[:, :, None]
        self.beta_true = np.asarray(spec.beta_true, dtype=float)
        self.gaussian = model.family == "gaussian"
        if model.covariates:  # per-subject design rows and responses, by block row
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
        # uniform-only draws come from one Philox pass per run of looks:
        # ``simple`` allocation, and binomial responses of arm-only models
        self.inversion = None
        if model.family == "binomial" and not model.covariates:
            self.inversion = datagen.binomial_inversion(self.arm_mu)
        self.drawn = [
            k for k, block in [("alloc", spec.allocation == "simple"),
                               ("response", self.inversion is not None)] if block
        ]
        self.run_draws: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # the other draws need a rejection sampler or a permutation: one
        # generator, re-keyed per stream
        self.rng = np.random.Generator(np.random.Philox(0))

        # the live rows' state; ``keep`` drops the rows that stop
        self.live = np.arange(len(seeds))
        self.active = np.ones(shape, dtype=bool)
        self.count = np.zeros(shape, dtype=int)
        self.total = np.zeros(shape)  # response sums per arm
        self.square = np.zeros(shape) if self.gaussian else None  # squared-response sums
        self.allocation = np.tile(self.prob0, (len(seeds), 1))
        self.efficacy = np.zeros(shape, dtype=bool)
        self.futility = np.zeros(shape, dtype=bool)
        self.decision_look = np.full(shape, -1)  # -1 while undecided
        self.est_mean = np.full(shape, np.nan)
        self.est_sd = np.full(shape, np.nan)
        self.non_converged = np.zeros(len(seeds), dtype=int)
        # by block row
        self.results: list[TrialResult | None] = [None] * len(seeds)
        self.history = [[] for _ in seeds] if spec.extended >= 1 else None
        # per row, each look's (arm codes, covariates, responses)
        self.cohorts = [[] for _ in seeds] if spec.extended >= 2 else None

    def run(self) -> list[TrialResult]:
        for j, m in enumerate(self.sizes):
            self.recruit(j, m)
            self.look(j)
            if not self.live.size:
                break
        return self.results

    def keep(self, rows: np.ndarray) -> None:
        """Keep the state of the live rows at positions ``rows`` only."""
        self.live = self.live[rows]
        for name in _LIVE_STATE:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[rows])

    def stream(self, r: int, j: int, purpose: str) -> np.random.Generator:
        """The block's generator, restarted at replicate ``r``'s stream
        ``substream(seed, "look", j, purpose)``."""
        return datagen.rekey(self.rng, self.keys[r, j, self.purposes.index(purpose)])

    def uniforms(self, j: int) -> dict[str, np.ndarray]:
        """The live rows' uniforms of look ``j``, by purpose in ``drawn``.

        A look with none drawn yet starts a run: the uniforms of its own and
        the next looks' streams come from one Philox pass over the live rows,
        as many looks as fit in ``BLOCK_BYTES``.
        """
        live = self.live
        if j not in self.run_draws:
            per_subject = 8 * len(live) * len(self.drawn)
            end = j + 1
            while end < len(self.sizes) and (
                per_subject * sum(self.sizes[j : end + 1]) <= BLOCK_BYTES
            ):
                end += 1
            purposes = [self.purposes.index(k) for k in self.drawn]
            # (row, purpose, look, 2) keys of the run's streams
            keys = self.keys[live, j:end][:, :, purposes].swapaxes(1, 2)
            draws = datagen.stream_uniforms(keys, self.sizes[j:end])
            self.run_draws = {j + k: (live, u) for k, u in enumerate(draws)}
        rows, u = self.run_draws.pop(j)
        if len(rows) != len(live):  # rows stopped since the run's draws
            u = u[np.searchsorted(rows, live)]
        return {k: u[:, i] for i, k in enumerate(self.drawn)}

    def recruit(self, j: int, m: int) -> None:
        """Simulate look ``j``'s cohort of ``m`` subjects in each live row."""
        live = self.live.tolist()
        u = self.uniforms(j) if self.drawn else {}
        if "alloc" in u:
            codes = datagen.allocate_simple(self.allocation, self.active, u["alloc"])
        else:
            counts = datagen.balanced_counts(self.allocation, self.active, m)
            arms = np.arange(len(self.arms))
            codes = np.array([
                self.stream(r, j, "alloc").permutation(np.repeat(arms, c))
                for r, c in zip(live, counts)
            ])
        if "response" in u:
            ys = datagen.binomial_responses(self.inversion, codes, u["response"])
            covs = [{}] * len(live)
        else:
            ys, covs = zip(*[self.respond(r, j, c) for r, c in zip(live, codes)])
            ys = np.array(ys)
        if self.cohorts is not None:
            for r, c, cov, y in zip(live, codes, covs, ys):
                self.cohorts[r].append((c, cov, y))
        # one bincount for the block: row i's arms are bins i * arms + code
        n_arms = len(self.arms)
        bins = (codes + n_arms * np.arange(len(live))[:, None]).ravel()

        def per_arm(weights=None):
            return np.bincount(bins, weights, len(live) * n_arms).reshape(len(live), n_arms)

        self.count += per_arm()
        self.total += per_arm(ys.ravel())
        if self.gaussian:
            self.square += per_arm((ys * ys).ravel())

    def respond(self, r: int, j: int, codes: np.ndarray) -> tuple[np.ndarray, dict]:
        """Row ``r``'s look ``j`` responses and covariates for subjects in
        the arms ``codes``, drawn from its streams by the generator."""
        model, m = self.model, len(codes)
        if not model.covariates:
            y = datagen.draw_response(
                self.arm_mu[codes], model.family, model.nuisance, self.stream(r, j, "response")
            )
            return y, {}
        covs = datagen.simulate_covariates(model.covariates, m, self.stream(r, j, "covariates"))
        x = glm.design_rows(codes, covs, model)
        y = datagen.simulate_response(
            x @ self.beta_true, model.family, model.link, model.nuisance,
            self.stream(r, j, "response"),
        )
        start = self.recruited[j] - m
        self.x[r, start : start + m] = x
        self.y[r, start : start + m] = y
        return y, covs

    def rule_block(self) -> rules.RuleBlock:
        return rules.RuleBlock(self.active, self.count, self.ref, self.spec.n_max)

    def look(self, j: int) -> None:
        """Look ``j`` of the live rows: one batched fit of their data so far,
        the tails of their active arms, the arm and trial rules, the records
        of the rows that stop, and the next allocation of the others."""
        spec, model, n_arms = self.spec, self.model, len(self.arms)
        if model.covariates:
            n = self.recruited[j]
            data = glm.SubjectRows(self.x[self.live, :n], self.y[self.live, :n])
        else:
            data = glm.ArmTotals(self.count, self.total, self.square)
        fit = glm.fit_laplace_batch(data, model.family, model.nuisance)
        converged = fit.converged
        mean, sd = fit.mode[:, :n_arms], fit.marginal_sd[:, :n_arms]
        evaluated = self.active & converged[:, None]

        # each margin's tails, NaN where an arm is not evaluated or has no delta
        probs = glm.tail_probabilities(mean, sd, self.deltas[j], self.greater)
        p_eff, p_fut, p_rar = np.where(evaluated, probs, np.nan)

        # arm rules; a non-converged row has no tails, so no decisions
        block = self.rule_block()

        def hits(kind, tails):
            fn, params = self.rules[kind]
            return fn(tails, block, params) & ~np.isnan(tails)

        hit_eff, hit_fut = hits("eff_arm", p_eff), hits("fut_arm", p_fut)
        decided = hit_eff | hit_fut
        self.efficacy |= hit_eff
        self.futility |= hit_fut
        self.decision_look[decided] = j
        # decided arms keep the estimate of their decision look, the others
        # that of the last converged fit
        np.copyto(self.est_mean, mean, where=evaluated)
        np.copyto(self.est_sd, sd, where=evaluated)
        self.active = active = self.active & ~decided

        # trial rules see the decisions so far; the efficacy rule comes first
        flags = self.efficacy[:, 1:], self.futility[:, 1:]  # the interventions
        (eff_trial, eff_params), (fut_trial, fut_params) = (
            self.rules["eff_trial"], self.rules["fut_trial"]
        )
        stop_eff = converged & eff_trial(*flags, eff_params)
        stop_fut = converged & ~stop_eff & fut_trial(*flags, fut_params)
        self.non_converged += ~converged
        if self.history is not None:
            self.record_look(j, converged, mean, sd, p_eff, p_fut, p_rar)
        if j == len(self.sizes) - 1:  # every row reached the maximum sample size
            self.finish(np.arange(len(self.live)), np.zeros(len(self.live), dtype=int), j)
            return

        stopped = stop_eff | stop_fut | ~active[:, 1:].any(axis=1)
        if stopped.any():
            # codes are indices into STOP_REASONS
            codes = np.where(stop_eff, 2, np.where(stop_fut, 3, 1))
            ends, go = np.flatnonzero(stopped), np.flatnonzero(~stopped)
            self.finish(ends, codes, j)
            self.keep(go)
            if not go.size:
                return
            active, p_rar = self.active, p_rar[go]
        if spec.rar_rule is None:
            self.allocation = _rescale(self.prob0, active)
            return
        # RAR where every recruiting intervention has a tail at this look;
        # elsewhere (non-converged fit or margin disabled) the current
        # allocation, restricted to the arms still recruiting
        rar = ~(np.isnan(p_rar) & active & ~self.ref).any(axis=1)
        rar_fn, rar_params = self.rules["rar"]
        if rar.all():
            block = self.rule_block()
            self.allocation = rules.normalize_rows(rar_fn(p_rar, block, rar_params), active)
            return
        self.allocation = _rescale(self.allocation, active)
        if rar.any():
            rows = np.flatnonzero(rar)
            block = rules.RuleBlock(active[rows], self.count[rows], self.ref, spec.n_max)
            weights = rar_fn(p_rar[rows], block, rar_params)
            self.allocation[rows] = rules.normalize_rows(weights, block.active)

    def record_look(self, j, converged, mean, sd, p_eff, p_fut, p_rar) -> None:
        """Append look ``j``'s ``LookRecord`` to each live row's history."""
        arms, interventions = self.arms, range(1, len(self.arms))
        look_mean = np.where(converged[:, None], mean, np.nan)
        look_sd = np.where(converged[:, None], sd, np.nan)
        # each (live, arms) array becomes lists once, not number by number
        arrays = (
            self.count, self.active, self.allocation,
            p_eff, p_fut, p_rar, look_mean, look_sd, converged,
        )
        rows = zip(*(a.tolist() for a in arrays))
        is_final = j == len(self.sizes) - 1
        for r, row in zip(self.live.tolist(), rows):
            counts, active, allocation, eff, fut, rar, est_mean, est_sd, fit_converged = row
            self.history[r].append(
                LookRecord(
                    look_index=j,
                    is_final=is_final,
                    n_total=sum(counts),
                    n_per_arm=dict(zip(arms, counts)),
                    active=dict(zip(arms, active)),
                    allocation=dict(zip(arms, allocation)),
                    eff_posterior=_by_arm(arms, eff, interventions),
                    fut_posterior=_by_arm(arms, fut, interventions),
                    rar_posterior=_by_arm(arms, rar, interventions),
                    estimate_mean=_by_arm(arms, est_mean, self.targets),
                    estimate_sd=_by_arm(arms, est_sd, self.targets),
                    fit_converged=fit_converged,
                )
            )

    def finish(self, rows: np.ndarray, stop: np.ndarray, j: int) -> None:
        """The records of the live rows at positions ``rows``, which stop at
        look ``j``; ``stop`` holds each live row's ``STOP_REASONS`` code."""
        # each array becomes lists once, not number by number
        arrays = (
            self.live, stop, self.non_converged, self.count, self.efficacy, self.futility,
            self.decision_look, self.est_mean, self.est_sd,
        )
        for r, *row in zip(*(a[rows].tolist() for a in arrays)):
            self.results[r] = self.result(r, j + 1, *row)

    def result(
        self, r: int, looks: int, stop: int, non_converged: int,
        counts, efficacy, futility, decision_look, est_mean, est_sd,
    ) -> TrialResult:
        """Row ``r``'s record, given its rows of the block's arrays as lists."""
        arms, final = self.arms, len(self.sizes) - 1
        decisions = {
            arm: ArmDecision(
                efficacy_met=efficacy[t],
                futility_met=futility[t],
                timing="none" if decision_look[t] < 0
                else "last" if decision_look[t] == final else "early",
                look_index=None if decision_look[t] < 0 else decision_look[t],
            )
            for t, arm in enumerate(self.model.interventions, 1)
        }
        dataset = None
        if self.cohorts is not None:
            codes, covs, ys = zip(*self.cohorts[r])
            dataset = {
                "arm": self.names[np.concatenate(codes)].tolist(),
                "covariates": {k: np.concatenate([c[k] for c in covs]).tolist() for k in covs[0]},
                "response": np.concatenate(ys).tolist(),
            }
        return TrialResult(
            seed=self.seeds[r],
            arms=self.model.interventions,
            decisions=decisions,
            sample_sizes=dict(zip(arms, counts)),
            total_size=sum(counts),
            stop_reason=STOP_REASONS[stop],
            looks_performed=looks,
            estimate_mean=_by_arm(arms, est_mean, self.targets),
            estimate_sd=_by_arm(arms, est_sd, self.targets),
            non_converged_fits=non_converged,
            history=None if self.history is None else self.history[r],
            dataset=dataset,
        )


# the per-row trial state of a block's live rows (``_Block.keep``)
_LIVE_STATE = (
    "active", "count", "total", "square", "allocation", "efficacy", "futility",
    "decision_look", "est_mean", "est_sd", "non_converged",
)


def _arm_deltas(matrix, targets, n_arms: int) -> np.ndarray:
    """Per-target delta rows placed at their arms' rows; NaN where disabled."""
    deltas = np.full((n_arms, len(matrix[0])), np.nan)
    deltas[targets] = np.array(matrix, dtype=float)
    return deltas


def _by_arm(arms, values: list[float], index) -> dict[str, float | None]:
    """Arm-name dict of ``values`` at the arm positions in ``index``, with
    None for NaN."""
    return {arms[i]: None if math.isnan(values[i]) else values[i] for i in index}


def _rescale(weights: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Restrict weights to active arms and renormalise, row by row; dropped
    arms get 0."""
    live = np.where(active, np.abs(weights), 0.0)
    # running sum, left to right: numpy's pairwise sum can round differently
    total = live.cumsum(axis=-1)[..., -1:]
    # a row whose remaining arms all carry zero weight gets equal shares
    even = active / np.count_nonzero(active, axis=-1, keepdims=True)
    return np.where(total == 0.0, even, live / np.where(total == 0.0, 1.0, total))
