"""Trial-loop behaviour: schedules, stopping, determinism, diagnostics."""

import json
import math
import random

import numpy as np
import pytest

from mamsim import engine, glm, reference, rules
from mamsim.engine import cohort_sizes, run_trial
from mamsim.records import RecordError, RecordSchema, encode

from quadrature_oracle import quadrature_oracle_prob
from test_golden import DESIGNS as GOLDEN_DESIGNS
from trial_designs import (
    binary_six_arm_design,
    count_dose_design,
    gaussian_two_stage_design,
    validated,
)


def test_cohort_sizes_from_schedule():
    spec = validated(count_dose_design()).spec
    assert cohort_sizes(spec) == [100, 40, 40, 40, 40]


def test_same_seed_is_bit_identical():
    v = validated(count_dose_design())
    a = run_trial(v, 17)
    b = run_trial(v, 17)
    assert encode(a) == encode(b)


def test_single_interim_runs_two_looks():
    # deltas disabled everywhere: no decisions can occur, so the trial runs
    # to the maximum size with exactly one interim plus the final look
    doc = gaussian_two_stage_design(
        interim_recruited=[20], delta_eff=None, delta_fut=None
    )
    v = validated(doc)
    for seed in (1, 2, 3):
        result = run_trial(v, seed)
        assert result.looks_performed == 2
        assert result.total_size == 60
        assert result.stop_reason == "reached_max"
        assert all(d.decision == "none" for d in result.decisions.values())


def test_totals_follow_interim_grid():
    v = validated(count_dose_design())
    for seed in range(1, 8):
        result = run_trial(v, seed)
        assert result.total_size in {100, 140, 180, 220, 260}
        assert result.total_size == sum(result.sample_sizes.values())


def test_no_early_efficacy_when_interim_deltas_absent():
    v = validated(binary_six_arm_design("alternative"))
    for seed in range(1, 6):
        result = run_trial(v, seed)
        for d in result.decisions.values():
            if d.efficacy_met:
                assert d.timing == "last"


def test_counts_freeze_after_drop():
    v = validated(count_dose_design(extended=1))
    result = run_trial(v, 5)
    previous = {arm: 0 for arm in result.sample_sizes}
    dropped_at = {}
    for record in result.history:
        for arm, n in record.n_per_arm.items():
            assert n >= previous[arm]
            if arm in dropped_at and record.look_index > dropped_at[arm]:
                assert n == previous[arm]
            previous[arm] = n
        for arm, is_active in record.active.items():
            if not is_active and arm not in dropped_at:
                dropped_at[arm] = record.look_index


def test_allocation_sums_to_one_over_active():
    # each cohort's recruitment probabilities cover exactly the arms that
    # were active after the previous look, and always sum to 1
    v = validated(binary_six_arm_design("null", extended=1))
    result = run_trial(v, 3)
    assert result.history[0].allocation == dict(v.spec.prob0)
    previous_active = {arm: True for arm in v.spec.model.arm_names}
    for record in result.history:
        live = sum(
            p for arm, p in record.allocation.items() if previous_active[arm]
        )
        assert live == pytest.approx(1.0, abs=1e-12)
        for arm, was_active in previous_active.items():
            if not was_active:
                assert record.allocation[arm] == 0.0
        assert record.active[v.spec.model.control]
        previous_active = record.active


def test_both_criteria_recorded_and_arm_dropped():
    # thresholds arranged so any mid-range posterior meets both criteria
    doc = gaussian_two_stage_design(
        eff_arm_rule={"family": "fixed", "params": {"b_e": 0.99}},
        fut_arm_rule={"family": "fixed", "params": {"b_f": 0.99}},
    )
    v = validated(doc)
    result = run_trial(v, 1)
    assert any(d.decision == "both" for d in result.decisions.values())
    decided = [arm for arm, d in result.decisions.items() if d.decision == "both"]
    last_count = {arm: result.sample_sizes[arm] for arm in decided}
    assert result.total_size <= 60
    # a both-decision deactivates the arm like any other decision
    assert all(
        result.decisions[arm].look_index is not None for arm in decided
    )
    assert last_count


def test_trial_rule_stop_efficacy():
    doc = gaussian_two_stage_design(
        eff_trial_rule={"family": "any_arm_efficacious"},
        beta_true=[0.0, 3.0, 3.0],
    )
    v = validated(doc)
    seen = set()
    for seed in range(1, 6):
        result = run_trial(v, seed)
        seen.add(result.stop_reason)
    assert "trial_rule_efficacy" in seen


def test_engine_guard_stops_when_all_arms_decided():
    doc = gaussian_two_stage_design(beta_true=[0.0, -3.0, -3.0])
    v = validated(doc)
    result = run_trial(v, 2)
    assert result.stop_reason in {"all_decided", "reached_max"}
    if result.stop_reason == "all_decided":
        assert result.total_size < 60


def test_non_converged_fit_skips_look(monkeypatch):
    v = validated(gaussian_two_stage_design(extended=1))
    real_fit = glm.fit_laplace_batch
    calls = {"n": 0}

    def flaky_fit(*args, **kwargs):
        calls["n"] += 1
        fit = real_fit(*args, **kwargs)
        if calls["n"] == 1:
            fit.converged[:] = False
        return fit

    monkeypatch.setattr(engine.glm, "fit_laplace_batch", flaky_fit)
    result = run_trial(v, 1)
    assert result.non_converged_fits == 1
    first = result.history[0]
    assert not first.fit_converged
    # no decisions at the skipped look, and burn-in allocation kept
    assert all(v is None for v in first.eff_posterior.values())
    assert all(d.look_index != 0 for d in result.decisions.values() if d.decided)
    assert first.allocation == dict(v.spec.prob0)


@pytest.mark.parametrize(
    "design",
    # the six-arm block allocates by RAR in the rows with tails and keeps
    # the allocation of the row without, at a look with no efficacy delta
    [count_dose_design(extended=1), binary_six_arm_design("alternative", extended=1)],
    ids=["count-dose", "six-arm-rar"],
)
def test_one_non_converged_fit_leaves_the_block_unaffected(design, monkeypatch):
    v = validated(design)
    seeds = [3, 4, 5]
    alone = {s: encode(run_trial(v, s)) for s in seeds}
    real_fit = glm.fit_laplace_batch
    calls = {"n": 0}

    def flaky_fit(*args, **kwargs):
        calls["n"] += 1
        fit = real_fit(*args, **kwargs)
        if calls["n"] == 1:
            fit.converged[1] = False  # seed 4 at the first look
        return fit

    monkeypatch.setattr(engine.glm, "fit_laplace_batch", flaky_fit)
    block = engine.run_block(v, seeds)
    assert [r.non_converged_fits for r in block] == [0, 1, 0]
    assert not block[1].history[0].fit_converged
    for seed, result in zip(seeds, block):
        if seed != 4:
            assert encode(result) == alone[seed]


def test_extended_two_stores_dataset():
    v = validated(gaussian_two_stage_design(extended=2))
    result = run_trial(v, 4)
    assert result.dataset is not None
    assert len(result.dataset["arm"]) == result.total_size
    assert len(result.dataset["response"]) == result.total_size
    arms = v.spec.model.arm_names
    assert set(result.dataset["arm"]) <= set(arms)
    assert [result.dataset["arm"].count(a) for a in arms] == [
        result.sample_sizes[a] for a in arms
    ]


def test_estimates_taken_at_decision_look():
    v = validated(count_dose_design(extended=1))
    result = run_trial(v, 3)
    for arm, decision in result.decisions.items():
        if decision.decided:
            record = result.history[decision.look_index]
            assert result.estimate_mean[arm] == record.estimate_mean[arm]
            assert result.estimate_sd[arm] == record.estimate_sd[arm]


def test_adding_covariate_does_not_perturb_response_draws():
    # purpose-keyed substreams: a new zero-effect covariate changes the
    # model matrix but must leave allocation and response draws untouched
    base = gaussian_two_stage_design(
        delta_eff=None, delta_fut=None, extended=2, replicates=1
    )
    with_cov = gaussian_two_stage_design(
        delta_eff=None, delta_fut=None, extended=2, replicates=1,
        beta_true=[0.0, 1.0, 0.0, 0.0],
    )
    with_cov["model"] = dict(with_cov["model"])
    with_cov["model"]["covariates"] = [
        {"name": "age", "generator": "normal", "params": {"mean": 0, "sd": 1}}
    ]
    r_base = run_trial(validated(base), 7)
    r_cov = run_trial(validated(with_cov), 7)
    assert r_base.dataset["arm"] == r_cov.dataset["arm"]
    assert r_base.dataset["response"] == r_cov.dataset["response"]
    assert "age" in r_cov.dataset["covariates"]


def test_final_fit_agrees_with_quadrature_on_engine_data():
    # cross-module check: rebuild the model from a replicate's stored
    # dataset and compare the engine-style tail probability with the
    # independent quadrature oracle
    from types import SimpleNamespace

    doc = {
        "model": {
            "response": "y",
            "treatment": "treatment",
            "arms": ["control", "X"],
            "family": "binomial",
            "link": "logit",
        },
        "beta_true": [0.1, 0.2],
        "targets": [1],
        "alternative": "greater",
        "n_max": 240,
        "interim_recruited": [120],
        "prob0": {"control": 1, "X": 1},
        "allocation": "balanced",
        "delta_eff": None,
        "delta_fut": None,
        "eff_arm_rule": {"family": "fixed", "params": {"b_e": 0.05}},
        "fut_arm_rule": {"family": "fixed", "params": {"b_f": 0.05}},
        "extended": 2,
    }
    v = validated(doc)
    result = run_trial(v, 21)
    data = SimpleNamespace(
        arm=np.array(result.dataset["arm"]),
        covariates={},
        response=np.array(result.dataset["response"], dtype=float),
    )
    design, y = reference.build_design_matrix(data, v.spec.model)
    fit = reference.fit_laplace(design, y, "binomial", "logit", {})
    assert fit.converged
    for delta in (0.0, 0.3):
        lap = reference.marginal_posterior_prob(fit, 1, delta, "greater")
        orc = quadrature_oracle_prob(
            design, y, "binomial", "logit", {}, glm.default_prior(2), 1, delta, "greater"
        )
        assert abs(lap - orc) < 5e-3
    # the stored estimate is the final fit's marginal for the target
    assert result.estimate_mean["X"] == pytest.approx(float(fit.marginal_mean[1]))


def test_result_round_trips_through_dict():
    v = validated(count_dose_design(extended=1))
    result = run_trial(v, 9)
    again = RecordSchema(v).result(json.loads(encode(result)))
    assert encode(again) == encode(result)
    assert again == result


def test_schema_reads_dataset_arms_as_the_design_strings():
    # a record's arm column holds one string object per arm, not per subject
    v = validated(gaussian_two_stage_design(extended=2))
    result = RecordSchema(v).result(json.loads(encode(run_trial(v, 4))))
    design = {id(a) for a in v.spec.model.arm_names}
    assert {id(a) for a in result.dataset["arm"]} <= design
    assert result.dataset["arm"] == run_trial(v, 4).dataset["arm"]


def test_encode_refuses_non_finite_floats():
    # strict JSON has no NaN or infinity, and a shard must read back
    result = run_trial(validated(count_dose_design()), 9)
    assert encode(result)
    result.estimate_mean["A"] = math.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        encode(result)


@pytest.mark.parametrize("extended", [0, 1, 2])
def test_schema_holds_history_and_dataset_by_extended(extended):
    # a result holds history from extended 1 on and dataset at 2, no sooner
    v = validated(gaussian_two_stage_design(extended=extended))
    doc = json.loads(encode(run_trial(v, 4)))
    schema = RecordSchema(v)
    assert encode(schema.result(doc)) == encode(run_trial(v, 4))
    for name in ("history", "dataset")[:extended]:
        with pytest.raises(RecordError, match=f"TrialResult without {name}"):
            schema.result({k: value for k, value in doc.items() if k != name})
    for name in ("history", "dataset")[extended:]:
        with pytest.raises(RecordError, match=f"TrialResult with unexpected {name}"):
            schema.result({**doc, name: [] if name == "history" else {}})


def test_rar_allocation_ignores_target_listing_order():
    # RAR weights belong to the arms in arm order whatever order the
    # targets are listed in; the rows of every margin are identical here
    # so both documents describe the same trial
    listed = validated(binary_six_arm_design("alternative", extended=1))
    reversed_ = validated(
        binary_six_arm_design("alternative", extended=1, targets=[5, 4, 3, 2, 1])
    )
    for seed in range(1, 11):
        assert encode(run_trial(listed, seed)) == encode(run_trial(reversed_, seed))


def test_rescale_restricts_to_active_arms():
    active = np.array([True, False, True, True])
    np.testing.assert_array_equal(
        engine._rescale(np.array([1.0, 5.0, 1.0, 2.0]), active),
        [0.25, 0.0, 0.25, 0.5],
    )
    # only zero weights left: equal shares over the active arms
    np.testing.assert_array_equal(
        engine._rescale(np.array([0.0, 1.0, 0.0, 0.0]), active),
        [1 / 3, 0.0, 1 / 3, 1 / 3],
    )


def _record_texts(results):
    return {r.seed: encode(r) for r in results}


@pytest.mark.parametrize("name", sorted(GOLDEN_DESIGNS))
def test_block_composition_leaves_records_unchanged(name):
    # a replicate's bytes depend on its seed alone: one block of 200, 200
    # blocks of one and a shuffled block give the same records
    doc = GOLDEN_DESIGNS[name]()
    doc["extended"] = 1
    v = validated(doc)
    seeds = list(range(1, 201))
    one_block = _record_texts(engine.run_block(v, seeds))
    assert list(one_block) == seeds
    singles = _record_texts(engine.run_block(v, [s])[0] for s in seeds)
    assert singles == one_block
    shuffled = list(seeds)
    random.Random(name).shuffle(shuffled)
    assert _record_texts(engine.run_block(v, shuffled)) == one_block


def test_block_composition_with_covariate_rows():
    # per-subject fits of a non-gaussian family, whose Hessian weights vary
    # from subject to subject
    doc = binary_six_arm_design("alternative", extended=1, interim_recruited=[60, 120])
    doc["delta_eff"] = 0.0
    doc["beta_true"] = list(doc["beta_true"]) + [0.7]
    doc["model"] = dict(doc["model"])
    doc["model"]["covariates"] = [
        {"name": "score", "generator": "uniform", "params": {"low": -1, "high": 1}}
    ]
    v = validated(doc)
    seeds = list(range(1, 41))
    one_block = _record_texts(engine.run_block(v, seeds))
    assert _record_texts(engine.run_block(v, [s])[0] for s in seeds) == one_block
    assert _record_texts(engine.run_block(v, seeds[::-1])) == one_block


@pytest.mark.parametrize(
    "doc, constant, value, largest",
    [
        (gaussian_two_stage_design(), "BLOCK_SIZE", 3, 3),
        # each replicate stacks n_max = 60 rows of p = 4 floats: room for two
        (GOLDEN_DESIGNS["gaussian_with_covariate"](), "BLOCK_BYTES", 2 * 60 * 4 * 8 + 7, 2),
        # a budget below one replicate's rows still runs blocks of one
        (GOLDEN_DESIGNS["gaussian_with_covariate"](), "BLOCK_BYTES", 1, 1),
    ],
    ids=["replicates", "covariate-bytes", "covariate-floor"],
)
def test_blocks_are_capped(monkeypatch, doc, constant, value, largest):
    v = validated(doc)
    seeds = list(range(1, 8))
    whole = _record_texts(engine.run_block(v, seeds))
    monkeypatch.setattr(engine, constant, value)
    sizes = []
    real_fit = glm.fit_laplace_batch

    def counting_fit(data, *args, **kwargs):
        sizes.append(data.shape[0])
        return real_fit(data, *args, **kwargs)

    monkeypatch.setattr(engine.glm, "fit_laplace_batch", counting_fit)
    assert _record_texts(engine.run_block(v, seeds)) == whole
    assert max(sizes) == largest


# 7 rows x 2 streams x 8 bytes: a budget of 84 subjects holds the first
# three looks (60 + 12 + 12); a budget of 1 only ever the look at hand
@pytest.mark.parametrize("budget, first_run", [(1, 1), (7 * 2 * 8 * 84, 3)])
def test_block_draws_cut_into_runs_of_looks(monkeypatch, budget, first_run):
    # a block's uniforms come from one Philox pass unless they would exceed
    # BLOCK_BYTES; cut into runs of looks, they give the same records
    v = validated(binary_six_arm_design("alternative", extended=1))
    seeds = list(range(1, 8))
    whole = _record_texts(engine.run_block(v, seeds))
    passes = []
    real_uniforms = engine.datagen.stream_uniforms

    def counting_uniforms(keys, sizes):
        passes.append(len(sizes))
        return real_uniforms(keys, sizes)

    monkeypatch.setattr(engine.datagen, "stream_uniforms", counting_uniforms)
    assert _record_texts(engine.run_block(v, seeds)) == whole
    assert passes == [14]
    monkeypatch.setattr(engine, "BLOCK_BYTES", budget)
    passes.clear()
    assert _record_texts(engine.run_block(v, seeds)) == whole
    assert passes[0] == first_run and len(passes) > 1


def test_one_solve_per_newton_step_and_one_check_per_rule(monkeypatch):
    # the fixed cost of a block, guarded by call counts rather than timers:
    # a look-fit solves once per Newton step of its slowest row and once for
    # the covariances, and each rule is checked once for the whole block
    v = validated(binary_six_arm_design("alternative"))
    real_solve, real_fit, real_check = np.linalg.solve, glm.fit_laplace_batch, rules.check_rule
    solves, checks, looks = [0], [], []

    def solve(a, b):
        solves[0] += 1
        return real_solve(a, b)

    def solves_of(data):
        start = solves[0]
        real_fit(data, "binomial", {})
        return solves[0] - start

    def fit(data, *args, **kwargs):
        start = solves[0]
        result = real_fit(data, *args, **kwargs)
        block = solves[0] - start
        # each row alone: its Newton steps, plus one solve at its mode
        steps = [solves_of(data.take([r])) - 1 for r in range(data.shape[0])]
        looks.append((block, max(steps) + 1))
        return result

    def check(kind, rule):
        checks.append(kind)
        return real_check(kind, rule)

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(engine.glm, "fit_laplace_batch", fit)
    monkeypatch.setattr(rules, "check_rule", check)
    engine.run_block(v, range(1, 9))
    assert sorted(checks) == ["eff_arm", "eff_trial", "fut_arm", "fut_trial", "rar"]
    assert len(looks) >= len(v.spec.interim_recruited)
    assert all(block == expected for block, expected in looks)
