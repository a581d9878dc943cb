"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with the measured values once its assertions
hold (run with ``pytest -s`` to see them).  The Monte Carlo criteria pin
the expected operating characteristics with explicit tolerance bands; all
randomness is seed-fixed, so reruns are exact.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import expit, ndtr

from mamsim import glm, oracle, reference
from mamsim.engine import encode, run_trial
from mamsim.montecarlo import (
    combine_shards,
    read_shard_sections,
    run_batch,
    save_shard,
)
from mamsim.report import operating_characteristics
from mamsim.rules import (
    RuleContext,
    RuleSpec,
    delta_from_orr,
    efficacy_arm,
    futility_arm,
    normalize_allocation,
    rar_weights,
)

from trial_designs import binary_six_arm_design, count_dose_design, validated

WORKERS = 8


def _pass(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def in_band(value, center, tol):
    return center - tol <= value <= center + tol


# --------------------------------------------------------------------------
# shared 2000-replicate batches
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def binary_null_fixed():
    v = validated(binary_six_arm_design("null", "fixed", replicates=2000))
    start = time.perf_counter()
    batch = run_batch(v, workers=WORKERS)
    elapsed = time.perf_counter() - start
    return operating_characteristics(batch.results, 216), elapsed


@pytest.fixture(scope="module")
def binary_alt_fixed():
    v = validated(binary_six_arm_design("alternative", "fixed", replicates=2000))
    return operating_characteristics(run_batch(v, workers=WORKERS).results, 216)


def test_criterion_01_gaussian_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 201))
        p = int(rng.integers(1, 5))
        x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        sigma = float(rng.uniform(0.5, 2.5))
        y = x @ rng.normal(size=p) + rng.normal(0, sigma, n)
        prior = glm.PriorSpec(rng.normal(0, 1, p), rng.uniform(0.001, 0.5, p))
        fit = reference.fit_laplace(x, y, "gaussian", "identity", {"sd": sigma}, prior)
        precision = np.diag(prior.precision) + x.T @ x / sigma**2
        cov = np.linalg.inv(precision)
        mean = cov @ (prior.precision * prior.mean + x.T @ y / sigma**2)
        sd = np.sqrt(np.diag(cov))
        k = int(rng.integers(0, p))
        delta = float(mean[k] + rng.uniform(-3, 3) * sd[k])
        tail = float(ndtr(-(delta - mean[k]) / sd[k]))
        worst = max(
            worst,
            float(np.max(np.abs(fit.marginal_mean - mean))),
            float(np.max(np.abs(fit.marginal_sd - sd))),
            abs(reference.marginal_posterior_prob(fit, k, delta, "greater") - tail),
        )
        assert fit.converged
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 1.0
    _pass("criterion 1 (gaussian exactness)", f"worst error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(1729)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        family = rng.choice(["binomial", "poisson"])
        p = int(rng.choice([1, 2, 2, 3], p=[0.3, 0.25, 0.25, 0.2]))
        n = int(rng.integers(200, 501))
        labels = np.repeat(np.arange(p), n // p + 1)[:n]
        x = np.zeros((n, p))
        x[:, 0] = 1.0
        for j in range(1, p):
            x[:, j] = labels == j
        if family == "binomial":
            beta = np.r_[rng.uniform(-0.15, 0.15), rng.uniform(-0.2, 0.2, p - 1)]
            y = rng.binomial(1, expit(x @ beta)).astype(float)
            link = "logit"
        else:
            beta = np.r_[rng.uniform(math.log(20), math.log(50)), rng.uniform(-0.25, 0.25, p - 1)]
            y = rng.poisson(np.exp(x @ beta)).astype(float)
            link = "log"
        prior = glm.default_prior(p)
        fit = reference.fit_laplace(x, y, family, link, {}, prior)
        assert fit.converged and n >= 50 and p <= 3
        k = int(rng.integers(0, p))
        delta = float(fit.marginal_mean[k] + rng.uniform(-2, 2) * fit.marginal_sd[k])
        direction = "greater" if rng.random() < 0.5 else "less"
        lap = reference.marginal_posterior_prob(fit, k, delta, direction)
        orc = oracle.quadrature_oracle_prob(x, y, family, link, {}, prior, k, delta, direction)
        worst = max(worst, abs(lap - orc))
    elapsed = time.perf_counter() - start
    assert worst < 5e-3
    assert elapsed < 60.0
    _pass("criterion 2 (oracle equivalence)", f"worst |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_rule_formulas():
    checks = []

    def ctx(posterior, n, n_max, active=None):
        arms = len(n)
        active = tuple(active) if active else (True,) * arms
        return RuleContext(
            active=active, posterior=tuple(posterior), n=tuple(n),
            ref=(True,) + (False,) * (arms - 1),
            prob=(1.0 / arms,) * arms, m=10, n_max=n_max,
            look_index=1, is_final=False,
        )

    # control allocation weight: exp(max(n_k) - n_0)^nu / K_j
    w = rar_weights(
        ctx([0.5] * 5, [10] * 6, 300),
        RuleSpec("trippa", {"gamma": 1.0, "eta": 1.0, "nu": 0.7}),
    )
    checks.append(abs(w[0] - 0.2))

    # intervention weights: posterior^h normalised, h = gamma*(sum n/N)^eta
    w = rar_weights(
        ctx([0.9, 0.1], [44, 43, 43], 260),
        RuleSpec("trippa", {"gamma": 1.0, "eta": 1.0, "nu": 1.0}),
    )
    checks.append(abs(w[1] - 0.75))
    checks.append(abs(w[2] - 0.25))

    # fixed futility: posterior < b_f
    flags = futility_arm(ctx([0.04, 0.2], [20, 20, 20], 300), RuleSpec("fixed", {"b_f": 0.1}))
    assert list(flags) == [True, False]

    # rising futility boundary: b_f * (sum n/N)^p_f
    boundary = 0.1 * 0.5**1.0
    flags = futility_arm(
        ctx([boundary - 1e-13, boundary + 1e-13], [65, 33, 32], 260),
        RuleSpec("increasing", {"b_f": 0.1, "p_f": 1.0}),
    )
    assert list(flags) == [True, False]

    # final-look efficacy: posterior > 1 - b_e
    flags = efficacy_arm(ctx([0.96, 0.94], [20, 20, 20], 300), RuleSpec("fixed", {"b_e": 0.05}))
    assert list(flags) == [True, False]

    # information-fraction efficacy threshold at full information
    threshold = 1.0 - 0.009 * (260.0 / 260.0) ** 3
    checks.append(abs(threshold - 0.991))
    threshold_early = 1.0 - 0.009 * (100.0 / 260.0) ** 3
    checks.append(abs(threshold_early - (1.0 - 0.009 * (5.0 / 13.0) ** 3)))

    # group-allocation normalisation |w| / sum|w|
    checks.append(abs(normalize_allocation([-0.2, 0.2])[0] - 0.5))
    checks.append(float(np.max(np.abs(normalize_allocation([1, 1, 1]) - 1.0 / 3.0))))

    # log-odds margin for an absolute response-rate lift
    checks.append(abs(delta_from_orr(0.4, 0.1) - math.log(1.5)))
    checks.append(abs(delta_from_orr(0.4, 0.3) - math.log(3.5)))
    checks.append(abs(delta_from_orr(0.4, 0.0)))

    worst = max(checks)
    assert worst < 1e-12
    _pass("criterion 3 (rule formulas)", f"worst deviation {worst:.2e}")


def test_criterion_04_binary_null_fixed_futility(binary_null_fixed):
    oc, elapsed = binary_null_fixed
    for arm in oc.arms:
        assert in_band(oc.decision_prob[arm]["efficacy"], 0.044, 0.020), arm
        assert in_band(oc.fut_early[arm], 0.59, 0.05), arm
    assert in_band(oc.any_effective, 0.154, 0.035)
    assert in_band(oc.size_stats["overall"].mean, 189.2, 6.0)
    assert elapsed < 900.0
    _pass(
        "criterion 4 (six-arm binary, null, fixed futility)",
        f"per-arm efficacy {[round(oc.decision_prob[a]['efficacy'], 3) for a in oc.arms]}, "
        f"any {oc.any_effective:.3f}, mean size {oc.size_stats['overall'].mean:.1f}, "
        f"{elapsed:.0f}s on {WORKERS} workers",
    )


def test_criterion_05_binary_alternative_fixed_futility(binary_alt_fixed):
    oc = binary_alt_fixed
    assert in_band(oc.decision_prob["E"]["efficacy"], 0.90, 0.03)
    assert in_band(oc.decision_prob["F"]["efficacy"], 0.90, 0.03)
    assert in_band(oc.decision_prob["D"]["efficacy"], 0.211, 0.04)
    assert in_band(oc.fut_early["B"], 0.51, 0.05)
    assert in_band(oc.fut_early["C"], 0.51, 0.05)
    assert in_band(oc.size_stats["overall"].mean, 215.5, 3.0)
    _pass(
        "criterion 5 (six-arm binary, alternative, fixed futility)",
        f"power E {oc.decision_prob['E']['efficacy']:.3f} F {oc.decision_prob['F']['efficacy']:.3f} "
        f"D {oc.decision_prob['D']['efficacy']:.3f}, mean size {oc.size_stats['overall'].mean:.1f}",
    )


def test_criterion_06_binary_rising_futility_boundary():
    v_null = validated(binary_six_arm_design("null", "increasing", replicates=2000))
    oc_null = operating_characteristics(run_batch(v_null, workers=WORKERS).results, 216)
    for arm in oc_null.arms:
        assert in_band(oc_null.decision_prob[arm]["efficacy"], 0.030, 0.015), arm
        assert in_band(oc_null.fut_early[arm], 0.947, 0.03), arm
    assert in_band(oc_null.size_stats["overall"].mean, 153.7, 8.0)

    v_alt = validated(binary_six_arm_design("alternative", "increasing", replicates=2000))
    oc_alt = operating_characteristics(run_batch(v_alt, workers=WORKERS).results, 216)
    assert in_band(oc_alt.decision_prob["E"]["efficacy"], 0.87, 0.03)
    assert in_band(oc_alt.decision_prob["F"]["efficacy"], 0.87, 0.03)
    assert in_band(oc_alt.fut_early["D"], 0.750, 0.05)
    _pass(
        "criterion 6 (six-arm binary, rising futility)",
        f"null efficacy {[round(oc_null.decision_prob[a]['efficacy'], 3) for a in oc_null.arms]}, "
        f"null mean size {oc_null.size_stats['overall'].mean:.1f}, "
        f"alt power E {oc_alt.decision_prob['E']['efficacy']:.3f} "
        f"F {oc_alt.decision_prob['F']['efficacy']:.3f}, early futility D {oc_alt.fut_early['D']:.3f}",
    )


def test_criterion_07_count_endpoint_design_aims():
    v = validated(count_dose_design(replicates=2000))
    batch = run_batch(v, workers=WORKERS)
    oc = operating_characteristics(batch.results, 260)
    assert oc.decision_prob["C"]["efficacy"] > 0.80
    assert oc.decision_prob["A"]["efficacy"] < 0.10
    assert oc.decision_prob["B"]["efficacy"] < 0.10
    allowed = {100, 140, 180, 220, 260}
    totals = {r.total_size for r in batch.results}
    assert totals <= allowed
    assert max(totals) <= 260
    _pass(
        "criterion 7 (count-endpoint design aims)",
        f"P(eff C) {oc.decision_prob['C']['efficacy']:.3f}, "
        f"P(eff A) {oc.decision_prob['A']['efficacy']:.3f}, "
        f"P(eff B) {oc.decision_prob['B']['efficacy']:.3f}, totals {sorted(totals)}",
    )


def test_criterion_08_parallel_determinism_and_partition(tmp_path):
    v = validated(count_dose_design(replicates=200))
    shards = {}
    for workers in (1, 4, 8):
        batch = run_batch(v, workers=workers)
        path = tmp_path / f"workers{workers}.shard"
        save_shard(batch, path)
        shards[workers] = read_shard_sections(path)[1]
    assert shards[1] == shards[4] == shards[8]

    mono = run_batch(v, workers=4)
    partitions = [
        (range(1, 101), range(101, 201)),
        (range(1, 201, 2), range(2, 201, 2)),
    ]
    for left_seeds, right_seeds in partitions:
        left = run_batch(v, seeds=left_seeds, workers=4)
        right = run_batch(v, seeds=right_seeds, workers=4)
        combined = combine_shards([left, right])
        assert combined.seeds == mono.seeds
        assert [encode(r) for r in combined.results] == [
            encode(r) for r in mono.results
        ]
    _pass(
        "criterion 8 (determinism)",
        "payloads identical for workers 1/4/8; 2-way partitions combine exactly",
    )


def test_criterion_09_combine_safety(tmp_path):
    from mamsim.montecarlo import ShardError

    v = validated(count_dose_design(replicates=2))
    a = run_batch(v, seeds=range(1, 6), workers=1)
    b = run_batch(v, seeds=range(4, 9), workers=1)
    with pytest.raises(ShardError, match="4, 5"):
        combine_shards([a, b])

    other = validated(
        count_dose_design(
            replicates=2, fut_arm_rule={"family": "fixed", "params": {"b_f": 0.3}}
        )
    )
    c = run_batch(other, seeds=[10], workers=1)
    with pytest.raises(ShardError, match=r"fut_arm_rule\.params\.b_f"):
        combine_shards([a, c])
    _pass(
        "criterion 9 (combine safety)",
        "seed overlap and design mismatch rejected with details",
    )


def test_criterion_10_pathological_spec_diagnostics():
    # an intervention with essentially zero response probability and two-
    # subject cohorts; every replicate must complete with diagnostics
    doc = {
        "model": {
            "response": "y",
            "treatment": "treatment",
            "arms": ["control", "X"],
            "family": "binomial",
            "link": "logit",
        },
        "beta_true": [math.log(0.4 / 0.6), -40.0],
        "targets": [1],
        "alternative": "greater",
        "n_max": 20,
        "interim_recruited": list(range(2, 20, 2)),
        "prob0": {"control": 1, "X": 1},
        "allocation": "balanced",
        "delta_eff": 0.0,
        "delta_fut": 0.0,
        "eff_arm_rule": {"family": "fixed", "params": {"b_e": 0.05}},
        "fut_arm_rule": {"family": "fixed", "params": {"b_f": 0.05}},
        "replicates": 200,
    }
    v = validated(doc)
    batch = run_batch(v, workers=WORKERS)
    assert len(batch.results) == 200
    total_skipped = sum(r.non_converged_fits for r in batch.results)
    for res in batch.results:
        assert res.total_size <= 20
        assert res.stop_reason in {"all_decided", "reached_max"}
        assert res.decisions["X"].decision in {"efficacy", "futility", "both", "none"}
        assert res.non_converged_fits >= 0
    _pass(
        "criterion 10 (pathological spec diagnostics)",
        f"200 replicates completed; {total_skipped} non-converged looks recorded",
    )
