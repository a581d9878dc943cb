"""Adaptation-rule formulas against hand-derived values and properties."""

import math

import numpy as np
import pytest

from mamsim import rules
from mamsim.engine import run_block
from mamsim.reference import (
    RuleContext,
    efficacy_arm,
    futility_arm,
    normalize_allocation,
    rar_weights,
    trial_stop,
)
from mamsim.rules import ArmDecision, RuleError, RuleSpec, delta_from_orr

from trial_designs import gaussian_two_stage_design, validated


def make_ctx(posterior, n, active=None, prob=None, n_max=260, m=40, look=1, is_final=False):
    arms = len(n)
    active = tuple(active) if active is not None else (True,) * arms
    prob = tuple(prob) if prob is not None else tuple(
        1.0 / sum(active) for a in range(arms) if active[a]
    )
    return RuleContext(
        active=active,
        posterior=tuple(posterior),
        n=tuple(n),
        ref=(True,) + (False,) * (arms - 1),
        prob=prob,
        m=m,
        n_max=n_max,
        look_index=look,
        is_final=is_final,
    )


class TestEfficacyArm:
    def test_fixed_threshold(self):
        rule = RuleSpec("fixed", {"b_e": 0.05})
        ctx = make_ctx([0.96, 0.94], [20, 20, 20])
        assert list(efficacy_arm(ctx, rule)) == [True, False]

    def test_infofract_full_information(self):
        rule = RuleSpec("infofract", {"b": 0.009, "p": 3.0})
        ctx = make_ctx([0.9905, 0.9915], [90, 85, 85], n_max=260)
        # sum(n) = N: threshold is exactly 1 - b = 0.991
        assert sum(ctx.n) == 260
        assert list(efficacy_arm(ctx, rule)) == [False, True]

    def test_infofract_early_threshold_value(self):
        threshold = 1.0 - 0.009 * (100.0 / 260.0) ** 3
        rule = RuleSpec("infofract", {"b": 0.009, "p": 3.0})
        just_below = make_ctx([threshold - 1e-9], [50, 50], n_max=260)
        just_above = make_ctx([threshold + 1e-9], [50, 50], n_max=260)
        assert not efficacy_arm(just_below, rule)[0]
        assert efficacy_arm(just_above, rule)[0]
        assert threshold == pytest.approx(0.99949, abs=5e-6)

    def test_infofract_threshold_tightens_early(self):
        # the threshold never increases with information and lands on 1 - b
        rule = RuleSpec("infofract", {"b": 0.009, "p": 3.0})
        previous = 1.0
        for total in range(10, 261, 10):
            threshold = 1.0 - 0.009 * (total / 260.0) ** 3
            assert threshold <= previous
            previous = threshold
            ctx = make_ctx([threshold + 1e-9], [total - 5, 5], n_max=260)
            assert efficacy_arm(ctx, rule)[0]
            ctx = make_ctx([threshold - 1e-9], [total - 5, 5], n_max=260)
            assert not efficacy_arm(ctx, rule)[0]
        assert previous == pytest.approx(1.0 - 0.009, abs=1e-15)

    def test_parameter_validation(self):
        ctx = make_ctx([0.5], [10, 10])
        with pytest.raises(RuleError, match="missing parameter"):
            efficacy_arm(ctx, RuleSpec("fixed", {}))
        with pytest.raises(RuleError, match=r"\(0, 1\)"):
            efficacy_arm(ctx, RuleSpec("fixed", {"b_e": 1.5}))
        with pytest.raises(RuleError, match="unknown"):
            efficacy_arm(ctx, RuleSpec("nope", {}))

    def test_parameters_must_be_exactly_the_required_ones(self):
        both = r"^missing parameter\(s\): eta, nu; unexpected parameter\(s\): x$"
        with pytest.raises(RuleError, match=both):
            rules.check_rule("rar", RuleSpec("trippa", {"gamma": 3.0, "x": 1.0}))
        with pytest.raises(RuleError, match=r"^unexpected parameter\(s\): b$"):
            rules.check_rule("eff_arm", RuleSpec("fixed", {"b_e": 0.05, "b": 0.1}))


class TestFutilityArm:
    def test_fixed_boundary(self):
        rule = RuleSpec("fixed", {"b_f": 0.1})
        ctx = make_ctx([0.04, 0.2], [20, 20, 20])
        assert list(futility_arm(ctx, rule)) == [True, False]

    def test_increasing_equals_bf_at_full_information(self):
        rule = RuleSpec("increasing", {"b_f": 0.3, "p_f": 2.0})
        ctx = make_ctx([0.3 - 1e-12, 0.3], [130, 65, 65], n_max=260)
        assert list(futility_arm(ctx, rule)) == [True, False]

    def test_increasing_half_information(self):
        # boundary 0.1 * 0.5^1 = 0.05
        rule = RuleSpec("increasing", {"b_f": 0.1, "p_f": 1.0})
        ctx = make_ctx([0.04, 0.06], [65, 33, 32], n_max=260)
        assert sum(ctx.n) / ctx.n_max == pytest.approx(0.5)
        assert list(futility_arm(ctx, rule)) == [True, False]

    def test_boundary_never_exceeds_bf(self):
        rule = RuleSpec("increasing", {"b_f": 0.25, "p_f": 1.7})
        for total in (30, 90, 180, 259):
            boundary = 0.25 * (total / 260.0) ** 1.7
            assert boundary <= 0.25
            ctx = make_ctx([boundary + 1e-9], [total - 10, 10], n_max=260)
            assert not futility_arm(ctx, rule)[0]


class TestTrialStop:
    def test_any_arm_efficacious(self):
        decisions = [ArmDecision(efficacy_met=True), ArmDecision()]
        ctx = make_ctx([], [10, 5, 5])
        verdict = trial_stop(
            decisions, ctx, RuleSpec("any_arm_efficacious"), RuleSpec("never")
        )
        assert verdict == "stop_efficacy"

    def test_all_arms_futile_waits_for_all(self):
        decisions = [ArmDecision(futility_met=True)] * 4 + [ArmDecision()]
        ctx = make_ctx([], [10] + [5] * 5, n_max=300)
        verdict = trial_stop(decisions, ctx, RuleSpec("never"), RuleSpec("all_arms_futile"))
        assert verdict == "continue"
        decisions = [ArmDecision(futility_met=True)] * 5
        assert (
            trial_stop(decisions, ctx, RuleSpec("never"), RuleSpec("all_arms_futile"))
            == "stop_futility"
        )

    def test_never_rules_continue(self):
        decisions = [ArmDecision(futility_met=True)] * 3
        ctx = make_ctx([], [10, 5, 5, 5])
        assert trial_stop(decisions, ctx, RuleSpec("never"), RuleSpec("never")) == "continue"


class TestRarWeights:
    def test_control_weight_at_equal_counts(self):
        # max intervention count equals the control count: exp(0)/K = 1/5
        ctx = make_ctx([0.5] * 5, [10] * 6, n_max=300)
        weights = rar_weights(ctx, RuleSpec("trippa", {"gamma": 1, "eta": 1, "nu": 0.25}))
        assert weights[0] == pytest.approx(0.2, abs=1e-12)

    def test_equal_posteriors_share_equally(self):
        ctx = make_ctx([0.4] * 5, [12, 10, 11, 9, 10, 8], n_max=300)
        weights = rar_weights(ctx, RuleSpec("trippa", {"gamma": 3, "eta": 0.75, "nu": 0.25}))
        np.testing.assert_allclose(weights[1:], 0.2, atol=1e-12)

    def test_hand_derived_intervention_split(self):
        # posteriors [0.9, 0.1], h = 1 * 0.5^1 = 0.5: split is exactly 3:1
        ctx = make_ctx([0.9, 0.1], [44, 43, 43], n_max=260)
        assert sum(ctx.n) / ctx.n_max == pytest.approx(0.5)
        weights = rar_weights(ctx, RuleSpec("trippa", {"gamma": 1.0, "eta": 1.0, "nu": 1.0}))
        assert weights[1] == pytest.approx(0.75, abs=1e-12)
        assert weights[2] == pytest.approx(0.25, abs=1e-12)

    def test_max_over_active_interventions_only(self):
        # the dropped arm's larger count must not drive the control weight
        ctx = make_ctx(
            [0.5],
            [10, 30, 12],
            active=[True, False, True],
            prob=[0.5, 0.5],
        )
        weights = rar_weights(ctx, RuleSpec("trippa", {"gamma": 1, "eta": 1, "nu": 1.0}))
        assert weights[0] == pytest.approx(math.exp(12 - 10) / 1.0)
        assert len(weights) == 2

    def test_scale_invariance_of_posterior_ratios(self):
        rule = RuleSpec("trippa", {"gamma": 2.0, "eta": 0.5, "nu": 0.25})
        a = rar_weights(make_ctx([0.8, 0.2, 0.4], [10] * 4, n_max=300), rule)
        b = rar_weights(make_ctx([0.4, 0.1, 0.2], [10] * 4, n_max=300), rule)
        np.testing.assert_allclose(a[1:], b[1:], atol=1e-12)

    def test_all_zero_posteriors_rejected(self):
        ctx = make_ctx([0.0, 0.0], [10, 10, 10])
        with pytest.raises(RuleError, match="zero"):
            rar_weights(ctx, RuleSpec("trippa", {"gamma": 1, "eta": 1, "nu": 1}))


class TestNormalizeAllocation:
    def test_equal_weights(self):
        np.testing.assert_allclose(normalize_allocation([1, 1, 1, 1]), 0.25)

    def test_rescale_after_drop(self):
        np.testing.assert_allclose(normalize_allocation([1, 1, 1]), 1 / 3)

    def test_absolute_value_semantics(self):
        np.testing.assert_allclose(normalize_allocation([-0.2, 0.2]), [0.5, 0.5])

    def test_all_zero_rejected(self):
        with pytest.raises(RuleError):
            normalize_allocation([0.0, 0.0])


class TestDeltaFromOrr:
    def test_ten_point_lift(self):
        assert delta_from_orr(0.4, 0.1) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_zero_lift(self):
        assert delta_from_orr(0.4, 0.0) == 0.0

    def test_thirty_point_lift(self):
        assert delta_from_orr(0.4, 0.3) == pytest.approx(math.log(3.5), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(RuleError):
            delta_from_orr(0.4, 0.6)
        with pytest.raises(RuleError):
            delta_from_orr(0.0, 0.1)


class TestContextInvariants:
    def test_exactly_one_reference(self):
        with pytest.raises(RuleError, match="reference"):
            RuleContext(
                active=(True, True), posterior=(0.5,), n=(5, 5),
                ref=(True, True), prob=(0.5, 0.5), m=5, n_max=50,
                look_index=0, is_final=False,
            )

    def test_control_never_dropped(self):
        with pytest.raises(RuleError, match="reference"):
            RuleContext(
                active=(False, True), posterior=(0.5,), n=(5, 5),
                ref=(True, False), prob=(1.0,), m=5, n_max=50,
                look_index=0, is_final=False,
            )

    def test_posterior_bounds(self):
        with pytest.raises(RuleError, match="posterior"):
            make_ctx([1.2], [5, 5])

    def test_counts_capped_by_n_max(self):
        with pytest.raises(RuleError, match="maximum sample size"):
            make_ctx([0.5], [40, 30], n_max=50)

    def test_rules_are_pure(self):
        ctx = make_ctx([0.7, 0.3], [30, 20, 20], n_max=260)
        rule = RuleSpec("trippa", {"gamma": 2, "eta": 1, "nu": 0.5})
        first = rar_weights(ctx, rule)
        second = rar_weights(ctx, rule)
        np.testing.assert_array_equal(first, second)


def test_registry_extension_hook(monkeypatch):
    # a block-form futility family that stops every arm it is given a tail for
    def always(tails, block, params):
        return ~np.isnan(tails)

    monkeypatch.setitem(rules._REGISTRY["fut_arm"], "always", ((), always))
    ctx = make_ctx([0.99], [5, 5], n_max=50, m=5)
    assert list(futility_arm(ctx, RuleSpec("always", {}))) == [True]

    # the engine applies it too: every replicate stops at its first look
    # with every intervention futile
    doc = gaussian_two_stage_design(fut_arm_rule={"family": "always"})
    for result in run_block(validated(doc), range(1, 21)):
        assert result.looks_performed == 1
        assert result.stop_reason == "all_decided"
        assert all(d.futility_met and d.look_index == 0 for d in result.decisions.values())
