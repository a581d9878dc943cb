"""Operating-characteristic aggregation and plot-table export."""

import pytest

from mamsim.records import TrialResult
from mamsim.montecarlo import BatchResult, run_batch
from mamsim.report import (
    ReportError,
    emit_plot_data,
    nearest_rank,
    operating_characteristics,
    summarize,
)
from mamsim.rules import ArmDecision

from trial_designs import gaussian_two_stage_design, validated


def fake_result(seed, decisions, sizes, total, timing="last"):
    arms = tuple(decisions)
    return TrialResult(
        seed=seed,
        arms=arms,
        decisions={
            arm: ArmDecision(
                efficacy_met=d in ("efficacy", "both"),
                futility_met=d in ("futility", "both"),
                timing=timing if d != "none" else "none",
                look_index=0 if d != "none" else None,
            )
            for arm, d in decisions.items()
        },
        sample_sizes=sizes,
        total_size=total,
        stop_reason="reached_max",
        looks_performed=2,
        estimate_mean={arm: 0.5 for arm in arms},
        estimate_sd={arm: 0.2 for arm in arms},
        non_converged_fits=0,
    )


def fake_batch(results, extended=0, n_max=60):
    doc = {
        "n_max": n_max,
        "model": {"arms": ["control"] + list(results[0].arms)},
    }
    return BatchResult(
        fingerprint="f" * 64,
        seeds=tuple(r.seed for r in results),
        extended=extended,
        spec_document=doc,
        results=results,
        results_null=None,
        engine_version="0.1.0",
        created_at="2026-01-01T00:00:00+00:00",
    )


def all_b_efficacious(n=10):
    results = []
    for seed in range(1, n + 1):
        results.append(
            fake_result(
                seed,
                {"B": "efficacy", "C": "none"},
                {"control": 20, "B": 20, "C": 20},
                60,
            )
        )
    return results


class TestOperatingCharacteristics:
    def test_certain_efficacy_at_final_look(self):
        oc = operating_characteristics(all_b_efficacious(), n_max=60)
        assert oc.decision_prob["B"]["efficacy"] == 1.0
        assert oc.eff_early["B"] == 0.0
        assert oc.eff_last["B"] == 1.0
        assert oc.any_effective == 1.0
        assert oc.all_effective == 0.0

    def test_probability_bounds_and_accounting(self):
        results = all_b_efficacious(6) + [
            fake_result(
                99,
                {"B": "futility", "C": "efficacy"},
                {"control": 10, "B": 5, "C": 15},
                30,
                timing="early",
            ),
            fake_result(
                100,
                {"B": "both", "C": "none"},
                {"control": 20, "B": 20, "C": 20},
                60,
            ),
        ]
        oc = operating_characteristics(results, n_max=60)
        per_arm_eff = [oc.decision_prob[a]["efficacy"] for a in oc.arms]
        assert oc.any_effective >= max(per_arm_eff)
        assert oc.all_effective <= min(per_arm_eff)
        for arm in oc.arms:
            assert sum(oc.decision_prob[arm].values()) == pytest.approx(1.0)
        assert sum(row.count for row in oc.decision_table) == oc.n_replicates
        assert oc.both_incidence == pytest.approx(1 / 8)

    def test_early_stop_proportion_in_table(self):
        results = all_b_efficacious(3) + [
            fake_result(
                50,
                {"B": "efficacy", "C": "none"},
                {"control": 10, "B": 10, "C": 10},
                30,
                timing="early",
            )
        ]
        oc = operating_characteristics(results, n_max=60)
        row = next(r for r in oc.decision_table if r.pattern == ("efficacy", "none"))
        assert row.count == 4
        assert row.proportion_early == pytest.approx(0.25)

    def test_empty_batch_rejected(self):
        with pytest.raises(ReportError):
            operating_characteristics([], n_max=60)


class TestNearestRank:
    def test_reference_values(self):
        values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert nearest_rank(values, 0.10) == 10
        assert nearest_rank(values, 0.50) == 50
        assert nearest_rank(values, 0.90) == 90
        assert nearest_rank([3], 0.5) == 3
        assert nearest_rank([1, 2], 0.5) == 1


class TestSummarize:
    def test_short_vs_full_sections(self):
        batch = fake_batch(all_b_efficacious())
        _, short = summarize(batch, full=False)
        _, full = summarize(batch, full=True)
        assert "sample sizes" not in short
        assert "sample sizes" in full
        assert "decision combinations" in full
        assert "both" not in short  # no both-criteria warning when absent

    def test_real_batch_summary_is_deterministic(self):
        v = validated(gaussian_two_stage_design(replicates=6))
        batch = run_batch(v, workers=1)
        text1 = summarize(batch, full=True)[1]
        text2 = summarize(batch, full=True)[1]
        assert text1 == text2
        assert "control" in text1

    def test_null_companion_gets_its_own_section(self):
        v = validated(gaussian_two_stage_design(replicates=4, h0_mode=True))
        batch = run_batch(v, workers=1)
        _, text = summarize(batch, full=False)
        assert "primary scenario" in text
        assert "matched null scenario" in text


class TestPlotData:
    def test_estimates_one_row_per_intervention(self):
        results = [
            fake_result(
                1,
                {"B": "efficacy", "C": "none", "D": "futility"},
                {"control": 10, "B": 10, "C": 10, "D": 10},
                40,
            )
        ]
        batch = fake_batch(results, extended=1)
        header, rows = emit_plot_data(batch, "estimates")
        assert header == ["seed", "arm", "estimate", "arm_size", "decision", "timing"]
        assert len(rows) == 3

    def test_estimates_requires_extended(self):
        batch = fake_batch(all_b_efficacious(), extended=0)
        with pytest.raises(ReportError, match="extended"):
            emit_plot_data(batch, "estimates")

    def test_size_rows_add_up(self):
        batch = fake_batch(all_b_efficacious(4))
        header, rows = emit_plot_data(batch, "size")
        assert header == ["seed", "arm", "size"]
        for seed in (1, 2, 3, 4):
            per_arm = [r[2] for r in rows if r[0] == seed and r[1] != "overall"]
            overall = [r[2] for r in rows if r[0] == seed and r[1] == "overall"]
            assert sum(per_arm) == overall[0]

    def test_unknown_kind(self):
        with pytest.raises(ReportError, match="kind"):
            emit_plot_data(fake_batch(all_b_efficacious()), "volcano")
