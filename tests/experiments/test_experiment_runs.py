"""End-to-end runs of every experiment on deliberately tiny configurations.

These tests exercise the full experiment pipeline (graph building, Monte
Carlo, statistics, table assembly) and check the *shape* of each claim on
small inputs; the benchmark harness runs the real configurations.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    block_counts,
    classical,
    corollary3,
    coupling_checks,
    gap_graphs,
    regular_push_identity,
    scenarios,
    social,
    star,
    theorem1,
    theorem2,
    view_equivalence,
)
from repro.graphs import complete_graph, cycle_graph, hypercube_graph, star_graph


class TestTheorem1Experiment:
    def test_runs_and_stays_bounded(self):
        result = theorem1.run(
            "smoke", seed=1, families=["star", "complete", "cycle"], sizes=[16, 32]
        )
        assert result.experiment_id == "E1"
        assert len(result.rows) == 6
        assert result.conclusion("max_constant_c1") < 4.0
        assert result.conclusion("theorem1_consistent") is True
        for row in result.rows:
            assert row["T_hp(pp-a)"] > 0
            assert row["c1 = async/(sync+ln n)"] > 0


class TestTheorem2Experiment:
    def test_runs_and_respects_sqrt_ceiling(self):
        result = theorem2.run("smoke", seed=2, families=["star", "complete"], sizes=[16, 32])
        assert result.experiment_id == "E2"
        assert result.conclusion("max_constant_c2") < 2.0
        assert result.conclusion("theorem2_consistent") is True


class TestCorollary3Experiment:
    def test_regular_ratio_bounded_and_star_blows_up(self):
        result = corollary3.run(
            "smoke", seed=3, families=["cycle", "complete"], sizes=[16, 32]
        )
        assert result.experiment_id == "E3"
        assert result.conclusion("max_ratio_on_regular_graphs") < 6.0
        # The irregular star contrast must show a growing push/pp ratio.
        assert result.conclusion("star_ratio_growth_exponent") > 0.5


class TestStarExperiment:
    def test_matches_paper_facts(self):
        result = star.run("smoke", seed=4, sizes=[16, 32])
        assert result.experiment_id == "E4"
        assert result.conclusion("sync_pushpull_at_most_2_rounds") is True
        assert result.conclusion("push_superlinear") is True


class TestGapGraphExperiment:
    def test_both_directions_present(self):
        result = gap_graphs.run("smoke", seed=5, sizes=[64, 128])
        assert result.experiment_id == "E5"
        directions = {row["direction"] for row in result.rows}
        assert directions == {"async wins", "sync wins"}
        assert result.conclusion("async_gap_below_sqrt_ceiling") is True
        assert result.conclusion("star_ratio_within_log_ceiling") is True


class TestClassicalExperiment:
    def test_constant_factor_band(self):
        result = classical.run("smoke", seed=6, families=["complete", "hypercube"], sizes=[16, 32])
        assert result.experiment_id == "E6"
        assert result.conclusion("max_ratio") < 4.0
        assert result.conclusion("min_ratio") > 0.25


class TestSocialExperiment:
    def test_async_advantage_on_partial_coverage(self):
        result = social.run("smoke", seed=7, families=["preferential_attachment"], sizes=[96])
        assert result.experiment_id == "E7"
        assert result.conclusion("async_faster_for_half_coverage") is True
        row = result.rows[0]
        assert row["pp-a@50%"] < row["pp-a@100%"]


class TestCouplingChecksExperiment:
    def test_lemmas_hold_on_small_graphs(self):
        suite = [(star_graph(24), 1), (hypercube_graph(4), 0)]
        result = coupling_checks.run("smoke", seed=8, graphs_with_sources=suite)
        assert result.experiment_id == "E8"
        assert result.conclusion("lemma6_dominance_holds_on_all_graphs") is True
        assert result.conclusion("lemma9_slack_within_log_budget") is True
        assert result.conclusion("lemma10_slack_within_log_budget") is True
        assert result.conclusion("lemma8_matches_exponential") is True


class TestBlockCountsExperiment:
    def test_lemma13_and_14_on_small_graphs(self):
        suite = [(cycle_graph(25), 0), (complete_graph(25), 0)]
        result = block_counts.run("smoke", seed=9, graphs_with_sources=suite)
        assert result.experiment_id == "E9"
        assert result.conclusion("lemma13_subset_invariant_always_held") is True
        assert result.conclusion("max_normalized_rounds") < 4.0


class TestViewEquivalenceExperiment:
    def test_views_indistinguishable(self):
        suite = [(complete_graph(20), 0)]
        result = view_equivalence.run("smoke", seed=10, graphs_with_sources=suite)
        assert result.experiment_id == "E10"
        assert result.conclusion("views_statistically_indistinguishable") is True
        assert len(result.rows) == 3  # three view pairs on one graph


class TestRegularPushIdentityExperiment:
    def test_identity_on_regular_and_failure_on_star(self):
        result = regular_push_identity.run(
            "smoke", seed=11, families=["cycle", "complete"], size=24
        )
        assert result.experiment_id == "E11"
        assert result.conclusion("identity_holds_on_regular_graphs") is True
        assert result.conclusion("star_contrast_p_value") < 0.05


class TestScenariosExperiment:
    def test_blowups_behave(self):
        result = scenarios.run("smoke", seed=13, sizes=[32])
        assert result.experiment_id == "E12"
        assert result.conclusion("adversity_never_helps") is True
        assert result.conclusion("loss_blowup_monotone") is True
        assert result.conclusion("max_blowup") >= 1.0
        labels = {row["scenario"] for row in result.rows}
        assert "baseline" in labels and "loss 0.3" in labels

    def test_single_scenario_override(self):
        from repro.scenarios import MessageLoss

        result = scenarios.run(
            "smoke", seed=13, sizes=[32], protocols=["pp"], scenario=MessageLoss(0.3)
        )
        labels = [row["scenario"] for row in result.rows]
        assert set(labels) == {"baseline", "loss:p=0.3"}
        assert result.conclusion("max_blowup") >= 1.0


    def test_sweep_skips_exactly_the_rejected_cells(self):
        # ppx takes no runtime scenario and sync rounds no Delay: those cells
        # are skipped, every other cell of the grid runs.
        rows = scenarios.sweep_scenarios(
            ["star"], ["loss:p=0.1", "delay:low=0.5,high=2"],
            protocols=("pp", "pp-a", "ppx"), size=16, trials=4,
        )
        cells = {(row["protocol"], row["scenario"]) for row in rows}
        assert cells == {
            ("pp", "baseline"), ("pp", "loss:p=0.1"),
            ("pp-a", "baseline"), ("pp-a", "loss:p=0.1"), ("pp-a", "delay:low=0.5,high=2"),
            ("ppx", "baseline"),
        }

    def test_override_skips_the_protocols_that_reject_it(self):
        result = scenarios.run(
            "smoke", seed=13, sizes=[16], protocols=["pp", "pp-a", "ppx"],
            scenario="loss:p=0.2",
        )
        assert {row["protocol"] for row in result.rows} == {"pp", "pp-a"}
        assert any(note.startswith("skipped ppx:") for note in result.notes)


class TestExperimentResultsRenderable:
    @pytest.mark.parametrize(
        "runner, kwargs",
        [
            (star.run, {"sizes": [16]}),
            (theorem1.run, {"families": ["star"], "sizes": [16]}),
        ],
    )
    def test_text_and_json_render(self, runner, kwargs):
        result = runner("smoke", seed=12, **kwargs)
        text = result.to_text()
        assert result.experiment_id in text
        assert result.to_json().startswith("{")
