"""RunPlan execution: one session, many scenarios, visible cache reuse."""

import numpy as np
import pytest

from repro.api import RunPlan, Scenario, SimulationSession, run_scenario
from repro.errors import ConfigurationError
from repro.io import from_record, to_record


@pytest.fixture(scope="module")
def plan():
    return RunPlan(
        name="coverage",
        scenarios=(
            Scenario("fig6", overrides={"n_points": 12}),
            Scenario("fig8", overrides={"n_points": 12}),
            Scenario(
                "fig7",
                overrides={"n_points": 10},
                sweep={"temperature_k": [0.0, 300.0]},
            ),
        ),
    )


@pytest.fixture(scope="module")
def outcome(plan):
    return SimulationSession(seed=11).run_plan(plan)


class TestPlanExecution:
    def test_expansion_count(self, plan, outcome):
        assert len(plan.expanded()) == 4
        assert len(outcome.scenario_results) == 4

    def test_all_scenarios_shape_checked(self, outcome):
        assert outcome.all_checks_pass
        assert all(r.result.checks for r in outcome.scenario_results)

    def test_cross_scenario_cache_hits_reported(self, outcome):
        # fig6/fig7/fig8 share one FN coefficient pair: every scenario
        # after the first must be served from the session cache.
        assert outcome.cross_scenario_hits > 0
        later = outcome.scenario_results[1:]
        assert all(r.cache_stats.misses == 0 for r in later)
        assert all(r.reused_hits > 0 for r in later)
        assert outcome.scenario_results[0].reused_hits == 0

    def test_disjoint_scenarios_report_no_false_reuse(self):
        # Two transients at different gate voltages compile different
        # cells; each scenario re-hits only its *own* entry, which must
        # not count as cross-scenario reuse.
        outcome = SimulationSession().run_plan(
            RunPlan(
                scenarios=(
                    Scenario("fig5", overrides={"vgs_v": 15.0, "n_samples": 20}),
                    Scenario("fig5", overrides={"vgs_v": 16.0, "n_samples": 20}),
                )
            )
        )
        assert outcome.cross_scenario_hits == 0
        assert outcome.scenario_results[1].cache_stats.hits > 0

    def test_repeated_scenario_reports_real_reuse(self):
        scenario = Scenario("fig5", overrides={"n_samples": 20})
        outcome = SimulationSession().run_plan(
            RunPlan(scenarios=(scenario, scenario))
        )
        second = outcome.scenario_results[1]
        assert second.reused_hits > 0
        assert second.cache_stats.misses == 0
        assert second.cache_stats.currsize == 0  # added no entries

    def test_elapsed_recorded(self, outcome):
        assert all(r.elapsed_s >= 0.0 for r in outcome.scenario_results)

    def test_plan_totals_match_scenario_deltas(self, outcome):
        assert outcome.cache_stats.hits == sum(
            r.cache_stats.hits for r in outcome.scenario_results
        )

    def test_plan_results_match_direct_runs(self, outcome):
        direct = SimulationSession().run("fig6", n_points=12)
        first = outcome.scenario_results[0].result
        for a, b in zip(direct.series, first.series):
            assert np.array_equal(a.y, b.y)


class TestRunScenario:
    def test_family_scenario_rejected(self):
        session = SimulationSession()
        family = Scenario("fig6", sweep={"temperature_k": [0.0, 300.0]})
        with pytest.raises(ConfigurationError):
            run_scenario(session, family)

    def test_single_scenario_runs(self):
        session = SimulationSession()
        result = session.run_scenario(
            Scenario("fig6", overrides={"temperature_k": 300.0})
        )
        assert result.result.experiment_id == "fig6"
        assert result.all_checks_pass


class TestPlanSerialization:
    def test_dict_round_trip(self, plan):
        assert from_record(RunPlan, to_record(plan)) == plan

    def test_file_round_trip(self, plan, tmp_path):
        path = plan.save(tmp_path / "plan.json")
        assert RunPlan.load(path) == plan

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            RunPlan(scenarios=())
