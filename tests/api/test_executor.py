"""The sharded executor: partitioning, determinism, merge contracts.

The spine of the suite is the executor's determinism contract: for the
same plan and seed, parallel execution must reproduce ``run_plan``'s
serial results *bit-identically* (canonical JSON equality on every
scenario result), checked here over three experiments on both pool
kinds. Around it: the one shard rule (LPT on cost hints) as a table of
partitions, worker seeding, merge validation, and the regression test
for the documented order-dependence contract of cache attribution
(serial and parallel runs must agree on the conserved totals even
though reuse attribution legitimately differs).
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ParallelPlanResult,
    RunPlan,
    Scenario,
    SimulationSession,
    derive_worker_seed,
    merge_shard_results,
    run_plan_parallel,
    run_shard,
    scenario_cost,
    shard_plan,
)
from repro.errors import ConfigurationError
from repro.experiments.registry import experiment_cost
from repro.experiments.runner import main as experiments_main
from repro.io import experiment_result_to_dict
from repro.service.cli import main as service_main

# Three experiments (a temperature sweep, a GCR family and an ablation)
# expanded to seven concrete scenarios -- small enough for the suite,
# with equal cost hints, so LPT deals positions out round-robin.
PLAN = RunPlan(
    name="executor-suite",
    scenarios=(
        Scenario("fig6", overrides={"n_points": 10},
                 sweep={"temperature_k": [0.0, 300.0, 400.0]}),
        Scenario("fig7", overrides={"n_points": 8},
                 sweep={"gcr": [0.5, 0.6, 0.7]}),
        Scenario("abl-temp", overrides={"n_points": 5}),
    ),
)
SEED = 11


def _canonical(result) -> str:
    return json.dumps(experiment_result_to_dict(result), sort_keys=True)


@pytest.fixture(scope="module")
def serial():
    """The reference serial run every parallel result must reproduce."""
    return SimulationSession(seed=SEED).run_plan(PLAN)


def _plan_of(*experiment_ids: str) -> RunPlan:
    return RunPlan(scenarios=tuple(Scenario(e) for e in experiment_ids))


class TestShardPlan:
    def test_partition_cases(self):
        """The one rule, as (plan, workers) -> positions per shard."""
        cases = (
            # Uniform hints: LPT with the position tie-break is i % workers
            # (two workers: test_round_robin_assignment).
            ((PLAN, 3), [[0, 3, 6], [1, 4], [2, 5]]),
            # Mixed hints (198, 160, 23, 3, 1): heaviest first onto the
            # least-loaded shard, each shard then in plan order.
            (
                (_plan_of("fig6", "abl-wkb", "cmp-si", "mem-ftl", "fig2"), 2),
                [[1], [0, 2, 3, 4]],
            ),
            # Fewer scenarios than workers: empty shards are dropped.
            ((_plan_of("fig6", "abl-temp"), 5), [[0], [1]]),
        )
        for (plan, workers), want in cases:
            shards = shard_plan(plan, workers)
            assert [[p for p, _ in s.items] for s in shards] == want
            assert [s.index for s in shards] == list(range(len(want)))

    def test_unknown_strategy_rejected(self, capsys):
        """Any other ``shard_by`` is a ConfigurationError naming by-cost,
        and neither CLI has a --shard-by flag (argparse exits 2)."""
        for shard_by in ("round-robin", "by-experiment", "by-vibes"):
            with pytest.raises(ConfigurationError, match="by-cost"):
                run_plan_parallel(PLAN, shard_by=shard_by)
        cases = (
            (service_main, ["serve", "--store", "s", "--shard-by", "x"]),
            (experiments_main, ["--plan", "p", "--shard-by", "x"]),
        )
        for main, argv in cases:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--shard-by" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 16])
    def test_sharding_is_a_partition(self, workers):
        """The rule covers each expanded scenario exactly once."""
        shards = shard_plan(PLAN, workers)
        positions = sorted(p for s in shards for p, _ in s.items)
        assert positions == list(range(len(PLAN.expanded())))
        assert [s.index for s in shards] == list(range(len(shards)))
        assert len(shards) <= workers

    def test_round_robin_assignment(self):
        """Equal hints deal scenario *i* to shard ``i % workers``."""
        shards = shard_plan(PLAN, 2)
        assert [p for p, _ in shards[0].items] == [0, 2, 4, 6]
        assert [p for p, _ in shards[1].items] == [1, 3, 5]

    def test_by_cost_balances_on_hints(self):
        """LPT packing: no shard carries more than half the total cost
        when two shards are available and no single scenario dominates."""
        shards = shard_plan(PLAN, 2)
        costs = [shard.cost for shard in shards]
        assert sum(costs) == sum(
            scenario_cost(s) for s in PLAN.expanded()
        )
        heaviest = max(scenario_cost(s) for s in PLAN.expanded())
        assert max(costs) <= sum(costs) / 2 + heaviest

    def test_shards_run_in_plan_order_within_a_shard(self):
        for shard in shard_plan(PLAN, 3):
            positions = [p for p, _ in shard.items]
            assert positions == sorted(positions)

    def test_groups_sharing_a_bucket_stay_in_plan_order(self):
        """Regression: LPT packs heavy scenarios first, so a
        cheap-but-earlier scenario landing in the same bucket as a
        costlier later one must still run in plan order."""
        plan = RunPlan(
            scenarios=(
                Scenario("fig6"),  # cost 1.0, position 0
                Scenario("abl-wkb"),  # cost 400, packed first
            )
        )
        (shard,) = shard_plan(plan, 1)
        assert [p for p, _ in shard.items] == [0, 1]

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_plan(PLAN, 0)

    def test_cost_hints_resolve(self):
        assert experiment_cost("abl-wkb") > experiment_cost("fig6")
        assert experiment_cost("never-registered") == 1.0


class TestWorkerSeeding:
    def test_derivation_is_deterministic(self):
        assert derive_worker_seed(11, 3) == derive_worker_seed(11, 3)

    def test_derivation_separates_shards_and_seeds(self):
        seeds = {
            derive_worker_seed(root, shard)
            for root in (0, 1, 11, -5)
            for shard in (0, 1, 2, 3)
        }
        assert len(seeds) == 16  # no collisions across nearby inputs

    def test_worker_sessions_get_derived_seeds(self):
        shards = shard_plan(PLAN, 2)
        report, _ = run_shard(shards[1], seed=SEED)
        assert report.seed == derive_worker_seed(SEED, 1)
        assert report.index == 1


class TestDeterminismContract:
    """The acceptance bar: parallel == serial, bit for bit."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_bit_identical_to_serial(self, serial, executor):
        parallel = run_plan_parallel(
            PLAN,
            workers=3,
            seed=SEED,
            executor=executor,
        )
        assert isinstance(parallel, ParallelPlanResult)
        assert len(parallel.scenario_results) == len(serial.scenario_results)
        for ours, theirs in zip(
            serial.scenario_results, parallel.scenario_results
        ):
            assert ours.scenario == theirs.scenario
            assert _canonical(ours.result) == _canonical(theirs.result)

    def test_single_worker_runs_inline_and_matches(self, serial):
        parallel = run_plan_parallel(PLAN, workers=1, seed=SEED)
        assert parallel.worker_count == 1
        for ours, theirs in zip(
            serial.scenario_results, parallel.scenario_results
        ):
            assert _canonical(ours.result) == _canonical(theirs.result)

    def test_parallel_runs_are_reproducible(self):
        first = run_plan_parallel(
            PLAN, workers=3, seed=SEED, executor="thread"
        )
        second = run_plan_parallel(
            PLAN, workers=3, seed=SEED, executor="thread"
        )
        for a, b in zip(first.scenario_results, second.scenario_results):
            assert _canonical(a.result) == _canonical(b.result)
        assert [r.seed for r in first.shard_reports] == [
            r.seed for r in second.shard_reports
        ]


class TestAttributionConsistency:
    """Regression for the documented order-dependence contract.

    ``cross_scenario_hits`` and per-scenario cache deltas depend on
    execution order; what serial and parallel merges must always agree
    on is the conserved work: per-scenario ``hits + misses``, the
    plan-wide lookup total, and plan totals equalling the sum of their
    parts. (Before the contract was documented it was tempting to
    assert parallel ``cross_scenario_hits`` equals the serial count --
    it must not: a worker can never reuse another shard's entries.)
    """

    def test_conserved_totals_match_serial(self, serial):
        parallel = run_plan_parallel(
            PLAN, workers=3, seed=SEED, executor="thread"
        )
        serial_lookups = [
            r.cache_stats.hits + r.cache_stats.misses
            for r in serial.scenario_results
        ]
        parallel_lookups = [
            r.cache_stats.hits + r.cache_stats.misses
            for r in parallel.scenario_results
        ]
        assert parallel_lookups == serial_lookups
        assert (
            parallel.cache_stats.hits + parallel.cache_stats.misses
            == serial.cache_stats.hits + serial.cache_stats.misses
        )

    def test_plan_totals_are_sums_of_their_parts(self):
        parallel = run_plan_parallel(
            PLAN, workers=3, seed=SEED, executor="thread"
        )
        assert parallel.cache_stats.hits == sum(
            r.cache_stats.hits for r in parallel.shard_reports
        )
        assert parallel.cache_stats.misses == sum(
            r.cache_stats.misses for r in parallel.shard_reports
        )
        assert parallel.cross_scenario_hits == sum(
            r.reused_hits for r in parallel.scenario_results
        )

    def test_parallel_reuse_never_exceeds_serial(self, serial):
        parallel = run_plan_parallel(
            PLAN, workers=3, seed=SEED, executor="thread"
        )
        assert parallel.cross_scenario_hits <= serial.cross_scenario_hits


class TestMergeValidation:
    def test_duplicate_positions_rejected(self):
        shards = shard_plan(PLAN, 2)
        output = run_shard(shards[0], seed=SEED)
        with pytest.raises(ConfigurationError, match="twice"):
            merge_shard_results(PLAN, (output, output))

    def test_incomplete_partition_rejected(self):
        shards = shard_plan(PLAN, 2)
        output = run_shard(shards[0], seed=SEED)
        with pytest.raises(ConfigurationError, match="partition"):
            merge_shard_results(PLAN, (output,))

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            run_plan_parallel(PLAN, executor="fleet")

    def test_worker_errors_propagate(self):
        bad = RunPlan(scenarios=(Scenario("no-such-experiment"),))
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_plan_parallel(bad, workers=2, executor="thread")


class TestSessionConvenience:
    def test_session_forwards_seed_and_defaults(self, serial):
        session = SimulationSession(seed=SEED)
        parallel = session.run_plan_parallel(
            PLAN, workers=2, executor="thread"
        )
        assert parallel.shard_reports[0].seed == derive_worker_seed(SEED, 0)
        for ours, theirs in zip(
            serial.scenario_results, parallel.scenario_results
        ):
            assert _canonical(ours.result) == _canonical(theirs.result)
        # The caller's own cache set stayed untouched.
        assert session.cache_stats().hits == 0
        assert session.cache_stats().misses == 0

    def test_session_defaults_reach_workers(self):
        plan = RunPlan(scenarios=(Scenario("fig6", overrides={"n_points": 8}),))
        hot = SimulationSession(
            seed=0, defaults={"temperature_k": 400.0}
        ).run_plan_parallel(plan, workers=1)
        cold = SimulationSession(seed=0).run_plan_parallel(plan, workers=1)
        assert _canonical(hot.scenario_results[0].result) != _canonical(
            cold.scenario_results[0].result
        )
