"""The shard supervisor: retries, deadlines, splitting, partial salvage.

Exercises :func:`repro.api.run_plan_parallel`'s fault-tolerance layer
through the deterministic injector (:mod:`repro.testing.faults`) on the
thread executor, where everything stays in-process and cheap. The
process-pool (genuine ``os._exit``) variants live in ``tests/chaos``.

The load-bearing contract in every recovery test: a retried or split
shard reuses its derived seed, so whatever the supervisor had to do to
finish, the surviving results are bit-identical to the serial run.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    RunPlan,
    Scenario,
    ShardExecutionError,
    ShardFailure,
    SimulationSession,
    merge_shard_results,
    run_plan_parallel,
    run_shard,
    shard_plan,
)
from repro.api import executor as executor_module
from repro.errors import ConfigurationError
from repro.io import experiment_result_to_dict
from repro.testing import FaultSpec, InjectedFault, faults_installed

# Three concrete scenarios with equal cost hints; two workers put positions
# (0, 2) on shard 0 and (1,) on shard 1 -- small enough to retry
# repeatedly in the suite, structured enough to salvage around a loss.
PLAN = RunPlan(
    name="supervisor-suite",
    scenarios=(
        Scenario("fig6", overrides={"n_points": 6},
                 sweep={"temperature_k": [300.0, 400.0]}),
        Scenario("abl-temp", overrides={"n_points": 4}),
    ),
)
SEED = 5


def _canonical(result) -> str:
    return json.dumps(experiment_result_to_dict(result), sort_keys=True)


@pytest.fixture(scope="module")
def serial():
    """The reference serial run every recovered result must reproduce."""
    return SimulationSession(seed=SEED).run_plan(PLAN)


class TestRetryRecovery:
    def test_one_shot_failure_recovers_bit_identically(self, serial):
        """A shard that fails once is retried and loses nothing."""
        with faults_installed(FaultSpec(kind="raise", shard=0, attempt=0)):
            outcome = run_plan_parallel(
                PLAN, workers=2, executor="thread", seed=SEED
            )
        assert outcome.complete
        assert outcome.failed_positions == ()
        for ours, theirs in zip(
            serial.scenario_results, outcome.scenario_results
        ):
            assert _canonical(ours.result) == _canonical(theirs.result)

    def test_mid_shard_failure_recovers(self, serial):
        """Failing *after* completed work still retries the whole unit."""
        with faults_installed(
            FaultSpec(kind="raise", shard=0, attempt=0, position=2)
        ):
            outcome = run_plan_parallel(
                PLAN, workers=2, executor="thread", seed=SEED
            )
        assert outcome.complete
        assert _canonical(outcome.scenario_results[2].result) == _canonical(
            serial.scenario_results[2].result
        )

    def test_zero_retries_fails_fast(self):
        with faults_installed(FaultSpec(kind="raise", shard=0)):
            with pytest.raises(
                ShardExecutionError, match=r"after 1 attempt\(s\)"
            ):
                run_plan_parallel(
                    PLAN,
                    workers=2,
                    executor="thread",
                    seed=SEED,
                    max_shard_retries=0,
                )

    def test_configuration_errors_are_never_retried(self):
        """A bad plan fails once, with shard context, however many
        retries the budget allows."""
        bad = RunPlan(scenarios=(Scenario("no-such-experiment"),))
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_plan_parallel(
                bad, workers=2, executor="thread", max_shard_retries=3,
                timeout_s=30.0,
            )


class TestPartialSalvage:
    def test_split_isolates_the_poison_scenario(self, serial):
        """A persistent per-scenario fault loses only that scenario."""
        with faults_installed(FaultSpec(kind="raise", position=2)):
            outcome = run_plan_parallel(
                PLAN,
                workers=2,
                executor="thread",
                seed=SEED,
                max_shard_retries=1,
                raise_on_failure=False,
            )
        assert not outcome.complete
        assert outcome.failed_positions == (2,)
        salvaged = outcome.results_by_position()
        assert sorted(salvaged) == [0, 1]
        for position, scenario_result in salvaged.items():
            assert _canonical(scenario_result.result) == _canonical(
                serial.scenario_results[position].result
            )
        (failure,) = outcome.failures
        assert failure.index == 0
        assert failure.cause == "error"
        assert failure.positions == (2,)
        assert len(failure.scenario_ids) == 1
        assert failure.attempts == 2
        assert "InjectedFault" in failure.message

    def test_raise_on_failure_names_the_lost_scenarios(self):
        with faults_installed(FaultSpec(kind="raise", shard=1)):
            with pytest.raises(ShardExecutionError) as excinfo:
                run_plan_parallel(
                    PLAN,
                    workers=2,
                    executor="thread",
                    seed=SEED,
                    max_shard_retries=1,
                )
        error = excinfo.value
        assert "shard 1" in str(error)
        assert "fig6" in str(error)
        assert isinstance(error.__cause__, InjectedFault)
        assert isinstance(error.failure, ShardFailure)
        assert error.failure.index == 1
        assert error.failure.attempts == 2
        assert error.failure.positions == (1,)


class TestDeadlines:
    def test_timed_out_shard_retries_on_a_fresh_pool(self, serial):
        """Blowing the per-shard deadline once costs time, not results."""
        with faults_installed(
            FaultSpec(kind="hang", shard=0, attempt=0, seconds=2.0)
        ):
            outcome = run_plan_parallel(
                PLAN,
                workers=2,
                executor="thread",
                seed=SEED,
                timeout_s=0.3,
            )
        assert outcome.complete
        for ours, theirs in zip(
            serial.scenario_results, outcome.scenario_results
        ):
            assert _canonical(ours.result) == _canonical(theirs.result)

    def test_exhausted_deadline_is_a_typed_timeout_failure(self):
        plan = RunPlan(
            scenarios=(Scenario("abl-temp", overrides={"n_points": 4}),)
        )
        with faults_installed(FaultSpec(kind="hang", seconds=1.0)):
            outcome = run_plan_parallel(
                plan,
                workers=1,
                executor="thread",
                seed=SEED,
                timeout_s=0.15,
                max_shard_retries=0,
                raise_on_failure=False,
            )
        assert not outcome.complete
        (failure,) = outcome.failures
        assert failure.cause == "timeout"
        assert "deadline" in failure.message
        assert outcome.scenario_results == ()

    def test_queued_shard_clock_starts_when_it_runs(self, monkeypatch):
        """A shard waiting for a free worker is not timed while it waits.

        One usable CPU caps the pool at one worker, so shard 1 queues
        behind shard 0; each sleeps 0.4 s against a 0.7 s deadline. Had
        shard 1's clock started at the call, it would blow the deadline.
        """
        monkeypatch.setattr(executor_module, "available_cpus", lambda: 1)
        with faults_installed(
            FaultSpec(kind="slow", position=0, seconds=0.4),
            FaultSpec(kind="slow", position=1, seconds=0.4),
        ):
            outcome = run_plan_parallel(
                PLAN,
                workers=2,
                executor="thread",
                seed=SEED,
                timeout_s=0.7,
                max_shard_retries=0,
                raise_on_failure=False,
            )
        assert outcome.failures == ()
        assert len(outcome.shard_reports) == 2

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ConfigurationError, match="timeout_s"):
            run_plan_parallel(PLAN, timeout_s=0.0)

    def test_invalid_retry_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="max_shard_retries"):
            run_plan_parallel(PLAN, max_shard_retries=-1)


class TestPartialMerge:
    def _outputs(self, shards):
        return tuple(run_shard(s, seed=SEED) for s in shards)

    def test_failures_complete_the_partition(self):
        shards = shard_plan(PLAN, 2)
        outputs = self._outputs(shards[:1])  # positions (0, 2) computed
        failure = ShardFailure(
            index=1, positions=(1,), scenario_ids=("x",),
            attempts=2, cause="crash",
        )
        merged = merge_shard_results(PLAN, outputs, failures=(failure,))
        assert not merged.complete
        assert merged.failed_positions == (1,)
        assert sorted(merged.results_by_position()) == [0, 2]

    def test_overlapping_failure_rejected(self):
        shards = shard_plan(PLAN, 2)
        outputs = self._outputs(shards)  # every position computed
        failure = ShardFailure(
            index=1, positions=(1,), scenario_ids=("x",),
            attempts=1, cause="error",
        )
        with pytest.raises(ConfigurationError, match="twice"):
            merge_shard_results(PLAN, outputs, failures=(failure,))

    def test_uncovered_position_rejected(self):
        shards = shard_plan(PLAN, 2)
        outputs = self._outputs(shards[:1])  # position 1 never accounted
        with pytest.raises(ConfigurationError, match="partition"):
            merge_shard_results(PLAN, outputs)
