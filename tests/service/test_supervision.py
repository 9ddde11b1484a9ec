"""Service-layer supervision: job deadlines and mid-plan salvage.

The watchdog path (``timeout_s`` on submit -> typed ``timeout``
terminal state, ``jobs_timeout`` counter, reconciliation intact) and
the :class:`~repro.service.jobs.PartialComputeError` salvage path
(completed scenarios persisted and their claims resolved before the
job fails) -- both at the :class:`JobManager` level with monkeypatched
computes for deterministic timing, plus the HTTP surface of the
``timeout_s`` submit field. The end-to-end crash-and-resume story
lives in ``tests/chaos``.
"""

import asyncio
import threading

import pytest

from repro.api import RunPlan, Scenario
from repro.api.plan import ShardFailure
from repro.errors import ConfigurationError
from repro.service import (
    JobJournal,
    JobManager,
    PartialComputeError,
    ResultStore,
    ServiceApp,
    ServiceError,
    ServiceThread,
    SimulationServiceClient,
)
from repro.service.jobs import TERMINAL_STATUSES


def _plan(n_points=6, experiment="fig6"):
    return RunPlan(
        name="supervision-test",
        scenarios=(Scenario(experiment, overrides={"n_points": n_points}),),
    )


def _manager(tmp_path, **kwargs):
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("journal", JobJournal(tmp_path / "journal.jsonl"))
    return JobManager(ResultStore(tmp_path / "store"), **kwargs)


def _run(coro):
    return asyncio.run(coro)


async def _until_terminal(job, budget_s=30.0):
    for _ in range(int(budget_s / 0.02)):
        if job.status in TERMINAL_STATUSES:
            return
        await asyncio.sleep(0.02)
    raise AssertionError(f"job stuck in {job.status!r}")


class TestJobDeadline:
    def test_expired_job_lands_in_typed_timeout_state(
        self, tmp_path, monkeypatch
    ):
        started = threading.Event()
        release = threading.Event()

        def blocking_compute(scenarios, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            raise AssertionError("a timed-out job must not return results")

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", blocking_compute
        )

        async def scenario():
            manager = _manager(tmp_path)
            try:
                job = manager.submit(_plan(), timeout_s=0.2)
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    None, lambda: started.wait(timeout=30)
                )
                await _until_terminal(job)
                release.set()  # let the abandoned compute thread exit
                await asyncio.gather(
                    *manager._tasks, return_exceptions=True
                )
                return job.record(), manager.stats()
            finally:
                await manager.close()

        record, stats = _run(scenario())
        assert record.status == "timeout"
        assert "deadline" in record.error
        assert record.timeout_s == 0.2
        assert stats["jobs_timeout"] == 1
        assert stats["jobs_failed"] == 0
        assert stats["jobs_cancelled"] == 0
        assert stats["jobs_done"] == 0

    def test_job_finishing_in_time_is_unaffected(self, tmp_path):
        async def scenario():
            manager = _manager(tmp_path)
            try:
                job = manager.submit(_plan(), timeout_s=120.0)
                await asyncio.gather(*manager._tasks)
                return job.record(), manager.stats()
            finally:
                await manager.close()

        record, stats = _run(scenario())
        assert record.status == "done"
        assert record.timeout_s == 120.0
        assert stats["jobs_done"] == 1
        assert stats["jobs_timeout"] == 0

    def test_invalid_deadline_rejected(self, tmp_path):
        async def scenario():
            manager = _manager(tmp_path)
            try:
                with pytest.raises(ConfigurationError, match="timeout_s"):
                    manager.submit(_plan(), timeout_s=0.0)
            finally:
                await manager.close()

        _run(scenario())


class TestPartialSalvage:
    def test_salvaged_results_reach_the_store_before_the_job_fails(
        self, tmp_path, monkeypatch, make_scenario_result
    ):
        """The manager persists PartialComputeError survivors and the
        job fails with the supervisor's message naming what was lost."""
        plan = RunPlan(
            name="salvage",
            scenarios=(
                Scenario("fig6", overrides={"n_points": 3}),
                Scenario("fig7", overrides={"n_points": 3}),
            ),
        )
        survivor = make_scenario_result(
            experiment_id="fig6", overrides={"n_points": 3}
        )

        def partial_compute(scenarios, **kwargs):
            raise PartialComputeError(
                "1 of 2 scenarios failed (crash) after shard retries: "
                "['fig7']",
                completed={0: survivor},
                failures=(
                    ShardFailure(
                        index=1,
                        positions=(1,),
                        scenario_ids=("fig7",),
                        attempts=3,
                        cause="crash",
                    ),
                ),
            )

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", partial_compute
        )

        async def scenario():
            manager = _manager(tmp_path)
            try:
                job = manager.submit(plan)
                await asyncio.gather(
                    *manager._tasks, return_exceptions=True
                )
                return job.record(), manager.stats()
            finally:
                await manager.close()

        record, stats = _run(scenario())
        assert record.status == "failed"
        assert "fig7" in record.error
        assert stats["jobs_failed"] == 1
        # The survivor is in the store under the job's own hash for it.
        store = ResultStore(tmp_path / "store")
        assert len(store) == 1
        assert record.scenario_hashes[0] in store
        assert stats["computed"] == 1
        # No dangling single-flight claims for the lost scenario.
        assert stats["inflight_scenarios"] == 0


class TestHttpSurface:
    def test_submit_timeout_field_round_trips(self, tmp_path):
        app = ServiceApp(
            ResultStore(tmp_path / "store"), workers=1, executor="thread"
        )
        with ServiceThread(app) as service:
            client = SimulationServiceClient(
                service.url, retries=2, backoff_s=0.01
            )
            accepted = client.submit(_plan(n_points=4), timeout_s=90.0)
            assert accepted.timeout_s == 90.0
            final = client.wait(accepted.id, timeout_s=60.0)
            assert final.status == "done"
            assert final.timeout_s == 90.0

    def test_submit_rejects_bad_timeout_values(self, tmp_path):
        app = ServiceApp(
            ResultStore(tmp_path / "store"), workers=1, executor="thread"
        )
        with ServiceThread(app) as service:
            client = SimulationServiceClient(
                service.url, retries=2, backoff_s=0.01
            )
            with pytest.raises(ServiceError, match="timeout_s") as excinfo:
                client.submit(_plan(n_points=4), timeout_s=-5.0)
            assert excinfo.value.status == 400
