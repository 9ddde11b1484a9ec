"""The job manager: queue bounds, single-flight dedupe, rate limiting.

Exercises :mod:`repro.service.jobs` without the HTTP layer. The
single-flight tests monkeypatch ``compute_scenario_results`` with a
blocking fake so dedupe timing is deterministic: the owner job is held
inside its compute while rival jobs submit, which forces the rivals
down the ``inflight`` path instead of racing the store.
"""

import asyncio
import threading

import pytest

from repro.api import RunPlan, Scenario
from repro.errors import ConfigurationError
from repro.service import (
    PRIORITY_CLASSES,
    JobJournal,
    JobManager,
    JobQueueFull,
    PriorityGate,
    RateLimiter,
    ResultStore,
    TokenBucket,
    normalize_priority,
)
from repro.service.jobs import DEFAULT_PRIORITY, retry_after_seconds


class FakeClock:
    """A manually advanced monotonic clock for bucket tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, capacity=2.0, clock=clock)
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        wait = bucket.acquire()
        assert wait == pytest.approx(1.0)

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=1.0, clock=clock)
        assert bucket.acquire() == 0.0
        assert bucket.acquire() > 0.0
        clock.advance(0.5)  # 2 tokens/s * 0.5 s = 1 token back
        assert bucket.acquire() == 0.0

    def test_capacity_caps_the_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        assert bucket.acquire() > 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, capacity=-1.0)


class TestRateLimiter:
    def test_clients_are_isolated(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, capacity=1.0, clock=clock)
        assert limiter.check("alice") == 0.0
        assert limiter.check("alice") > 0.0
        # A different client still has a full bucket.
        assert limiter.check("bob") == 0.0

    def test_retry_after_rounds_up_to_whole_seconds(self):
        assert retry_after_seconds(0.01) == 1
        assert retry_after_seconds(1.0) == 1
        assert retry_after_seconds(1.2) == 2


def _plan(n_points=6, experiment="fig6"):
    return RunPlan(
        name="jobs-test",
        scenarios=(Scenario(experiment, overrides={"n_points": n_points}),),
    )


def _manager(tmp_path, **kwargs):
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("journal", JobJournal(tmp_path / "journal.jsonl"))
    return JobManager(ResultStore(tmp_path / "store"), **kwargs)


def _run(coro):
    return asyncio.run(coro)


class TestJobLifecycle:
    def test_job_computes_then_second_job_hits_store(self, tmp_path):
        async def scenario():
            manager = _manager(tmp_path)
            try:
                first = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                second = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                return first.record(), second.record(), manager.stats()
            finally:
                await manager.close()

        one, two, stats = _run(scenario())
        assert one.status == "done"
        assert one.sources == ("computed",)
        assert two.status == "done"
        assert two.sources == ("store",)
        assert one.scenario_hashes == two.scenario_hashes
        assert stats["computed"] == 1
        assert stats["store_hits"] == 1
        assert stats["jobs_done"] == 2

    def test_queue_bound_raises_job_queue_full(self, tmp_path, monkeypatch):
        started = threading.Event()
        release = threading.Event()

        def blocking_compute(scenarios, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            from repro.service.jobs import RunPlan, run_plan_parallel

            return run_plan_parallel(
                RunPlan(name="service-job", scenarios=tuple(scenarios)),
                workers=1,
                executor="thread",
            ).scenario_results

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", blocking_compute
        )

        async def scenario():
            manager = _manager(tmp_path, max_pending=1, max_concurrent=1)
            try:
                manager.submit(_plan())
                await asyncio.sleep(0)  # let the job start
                with pytest.raises(JobQueueFull):
                    manager.submit(_plan(n_points=7))
                release.set()
                await asyncio.gather(*manager._tasks)
                # Capacity freed: the next submit is accepted.
                job = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                return job.record()
            finally:
                await manager.close()

        record = _run(scenario())
        assert record.status == "done"

    def test_unknown_job_lookup_is_none(self, tmp_path):
        async def scenario():
            manager = _manager(tmp_path)
            try:
                return manager.job("job-999")
            finally:
                await manager.close()

        assert _run(scenario()) is None

    def test_invalid_bounds_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _manager(tmp_path, max_pending=0)
        with pytest.raises(ConfigurationError):
            _manager(tmp_path, max_concurrent=0)


class TestSingleFlight:
    def test_concurrent_identical_jobs_compute_once(
        self, tmp_path, monkeypatch
    ):
        """N concurrent submissions of the same plan -> one computation.

        The first job is held inside compute until every rival has been
        classified, so the rivals *must* take the inflight path.
        """
        compute_calls = []
        started = threading.Event()
        release = threading.Event()

        def blocking_compute(scenarios, **kwargs):
            compute_calls.append(tuple(scenarios))
            started.set()
            assert release.wait(timeout=30)
            from repro.service.jobs import RunPlan, run_plan_parallel

            return run_plan_parallel(
                RunPlan(name="service-job", scenarios=tuple(scenarios)),
                workers=1,
                executor="thread",
            ).scenario_results

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", blocking_compute
        )

        async def scenario():
            manager = _manager(tmp_path, max_pending=8, max_concurrent=8)
            try:
                owner = manager.submit(_plan())
                # Wait until the owner is inside its compute call.
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    None, lambda: started.wait(timeout=30)
                )
                rivals = [manager.submit(_plan()) for _ in range(3)]
                # Let the rivals classify against the inflight map.
                for _ in range(10):
                    await asyncio.sleep(0)
                release.set()
                await asyncio.gather(*manager._tasks)
                return owner.record(), [r.record() for r in rivals]
            finally:
                await manager.close()

        owner, rivals = _run(scenario())
        assert len(compute_calls) == 1
        assert owner.sources == ("computed",)
        for rival in rivals:
            assert rival.status == "done"
            assert rival.sources == ("inflight",)
            assert rival.deduped == 1

    def test_duplicate_scenarios_within_one_plan_compute_once(
        self, tmp_path, monkeypatch
    ):
        compute_calls = []

        def counting_compute(scenarios, **kwargs):
            compute_calls.append(tuple(scenarios))
            from repro.service.jobs import RunPlan, run_plan_parallel

            return run_plan_parallel(
                RunPlan(name="service-job", scenarios=tuple(scenarios)),
                workers=1,
                executor="thread",
            ).scenario_results

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", counting_compute
        )
        duplicated = RunPlan(
            name="dupes",
            scenarios=(
                Scenario("fig6", overrides={"n_points": 6}),
                Scenario("fig6", overrides={"n_points": 6}, label="again"),
            ),
        )

        async def scenario():
            manager = _manager(tmp_path)
            try:
                job = manager.submit(duplicated)
                await asyncio.gather(*manager._tasks)
                return job.record()
            finally:
                await manager.close()

        record = _run(scenario())
        assert record.status == "done"
        assert sum(len(call) for call in compute_calls) == 1
        assert sorted(record.sources) == ["computed", "inflight"]

    def test_compute_failure_propagates_to_attached_jobs(
        self, tmp_path, monkeypatch
    ):
        started = threading.Event()
        release = threading.Event()

        def failing_compute(scenarios, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", failing_compute
        )

        async def scenario():
            manager = _manager(tmp_path, max_pending=4, max_concurrent=4)
            try:
                owner = manager.submit(_plan())
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    None, lambda: started.wait(timeout=30)
                )
                rival = manager.submit(_plan())
                for _ in range(10):
                    await asyncio.sleep(0)
                release.set()
                await asyncio.gather(*manager._tasks)
                return owner.record(), rival.record(), manager.stats()
            finally:
                await manager.close()

        owner, rival, stats = _run(scenario())
        assert owner.status == "failed"
        assert "solver exploded" in owner.error
        assert rival.status == "failed"
        assert "in-flight computation failed" in rival.error
        assert stats["jobs_failed"] == 2
        assert stats["inflight_scenarios"] == 0  # no dangling futures

    def test_failed_hash_recomputes_on_next_submission(
        self, tmp_path, monkeypatch
    ):
        attempts = []

        def flaky_compute(scenarios, **kwargs):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            from repro.service.jobs import RunPlan, run_plan_parallel

            return run_plan_parallel(
                RunPlan(name="service-job", scenarios=tuple(scenarios)),
                workers=1,
                executor="thread",
            ).scenario_results

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", flaky_compute
        )

        async def scenario():
            manager = _manager(tmp_path)
            try:
                failed = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                retried = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                return failed.record(), retried.record()
            finally:
                await manager.close()

        failed, retried = _run(scenario())
        assert failed.status == "failed"
        assert retried.status == "done"
        assert retried.sources == ("computed",)
        assert len(attempts) == 2


class TestNormalizePriority:
    def test_class_names_map_to_ranks(self):
        assert normalize_priority("high") == PRIORITY_CLASSES["high"]
        assert normalize_priority("normal") == PRIORITY_CLASSES["normal"]
        assert normalize_priority("low") == PRIORITY_CLASSES["low"]

    def test_none_is_the_default(self):
        assert normalize_priority(None) == DEFAULT_PRIORITY

    def test_integers_pass_within_bounds(self):
        assert normalize_priority(0) == 0
        assert normalize_priority(9) == 9
        with pytest.raises(ConfigurationError):
            normalize_priority(-1)
        with pytest.raises(ConfigurationError):
            normalize_priority(10)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_priority("urgent")
        with pytest.raises(ConfigurationError):
            normalize_priority(1.5)
        with pytest.raises(ConfigurationError):
            normalize_priority(True)

    def test_submit_rejects_bad_priority_without_counting(self, tmp_path):
        async def scenario():
            manager = _manager(tmp_path)
            try:
                with pytest.raises(ConfigurationError):
                    manager.submit(_plan(), priority="urgent")
                return manager.stats()
            finally:
                await manager.close()

        stats = _run(scenario())
        assert stats["jobs_submitted"] == 0


class TestPriorityGate:
    def test_admits_by_class_fifo_within_class(self):
        async def scenario():
            gate = PriorityGate(1, aging_s=1000.0)
            order = []
            await gate.acquire(1)

            async def worker(tag, rank):
                await gate.acquire(rank)
                order.append(tag)
                gate.release()

            tasks = [
                asyncio.create_task(worker("low", 2)),
                asyncio.create_task(worker("norm-a", 1)),
                asyncio.create_task(worker("norm-b", 1)),
                asyncio.create_task(worker("high", 0)),
            ]
            for _ in range(5):
                await asyncio.sleep(0)
            assert gate.waiting == 4
            gate.release()
            await asyncio.gather(*tasks)
            return order

        assert _run(scenario()) == ["high", "norm-a", "norm-b", "low"]

    def test_aging_promotes_long_waiters(self):
        """A low-priority waiter eventually outranks a fresh high one."""

        async def scenario():
            clock = FakeClock()
            gate = PriorityGate(1, aging_s=10.0, clock=clock)
            order = []
            await gate.acquire(0)

            async def worker(tag, rank):
                await gate.acquire(rank)
                order.append(tag)
                gate.release()

            low = asyncio.create_task(worker("low", 2))
            await asyncio.sleep(0)
            clock.advance(25.0)  # low has aged two classes: effective 0
            high = asyncio.create_task(worker("high", 0))
            await asyncio.sleep(0)
            gate.release()
            await asyncio.gather(low, high)
            return order

        # Tie at effective priority 0 falls back to arrival order.
        assert _run(scenario()) == ["low", "high"]

    def test_cancelled_waiter_is_withdrawn(self):
        async def scenario():
            gate = PriorityGate(1)
            await gate.acquire(1)
            task = asyncio.create_task(gate.acquire(1))
            await asyncio.sleep(0)
            assert gate.waiting == 1
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            assert gate.waiting == 0
            gate.release()
            assert gate.active == 0

        _run(scenario())

    def test_granted_but_cancelled_acquire_releases_slot(self):
        async def scenario():
            gate = PriorityGate(1)
            await gate.acquire(1)
            task = asyncio.create_task(gate.acquire(1))
            await asyncio.sleep(0)  # the task is now a waiter
            gate.release()  # grants the slot to the waiter...
            task.cancel()  # ...which is cancelled before it resumes
            await asyncio.gather(task, return_exceptions=True)
            assert gate.active == 0
            assert gate.waiting == 0
            await gate.acquire(1)  # the slot was not leaked
            gate.release()

        _run(scenario())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            PriorityGate(0)
        with pytest.raises(ConfigurationError):
            PriorityGate(1, aging_s=0.0)

    def test_release_without_slot_rejected(self):
        with pytest.raises(ConfigurationError):
            PriorityGate(1).release()


class TestPriorityDispatch:
    def test_high_priority_jumps_the_queue(self, tmp_path, monkeypatch):
        """With one slot plugged, later high-priority work runs first."""
        compute_order = []
        started = threading.Event()
        release = threading.Event()

        def gated_compute(scenarios, **kwargs):
            compute_order.append(scenarios[0].overrides["n_points"])
            if len(compute_order) == 1:
                started.set()
                assert release.wait(timeout=30)
            from repro.service.jobs import RunPlan, run_plan_parallel

            return run_plan_parallel(
                RunPlan(name="service-job", scenarios=tuple(scenarios)),
                workers=1,
                executor="thread",
            ).scenario_results

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", gated_compute
        )

        async def scenario():
            manager = _manager(tmp_path, max_pending=8, max_concurrent=1)
            try:
                manager.submit(_plan(n_points=4))  # plugs the only slot
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    None, lambda: started.wait(timeout=30)
                )
                manager.submit(_plan(n_points=5), priority="low")
                manager.submit(_plan(n_points=6), priority="normal")
                manager.submit(_plan(n_points=7), priority="high")
                for _ in range(5):
                    await asyncio.sleep(0)
                assert manager.stats()["queued_for_slot"] == 3
                release.set()
                await asyncio.gather(*manager._tasks)
                return manager.stats()
            finally:
                await manager.close()

        stats = _run(scenario())
        assert compute_order == [4, 7, 6, 5]
        assert stats["jobs_done"] == 4
        assert stats["queued_for_slot"] == 0


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path, monkeypatch):
        started = threading.Event()
        release = threading.Event()

        def blocking_compute(scenarios, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            from repro.service.jobs import RunPlan, run_plan_parallel

            return run_plan_parallel(
                RunPlan(name="service-job", scenarios=tuple(scenarios)),
                workers=1,
                executor="thread",
            ).scenario_results

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", blocking_compute
        )

        async def scenario():
            manager = _manager(tmp_path, max_pending=4, max_concurrent=1)
            try:
                running = manager.submit(_plan(n_points=4))
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    None, lambda: started.wait(timeout=30)
                )
                queued = manager.submit(_plan(n_points=5))
                await asyncio.sleep(0)
                record = await manager.cancel(queued.id)
                release.set()
                await asyncio.gather(*manager._tasks)
                return record, running.record(), manager.stats()
            finally:
                await manager.close()

        cancelled, running, stats = _run(scenario())
        assert cancelled.status == "cancelled"
        assert running.status == "done"
        assert stats["jobs_cancelled"] == 1
        assert stats["jobs_failed"] == 0  # the counter-drift regression
        assert stats["jobs_done"] == 1
        assert stats["queued_for_slot"] == 0

    def test_cancel_running_owner_hands_off_to_attached_job(
        self, tmp_path, monkeypatch
    ):
        """Cancelling a claim owner makes attached jobs recompute.

        The owner is held inside its compute while a rival attaches to
        the in-flight future; cancelling the owner cancels that future,
        and the rival must come back, reclaim the hash and compute it
        itself rather than hang or fail.
        """
        compute_calls = []
        started = threading.Event()
        release = threading.Event()

        def first_call_blocks(scenarios, **kwargs):
            compute_calls.append(tuple(scenarios))
            if len(compute_calls) == 1:
                started.set()
                assert release.wait(timeout=30)
            from repro.service.jobs import RunPlan, run_plan_parallel

            return run_plan_parallel(
                RunPlan(name="service-job", scenarios=tuple(scenarios)),
                workers=1,
                executor="thread",
            ).scenario_results

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", first_call_blocks
        )

        async def scenario():
            manager = _manager(tmp_path, max_pending=4, max_concurrent=4)
            try:
                owner = manager.submit(_plan())
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    None, lambda: started.wait(timeout=30)
                )
                rival = manager.submit(_plan())
                for _ in range(10):
                    await asyncio.sleep(0)
                cancelled = await manager.cancel(owner.id)
                release.set()  # let the abandoned compute thread exit
                await asyncio.gather(*manager._tasks)
                return cancelled, rival.record(), manager.stats()
            finally:
                await manager.close()

        cancelled, rival, stats = _run(scenario())
        assert cancelled.status == "cancelled"
        assert rival.status == "done"
        assert rival.sources == ("computed",)  # recomputed, not deduped
        assert len(compute_calls) == 2
        assert stats["jobs_cancelled"] == 1
        assert stats["jobs_done"] == 1
        assert stats["inflight_scenarios"] == 0

    def test_cancel_is_idempotent_on_terminal_jobs(self, tmp_path):
        async def scenario():
            manager = _manager(tmp_path)
            try:
                job = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                first = await manager.cancel(job.id)
                second = await manager.cancel(job.id)
                return first, second, manager.stats()
            finally:
                await manager.close()

        first, second, stats = _run(scenario())
        assert first.status == "done"  # the cancel lost the race
        assert second.status == "done"
        assert stats["jobs_cancelled"] == 0
        assert stats["jobs_done"] == 1

    def test_cancel_unknown_job_returns_none(self, tmp_path):
        async def scenario():
            manager = _manager(tmp_path)
            try:
                return await manager.cancel("job-999")
            finally:
                await manager.close()

        assert _run(scenario()) is None

    def test_shutdown_counts_cancelled_not_failed(
        self, tmp_path, monkeypatch
    ):
        """The jobs_failed drift regression: shutdown-cancelled jobs
        must land in jobs_cancelled, not jobs_failed (and not vanish
        from the counters entirely)."""
        started = threading.Event()
        release = threading.Event()

        def blocking_compute(scenarios, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            from repro.service.jobs import RunPlan, run_plan_parallel

            return run_plan_parallel(
                RunPlan(name="service-job", scenarios=tuple(scenarios)),
                workers=1,
                executor="thread",
            ).scenario_results

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", blocking_compute
        )

        async def scenario():
            manager = _manager(tmp_path, max_pending=4, max_concurrent=1)
            inflight = manager.submit(_plan(n_points=4))
            queued = manager.submit(_plan(n_points=5))
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, lambda: started.wait(timeout=30))
            await manager.close()
            release.set()
            return inflight.record(), queued.record(), manager.stats()

        inflight, queued, stats = _run(scenario())
        assert inflight.status == "cancelled"
        assert queued.status == "cancelled"
        assert stats["jobs_cancelled"] == 2
        assert stats["jobs_failed"] == 0
        assert stats["jobs_done"] == 0


class TestEviction:
    def test_ttl_evicts_finished_jobs_to_expired(self, tmp_path):
        async def collect():
            manager = _manager(tmp_path, job_ttl_s=60.0)
            try:
                job = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                evicted = manager._evict_finished(now=job.finished_at + 61.0)
                record = manager.record_of(job.id)
                return (
                    evicted,
                    record,
                    manager.job(job.id),
                    manager.stats(),
                )
            finally:
                await manager.close()

        evicted, record, job, stats = _run(collect())
        assert evicted == 1
        assert job is None
        assert record is not None
        assert record.status == "expired"
        assert stats["jobs_evicted"] == 1
        # Reconciliation: cumulative terminal counters == retained
        # terminal records + evicted ones.
        terminal_retained = sum(
            stats["jobs_by_status"][s] for s in ("done", "failed", "cancelled")
        )
        cumulative = (
            stats["jobs_done"] + stats["jobs_failed"] + stats["jobs_cancelled"]
        )
        assert cumulative == terminal_retained + stats["jobs_evicted"]

    def test_ttl_never_evicts_active_jobs(self, tmp_path, monkeypatch):
        started = threading.Event()
        release = threading.Event()

        def blocking_compute(scenarios, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            from repro.service.jobs import RunPlan, run_plan_parallel

            return run_plan_parallel(
                RunPlan(name="service-job", scenarios=tuple(scenarios)),
                workers=1,
                executor="thread",
            ).scenario_results

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", blocking_compute
        )

        async def scenario():
            manager = _manager(tmp_path, job_ttl_s=0.001, max_records=1)
            try:
                job = manager.submit(_plan())
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    None, lambda: started.wait(timeout=30)
                )
                evicted = manager._evict_finished(now=job.created_at + 3600)
                release.set()
                await asyncio.gather(*manager._tasks)
                return evicted, job.record()
            finally:
                await manager.close()

        evicted, record = _run(scenario())
        assert evicted == 0
        assert record.status == "done"

    def test_max_records_cap_evicts_oldest_finished_first(self, tmp_path):
        async def scenario():
            manager = _manager(tmp_path, job_ttl_s=None, max_records=2)
            try:
                jobs = []
                for n in (4, 5, 6, 7):
                    jobs.append(manager.submit(_plan(n_points=n)))
                    await asyncio.gather(*manager._tasks)
                manager._evict_finished()
                statuses = {
                    j.id: manager.record_of(j.id).status for j in jobs
                }
                return statuses, manager.stats()
            finally:
                await manager.close()

        statuses, stats = _run(scenario())
        ordered = [statuses[f"job-{i}"] for i in (1, 2, 3, 4)]
        assert ordered == ["expired", "expired", "done", "done"]
        assert stats["jobs_evicted"] == 2
        assert stats["jobs_done"] == 4

    def test_pending_counts_active_not_all_time(self, tmp_path):
        async def scenario():
            manager = _manager(tmp_path)
            try:
                for n in (4, 5):
                    manager.submit(_plan(n_points=n))
                pending_now = manager.pending()
                await asyncio.gather(*manager._tasks)
                return pending_now, manager.pending(), len(manager.state.jobs)
            finally:
                await manager.close()

        pending_now, pending_after, retained = _run(scenario())
        assert pending_now == 2
        assert pending_after == 0  # finished jobs no longer count
        assert retained == 2  # ...though their records are retained

    def test_protected_hashes_pin_retained_jobs_until_eviction(
        self, tmp_path
    ):
        async def scenario():
            manager = _manager(tmp_path, job_ttl_s=60.0)
            try:
                job = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                pinned_before = manager.protected_hashes()
                manager._evict_finished(now=job.finished_at + 61.0)
                pinned_after = manager.protected_hashes()
                return job.record(), pinned_before, pinned_after
            finally:
                await manager.close()

        record, before, after = _run(scenario())
        assert set(record.scenario_hashes) <= before
        assert after == set()  # eviction is what unpins

    def test_invalid_eviction_budgets_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _manager(tmp_path, job_ttl_s=0.0)
        with pytest.raises(ConfigurationError):
            _manager(tmp_path, max_records=0)
