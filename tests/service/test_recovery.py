"""Crash-safe restart: journal replay through the manager and the app.

A "crash" at manager level is :meth:`JobManager.close` without a
terminal journal entry (shutdown cancellation is deliberately not
journaled as terminal -- that is what re-queues the job); a clean
shutdown is the app's ``stop()`` appending the shutdown marker. Each
restart builds a *new* manager/app over the same journal path and
store directory, exactly what a restarted service process does.
"""

import asyncio
import threading

import pytest

from repro.api import RunPlan, Scenario, scenario_hash
from repro.service import (
    JobJournal,
    JobManager,
    ResultStore,
    ServiceApp,
)


def _plan(n_points=6, experiment="fig6", name="recovery-test"):
    return RunPlan(
        name=name,
        scenarios=(Scenario(experiment, overrides={"n_points": n_points}),),
    )


def _manager(tmp_path, **kwargs):
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("journal", JobJournal(tmp_path / "journal.jsonl"))
    return JobManager(ResultStore(tmp_path / "store"), **kwargs)


def _run(coro):
    return asyncio.run(coro)


def _blocking_compute(started, release):
    """A compute fake that parks inside the pool until released."""

    def compute(scenarios, **kwargs):
        started.set()
        assert release.wait(timeout=30)
        from repro.service.jobs import RunPlan, run_plan_parallel

        return run_plan_parallel(
            RunPlan(name="service-job", scenarios=tuple(scenarios)),
            workers=1,
            executor="thread",
        ).scenario_results

    return compute


class TestManagerRecovery:
    def test_fresh_journal_reports_fresh(self, tmp_path):
        async def scenario():
            manager = _manager(tmp_path)
            try:
                return await manager.recover()
            finally:
                await manager.close()

        report = _run(scenario())
        assert report["mode"] == "fresh"
        assert report["restored"] == report["requeued"] == 0

    def test_terminal_jobs_are_restored_across_restart(self, tmp_path):
        async def first_life():
            manager = _manager(tmp_path)
            try:
                await manager.recover()
                job = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                return job.id, job.record()
            finally:
                await manager.close()

        job_id, original = _run(first_life())
        assert original.status == "done"

        async def second_life():
            manager = _manager(tmp_path)
            try:
                report = await manager.recover()
                return report, manager.record_of(job_id), manager.stats()
            finally:
                await manager.close()

        report, restored, stats = _run(second_life())
        assert report["mode"] == "crash"  # no clean-shutdown marker
        assert report["restored"] == 1
        assert restored is not None
        assert restored.status == "done"
        assert restored.plan_hash == original.plan_hash
        assert restored.scenario_hashes == original.scenario_hashes
        assert restored.sources == original.sources
        assert restored.plan_name == "recovery-test"
        assert stats["jobs_restored"] == 1

    def test_unfinished_job_requeues_and_completes(
        self, tmp_path, monkeypatch
    ):
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results",
            _blocking_compute(started, release),
        )

        async def crash_life():
            manager = _manager(tmp_path)
            await manager.recover()
            job = manager.submit(_plan())
            await asyncio.sleep(0)
            assert await asyncio.get_running_loop().run_in_executor(
                None, started.wait, 30
            )
            # Crash: cancel without journaling a terminal state.
            await manager.close()
            release.set()  # let the orphaned pool thread unwind
            return job.id

        job_id = _run(crash_life())

        async def next_life():
            release.set()
            manager = _manager(tmp_path)
            try:
                report = await manager.recover()
                await asyncio.gather(*manager._tasks)
                return report, manager.record_of(job_id), manager.stats()
            finally:
                await manager.close()

        report, record, stats = _run(next_life())
        assert report["mode"] == "crash"
        assert report["requeued"] == 1
        assert record is not None
        assert record.status == "done"
        assert stats["jobs_recovered"] == 1

    def test_recovered_plan_recomputes_only_missing_scenarios(
        self, tmp_path, monkeypatch
    ):
        plan = RunPlan(
            name="two",
            scenarios=(
                Scenario("fig6", overrides={"n_points": 6}),
                Scenario("fig6", overrides={"n_points": 7}),
            ),
        )

        async def seed_life():
            manager = _manager(tmp_path)
            try:
                await manager.recover()
                # Persist ONE of the two scenarios before the crash --
                # the salvage situation PR 9 leaves behind.
                manager.submit(_plan(n_points=6, name="seed"))
                await asyncio.gather(*manager._tasks)
            finally:
                await manager.close()

        _run(seed_life())

        async def crash_life():
            manager = _manager(tmp_path)
            await manager.recover()
            job = manager.submit(plan)
            # Crash before the job's resolve cycle touches anything.
            await manager.close()
            return job.id

        job_id = _run(crash_life())

        seen = []
        real = __import__(
            "repro.service.jobs", fromlist=["compute_scenario_results"]
        ).compute_scenario_results

        def counting(scenarios, **kwargs):
            seen.append(tuple(scenarios))
            kwargs["executor"] = "thread"
            return real(scenarios, **kwargs)

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", counting
        )

        async def recovery_life():
            manager = _manager(tmp_path)
            try:
                await manager.recover()
                await asyncio.gather(*manager._tasks)
                return manager.record_of(job_id)
            finally:
                await manager.close()

        record = _run(recovery_life())
        assert record is not None
        assert record.status == "done"
        assert record.store_hits == 1
        assert record.computed == 1
        # The compute kernel only ever saw the missing scenario.
        assert len(seen) == 1
        assert len(seen[0]) == 1
        assert seen[0][0].overrides == {"n_points": 7}

    def test_expired_map_survives_restart(self, tmp_path):
        async def first_life():
            manager = _manager(
                tmp_path, job_ttl_s=0.001, max_records=1024
            )
            try:
                await manager.recover()
                job = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                await asyncio.sleep(0.01)
                manager._evict_finished()
                assert manager.record_of(job.id).status == "expired"
                return job.id
            finally:
                await manager.close()

        job_id = _run(first_life())

        async def second_life():
            manager = _manager(tmp_path)
            try:
                report = await manager.recover()
                return report, manager.record_of(job_id)
            finally:
                await manager.close()

        report, record = _run(second_life())
        assert report["expired"] == 1
        assert record is not None
        assert record.status == "expired"

    def test_job_ids_continue_after_restart(self, tmp_path):
        async def first_life():
            manager = _manager(tmp_path)
            try:
                await manager.recover()
                job = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                return job.id
            finally:
                await manager.close()

        assert _run(first_life()) == "job-1"

        async def second_life():
            manager = _manager(tmp_path)
            try:
                await manager.recover()
                return manager.submit(_plan(n_points=8)).id
            finally:
                await manager.close()

        assert _run(second_life()) == "job-2"

    def test_drain_timeout_reports_stragglers(self, tmp_path, monkeypatch):
        started, release = threading.Event(), threading.Event()

        # The job is cancelled, its result discarded: block, then exit
        # cheaply so the orphaned pool thread cannot stall later tests.
        def parked(scenarios, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            return ()

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", parked
        )

        async def scenario():
            manager = _manager(tmp_path)
            try:
                await manager.recover()
                manager.submit(_plan())
                await asyncio.sleep(0)
                drained = await manager.drain(timeout_s=0.05)
                return drained
            finally:
                await manager.close()
                release.set()

        assert _run(scenario()) is False

    def test_no_journal_recover_is_a_noop(self, tmp_path):
        async def scenario():
            manager = _manager(tmp_path, journal=None)
            try:
                report = await manager.recover()
                job = manager.submit(_plan())
                await asyncio.gather(*manager._tasks)
                return report, job.record()
            finally:
                await manager.close()

        report, record = _run(scenario())
        assert report["mode"] == "fresh"
        assert record.status == "done"


class TestLeases:
    def test_rival_owner_waits_then_rides_the_store(
        self, tmp_path, monkeypatch
    ):
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results",
            _blocking_compute(started, release),
        )
        path = tmp_path / "journal.jsonl"
        store = ResultStore(tmp_path / "store")

        async def scenario():
            # TTL comfortably above any event-loop stall a loaded test
            # machine produces, so A's heartbeat always outruns expiry.
            a = JobManager(
                store,
                executor="thread",
                journal=JobJournal(path),
                owner_id="owner-a",
                lease_ttl_s=3.0,
            )
            b = JobManager(
                store,
                executor="thread",
                journal=JobJournal(path),
                owner_id="owner-b",
                lease_ttl_s=3.0,
            )
            try:
                job_a = a.submit(_plan())
                await asyncio.sleep(0)
                assert await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30
                )
                job_b = b.submit(_plan())
                # B must be parked on the lease while A computes.
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if b.counters["lease_waits"] >= 1:
                        break
                    if job_b.status not in ("queued", "running"):
                        break
                assert b.counters["lease_waits"] >= 1, (
                    job_b.status,
                    job_b.error,
                    dict(b.counters),
                    b.journal.state.leases,
                )
                assert job_b.status == "running"
                release.set()
                await asyncio.gather(*a._tasks)
                await asyncio.gather(*b._tasks)
                return job_a.record(), job_b.record()
            finally:
                await a.close()
                await b.close()

        rec_a, rec_b = _run(scenario())
        assert rec_a.status == "done"
        assert rec_a.sources == ("computed",)
        assert rec_b.status == "done"
        # The loser of the lease race never recomputes: by the time it
        # acquires, the winner's result is in the shared store.
        assert rec_b.sources == ("store",)


def test_replicas_on_one_journal_number_jobs_apart(tmp_path):
    """Two managers on one journal never hand out the same job id.

    Each numbers its next job past every job in the *shared* journal
    (under the journal's lock), so neither ``accepted`` line replaces
    the other's job on replay.
    """
    path = tmp_path / "journal.jsonl"
    store = ResultStore(tmp_path / "store")
    plans = {
        "owner-a": _plan(n_points=5, name="pa"),
        "owner-b": _plan(n_points=7, name="pb"),
    }

    async def scenario():
        managers = [
            JobManager(
                store,
                executor="thread",
                journal=JobJournal(path),
                owner_id=owner,
            )
            for owner in plans
        ]
        try:
            for manager in managers:
                await manager.recover()
            jobs = [m.submit(plans[m.owner_id]) for m in managers]
            for manager in managers:
                await asyncio.gather(*manager._tasks)
            return [(job.id, job.plan_hash) for job in jobs]
        finally:
            for manager in managers:
                await manager.close()

    submitted = _run(scenario())
    assert [job_id for job_id, _ in submitted] == ["job-1", "job-2"]
    replayed = JobJournal(path).state.jobs
    for (job_id, hash_), name in zip(submitted, ("pa", "pb")):
        assert replayed[job_id].plan_hash == hash_
        assert replayed[job_id].plan_record["name"] == name


class TestAppRecovery:
    def test_clean_restart_recovers_jobs_and_marks_mode(self, tmp_path):
        store_dir = tmp_path / "store"

        async def first_life():
            app = ServiceApp(str(store_dir), executor="thread")
            await app.start()
            job = app.manager.submit(_plan())
            await asyncio.gather(*app.manager._tasks)
            hashes = job.record().scenario_hashes
            await app.stop()
            return job.id, hashes

        job_id, hashes = _run(first_life())

        async def second_life():
            app = ServiceApp(str(store_dir), executor="thread")
            await app.start()
            try:
                record = app.manager.record_of(job_id)
                stored = app.store.get(hashes[0])
                return app.recovery, record, stored is not None
            finally:
                await app.stop()

        recovery, record, in_store = _run(second_life())
        assert recovery["mode"] == "clean"
        assert recovery["restored"] == 1
        assert record is not None
        assert record.status == "done"
        assert in_store

    def test_unfinished_job_requeues_across_app_restart(
        self, tmp_path, monkeypatch
    ):
        started, release = threading.Event(), threading.Event()
        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results",
            _blocking_compute(started, release),
        )
        store_dir = tmp_path / "store"

        async def crash_life():
            app = ServiceApp(str(store_dir), executor="thread")
            await app.start()
            job = app.manager.submit(_plan())
            await asyncio.sleep(0)
            assert await asyncio.get_running_loop().run_in_executor(
                None, started.wait, 30
            )
            await app.stop()  # cancels the job; journal keeps it pending
            return job.id

        job_id = _run(crash_life())
        release.set()

        async def next_life():
            app = ServiceApp(str(store_dir), executor="thread")
            await app.start()
            try:
                await asyncio.gather(*app.manager._tasks)
                return app.recovery, app.manager.record_of(job_id)
            finally:
                await app.stop()

        recovery, record = _run(next_life())
        assert recovery["requeued"] == 1
        assert record is not None
        assert record.status == "done"
        expected = scenario_hash(_plan().expanded()[0])
        assert record.scenario_hashes == (expected,)

    def test_journal_none_disables_durability(self, tmp_path):
        store_dir = tmp_path / "store"

        async def first_life():
            app = ServiceApp(
                str(store_dir), executor="thread", journal=None
            )
            await app.start()
            job = app.manager.submit(_plan())
            await asyncio.gather(*app.manager._tasks)
            await app.stop()
            return job.id

        job_id = _run(first_life())
        assert not (store_dir / "journal.jsonl").exists()

        async def second_life():
            app = ServiceApp(
                str(store_dir), executor="thread", journal=None
            )
            await app.start()
            try:
                return app.manager.record_of(job_id)
            finally:
                await app.stop()

        assert _run(second_life()) is None

    def test_bad_drain_timeout_rejected(self, tmp_path):
        with pytest.raises(Exception):
            ServiceApp(str(tmp_path / "store"), drain_timeout_s=-1.0)
