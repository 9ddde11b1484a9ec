"""Generated interleavings of job operations against the journal reducer.

A hypothesis state machine drives a real :class:`JobManager` and its
:class:`JobJournal` through submit, cancel, settle, eviction,
compaction, crash reboots and clean reboots, in any order. The manager
keeps its own job state and the journal file is the durable record;
both are built by the same reducer, so after every settled step the
manager's job table and expired memory must equal a fresh replay of
the file. Every accepted id must keep answering, no job may be
journaled terminal twice, only a client's cancel may leave a job
``cancelled`` (shutdown's cancellations re-queue), a reboot must
report how the previous life ended, and every finished job's results
must be bit-identical to a serial session.

A second machine runs two managers -- two replicas -- on one journal
file and one store, as the lease tests build them. No accepted id may
ever be handed out twice or bound to a second plan hash, and after
both replicas crash and reboot every client's job must still answer,
on both replicas, with the plan that client submitted.
"""

import asyncio
import functools
import json
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.api import RunPlan, Scenario, SimulationSession
from repro.io import to_record
from repro.service import JobJournal, JobManager, ResultStore

N_POINTS = (4, 5, 6)


def _plan(n_points):
    return RunPlan(
        name=f"model-{n_points}",
        scenarios=(Scenario("fig6", overrides={"n_points": n_points}),),
    )


@functools.lru_cache(maxsize=None)
def _serial(n_points):
    """The oracle: one serial session run of the same plan."""
    return SimulationSession(seed=0).run_plan(_plan(n_points))


class JobLifecycle(RuleBasedStateMachine):
    """Submit/cancel/settle/evict/compact/reboot against one journal."""

    jobs = Bundle("jobs")

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="job-model-"))
        self.path = self.root / "journal.jsonl"
        self.loop = asyncio.new_event_loop()
        self.accepted = set()
        self.cancelled = set()
        self.manager = self._boot()
        assert self.manager.last_recovery["mode"] == "fresh"

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    def _boot(self):
        manager = JobManager(
            ResultStore(self.root / "store"),
            executor="thread",
            workers=1,
            max_pending=64,
            job_ttl_s=60.0,
            max_records=3,
            journal=JobJournal(self.path, compact_every=5),
        )
        self._run(manager.recover())
        return manager

    def _settled(self):
        return all(task.done() for task in self.manager._tasks)

    async def _settle(self):
        await asyncio.gather(*self.manager._tasks, return_exceptions=True)

    # ----- rules ----------------------------------------------------------

    @rule(target=jobs, n_points=st.sampled_from(N_POINTS))
    def submit(self, n_points):
        async def go():
            return self.manager.submit(_plan(n_points))

        job = self._run(go())
        self.accepted.add(job.id)
        return job.id

    @rule(job_id=jobs)
    def cancel(self, job_id):
        self.cancelled.add(job_id)
        record = self._run(self.manager.cancel(job_id))
        assert record is not None

    @rule()
    def settle(self):
        self._run(self._settle())

    @rule(later_s=st.sampled_from((0.0, 30.0, 120.0)))
    def evict(self, later_s):
        self.manager._evict_finished(now=time.time() + later_s)

    @rule()
    def compact(self):
        self.manager.journal.compact()

    @rule()
    def crash_reboot(self):
        self._run(self.manager.close())
        self.manager = self._boot()
        assert self.manager.last_recovery["mode"] == "crash"

    @rule()
    def clean_reboot(self):
        self._run(self.manager.close())
        self.manager.journal.mark_clean_shutdown()
        self.manager = self._boot()
        assert self.manager.last_recovery["mode"] == "clean"

    # ----- invariants -----------------------------------------------------

    @invariant()
    def manager_state_equals_replay(self):
        if not self._settled():
            return
        replayed = JobJournal(self.path).state
        assert self.manager.state.jobs == replayed.jobs
        assert self.manager.state.expired == replayed.expired

    @invariant()
    def every_accepted_id_answers(self):
        for job_id in self.accepted:
            assert self.manager.record_of(job_id) is not None, job_id

    @invariant()
    def only_clients_cancel(self):
        # Shutdown cancels too, but those jobs re-queue on the next boot.
        for job in self.manager.state.jobs.values():
            if job.status == "cancelled":
                assert job.id in self.cancelled, job.id

    @invariant()
    def at_most_one_terminal_entry_per_job(self):
        lines = self.path.read_text().splitlines()
        terminal = Counter(
            entry["job_id"]
            for entry in map(json.loads, lines)
            if entry["kind"] == "terminal"
        )
        assert all(count == 1 for count in terminal.values()), terminal

    def teardown(self):
        try:
            self._run(self._settle())
            for job in self.manager.state.jobs.values():
                if job.status != "done":
                    continue
                (scenario,) = job.plan_record["scenarios"]
                serial = _serial(scenario["overrides"]["n_points"])
                for hash_, ref in zip(
                    job.scenario_hashes, serial.scenario_results
                ):
                    got = self.manager.store.get(hash_)
                    assert got is not None
                    assert got.scenario == ref.scenario
                    assert to_record(got.result) == to_record(ref.result)
        finally:
            self._run(self.manager.close())
            self.loop.close()
            shutil.rmtree(self.root, ignore_errors=True)


JobLifecycle.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
TestJobLifecycle = JobLifecycle.TestCase


class TwoReplicas(RuleBasedStateMachine):
    """Two managers submitting to, and crashing over, one journal."""

    OWNERS = ("owner-a", "owner-b")

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="job-model-replicas-"))
        self.path = self.root / "journal.jsonl"
        self.loop = asyncio.new_event_loop()
        self.bound = {}  # accepted job id -> the plan hash it answers
        self.submitted_to = {}  # accepted job id -> the replica it went to
        self.known_to_both = set()  # ids accepted before a crash of both
        self.managers = self._boot()

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    def _boot(self):
        store = ResultStore(self.root / "store")
        managers = {}
        for owner in self.OWNERS:
            managers[owner] = JobManager(
                store,
                executor="thread",
                workers=1,
                max_pending=64,
                job_ttl_s=None,
                max_records=None,
                journal=JobJournal(self.path, compact_every=5),
                owner_id=owner,
                # Both replicas re-run the jobs a crash left open; a short
                # TTL keeps the loser's wait for the winner's lease short.
                lease_ttl_s=0.5,
            )
            self._run(managers[owner].recover())
        return managers

    async def _settle(self):
        tasks = [t for m in self.managers.values() for t in m._tasks]
        await asyncio.gather(*tasks, return_exceptions=True)

    async def _close(self):
        for manager in self.managers.values():
            await manager.close()

    # ----- rules ----------------------------------------------------------

    @rule(owner=st.sampled_from(OWNERS), n_points=st.sampled_from(N_POINTS))
    def submit(self, owner, n_points):
        async def go():
            return self.managers[owner].submit(_plan(n_points))

        job = self._run(go())
        assert job.id not in self.bound, f"{job.id} handed out twice"
        self.bound[job.id] = job.plan_hash
        self.submitted_to[job.id] = owner

    @rule()
    def settle(self):
        self._run(self._settle())

    @rule()
    def crash_both(self):
        self._run(self._close())
        self.managers = self._boot()
        self.known_to_both = set(self.bound)

    # ----- invariants -----------------------------------------------------

    @invariant()
    def no_id_is_rebound(self):
        lines = self.path.read_text().splitlines()
        for entry in map(json.loads, lines):
            if entry["kind"] == "accepted":
                job_id = entry["job_id"]
                assert entry["data"]["plan_hash"] == self.bound[job_id], job_id

    @invariant()
    def every_job_answers_with_its_own_plan(self):
        for job_id, plan_hash in self.bound.items():
            owners = (
                self.OWNERS
                if job_id in self.known_to_both
                else (self.submitted_to[job_id],)
            )
            for owner in owners:
                record = self.managers[owner].record_of(job_id)
                assert record is not None, (owner, job_id)
                assert record.plan_hash == plan_hash, (owner, job_id)

    def teardown(self):
        try:
            self._run(self._settle())
        finally:
            self._run(self._close())
            self.loop.close()
            shutil.rmtree(self.root, ignore_errors=True)


TwoReplicas.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
TestTwoReplicas = TwoReplicas.TestCase
