"""Async job management: priority dispatch, cancellation, single-flight.

The :class:`JobManager` is the heart of the simulation service
(:mod:`repro.service.app`): every submitted
:class:`~repro.api.plan.RunPlan` becomes a :class:`Job` whose expanded
scenarios are resolved one of three ways --

* **store** -- the canonical scenario hash is already in the
  :class:`~repro.service.store.ResultStore`: served without compute;
* **inflight** -- another running job is computing the same hash right
  now: this job awaits that computation instead of repeating it
  (single-flight dedupe, keyed by hash across *all* concurrent jobs);
* **computed** -- a genuine miss: the job claims the hash, runs it on
  the existing sharded executor
  (:func:`~repro.api.executor.run_plan_parallel` over
  ``shard_plan``/``run_shard``), stores the result, and wakes every
  job that attached to the claim.

Compute happens on a thread off the event loop, so the service keeps
accepting and deduplicating submissions while simulations run. The
lifecycle layer on top:

* **Priority dispatch** -- jobs carry a :data:`PRIORITY_CLASSES`
  priority; the :class:`PriorityGate` admits the best-ranked waiter
  when a slot frees (FIFO within a class, starvation-free because
  waiting jobs age one class per ``aging_s`` seconds).
* **Cancellation** -- :meth:`JobManager.cancel` moves a queued or
  running job to ``cancelled``; in-flight claims the job owned are
  handed off (their futures cancelled) so attached jobs re-resolve --
  recompute or re-hit the store -- instead of hanging or failing.
* **Finished-job eviction** -- terminal job records are garbage
  collected by TTL and a max-records cap, so the job table and
  :meth:`JobManager.pending` stay O(active); evicted ids resolve to a
  typed ``expired`` record rather than a bare 404.
* **Store pinning** -- :meth:`JobManager.protected_hashes` names every
  hash a retained job references, which the GC surface
  (``POST /admin/prune``) excludes from pruning so a live job's
  classified store hit can never vanish before it is fetched.
* **Deadlines and salvage** -- a job submitted with ``timeout_s`` is
  watched by a ``call_later`` watchdog that cancels a stuck job into
  the typed ``timeout`` terminal state (counted by ``jobs_timeout``);
  and when a plan fails mid-compute, the scenarios that *did* complete
  are persisted to the store before the job fails
  (:class:`PartialComputeError`), so resubmitting the same plan
  resumes from store hits instead of recomputing everything.
* **Durability** -- job lifecycle state is a private
  :class:`~repro.service.journal.JournalState` that changes only
  through ``JobManager._commit``: journal the entry (the ``accepted``
  one fsynced before :meth:`JobManager.submit` returns), then fold
  that same entry with :func:`~repro.service.journal.apply`, the
  reducer the journal's own replay uses. :meth:`JobManager.recover`
  adopts the replayed state and schedules its unfinished jobs (their
  re-run resolves through the store). The one divergence: a job that
  shutdown cancels is not journaled as terminal, so the next boot
  re-queues it. Plan leases, arbitrated by journal log order, keep
  replicas on one store directory from double-running a plan.

The queue is bounded (:class:`JobQueueFull` maps to HTTP 503) and
:class:`RateLimiter` implements the per-client token bucket behind
HTTP 429 + ``Retry-After``.
"""

from __future__ import annotations

import asyncio
import copy
import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..api.executor import run_plan_parallel
from ..api.hashing import plan_hash, scenario_hash
from ..api.plan import RunPlan
from ..errors import ConfigurationError, ReproError
from ..io import from_record, to_record
from .journal import (
    TERMINAL_STATUSES,
    Job,
    JobJournal,
    JournalEntry,
    JournalState,
    apply,
    payload,
)
from .store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..api.plan import ScenarioResult


class JobQueueFull(ReproError):
    """Raised when a submission would exceed the bounded job queue."""


#: Lifecycle states a job moves through (forward within one process life).
JOB_STATUSES = ("queued", "running", *TERMINAL_STATUSES)

#: Pseudo-status of a job record evicted from the table (lookup only).
EXPIRED_STATUS = "expired"

#: Where one scenario's result came from (``pending`` while unresolved).
RESULT_SOURCES = ("pending", "store", "computed", "inflight")

#: Named priority classes (lower rank dispatches first).
PRIORITY_CLASSES = {"high": 0, "normal": 1, "low": 2}

#: Inclusive bounds on raw integer priorities.
MIN_PRIORITY, MAX_PRIORITY = 0, 9

#: The priority a submission gets when it names none.
DEFAULT_PRIORITY = PRIORITY_CLASSES["normal"]


def normalize_priority(priority: "int | str | None") -> int:
    """Coerce a submitted priority (class name or int) to its rank.

    Accepts a :data:`PRIORITY_CLASSES` name (``"high"``/``"normal"``/
    ``"low"``), an integer in ``[MIN_PRIORITY, MAX_PRIORITY]`` (lower
    runs first), or ``None`` for :data:`DEFAULT_PRIORITY`. Anything
    else raises :class:`~repro.errors.ConfigurationError`.
    """
    if priority is None:
        return DEFAULT_PRIORITY
    if isinstance(priority, str):
        try:
            return PRIORITY_CLASSES[priority]
        except KeyError:
            raise ConfigurationError(
                f"unknown priority class {priority!r}; expected one of "
                f"{sorted(PRIORITY_CLASSES)} or an integer in "
                f"[{MIN_PRIORITY}, {MAX_PRIORITY}]"
            ) from None
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ConfigurationError(
            f"priority must be an int or a class name, got {priority!r}"
        )
    if not MIN_PRIORITY <= priority <= MAX_PRIORITY:
        raise ConfigurationError(
            f"priority {priority} outside [{MIN_PRIORITY}, {MAX_PRIORITY}]"
        )
    return int(priority)


@dataclass(frozen=True)
class JobRecord:
    """The immutable wire form of a job's status at one instant.

    Attributes
    ----------
    id:
        Service-unique job id (``"job-<n>"``).
    status:
        One of :data:`JOB_STATUSES`.
    plan_name, plan_hash:
        The submitted plan's name and content hash
        (:func:`~repro.api.hashing.plan_hash`).
    scenario_hashes:
        Canonical hash of every expanded scenario, in plan order.
    sources:
        Per-scenario provenance, aligned with ``scenario_hashes``:
        one of :data:`RESULT_SOURCES`.
    store_hits, computed, deduped:
        Scenario counts by provenance (``deduped`` = served by another
        job's in-flight computation).
    elapsed_s:
        Wall-clock seconds from submission to completion (0 while
        unfinished).
    error:
        The failure message of a ``failed`` job, else ``None``.
    priority:
        The job's dispatch rank (lower runs first; see
        :data:`PRIORITY_CLASSES`).
    timeout_s:
        The deadline the job was submitted with, or ``None``. A job
        that blows it finishes in the ``timeout`` status.
    """

    id: str
    status: str
    plan_name: str
    plan_hash: str
    scenario_hashes: "tuple[str, ...]"
    sources: "tuple[str, ...]"
    store_hits: int
    computed: int
    deduped: int
    elapsed_s: float
    error: "str | None"
    priority: int = DEFAULT_PRIORITY
    timeout_s: "float | None" = None


def expired_job_record(job_id: str) -> JobRecord:
    """The typed record an evicted job id resolves to.

    Eviction drops a finished job's full state; what remains is the id
    and the fact that it once reached a terminal state -- enough for a
    client to distinguish "expired, resubmit if you still need it"
    from "never existed" (a bare 404).
    """
    return JobRecord(
        id=job_id,
        status=EXPIRED_STATUS,
        plan_name="",
        plan_hash="",
        scenario_hashes=(),
        sources=(),
        store_hits=0,
        computed=0,
        deduped=0,
        elapsed_s=0.0,
        error=None,
    )


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s up to ``capacity``.

    :meth:`acquire` never blocks -- it either takes a token and returns
    ``0.0``, or returns the seconds until one will be available (the
    ``Retry-After`` the HTTP layer reports).
    """

    def __init__(
        self,
        rate: float,
        capacity: float,
        clock: "Callable[[], float]" = time.monotonic,
    ) -> None:
        """Create a full bucket refilling at ``rate`` tokens per second."""
        if rate <= 0 or capacity <= 0:
            raise ConfigurationError(
                f"rate and capacity must be > 0, got {rate}/{capacity}"
            )
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = self.capacity
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.capacity, self._tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now

    def acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available; else the wait in seconds."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return 0.0
        return (tokens - self._tokens) / self.rate


class RateLimiter:
    """Per-client token buckets (client id -> :class:`TokenBucket`).

    Unknown clients get a fresh full bucket on first sight; the HTTP
    layer keys clients by ``X-Client-Id`` header falling back to the
    peer address.
    """

    def __init__(
        self,
        rate: float,
        capacity: float,
        clock: "Callable[[], float]" = time.monotonic,
    ) -> None:
        """Create a limiter handing each client ``rate``/``capacity``."""
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._buckets: "dict[str, TokenBucket]" = {}

    def check(self, client_id: str) -> float:
        """0.0 if the client may proceed, else its retry-after seconds."""
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.capacity, self._clock)
            self._buckets[client_id] = bucket
        return bucket.acquire()


@dataclass
class _Waiter:
    """One job waiting for a dispatch slot (internal to the gate)."""

    priority: int
    seq: int
    since: float
    future: "asyncio.Future"


class PriorityGate:
    """A concurrency gate that admits waiters by aged priority.

    Replaces the bare semaphore in :class:`JobManager`: up to ``slots``
    holders run at once, and when a slot frees the best-ranked waiter
    is admitted. Rank is ``(effective_priority, arrival_seq)`` --
    strict FIFO within a priority class -- where the effective priority
    of a waiter improves by one class for every ``aging_s`` seconds it
    has waited. Aging makes the gate starvation-free: any low-priority
    job's effective priority eventually beats every possible fresh
    submission, because priorities are bounded below.

    Single-event-loop use only (like the manager state it guards); the
    clock is injectable so aging is testable without sleeping.
    """

    def __init__(
        self,
        slots: int,
        *,
        aging_s: float = 30.0,
        clock: "Callable[[], float]" = time.monotonic,
    ) -> None:
        """Create a gate with ``slots`` concurrent holders."""
        if slots < 1:
            raise ConfigurationError(f"slots must be >= 1, got {slots}")
        if aging_s <= 0:
            raise ConfigurationError(f"aging_s must be > 0, got {aging_s}")
        self.slots = int(slots)
        self.aging_s = float(aging_s)
        self._clock = clock
        self._active = 0
        self._seq = itertools.count()
        self._waiting: "list[_Waiter]" = []

    @property
    def active(self) -> int:
        """Slots currently held."""
        return self._active

    @property
    def waiting(self) -> int:
        """Waiters not yet admitted."""
        return len(self._waiting)

    def effective_priority(self, waiter: _Waiter, now: float) -> int:
        """A waiter's rank after aging (one class per ``aging_s``)."""
        return waiter.priority - int((now - waiter.since) / self.aging_s)

    def _dispatch(self) -> None:
        now = self._clock()
        while self._active < self.slots and self._waiting:
            best = min(
                self._waiting,
                key=lambda w: (self.effective_priority(w, now), w.seq),
            )
            self._waiting.remove(best)
            self._active += 1
            best.future.set_result(None)

    async def acquire(self, priority: int = DEFAULT_PRIORITY) -> None:
        """Wait for a slot at ``priority``; cancellation-safe.

        If the awaiting task is cancelled the waiter is withdrawn (or,
        when the slot was already granted, released) before the
        :class:`asyncio.CancelledError` propagates -- no slot leaks.
        """
        waiter = _Waiter(
            priority=int(priority),
            seq=next(self._seq),
            since=self._clock(),
            future=asyncio.get_running_loop().create_future(),
        )
        self._waiting.append(waiter)
        self._dispatch()
        try:
            await waiter.future
        except asyncio.CancelledError:
            if waiter in self._waiting:
                self._waiting.remove(waiter)
            elif waiter.future.done() and not waiter.future.cancelled():
                # Granted but abandoned before use: hand the slot on.
                self.release()
            raise

    def release(self) -> None:
        """Free one held slot and admit the best waiter, if any."""
        if self._active < 1:
            raise ConfigurationError("release() without a held slot")
        self._active -= 1
        self._dispatch()


class PartialComputeError(ReproError):
    """A plan's compute failed, but some scenarios did complete.

    Raised by :func:`compute_scenario_results` when the supervised
    executor exhausts its retries on part of the plan. ``completed``
    maps the *input position* of each scenario that did finish to its
    :class:`~repro.api.plan.ScenarioResult` -- the salvage the manager
    persists to the store before failing the job -- and ``failures``
    carries the typed :class:`~repro.api.plan.ShardFailure` records
    naming what was lost.
    """

    def __init__(
        self,
        message: str,
        completed: "Mapping[int, ScenarioResult]",
        failures: "tuple[Any, ...]",
    ) -> None:
        super().__init__(message)
        self.completed = dict(completed)
        self.failures = tuple(failures)


def compute_scenario_results(
    scenarios: "tuple[Any, ...]",
    *,
    seed: int = 0,
    defaults: "Mapping[str, Any] | None" = None,
    workers: int = 1,
    executor: str = "process",
    timeout_s: "float | None" = None,
    max_shard_retries: int = 2,
) -> "tuple[ScenarioResult, ...]":
    """Compute concrete scenarios on the sharded executor, in order.

    The blocking compute kernel the job manager runs off-loop: wraps
    the scenarios in a throwaway plan and dispatches it through
    :func:`~repro.api.executor.run_plan_parallel` (process pool by
    default; a single shard runs inline), returning the
    :class:`~repro.api.plan.ScenarioResult` list aligned with the
    input order.

    Runs under supervision (``raise_on_failure=False``): failed or
    crashed shards are retried up to ``max_shard_retries`` times and
    bounded by the per-shard ``timeout_s``. On full success the result
    tuple is returned as before; when retries are exhausted on part of
    the plan, :class:`PartialComputeError` carries the completed
    results (for salvage) alongside the failure records.
    """
    plan = RunPlan(name="service-job", scenarios=tuple(scenarios))
    outcome = run_plan_parallel(
        plan,
        workers=max(1, int(workers)),
        seed=seed,
        defaults=defaults,
        executor=executor,
        timeout_s=timeout_s,
        max_shard_retries=max_shard_retries,
        raise_on_failure=False,
    )
    if outcome.failures:
        lost = [
            scenario_id
            for failure in outcome.failures
            for scenario_id in failure.scenario_ids
        ]
        causes = sorted({failure.cause for failure in outcome.failures})
        raise PartialComputeError(
            f"{len(lost)} of {len(scenarios)} scenarios failed "
            f"({'/'.join(causes)}) after shard retries: {lost}",
            completed=outcome.results_by_position(),
            failures=outcome.failures,
        )
    return outcome.scenario_results


class JobManager:
    """Owns jobs, the single-flight map, and the compute off-load pool.

    One manager per service process. All coordination state
    (``_inflight``, job table, counters) is touched only from the
    event loop thread; the blocking simulation work runs on
    ``_compute_pool`` threads via :func:`compute_scenario_results`.
    Job lifecycle state lives in ``state``, a private
    :class:`~repro.service.journal.JournalState` that changes only
    through :meth:`_commit`.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        seed: int = 0,
        defaults: "Mapping[str, Any] | None" = None,
        workers: int = 1,
        executor: str = "process",
        max_pending: int = 16,
        max_concurrent: int = 2,
        aging_s: float = 30.0,
        job_ttl_s: "float | None" = 3600.0,
        max_records: "int | None" = 1024,
        shard_timeout_s: "float | None" = None,
        max_shard_retries: int = 2,
        journal: "JobJournal | None" = None,
        owner_id: str = "",
        lease_ttl_s: float = 30.0,
    ) -> None:
        """Wire the manager to its store and executor configuration.

        ``journal`` enables the durability layer: lifecycle transitions
        are written ahead to it and plan-level leases (held as
        ``owner_id``, renewed every ``lease_ttl_s / 3`` seconds) guard
        compute against a second replica on the same store directory.
        ``owner_id`` defaults to a per-process identity.
        """
        if lease_ttl_s <= 0:
            raise ConfigurationError(
                f"lease_ttl_s must be > 0, got {lease_ttl_s}"
            )
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ConfigurationError(
                f"shard_timeout_s must be > 0 or None, got {shard_timeout_s}"
            )
        if max_shard_retries < 0:
            raise ConfigurationError(
                f"max_shard_retries must be >= 0, got {max_shard_retries}"
            )
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if max_concurrent < 1:
            raise ConfigurationError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        if job_ttl_s is not None and job_ttl_s <= 0:
            raise ConfigurationError(
                f"job_ttl_s must be > 0 or None, got {job_ttl_s}"
            )
        if max_records is not None and max_records < 1:
            raise ConfigurationError(
                f"max_records must be >= 1 or None, got {max_records}"
            )
        self.store = store
        self.journal = journal
        self.owner_id = owner_id or f"owner-{os.getpid()}"
        self.lease_ttl_s = float(lease_ttl_s)
        self.last_recovery: "dict[str, Any] | None" = None
        self._draining = False
        self.seed = int(seed)
        self.defaults = dict(defaults or {})
        self.workers = int(workers)
        self.executor = executor
        self.shard_timeout_s = (
            None if shard_timeout_s is None else float(shard_timeout_s)
        )
        self.max_shard_retries = int(max_shard_retries)
        self.max_pending = int(max_pending)
        self.job_ttl_s = None if job_ttl_s is None else float(job_ttl_s)
        self.max_records = None if max_records is None else int(max_records)
        self.state = JournalState()
        self._inflight: "dict[str, asyncio.Future]" = {}
        self._gate = PriorityGate(int(max_concurrent), aging_s=aging_s)
        self._compute_pool = ThreadPoolExecutor(
            max_workers=int(max_concurrent),
            thread_name_prefix="repro-service-compute",
        )
        self._tasks: "set[asyncio.Task]" = set()
        self.counters = {
            "jobs_submitted": 0,
            "jobs_done": 0,
            "jobs_failed": 0,
            "jobs_cancelled": 0,
            "jobs_timeout": 0,
            "jobs_evicted": 0,
            "jobs_recovered": 0,
            "jobs_restored": 0,
            "lease_waits": 0,
            "store_hits": 0,
            "computed": 0,
            "deduped": 0,
        }

    # ----- the one way lifecycle state changes ----------------------------

    def _commit(
        self,
        kind: str,
        job_id: str = "",
        data: "Mapping[str, Any] | None" = None,
        *,
        sync: bool = False,
        journaled: bool = True,
    ) -> None:
        """Journal one entry, then apply it to the manager's state.

        With a journal attached the entry is on disk (fsynced when
        ``sync``) before :func:`~repro.service.journal.apply` changes
        anything, so the write-ahead rule holds by construction
        (``journaled=False`` is only for :meth:`_finish`'s divergence).
        Also keeps the lifecycle counters.
        """
        if self.journal is not None and journaled:
            entry = self.journal.append(
                kind, job_id=job_id, data=data, sync=sync
            )
        else:
            entry = JournalEntry(kind, time.time(), job_id, dict(data or {}))
        apply(self.state, entry)
        if kind == "accepted":
            self.counters["jobs_submitted"] += 1
        elif kind == "terminal":
            self.counters[f"jobs_{entry.data['status']}"] += 1
        elif kind == "evicted":
            self.counters["jobs_evicted"] += 1

    def _finish(
        self, job: Job, status: str, error: "str | None" = None
    ) -> None:
        """Commit a job's terminal transition, stamping its elapsed time."""
        data = payload(
            "terminal",
            status,
            error,
            time.perf_counter() - job.started,
            job.scenario_hashes,
            job.progress,
        )
        # The one divergence from the journal: a job that shutdown
        # cancelled stays pending there, so the next boot re-queues it.
        drained = self._draining and status == "cancelled"
        self._commit("terminal", job.id, data, journaled=not drained)

    # ----- submission and lookup -----------------------------------------

    def pending(self) -> int:
        """Jobs currently queued or running (O(active), not O(all-time))."""
        return sum(1 for task in self._tasks if not task.done())

    def submit(
        self,
        plan: RunPlan,
        *,
        priority: "int | str | None" = None,
        timeout_s: "float | None" = None,
    ) -> Job:
        """Accept a plan as a new job and schedule its execution.

        ``priority`` is a :data:`PRIORITY_CLASSES` name or an integer
        rank (lower dispatches first; default ``"normal"``).
        ``timeout_s`` is an optional whole-job deadline, measured from
        submission (queue time included): a watchdog cancels the job
        into the typed ``timeout`` terminal state when it expires.
        Raises :class:`JobQueueFull` when ``max_pending`` jobs are
        already queued or running (the HTTP layer maps this to 503 +
        ``Retry-After``). Must be called from the event loop thread.
        """
        rank = normalize_priority(priority)
        if timeout_s is not None and float(timeout_s) <= 0:
            raise ConfigurationError(
                f"timeout_s must be > 0, got {timeout_s}"
            )
        self._evict_finished()
        if self.pending() >= self.max_pending:
            raise JobQueueFull(
                f"job queue full ({self.max_pending} pending); retry later"
            )
        # Write-ahead, fsynced: the acceptance survives any crash that
        # happens after the 202 reaches the client. The id is numbered
        # past every job in the shared journal, under its lock, so a
        # replica on the same file cannot take it too.
        data = payload(
            "accepted",
            to_record(plan),
            plan_hash(plan, defaults=self.defaults),
            rank,
            None if timeout_s is None else float(timeout_s),
        )
        lock = (
            nullcontext(self.state)
            if self.journal is None
            else self.journal.locked()
        )
        with lock as shared:
            seq = max(self.state.max_job_seq, shared.max_job_seq)
            job_id = f"job-{seq + 1}"
            self._commit("accepted", job_id, data, sync=True)
        job = self.state.jobs[job_id]
        job.plan = plan
        self._schedule(job)
        return job

    def _schedule(self, job: Job) -> None:
        """Create the job's task and watchdog (submit + recovery path)."""
        loop = asyncio.get_running_loop()
        job.started = time.perf_counter()
        job.task = loop.create_task(self._run_job(job))
        self._tasks.add(job.task)
        job.task.add_done_callback(self._tasks.discard)
        if job.timeout_s is not None:
            job.watchdog = loop.call_later(
                job.timeout_s, self._expire_job, job
            )

    def _expire_job(self, job: Job) -> None:
        """Watchdog callback: deadline a still-unfinished job.

        Marks the job timed out and cancels its task; the
        :meth:`_run_job` cancellation path translates the flag into the
        ``timeout`` terminal state. A job already terminal (or evicted)
        is left alone -- the watchdog lost the race.
        """
        if job.terminal:
            return
        job.timed_out = True
        job.task.cancel()

    def job(self, job_id: str) -> "Job | None":
        """Look a job up by id (``None`` when unknown or evicted)."""
        return self.state.jobs.get(job_id)

    def record_of(self, job_id: str) -> "JobRecord | None":
        """The job's record; typed ``expired`` after eviction.

        ``None`` only for ids the manager has never seen -- an evicted
        job answers with :func:`expired_job_record` so clients can tell
        "expired, resubmit if needed" from "no such job".
        """
        job = self.state.jobs.get(job_id)
        if job is not None:
            return job.record()
        if job_id in self.state.expired:
            return expired_job_record(job_id)
        return None

    async def cancel(self, job_id: str) -> "JobRecord | None":
        """Cancel a queued or running job; returns its final record.

        Idempotent and race-tolerant: a job already terminal returns
        its record unchanged (a ``done`` job stays ``done`` -- the
        cancel lost the race), an evicted id returns the ``expired``
        record, and an unknown id returns ``None``. A genuinely
        cancelled job unwinds its single-flight claims: futures it
        owned are cancelled so attached jobs re-resolve (store hit or
        recompute) instead of hanging.
        """
        job = self.state.jobs.get(job_id)
        if job is None:
            return self.record_of(job_id)
        if job.terminal or job.task is None:
            return job.record()
        job.task.cancel()
        await asyncio.gather(job.task, return_exceptions=True)
        return job.record()

    def protected_hashes(self) -> "set[str]":
        """Every scenario hash a retained job or in-flight claim pins.

        The GC contract: pruning the store must never delete a result
        some retained job record references, because clients fetch
        ``GET /results/{hash}`` *after* polling the job -- a prune in
        that window would 404 a result the job already classified as a
        store hit (the TOCTOU this pinning closes). Eviction of the
        job record is what unpins its hashes.
        """
        pinned: "set[str]" = set(self._inflight)
        for job in self.state.jobs.values():
            pinned.update(job.scenario_hashes)
        return pinned

    def _evict_finished(self, now: "float | None" = None) -> int:
        """Drop finished jobs beyond the TTL / max-records budgets.

        Only terminal jobs are candidates (active jobs are never
        evicted, whatever the cap); oldest-finished go first. Evicted
        ids keep answering :meth:`record_of` as ``expired`` through the
        state's bounded ``expired`` memory.
        """
        if self.job_ttl_s is None and self.max_records is None:
            return 0
        now = time.time() if now is None else now
        finished = sorted(
            (j for j in self.state.jobs.values() if j.terminal),
            key=lambda j: j.finished_at or 0.0,
        )
        # Oldest-finished first, so both budgets cut a prefix.
        cut = 0
        if self.job_ttl_s is not None:
            cut = sum(now - j.finished_at > self.job_ttl_s for j in finished)
        if self.max_records is not None:
            cut = max(cut, len(self.state.jobs) - self.max_records)
        doomed = finished[:cut]
        for job in doomed:
            self._commit("evicted", job.id, payload("evicted", job.status))
        return len(doomed)

    def stats(self) -> "dict[str, Any]":
        """Aggregate counters: jobs by state, dedupe/hit totals, config.

        Counter reconciliation contract (per process life): ``jobs_done
        + jobs_failed + jobs_cancelled + jobs_timeout + jobs_restored``
        equals the terminal total of ``jobs_by_status`` plus
        ``jobs_evicted`` (eviction removes records from the table,
        never from the cumulative counters). Journal-restored terminal
        jobs finished in an *earlier* life, so they appear in
        ``jobs_by_status`` via ``jobs_restored``, not via this life's
        lifecycle counters.
        """
        by_status = {status: 0 for status in JOB_STATUSES}
        for job in self.state.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            **self.counters,
            "jobs_by_status": by_status,
            "inflight_scenarios": len(self._inflight),
            "queued_for_slot": self._gate.waiting,
            "max_pending": self.max_pending,
            "workers": self.workers,
            "executor": self.executor,
            "job_ttl_s": self.job_ttl_s,
            "max_records": self.max_records,
            "owner_id": self.owner_id,
            "lease_ttl_s": self.lease_ttl_s,
        }

    # ----- durability: recovery, drain, shutdown --------------------------

    async def recover(self) -> "dict[str, Any]":
        """Adopt the replayed journal state, then schedule its open jobs.

        Call once at service start, before accepting submissions. The
        report distinguishes a ``fresh`` journal (no prior entries)
        from a ``clean`` restart (last entry was the drain path's
        shutdown marker) and a ``crash``. Terminal jobs answer as full
        records, evicted ids as ``expired``, and job ids continue from
        the highest journaled sequence. Unfinished jobs re-run through
        the store, so only work lost with the old process is
        recomputed; their deadlines restart at recovery.
        """
        replayed = self.journal.refresh() if self.journal else JournalState()
        mode = "clean" if replayed.clean_shutdown else "crash"
        report: "dict[str, Any]" = {
            "mode": mode if replayed.entries else "fresh",
            "restored": 0,
            "requeued": 0,
            "expired": len(replayed.expired),
            "corrupt_lines": replayed.corrupt_lines,
        }
        self.last_recovery = report
        if self.journal is None:
            return report
        # Leases stay in the journal's shared view, the only one lease
        # arbitration reads.
        self.state = copy.deepcopy(replace(replayed, leases={}))
        self._commit("boot", data=payload("boot", self.owner_id))
        for job in tuple(self.state.jobs.values()):
            if job.terminal:
                self.counters["jobs_restored"] += 1
                report["restored"] += 1
                continue
            try:
                job.plan = from_record(RunPlan, job.plan_record)
            except Exception:
                # Accepted but its plan payload is unrecoverable: fail
                # it honestly rather than dropping it to a 404.
                lost = "plan record unrecoverable after restart"
                self._finish(job, "failed", lost)
                report["restored"] += 1
                continue
            self.counters["jobs_recovered"] += 1
            self._schedule(job)
            report["requeued"] += 1
        return report

    async def drain(self, timeout_s: "float | None" = None) -> bool:
        """Wait up to ``timeout_s`` for running jobs to finish.

        The graceful half of shutdown: new terminal transitions are
        still journaled, but jobs that do *not* make it before the
        deadline are cancelled by :meth:`close` without a terminal
        entry -- so the next boot re-queues them instead of trusting a
        ``cancelled`` the client never asked for. Returns ``True`` when
        everything drained in time.
        """
        self._draining = True
        tasks = {t for t in self._tasks if not t.done()}
        if not tasks:
            return True
        done, pending = await asyncio.wait(tasks, timeout=timeout_s)
        return not pending

    async def close(self) -> None:
        """Cancel outstanding jobs and release the compute pool.

        Always part of shutdown, so jobs cancelled here are treated as
        drain casualties: their ``cancelled`` state is *not* journaled
        as terminal, which is what re-queues them on the next boot.
        """
        self._draining = True
        for task in tuple(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._compute_pool.shutdown(wait=False, cancel_futures=True)

    # ----- execution ------------------------------------------------------

    async def _run_job(self, job: Job) -> None:
        """Resolve every scenario of one job (store / inflight / compute).

        Each job ends in exactly one terminal commit (:meth:`_finish`),
        so ``/stats`` counters always reconcile with
        ``jobs_by_status``. A cancellation arriving from the deadline
        watchdog (``job.timed_out``) lands in ``timeout`` rather than
        ``cancelled``. With a journal attached, the plan lease is held
        across the resolve (heartbeat renewals keep it alive past its
        TTL) and released before the terminal entry is written.
        """
        acquired = False
        leased = False
        heartbeat: "asyncio.Task | None" = None
        outcome: "tuple[str, str | None] | None" = None
        try:
            await self._gate.acquire(job.priority)
            acquired = True
            self._commit("running", job.id)
            if self.journal is not None:
                leased = await self._acquire_plan_lease(job)
                if leased:
                    heartbeat = asyncio.get_running_loop().create_task(
                        self._lease_heartbeat(job)
                    )
            await self._resolve(job)
            outcome = ("done", None)
        except asyncio.CancelledError:
            outcome = (
                ("timeout", f"job exceeded its {job.timeout_s}s deadline")
                if job.timed_out
                else ("cancelled", None)
            )
            raise
        except Exception as exc:
            outcome = ("failed", str(exc))
        finally:
            if heartbeat is not None:
                heartbeat.cancel()
            if leased and self.journal is not None:
                self.journal.release_lease(job.plan_hash, self.owner_id)
            if outcome is not None:
                self._finish(job, *outcome)
                # A finished job answers from its durable fields alone.
                job.plan, job.progress = None, []
            if job.watchdog is not None:
                job.watchdog.cancel()
            if acquired:
                self._gate.release()

    async def _acquire_plan_lease(self, job: Job) -> bool:
        """Block until this owner holds the job's plan lease.

        Polls :meth:`~repro.service.journal.JobJournal.acquire_lease`
        -- log order arbitrates races -- sleeping until the foreign
        holder's expiry when we lose. A crashed replica's lease is
        adopted as soon as it expires; a live one keeps renewing and
        keeps us waiting, which is exactly the double-run prevention.
        """
        assert self.journal is not None
        while True:
            holder = self.journal.acquire_lease(
                job.plan_hash, self.owner_id, job.id, self.lease_ttl_s
            )
            if holder.owner_id == self.owner_id:
                return True
            self.counters["lease_waits"] += 1
            wait = min(
                self.lease_ttl_s,
                max(0.05, holder.expires_at - time.time()),
            )
            await asyncio.sleep(wait)

    async def _lease_heartbeat(self, job: Job) -> None:
        """Renew the job's plan lease every third of its TTL."""
        assert self.journal is not None
        interval = max(0.05, self.lease_ttl_s / 3.0)
        while True:
            await asyncio.sleep(interval)
            self.journal.renew_lease(
                job.plan_hash, self.owner_id, self.lease_ttl_s
            )

    async def _resolve(self, job: Job) -> None:
        """Resolve all positions, re-classifying ones handed off to us.

        Runs the classify/compute/await cycle until every position has
        a source. A position attached to another job's in-flight future
        normally resolves with it; if that owner is *cancelled*, its
        futures are cancelled (the hand-off) and the positions come
        back for another round -- where they hit the store (if the
        abandoned compute still landed) or get claimed and computed by
        this job. Attached jobs therefore recompute rather than hang or
        spuriously fail when an owner is cancelled.
        """
        expanded = job.plan.expanded()
        hashes = tuple(
            scenario_hash(s, defaults=self.defaults) for s in expanded
        )
        job.scenario_hashes = hashes
        job.progress = ["pending"] * len(expanded)

        loop = asyncio.get_running_loop()
        unresolved = list(range(len(expanded)))
        while unresolved:
            owned: "list[int]" = []
            attached: "dict[int, asyncio.Future]" = {}
            claimed: "set[str]" = set()
            for position in unresolved:
                hash_ = hashes[position]
                if hash_ in claimed:
                    # The same scenario twice in one plan: the first
                    # occurrence owns the compute, later ones attach.
                    attached[position] = self._inflight[hash_]
                elif hash_ in self._inflight:
                    attached[position] = self._inflight[hash_]
                elif hash_ in self.store:
                    job.progress[position] = "store"
                    self.counters["store_hits"] += 1
                else:
                    self._inflight[hash_] = loop.create_future()
                    claimed.add(hash_)
                    owned.append(position)

            try:
                if owned:
                    scenarios = tuple(expanded[i] for i in owned)
                    failure: "PartialComputeError | None" = None
                    try:
                        results = await loop.run_in_executor(
                            self._compute_pool,
                            lambda: compute_scenario_results(
                                scenarios,
                                seed=self.seed,
                                defaults=self.defaults,
                                workers=self.workers,
                                executor=self.executor,
                                timeout_s=self.shard_timeout_s,
                                max_shard_retries=self.max_shard_retries,
                            ),
                        )
                        completed = dict(enumerate(results))
                    except PartialComputeError as partial:
                        # Salvage before failing: persist what did
                        # complete and resolve its claims, so attached
                        # jobs -- and a resubmission of this very plan
                        # -- resume from store hits instead of
                        # recomputing the survivors.
                        completed, failure = partial.completed, partial
                    for sub_index in sorted(completed):
                        position = owned[sub_index]
                        hash_ = hashes[position]
                        self.store.put(hash_, completed[sub_index])
                        job.progress[position] = "computed"
                        self.counters["computed"] += 1
                        future = self._inflight.pop(hash_, None)
                        if future is not None and not future.done():
                            future.set_result(hash_)
                    if failure is not None:
                        raise failure
            except Exception as exc:
                # Wake every attached job with the failure before this
                # one propagates it; a claimed-but-unresolved hash must
                # never leave a dangling future behind.
                for hash_ in claimed:
                    future = self._inflight.pop(hash_, None)
                    if future is not None and not future.done():
                        failure = ConfigurationError(
                            f"in-flight computation failed: {exc}"
                        )
                        future.set_exception(failure)
                        # Attached jobs consume it; an unobserved
                        # future (everyone already gave up) must not
                        # warn at GC.
                        future.exception()
                raise
            finally:
                # Cancellation (job cancel or service shutdown) can
                # leave claimed hashes unresolved; never strand a
                # future other jobs await -- cancelling it is the
                # hand-off that sends attached jobs back to reclassify.
                for hash_ in claimed:
                    future = self._inflight.pop(hash_, None)
                    if future is not None and not future.done():
                        future.cancel()

            retry: "list[int]" = []
            if attached:
                waited = await asyncio.gather(
                    *attached.values(), return_exceptions=True
                )
                for (position, _future), outcome in zip(
                    attached.items(), waited
                ):
                    if isinstance(outcome, asyncio.CancelledError):
                        # Owner cancelled: take this position back.
                        retry.append(position)
                    elif isinstance(outcome, BaseException):
                        raise outcome
                    else:
                        job.progress[position] = "inflight"
                        self.counters["deduped"] += 1
            unresolved = retry


def retry_after_seconds(wait: float) -> int:
    """Round a wait up to the integer seconds ``Retry-After`` carries."""
    return max(1, int(math.ceil(wait)))
