"""`repro.service`: the persistent result store and simulation service.

The serving layer over :mod:`repro.api` -- the piece that makes warm
caches survive restarts and lets many clients share one simulation
backend:

* :class:`ResultStore` (:mod:`repro.service.store`) -- a
  content-addressed on-disk store of
  :class:`~repro.api.plan.ScenarioResult` records keyed by the
  canonical scenario hash (:func:`repro.api.scenario_hash`), with
  atomic writes and bit-exact JSON round-trips via :mod:`repro.io`.
* :class:`JobManager` (:mod:`repro.service.jobs`) -- an asyncio job
  queue over the sharded parallel executor with single-flight dedupe
  (identical in-flight scenarios are computed once), priority-aware
  dispatch (:class:`PriorityGate`: ``high``/``normal``/``low`` classes
  with aging, so nothing starves), safe cancellation, finished-job
  eviction (TTL + cap) and per-client token-bucket rate limiting.
* :class:`JobJournal` (:mod:`repro.service.journal`) -- the
  write-ahead job journal behind crash-safe restarts: lifecycle
  transitions land in an append-only JSONL file (``accepted`` fsynced
  before the 202), boot replays it to restore and re-queue jobs, and
  plan-level :class:`LeaseRecord` claims (owner + TTL heartbeat,
  arbitrated by log order) keep replicas sharing one store from
  double-running a plan.
* :class:`ServiceApp` (:mod:`repro.service.app`) -- the stdlib-only
  HTTP service: ``POST /plans``, ``GET /jobs/{id}``,
  ``DELETE /jobs/{id}``, ``GET /results/{hash}``, ``GET /healthz``,
  ``GET /stats``, ``POST /admin/prune`` (store GC that pins hashes
  referenced by live jobs), ``POST /admin/verify`` (store integrity
  scan; corrupt objects are quarantined, never served).
* :class:`SimulationServiceClient` (:mod:`repro.service.client`) -- a
  typed synchronous client with retry/backoff on 429/503 and a typed
  :class:`JobLostError` for accepted-then-404 jobs, plus the
  ``repro-service`` CLI (:mod:`repro.service.cli`).

Quickstart (in-process, as the tests and example embed it)::

    from repro.api import RunPlan, Scenario
    from repro.service import ServiceApp, ServiceThread
    from repro.service import SimulationServiceClient

    app = ServiceApp("results/", workers=2, executor="thread")
    with ServiceThread(app) as service:
        client = SimulationServiceClient(service.url)
        plan = RunPlan(name="demo", scenarios=(Scenario("fig6"),))
        results, job = client.run_plan(plan)   # computed, stored
        results2, job2 = client.run_plan(plan) # 100% store hits

See ``docs/API.md`` ("Simulation service & result store") for the hash
contract and the endpoint semantics.
"""

from .app import ServiceApp, ServiceThread
from .client import JobLostError, ServiceError, SimulationServiceClient
from .jobs import (
    PRIORITY_CLASSES,
    JobManager,
    JobQueueFull,
    JobRecord,
    PartialComputeError,
    PriorityGate,
    RateLimiter,
    TokenBucket,
    compute_scenario_results,
    expired_job_record,
    normalize_priority,
)
from .journal import Job, JobJournal, JournalEntry, JournalState, LeaseRecord
from .store import (
    CorruptObject,
    ResultStore,
    StoreIntegrityError,
    StoreRecord,
    StoreReport,
    VerifyReport,
    result_checksum,
    run_plan_with_store,
)

__all__ = [
    "ResultStore",
    "StoreIntegrityError",
    "StoreRecord",
    "StoreReport",
    "CorruptObject",
    "VerifyReport",
    "result_checksum",
    "run_plan_with_store",
    "Job",
    "JobManager",
    "JobQueueFull",
    "JobRecord",
    "JobJournal",
    "JournalEntry",
    "JournalState",
    "LeaseRecord",
    "PartialComputeError",
    "PriorityGate",
    "PRIORITY_CLASSES",
    "RateLimiter",
    "TokenBucket",
    "compute_scenario_results",
    "expired_job_record",
    "normalize_priority",
    "ServiceApp",
    "ServiceThread",
    "ServiceError",
    "JobLostError",
    "SimulationServiceClient",
]
