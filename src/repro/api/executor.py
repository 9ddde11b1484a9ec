"""Sharded parallel execution of run plans on worker sessions.

:func:`run_plan_parallel` splits an expanded :class:`~repro.api.plan.RunPlan`
into shards, runs each shard on a worker -- a process by default,
threads for in-memory debugging -- and merges the results back into a
:class:`~repro.api.plan.ParallelPlanResult` in plan order. The pool
has at most one worker per usable CPU (:func:`available_cpus`); shards
beyond that queue for a free worker. Each shard runs on a fresh
:class:`~repro.api.session.SimulationSession` whose seed is derived
deterministically from the plan seed and shard index
(:func:`~repro.api.session.derive_worker_seed`), and whose private
:class:`~repro.engine.cache.CacheSet` gives the shard the same
memoization semantics a serial run has -- just scoped to the shard.

**Determinism contract.** For the same plan and seed, a parallel run
produces experiment results bit-identical to ``run_plan`` on one
session: registered experiments are pure functions of their parameters
(none consumes session RNG), and memoization only skips recomputation
of values that are equal by construction. What legitimately differs is
the cache *attribution* -- a worker cannot reuse an entry another shard
computed -- which is why :class:`~repro.api.plan.ParallelPlanResult`
reports per-shard counters instead of pretending the plan ran on one
cache set. See :class:`~repro.api.plan.PlanResult` for the invariants
that do survive sharding.

**Fault tolerance.** Execution is *supervised*: each shard attempt is
bounded by an optional per-shard ``timeout_s``, failed / crashed /
timed-out shards are retried up to ``max_shard_retries`` times (a
broken process pool is rebuilt first; persistent breakage degrades
process -> thread -> inline), a repeatedly failing multi-scenario
shard is split into single-scenario units to isolate the poison
scenario, and with ``raise_on_failure=False`` completed shards are
salvaged into a partial result carrying typed
:class:`~repro.api.plan.ShardFailure` records. Retries reuse the
shard's derived seed, so a recovered run is still bit-identical to a
serial one; what changes under retries is only *reporting* -- a split
shard contributes one :class:`~repro.api.plan.ShardReport` per
surviving unit (same shard index), and cache attribution reflects the
sessions that actually ran. Failure paths are deterministically
testable through :mod:`repro.testing.faults`, which workers consult
before every scenario.

Sharding is one rule, longest-processing-time (LPT) greedy packing on
the registry's per-experiment cost hints
(:func:`~repro.experiments.registry.experiment_cost`): heaviest
scenario first onto the least-loaded shard. With equal hints it places
scenario *i* on shard ``i % workers``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Any, Mapping

from ..errors import ConfigurationError, ReproError
from ..experiments.registry import experiment_cost
from ..testing.faults import maybe_inject
from .plan import (
    ParallelPlanResult,
    RunPlan,
    ScenarioResult,
    ShardFailure,
    ShardReport,
    merge_shard_results,
    run_scenario,
)
from .scenario import Scenario
from .session import SimulationSession, derive_worker_seed

#: The worker pool kinds :func:`run_plan_parallel` understands.
EXECUTOR_KINDS = ("process", "thread")

#: Consecutive pool breakages tolerated before the supervisor degrades
#: to the next executor mode (process -> thread -> inline).
POOL_BREAKS_BEFORE_DEGRADE = 2


def available_cpus() -> int:
    """CPUs this process may run on (affinity-aware where supported)."""
    if hasattr(os, "sched_getaffinity"):  # Linux; absent on macOS/Windows
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


class ShardExecutionError(ReproError):
    """A shard exhausted its retry budget under ``raise_on_failure=True``.

    Carries the :class:`~repro.api.plan.ShardFailure` record as
    ``failure`` (shard index, failed scenario ids, attempts, cause) and
    chains the final underlying worker exception as ``__cause__``.
    Configuration errors are *not* wrapped in this type -- they re-raise
    as :class:`~repro.errors.ConfigurationError` with the same shard
    context, since no amount of retrying fixes a bad plan.
    """

    def __init__(
        self, message: str, failure: "ShardFailure | None" = None
    ) -> None:
        super().__init__(message)
        self.failure = failure


@dataclass(frozen=True)
class Shard:
    """One worker's slice of an expanded plan.

    Attributes
    ----------
    index:
        Shard number (0-based); also the spawn key of the worker
        session's derived seed.
    items:
        ``(position, scenario)`` pairs, where ``position`` is the
        scenario's index in ``plan.expanded()`` -- kept so the merge
        can restore plan order.
    """

    index: int
    items: "tuple[tuple[int, Scenario], ...]"

    @property
    def cost(self) -> float:
        """Total registry cost hint of the shard's scenarios."""
        return sum(scenario_cost(s) for _, s in self.items)


def scenario_cost(scenario: Scenario) -> float:
    """The cost estimate of one concrete scenario.

    Currently the registry's per-experiment hint
    (:func:`~repro.experiments.registry.experiment_cost`); override
    granularity (e.g. scaling with ``n_points``) can refine this later
    without touching :func:`shard_plan`.
    """
    return experiment_cost(scenario.experiment_id)


def shard_plan(plan: RunPlan, workers: int) -> "tuple[Shard, ...]":
    """Partition a plan's expanded scenarios into at most ``workers`` shards.

    LPT greedy on per-scenario cost hints: scenarios sorted by
    ``(-cost, position)`` each go to the least-loaded shard (the first
    one on ties), and each shard then runs in plan order. Every
    expanded scenario lands in exactly one shard; empty shards are
    dropped, so fewer than ``workers`` shards come back when the plan
    is small. Shard indices are contiguous from 0 and the partition is
    a pure function of ``(plan, workers)`` -- no randomness, so a
    re-run shards (and therefore seeds workers) identically.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    buckets: "list[list[tuple[int, Scenario]]]" = [[] for _ in range(workers)]
    order = sorted(
        enumerate(plan.expanded()),
        key=lambda pair: (-scenario_cost(pair[1]), pair[0]),
    )
    loads = [0.0] * workers
    for position, scenario in order:
        target = loads.index(min(loads))
        buckets[target].append((position, scenario))
        loads[target] += scenario_cost(scenario)
    for bucket in buckets:
        bucket.sort()  # run each shard's scenarios in plan order

    shards = []
    for bucket in buckets:
        if bucket:
            shards.append(Shard(index=len(shards), items=tuple(bucket)))
    return tuple(shards)


def run_shard(
    shard: Shard,
    seed: int = 0,
    defaults: "Mapping[str, Any] | None" = None,
    attempt: int = 0,
    allow_crash: bool = False,
) -> "tuple[ShardReport, tuple[tuple[int, ScenarioResult], ...]]":
    """Execute one shard on a fresh worker session; the worker entry point.

    Builds a :class:`~repro.api.session.SimulationSession` seeded with
    :func:`~repro.api.session.derive_worker_seed`, runs the shard's
    scenarios in order through :func:`~repro.api.plan.run_scenario`,
    and returns the shard report plus position-tagged results. Module
    level and fully picklable, so it runs unchanged on a process pool,
    a thread pool, or inline.

    Before each scenario the worker consults the fault injector
    (:func:`repro.testing.faults.maybe_inject`) with its coordinates --
    a no-op unless the chaos harness installed specs in the
    environment. ``attempt`` is the supervisor's retry counter for
    this unit (so faults can target one attempt exactly);
    ``allow_crash`` is ``True`` only on process-pool workers, where an
    injected ``crash`` may genuinely ``os._exit``.
    """
    session = SimulationSession(
        seed=derive_worker_seed(seed, shard.index), defaults=defaults
    )
    start = time.perf_counter()
    results = []
    for offset, (position, scenario) in enumerate(shard.items):
        maybe_inject(
            shard.index,
            attempt,
            position,
            first_position=(offset == 0),
            allow_crash=allow_crash,
        )
        results.append((position, run_scenario(session, scenario)))
    elapsed = time.perf_counter() - start
    report = ShardReport(
        index=shard.index,
        positions=tuple(position for position, _ in shard.items),
        seed=session.seed,
        elapsed_s=elapsed,
        cache_stats=session.cache_stats(),
    )
    return report, tuple(results)


@dataclass
class _Unit:
    """A shard (or split sub-shard) the supervisor is tracking.

    Attempts accumulate across retries; a unit split off a failing
    shard inherits the parent's attempt count (and shard index, hence
    derived seed), so the overall retry budget is bounded.
    """

    shard: Shard
    attempts: int = 0
    elapsed_s: float = 0.0
    started: float = 0.0


class _ShardSupervisor:
    """Drives shard units to completion with retries and deadlines.

    The supervision policy (see :func:`run_plan_parallel` for the
    user-facing contract):

    * Units run on a pool of the current *mode* -- ``process``,
      ``thread``, or ``inline`` -- starting at the requested executor
      kind.
    * Completion is collected in completion order
      (``concurrent.futures.wait``), not submission order, so one slow
      shard never delays failure handling for the others.
    * A failed attempt (worker exception, ``BrokenProcessPool`` crash,
      or per-shard deadline expiry) is retried until the unit has
      failed ``max_shard_retries + 1`` times, except
      :class:`~repro.errors.ConfigurationError`, which no retry can
      fix and fails fast.
    * On its last retry, a multi-scenario unit is split
      into single-scenario units so one poison scenario cannot take
      its shard-mates down with it.
    * A broken pool is rebuilt; ``POOL_BREAKS_BEFORE_DEGRADE``
      consecutive breakages degrade the mode
      (process -> thread -> inline).
    * A timed-out unit's pool is *tainted* (its worker may still be
      wedged): no new work is submitted to it, and once its remaining
      futures settle it is abandoned -- worker processes terminated --
      and a fresh pool takes over. Inline execution enforces no
      deadline (there is nothing to abandon the work to).
    * Exhausted units either raise (``raise_on_failure=True``;
      outstanding futures are cancelled and the pool abandoned) or are
      recorded as :class:`~repro.api.plan.ShardFailure` for a partial
      merge.
    """

    def __init__(
        self,
        shards: "tuple[Shard, ...]",
        *,
        seed: int,
        defaults: "Mapping[str, Any] | None",
        modes: "tuple[str, ...]",
        timeout_s: "float | None",
        max_shard_retries: int,
        raise_on_failure: bool,
    ) -> None:
        self.shards = shards
        self.seed = seed
        self.defaults = defaults
        self.modes = modes
        self.timeout_s = timeout_s
        self.max_shard_retries = max_shard_retries
        self.raise_on_failure = raise_on_failure
        # More CPU-bound workers than CPUs only adds contention, so the
        # pool is capped at the usable CPUs and surplus shards queue.
        self.max_pool_size = max(1, min(len(shards), available_cpus()))
        self._mode_index = 0
        self._breaks = 0
        self._tainted = False
        self._pool: "ProcessPoolExecutor | ThreadPoolExecutor | None" = None
        self._pool_size = 0
        self._inflight: "dict[Future, _Unit]" = {}
        self._deadlines: "dict[Future, float]" = {}

    # ----- public entry --------------------------------------------------

    def run(self):
        """Run every shard; returns ``(outputs, failures)`` tuples."""
        outputs: "list" = []
        failures: "list[ShardFailure]" = []
        queue = deque(_Unit(shard=shard) for shard in self.shards)
        try:
            self._drive(queue, outputs, failures)
        finally:
            terminate = bool(self._inflight) or self._tainted
            for future in list(self._inflight):
                future.cancel()
            self._inflight.clear()
            self._deadlines.clear()
            self._abandon_pool(terminate=terminate)
        return tuple(outputs), tuple(failures)

    # ----- supervision loop ----------------------------------------------

    def _mode(self) -> str:
        return self.modes[self._mode_index]

    def _drive(self, queue, outputs, failures) -> None:
        while queue or self._inflight:
            if not self._inflight and self._should_degrade():
                self._degrade()
            if self._mode() == "inline" and not self._inflight:
                self._abandon_pool(terminate=self._tainted)
                self._run_inline(queue.popleft(), queue, outputs, failures)
                continue
            if queue and not self._tainted and self._mode() != "inline":
                self._submit_ready(queue)
            if not self._inflight:
                # A tainted (or just-broken) pool with nothing left
                # running: abandon it and rebuild on the next pass.
                self._abandon_pool(terminate=self._tainted)
                continue
            self._collect(queue, outputs, failures)

    def _should_degrade(self) -> bool:
        return (
            self._breaks >= POOL_BREAKS_BEFORE_DEGRADE
            and self._mode_index < len(self.modes) - 1
        )

    def _degrade(self) -> None:
        self._abandon_pool(terminate=True)
        self._mode_index += 1
        self._breaks = 0

    def _ensure_pool(self, pending_count: int):
        if self._pool is None:
            size = max(1, min(pending_count, self.max_pool_size))
            pool_cls = (
                ProcessPoolExecutor
                if self._mode() == "process"
                else ThreadPoolExecutor
            )
            self._pool = pool_cls(max_workers=size)
            self._pool_size = size
        return self._pool

    def _submit_ready(self, queue) -> None:
        pool = self._ensure_pool(len(queue))
        # Under a deadline, submit no more units than the pool has
        # workers: a unit's clock starts at submission, so it must not
        # sit in the pool's backlog while its clock runs.
        while queue and (
            self.timeout_s is None or len(self._inflight) < self._pool_size
        ):
            unit = queue.popleft()
            unit.started = time.perf_counter()
            try:
                future = pool.submit(
                    run_shard,
                    unit.shard,
                    self.seed,
                    self.defaults,
                    unit.attempts,
                    self._mode() == "process",
                )
            except Exception:
                # The pool broke between waves; requeue and let the
                # next pass drain survivors and rebuild.
                unit.started = 0.0
                queue.appendleft(unit)
                self._breaks += 1
                self._tainted = True
                return
            self._inflight[future] = unit
            if self.timeout_s is not None:
                self._deadlines[future] = unit.started + self.timeout_s

    def _collect(self, queue, outputs, failures) -> None:
        tick = None
        if self._deadlines:
            now = time.perf_counter()
            tick = max(0.0, min(self._deadlines.values()) - now) + 0.01
        done, _ = wait(
            list(self._inflight), timeout=tick, return_when=FIRST_COMPLETED
        )
        broke = False
        for future in done:
            unit = self._inflight.pop(future)
            self._deadlines.pop(future, None)
            try:
                outputs.append(future.result())
                self._breaks = 0
            except (BrokenExecutor, CancelledError) as exc:
                broke = True
                self._attempt_failed(unit, "crash", exc, queue, failures)
            except Exception as exc:
                self._attempt_failed(unit, "error", exc, queue, failures)
        if broke:
            self._breaks += 1
            self._drain_broken(queue, outputs, failures)
            self._abandon_pool(terminate=True)
            return
        self._expire_deadlines(queue, failures)

    def _drain_broken(self, queue, outputs, failures) -> None:
        # A broken pool settles every outstanding future promptly;
        # salvage the ones that finished before the break, fail the
        # rest as crashes so they retry on the rebuilt pool.
        for future in list(self._inflight):
            unit = self._inflight.pop(future)
            self._deadlines.pop(future, None)
            try:
                outputs.append(future.result(timeout=30.0))
            except (
                BrokenExecutor,
                CancelledError,
                FuturesTimeoutError,
            ) as exc:
                self._attempt_failed(unit, "crash", exc, queue, failures)
            except Exception as exc:
                self._attempt_failed(unit, "error", exc, queue, failures)

    def _expire_deadlines(self, queue, failures) -> None:
        if not self._deadlines:
            return
        now = time.perf_counter()
        for future, deadline in list(self._deadlines.items()):
            if now < deadline:
                continue
            unit = self._inflight.pop(future)
            self._deadlines.pop(future)
            if not future.cancel():
                # Already running: the worker may be wedged, so stop
                # feeding this pool and replace it once it drains.
                self._tainted = True
            exc = FuturesTimeoutError(
                f"shard exceeded the {self.timeout_s}s per-shard deadline"
            )
            self._attempt_failed(unit, "timeout", exc, queue, failures)

    def _run_inline(self, unit, queue, outputs, failures) -> None:
        unit.started = time.perf_counter()
        try:
            outputs.append(
                run_shard(
                    unit.shard, self.seed, self.defaults, unit.attempts, False
                )
            )
        except Exception as exc:
            self._attempt_failed(unit, "error", exc, queue, failures)

    # ----- failure policy -------------------------------------------------

    def _attempt_failed(self, unit, cause, exc, queue, failures) -> None:
        unit.attempts += 1
        if unit.started:
            unit.elapsed_s += max(0.0, time.perf_counter() - unit.started)
            unit.started = 0.0
        retryable = not isinstance(exc, ConfigurationError)
        if retryable and unit.attempts <= self.max_shard_retries:
            if (
                len(unit.shard.items) > 1
                and unit.attempts >= self.max_shard_retries
            ):
                # Last chance: isolate the poison scenario by retrying
                # every scenario as its own single-item unit.
                for item in unit.shard.items:
                    queue.append(
                        _Unit(
                            shard=Shard(
                                index=unit.shard.index, items=(item,)
                            ),
                            attempts=unit.attempts,
                        )
                    )
            else:
                queue.append(unit)
            return

        failure = ShardFailure(
            index=unit.shard.index,
            positions=tuple(p for p, _ in unit.shard.items),
            scenario_ids=tuple(s.name for _, s in unit.shard.items),
            attempts=unit.attempts,
            cause=cause,
            message=f"{type(exc).__name__}: {exc}",
            elapsed_s=unit.elapsed_s,
        )
        if not self.raise_on_failure:
            failures.append(failure)
            return
        experiments = sorted({s.experiment_id for _, s in unit.shard.items})
        detail = (
            f"shard {unit.shard.index} failed ({cause}) after "
            f"{unit.attempts} attempt(s); experiments {experiments}; "
            f"scenarios {list(failure.scenario_ids)}: {exc}"
        )
        if isinstance(exc, ConfigurationError):
            raise ConfigurationError(detail) from exc
        raise ShardExecutionError(detail, failure=failure) from exc

    # ----- pool lifecycle -------------------------------------------------

    def _abandon_pool(self, terminate: bool = False) -> None:
        pool, self._pool = self._pool, None
        self._tainted = False
        if pool is None:
            return
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        if terminate:
            # Hung or crashed workers would otherwise linger (and a
            # wedged process pool would block interpreter exit); the
            # process handles are a private attribute, so guard it.
            processes = getattr(pool, "_processes", None)
            if processes:
                for proc in list(processes.values()):
                    try:
                        proc.terminate()
                    except Exception:
                        pass


def run_plan_parallel(
    plan: RunPlan,
    *,
    workers: "int | None" = None,
    shard_by: str = "by-cost",
    seed: int = 0,
    defaults: "Mapping[str, Any] | None" = None,
    executor: str = "process",
    timeout_s: "float | None" = None,
    max_shard_retries: int = 2,
    raise_on_failure: bool = True,
) -> ParallelPlanResult:
    """Run every scenario of a plan across supervised worker shards.

    The plan is expanded, split by :func:`shard_plan`, executed on a
    pool of at most ``min(shards, available_cpus())`` workers, surplus
    shards queuing for a free one (``executor="process"`` by default;
    ``executor="thread"`` keeps everything in-process for debugging --
    the ContextVar-scoped cache activation keeps worker sessions
    isolated either way), and merged back in plan order by
    :func:`~repro.api.plan.merge_shard_results`.

    ``workers`` defaults to 4; empty shards are dropped, so a plan
    smaller than the worker count naturally uses fewer workers (and no
    process is forked per scenario on large plans) -- pass ``workers``
    explicitly for real sweeps. A single shard with no deadline runs
    inline with no pool at all, so ``workers=1`` is a cheap way to get
    serial execution with parallel-run reporting.

    **Supervision.** Shards are driven by a supervisor rather than a
    bare result loop: completions are collected in completion order; a
    failed, crashed (``BrokenProcessPool``), or timed-out shard is
    retried -- on a rebuilt pool when the old one broke -- until it has
    failed ``max_shard_retries + 1`` times; on the last retry a
    multi-scenario shard is split into single-scenario units to
    isolate a poison scenario;
    and persistent pool breakage degrades the executor mode
    process -> thread -> inline. Because a worker session's seed
    depends only on the plan seed and shard index, a retried or split
    unit recomputes results bit-identical to the failed attempt's
    intent -- supervision never changes values, only who computes them.

    ``timeout_s`` bounds each shard attempt's wall clock, counted from
    the moment a worker is free to take it: under a deadline no more
    attempts are submitted than the pool has workers. A pool whose
    worker blew the deadline is quarantined (its processes terminated
    once drained) and the shard retries on a fresh pool; thread
    workers cannot be killed, so a hung thread lingers until it
    returns, and inline execution enforces no deadline at all.

    With ``raise_on_failure=True`` (default, today's contract) the
    first exhausted shard raises: :class:`ShardExecutionError` -- shard
    index, experiment ids, scenario ids, attempts, cause, with the
    final worker error chained -- or :class:`ConfigurationError` with
    the same context (and no retries) when the underlying error is one.
    Outstanding futures are cancelled. With ``raise_on_failure=False``
    the run always returns, possibly partial: completed scenarios are
    salvaged into ``scenario_results`` and every exhausted unit is a
    typed :class:`~repro.api.plan.ShardFailure` in ``failures``.

    ``shard_by`` accepts only ``"by-cost"``, the one rule of
    :func:`shard_plan`. The keyword stays because the benchmark harness
    (``perfbench/run.py``) still passes it; it goes once perfbench
    reads in-tree spans instead of patching names (ROADMAP.md).
    """
    if shard_by != "by-cost":
        raise ConfigurationError(
            f"unknown shard rule {shard_by!r}; the only rule is 'by-cost'"
        )
    if executor not in EXECUTOR_KINDS:
        known = ", ".join(EXECUTOR_KINDS)
        raise ConfigurationError(
            f"unknown executor {executor!r}; available: {known}"
        )
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError(
            f"timeout_s must be positive, got {timeout_s}"
        )
    if max_shard_retries < 0:
        raise ConfigurationError(
            f"max_shard_retries must be >= 0, got {max_shard_retries}"
        )
    if workers is None:
        workers = 4
    shards = shard_plan(plan, workers)

    if len(shards) == 1 and timeout_s is None:
        modes: "tuple[str, ...]" = ("inline",)
    elif executor == "process":
        modes = ("process", "thread", "inline")
    else:
        modes = ("thread", "inline")

    supervisor = _ShardSupervisor(
        shards,
        seed=seed,
        defaults=defaults,
        modes=modes,
        timeout_s=timeout_s,
        max_shard_retries=max_shard_retries,
        raise_on_failure=raise_on_failure,
    )
    outputs, failures = supervisor.run()
    return merge_shard_results(plan, outputs, failures=failures)
