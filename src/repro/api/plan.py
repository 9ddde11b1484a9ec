"""Run plans: batches of scenarios executed through one session.

A :class:`RunPlan` is an ordered collection of :class:`Scenario`
families. :func:`run_plan` expands them and executes every concrete
scenario inside a single :class:`~repro.api.session.SimulationSession`,
so memoized intermediates (FN coefficient pairs, compiled cells) carry
across scenarios; the returned :class:`PlanResult` attributes the
session's cache hits and misses to individual scenarios, making the
cross-scenario reuse visible (`repro-experiments --plan plan.json
--cache-stats`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..engine.cache import CacheStats
from ..errors import ConfigurationError
from ..experiments.base import ExperimentResult
from .scenario import Scenario
from .session import SimulationSession


@dataclass(frozen=True)
class RunPlan:
    """A named, serializable batch of scenarios.

    Attributes
    ----------
    scenarios:
        Scenario families, executed in order after expansion.
    name:
        Plan name carried into reports and exports.
    """

    scenarios: "tuple[Scenario, ...]"
    name: str = "plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise ConfigurationError("a run plan needs at least one scenario")

    def expanded(self) -> "tuple[Scenario, ...]":
        """Every concrete scenario, with sweep families expanded."""
        return tuple(
            concrete
            for scenario in self.scenarios
            for concrete in scenario.expand()
        )

    # ----- JSON round trip (via repro.io) --------------------------------

    def to_dict(self) -> "dict[str, Any]":
        """JSON-safe record; inverse of :meth:`from_dict`."""
        from .. import io

        return io.to_record(self)

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any]") -> "RunPlan":
        """Rebuild a plan from its JSON record."""
        from .. import io

        return io.from_record(cls, data)

    def save(self, path: "str | Path") -> Path:
        """Write the plan as a JSON file; returns the path."""
        from .. import io

        return io.save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: "str | Path") -> "RunPlan":
        """Read a plan back from a JSON file."""
        from .. import io

        return io.from_record(cls, io.load_json(path))


@dataclass(frozen=True)
class ScenarioResult:
    """One executed scenario and its attribution.

    Attributes
    ----------
    scenario:
        The concrete (expanded) scenario that ran.
    result:
        The experiment's output.
    elapsed_s:
        Wall-clock time of this scenario [s].
    cache_stats:
        Session cache counters accumulated *during this scenario* (the
        delta against the session state when the scenario started;
        ``currsize`` is the number of entries the scenario added).
    reused_hits:
        Lookups served by cache entries that already existed when the
        scenario started -- genuine reuse of earlier scenarios' (or the
        session's prior) work, as opposed to the scenario re-hitting an
        entry it created itself.
    """

    scenario: Scenario
    result: ExperimentResult
    elapsed_s: float
    cache_stats: CacheStats = field(repr=False)
    reused_hits: int = 0

    @property
    def all_checks_pass(self) -> bool:
        """Whether every shape check of the experiment passed."""
        return self.result.all_checks_pass


@dataclass(frozen=True)
class PlanResult:
    """Outcome of one plan run through one session.

    Cache attribution is **order-dependent** by design: a scenario's
    ``cache_stats`` delta and ``reused_hits`` depend on which scenarios
    ran before it on the same cache set, so reordering a plan (or
    splitting it across parallel workers) moves counts between the
    "miss", "own hit" and "reused hit" buckets. What is *invariant*
    under any ordering or sharding of the same plan is the work itself:
    each scenario performs the same lookups, so its per-scenario
    ``hits + misses`` total -- and therefore the plan-wide lookup total
    -- is identical however the plan is executed, and the experiment
    results themselves are bit-identical (memoization never changes
    values). The executor's merge preserves exactly this contract; see
    :class:`ParallelPlanResult` and :attr:`cross_scenario_hits`.

    Attributes
    ----------
    plan:
        The executed plan.
    scenario_results:
        One :class:`ScenarioResult` per concrete scenario, in order.
    cache_stats:
        Counters the whole plan accumulated on the session cache set.
    """

    plan: RunPlan
    scenario_results: "tuple[ScenarioResult, ...]"
    cache_stats: CacheStats = field(repr=False)

    @property
    def results(self) -> "tuple[ExperimentResult, ...]":
        """The bare experiment results, in scenario order."""
        return tuple(s.result for s in self.scenario_results)

    @property
    def all_checks_pass(self) -> bool:
        """Whether every shape check of every scenario passed."""
        return all(s.all_checks_pass for s in self.scenario_results)

    @property
    def cross_scenario_hits(self) -> int:
        """Lookups served by entries that predate their scenario.

        Summed ``reused_hits``: each scenario counts only hits on cache
        entries that existed before it started, so a scenario re-hitting
        an entry it created itself does not inflate the number -- this
        is the reuse a multi-scenario plan exists to exploit. (On a
        fresh session the first scenario necessarily contributes zero.)

        **Contract: this total is order-dependent.** "Predates the
        scenario" is defined against the execution order on one cache
        set, so reordering the plan redistributes reuse (the first
        scenario in any order contributes zero), and a parallel run --
        where each shard's worker session only ever sees its own prior
        scenarios -- reports at most the serial total, reaching it only
        when sharding keeps co-reusing scenarios together. Serial and
        parallel runs of the same plan *do* agree on the conserved
        totals: per-scenario ``hits + misses`` and the experiment
        results themselves (see :class:`PlanResult`).
        """
        return sum(s.reused_hits for s in self.scenario_results)


def run_scenario(
    session: SimulationSession, scenario: Scenario
) -> ScenarioResult:
    """Execute one concrete scenario inside a session.

    Scenario families (with sweep axes) must be expanded first; passing
    one here raises :class:`~repro.errors.ConfigurationError`.
    """
    if scenario.sweep:
        raise ConfigurationError(
            f"scenario {scenario.name!r} has sweep axes; expand() it or "
            "run it through a RunPlan"
        )
    before = session.cache_stats()
    session.caches.mark()
    start = time.perf_counter()
    result = session.run(scenario.experiment_id, **scenario.overrides)
    elapsed = time.perf_counter() - start
    delta = session.cache_stats().delta(before)
    return ScenarioResult(
        scenario=scenario,
        result=result,
        elapsed_s=elapsed,
        cache_stats=delta,
        reused_hits=session.caches.reused_hits_since_mark(),
    )


@dataclass(frozen=True)
class ShardReport:
    """What one executor shard did: scenarios, seed, time, cache work.

    Attributes
    ----------
    index:
        Shard number (0-based) within its plan run.
    positions:
        Indices into ``plan.expanded()`` of the scenarios this shard
        ran, in the order the worker ran them.
    seed:
        The worker session's derived seed
        (:func:`~repro.api.session.derive_worker_seed` of the plan seed
        and shard index).
    elapsed_s:
        Wall-clock time of the whole shard on its worker [s].
    cache_stats:
        Counters the shard accumulated on its worker's cache set.
    """

    index: int
    positions: "tuple[int, ...]"
    seed: int
    elapsed_s: float
    cache_stats: CacheStats = field(repr=False)


@dataclass(frozen=True)
class ShardFailure:
    """One shard (or split sub-shard) that exhausted its retry budget.

    Attributes
    ----------
    index:
        Shard number (0-based) within its plan run. Sub-shards split
        off a failing shard keep the parent's index, so the number
        always names a shard of the original partition.
    positions:
        Indices into ``plan.expanded()`` of the scenarios whose results
        are missing because of this failure.
    scenario_ids:
        The :attr:`~repro.api.scenario.Scenario.name` of each failed
        scenario, aligned with ``positions``.
    attempts:
        How many attempts were made before giving up.
    cause:
        ``"error"`` (the shard raised), ``"crash"`` (the worker process
        died -- ``BrokenProcessPool``), or ``"timeout"`` (the shard
        exceeded the supervisor's per-shard deadline).
    message:
        Text of the final underlying error.
    elapsed_s:
        Wall-clock time spent across this unit's failed attempts [s].
    """

    index: int
    positions: "tuple[int, ...]"
    scenario_ids: "tuple[str, ...]"
    attempts: int
    cause: str
    message: str = ""
    elapsed_s: float = 0.0


@dataclass(frozen=True)
class ParallelPlanResult(PlanResult):
    """A :class:`PlanResult` assembled from parallel shard runs.

    Everything a :class:`PlanResult` promises holds here too:
    ``scenario_results`` are in plan (expansion) order regardless of
    which shard ran what, per-scenario cache deltas attribute each
    worker's counters to its scenarios, and ``cache_stats`` is the sum
    over the (disjoint) worker cache sets. The extra ``shard_reports``
    expose the parallel structure -- who ran what, with which derived
    seed, how long, and with what cache efficiency.

    A result may be **partial**: when the supervisor ran with
    ``raise_on_failure=False`` and some shard exhausted its retries,
    ``scenario_results`` holds only the completed scenarios (still in
    plan order) and ``failures`` names what is missing. ``complete``
    distinguishes the two cases; :meth:`results_by_position` recovers
    the position of each surviving result.

    Attributes
    ----------
    shard_reports:
        One :class:`ShardReport` per shard, ordered by shard index.
    failures:
        :class:`ShardFailure` records for shards whose scenarios never
        completed; empty on a fully successful run.
    """

    shard_reports: "tuple[ShardReport, ...]" = ()
    failures: "tuple[ShardFailure, ...]" = ()

    @property
    def worker_count(self) -> int:
        """How many shards (= worker sessions) the plan ran on."""
        return len(self.shard_reports)

    @property
    def complete(self) -> bool:
        """Whether every expanded scenario produced a result."""
        return not self.failures

    @property
    def failed_positions(self) -> "tuple[int, ...]":
        """Expanded-plan positions with no result, sorted."""
        return tuple(
            sorted(p for f in self.failures for p in f.positions)
        )

    def results_by_position(self) -> "dict[int, ScenarioResult]":
        """Completed results keyed by expanded-plan position.

        On a complete run this is simply ``{i: scenario_results[i]}``;
        on a partial run the failed positions are absent and the
        surviving results keep their original plan positions.
        """
        failed = set(self.failed_positions)
        positions = [
            i for i in range(len(self.plan.expanded())) if i not in failed
        ]
        return dict(zip(positions, self.scenario_results))


def merge_shard_results(
    plan: RunPlan,
    shard_outputs: "tuple[tuple[ShardReport, tuple[tuple[int, ScenarioResult], ...]], ...]",
    failures: "tuple[ShardFailure, ...]" = (),
) -> ParallelPlanResult:
    """Reassemble shard outputs into one in-order plan result.

    ``shard_outputs`` pairs each shard's report with its
    ``(position, result)`` list, where ``position`` indexes the
    scenario's place in ``plan.expanded()``. The merge restores plan
    order, verifies that completed results plus the positions named by
    ``failures`` cover every expanded scenario exactly once (a
    partition -- anything else raises
    :class:`~repro.errors.ConfigurationError`), and sums the per-shard
    cache counters into the plan-wide total. With non-empty
    ``failures`` the result is partial: failed positions are simply
    absent from ``scenario_results``.
    """
    expected = len(plan.expanded())
    failed: "set[int]" = set()
    for failure in failures:
        for position in failure.positions:
            if position in failed:
                raise ConfigurationError(
                    f"shard merge saw scenario position {position} twice"
                )
            failed.add(position)
    indexed: "dict[int, ScenarioResult]" = {}
    for _, results in shard_outputs:
        for position, result in results:
            if position in indexed or position in failed:
                raise ConfigurationError(
                    f"shard merge saw scenario position {position} twice"
                )
            indexed[position] = result
    if sorted(set(indexed) | failed) != list(range(expected)):
        missing = sorted(set(range(expected)) - set(indexed) - failed)
        raise ConfigurationError(
            f"shard merge is not a partition of the plan: expected "
            f"{expected} scenarios, missing positions {missing}, "
            f"got {sorted(set(indexed) | failed)}"
        )
    reports = tuple(
        sorted((report for report, _ in shard_outputs), key=lambda r: r.index)
    )
    total = CacheStats(hits=0, misses=0, currsize=0, per_cache=())
    for report in reports:
        total = total.merged(report.cache_stats)
    return ParallelPlanResult(
        plan=plan,
        scenario_results=tuple(indexed[i] for i in sorted(indexed)),
        cache_stats=total,
        shard_reports=reports,
        failures=tuple(
            sorted(failures, key=lambda f: (f.index, f.positions))
        ),
    )


def run_plan(session: SimulationSession, plan: RunPlan) -> PlanResult:
    """Execute every scenario of a plan through one session.

    Scenarios run in order on the session's cache set; the result
    reports both per-scenario and whole-plan cache counters.
    """
    before = session.cache_stats()
    scenario_results = tuple(
        run_scenario(session, concrete) for concrete in plan.expanded()
    )
    total = session.cache_stats().delta(before)
    return PlanResult(
        plan=plan, scenario_results=scenario_results, cache_stats=total
    )
