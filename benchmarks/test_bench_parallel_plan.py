"""Benchmark: sharded parallel plan execution vs the serial session.

The acceptance workload of the executor PR: a 32-scenario ``abl-wkb``
sweep (8 barrier heights x 2 tunneling masses x 2 oxide thicknesses,
one Tsu-Esaki transfer-matrix solve each -- real CPU work per scenario)
run

* serially through one :class:`~repro.api.session.SimulationSession`
  via ``run_plan``, and
* through :func:`~repro.api.executor.run_plan_parallel` with
  ``workers=4``: four shards on a process pool of at most one worker
  per usable CPU.

``test_parallel_bit_identical_to_serial`` asserts the executor's core
contract -- byte-equal experiment results and conserved lookup totals
-- on every machine. ``test_parallel_speedup`` pins the >=1.5x speedup
at 4 workers, each side timed best-of-7 with the serial and parallel
samples taken in turns (``conftest.best_of_interleaved``); it needs
actual hardware parallelism, so it skips on single-CPU containers (the
contract tests still run there) and is informative-only in CI's
non-blocking benchmarks job.
"""

from __future__ import annotations

import json

import pytest
from conftest import best_of_interleaved, record_speedup

from repro.api import RunPlan, Scenario, SimulationSession, run_plan_parallel
from repro.api.executor import available_cpus
from repro.io import experiment_result_to_dict

SEED = 2014
WORKERS = 4
#: Interleaved serial/parallel rounds behind each best-of time.
TIMING_ROUNDS = 7

_BARRIERS = (3.0, 3.2, 3.4, 3.5, 3.61, 3.8, 4.0, 4.2)
_MASSES = (0.36, 0.42)
_OXIDES = (4.5, 5.0)


def _plan() -> RunPlan:
    """The 32-scenario transfer-matrix sweep both paths execute."""
    return RunPlan(
        name="parallel-bench",
        scenarios=(
            Scenario(
                "abl-wkb",
                overrides={"n_points": 1},
                sweep={
                    "barrier_height_ev": _BARRIERS,
                    "mass_ratio": _MASSES,
                    "tunnel_oxide_nm": _OXIDES,
                },
            ),
        ),
    )


def _canonical(result) -> str:
    """Byte-stable JSON rendering of one experiment result."""
    return json.dumps(experiment_result_to_dict(result), sort_keys=True)


def test_plan_is_big_enough():
    """The acceptance floor: at least 32 concrete scenarios."""
    assert len(_plan().expanded()) >= 32


def test_parallel_bit_identical_to_serial():
    """4-worker process execution reproduces the serial run exactly."""
    plan = _plan()
    serial = SimulationSession(seed=SEED).run_plan(plan)
    parallel = run_plan_parallel(plan, workers=WORKERS, seed=SEED)
    assert len(parallel.scenario_results) == len(serial.scenario_results)
    for ours, theirs in zip(
        serial.scenario_results, parallel.scenario_results
    ):
        assert ours.scenario == theirs.scenario
        assert _canonical(ours.result) == _canonical(theirs.result)
    # The conserved totals: every scenario performs the same lookups
    # however the plan is sharded.
    assert parallel.cache_stats.hits + parallel.cache_stats.misses == (
        serial.cache_stats.hits + serial.cache_stats.misses
    )


@pytest.mark.skipif(
    available_cpus() < 2,
    reason="speedup needs >=2 CPUs; single-CPU container cannot "
    "parallelize CPU-bound shards (the bit-identity contract above "
    "still runs)",
)
def test_parallel_speedup():
    """>= 1.5x over serial at 4 workers on the 32-scenario plan."""
    plan = _plan()
    # Warm-up outside the timed windows: resolve experiment modules and
    # JIT the import costs once so both paths time pure execution.
    SimulationSession(seed=SEED).run_scenario(plan.expanded()[0])

    # The parallel side needs every CPU quiet at once, the serial side
    # only one, so load from other processes spoils more parallel
    # samples; seven rounds give the parallel best-of a quiet one.
    t_serial, t_parallel = best_of_interleaved(
        lambda: SimulationSession(seed=SEED).run_plan(plan),
        lambda: run_plan_parallel(plan, workers=WORKERS, seed=SEED),
        repeats=TIMING_ROUNDS,
    )

    speedup = t_serial / t_parallel
    record_speedup(
        "parallel_plan",
        speedup,
        t_serial,
        t_parallel,
        gate=1.5,
        detail=f"{len(plan.expanded())} abl-wkb scenarios, "
        f"{WORKERS} process workers",
    )
    assert speedup >= 1.5, (
        f"parallel plan only {speedup:.2f}x faster than serial "
        f"({t_serial:.2f}s vs {t_parallel:.2f}s for "
        f"{len(plan.expanded())} scenarios on {WORKERS} workers)"
    )
