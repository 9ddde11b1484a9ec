"""Shared fixtures and result recording for the benchmark harness.

Each ``test_bench_fig*.py`` regenerates one figure of the paper through
pytest-benchmark, so the harness both times the reproduction and
re-verifies the shape checks (a benchmark run that silently produced
wrong curves would be useless). Since the :mod:`repro.api` redesign the
harness owns one :class:`~repro.api.session.SimulationSession`: devices
and the array cell kernel come from it, so the calibration transients
run once per session on the session's private cache set instead of
rebuilding ad hoc globals.

The harness also persists machine-readable results: after every run,
``pytest_sessionfinish`` appends one record -- per-test wall times from
pytest-benchmark, every speedup gate recorded through
:func:`record_speedup`, the current commit and a timestamp -- to
``BENCH_results.json`` at the repository root, so the performance
trajectory accumulates across PRs instead of evaporating with the
terminal output.
"""

from __future__ import annotations

import datetime
import json
import subprocess
import time
from pathlib import Path

import pytest

from repro.api import SimulationSession

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_results.json"

#: How many historical runs BENCH_results.json retains (newest last).
MAX_RUNS = 200

#: Speedup records registered by the gating benchmarks during this run.
_SPEEDUPS: "dict[str, dict]" = {}


@pytest.fixture(scope="session")
def sim_session():
    """The one SimulationSession every benchmark shares."""
    return SimulationSession(seed=2014)


@pytest.fixture(scope="session")
def paper_device(sim_session):
    return sim_session.device()


@pytest.fixture(scope="session")
def cell_kernel(sim_session):
    return sim_session.cell_kernel()


def assert_reproduced(result):
    """Fail the benchmark if any of the paper's shape checks fail."""
    failing = [c for c in result.checks if not c.passed]
    assert not failing, "\n".join(
        f"{c.claim}: {c.detail}" for c in failing
    )


def best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn()`` [s] -- the shared timing policy.

    Best-of (rather than mean-of) guards speedup ratios against
    scheduler noise on shared CI runners; every gated benchmark times
    both paths through this one helper (or :func:`best_of_interleaved`,
    the same policy) so the policy cannot drift between files.
    """
    return best_of_interleaved(fn, repeats=repeats)[0]


def best_of_interleaved(*fns, repeats: int = 3) -> "tuple[float, ...]":
    """Best-of-N wall time of each of ``fns`` [s], sampled in turns.

    Round ``i`` times every function once, in argument order, so a
    burst of load from other processes hits both sides of a ratio
    alike instead of landing on whichever side happened to run then.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for slot, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[slot] = min(best[slot], time.perf_counter() - start)
    return tuple(best)


def record_speedup(
    name: str,
    speedup: float,
    reference_s: float,
    optimized_s: float,
    gate: "float | None" = None,
    detail: str = "",
) -> None:
    """Register one measured speedup for the BENCH_results.json record.

    Speedup-gated benchmarks call this right before asserting their
    floor, so the measured ratio survives the run whether or not the
    gate holds.
    """
    _SPEEDUPS[name] = {
        "speedup": float(speedup),
        "reference_s": float(reference_s),
        "optimized_s": float(optimized_s),
        "gate": None if gate is None else float(gate),
        "detail": detail,
    }


def _current_commit() -> str:
    """The HEAD commit hash, or 'unknown' outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _benchmark_timings(session) -> "dict[str, dict]":
    """Harvest per-test wall-time stats from pytest-benchmark, if active."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    timings: "dict[str, dict]" = {}
    if bench_session is None:
        return timings
    for bench in getattr(bench_session, "benchmarks", []):
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        try:
            timings[bench.fullname] = {
                "mean_s": float(stats.mean),
                "min_s": float(stats.min),
                "rounds": int(stats.rounds),
            }
        except (AttributeError, TypeError, ValueError):
            continue
    return timings


def pytest_sessionfinish(session, exitstatus):
    """Record this run in BENCH_results.json (deduped, history capped).

    Two hygiene rules keep the perf trajectory honest:

    * runs with an empty ``timings`` table are never appended -- a
      selection that collected no pytest-benchmark rows (e.g. a lone
      speedup-gate invocation) would otherwise pollute the history
      with partial records;
    * re-runs on the same commit *merge into* the earlier record
      instead of stacking next to it (fresh measurements win per test
      / per gate, tests the re-run did not touch keep their earlier
      numbers), so each commit contributes exactly one data point to
      the trajectory and a partial local re-run can never erase a full
      CI record.
    """
    timings = _benchmark_timings(session)
    if not timings:
        return
    record = {
        "commit": _current_commit(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "exitstatus": int(exitstatus),
        "timings": timings,
        "speedups": dict(sorted(_SPEEDUPS.items())),
    }
    history = {"runs": []}
    if RESULTS_PATH.is_file():
        try:
            loaded = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
            if isinstance(loaded, dict) and isinstance(
                loaded.get("runs"), list
            ):
                history = loaded
        except (OSError, json.JSONDecodeError):
            pass
    kept = []
    same_commit = []
    for run in history["runs"]:
        if (
            isinstance(run, dict)
            and run.get("commit") == record["commit"]
            and record["commit"] != "unknown"
        ):
            same_commit.append(run)
        else:
            kept.append(run)
    # Merge newest-last so fresher numbers always win: earlier records
    # for this commit (oldest first, then this run's measurements).
    for table in ("timings", "speedups"):
        merged: dict = {}
        for run in same_commit:
            merged.update(run.get(table) or {})
        merged.update(record[table])
        record[table] = dict(sorted(merged.items()))
    history["runs"] = (kept + [record])[-MAX_RUNS:]
    RESULTS_PATH.write_text(
        json.dumps(history, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
