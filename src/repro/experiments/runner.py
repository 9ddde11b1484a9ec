"""Command-line entry point: regenerate the paper's figures.

Usage (installed as ``repro-experiments``)::

    repro-experiments                     # all paper figures + ablations
    repro-experiments fig6 fig7           # selected experiments
    repro-experiments fig6 --set temperature_k=400   # parameterized
    repro-experiments --plan plan.json    # a declarative RunPlan
    repro-experiments --plan plan.json --workers 4
                                          # sharded parallel execution
    repro-experiments --paper-only        # only the paper figures
    repro-experiments --csv-dir out/      # also export series as CSV
    repro-experiments --json-dir out/     # also export results as JSON

Prints, for each experiment, the ASCII rendering of the figure and the
table of shape checks against the paper's claims; exits nonzero if any
check fails. Every run goes through one
:class:`~repro.api.session.SimulationSession`, so ``--cache-stats``
reports *per-session* hit/miss counters -- for a ``--plan`` run that
includes the cross-scenario reuse the plan achieved.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from ..api.plan import RunPlan
from ..api.session import SimulationSession
from ..engine.cache import CacheStats
from ..errors import ConfigurationError
from ..io import experiment_result_to_dict, save_json, to_record
from ..reporting.export import export_series_csv
from .base import ExperimentResult
from .registry import available_experiments


def parse_set_option(assignments: "Sequence[str]") -> "dict[str, Any]":
    """Parse repeated ``--set key=value`` assignments into overrides.

    Values parse as JSON where possible (numbers, booleans, lists like
    ``[0.5,0.6]``, quoted strings) and fall back to the raw string, so
    ``--set temperature_k=400 --set gcrs=[0.5,0.7]`` both work.
    """
    overrides: "dict[str, Any]" = {}
    for assignment in assignments:
        key, sep, raw = assignment.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(
                f"--set expects key=value, got {assignment!r}"
            )
        try:
            value: Any = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    return overrides


def _print_result(result: ExperimentResult, plot: bool = True) -> None:
    print("=" * 78)
    print(f"{result.experiment_id}: {result.title}")
    print("-" * 78)
    if result.parameters:
        params = ", ".join(f"{k}={v}" for k, v in result.parameters.items())
        print(f"parameters: {params}")
    if plot:
        print(result.render_plot())
    print(result.render_checks())
    print()


def _export(
    result: ExperimentResult,
    stem: str,
    csv_dir: "str | None",
    json_dir: "str | None",
    record: "dict[str, Any] | None" = None,
) -> None:
    """Write the CSV and/or JSON export of one result."""
    if csv_dir:
        path = export_series_csv(
            f"{csv_dir}/{stem}.csv",
            result.series,
            x_label=result.x_label,
            y_label=result.y_label,
        )
        print(f"wrote {path}")
    if json_dir:
        path = save_json(
            record or experiment_result_to_dict(result),
            f"{json_dir}/{stem}.json",
        )
        print(f"wrote {path}")


def _safe_stem(name: str) -> str:
    """A filesystem-safe export stem for a scenario name."""
    return "".join(
        c if c.isalnum() or c in "-_." else "_" for c in name
    )


def _print_cache_stats(stats: CacheStats) -> None:
    print(
        f"engine caches: {stats.hits} hits / {stats.misses} misses "
        f"({stats.hit_rate:.0%} hit rate, {stats.currsize} entries)"
    )
    for name, (hits, misses, size) in stats.per_cache:
        print(f"  {name:22s} {hits:6d} hits {misses:6d} misses {size:4d} entries")


def _run_plan(
    session: SimulationSession, plan: RunPlan, args: argparse.Namespace
) -> int:
    """Execute a RunPlan (serially or sharded) and report per scenario.

    With ``--from-store`` scenarios whose canonical hash is already in
    the store are served from disk (only misses compute); with
    ``--update-store`` freshly computed results are written back. A
    store hit/miss summary line is printed whenever either flag is on.
    """
    store_report = None
    if args.from_store or args.update_store:
        from ..service.store import run_plan_with_store

        outcome, store_report = run_plan_with_store(
            session,
            plan,
            from_store=args.from_store,
            update_store=args.update_store,
            workers=args.workers,
            timeout_s=args.shard_timeout,
            max_shard_retries=args.shard_retries,
        )
    elif args.workers > 1:
        outcome = session.run_plan_parallel(
            plan,
            workers=args.workers,
            timeout_s=args.shard_timeout,
            max_shard_retries=args.shard_retries,
        )
    else:
        outcome = session.run_plan(plan)
    failures = 0
    used_stems: "dict[str, int]" = {}
    for scenario_result in outcome.scenario_results:
        _print_result(scenario_result.result, plot=not args.no_plot)
        print(
            f"scenario {scenario_result.scenario.name}: "
            f"{scenario_result.elapsed_s * 1e3:.1f} ms, "
            f"{scenario_result.cache_stats.hits} cache hits / "
            f"{scenario_result.cache_stats.misses} misses "
            f"({scenario_result.reused_hits} reused)"
        )
        stem = _safe_stem(scenario_result.scenario.name)
        # Repeated scenarios (e.g. warm-cache reruns) must not silently
        # overwrite each other's export files.
        count = used_stems.get(stem, 0)
        used_stems[stem] = count + 1
        if count:
            stem = f"{stem}-{count + 1}"
        _export(
            scenario_result.result,
            stem,
            args.csv_dir,
            args.json_dir,
            record=to_record(scenario_result),
        )
        failures += sum(
            1 for c in scenario_result.result.checks if not c.passed
        )
    total_checks = sum(len(r.checks) for r in outcome.results)
    print(
        f"plan {plan.name!r}: {len(outcome.scenario_results)} scenarios, "
        f"{total_checks} shape checks, {failures} failures, "
        f"{outcome.cross_scenario_hits} cross-scenario cache hits"
    )
    if store_report is not None:
        print(store_report.summary())
    for report in getattr(outcome, "shard_reports", ()):
        print(
            f"shard {report.index}: {len(report.positions)} scenarios in "
            f"{report.elapsed_s * 1e3:.1f} ms (seed {report.seed}, "
            f"{report.cache_stats.hits} hits / "
            f"{report.cache_stats.misses} misses)"
        )
    if args.cache_stats:
        # A parallel run leaves the CLI session's own caches untouched;
        # the merged plan counters are the meaningful report either way.
        _print_cache_stats(outcome.cache_stats)
    return 1 if failures else 0


def _check_overrides_used(
    ids: "Sequence[str]", overrides: "dict[str, Any]"
) -> None:
    """Reject ``--set`` keys no selected experiment accepts.

    CLI overrides ride as session defaults (each experiment takes the
    subset it understands), so a typo'd key would otherwise be silently
    ignored; this check keeps it an error.
    """
    from ..api.session import accepted_parameters
    from .registry import resolve_experiment

    for key in overrides:
        if not any(
            key in accepted_parameters(resolve_experiment(i)) for i in ids
        ):
            raise ConfigurationError(
                f"--set {key}=... is not accepted by any selected "
                f"experiment ({', '.join(ids)})"
            )


def main(argv: "Sequence[str] | None" = None) -> int:
    """Run experiments and report; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of Hossain et al., SOCC 2014.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (default: all)",
    )
    parser.add_argument(
        "--paper-only",
        action="store_true",
        help="run only the six paper figures",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--no-plot", action="store_true", help="suppress ASCII figures"
    )
    parser.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="parameter override applied to every selected experiment "
        "(repeatable; values parse as JSON, e.g. temperature_k=400)",
    )
    parser.add_argument(
        "--plan",
        default=None,
        metavar="PLAN.JSON",
        help="run a declarative RunPlan (JSON) through one session",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="session RNG seed (default 0)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run a --plan across N sharded worker sessions "
        "(LPT on cost hints, process pool; results are bit-identical "
        "to the serial run)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard deadline for --workers runs; a shard past it is "
        "cancelled and retried (off by default)",
    )
    parser.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        help="retries per failed/crashed/timed-out shard before the "
        "plan run errors (default 2)",
    )
    parser.add_argument(
        "--from-store",
        default=None,
        metavar="DIR",
        help="serve --plan scenarios already in this result store from "
        "disk (content-addressed by canonical scenario hash); only "
        "misses are computed",
    )
    parser.add_argument(
        "--update-store",
        default=None,
        metavar="DIR",
        help="write results computed during a --plan run into this "
        "result store (may be the same directory as --from-store)",
    )
    parser.add_argument(
        "--csv-dir",
        default=None,
        help="directory to export each experiment's series as CSV",
    )
    parser.add_argument(
        "--json-dir",
        default=None,
        help="directory to export each result as JSON (repro.io format)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="report the session's cache hit rates after the run",
    )
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0

    try:
        overrides = parse_set_option(args.assignments)
        session = SimulationSession(seed=args.seed, defaults=overrides)

        if args.workers < 1:
            raise ConfigurationError(
                f"--workers must be >= 1, got {args.workers}"
            )
        if args.shard_timeout is not None and args.workers < 2:
            raise ConfigurationError(
                "--shard-timeout only applies to parallel runs; pass "
                "--workers N (N >= 2) alongside it"
            )
        if args.shard_retries < 0:
            raise ConfigurationError(
                f"--shard-retries must be >= 0, got {args.shard_retries}"
            )
        if (args.from_store or args.update_store) and not args.plan:
            raise ConfigurationError(
                "--from-store/--update-store apply to --plan runs; wrap "
                "the experiments in a plan file to use the result store"
            )
        if args.plan:
            if args.experiments or overrides:
                raise ConfigurationError(
                    "--plan replaces positional experiment ids and --set; "
                    "encode overrides in the plan file"
                )
            return _run_plan(session, RunPlan.load(args.plan), args)
        if args.workers > 1:
            raise ConfigurationError(
                "--workers applies to --plan runs; wrap the experiments "
                "in a plan file to run them in parallel"
            )

        if args.experiments:
            ids = list(args.experiments)
        elif args.paper_only:
            from .registry import PAPER_FIGURES

            ids = list(PAPER_FIGURES)
        else:
            ids = list(available_experiments())

        _check_overrides_used(ids, overrides)
        results = [session.run(i) for i in ids]
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = 0
    for result in results:
        _print_result(result, plot=not args.no_plot)
        _export(result, result.experiment_id, args.csv_dir, args.json_dir)
        failures += sum(1 for c in result.checks if not c.passed)

    total_checks = sum(len(r.checks) for r in results)
    print(
        f"{len(results)} experiments, {total_checks} shape checks, "
        f"{failures} failures"
    )
    if args.cache_stats:
        _print_cache_stats(session.cache_stats())
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
