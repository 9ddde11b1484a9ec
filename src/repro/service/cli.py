"""Command-line entry point for the simulation service.

Installed as ``repro-service``::

    repro-service serve --store results/ --port 8787 --workers 4
    repro-service serve --store results/ --shard-timeout 120 --shard-retries 2
    repro-service submit plan.json --url http://127.0.0.1:8787 --wait
    repro-service submit plan.json --priority high --job-timeout 300 --wait
    repro-service status job-1 --url http://127.0.0.1:8787
    repro-service cancel job-1 --url http://127.0.0.1:8787
    repro-service fetch <scenario-hash> --url ... --out result.json
    repro-service prune --url ... --max-entries 1000 --max-age 86400
    repro-service verify --store results/ --repair
    repro-service verify --url http://127.0.0.1:8787

``serve`` runs the asyncio HTTP service in the foreground until
interrupted: SIGTERM (and Ctrl-C) triggers a graceful shutdown that
drains running jobs for up to ``--drain-timeout`` seconds and journals
a clean-shutdown marker, so the next boot on the same ``--journal``
(default: ``journal.jsonl`` inside the store) recovers every accepted
job instead of forgetting it (``--prune-interval`` adds periodic store
GC). ``submit``/``status``/``cancel``/``fetch``/``prune`` are thin
wrappers over :class:`~repro.service.client.SimulationServiceClient`
that print JSON, so they compose with ``jq``-style tooling. ``prune``
garbage collects the server's result store within the given budgets --
hashes referenced by live jobs are pinned server-side and never
deleted. ``verify`` integrity-scans a store -- locally via ``--store``
or through a running service via ``--url`` -- and exits non-zero when
corruption was found (``--repair`` quarantines it).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
from typing import Sequence

from ..api.plan import RunPlan
from ..errors import ReproError
from ..io import store_record_to_dict, to_record
from .app import ServiceApp
from .client import SimulationServiceClient
from .store import ResultStore


def _build_parser() -> argparse.ArgumentParser:
    """The ``repro-service`` argument tree (seven subcommands)."""
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Serve and query the persistent simulation service.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Options left out stay out of the namespace, so the service keeps
    # its own defaults; each dest is the keyword the option sets.
    serve = commands.add_parser(
        "serve",
        help="run the HTTP service in the foreground",
        argument_default=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--store", required=True, help="result store directory (created)"
    )
    serve.add_argument("--host")
    serve.add_argument(
        "--port", type=int, default=8787, help="0 binds an ephemeral port"
    )
    serve.add_argument("--seed", type=int)
    serve.add_argument(
        "--workers",
        type=int,
        help="shard each job across N executor workers",
    )
    serve.add_argument(
        "--executor",
        choices=["process", "thread"],
        help="worker pool kind for job compute",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        help="bounded job queue size (503 beyond it)",
    )
    serve.add_argument(
        "--max-concurrent",
        type=int,
        help="jobs resolved concurrently",
    )
    serve.add_argument(
        "--rate",
        dest="rate_per_s",
        type=float,
        help="per-client submissions per second (token refill)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        help="per-client burst budget (token bucket capacity)",
    )
    serve.add_argument(
        "--aging",
        dest="aging_s",
        type=float,
        help="seconds a waiting job ages one priority class",
    )
    serve.add_argument(
        "--job-ttl",
        dest="job_ttl_s",
        type=float,
        help="seconds finished job records are retained (0 disables)",
    )
    serve.add_argument(
        "--max-job-records",
        dest="max_records",
        type=int,
        help="finished job records retained beyond TTL (0 disables)",
    )
    serve.add_argument(
        "--shard-timeout",
        dest="shard_timeout_s",
        type=float,
        help="per-shard compute deadline in seconds (off by default)",
    )
    serve.add_argument(
        "--shard-retries",
        dest="max_shard_retries",
        type=int,
        help="retries per failed/crashed/timed-out shard",
    )
    serve.add_argument(
        "--prune-interval",
        dest="prune_interval_s",
        type=float,
        help="seconds between background store prunes (off by default)",
    )
    serve.add_argument(
        "--prune-max-entries",
        type=int,
        help="store entry target for the background prune",
    )
    serve.add_argument(
        "--prune-max-age",
        dest="prune_max_age_s",
        type=float,
        help="store entry age budget (seconds) for the background prune",
    )
    serve.add_argument(
        "--journal",
        help="write-ahead job journal path (default: journal.jsonl inside "
        "the store); the journal is always on",
    )
    serve.add_argument(
        "--owner-id",
        help="lease owner identity (defaults to a per-process id)",
    )
    serve.add_argument(
        "--lease-ttl",
        dest="lease_ttl_s",
        type=float,
        help="seconds a plan lease lives between heartbeat renewals",
    )
    serve.add_argument(
        "--drain-timeout",
        dest="drain_timeout_s",
        type=float,
        help="seconds SIGTERM waits for running jobs before cancelling "
        "them (cancelled stragglers re-queue on the next boot)",
    )

    verify = commands.add_parser(
        "verify",
        help="integrity-scan a result store (local dir or via a service)",
    )
    verify.add_argument(
        "--store",
        default=None,
        help="scan this store directory directly (no service needed)",
    )
    verify.add_argument(
        "--url",
        default=None,
        help="scan through a running service's POST /admin/verify",
    )
    verify.add_argument(
        "--repair",
        action="store_true",
        help="move corrupt objects to quarantine/",
    )

    for name, help_text in (
        ("submit", "submit a plan JSON file as a job"),
        ("status", "print one job's status record"),
        ("cancel", "cancel a job; prints its final record"),
        ("fetch", "print (or save) one stored result by scenario hash"),
        ("prune", "garbage collect the server's result store"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--url",
            default="http://127.0.0.1:8787",
            help="service base URL",
        )
        if name == "submit":
            sub.add_argument("plan", help="path to a RunPlan JSON file")
            sub.add_argument(
                "--priority",
                default=None,
                help='"high"/"normal"/"low" or an integer rank '
                "(lower dispatches first)",
            )
            sub.add_argument(
                "--wait",
                action="store_true",
                help="poll until the job finishes and report its sources",
            )
            sub.add_argument(
                "--timeout", type=float, default=600.0, help="--wait deadline"
            )
            sub.add_argument(
                "--job-timeout",
                type=float,
                default=None,
                help="server-side job deadline in seconds (the job "
                "finishes in the typed 'timeout' state when it expires)",
            )
        elif name in ("status", "cancel"):
            sub.add_argument("job_id", help="job id (e.g. job-1)")
        elif name == "fetch":
            sub.add_argument("hash", help="canonical scenario hash")
            sub.add_argument(
                "--out", default=None, help="write the record to this file"
            )
        else:  # prune
            sub.add_argument(
                "--max-entries",
                type=int,
                default=None,
                help="keep at most this many store entries",
            )
            sub.add_argument(
                "--max-age",
                type=float,
                default=None,
                help="drop entries older than this many seconds",
            )
    return parser


def _parse_priority(raw: "str | None") -> "int | str | None":
    """CLI priority: pass class names through, convert digits to ints."""
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return raw


async def _serve(args: argparse.Namespace) -> int:
    """Run the service until SIGTERM/SIGINT, then drain and stop."""
    options = vars(args)
    del options["command"]
    journal = options.pop("journal", "auto")  # "auto": the default file
    if journal == "none":
        print(
            "error: --journal none is not supported: the job journal is "
            "always on (give a path, or omit the flag for the default)",
            file=sys.stderr,
        )
        return 2
    if journal != "auto":
        # A relative path names a file from the working directory.
        options["journal"] = os.path.abspath(journal)
    for key in ("job_ttl_s", "max_records"):
        if key in options and options[key] <= 0:
            options[key] = None
    app = ServiceApp(options.pop("store"), **options)
    host, port = await app.start()
    print(f"repro-service listening on http://{host}:{port}")
    print(f"store: {app.store.root} ({len(app.store)} results)")
    print(f"recovery: {json.dumps(app.recovery)}")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
        drained = await app.drain()
        if not drained:
            print(
                "drain timeout: cancelling stragglers "
                "(they re-queue on the next boot)",
                file=sys.stderr,
            )
    except asyncio.CancelledError:
        pass
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.remove_signal_handler(sig)
        await app.stop()
    return 0


def _verify(args: argparse.Namespace) -> int:
    """``repro-service verify``: scan a store, exit 1 on corruption."""
    if (args.store is None) == (args.url is None):
        print(
            "error: verify needs exactly one of --store or --url",
            file=sys.stderr,
        )
        return 2
    if args.store is not None:
        report = ResultStore(args.store).verify(repair=args.repair).as_dict()
    else:
        report = SimulationServiceClient(args.url).verify(
            repair=args.repair
        )
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def main(argv: "Sequence[str] | None" = None) -> int:
    """Parse arguments and run one subcommand; returns an exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            try:
                return asyncio.run(_serve(args))
            except KeyboardInterrupt:
                return 0
        if args.command == "verify":
            return _verify(args)
        client = SimulationServiceClient(args.url)
        if args.command == "submit":
            plan = RunPlan.load(args.plan)
            record = client.submit(
                plan,
                priority=_parse_priority(args.priority),
                timeout_s=args.job_timeout,
            )
            if args.wait:
                record = client.wait(record.id, timeout_s=args.timeout)
            print(json.dumps(to_record(record), indent=2))
            return 0 if record.status in ("queued", "running", "done") else 1
        if args.command == "status":
            print(json.dumps(to_record(client.job(args.job_id)), indent=2))
            return 0
        if args.command == "cancel":
            record = client.cancel(args.job_id)
            print(json.dumps(to_record(record), indent=2))
            return 0 if record.status == "cancelled" else 1
        if args.command == "prune":
            report = client.prune(
                max_entries=args.max_entries, max_age_s=args.max_age
            )
            print(json.dumps(report, indent=2))
            return 0
        # fetch
        record = store_record_to_dict(client.result(args.hash))
        text = json.dumps(record, indent=2)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.out}")
        else:
            print(text)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
