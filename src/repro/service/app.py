"""The asyncio HTTP simulation service: plans in, cached results out.

A :class:`ServiceApp` binds the job manager
(:mod:`repro.service.jobs`) and the persistent result store
(:mod:`repro.service.store`) behind a small HTTP/1.1 API built on
:func:`asyncio.start_server` alone -- no web framework, zero runtime
dependencies beyond the standard library:

========  =================  ==============================================
method    path               meaning
========  =================  ==============================================
POST      ``/plans``         submit a :class:`~repro.api.plan.RunPlan`
                             record (optional ``priority`` key:
                             high/normal/low or 0-9; optional
                             ``timeout_s`` job deadline); 202 + job
                             record (rate limited, 429 +
                             ``Retry-After`` when over budget, 503 +
                             ``Retry-After`` when the queue is full)
GET       ``/jobs/{id}``     job status as a JSON job record (evicted
                             jobs answer a typed ``expired`` record)
DELETE    ``/jobs/{id}``     cancel a queued/running job; returns its
                             final record (idempotent on terminal jobs)
GET       ``/results/{h}``   the stored result record under scenario
                             hash ``h`` (404 on a miss; a corrupt
                             object is quarantined and 404s rather
                             than being served)
POST      ``/admin/prune``   garbage-collect the store within age/count
                             budgets, pinning hashes live jobs reference
POST      ``/admin/verify``  integrity-scan the store (body
                             ``{"repair": true}`` quarantines corrupt
                             objects); returns the verify report
GET       ``/healthz``       liveness probe (never rate limited)
GET       ``/stats``         job/store/dedupe counters, journal health,
                             and the last recovery report
========  =================  ==============================================

Responses are JSON; requests are independent (``Connection: close``),
which keeps the protocol layer small enough to audit at a glance.
:class:`ServiceThread` runs an app on a background event-loop thread --
the embedding used by the tests, the example and the CI smoke job; the
app can also run a periodic background prune (``prune_interval_s``) so
a long-lived service garbage-collects itself.

Durability: every app keeps a write-ahead
:class:`~repro.service.journal.JobJournal` (default
``<store root>/journal.jsonl``) of every job lifecycle transition.
:meth:`ServiceApp.start` replays it before serving -- restoring
terminal job records, re-queueing accepted-but-unfinished jobs (only
scenarios missing from the store are recomputed), and restoring the
evicted-id memory -- and :meth:`ServiceApp.stop` appends a clean
shutdown marker so the next boot can tell a deploy restart from a
crash. :meth:`ServiceApp.drain` is the graceful half the CLI's
SIGTERM handler runs before ``stop()``.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from typing import Any, Mapping

from ..errors import ConfigurationError
from ..api.plan import RunPlan
from ..io import from_record, store_record_to_dict, to_record
from .jobs import JobManager, JobQueueFull, RateLimiter, retry_after_seconds
from .journal import JobJournal
from .store import ResultStore, StoreIntegrityError

#: Largest request body the service accepts (a plan record), in bytes.
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceApp:
    """One simulation service: store + job manager + HTTP front end.

    Construction wires the pieces; :meth:`start` binds the socket.
    The app is restartable in the sense that matters operationally:
    a new app pointed at the same store directory serves everything
    its predecessors computed.
    """

    def __init__(
        self,
        store: "ResultStore | str",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_per_s: float = 10.0,
        burst: float = 20.0,
        prune_interval_s: "float | None" = None,
        prune_max_entries: "int | None" = None,
        prune_max_age_s: "float | None" = None,
        journal: "JobJournal | str | os.PathLike[str]" = "journal.jsonl",
        drain_timeout_s: float = 10.0,
        **job_options: Any,
    ) -> None:
        """Configure the service; nothing binds until :meth:`start`.

        ``journal`` is the write-ahead job journal, a
        :class:`~repro.service.journal.JobJournal` or a path; a
        relative path is taken inside the store root, so by default
        replicas sharing a store directory share the journal.
        ``job_options`` go to :class:`~repro.service.jobs.JobManager`
        unchanged (``seed``, ``workers``, ``executor``, ``job_ttl_s``,
        ``owner_id``, ``lease_ttl_s`` and the rest).
        """
        if prune_interval_s is not None and prune_interval_s <= 0:
            raise ConfigurationError(
                f"prune_interval_s must be > 0 or None, got {prune_interval_s}"
            )
        if drain_timeout_s < 0:
            raise ConfigurationError(
                f"drain_timeout_s must be >= 0, got {drain_timeout_s}"
            )
        self.store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        if not isinstance(journal, JobJournal):
            journal = JobJournal(self.store.root / journal)
        self.journal = journal
        self.drain_timeout_s = float(drain_timeout_s)
        self.host = host
        self.port = int(port)
        self.manager = JobManager(
            self.store, journal=self.journal, **job_options
        )
        self.limiter = RateLimiter(rate_per_s, burst)
        self.prune_interval_s = prune_interval_s
        self.prune_max_entries = prune_max_entries
        self.prune_max_age_s = prune_max_age_s
        self._server: "asyncio.base_events.Server | None" = None
        self._prune_task: "asyncio.Task | None" = None
        self.recovery: "dict[str, Any] | None" = None

    # ----- lifecycle ------------------------------------------------------

    async def start(self) -> "tuple[str, int]":
        """Bind and start serving; returns the bound ``(host, port)``.

        ``port=0`` (the default) binds an ephemeral port -- the return
        value is how callers learn it. When ``prune_interval_s`` is
        set, a background task prunes the store on that period with the
        configured budgets (live-job hashes always pinned). The manager
        recovers from the journal *before* the socket binds: every
        previously accepted job answers ``GET /jobs/{id}`` from the
        first request served.
        """
        if self._server is not None:
            raise ConfigurationError("service already started")
        self.recovery = await self.manager.recover()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        if self.prune_interval_s is not None:
            self._prune_task = asyncio.get_running_loop().create_task(
                self._prune_loop()
            )
        return sockname[0], self.port

    async def drain(self, timeout_s: "float | None" = None) -> bool:
        """Graceful pre-stop: wait for running jobs, journal what lands.

        The SIGTERM half of shutdown (``timeout_s`` defaults to the
        configured ``drain_timeout_s``): jobs finishing inside the
        window reach the journal as terminal; stragglers are cancelled
        by :meth:`stop` *without* a terminal entry, so the next boot
        re-queues them. Returns ``True`` when everything drained.
        """
        timeout = self.drain_timeout_s if timeout_s is None else timeout_s
        return await self.manager.drain(timeout)

    async def stop(self) -> None:
        """Stop accepting, cancel outstanding jobs, release the pool.

        A clean-shutdown marker is the last journal entry appended --
        the next boot reports ``mode: "clean"`` instead of ``"crash"``.
        """
        if self._prune_task is not None:
            self._prune_task.cancel()
            await asyncio.gather(self._prune_task, return_exceptions=True)
            self._prune_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.close()
        self.journal.mark_clean_shutdown()
        self.journal.close()

    # ----- store GC -------------------------------------------------------

    async def prune(
        self,
        *,
        max_entries: "int | None" = None,
        max_age_s: "float | None" = None,
    ) -> "dict[str, Any]":
        """Prune the store within budgets, pinning live jobs' hashes.

        The operational GC entry point behind ``POST /admin/prune`` and
        the background prune loop. Hashes referenced by retained jobs
        or in-flight claims (:meth:`JobManager.protected_hashes`) are
        never deleted, closing the classify-then-fetch TOCTOU. File IO
        runs off the event loop so serving never stalls.
        """
        pinned = self.manager.protected_hashes()
        loop = asyncio.get_running_loop()
        pruned = await loop.run_in_executor(
            None,
            lambda: self.store.prune(
                max_entries=max_entries, max_age_s=max_age_s, keep=pinned
            ),
        )
        return {
            "pruned": len(pruned),
            "hashes": list(pruned),
            "protected": len(pinned),
            "entries": len(self.store),
        }

    async def _prune_loop(self) -> None:
        """Periodic background GC; one failure never kills the loop."""
        while True:
            await asyncio.sleep(self.prune_interval_s)
            try:
                await self.prune(
                    max_entries=self.prune_max_entries,
                    max_age_s=self.prune_max_age_s,
                )
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                raise
            except Exception:  # pragma: no cover - defensive edge
                pass

    @property
    def url(self) -> str:
        """The service base URL once started (http, host:port)."""
        return f"http://{self.host}:{self.port}"

    # ----- HTTP plumbing --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Parse one request, route it, write one response, close."""
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            status, payload, extra = await self._route(
                method, path, headers, body, writer
            )
        except ConfigurationError as exc:
            status, payload, extra = 400, {"error": str(exc)}, {}
        except Exception as exc:  # pragma: no cover - defensive edge
            status, payload, extra = 500, {"error": str(exc)}, {}
        try:
            await _write_response(writer, status, payload, extra)
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _route(
        self,
        method: str,
        path: str,
        headers: "Mapping[str, str]",
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> "tuple[int, dict[str, Any], dict[str, str]]":
        """Dispatch one parsed request to its endpoint handler."""
        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok"}, {}
        if method == "GET" and path == "/stats":
            return (
                200,
                {
                    "jobs": self.manager.stats(),
                    "store": self.store.stats(),
                    "rate_limit": {
                        "rate_per_s": self.limiter.rate,
                        "burst": self.limiter.capacity,
                    },
                    "journal": self.journal.stats(),
                    "recovery": self.recovery,
                },
                {},
            )
        if method == "GET" and path.startswith("/jobs/"):
            record = self.manager.record_of(path[len("/jobs/"):])
            if record is None:
                return 404, {"error": "no such job"}, {}
            return 200, to_record(record), {}
        if method == "DELETE" and path.startswith("/jobs/"):
            record = await self.manager.cancel(path[len("/jobs/"):])
            if record is None:
                return 404, {"error": "no such job"}, {}
            return 200, to_record(record), {}
        if method == "GET" and path.startswith("/results/"):
            hash_ = path[len("/results/"):]
            try:
                record = self.store.get_record(hash_)
            except StoreIntegrityError as exc:
                # Quarantined, never served: to the client the object
                # is gone (resubmit the plan to recompute it).
                return 404, {"error": f"result quarantined: {exc}"}, {}
            except ConfigurationError as exc:
                return 400, {"error": str(exc)}, {}
            if record is None:
                return 404, {"error": "no such result"}, {}
            return 200, store_record_to_dict(record), {}
        if method == "POST" and path == "/plans":
            return self._submit(headers, body, writer)
        if method == "POST" and path == "/admin/prune":
            return await self._admin_prune(body)
        if method == "POST" and path == "/admin/verify":
            return await self._admin_verify(body)
        if path in (
            "/plans",
            "/healthz",
            "/stats",
            "/admin/prune",
            "/admin/verify",
        ) or path.startswith(("/jobs/", "/results/")):
            return 405, {"error": f"{method} not allowed on {path}"}, {}
        return 404, {"error": f"no such endpoint: {path}"}, {}

    async def _admin_prune(
        self, body: bytes
    ) -> "tuple[int, dict[str, Any], dict[str, str]]":
        """POST /admin/prune: GC within the request's age/count budgets."""
        budgets: "dict[str, Any]" = {}
        if body.strip():
            try:
                budgets = json.loads(body.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                return 400, {"error": f"body is not JSON: {exc}"}, {}
            if not isinstance(budgets, dict):
                return 400, {"error": "body must be a budgets object"}, {}
        unknown = set(budgets) - {"max_entries", "max_age_s"}
        if unknown:
            return (
                400,
                {"error": f"unknown prune budgets: {sorted(unknown)}"},
                {},
            )
        max_entries = budgets.get("max_entries")
        max_age_s = budgets.get("max_age_s")
        try:
            report = await self.prune(
                max_entries=None if max_entries is None else int(max_entries),
                max_age_s=None if max_age_s is None else float(max_age_s),
            )
        except (TypeError, ValueError) as exc:
            return 400, {"error": f"bad prune budgets: {exc}"}, {}
        return 200, report, {}

    async def _admin_verify(
        self, body: bytes
    ) -> "tuple[int, dict[str, Any], dict[str, str]]":
        """POST /admin/verify: integrity-scan the store, report corruption.

        Body is an optional ``{"repair": bool}`` object; with
        ``repair`` true, corrupt objects are moved to ``quarantine/``.
        The scan walks every object file, so it runs off the event
        loop; serving continues meanwhile.
        """
        options: "dict[str, Any]" = {}
        if body.strip():
            try:
                options = json.loads(body.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                return 400, {"error": f"body is not JSON: {exc}"}, {}
            if not isinstance(options, dict):
                return 400, {"error": "body must be an options object"}, {}
        unknown = set(options) - {"repair"}
        if unknown:
            return (
                400,
                {"error": f"unknown verify options: {sorted(unknown)}"},
                {},
            )
        repair = bool(options.get("repair", False))
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, lambda: self.store.verify(repair=repair)
        )
        return 200, report.as_dict(), {}

    def _submit(
        self,
        headers: "Mapping[str, str]",
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> "tuple[int, dict[str, Any], dict[str, str]]":
        """POST /plans: rate limit, parse, enqueue; 202 + job record.

        The body is a run-plan record, optionally carrying a
        ``priority`` key (a class name or integer rank) that dispatches
        the job ahead of or behind its queue peers, and/or a
        ``timeout_s`` key (a positive number) that deadlines the job:
        the manager's watchdog moves it to the typed ``timeout``
        terminal state if it is still unfinished then.
        """
        client = headers.get("x-client-id") or _peer_of(writer)
        wait = self.limiter.check(client)
        if wait > 0:
            seconds = retry_after_seconds(wait)
            return (
                429,
                {"error": "rate limit exceeded", "retry_after_s": seconds},
                {"Retry-After": str(seconds)},
            )
        try:
            record = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"error": f"body is not JSON: {exc}"}, {}
        if not isinstance(record, dict):
            return 400, {"error": "body must be a run-plan record"}, {}
        priority = record.pop("priority", None)
        timeout_raw = record.pop("timeout_s", None)
        timeout_s: "float | None" = None
        if timeout_raw is not None:
            try:
                timeout_s = float(timeout_raw)
            except (TypeError, ValueError):
                return (
                    400,
                    {"error": f"timeout_s must be a number, got {timeout_raw!r}"},
                    {},
                )
        plan = from_record(RunPlan, record)
        try:
            job = self.manager.submit(
                plan, priority=priority, timeout_s=timeout_s
            )
        except JobQueueFull as exc:
            return (
                503,
                {"error": str(exc), "retry_after_s": 1},
                {"Retry-After": "1"},
            )
        return 202, to_record(job.record()), {}


async def _read_request(
    reader: asyncio.StreamReader,
) -> "tuple[str, str, dict[str, str], bytes] | None":
    """Parse one HTTP/1.1 request; ``None`` on an empty connection."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line.strip():
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise ConfigurationError(f"malformed request line: {request_line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: "dict[str, str]" = {}
    while True:
        line = await reader.readline()
        if not line.strip():
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ConfigurationError(
            f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method, path, headers, body


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: "Mapping[str, Any]",
    extra_headers: "Mapping[str, str]",
) -> None:
    """Serialise one JSON response and flush it."""
    body = json.dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    lines.extend(f"{k}: {v}" for k, v in extra_headers.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


def _peer_of(writer: asyncio.StreamWriter) -> str:
    """The client key when no ``X-Client-Id`` header is sent."""
    peer = writer.get_extra_info("peername")
    return str(peer[0]) if peer else "unknown"


class ServiceThread:
    """Run a :class:`ServiceApp` on a dedicated event-loop thread.

    The embedding for synchronous callers (tests, the example script,
    the CI smoke job): ``start()`` blocks until the port is bound and
    returns ``(host, port)``; ``stop()`` shuts the loop down cleanly.
    Usable as a context manager.
    """

    def __init__(self, app: ServiceApp) -> None:
        """Wrap an unstarted app; nothing runs until :meth:`start`."""
        self.app = app
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()
        self._stop: "asyncio.Event | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._address: "tuple[str, int] | None" = None
        self._error: "BaseException | None" = None

    def start(self, timeout_s: float = 30.0) -> "tuple[str, int]":
        """Boot the loop thread and block until the socket is bound."""
        if self._thread is not None:
            raise ConfigurationError("service thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise ConfigurationError("service thread failed to start in time")
        if self._error is not None:
            raise ConfigurationError(
                f"service failed to start: {self._error}"
            )
        assert self._address is not None
        return self._address

    def stop(self, timeout_s: float = 30.0) -> None:
        """Stop the app and join the loop thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout_s)
        self._thread = None

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self._address = await self.app.start()
        except BaseException as exc:
            self._error = exc
            self._started.set()
            return
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await self.app.stop()

    def __enter__(self) -> "ServiceThread":
        """Start on entry; the bound address is in :attr:`address`."""
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Stop on exit, swallowing nothing."""
        self.stop()

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` of the running service."""
        if self._address is None:
            raise ConfigurationError("service thread not started")
        return self._address

    @property
    def url(self) -> str:
        """The service base URL of the running service."""
        host, port = self.address
        return f"http://{host}:{port}"
