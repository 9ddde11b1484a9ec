"""In-memory span recorder wrapped around the layers' public entry points.

The benchmark never edits the program: :func:`install` replaces chosen
functions and methods with thin wrappers that record one span per call
-- ``(id, name, start, end, parent, op)`` -- into a :class:`Recorder`, and
the spans are written out once the run ends. Times come from
``time.monotonic`` (``CLOCK_MONOTONIC``), which every process on the
host shares, so spans recorded inside the service process line up with
the client's op windows.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterable


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`.

    A span is ``(id, name, start, end, parent_id, op)``; ids come from
    one counter and completed spans are appended whole, so threads of
    the service process can record concurrently.
    """

    def __init__(self) -> None:
        self.spans: "list[tuple[int, str, float, float, int, int]]" = []
        self.op = -1
        self._ids = itertools.count()
        self._current: "contextvars.ContextVar[int]" = contextvars.ContextVar(
            "perfbench_span", default=-1
        )

    def _enter(self) -> "tuple[int, contextvars.Token]":
        span_id = next(self._ids)
        return span_id, self._current.set(span_id)

    def _exit(self, span_id: int, token, name: str, start: float) -> None:
        self._current.reset(token)
        self.spans.append(
            (span_id, name, start, time.monotonic(), self._current.get(), self.op)
        )

    def wrap(self, fn: Callable, name: "str | Callable[..., str]") -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``name`` is the span name, or a function of the call's
        arguments returning it (used to split HTTP routes).
        """
        label = name if callable(name) else (lambda *a, **k: name)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                span_id, token = self._enter()
                start = time.monotonic()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(span_id, token, label(*args, **kwargs), start)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id, token = self._enter()
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span_id, token, label(*args, **kwargs), start)

        return traced

    def dump(self, path: "str | Path") -> None:
        """Write the spans as JSON (one list per span)."""
        Path(path).write_text(json.dumps([list(s) for s in self.spans]))


def load(path: "str | Path") -> "list[tuple[int, str, float, float, int, int]]":
    """Spans written by :meth:`Recorder.dump`."""
    return [tuple(s) for s in json.loads(Path(path).read_text())]


def _route_name(self, method: str, path: str, *args: Any, **kwargs: Any) -> str:
    for prefix in ("/plans", "/jobs/", "/results/"):
        if path.startswith(prefix):
            return "app." + prefix.strip("/")
    return "app.other"


def install(recorder: Recorder, side: str) -> None:
    """Wrap the entry points one process calls into.

    ``side`` is ``"client"`` (the benchmark process: session, executor
    and service client) or ``"server"`` (the service process: HTTP
    routing, job classification and compute, store, journal, codecs,
    hashing).
    """
    for owner, attr, name in _targets(side):
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name))


def _targets(side: str) -> "Iterable[tuple[Any, str, Any]]":
    if side == "client":
        import repro.api.executor as executor
        import repro.api.plan as plan
        import repro.service.client as client

        return (
            (plan, "run_scenario", "api.run_scenario"),
            (executor, "run_plan_parallel", "executor.run_plan_parallel"),
            (client.SimulationServiceClient, "submit", "client.submit"),
            (client.SimulationServiceClient, "wait", "client.wait"),
            (client.SimulationServiceClient, "result", "client.fetch"),
            (client.SimulationServiceClient, "_request", "client.request"),
            (client, "store_record_from_dict", "io.decode"),
        )
    if side == "server":
        import repro.api.hashing as hashing
        import repro.io as io
        import repro.service.app as app
        import repro.service.jobs as jobs
        import repro.service.journal as journal
        import repro.service.store as store

        return (
            (app.ServiceApp, "_route", _route_name),
            (app, "store_record_to_dict", "io.encode"),
            (jobs, "scenario_hash", "hashing.scenario_hash"),
            (hashing, "scenario_hash", "hashing.scenario_hash"),
            (jobs, "compute_scenario_results", "jobs.compute"),
            (store.ResultStore, "get_record", "store.get_record"),
            (store.ResultStore, "put", "store.put"),
            (journal.JobJournal, "append", "journal.append"),
            (io, "store_record_from_dict", "io.decode"),
            (io, "store_record_to_dict", "io.encode"),
        )
    raise ValueError(f"unknown side {side!r}")
