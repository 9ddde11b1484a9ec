"""Typed synchronous client for the simulation service.

:class:`SimulationServiceClient` speaks the small JSON/HTTP API of
:mod:`repro.service.app` with ``urllib`` alone, returning the same
typed records the server works with (:class:`~repro.service.jobs.JobRecord`,
:class:`~repro.service.store.StoreRecord`) by round-tripping through
the :mod:`repro.io` codec -- so a fetched result is bit-identical
to what the server computed.

Transient failures are retried the way a well-behaved client of a
rate-limited service must: HTTP 429/503 honour the server's
``Retry-After`` when present, everything retryable backs off
exponentially with jitter, and a bounded retry budget turns into a
:class:`ServiceError` carrying the last status. Connection errors
(server not yet up, restarting) retry the same way, which is what lets
a client ride through a service restart without special casing. On
top of the per-attempt budget, ``total_timeout_s`` bounds one
request's *wall clock* across all its retries: every sleep is capped
to the remaining budget, so stacked ``Retry-After`` hints can never
hold a caller past its deadline.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import TYPE_CHECKING, Any, Mapping

from ..errors import ReproError
from ..io import from_record, store_record_from_dict, to_record
from .jobs import JobRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..api.plan import RunPlan, ScenarioResult
    from .store import StoreRecord

#: HTTP statuses worth retrying: rate limit and transient unavailability.
RETRYABLE_STATUSES = (429, 503)


class ServiceError(ReproError):
    """A service request failed after exhausting its retry budget.

    Attributes
    ----------
    status:
        The last HTTP status observed (0 for connection-level failures).
    """

    def __init__(self, message: str, status: int = 0) -> None:
        """Record the failure message and the last HTTP status."""
        super().__init__(message)
        self.status = status


class JobLostError(ServiceError):
    """A job the service accepted answered 404 while being waited on.

    The service journals every job, so this should only happen when
    the journal itself was removed or the id was evicted past the
    bounded ``expired`` memory.
    Either way the accepted work is gone, and retrying the poll until
    the wait deadline would just burn it -- so :meth:`
    SimulationServiceClient.wait` raises this typed error instead,
    carrying the ``plan_hash`` from the acceptance record so the caller
    can resubmit the same plan (the store makes the resubmission cheap:
    everything already computed is a hit).
    """

    def __init__(self, job_id: str, plan_hash: str = "") -> None:
        """Name the lost job and the plan hash to resubmit."""
        super().__init__(
            f"job {job_id} was accepted but the service no longer knows "
            f"it (HTTP 404); resubmit the plan"
            + (f" (plan hash {plan_hash})" if plan_hash else ""),
            404,
        )
        self.job_id = job_id
        self.plan_hash = plan_hash


class SimulationServiceClient:
    """A retrying, typed HTTP client for one simulation service.

    Parameters
    ----------
    base_url:
        The service root, e.g. ``"http://127.0.0.1:8787"``.
    timeout_s:
        Per-request socket timeout.
    retries:
        Attempts per request beyond the first, spent on
        :data:`RETRYABLE_STATUSES` and connection errors.
    backoff_s, max_backoff_s:
        Exponential backoff base and cap between retries; the actual
        sleep adds uniform jitter so synchronised clients spread out.
    total_timeout_s:
        Overall wall-clock budget for one request including every
        retry sleep, or ``None`` for no deadline. Backoff sleeps
        (even server-mandated ``Retry-After`` floors) are capped to
        the remaining budget; once it is spent the request fails with
        a :class:`ServiceError` naming the attempts used.
    client_id:
        Sent as ``X-Client-Id`` -- the server's rate-limit key.
    rng:
        Jitter source (seedable for deterministic tests).
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout_s: float = 30.0,
        retries: int = 5,
        backoff_s: float = 0.2,
        max_backoff_s: float = 5.0,
        total_timeout_s: "float | None" = None,
        client_id: str = "repro-client",
        rng: "random.Random | None" = None,
        sleep: "Any" = time.sleep,
        clock: "Any" = time.monotonic,
    ) -> None:
        """Configure the endpoint and the retry/backoff policy."""
        if total_timeout_s is not None and total_timeout_s <= 0:
            raise ReproError(
                f"total_timeout_s must be > 0 or None, got {total_timeout_s}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.total_timeout_s = (
            None if total_timeout_s is None else float(total_timeout_s)
        )
        self.client_id = client_id
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._clock = clock

    # ----- endpoints ------------------------------------------------------

    def health(self) -> "dict[str, Any]":
        """GET /healthz -- liveness."""
        return self._request("GET", "/healthz")

    def stats(self) -> "dict[str, Any]":
        """GET /stats -- job, store and rate-limit counters."""
        return self._request("GET", "/stats")

    def submit(
        self,
        plan: "RunPlan",
        *,
        priority: "int | str | None" = None,
        timeout_s: "float | None" = None,
    ) -> "JobRecord":
        """POST /plans -- submit a plan; returns the accepted job record.

        ``priority`` is a class name (``"high"``/``"normal"``/
        ``"low"``) or an integer rank (lower dispatches first); omitted
        means normal. ``timeout_s`` is the *job's* server-side deadline
        (seconds from acceptance): an unfinished job is moved to the
        typed ``timeout`` state by the server's watchdog when it
        expires. Omitted means no deadline.
        """
        body = to_record(plan)
        if priority is not None:
            body["priority"] = priority
        if timeout_s is not None:
            body["timeout_s"] = float(timeout_s)
        payload = self._request("POST", "/plans", body=body)
        return from_record(JobRecord, payload)

    def job(self, job_id: str) -> "JobRecord":
        """GET /jobs/{id} -- the job's current status record.

        An evicted job answers with a typed ``expired`` record rather
        than a 404 -- the id was real, its state has been garbage
        collected.
        """
        return from_record(JobRecord, self._request("GET", f"/jobs/{job_id}"))

    def cancel(self, job_id: str) -> "JobRecord":
        """DELETE /jobs/{id} -- cancel a job; returns its final record.

        Idempotent: cancelling a job that already finished returns the
        terminal record unchanged (``done`` stays ``done``); a
        genuinely cancelled job reports ``cancelled``. Retries follow
        the same policy as every other request.
        """
        return from_record(
            JobRecord, self._request("DELETE", f"/jobs/{job_id}")
        )

    def prune(
        self,
        *,
        max_entries: "int | None" = None,
        max_age_s: "float | None" = None,
    ) -> "dict[str, Any]":
        """POST /admin/prune -- GC the server's store within budgets.

        Returns the server's report: ``pruned`` (count), ``hashes``
        (what went), ``protected`` (pinned by live jobs) and
        ``entries`` (what remains). Hashes referenced by retained jobs
        are never pruned, whatever the budgets.
        """
        budgets: "dict[str, Any]" = {}
        if max_entries is not None:
            budgets["max_entries"] = int(max_entries)
        if max_age_s is not None:
            budgets["max_age_s"] = float(max_age_s)
        return self._request("POST", "/admin/prune", body=budgets)

    def result(self, scenario_hash: str) -> "StoreRecord":
        """GET /results/{hash} -- the stored record under one hash."""
        return store_record_from_dict(
            self._request("GET", f"/results/{scenario_hash}")
        )

    def verify(self, *, repair: bool = False) -> "dict[str, Any]":
        """POST /admin/verify -- integrity-scan the server's store.

        Returns the server's verify report (``scanned`` / ``intact`` /
        ``legacy`` / ``corrupt`` / ``quarantined`` / ``ok``); with
        ``repair`` true, corrupt objects are quarantined server-side.
        """
        return self._request(
            "POST", "/admin/verify", body={"repair": bool(repair)}
        )

    def wait(
        self,
        job_id: str,
        *,
        poll_s: float = 0.05,
        timeout_s: float = 600.0,
        plan_hash: str = "",
    ) -> "JobRecord":
        """Poll a job until it reaches a terminal state.

        Returns the final record (``done``, ``failed``, ``cancelled``,
        ``timeout`` or ``expired`` -- callers decide what non-success
        means to them); raises :class:`ServiceError` if the deadline
        passes first. A 404 on a job this client is *waiting* on --
        one the service accepted -- raises the typed
        :class:`JobLostError` immediately rather than polling a dead
        id until the deadline; pass ``plan_hash`` (from the acceptance
        record) so the error tells the caller what to resubmit.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                record = self.job(job_id)
            except ServiceError as exc:
                if exc.status == 404:
                    raise JobLostError(job_id, plan_hash) from exc
                raise
            if record.status in (
                "done",
                "failed",
                "cancelled",
                "timeout",
                "expired",
            ):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record.status!r} after "
                    f"{timeout_s:.0f}s"
                )
            self._sleep(poll_s)

    def run_plan(
        self,
        plan: "RunPlan",
        *,
        poll_s: float = 0.05,
        timeout_s: float = 600.0,
        job_timeout_s: "float | None" = None,
    ) -> "tuple[tuple[ScenarioResult, ...], JobRecord]":
        """Submit a plan, wait for it, fetch every result, in plan order.

        The one-call client workflow: returns the
        :class:`~repro.api.plan.ScenarioResult` list aligned with
        ``plan.expanded()`` plus the final job record (whose
        ``sources`` say which results came from the store, an
        in-flight dedupe, or fresh compute). ``timeout_s`` bounds the
        client-side wait; ``job_timeout_s`` is forwarded to the server
        as the job's own deadline. Raises :class:`ServiceError` if the
        job failed (or timed out server-side).
        """
        accepted = self.submit(plan, timeout_s=job_timeout_s)
        final = self.wait(
            accepted.id,
            poll_s=poll_s,
            timeout_s=timeout_s,
            plan_hash=accepted.plan_hash,
        )
        if final.status != "done":
            raise ServiceError(
                f"job {final.id} {final.status}: "
                f"{final.error or 'unknown error'}"
            )
        results = tuple(
            self.result(h).scenario_result for h in final.scenario_hashes
        )
        return results, final

    # ----- transport ------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: "Mapping[str, Any] | None" = None,
    ) -> "dict[str, Any]":
        """One JSON request with the retry/backoff policy applied.

        Retries are bounded twice over: by count (``retries``) and --
        when ``total_timeout_s`` is set -- by wall clock. Each backoff
        sleep is capped to the remaining budget, so a server's stacked
        ``Retry-After`` hints cannot stretch the call past the
        caller's deadline; an exhausted budget raises a
        :class:`ServiceError` naming how many attempts were made.
        """
        url = f"{self.base_url}{path}"
        data = None if body is None else json.dumps(body).encode("utf-8")
        deadline = (
            None
            if self.total_timeout_s is None
            else self._clock() + self.total_timeout_s
        )
        last_status = 0
        last_error = "no attempts made"
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                url,
                data=data,
                method=method,
                headers={
                    "Content-Type": "application/json",
                    "X-Client-Id": self.client_id,
                },
            )
            retry_after: "float | None" = None
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout_s
                ) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                last_status = exc.code
                detail = _error_detail(exc)
                last_error = f"HTTP {exc.code}: {detail}"
                if exc.code not in RETRYABLE_STATUSES:
                    raise ServiceError(
                        f"{method} {path} failed ({last_error})", exc.code
                    ) from exc
                header = exc.headers.get("Retry-After") if exc.headers else None
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = None
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
                last_status = 0
                last_error = f"connection error: {exc}"
            if attempt < self.retries:
                pause = self._backoff(attempt, retry_after)
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        raise ServiceError(
                            f"{method} {path} failed after {attempt + 1} "
                            f"attempt(s): total_timeout_s="
                            f"{self.total_timeout_s}s budget exhausted "
                            f"({last_error})",
                            last_status,
                        )
                    pause = min(pause, remaining)
                self._sleep(pause)
        raise ServiceError(
            f"{method} {path} failed after {self.retries + 1} attempts "
            f"({last_error})",
            last_status,
        )

    def _backoff(
        self, attempt: int, retry_after: "float | None" = None
    ) -> float:
        """Exponential backoff with jitter, floored at ``Retry-After``."""
        base = min(self.max_backoff_s, self.backoff_s * (2.0**attempt))
        jittered = base * (0.5 + self._rng.random())
        if retry_after is not None:
            return max(retry_after, jittered)
        return jittered


def _error_detail(exc: urllib.error.HTTPError) -> str:
    """Extract the server's JSON error message from an HTTP failure."""
    try:
        payload = json.loads(exc.read().decode("utf-8"))
        return str(payload.get("error", payload))
    except Exception:
        return exc.reason if isinstance(exc.reason, str) else "unknown"
