"""Write-ahead job journal and the one reducer over service job state.

The simulation service promises clients work it has not done yet; a
crash or restart must not turn an accepted job into a 404. Everything
durable about jobs lives here, with the single rule by which it moves:

* :class:`Job` -- one job: the durable fields the journal records, and
  runtime handles (the rebuilt plan, per-scenario progress, its task,
  the deadline watchdog, ``timed_out``) that are never journaled.
* :class:`JournalState` -- the job table, the bounded ``expired``
  memory of evicted ids, plan leases and the boot/shutdown marker.
* :func:`apply` -- the reducer, and the only code that changes
  lifecycle state (status, error, finish and elapsed time, eviction,
  the expired memory, leases, the markers).

Two state instances share that one reducer. :class:`JobJournal` folds
its file through :func:`apply` on replay and :meth:`~JobJournal.refresh`.
Its state is a *shared* view: replicas over one store directory share
the journal file, so it folds their jobs and lease claims too, and
lease arbitration reads it. The :class:`~repro.service.jobs.JobManager`
keeps a *private* state holding only its own jobs (recovery adopts a
copy of the replayed one) and changes it only through ``_commit``:
append the entry, then apply that same entry. The write-ahead rule
holds by construction, and both views agree on the manager's jobs.
The one deliberate divergence: a job that *shutdown* cancels is
applied as ``cancelled`` but not journaled as terminal, so the next
boot re-queues it.

Durability: the ``accepted`` entry -- the promise to the client -- is
fsynced before ``POST /plans`` returns 202; later transitions are
flushed but not fsynced (losing one to a power cut merely re-queues a
job whose finished scenarios are in the store). Every
``compact_every`` appends the file is rewritten (temp file +
``os.replace``) as a minimal prefix, each entry by the payload encoder
its live write uses. A replica must hold the :class:`LeaseRecord` for
a plan hash before computing it and renews it on a TTL heartbeat; log
order arbitrates racing claims, and an expired lease (crashed owner)
is adopted by whoever claims it next. Job ids come from the shared
view under :meth:`~JobJournal.locked`, so two replicas on one file
never number two jobs alike.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    import asyncio

    from ..api.plan import RunPlan
    from .jobs import JobRecord

#: Every entry kind the journal understands, with the fields of its
#: ``data`` payload in :func:`payload` argument order. Lines of any
#: other kind are counted but change nothing, and compaction drops them.
PAYLOADS = {
    "accepted": ("plan", "plan_hash", "priority", "timeout_s"),
    "running": (),
    "terminal": ("status", "error", "elapsed_s", "scenario_hashes", "sources"),
    "evicted": ("status",),
    "lease-claim": ("plan_hash", "owner_id", "expires_at"),
    "lease-renew": ("plan_hash", "owner_id", "expires_at"),
    "lease-release": ("plan_hash", "owner_id"),
    "boot": ("owner_id",),
    "shutdown": (),
}

#: The entry kinds, in lifecycle order.
JOURNAL_KINDS = tuple(PAYLOADS)

#: Job statuses a job cannot leave (eviction only collects these).
TERMINAL_STATUSES = ("done", "failed", "cancelled", "timeout")

_JOB_SEQ = re.compile(r"^job-(\d+)$")


@dataclass(frozen=True)
class JournalEntry:
    """One journal line: a kind, a timestamp, and its payload.

    Attributes
    ----------
    kind:
        One of :data:`JOURNAL_KINDS`.
    at:
        POSIX timestamp the entry was appended.
    job_id:
        The job the entry belongs to (empty for lease/marker entries).
    data:
        Kind-specific payload (plan record, status, lease fields, ...).
    """

    kind: str
    at: float
    job_id: str = ""
    data: "Mapping[str, Any]" = field(default_factory=dict)


@dataclass(frozen=True)
class LeaseRecord:
    """A plan-level compute claim: who may run a plan hash, until when.

    Attributes
    ----------
    plan_hash:
        The :func:`~repro.api.hashing.plan_hash` the lease covers.
    owner_id:
        The claiming service instance (one id per process lifetime).
    job_id:
        The job the owner acquired the lease for.
    acquired_at, expires_at:
        POSIX acquisition time and expiry; a lease past ``expires_at``
        is dead and may be adopted by any other owner.
    """

    plan_hash: str
    owner_id: str
    job_id: str
    acquired_at: float
    expires_at: float

    def expired(self, now: "float | None" = None) -> bool:
        """Whether the lease is past its expiry (adoptable)."""
        return (time.time() if now is None else now) >= self.expires_at


def _runtime(**kwargs: Any) -> Any:
    """A :class:`Job` field that is never journaled, compared or applied."""
    return field(compare=False, repr=False, **kwargs)


@dataclass
class Job:
    """One submitted plan: durable lifecycle state plus runtime handles.

    Only :func:`apply` changes the lifecycle fields (``status``,
    ``error``, ``finished_at``, ``elapsed_s``, ``sources``);
    ``scenario_hashes`` is filled in once the plan expands. The
    runtime fields stay out of equality and the journal: ``plan``
    (``None`` until rebuilt, and for good if its record cannot be),
    ``progress`` (per-scenario provenance while resolving), the
    ``started`` clock, the ``task`` running the job, ``timed_out`` and
    the deadline ``watchdog``.
    """

    id: str
    plan_record: "dict[str, Any]"
    plan_hash: str
    priority: int
    timeout_s: "float | None"
    created_at: float
    status: str = "queued"
    error: "str | None" = None
    finished_at: "float | None" = None
    elapsed_s: float = 0.0
    scenario_hashes: "tuple[str, ...]" = ()
    sources: "tuple[str, ...]" = ()
    plan: "RunPlan | None" = _runtime(default=None)
    progress: "list[str]" = _runtime(default_factory=list)
    started: float = _runtime(default_factory=time.perf_counter)
    task: "asyncio.Task | None" = _runtime(default=None)
    timed_out: bool = _runtime(default=False)
    watchdog: "asyncio.TimerHandle | None" = _runtime(default=None)

    @property
    def terminal(self) -> bool:
        """Whether the job has reached a final status."""
        return self.status in TERMINAL_STATUSES

    def record(self) -> "JobRecord":
        """A frozen :class:`~repro.service.jobs.JobRecord` snapshot."""
        from .jobs import JobRecord

        sources = self.sources if self.terminal else tuple(self.progress)
        return JobRecord(
            id=self.id,
            status=self.status,
            plan_name=str(self.plan_record.get("name", "")),
            plan_hash=self.plan_hash,
            scenario_hashes=self.scenario_hashes,
            sources=sources,
            store_hits=sources.count("store"),
            computed=sources.count("computed"),
            deduped=sources.count("inflight"),
            elapsed_s=self.elapsed_s,
            error=self.error,
            priority=self.priority,
            timeout_s=self.timeout_s,
        )


@dataclass
class JournalState:
    """Everything the journal entries applied so far imply, in log order.

    ``expired`` remembers the final status of evicted ids, bounded by
    ``expired_cap`` (oldest evictions are forgotten first).
    """

    jobs: "dict[str, Job]" = field(default_factory=dict)
    leases: "dict[str, LeaseRecord]" = field(default_factory=dict)
    expired: "dict[str, str]" = field(default_factory=dict)
    clean_shutdown: bool = False
    corrupt_lines: int = 0
    entries: int = 0
    max_job_seq: int = 0
    expired_cap: int = 4096


def payload(kind: str, *values: Any) -> "dict[str, Any]":
    """The one encoder of an entry's ``data``: its :data:`PAYLOADS` fields.

    Live writes and compaction both build payloads here, so an entry
    kind cannot drift between the two. Sequences encode as JSON arrays.
    """
    return dict(zip(PAYLOADS[kind], values, strict=True))


def apply(state: JournalState, entry: JournalEntry) -> JournalState:
    """Fold one entry into ``state`` (in place) and return it.

    The only code that changes lifecycle state. It does no I/O and
    reads no clock -- every timestamp comes from ``entry.at`` -- so
    replaying a file and applying the same entries live build equal
    states. Payload fields are read defensively (a hand-edited or
    foreign line degrades to defaults instead of aborting a boot), and
    unknown kinds change nothing but the entry count and the marker.
    """
    state.entries += 1
    kind, job_id, data = entry.kind, entry.job_id, entry.data
    # Any entry after the shutdown marker clears the clean flag, which
    # makes clean-vs-crash a per-session distinction by construction.
    state.clean_shutdown = kind == "shutdown"
    match = _JOB_SEQ.match(job_id)
    if match:
        state.max_job_seq = max(state.max_job_seq, int(match.group(1)))
    job = state.jobs.get(job_id)
    if kind == "accepted":
        timeout_s = data.get("timeout_s")
        state.jobs[job_id] = Job(
            id=job_id,
            plan_record=dict(data.get("plan", {})),
            plan_hash=str(data.get("plan_hash", "")),
            priority=int(data.get("priority", 1)),
            timeout_s=None if timeout_s is None else float(timeout_s),
            created_at=entry.at,
        )
        state.expired.pop(job_id, None)
    elif kind == "running":
        if job is not None and not job.terminal:
            job.status = "running"
    elif kind == "terminal":
        if job is not None:
            job.status = str(data.get("status", "failed"))
            error = data.get("error")
            job.error = None if error is None else str(error)
            job.finished_at = entry.at
            job.elapsed_s = float(data.get("elapsed_s", 0.0))
            job.scenario_hashes = tuple(
                str(h) for h in data.get("scenario_hashes", ())
            )
            job.sources = tuple(str(s) for s in data.get("sources", ()))
    elif kind == "evicted":
        state.jobs.pop(job_id, None)
        state.expired[job_id] = str(data.get("status", "done"))
        while len(state.expired) > state.expired_cap:
            state.expired.pop(next(iter(state.expired)))
    elif kind == "boot":
        # A new process life: nothing it inherits is running any more;
        # unfinished jobs wait to be re-queued.
        for job in state.jobs.values():
            if job.status == "running":
                job.status = "queued"
    elif kind.startswith("lease-"):
        plan_hash = str(data.get("plan_hash", ""))
        owner_id = str(data.get("owner_id", ""))
        holder = state.leases.get(plan_hash)
        if kind == "lease-claim":
            if (
                holder is None
                or holder.owner_id == owner_id
                or holder.expired(entry.at)
            ):
                state.leases[plan_hash] = LeaseRecord(
                    plan_hash=plan_hash,
                    owner_id=owner_id,
                    job_id=job_id,
                    acquired_at=entry.at,
                    expires_at=float(data.get("expires_at", 0.0)),
                )
        elif holder is not None and holder.owner_id == owner_id:
            if kind == "lease-renew":
                state.leases[plan_hash] = replace(
                    holder, expires_at=float(data.get("expires_at", 0.0))
                )
            elif kind == "lease-release":
                del state.leases[plan_hash]
    return state


def _line(entry: JournalEntry) -> str:
    """The one byte form of a journal entry: sorted-key JSON plus newline."""
    from ..io import to_record

    return json.dumps(to_record(entry), sort_keys=True) + "\n"


class JobJournal:
    """An append-only JSONL write-ahead log of service state.

    One instance per service process; the *file* may be shared by
    several processes (replicas over one store directory): appends are
    single ``write()`` calls on an ``O_APPEND`` descriptor, so lines
    from concurrent writers never interleave, and :meth:`refresh`
    folds in whatever other writers appended since our last read.
    :meth:`locked` serialises what must not interleave across writers.
    All methods must be called from one thread (the event loop).
    """

    def __init__(
        self,
        path: "str | Path",
        *,
        fsync_on_accept: bool = True,
        compact_every: int = 512,
        expired_cap: int = 4096,
    ) -> None:
        """Open (creating if needed) the journal at ``path`` and replay it."""
        if compact_every < 1:
            raise ConfigurationError(
                f"compact_every must be >= 1, got {compact_every}"
            )
        self.path = Path(path)
        self.fsync_on_accept = bool(fsync_on_accept)
        self.compact_every = int(compact_every)
        self.expired_cap = int(expired_cap)
        self.compactions = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._since_compact = 0
        self.replay()

    # ----- reading --------------------------------------------------------

    def replay(self) -> JournalState:
        """Fold the whole journal from the top into a fresh state.

        A truncated final line (a crash mid-append) is tolerated and
        skipped; corrupt lines elsewhere are counted in
        ``state.corrupt_lines`` and skipped rather than aborting the
        boot -- a damaged journal recovers what it can.
        """
        self.state = JournalState(expired_cap=self.expired_cap)
        self._offset = 0
        return self.refresh()

    def refresh(self) -> JournalState:
        """Fold entries appended (by anyone) since the last read.

        Detects a compacted-by-another-process file (shrunk beneath our
        read offset) and refolds from the top; folding is deterministic
        from file content, so the rebuild is idempotent.
        """
        if not self.path.exists():
            return self.state
        size = self.path.stat().st_size
        if size < self._offset:
            # Another process compacted (os.replace) under us.
            return self.replay()
        if size == self._offset:
            return self.state
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        # A crash mid-append can leave a partial trailing line; leave
        # it unread (the offset stays before it) so a later append by
        # its writer -- impossible after a crash -- or our own next
        # refresh never misparses it.
        lines = chunk.split(b"\n")
        tail = lines.pop()
        self._offset += len(chunk) - len(tail)
        for raw in lines:
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("journal line is not an object")
                data = record.get("data")
                entry = JournalEntry(
                    str(record.get("kind", "")),
                    float(record.get("at", 0.0)),
                    str(record.get("job_id", "")),
                    data if isinstance(data, Mapping) else {},
                )
            except (ValueError, TypeError, UnicodeDecodeError):
                self.state.corrupt_lines += 1
                continue
            apply(self.state, entry)
        return self.state

    # ----- writing --------------------------------------------------------

    def append(
        self,
        kind: str,
        *,
        job_id: str = "",
        data: "Mapping[str, Any] | None" = None,
        sync: bool = False,
        at: "float | None" = None,
    ) -> JournalEntry:
        """Append one entry; ``sync=True`` fsyncs before returning.

        The write-ahead contract: callers append *before* mutating
        their in-memory state, and fsync the entries that carry a
        promise to a client (``accepted``, lease claims). The append
        is followed by a :meth:`refresh`, so our own entry -- and any
        lines other writers slipped in before it -- fold into the live
        state in true log order before we return. The returned entry
        is what the caller applies to its own state.
        """
        entry = JournalEntry(
            kind=kind,
            at=time.time() if at is None else float(at),
            job_id=job_id,
            data=dict(data or {}),
        )
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, _line(entry).encode("utf-8"))
            if sync and self.fsync_on_accept:
                os.fsync(fd)
        finally:
            os.close(fd)
        # Do NOT just bump the offset by our own line length: other
        # writers may have appended unread lines before ours, and a
        # blind bump would park the offset mid-line, shredding a
        # foreign entry (e.g. a rival's lease claim) on the next read.
        # Refreshing folds everything -- theirs and ours -- in log order.
        self.refresh()
        self._since_compact += 1
        if self._since_compact >= self.compact_every:
            self.compact()
        return entry

    @contextmanager
    def locked(self) -> Iterator[JournalState]:
        """Hold the writers' exclusive lock; yields the refreshed state.

        An ``fcntl.flock`` on the sibling ``<journal>.lock`` file -- not
        on the journal, whose inode :meth:`compact` swaps -- so every
        process sharing the file runs the block one at a time. The job
        manager reads the next job id and appends its ``accepted``
        entry inside it. Not reentrant.
        """
        fd = os.open(f"{self.path}.lock", os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield self.refresh()
        finally:
            os.close(fd)  # closing the descriptor drops the lock

    def mark_clean_shutdown(self) -> None:
        """Append the fsynced ``shutdown`` marker the drain path writes.

        A journal whose *last* entry is this marker replays as a clean
        shutdown; any entry appended afterwards (the next boot's
        ``boot`` marker, a new submission) clears the flag, so the
        distinction is per-session by construction.
        """
        self.append("shutdown", sync=True)

    def compact(self) -> int:
        """Rewrite the journal as a minimal equivalent prefix.

        Keeps: one ``accepted`` (plus ``running``/``terminal``) entry
        per live job, the bounded ``evicted`` memory, unexpired leases
        and -- last, when the state is clean -- the shutdown marker, so
        a compaction triggered by :meth:`mark_clean_shutdown` keeps the
        next boot ``clean`` (a journal left with nothing else keeps a
        ``boot`` marker, so it never replays as ``fresh``). History --
        superseded transitions, released leases, old markers, unknown
        kinds -- is dropped. Atomic via a temp file and
        :func:`os.replace`; returns the number of entries written.
        """
        state = self.refresh()
        now = time.time()
        entries: "list[JournalEntry]" = []

        def add(kind: str, at: float, job_id: str = "", data=None) -> None:
            entries.append(JournalEntry(kind, at, job_id, data or {}))

        for job in state.jobs.values():
            data = payload(
                "accepted",
                job.plan_record,
                job.plan_hash,
                job.priority,
                job.timeout_s,
            )
            add("accepted", job.created_at, job.id, data)
            if job.terminal:
                data = payload(
                    "terminal",
                    job.status,
                    job.error,
                    job.elapsed_s,
                    job.scenario_hashes,
                    job.sources,
                )
                at = job.finished_at or job.created_at
                add("terminal", at, job.id, data)
            elif job.status == "running":
                add("running", job.created_at, job.id)
        for job_id, status in state.expired.items():
            add("evicted", 0.0, job_id, payload("evicted", status))
        for lease in state.leases.values():
            if not lease.expired(now):
                data = payload(
                    "lease-claim",
                    lease.plan_hash,
                    lease.owner_id,
                    lease.expires_at,
                )
                add("lease-claim", lease.acquired_at, lease.job_id, data)
        if state.clean_shutdown:
            add("shutdown", now)
        elif not entries and state.entries:
            # An empty file would replay as ``fresh``: keep one marker
            # so the next boot still reports how this life ended.
            add("boot", now)
        text = "".join(_line(entry) for entry in entries)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=".journal-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._offset = len(text.encode("utf-8"))
        self._since_compact = 0
        self.compactions += 1
        # Replayed corrupt lines are gone from the file now, and the
        # entry count is exactly what compaction wrote.
        state.corrupt_lines = 0
        state.entries = len(entries)
        return len(entries)

    # ----- leases ---------------------------------------------------------

    def acquire_lease(
        self,
        plan_hash: str,
        owner_id: str,
        job_id: str,
        ttl_s: float,
        now: "float | None" = None,
    ) -> LeaseRecord:
        """Try to claim a plan hash; returns the *current* holder.

        Refreshes first (so foreign claims are visible), appends our
        claim only when the table says we may (no holder, expired
        holder, or ourselves), then refreshes again and returns
        whoever the log says holds the lease -- the caller checks
        ``holder.owner_id`` to learn whether it won. Log order
        arbitrates ties between racing claimants.
        """
        if ttl_s <= 0:
            raise ConfigurationError(f"ttl_s must be > 0, got {ttl_s}")
        now = time.time() if now is None else now
        self.refresh()
        holder = self.state.leases.get(plan_hash)
        if (
            holder is not None
            and holder.owner_id != owner_id
            and not holder.expired(now)
        ):
            return holder
        self.append(
            "lease-claim",
            job_id=job_id,
            data=payload(
                "lease-claim", plan_hash, owner_id, now + float(ttl_s)
            ),
            sync=True,
            at=now,
        )
        return self.state.leases[plan_hash]

    def renew_lease(
        self,
        plan_hash: str,
        owner_id: str,
        ttl_s: float,
        now: "float | None" = None,
    ) -> "LeaseRecord | None":
        """Heartbeat: extend a lease we hold; ``None`` if we lost it."""
        now = time.time() if now is None else now
        self.refresh()
        holder = self.state.leases.get(plan_hash)
        if holder is None or holder.owner_id != owner_id:
            return None
        self.append(
            "lease-renew",
            job_id=holder.job_id,
            data=payload(
                "lease-renew", plan_hash, owner_id, now + float(ttl_s)
            ),
            at=now,
        )
        return self.state.leases.get(plan_hash)

    def release_lease(self, plan_hash: str, owner_id: str) -> None:
        """Release a lease we hold (a no-op if we do not)."""
        self.refresh()
        holder = self.state.leases.get(plan_hash)
        if holder is None or holder.owner_id != owner_id:
            return
        self.append(
            "lease-release",
            job_id=holder.job_id,
            data=payload("lease-release", plan_hash, owner_id),
        )

    def current_lease(self, plan_hash: str) -> "LeaseRecord | None":
        """The live holder of a plan hash after a refresh, if any."""
        self.refresh()
        return self.state.leases.get(plan_hash)

    # ----- reporting ------------------------------------------------------

    def stats(self) -> "dict[str, Any]":
        """Journal health counters for ``/stats``."""
        return {
            "path": str(self.path),
            "entries": self.state.entries,
            "jobs": len(self.state.jobs),
            "leases": len(self.state.leases),
            "expired_ids": len(self.state.expired),
            "corrupt_lines": self.state.corrupt_lines,
            "compactions": self.compactions,
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
        }
