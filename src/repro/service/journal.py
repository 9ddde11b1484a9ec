"""Write-ahead job journal: durable service state over one JSONL file.

The simulation service keeps its job table, queue entries and
single-flight claims in memory; without a journal, a crash or deploy
restart silently forgets every accepted job and clients polling
``GET /jobs/{id}`` get a 404 for work they were promised. The
:class:`JobJournal` closes that hole: every job lifecycle transition is
appended to an append-only JSONL file *before* the service acts on it
(write-ahead), so a restarted service replays the journal and

* answers ``GET /jobs/{id}`` for every previously accepted job
  (terminal jobs come back as full records, evicted ids as ``expired``);
* re-queues jobs that were accepted but not terminal -- the re-run
  resolves through the :class:`~repro.service.store.ResultStore`, so
  only scenarios missing from the store are recomputed (the PR 9
  salvage path persisted everything that did complete);
* distinguishes a clean shutdown (the last entry is a ``shutdown``
  marker written by the drain path) from a crash.

Durability model: the ``accepted`` entry -- the promise to the client
-- is fsynced before ``POST /plans`` returns 202; later transitions
are flushed but not fsynced (they survive a process kill, and losing
one to a power cut merely re-queues a job that already has store
entries). The file is compacted in place every ``compact_every``
appends: live jobs, the bounded evicted-id memory, and unexpired
leases are rewritten as a minimal prefix (temp file + ``os.replace``,
atomic on POSIX).

Leases make one store directory safe to share between replicas: a
replica must hold the :class:`LeaseRecord` for a plan hash before
computing it, and renews it on a TTL heartbeat while the compute runs.
Claims are appended to the same journal, so the log order arbitrates
races -- the first claim appended while no live lease exists wins --
and an expired lease (crashed owner) lets a surviving replica adopt
the orphaned work. :meth:`JobJournal.refresh` tail-reads entries other
processes appended since our last read, which is what makes the fold
a shared view rather than a private one.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..errors import ConfigurationError

#: Entry kinds the journal understands (anything else is preserved
#: verbatim through compaction but ignored by the fold).
JOURNAL_KINDS = (
    "accepted",
    "running",
    "terminal",
    "evicted",
    "lease-claim",
    "lease-renew",
    "lease-release",
    "boot",
    "shutdown",
)

#: Job statuses the fold treats as final (mirrors ``jobs.TERMINAL_STATUSES``
#: without importing it -- the journal layer stands below the manager).
_TERMINAL = ("done", "failed", "cancelled", "timeout")

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


@dataclass
class JournalJobState:
    """The folded state of one journaled job."""

    job_id: str
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

    @property
    def terminal(self) -> bool:
        """Whether the job reached a final status before the fold ended."""
        return self.status in _TERMINAL


@dataclass
class JournalState:
    """Everything a replayed journal knows, folded in log order."""

    jobs: "dict[str, JournalJobState]" = field(default_factory=dict)
    leases: "dict[str, LeaseRecord]" = field(default_factory=dict)
    expired: "dict[str, str]" = field(default_factory=dict)
    clean_shutdown: bool = False
    corrupt_lines: int = 0
    entries: int = 0
    max_job_seq: int = 0


class JobJournal:
    """An append-only JSONL write-ahead log of service state.

    One instance per service process; the *file* may be shared by
    several processes (replicas over one store directory): appends are
    single ``write()`` calls on an ``O_APPEND`` descriptor, so lines
    from concurrent writers never interleave, and :meth:`refresh`
    folds in whatever other writers appended since our last read.
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
        self._offset = 0
        self._since_compact = 0
        self.state = JournalState()
        self.replay()

    # ----- reading --------------------------------------------------------

    def replay(self) -> JournalState:
        """Fold the whole journal from the top into a fresh state.

        A truncated final line (a crash mid-append) is tolerated and
        skipped; corrupt lines elsewhere are counted in
        ``state.corrupt_lines`` and skipped rather than aborting the
        boot -- a damaged journal recovers what it can.
        """
        self.state = JournalState()
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
            self.state = JournalState()
            self._offset = 0
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
        consumed = len(chunk) - len(tail)
        self._offset += consumed
        for raw in lines:
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("journal line is not an object")
            except (ValueError, UnicodeDecodeError):
                self.state.corrupt_lines += 1
                continue
            self._fold(record)
        return self.state

    def _fold(self, record: "Mapping[str, Any]") -> None:
        """Apply one parsed journal line to the running state."""
        state = self.state
        state.entries += 1
        kind = record.get("kind")
        job_id = str(record.get("job_id", ""))
        at = float(record.get("at", 0.0))
        data = record.get("data") or {}
        if not isinstance(data, Mapping):
            data = {}
        state.clean_shutdown = kind == "shutdown"
        match = _JOB_SEQ.match(job_id)
        if match:
            state.max_job_seq = max(state.max_job_seq, int(match.group(1)))
        if kind == "accepted":
            timeout_s = data.get("timeout_s")
            state.jobs[job_id] = JournalJobState(
                job_id=job_id,
                plan_record=dict(data.get("plan", {})),
                plan_hash=str(data.get("plan_hash", "")),
                priority=int(data.get("priority", 1)),
                timeout_s=None if timeout_s is None else float(timeout_s),
                created_at=at,
            )
            state.expired.pop(job_id, None)
        elif kind == "running":
            job = state.jobs.get(job_id)
            if job is not None and not job.terminal:
                job.status = "running"
        elif kind == "terminal":
            job = state.jobs.get(job_id)
            if job is not None:
                job.status = str(data.get("status", "failed"))
                error = data.get("error")
                job.error = None if error is None else str(error)
                job.finished_at = at
                job.elapsed_s = float(data.get("elapsed_s", 0.0))
                job.scenario_hashes = tuple(
                    str(h) for h in data.get("scenario_hashes", ())
                )
                job.sources = tuple(
                    str(s) for s in data.get("sources", ())
                )
        elif kind == "evicted":
            state.jobs.pop(job_id, None)
            state.expired[job_id] = str(data.get("status", "done"))
            while len(state.expired) > self.expired_cap:
                state.expired.pop(next(iter(state.expired)))
        elif kind == "lease-claim":
            lease = LeaseRecord(
                plan_hash=str(data.get("plan_hash", "")),
                owner_id=str(data.get("owner_id", "")),
                job_id=job_id,
                acquired_at=at,
                expires_at=float(data.get("expires_at", 0.0)),
            )
            holder = state.leases.get(lease.plan_hash)
            if (
                holder is None
                or holder.owner_id == lease.owner_id
                or holder.expired(at)
            ):
                state.leases[lease.plan_hash] = lease
        elif kind == "lease-renew":
            holder = state.leases.get(str(data.get("plan_hash", "")))
            if holder is not None and holder.owner_id == str(
                data.get("owner_id", "")
            ):
                state.leases[holder.plan_hash] = LeaseRecord(
                    plan_hash=holder.plan_hash,
                    owner_id=holder.owner_id,
                    job_id=holder.job_id,
                    acquired_at=holder.acquired_at,
                    expires_at=float(data.get("expires_at", 0.0)),
                )
        elif kind == "lease-release":
            holder = state.leases.get(str(data.get("plan_hash", "")))
            if holder is not None and holder.owner_id == str(
                data.get("owner_id", "")
            ):
                del state.leases[holder.plan_hash]

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
        state in true log order before we return.
        """
        entry = JournalEntry(
            kind=kind,
            at=time.time() if at is None else float(at),
            job_id=job_id,
            data=dict(data or {}),
        )
        from ..io import to_record

        record = to_record(entry)
        line = json.dumps(record, sort_keys=True) + "\n"
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
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
        per live job, the bounded ``evicted`` memory, and unexpired
        leases. History -- superseded transitions, released leases,
        old shutdown markers -- is dropped. Atomic via a temp file and
        :func:`os.replace`; returns the number of entries written.
        """
        self.refresh()
        state = self.state
        from ..io import to_record

        entries: "list[JournalEntry]" = []
        for job in state.jobs.values():
            entries.append(
                JournalEntry(
                    kind="accepted",
                    at=job.created_at,
                    job_id=job.job_id,
                    data={
                        "plan": job.plan_record,
                        "plan_hash": job.plan_hash,
                        "priority": job.priority,
                        "timeout_s": job.timeout_s,
                    },
                )
            )
            if job.terminal:
                entries.append(
                    JournalEntry(
                        kind="terminal",
                        at=job.finished_at or job.created_at,
                        job_id=job.job_id,
                        data={
                            "status": job.status,
                            "error": job.error,
                            "elapsed_s": job.elapsed_s,
                            "scenario_hashes": list(job.scenario_hashes),
                            "sources": list(job.sources),
                        },
                    )
                )
            elif job.status == "running":
                entries.append(
                    JournalEntry(
                        kind="running", at=job.created_at, job_id=job.job_id
                    )
                )
        for job_id, status in state.expired.items():
            entries.append(
                JournalEntry(
                    kind="evicted",
                    at=0.0,
                    job_id=job_id,
                    data={"status": status},
                )
            )
        now = time.time()
        for lease in state.leases.values():
            if not lease.expired(now):
                entries.append(
                    JournalEntry(
                        kind="lease-claim",
                        at=lease.acquired_at,
                        job_id=lease.job_id,
                        data={
                            "plan_hash": lease.plan_hash,
                            "owner_id": lease.owner_id,
                            "expires_at": lease.expires_at,
                        },
                    )
                )
        payload = "".join(
            json.dumps(to_record(e), sort_keys=True) + "\n"
            for e in entries
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=".journal-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._offset = len(payload.encode("utf-8"))
        self._since_compact = 0
        self.compactions += 1
        # Replayed corrupt lines are gone from the file now, and the
        # entry count is exactly what compaction wrote.
        self.state.corrupt_lines = 0
        self.state.entries = len(entries)
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
            data={
                "plan_hash": plan_hash,
                "owner_id": owner_id,
                "expires_at": now + float(ttl_s),
            },
            sync=True,
            at=now,
        )
        self.refresh()
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
            data={
                "plan_hash": plan_hash,
                "owner_id": owner_id,
                "expires_at": now + float(ttl_s),
            },
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
            data={"plan_hash": plan_hash, "owner_id": owner_id},
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
