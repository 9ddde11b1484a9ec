"""Content-addressed on-disk result store for scenario results.

A :class:`ResultStore` persists :class:`~repro.api.plan.ScenarioResult`
records keyed by their canonical scenario hash
(:func:`~repro.api.hashing.scenario_hash`), so warm caches survive
process restarts and can be shared between machines over a plain
directory. Layout::

    <root>/
      objects/<hh>/<hash>.json    # one StoreRecord per result
      quarantine/                 # objects that failed an integrity check

Object files are the only record of what is stored: their path is
derivable from the hash alone, every write goes through a temp file +
:func:`os.replace` (atomic on POSIX), and the store is
**first-writer-wins** -- a second ``put`` under an existing hash is a
no-op, which is safe because content addressing makes all writers'
payloads equal by construction. Listings, counts, pruning and
verification all scan ``objects/``.

:func:`run_plan_with_store` is the runner-side integration: execute a
plan serving hits from a store, computing only misses, and optionally
writing the computed results back (the ``--from-store`` /
``--update-store`` flags of ``repro-experiments``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..api.hashing import code_version, scenario_hash
from ..api.plan import ScenarioResult  # resolves StoreRecord's type hints
from ..engine.cache import CacheStats
from ..errors import ConfigurationError


class StoreIntegrityError(ConfigurationError):
    """A stored object failed an integrity check and was quarantined.

    Raised by :meth:`ResultStore.get_record` when the object under a
    hash is unreadable, claims a different hash than it is filed
    under, or fails its sha256 content checksum. The offending file
    has already been moved to ``quarantine/`` when this propagates --
    a corrupt object is *never* served, and the hash reads as a miss
    afterwards so the result is simply recomputed.
    """


def result_checksum(scenario_result_record: "Mapping[str, Any]") -> str:
    """The sha256 content checksum of one serialised scenario result.

    Computed over the compact, key-sorted JSON of the
    ``"scenario_result"`` record of a store object -- deterministic
    across processes and stable through a JSON round trip, so
    :meth:`ResultStore.verify` can recompute it from the file alone.
    """
    canonical = json.dumps(
        dict(scenario_result_record),
        sort_keys=True,
        separators=(",", ":"),
    )
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..api.plan import PlanResult, RunPlan
    from ..api.session import SimulationSession


@dataclass(frozen=True)
class StoreRecord:
    """One stored result: the hash it is filed under plus provenance.

    Attributes
    ----------
    hash:
        The canonical scenario hash (the content address).
    code_version:
        The :func:`~repro.api.hashing.code_version` salt the result was
        computed under.
    created_at:
        POSIX timestamp of the write (used by :meth:`ResultStore.prune`).
    scenario_result:
        The full :class:`~repro.api.plan.ScenarioResult`, round-tripped
        bit-exactly through :mod:`repro.io`.
    checksum:
        The :func:`result_checksum` of the serialised result payload
        (``"sha256:..."``); empty on legacy objects written before
        checksums existed -- those are served but flagged by
        :meth:`ResultStore.verify`.
    """

    hash: str
    code_version: str
    created_at: float
    scenario_result: "ScenarioResult"
    checksum: str = ""


class ResultStore:
    """A content-addressed directory of scenario results.

    Thread-safe within a process (one lock serialises pruning and
    repair) and safe across processes by construction: object writes are
    atomic renames at paths derived from the content hash, so
    concurrent writers of the same hash converge on one valid file.
    """

    def __init__(self, root: "str | Path") -> None:
        """Open (creating if needed) a store rooted at ``root``."""
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.quarantine_dir = self.root / "quarantine"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.corrupt_detected = 0

    # ----- paths ---------------------------------------------------------

    def object_path(self, hash_: str) -> Path:
        """Where the record of one hash lives (exists or not)."""
        if len(hash_) < 3 or not all(c in "0123456789abcdef" for c in hash_):
            raise ConfigurationError(f"not a scenario hash: {hash_!r}")
        return self.objects_dir / hash_[:2] / f"{hash_}.json"

    # ----- core API ------------------------------------------------------

    def __contains__(self, hash_: str) -> bool:
        """Whether a result is stored under ``hash_``."""
        return self.object_path(hash_).is_file()

    def __len__(self) -> int:
        """Number of stored results (by scanning ``objects/``)."""
        return sum(1 for _ in self.objects_dir.glob("*/*.json"))

    def hashes(self) -> "tuple[str, ...]":
        """Every stored hash, sorted (a stable listing for tooling)."""
        return tuple(
            sorted(p.stem for p in self.objects_dir.glob("*/*.json"))
        )

    def get_record(self, hash_: str) -> "StoreRecord | None":
        """The full stored record under ``hash_``, or ``None`` on a miss.

        Every read is integrity-checked: the object must parse, must
        claim the hash it is filed under, and (when it carries a
        :func:`result_checksum`) the payload must match it. A failing
        object is moved to ``quarantine/`` and
        :class:`StoreIntegrityError` raised -- corruption is never
        silently served, and because the file is gone the hash reads
        as a plain miss (recompute) from then on.
        """
        path = self.object_path(hash_)
        if not path.is_file():
            return None
        record, defect = self._inspect(path)
        if defect is not None:
            moved = self._quarantine(path)
            raise StoreIntegrityError(
                f"store object {path} {defect.message}; "
                f"quarantined to {moved}"
            ) from defect.cause
        return record

    def get(self, hash_: str) -> "ScenarioResult | None":
        """The stored scenario result under ``hash_``, or ``None``.

        The forgiving read: a corrupt object is quarantined (by
        :meth:`get_record`) and reported as a miss, so store-backed
        runs transparently recompute what corruption destroyed.
        """
        try:
            record = self.get_record(hash_)
        except StoreIntegrityError:
            return None
        return None if record is None else record.scenario_result

    def put(
        self, hash_: str, scenario_result: "ScenarioResult"
    ) -> StoreRecord:
        """Store one result under its hash; atomic and idempotent.

        Writes the record to a temp file in the final directory and
        :func:`os.replace`-renames it into place, so readers never see
        a partial object. If the hash is already stored the existing
        record is returned untouched (first-writer-wins -- equal
        content by construction), which also makes concurrent same-hash
        ``put`` races harmless.
        """
        from .. import io

        try:
            existing = self.get_record(hash_)
        except StoreIntegrityError:
            # The previous object was corrupt and is quarantined now;
            # fall through and write a fresh, valid one in its place.
            existing = None
        if existing is not None:
            return existing
        record = StoreRecord(
            hash=hash_,
            code_version=code_version(),
            created_at=time.time(),
            scenario_result=scenario_result,
        )
        # Encode once: the checksum covers the object's own payload.
        obj = io.store_record_to_dict(record)
        obj["checksum"] = result_checksum(obj["scenario_result"])
        record = replace(record, checksum=obj["checksum"])
        path = self.object_path(hash_)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(obj, indent=2, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{hash_[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload + "\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return record

    def prune(
        self,
        *,
        max_entries: "int | None" = None,
        max_age_s: "float | None" = None,
        keep: "Iterable[str]" = (),
        now: "float | None" = None,
    ) -> "tuple[str, ...]":
        """Remove old results; returns the pruned hashes (oldest first).

        ``max_age_s`` drops every record older than the horizon;
        ``max_entries`` then drops the oldest records until at most
        that many remain. Hashes in ``keep`` are **pinned**: never
        deleted whatever the budgets say (the service passes the
        hashes its retained jobs reference, so GC cannot 404 a result
        a live job already classified as a store hit) -- which means
        ``max_entries`` is a target, not a guarantee, when pins exceed
        it. Emptied ``objects/<hh>/`` shard directories are removed.
        With neither bound this is a no-op.
        """
        if max_entries is not None and max_entries < 0:
            raise ConfigurationError(
                f"max_entries must be >= 0, got {max_entries}"
            )
        pinned = frozenset(keep)
        now = time.time() if now is None else now
        with self._lock:
            aged = sorted(
                (
                    (self._created_at(path), path.stem)
                    for path in self.objects_dir.glob("*/*.json")
                ),
            )
            doomed: "list[str]" = []
            if max_age_s is not None:
                doomed.extend(
                    h
                    for created, h in aged
                    if now - created > max_age_s and h not in pinned
                )
            if max_entries is not None:
                doomed_set = set(doomed)
                survivors = [h for _, h in aged if h not in doomed_set]
                excess = len(survivors) - max_entries
                if excess > 0:
                    removable = [h for h in survivors if h not in pinned]
                    doomed.extend(removable[:excess])
            for hash_ in doomed:
                try:
                    self.object_path(hash_).unlink()
                except FileNotFoundError:
                    pass
            if doomed:
                self._remove_empty_shards()
            return tuple(doomed)

    def _remove_empty_shards(self) -> None:
        """Drop ``objects/<hh>/`` directories pruning emptied."""
        for shard in self.objects_dir.iterdir():
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass  # not empty (or racing a writer): keep it

    def stats(self) -> "dict[str, Any]":
        """Entry count, byte size, and integrity counters of the store."""
        paths = list(self.objects_dir.glob("*/*.json"))
        quarantined = (
            sum(1 for _ in self.quarantine_dir.glob("*.json"))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "entries": len(paths),
            "bytes": sum(p.stat().st_size for p in paths),
            "root": str(self.root),
            "corrupt_objects": self.corrupt_detected,
            "quarantined": quarantined,
        }

    # ----- integrity (checksums, verify, quarantine) ----------------------

    def _inspect(
        self, path: Path
    ) -> "tuple[StoreRecord | None, _Defect | None]":
        """Parse one object file and run every integrity check on it.

        The one quarantine decision behind :meth:`get_record` and
        :meth:`verify`: the object must parse, must claim the hash its
        filename carries, and -- when it records a checksum -- must
        match its :func:`result_checksum`. Returns ``(record, None)``
        for a sound object (legacy checksum-less ones included) and
        ``(None, defect)`` for one that must not be served.
        """
        from .. import io

        try:
            data = io.load_json(path)
            record = io.store_record_from_dict(data)
        except ConfigurationError as exc:
            return None, _Defect(
                reason=f"unreadable: {exc}",
                message=f"is unreadable ({exc})",
                cause=exc,
            )
        if record.hash != path.stem:
            return None, _Defect(
                reason=(
                    f"hash mismatch: object claims "
                    f"{record.hash[:12]}..., filed as {path.stem[:12]}..."
                ),
                message=(
                    f"claims hash {record.hash[:12]}..., "
                    f"filed under {path.stem[:12]}..."
                ),
            )
        if record.checksum:
            recomputed = result_checksum(data["scenario_result"])
            if recomputed != record.checksum:
                return None, _Defect(
                    reason="content checksum mismatch",
                    message=(
                        f"fails its content checksum ({record.checksum} "
                        f"recorded, {recomputed} actual)"
                    ),
                )
        return record, None

    def _quarantine(self, path: Path) -> Path:
        """Move a corrupt object out of ``objects/`` so it cannot serve."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = self.quarantine_dir / path.name
        n = 1
        while dest.exists():
            dest = self.quarantine_dir / f"{path.stem}.{n}{path.suffix}"
            n += 1
        try:
            os.replace(path, dest)
        except FileNotFoundError:
            pass  # racing reader already moved it
        self.corrupt_detected += 1
        return dest

    def verify(self, *, repair: bool = False) -> "VerifyReport":
        """Scan every object for truncation, mismatch, bad checksums.

        The integrity sweep behind ``repro-service verify`` and
        ``POST /admin/verify``: each ``objects/<hh>/<hash>.json`` must
        parse, claim the hash its filename carries, and match its
        recorded :func:`result_checksum`. With ``repair=True`` every
        failing object is moved to ``quarantine/``; with the default
        ``repair=False`` the scan only reports. Objects written before
        checksums existed are counted as ``legacy`` -- readable and
        served, but unverifiable.
        """
        corrupt: "list[CorruptObject]" = []
        quarantined: "list[str]" = []
        scanned = 0
        legacy = 0
        for path in sorted(self.objects_dir.glob("*/*.json")):
            scanned += 1
            record, defect = self._inspect(path)
            if defect is None:
                if not record.checksum:
                    legacy += 1
                continue
            corrupt.append(
                CorruptObject(
                    name=path.stem, path=str(path), reason=defect.reason
                )
            )
            if repair:
                quarantined.append(str(self._quarantine(path)))
        if quarantined:
            with self._lock:
                self._remove_empty_shards()
        return VerifyReport(
            scanned=scanned,
            intact=scanned - len(corrupt),
            legacy=legacy,
            corrupt=tuple(corrupt),
            quarantined=tuple(quarantined),
        )

    def _created_at(self, path: Path) -> float:
        try:
            return float(json.loads(path.read_text()).get("created_at", 0.0))
        except (json.JSONDecodeError, OSError, ValueError):
            return 0.0


@dataclass(frozen=True)
class _Defect:
    """Why :meth:`ResultStore._inspect` refused an object.

    ``reason`` is the short form a :class:`CorruptObject` reports,
    ``message`` the clause a :class:`StoreIntegrityError` carries, and
    ``cause`` the parse error behind an unreadable object.
    """

    reason: str
    message: str
    cause: "Exception | None" = None


@dataclass(frozen=True)
class CorruptObject:
    """One object :meth:`ResultStore.verify` found damaged.

    Attributes
    ----------
    name:
        The hash the object was filed under (the file stem).
    path:
        Where the object lived when the scan found it.
    reason:
        What failed: unreadable, hash mismatch, or checksum mismatch.
    """

    name: str
    path: str
    reason: str


@dataclass(frozen=True)
class VerifyReport:
    """The outcome of one :meth:`ResultStore.verify` integrity sweep.

    Attributes
    ----------
    scanned, intact:
        Objects examined, and how many passed every check.
    legacy:
        Readable objects without a recorded checksum (pre-checksum
        writes): served, but unverifiable beyond their hash claim.
    corrupt:
        The failing objects, each with the reason it failed.
    quarantined:
        Destination paths of objects moved to ``quarantine/`` (only
        populated when the sweep ran with ``repair=True``).
    """

    scanned: int
    intact: int
    legacy: int
    corrupt: "tuple[CorruptObject, ...]"
    quarantined: "tuple[str, ...]"

    @property
    def ok(self) -> bool:
        """Whether the sweep found nothing wrong."""
        return not self.corrupt

    def as_dict(self) -> "dict[str, Any]":
        """JSON-safe form (what ``POST /admin/verify`` returns)."""
        return {
            "scanned": self.scanned,
            "intact": self.intact,
            "legacy": self.legacy,
            "ok": self.ok,
            "corrupt": [
                {"name": c.name, "path": c.path, "reason": c.reason}
                for c in self.corrupt
            ],
            "quarantined": list(self.quarantined),
        }

    def summary(self) -> str:
        """The one-line report the CLI prints to stderr-minded humans."""
        return (
            f"verify: {self.intact}/{self.scanned} intact, "
            f"{len(self.corrupt)} corrupt, {len(self.quarantined)} "
            f"quarantined, {self.legacy} legacy (no checksum)"
        )


@dataclass(frozen=True)
class StoreReport:
    """How a store-backed plan run split between cache and compute.

    Attributes
    ----------
    hits:
        Scenarios served from the store without recomputation.
    misses:
        Scenarios that had to be computed this run.
    written:
        Results newly written to the update store.
    hashes:
        The canonical hash of every expanded scenario, in plan order.
    """

    hits: int
    misses: int
    written: int
    hashes: "tuple[str, ...]"

    @property
    def total(self) -> int:
        """Expanded scenario count of the plan."""
        return self.hits + self.misses

    def summary(self) -> str:
        """The one-line hit/miss report the runner prints."""
        return (
            f"store: {self.hits} hits / {self.misses} misses "
            f"({self.total} scenarios), {self.written} written"
        )


def run_plan_with_store(
    session: "SimulationSession",
    plan: "RunPlan",
    *,
    from_store: "ResultStore | str | Path | None" = None,
    update_store: "ResultStore | str | Path | None" = None,
    workers: int = 1,
    timeout_s: "float | None" = None,
    max_shard_retries: int = 2,
) -> "tuple[PlanResult, StoreReport]":
    """Run a plan, serving store hits and computing only the misses.

    Every expanded scenario is hashed with the session's defaults in
    effect (:func:`~repro.api.hashing.scenario_hash`); hashes present
    in ``from_store`` are served from disk without recomputation, the
    misses run through the session (serially, or on the sharded
    parallel executor when ``workers > 1``), and -- when
    ``update_store`` is given -- freshly computed results are written
    back. The returned :class:`~repro.api.plan.PlanResult` is in plan
    order with stored and computed results interleaved; its
    ``cache_stats`` cover only the computed portion (stored results
    carry their original attribution). ``timeout_s`` and
    ``max_shard_retries`` are the supervised executor's per-shard
    deadline and retry budget; they only apply to the parallel
    (``workers > 1``) compute path.
    """
    from ..api.plan import PlanResult, RunPlan

    reader = _as_store(from_store)
    writer = _as_store(update_store)
    expanded = plan.expanded()
    hashes = tuple(
        scenario_hash(s, defaults=session.defaults) for s in expanded
    )

    results: "dict[int, ScenarioResult]" = {}
    miss_positions: "list[int]" = []
    for position, hash_ in enumerate(hashes):
        stored = reader.get(hash_) if reader is not None else None
        if stored is not None:
            results[position] = stored
        else:
            miss_positions.append(position)

    cache_total = CacheStats(hits=0, misses=0, currsize=0, per_cache=())
    if miss_positions:
        sub_plan = RunPlan(
            name=plan.name,
            scenarios=tuple(expanded[i] for i in miss_positions),
        )
        if workers > 1:
            computed = session.run_plan_parallel(
                sub_plan,
                workers=workers,
                timeout_s=timeout_s,
                max_shard_retries=max_shard_retries,
            )
        else:
            computed = session.run_plan(sub_plan)
        cache_total = computed.cache_stats
        for position, scenario_result in zip(
            miss_positions, computed.scenario_results
        ):
            results[position] = scenario_result

    written = 0
    if writer is not None:
        for position in miss_positions:
            if hashes[position] not in writer:
                writer.put(hashes[position], results[position])
                written += 1

    outcome = PlanResult(
        plan=plan,
        scenario_results=tuple(
            results[i] for i in range(len(expanded))
        ),
        cache_stats=cache_total,
    )
    report = StoreReport(
        hits=len(expanded) - len(miss_positions),
        misses=len(miss_positions),
        written=written,
        hashes=hashes,
    )
    return outcome, report


def _as_store(
    store: "ResultStore | str | Path | None",
) -> "ResultStore | None":
    """Coerce a path-or-store argument to an open store (or ``None``)."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)
