"""The write-ahead job journal: replay, compaction, leases, sharing.

Exercises :mod:`repro.service.journal` directly on temp files -- no
manager, no HTTP. The cross-process story (two replicas over one
journal file) is modelled with two :class:`JobJournal` instances on
the same path: appends go through ``O_APPEND`` descriptors and
``refresh()`` tail-reads foreign lines, which is exactly what two
processes would do.
"""

import json
import time

import pytest

from repro.errors import ConfigurationError
from repro.service import JobJournal, JournalEntry, LeaseRecord


def _accept(journal, job_id, plan_hash="ab" * 32, **extra):
    data = {
        "plan": {"name": "p", "scenarios": []},
        "plan_hash": plan_hash,
        "priority": 1,
        "timeout_s": None,
    }
    data.update(extra)
    return journal.append("accepted", job_id=job_id, data=data, sync=True)


def _finish(journal, job_id, status="done", **extra):
    data = {
        "status": status,
        "error": None,
        "elapsed_s": 0.5,
        "scenario_hashes": ["cd" * 32],
        "sources": ["computed"],
    }
    data.update(extra)
    return journal.append("terminal", job_id=job_id, data=data)


class TestAppendReplay:
    def test_empty_journal_is_fresh(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        assert journal.state.entries == 0
        assert journal.state.jobs == {}
        assert not journal.state.clean_shutdown

    def test_lifecycle_round_trips_through_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        _accept(journal, "job-1")
        journal.append("running", job_id="job-1")
        _finish(journal, "job-1", status="done")

        reborn = JobJournal(path)
        job = reborn.state.jobs["job-1"]
        assert job.status == "done"
        assert job.terminal
        assert job.plan_hash == "ab" * 32
        assert job.scenario_hashes == ("cd" * 32,)
        assert job.sources == ("computed",)
        assert reborn.state.max_job_seq == 1

    def test_non_terminal_job_replays_as_pending(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        _accept(journal, "job-1")
        journal.append("running", job_id="job-1")

        reborn = JobJournal(path)
        job = reborn.state.jobs["job-1"]
        assert job.status == "running"
        assert not job.terminal

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        _accept(journal, "job-1")
        _finish(journal, "job-1")
        # Simulate a crash mid-append: chop the last line in half.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])

        reborn = JobJournal(path)
        job = reborn.state.jobs["job-1"]
        assert job.status == "queued"  # the terminal line was the casualty
        assert reborn.state.corrupt_lines == 0

    def test_corrupt_interior_lines_are_counted_and_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        _accept(journal, "job-1")
        with open(path, "a") as handle:
            handle.write("{not json}\n")
            handle.write('["not-an-object"]\n')
        _finish(journal, "job-1")

        reborn = JobJournal(path)
        assert reborn.state.corrupt_lines == 2
        assert reborn.state.jobs["job-1"].status == "done"

    def test_max_job_seq_tracks_highest_id(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        _accept(journal, "job-3")
        _accept(journal, "job-11")
        _accept(journal, "not-a-job-id")
        assert journal.state.max_job_seq == 11

    def test_evicted_entries_build_the_expired_map(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        _accept(journal, "job-1")
        _finish(journal, "job-1")
        journal.append("evicted", job_id="job-1", data={"status": "done"})
        reborn = JobJournal(path)
        assert "job-1" not in reborn.state.jobs
        assert reborn.state.expired == {"job-1": "done"}

    def test_expired_memory_is_bounded(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl", expired_cap=3)
        for i in range(6):
            journal.append(
                "evicted", job_id=f"job-{i}", data={"status": "done"}
            )
        assert len(journal.state.expired) == 3
        assert "job-5" in journal.state.expired
        assert "job-0" not in journal.state.expired

    def test_invalid_compact_every_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JobJournal(tmp_path / "journal.jsonl", compact_every=0)


class TestCleanShutdown:
    def test_shutdown_marker_means_clean(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        _accept(journal, "job-1")
        _finish(journal, "job-1")
        journal.mark_clean_shutdown()
        assert JobJournal(path).state.clean_shutdown

    def test_any_later_entry_clears_the_clean_flag(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.mark_clean_shutdown()
        journal.append("boot", data={"owner_id": "o-2"})
        assert not JobJournal(path).state.clean_shutdown

    def test_no_marker_means_crash(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        _accept(journal, "job-1")
        assert not JobJournal(path).state.clean_shutdown


class TestCompaction:
    def test_compaction_preserves_folded_state(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        _accept(journal, "job-1")
        journal.append("running", job_id="job-1")
        _finish(journal, "job-1")
        _accept(journal, "job-2")
        journal.append("running", job_id="job-2")
        journal.append("evicted", job_id="job-9", data={"status": "failed"})
        before_jobs = {
            job_id: (j.status, j.plan_hash)
            for job_id, j in journal.state.jobs.items()
        }
        journal.compact()
        reborn = JobJournal(path)
        after_jobs = {
            job_id: (j.status, j.plan_hash)
            for job_id, j in reborn.state.jobs.items()
        }
        assert after_jobs == before_jobs
        assert reborn.state.expired == {"job-9": "failed"}
        assert reborn.state.max_job_seq == 9

    def test_compaction_shrinks_a_churned_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        for i in range(1, 30):
            _accept(journal, f"job-{i}")
            _finish(journal, f"job-{i}")
            journal.append(
                "evicted", job_id=f"job-{i}", data={"status": "done"}
            )
        before = path.stat().st_size
        journal.compact()
        # Every job collapsed to one bounded 'evicted' line.
        assert path.stat().st_size < before / 2
        assert journal.state.corrupt_lines == 0

    def test_auto_compaction_triggers_on_append_budget(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl", compact_every=5)
        for i in range(12):
            journal.append(
                "evicted", job_id=f"job-{i}", data={"status": "done"}
            )
        assert journal.compactions >= 2

    def test_compaction_keeps_the_clean_shutdown_marker(self, tmp_path):
        # The marker's own append is the one that triggers compaction.
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path, compact_every=3)
        journal.append("boot", data={"owner_id": "o-1"})
        _accept(journal, "job-1")
        journal.mark_clean_shutdown()
        assert journal.compactions == 1
        assert journal.state.clean_shutdown
        assert JobJournal(path).state.clean_shutdown

    def test_compacting_an_idle_journal_keeps_a_previous_life(self, tmp_path):
        # Nothing live to rewrite must not turn a crash into "fresh".
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.append("boot", data={"owner_id": "o-1"})
        journal.compact()
        reborn = JobJournal(path).state
        assert reborn.entries == 1
        assert not reborn.clean_shutdown

    def test_released_leases_do_not_survive_compaction(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.acquire_lease("ph-1", "owner-a", "job-1", ttl_s=60.0)
        journal.release_lease("ph-1", "owner-a")
        journal.compact()
        assert JobJournal(path).state.leases == {}


class TestLeases:
    def test_first_claim_wins(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        holder = journal.acquire_lease("ph-1", "owner-a", "job-1", ttl_s=60)
        assert holder.owner_id == "owner-a"
        assert not holder.expired()

    def test_live_lease_blocks_a_rival(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ours = JobJournal(path)
        theirs = JobJournal(path)
        ours.acquire_lease("ph-1", "owner-a", "job-1", ttl_s=60)
        holder = theirs.acquire_lease("ph-1", "owner-b", "job-9", ttl_s=60)
        assert holder.owner_id == "owner-a"

    def test_expired_lease_is_adopted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ours = JobJournal(path)
        theirs = JobJournal(path)
        now = time.time()
        ours.acquire_lease("ph-1", "owner-a", "job-1", ttl_s=1.0, now=now)
        holder = theirs.acquire_lease(
            "ph-1", "owner-b", "job-9", ttl_s=60.0, now=now + 5.0
        )
        assert holder.owner_id == "owner-b"

    def test_renew_extends_and_rival_renew_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        now = time.time()
        journal.acquire_lease("ph-1", "owner-a", "job-1", ttl_s=5.0, now=now)
        renewed = journal.renew_lease(
            "ph-1", "owner-a", ttl_s=5.0, now=now + 4.0
        )
        assert renewed is not None
        assert renewed.expires_at == pytest.approx(now + 9.0)
        rival = JobJournal(path)
        assert rival.renew_lease("ph-1", "owner-b", ttl_s=60.0) is None

    def test_release_then_rival_claims(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ours = JobJournal(path)
        theirs = JobJournal(path)
        ours.acquire_lease("ph-1", "owner-a", "job-1", ttl_s=60)
        ours.release_lease("ph-1", "owner-a")
        holder = theirs.acquire_lease("ph-1", "owner-b", "job-9", ttl_s=60)
        assert holder.owner_id == "owner-b"

    def test_reacquire_own_lease_is_allowed(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        journal.acquire_lease("ph-1", "owner-a", "job-1", ttl_s=60)
        holder = journal.acquire_lease("ph-1", "owner-a", "job-2", ttl_s=60)
        assert holder.owner_id == "owner-a"

    def test_bad_ttl_rejected(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        with pytest.raises(ConfigurationError):
            journal.acquire_lease("ph-1", "owner-a", "job-1", ttl_s=0)

    def test_current_lease_sees_foreign_claims(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ours = JobJournal(path)
        theirs = JobJournal(path)
        theirs.acquire_lease("ph-1", "owner-b", "job-9", ttl_s=60)
        lease = ours.refresh().leases.get("ph-1")
        assert lease is not None
        assert lease.owner_id == "owner-b"
        assert ours.refresh().leases.get("ph-other") is None


class TestSharedFile:
    def test_refresh_folds_foreign_appends(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ours = JobJournal(path)
        theirs = JobJournal(path)
        _accept(theirs, "job-7")
        assert "job-7" not in ours.state.jobs
        ours.refresh()
        assert "job-7" in ours.state.jobs

    def test_foreign_compaction_triggers_a_refold(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ours = JobJournal(path)
        theirs = JobJournal(path)
        for i in range(1, 20):
            _accept(ours, f"job-{i}")
            _finish(ours, f"job-{i}")
            theirs.refresh()
        theirs.compact()
        # Our offset now points past the end of the rewritten file.
        _accept(theirs, "job-99")
        ours.refresh()
        assert "job-99" in ours.state.jobs
        assert ours.state.jobs["job-5"].status == "done"

    def test_foreign_compaction_into_a_longer_file_triggers_a_refold(
        self, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        ours = JobJournal(path)
        ours.append("boot", data={"owner_id": "owner-a"})
        read = path.stat().st_size
        theirs = JobJournal(path)
        _accept(theirs, "job-1")
        _accept(theirs, "job-2")
        theirs.compact()
        # The rewritten file is longer than what we read of the old one,
        # so only its identity tells that our offset is stale.
        assert path.stat().st_size > read
        ours.refresh()
        assert sorted(ours.state.jobs) == ["job-1", "job-2"]
        assert ours.state.corrupt_lines == 0

    def test_stats_shape(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        _accept(journal, "job-1")
        stats = journal.stats()
        assert stats["jobs"] == 1
        assert stats["entries"] == 1
        assert stats["corrupt_lines"] == 0
        assert stats["bytes"] > 0
        assert stats["path"].endswith("journal.jsonl")


class TestRecords:
    def test_entry_and_lease_dataclasses(self):
        entry = JournalEntry(kind="boot", at=1.0, job_id="", data={"a": 1})
        assert entry.kind == "boot"
        lease = LeaseRecord(
            plan_hash="ph",
            owner_id="o",
            job_id="job-1",
            acquired_at=0.0,
            expires_at=10.0,
        )
        assert not lease.expired(now=5.0)
        assert lease.expired(now=10.0)

    def test_journal_lines_are_sorted_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        _accept(journal, "job-1")
        line = path.read_text().splitlines()[0]
        record = json.loads(line)
        assert list(record) == sorted(record)
        assert record["kind"] == "accepted"
