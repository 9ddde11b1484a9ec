"""The content-addressed result store: round trips, atomicity, pruning.

Covers the :class:`~repro.service.store.ResultStore` contract the
service and runner lean on -- bit-exact get/put round trips through
the :mod:`repro.io` converters, idempotent first-writer-wins puts,
integrity checks, pruning, stores that still carry the ``index.json``
older versions wrote, and the two-threads-one-hash concurrency race
(one file, no corruption).
"""

import json
import threading

import numpy as np
import pytest

from repro.api import Scenario, SimulationSession, scenario_hash
from repro.errors import ConfigurationError
from repro.service import ResultStore
from repro.service.store import (
    StoreIntegrityError,
    result_checksum,
    run_plan_with_store,
)


def _hash_of(result):
    return scenario_hash(result.scenario)


class TestRoundTrip:
    def test_get_miss_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("ab" * 32) is None
        assert store.get_record("ab" * 32) is None
        assert ("ab" * 32) not in store

    def test_put_get_bit_exact(self, tmp_path, make_scenario_result):
        store = ResultStore(tmp_path)
        original = make_scenario_result(y=(1.0, 1e-30, 3.0e17))
        hash_ = _hash_of(original)
        record = store.put(hash_, original)
        assert record.hash == hash_
        assert record.code_version
        loaded = store.get(hash_)
        assert loaded is not None
        assert loaded.scenario == original.scenario
        for got, ref in zip(loaded.result.series, original.result.series):
            assert np.array_equal(got.x, ref.x)
            assert np.array_equal(got.y, ref.y)
        assert loaded.elapsed_s == original.elapsed_s
        assert loaded.cache_stats == original.cache_stats
        assert loaded.reused_hits == original.reused_hits

    def test_put_is_idempotent_first_writer_wins(
        self, tmp_path, make_scenario_result
    ):
        store = ResultStore(tmp_path)
        first = make_scenario_result(y=(1.0, 2.0, 3.0))
        hash_ = _hash_of(first)
        record1 = store.put(hash_, first)
        record2 = store.put(hash_, make_scenario_result(y=(9.0, 9.0, 9.0)))
        assert record2.created_at == record1.created_at
        assert store.get(hash_).result.series[0].y[0] == 1.0
        assert len(store) == 1

    def test_len_contains_hashes(self, tmp_path, make_scenario_result):
        store = ResultStore(tmp_path)
        hashes = []
        for n in range(3):
            result = make_scenario_result(overrides={"n_points": n + 4})
            hashes.append(_hash_of(result))
            store.put(hashes[-1], result)
        assert len(store) == 3
        assert store.hashes() == tuple(sorted(hashes))
        assert all(h in store for h in hashes)

    def test_bad_hash_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.object_path("../../etc/passwd")
        with pytest.raises(ConfigurationError):
            store.object_path("ZZ")

    def test_mismatched_object_hash_is_quarantined(
        self, tmp_path, make_scenario_result
    ):
        store = ResultStore(tmp_path)
        result = make_scenario_result()
        hash_ = _hash_of(result)
        store.put(hash_, result)
        # File an object under a hash its record does not claim.
        other = "f" * 64
        target = store.object_path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store.object_path(hash_).read_text())
        # The typed read surface raises; the convenience read heals to
        # a miss -- either way the lie is quarantined, never served.
        with pytest.raises(StoreIntegrityError):
            store.get_record(other)
        assert not target.exists()
        assert list(store.quarantine_dir.iterdir())
        assert store.get(other) is None
        assert store.corrupt_detected >= 1


class TestVerify:
    """The integrity sweep behind ``repro-service verify``."""

    def _seed(self, tmp_path, make_scenario_result, n=2):
        store = ResultStore(tmp_path)
        hashes = []
        for k in range(n):
            result = make_scenario_result(overrides={"n_points": k + 4})
            hashes.append(_hash_of(result))
            store.put(hashes[-1], result)
        return store, hashes

    def test_intact_store_verifies_clean(
        self, tmp_path, make_scenario_result
    ):
        store, hashes = self._seed(tmp_path, make_scenario_result)
        report = store.verify()
        assert report.ok
        assert (report.scanned, report.intact) == (2, 2)
        assert report.legacy == 0
        assert report.corrupt == ()
        assert report.quarantined == ()
        assert report.as_dict()["ok"] is True

    def test_bit_flip_fails_checksum_and_repair_quarantines(
        self, tmp_path, make_scenario_result
    ):
        store, hashes = self._seed(tmp_path, make_scenario_result)
        path = store.object_path(hashes[0])
        data = json.loads(path.read_text())
        data["scenario_result"]["elapsed_s"] = 999.0  # silent bit rot
        path.write_text(json.dumps(data))
        report = store.verify()  # report-only: nothing moves
        assert not report.ok
        assert len(report.corrupt) == 1
        assert report.corrupt[0].name == hashes[0]
        assert "checksum" in report.corrupt[0].reason
        assert report.quarantined == ()
        assert path.exists()
        repaired = store.verify(repair=True)
        assert len(repaired.quarantined) == 1
        assert not path.exists()
        assert hashes[0] not in store.hashes()
        assert hashes[1] in store  # the intact neighbour survives
        assert "1/2 intact" in repaired.summary()

    def test_truncated_object_is_unreadable(
        self, tmp_path, make_scenario_result
    ):
        store, hashes = self._seed(tmp_path, make_scenario_result, n=1)
        path = store.object_path(hashes[0])
        path.write_text(path.read_text()[:40])  # torn write
        report = store.verify()
        assert not report.ok
        assert "unreadable" in report.corrupt[0].reason

    def test_misfiled_object_is_a_hash_mismatch(
        self, tmp_path, make_scenario_result
    ):
        store, hashes = self._seed(tmp_path, make_scenario_result, n=1)
        other = "e" * 64
        target = store.object_path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store.object_path(hashes[0]).read_text())
        report = store.verify()
        assert not report.ok
        assert report.corrupt[0].name == other
        assert "hash mismatch" in report.corrupt[0].reason

    def test_legacy_object_without_checksum_is_flagged_not_corrupt(
        self, tmp_path, make_scenario_result
    ):
        store, hashes = self._seed(tmp_path, make_scenario_result, n=1)
        path = store.object_path(hashes[0])
        data = json.loads(path.read_text())
        del data["checksum"]  # as written before checksums existed
        path.write_text(json.dumps(data))
        report = store.verify()
        assert report.ok
        assert report.legacy == 1
        assert store.get(hashes[0]) is not None  # still served

    def test_result_checksum_is_deterministic_and_content_bound(self):
        record = {"scenario": {"experiment_id": "fig6"}, "elapsed_s": 1.0}
        first = result_checksum(record)
        assert first == result_checksum(dict(record))
        assert first.startswith("sha256:")
        changed = dict(record, elapsed_s=2.0)
        assert result_checksum(changed) != first


def _legacy_index(store, hashes, *, corrupt):
    """Write the ``index.json`` older store versions kept beside objects."""
    path = store.root / "index.json"
    if corrupt:
        path.write_text("{ not json")
        return path
    entries = {}
    for hash_ in hashes:
        record = store.get_record(hash_)
        entries[hash_] = {
            "experiment_id": record.scenario_result.scenario.experiment_id,
            "label": record.scenario_result.scenario.label,
            "code_version": record.code_version,
            "created_at": record.created_at,
        }
    path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return path


class TestIndex:
    """Objects are the only record: listings scan ``objects/``, and a
    leftover ``index.json`` is inert."""

    def test_index_tracks_puts(self, tmp_path, make_scenario_result):
        store = ResultStore(tmp_path)
        result = make_scenario_result(experiment_id="fig7", label="warm")
        hash_ = _hash_of(result)
        store.put(hash_, result)
        assert store.hashes() == (hash_,)
        scenario = store.get_record(hash_).scenario_result.scenario
        assert scenario.experiment_id == "fig7"
        assert scenario.label == "warm"

    def test_corrupt_index_falls_back_to_scan(
        self, tmp_path, make_scenario_result
    ):
        store = ResultStore(tmp_path)
        result = make_scenario_result()
        hash_ = _hash_of(result)
        store.put(hash_, result)
        _legacy_index(store, [hash_], corrupt=True)
        assert store.hashes() == (hash_,)
        assert len(store) == 1
        assert store.get(hash_) is not None

    def test_put_never_writes_an_index(self, tmp_path, make_scenario_result):
        store = ResultStore(tmp_path)
        for n in range(3):
            result = make_scenario_result(overrides={"n_points": n + 4})
            store.put(_hash_of(result), result)
        assert len(store) == 3
        assert not (tmp_path / "index.json").exists()

    @pytest.mark.parametrize(
        "corrupt", [False, True], ids=["valid", "corrupt"]
    )
    def test_store_written_with_an_index_opens_and_serves(
        self, tmp_path, make_scenario_result, corrupt
    ):
        """A store an older version wrote (objects plus its index) opens,
        serves hits, prunes and verifies; nothing touches the index."""
        old = ResultStore(tmp_path)
        hashes = []
        for n in range(3):
            result = make_scenario_result(overrides={"n_points": n + 4})
            hashes.append(_hash_of(result))
            old.put(hashes[-1], result)
        index = _legacy_index(old, hashes, corrupt=corrupt)
        before = index.read_bytes()

        store = ResultStore(tmp_path)
        assert store.hashes() == tuple(sorted(hashes))
        for hash_ in hashes:
            assert store.get(hash_) is not None
        fresh = make_scenario_result(overrides={"n_points": 9})
        store.put(_hash_of(fresh), fresh)
        assert _hash_of(fresh) in store.hashes()
        assert store.verify().ok
        pruned = store.prune(max_entries=2, keep=[_hash_of(fresh)])
        assert len(pruned) == 2
        assert len(store) == 2
        assert store.verify().scanned == 2
        assert index.read_bytes() == before


class TestPrune:
    def test_prune_by_max_entries_drops_oldest(
        self, tmp_path, make_scenario_result
    ):
        store = ResultStore(tmp_path)
        hashes = []
        for n in range(4):
            result = make_scenario_result(overrides={"n_points": n + 4})
            hashes.append(_hash_of(result))
            record = store.put(hashes[-1], result)
            # Make creation order unambiguous regardless of clock tick.
            path = store.object_path(record.hash)
            data = json.loads(path.read_text())
            data["created_at"] = float(n)
            path.write_text(json.dumps(data))
        removed = store.prune(max_entries=2)
        assert removed == tuple(hashes[:2])
        assert len(store) == 2
        assert hashes[3] in store

    def test_prune_by_age(self, tmp_path, make_scenario_result):
        store = ResultStore(tmp_path)
        result = make_scenario_result()
        hash_ = _hash_of(result)
        record = store.put(hash_, result)
        assert store.prune(max_age_s=3600, now=record.created_at + 10) == ()
        assert store.prune(max_age_s=5, now=record.created_at + 10) == (
            hash_,
        )
        assert len(store) == 0

    def test_prune_without_bounds_is_noop(
        self, tmp_path, make_scenario_result
    ):
        store = ResultStore(tmp_path)
        result = make_scenario_result()
        store.put(_hash_of(result), result)
        assert store.prune() == ()
        assert len(store) == 1

    def test_negative_max_entries_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultStore(tmp_path).prune(max_entries=-1)

    def test_pinned_hashes_survive_both_budgets(
        self, tmp_path, make_scenario_result
    ):
        """keep= wins over max_entries and max_age_s alike."""
        store = ResultStore(tmp_path)
        hashes = []
        for n in range(4):
            result = make_scenario_result(overrides={"n_points": n + 4})
            hashes.append(_hash_of(result))
            record = store.put(hashes[-1], result)
            path = store.object_path(record.hash)
            data = json.loads(path.read_text())
            data["created_at"] = float(n)
            path.write_text(json.dumps(data))
        pinned = {hashes[0], hashes[1]}
        removed = store.prune(
            max_entries=1, max_age_s=1.0, keep=pinned, now=100.0
        )
        # Everything is over-age and over-budget, but the pins stay.
        assert set(removed) == {hashes[2], hashes[3]}
        assert all(h in store for h in pinned)
        # max_entries=1 was a target, not a guarantee: 2 pins remain.
        assert len(store) == 2

    def test_prune_removes_emptied_shard_dirs(
        self, tmp_path, make_scenario_result
    ):
        store = ResultStore(tmp_path)
        result = make_scenario_result()
        hash_ = _hash_of(result)
        store.put(hash_, result)
        shard = store.object_path(hash_).parent
        assert shard.is_dir()
        store.prune(max_entries=0)
        assert not shard.exists()
        assert len(store) == 0
        # The store still works after losing the shard directory.
        record = store.put(hash_, result)
        assert record.hash == hash_
        assert hash_ in store

    def test_prune_keeps_occupied_shard_dirs(
        self, tmp_path, make_scenario_result
    ):
        store = ResultStore(tmp_path)
        survivors = []
        for n in range(3):
            result = make_scenario_result(overrides={"n_points": n + 4})
            survivors.append(_hash_of(result))
            store.put(survivors[-1], result)
        doomed_result = make_scenario_result(overrides={"n_points": 99})
        doomed = _hash_of(doomed_result)
        store.put(doomed, doomed_result)
        removed = store.prune(max_entries=3, keep=survivors)
        assert removed == (doomed,)
        for h in survivors:
            assert store.object_path(h).parent.is_dir()
            assert h in store

    def test_prune_updates_index(self, tmp_path, make_scenario_result):
        store = ResultStore(tmp_path)
        result = make_scenario_result()
        hash_ = _hash_of(result)
        store.put(hash_, result)
        store.prune(max_entries=0)
        assert store.hashes() == ()
        assert len(store) == 0


class TestConcurrency:
    def test_two_threads_putting_same_hash_leave_one_valid_file(
        self, tmp_path, make_scenario_result
    ):
        store = ResultStore(tmp_path)
        result = make_scenario_result()
        hash_ = _hash_of(result)
        barrier = threading.Barrier(2)
        errors = []

        def put():
            try:
                barrier.wait(timeout=10)
                store.put(hash_, result)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=put) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(store) == 1
        # The object parses and round-trips: no torn write.
        loaded = store.get(hash_)
        assert np.array_equal(
            loaded.result.series[0].y, result.result.series[0].y
        )
        # No stray temp files survive.
        leftovers = [
            p
            for p in store.objects_dir.rglob("*")
            if p.is_file() and p.suffix != ".json"
        ]
        assert leftovers == []

    def test_many_threads_distinct_hashes(
        self, tmp_path, make_scenario_result
    ):
        store = ResultStore(tmp_path)
        results = [
            make_scenario_result(overrides={"n_points": n + 4})
            for n in range(8)
        ]
        threads = [
            threading.Thread(target=store.put, args=(_hash_of(r), r))
            for r in results
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(store) == 8


class TestRunPlanWithStore:
    """The runner-side integration helper (serial-vs-store identity)."""

    def _plan(self):
        from repro.api import RunPlan

        return RunPlan(
            name="store-integration",
            scenarios=(
                Scenario("fig6", overrides={"n_points": 6}),
                Scenario("fig7", overrides={"n_points": 6}),
            ),
        )

    def test_cold_run_writes_then_warm_run_hits(self, tmp_path):
        plan = self._plan()
        store_dir = tmp_path / "store"
        session = SimulationSession(seed=0)
        serial = session.run_plan(plan)

        cold, report = run_plan_with_store(
            SimulationSession(seed=0),
            plan,
            from_store=store_dir,
            update_store=store_dir,
        )
        assert (report.hits, report.misses, report.written) == (0, 2, 2)
        warm, warm_report = run_plan_with_store(
            SimulationSession(seed=0), plan, from_store=store_dir
        )
        assert (warm_report.hits, warm_report.misses) == (2, 0)
        assert warm_report.written == 0
        assert warm.cache_stats.misses == 0  # nothing computed
        for run in (cold, warm):
            for got, ref in zip(
                run.scenario_results, serial.scenario_results
            ):
                for a, b in zip(got.result.series, ref.result.series):
                    assert np.array_equal(a.x, b.x)
                    assert np.array_equal(a.y, b.y)

    def test_partial_hits_compute_only_misses(self, tmp_path):
        from repro.api import RunPlan

        store_dir = tmp_path / "store"
        first = RunPlan(
            name="half",
            scenarios=(Scenario("fig6", overrides={"n_points": 6}),),
        )
        run_plan_with_store(
            SimulationSession(seed=0), first, update_store=store_dir
        )
        both, report = run_plan_with_store(
            SimulationSession(seed=0),
            self._plan(),
            from_store=store_dir,
            update_store=store_dir,
        )
        assert (report.hits, report.misses, report.written) == (1, 1, 1)
        assert len(both.scenario_results) == 2

    def test_session_defaults_split_the_store_key(self, tmp_path):
        from repro.api import RunPlan

        store_dir = tmp_path / "store"
        plan = RunPlan(
            scenarios=(Scenario("fig6", overrides={"n_points": 6}),)
        )
        _, cold = run_plan_with_store(
            SimulationSession(seed=0),
            plan,
            from_store=store_dir,
            update_store=store_dir,
        )
        # A hot session computes under a different canonical hash.
        _, hot = run_plan_with_store(
            SimulationSession(seed=0, defaults={"temperature_k": 400.0}),
            plan,
            from_store=store_dir,
            update_store=store_dir,
        )
        assert cold.hashes != hot.hashes
        assert (hot.hits, hot.misses) == (0, 1)
        # The cold identity still hits.
        _, again = run_plan_with_store(
            SimulationSession(seed=0), plan, from_store=store_dir
        )
        assert (again.hits, again.misses) == (1, 0)
