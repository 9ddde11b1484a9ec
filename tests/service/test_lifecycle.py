"""Operational lifecycle under stress: GC racing live work, restarts.

The prune-under-load guarantees of the service GC surface:

* pruning interleaved with concurrent submissions and store writes
  never fails a job or 404s a result some retained job references
  (the pinning contract of ``JobManager.protected_hashes``);
* a service restarted after a prune serves exactly what survived --
  pruned hashes recompute, survivors hit the store, and the index
  stays consistent with the objects on disk.
"""

import threading
import time

from repro.api import RunPlan, Scenario, scenario_hash
from repro.service import (
    ResultStore,
    ServiceApp,
    ServiceThread,
    SimulationServiceClient,
)


def _one(n, experiment="fig6"):
    return RunPlan(
        name=f"load-{experiment}-{n}",
        scenarios=(Scenario(experiment, overrides={"n_points": n}),),
    )


def _app(store_dir, **kwargs):
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("rate_per_s", 1000.0)
    kwargs.setdefault("burst", 1000.0)
    return ServiceApp(ResultStore(store_dir), **kwargs)


class TestPruneUnderLoad:
    def test_harsh_prunes_interleaved_with_submissions(self, tmp_path):
        """Zero-entry prunes race N submitting threads; no job fails.

        Every submitted job's results stay fetchable right after its
        terminal poll because retained jobs pin their hashes -- the
        exact TOCTOU window the GC pinning exists to close.
        """
        app = _app(
            tmp_path / "store", max_pending=32, max_concurrent=4
        )
        errors = []
        stop_pruning = threading.Event()

        def submitter(worker, points):
            client = SimulationServiceClient(
                thread.url, client_id=f"load-{worker}", backoff_s=0.01
            )
            try:
                for n in points:
                    results, record = client.run_plan(
                        _one(n), timeout_s=120
                    )
                    assert record.status == "done"
                    assert len(results) == 1
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def pruner():
            client = SimulationServiceClient(
                thread.url, client_id="gc", backoff_s=0.01
            )
            try:
                while not stop_pruning.is_set():
                    client.prune(max_entries=0)
                    time.sleep(0.01)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        with ServiceThread(app) as thread:
            workers = [
                threading.Thread(
                    target=submitter, args=(i, range(4 + i * 4, 8 + i * 4))
                )
                for i in range(3)
            ]
            gc = threading.Thread(target=pruner)
            gc.start()
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=180)
            stop_pruning.set()
            gc.join(timeout=30)
            stats = SimulationServiceClient(thread.url).stats()

        assert errors == []
        assert stats["jobs"]["jobs_failed"] == 0
        assert stats["jobs"]["jobs_done"] == 12

    def test_prune_interleaved_with_direct_store_puts(
        self, tmp_path, make_scenario_result
    ):
        """Store-level race: puts and prunes from rival threads leave
        every surviving object readable and the index consistent."""
        store = ResultStore(tmp_path / "store")
        errors = []
        barrier = threading.Barrier(3)

        def writer(offset):
            try:
                barrier.wait(timeout=10)
                for n in range(offset, offset + 8):
                    result = make_scenario_result(
                        overrides={"n_points": n + 4}
                    )
                    store.put(scenario_hash(result.scenario), result)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def pruner():
            try:
                barrier.wait(timeout=10)
                for _ in range(10):
                    store.prune(max_entries=3)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(0,)),
            threading.Thread(target=writer, args=(100,)),
            threading.Thread(target=pruner),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        # Whatever survived parses cleanly and verifies.
        survivors = store.hashes()
        for h in survivors:
            assert store.get_record(h).hash == h
        assert store.verify().intact == len(survivors)


class TestRestartAfterPrune:
    def test_pruned_hashes_recompute_survivors_hit(self, tmp_path):
        store_dir = tmp_path / "store"
        keep_plan, drop_plan = _one(6), _one(7, experiment="fig7")
        with ServiceThread(_app(store_dir)) as thread:
            client = SimulationServiceClient(thread.url, backoff_s=0.01)
            _, kept = client.run_plan(keep_plan)
            _, dropped = client.run_plan(drop_plan)
            assert kept.computed == 1 and dropped.computed == 1
        # Offline GC between service generations: drop one result.
        store = ResultStore(store_dir)
        removed = store.prune(
            max_entries=1, keep=set(kept.scenario_hashes)
        )
        assert removed == tuple(dropped.scenario_hashes)
        assert set(store.hashes()) == set(kept.scenario_hashes)
        # A fresh service on the pruned store: the survivor is a store
        # hit, the pruned hash recomputes -- and lands back on disk.
        with ServiceThread(_app(store_dir)) as thread:
            client = SimulationServiceClient(thread.url, backoff_s=0.01)
            _, warm = client.run_plan(keep_plan)
            assert warm.sources == ("store",)
            _, cold = client.run_plan(drop_plan)
            assert cold.sources == ("computed",)
            assert cold.scenario_hashes == dropped.scenario_hashes
        assert set(ResultStore(store_dir).hashes()) == set(
            kept.scenario_hashes + dropped.scenario_hashes
        )
