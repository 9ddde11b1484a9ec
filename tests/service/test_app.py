"""End-to-end HTTP service tests: the PR's acceptance contracts.

A real :class:`ServiceApp` on an ephemeral port, driven by the real
:class:`SimulationServiceClient` over loopback TCP. Pins the three
acceptance criteria of the service PR:

* results fetched through the client are **bit-identical** to a plain
  serial ``SimulationSession.run_plan`` of the same plan;
* killing the service and restarting it on the same store directory
  serves an identical resubmission with **zero** recomputes;
* N concurrent submissions of the same plan trigger exactly **one**
  computation (single-flight dedupe across jobs).

Everything runs with ``executor="thread"``/1 worker and tiny point
counts so the suite stays fast on a single-CPU container.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.api import RunPlan, Scenario, SimulationSession
from repro.io import to_record
from repro.service import (
    ResultStore,
    ServiceApp,
    ServiceError,
    ServiceThread,
    SimulationServiceClient,
)


def _plan(n_points=6):
    return RunPlan(
        name="e2e",
        scenarios=(
            Scenario("fig6", overrides={"n_points": n_points}),
            Scenario("fig7", overrides={"n_points": n_points}),
        ),
    )


def _app(store_dir, **kwargs):
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("workers", 1)
    return ServiceApp(ResultStore(store_dir), **kwargs)


@pytest.fixture
def service(tmp_path):
    """A running service on an ephemeral port, torn down after the test."""
    with ServiceThread(_app(tmp_path / "store")) as thread:
        yield thread


def _client(service, **kwargs):
    kwargs.setdefault("retries", 3)
    kwargs.setdefault("backoff_s", 0.01)
    return SimulationServiceClient(service.url, **kwargs)


class TestEndpoints:
    def test_healthz(self, service):
        assert _client(service).health() == {"status": "ok"}

    def test_stats_shape(self, service):
        stats = _client(service).stats()
        assert set(stats) == {
            "jobs",
            "store",
            "rate_limit",
            "journal",
            "recovery",
        }
        assert stats["jobs"]["jobs_submitted"] == 0
        assert stats["store"]["entries"] == 0
        assert stats["journal"]["jobs"] == 0
        assert stats["recovery"]["mode"] == "fresh"

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError) as err:
            _client(service).job("job-999")
        assert err.value.status == 404

    def test_unknown_result_is_404_and_bad_hash_is_400(self, service):
        client = _client(service)
        with pytest.raises(ServiceError) as err:
            client.result("ab" * 32)
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.result("not-a-hash")
        assert err.value.status == 400

    def test_unknown_endpoint_is_404_and_wrong_method_is_405(self, service):
        for path, expected in (("/nope", 404), ("/stats", 405)):
            request = urllib.request.Request(
                f"{service.url}{path}", data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == expected

    def test_malformed_body_is_400(self, service):
        request = urllib.request.Request(
            f"{service.url}/plans", data=b"{ not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        payload = json.loads(err.value.read())
        assert "not JSON" in payload["error"]

    def test_non_object_body_is_400(self, service):
        request = urllib.request.Request(
            f"{service.url}/plans", data=b"[1, 2]", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                {"scenarios": [5]},
                "scenario record: expected object, got number",
            ),
            ({"scenarios": None}, "'scenarios': expected list, got null"),
            (
                {"scenarios": [{"experiment_id": "fig6", "overrides": None}]},
                "'overrides': expected object, got null",
            ),
            (
                {"scenarios": [{"experiment_id": "fig6", "overrides": [1, 2]}]},
                "'overrides': expected object, got list",
            ),
            (
                {
                    "scenarios": [
                        {
                            "experiment_id": "fig6",
                            "sweep": {"tunnel_oxide_nm": "abc"},
                        }
                    ]
                },
                "'sweep': expected list, got string",
            ),
        ],
        ids=[
            "scenario-not-object",
            "scenarios-null",
            "overrides-null",
            "overrides-list",
            "sweep-axis-string",
        ],
    )
    def test_malformed_plan_record_is_400(self, service, body, message):
        request = urllib.request.Request(
            f"{service.url}/plans",
            data=json.dumps(body).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        assert message in json.loads(err.value.read())["error"]


class TestBitIdentity:
    def test_service_results_match_serial_run_exactly(self, service):
        """The headline contract: client results == serial results."""
        plan = _plan()
        serial = SimulationSession(seed=0).run_plan(plan)
        results, record = _client(service).run_plan(plan)
        assert record.status == "done"
        assert record.sources == ("computed", "computed")
        assert len(results) == len(serial.scenario_results)
        for got, ref in zip(results, serial.scenario_results):
            assert got.scenario == ref.scenario
            assert len(got.result.series) == len(ref.result.series)
            for a, b in zip(got.result.series, ref.result.series):
                assert np.array_equal(a.x, b.x)
                assert np.array_equal(a.y, b.y)
            # Whole-record identity on the canonical export form (JSON
            # has no tuples, so compare both sides post-normalisation).
            # Only wall-clock timing may differ between the two runs.
            got_record = to_record(got)
            ref_record = to_record(ref)
            got_record.pop("elapsed_s")
            ref_record.pop("elapsed_s")
            assert got_record == ref_record

    def test_resubmission_is_served_entirely_from_store(self, service):
        client = _client(service)
        plan = _plan()
        first_results, first = client.run_plan(plan)
        second_results, second = client.run_plan(plan)
        assert first.sources == ("computed", "computed")
        assert second.sources == ("store", "store")
        assert second.store_hits == 2 and second.computed == 0
        for a, b in zip(first_results, second_results):
            for sa, sb in zip(a.result.series, b.result.series):
                assert np.array_equal(sa.y, sb.y)
        stats = client.stats()
        assert stats["jobs"]["computed"] == 2  # scenarios, first job only
        assert stats["store"]["entries"] == 2


class TestRestartPersistence:
    def test_restart_on_same_store_serves_without_recompute(self, tmp_path):
        """Kill the server, restart on the same dir: zero recomputes."""
        store_dir = tmp_path / "store"
        plan = _plan()
        with ServiceThread(_app(store_dir)) as thread:
            first_results, first = _client(thread).run_plan(plan)
            assert first.computed == 2
        # Process gone; a fresh app on the same directory takes over.
        with ServiceThread(_app(store_dir)) as thread:
            client = _client(thread)
            results, record = client.run_plan(plan)
            assert record.sources == ("store", "store")
            assert record.computed == 0
            stats = client.stats()
            assert stats["jobs"]["computed"] == 0
            for a, b in zip(first_results, results):
                for sa, sb in zip(a.result.series, b.result.series):
                    assert np.array_equal(sa.y, sb.y)


class TestSingleFlightOverHttp:
    def test_concurrent_identical_submissions_compute_once(self, tmp_path):
        """4 threads submit the same plan; exactly one computation runs."""
        app = _app(
            tmp_path / "store",
            max_pending=16,
            max_concurrent=8,
            rate_per_s=1000.0,
            burst=1000.0,
        )
        plan = _plan()
        barrier = threading.Barrier(4)
        outcomes = [None] * 4

        def submit(i):
            client = SimulationServiceClient(
                thread.url, client_id=f"client-{i}", backoff_s=0.01
            )
            barrier.wait(timeout=30)
            outcomes[i] = client.run_plan(plan)

        with ServiceThread(app) as thread:
            workers = [
                threading.Thread(target=submit, args=(i,)) for i in range(4)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
            stats = SimulationServiceClient(thread.url).stats()

        assert all(o is not None for o in outcomes)
        # Exactly one computation per scenario across ALL jobs.
        assert stats["jobs"]["computed"] == 2
        assert stats["store"]["entries"] == 2
        reference = outcomes[0][0]
        for results, record in outcomes:
            assert record.status == "done"
            for got, ref in zip(results, reference):
                for a, b in zip(got.result.series, ref.result.series):
                    assert np.array_equal(a.y, b.y)


class TestRateLimitAndQueue:
    def test_rate_limit_returns_429_with_retry_after(self, tmp_path):
        app = _app(tmp_path / "store", rate_per_s=1.0, burst=1.0)
        body = json.dumps(to_record(_plan())).encode()
        with ServiceThread(app) as thread:
            def post():
                request = urllib.request.Request(
                    f"{thread.url}/plans",
                    data=body,
                    method="POST",
                    headers={"X-Client-Id": "hammer"},
                )
                return urllib.request.urlopen(request, timeout=10)

            first = post()
            assert first.status == 202
            with pytest.raises(urllib.error.HTTPError) as err:
                post()
            assert err.value.code == 429
            assert int(err.value.headers["Retry-After"]) >= 1
            payload = json.loads(err.value.read())
            assert "rate limit" in payload["error"]

    def test_healthz_is_never_rate_limited(self, tmp_path):
        app = _app(tmp_path / "store", rate_per_s=1.0, burst=1.0)
        with ServiceThread(app) as thread:
            client = SimulationServiceClient(thread.url, retries=0)
            for _ in range(20):
                assert client.health() == {"status": "ok"}

    def test_full_queue_returns_503_with_retry_after(
        self, tmp_path, monkeypatch
    ):
        from repro.service.jobs import JobQueueFull

        app = _app(tmp_path / "store")
        monkeypatch.setattr(
            app.manager,
            "submit",
            lambda plan, **options: (_ for _ in ()).throw(
                JobQueueFull("queue full")
            ),
        )
        body = json.dumps(to_record(_plan())).encode()
        with ServiceThread(app) as thread:
            request = urllib.request.Request(
                f"{thread.url}/plans", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 503
            assert err.value.headers["Retry-After"] == "1"

    def test_client_retries_through_429_and_succeeds(self, tmp_path):
        """The retrying client rides out its own rate limit."""
        app = _app(tmp_path / "store", rate_per_s=50.0, burst=1.0)
        plan = _plan()
        with ServiceThread(app) as thread:
            client = SimulationServiceClient(
                thread.url, retries=10, backoff_s=0.05
            )
            first = client.submit(plan)
            second = client.submit(plan)  # bucket empty: retried inside
            assert first.status in ("queued", "running", "done")
            assert second.status in ("queued", "running", "done")
            final = client.wait(second.id)
            assert final.status == "done"


class TestCancelAndPruneEndpoints:
    def test_cancel_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError) as err:
            _client(service).cancel("job-999")
        assert err.value.status == 404

    def test_cancel_finished_job_is_idempotent(self, service):
        client = _client(service)
        _, record = client.run_plan(_plan())
        assert client.cancel(record.id).status == "done"

    def test_admin_prune_report_shape(self, service):
        client = _client(service)
        _, record = client.run_plan(_plan())
        report = client.prune()  # no budgets: a no-op with a report
        assert set(report) == {"pruned", "hashes", "protected", "entries"}
        assert report["pruned"] == 0
        assert report["entries"] == 2
        assert report["protected"] >= len(set(record.scenario_hashes))

    def test_admin_prune_rejects_unknown_and_bad_budgets(self, service):
        for body in (
            b'{"frequency": 2}',  # unknown budget key
            b'{"max_entries": "many"}',  # uncastable value
            b"[1, 2]",  # not an object
            b"{ not json",
        ):
            request = urllib.request.Request(
                f"{service.url}/admin/prune", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400

    def test_bad_priority_is_400(self, service):
        body = dict(to_record(_plan()), priority="urgent")
        request = urllib.request.Request(
            f"{service.url}/plans",
            data=json.dumps(body).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_evicted_job_answers_expired_over_http(self, tmp_path):
        app = _app(tmp_path / "store", job_ttl_s=0.05)
        with ServiceThread(app) as thread:
            client = _client(thread)
            _, first = client.run_plan(_plan())
            time.sleep(0.1)
            client.submit(_plan(n_points=7))  # submission runs eviction
            record = client.job(first.id)
            assert record.status == "expired"
            assert record.id == first.id

    def test_background_prune_reaps_orphans_never_live_results(
        self, tmp_path, make_scenario_result
    ):
        """The TOCTOU acceptance: GC runs under a zero-entry budget
        while a finished job's results are still retained -- the orphan
        goes, the job's pinned results never 404."""
        app = _app(
            tmp_path / "store", prune_interval_s=0.05, prune_max_entries=0
        )
        orphan = "ab" * 32
        app.store.put(orphan, make_scenario_result())
        with ServiceThread(app) as thread:
            client = _client(thread)
            _, record = client.run_plan(_plan())
            deadline = time.monotonic() + 30
            while orphan in app.store and time.monotonic() < deadline:
                time.sleep(0.05)
            assert orphan not in app.store  # unpinned: reaped
            for h in record.scenario_hashes:
                assert client.result(h).hash == h  # pinned: served


class TestAdminVerifyEndpoint:
    def test_clean_store_verifies_ok_over_http(self, service):
        client = _client(service)
        _, record = client.run_plan(_plan())
        report = client.verify()
        assert report["ok"] is True
        assert report["scanned"] == len(record.scenario_hashes)
        assert report["corrupt"] == []
        assert report["quarantined"] == []

    def test_corrupt_object_is_reported_then_quarantined(self, tmp_path):
        app = _app(tmp_path / "store")
        with ServiceThread(app) as thread:
            client = _client(thread)
            _, record = client.run_plan(_plan())
            victim = record.scenario_hashes[0]
            path = app.store.object_path(victim)
            data = json.loads(path.read_text())
            data["scenario_result"]["elapsed_s"] = 1e9  # bit rot
            path.write_text(json.dumps(data))
            report = client.verify()  # report-only
            assert report["ok"] is False
            assert report["corrupt"][0]["name"] == victim
            assert path.exists()
            repaired = client.verify(repair=True)
            assert len(repaired["quarantined"]) == 1
            assert not path.exists()
            # The quarantined hash now reads as a plain miss.
            with pytest.raises(ServiceError) as err:
                client.result(victim)
            assert err.value.status == 404
            # /stats surfaces the quarantine counters.
            store_stats = client.stats()["store"]
            assert store_stats["quarantined"] == 1

    def test_corrupt_object_read_is_quarantined_not_served(self, tmp_path):
        """GET /results/{hash} on a damaged object 404s -- never a 500
        and never a corrupt payload."""
        app = _app(tmp_path / "store")
        with ServiceThread(app) as thread:
            client = _client(thread)
            _, record = client.run_plan(_plan())
            victim = record.scenario_hashes[0]
            path = app.store.object_path(victim)
            path.write_text(path.read_text()[:30])  # torn write
            with pytest.raises(ServiceError) as err:
                client.result(victim)
            assert err.value.status == 404
            assert "quarantined" in str(err.value)
            assert not path.exists()

    def test_admin_verify_rejects_unknown_and_bad_bodies(self, service):
        for body in (
            b'{"scrub": true}',  # unknown option
            b"[1]",  # not an object
            b"{ not json",
        ):
            request = urllib.request.Request(
                f"{service.url}/admin/verify", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400


class TestLifecycleOverHttp:
    def test_mixed_priorities_cancel_and_reconciled_stats(
        self, tmp_path, monkeypatch
    ):
        """The PR's e2e acceptance scenario, over real HTTP.

        One slot, plugged by a blocking first job; mixed-priority
        submissions behind it must complete high-first, a mid-queue
        cancel must report ``cancelled`` (not ``failed``), a duplicate
        of the high-priority plan must converge without recomputing,
        the ``/stats`` counters must reconcile exactly with
        ``jobs_by_status``, and a harshest-budget prune must not 404
        any live job's results.
        """
        compute_order = []
        started = threading.Event()
        release = threading.Event()

        def gated_compute(scenarios, **kwargs):
            compute_order.append(scenarios[0].overrides["n_points"])
            if len(compute_order) == 1:
                started.set()
                assert release.wait(timeout=60)
            from repro.service.jobs import RunPlan, run_plan_parallel

            return run_plan_parallel(
                RunPlan(name="service-job", scenarios=tuple(scenarios)),
                workers=1,
                executor="thread",
            ).scenario_results

        monkeypatch.setattr(
            "repro.service.jobs.compute_scenario_results", gated_compute
        )

        def one(n):
            return RunPlan(
                name=f"prio-{n}",
                scenarios=(Scenario("fig6", overrides={"n_points": n}),),
            )

        app = _app(
            tmp_path / "store",
            max_pending=16,
            max_concurrent=1,
            rate_per_s=1000.0,
            burst=1000.0,
        )
        with ServiceThread(app) as thread:
            client = _client(thread)
            plug = client.submit(one(4))  # plugs the only slot
            assert started.wait(timeout=60)
            low = client.submit(one(5), priority="low")
            normal = client.submit(one(6), priority="normal")
            high = client.submit(one(7), priority="high")
            twin = client.submit(one(7), priority="high")
            victim = client.submit(one(8), priority="low")
            cancelled = client.cancel(victim.id)
            assert cancelled.status == "cancelled"
            assert cancelled.error is None
            release.set()
            finals = [
                client.wait(j.id, timeout_s=120)
                for j in (plug, low, normal, high, twin)
            ]
            assert [f.status for f in finals] == ["done"] * 5
            # Dispatch honoured class order; the cancelled job and the
            # duplicate never computed at all.
            assert compute_order == [4, 7, 6, 5]
            assert finals[4].sources[0] in ("store", "inflight")
            stats = client.stats()["jobs"]
            by_status = stats["jobs_by_status"]
            terminal = (
                by_status["done"]
                + by_status["failed"]
                + by_status["cancelled"]
            )
            cumulative = (
                stats["jobs_done"]
                + stats["jobs_failed"]
                + stats["jobs_cancelled"]
            )
            assert cumulative == terminal + stats["jobs_evicted"]
            assert stats["jobs_cancelled"] == 1
            assert stats["jobs_failed"] == 0
            assert stats["jobs_done"] == 5
            # Everything in the store is pinned by a retained job, so
            # even a zero-entry budget removes nothing.
            report = client.prune(max_entries=0)
            assert report["pruned"] == 0
            for final in finals:
                for h in final.scenario_hashes:
                    assert client.result(h).hash == h
