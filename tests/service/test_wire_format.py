"""Byte pins of every on-disk and on-the-wire record format.

Store objects, journal lines, HTTP bodies, the fault-injection
environment value and scenario hashes are persisted or exchanged
between processes that may run different code. Their exact bytes are
therefore part of the contract: a store written by one build must read
back (and hash) identically under the next. Each test below builds a
fixed record, serialises it through the production path and compares
the sha256 of the bytes with a pinned digest.

A failure means the serialised form changed. If that is intended,
bump ``RESULT_FORMAT_REVISION`` in :mod:`repro.api.hashing` (so old
store entries become unreachable instead of misread) and re-pin.
"""

import asyncio
import hashlib
import types
from pathlib import Path

import numpy as np
import pytest

from repro.api import RunPlan, Scenario, ScenarioResult, scenario_hash
from repro.api.hashing import RESULT_FORMAT_REVISION
from repro.engine.cache import CacheStats
from repro.experiments.base import ExperimentResult, ShapeCheck
from repro.reporting.ascii_plot import PlotSeries
from repro.service import ResultStore, ServiceApp
from repro.service import app as app_module
from repro.service import store as store_module
from repro.service.jobs import JobRecord
from repro.service.journal import JobJournal
from repro.testing.faults import FaultSpec, encode_faults

BUMP = (
    "serialised bytes changed: if intended, bump RESULT_FORMAT_REVISION "
    "in repro.api.hashing and re-pin this digest"
)

HASH = "ab" * 32

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "snapshots"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scenario_result() -> ScenarioResult:
    """A fixed result exercising every value hook of the codec."""
    result = ExperimentResult(
        experiment_id="fig6",
        title="J vs E",
        x_label="E [MV/cm]",
        y_label="J [A/m^2]",
        series=(
            PlotSeries(
                label="X_TO=5nm",
                x=np.array([1.0, 2.5, 4.0]),
                y=np.array([1e-12, 3.25e-7, 0.125]),
            ),
            PlotSeries(label="ints", x=np.arange(2), y=np.array([7, 9])),
        ),
        parameters={
            "n_points": np.int64(3),
            "oxides_nm": (5.0, 8.0),
            "gcr": np.float64(0.6),
            "flag": np.bool_(True),
        },
        checks=(
            ShapeCheck(claim="rises", passed=np.bool_(True), detail="ok"),
            ShapeCheck(claim="orders", passed=False),
        ),
        log_y=True,
    )
    return ScenarioResult(
        scenario=Scenario(
            "fig6",
            overrides={"n_points": 3, "temperature_k": np.float64(300.0)},
            label="pinned",
        ),
        result=result,
        elapsed_s=0.015625,
        cache_stats=CacheStats(
            hits=4,
            misses=2,
            currsize=2,
            per_cache=(("fn", (3, 1, 1)), ("cell", (1, 1, 1))),
        ),
        reused_hits=1,
    )


def _job_record() -> JobRecord:
    return JobRecord(
        id="job-7",
        status="done",
        plan_name="pinned",
        plan_hash="cd" * 32,
        scenario_hashes=(HASH, "ef" * 32),
        sources=("store", "computed"),
        store_hits=1,
        computed=1,
        deduped=0,
        elapsed_s=0.25,
        error=None,
        priority=0,
        timeout_s=30.0,
    )


class _Writer:
    """Collects what ``_write_response`` sends."""

    def __init__(self):
        self.data = b""

    def write(self, chunk):
        self.data += chunk

    async def drain(self):
        return None


def _http_body(app, method, path):
    async def go():
        status, payload, extra = await app._route(method, path, {}, b"", None)
        writer = _Writer()
        await app_module._write_response(writer, status, payload, extra)
        return status, writer.data.split(b"\r\n\r\n", 1)[1]

    return asyncio.run(go())


@pytest.fixture
def stored(tmp_path, monkeypatch):
    """A store holding the fixed result, written at a fixed time."""
    monkeypatch.setattr(
        store_module, "time", types.SimpleNamespace(time=lambda: 1.7e9)
    )
    store = ResultStore(tmp_path / "store")
    store.put(HASH, _scenario_result())
    return store


class TestPinnedBytes:
    def test_store_object_file(self, stored):
        data = stored.object_path(HASH).read_bytes()
        assert _sha(data) == (
            "aef091fac2ff86bfd23997cee5513bb722a513ad36c9dd440d6512df69a9c290"
        ), BUMP

    def test_journal_line(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        plan = RunPlan(
            name="pinned",
            scenarios=(Scenario("fig6", overrides={"n": np.int64(3)}),),
        )
        journal.append(
            "accepted",
            job_id="job-7",
            at=1.7e9,
            data={
                "plan": plan.to_dict(),
                "plan_hash": "cd" * 32,
                "priority": 1,
                "timeout_s": None,
            },
        )
        data = (tmp_path / "journal.jsonl").read_bytes()
        assert _sha(data) == (
            "667737dd0b82172dd7afa3d31db3c4ed489a082c6e683d4b2b33fdb82f7d5f2d"
        ), BUMP

    def test_job_record_http_body(self, tmp_path):
        app = ServiceApp(tmp_path / "store", executor="thread")
        app.manager.record_of = lambda job_id: _job_record()
        status, body = _http_body(app, "GET", "/jobs/job-7")
        assert status == 200
        assert _sha(body) == (
            "9ed0d87be6f33d0cac2f157eba6b244c1993cf2c3e4fb689e0aa308ade0a8d12"
        ), BUMP

    def test_store_record_http_body(self, stored):
        app = ServiceApp(stored, executor="thread")
        status, body = _http_body(app, "GET", f"/results/{HASH}")
        assert status == 200
        assert _sha(body) == (
            "86ab7aa8584c3c7ca9922bd526088db3e8ec5f90ad3fc4955a99a54289feec9d"
        ), BUMP

    def test_golden_snapshots_pinned_to_revision(self):
        """Regenerated goldens mean new physics: stored results computed
        by the old physics must become unreachable, so the snapshot
        bytes are pinned together with the format revision."""
        digest = hashlib.sha256()
        for path in sorted(GOLDEN.glob("*.json")):
            digest.update(path.name.encode() + b"\n")
            digest.update(path.read_bytes())
        assert (RESULT_FORMAT_REVISION, digest.hexdigest()) == (
            1,
            "788591e09e2e289a1b76cb81403355b0e50efc8caa6a420ba69486c0b1941634",
        ), BUMP

    def test_faults_environment_value(self):
        text = encode_faults(
            (
                FaultSpec(kind="crash", shard=2, attempt=1),
                FaultSpec(kind="slow", seconds=0.25, message="straggler"),
            )
        )
        assert _sha(text.encode()) == (
            "7fdd3f279066e513dd180adc9fbdc1264f010828d73f35516dfbe01552bc591e"
        ), BUMP

    @pytest.mark.parametrize(
        "scenario, digest",
        [
            (
                Scenario("fig6"),
                "94c8f9f8c9c7add09e40ae2e7039349e14db8ae6bd6e960ae9169d52f60f64e4",
            ),
            (
                Scenario(
                    "fig7",
                    overrides={"n_points": np.int64(8), "x": (1.0, 2.0)},
                    label="ignored",
                ),
                "744fccd73e051dcb78ebe5b08c62d363a884b008477efbbae77161a0eba70f6e",
            ),
            (
                Scenario("abl-temp", sweep={"temperature_k": [300.0, 400.0]}),
                "910d8a5bb35d0246c76913a1ba48601fcfd58f0c15978c6bb834dbc08ee67bcc",
            ),
        ],
        ids=["bare", "overrides", "sweep"],
    )
    def test_scenario_hash(self, scenario, digest):
        assert scenario_hash(scenario, salt="pinned/r1") == digest, BUMP
