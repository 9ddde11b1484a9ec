"""Property-based round trips for the service record converters.

Hypothesis generates adversarial-but-valid :class:`StoreRecord` and
:class:`JobRecord` payloads and checks they survive a *real* JSON
serialize/parse cycle through the :mod:`repro.io` converters -- the
same fidelity the HTTP service and the on-disk store depend on.

Hypothesis ships in the ``dev`` extra; when absent the module skips
as a whole (``pytest.importorskip``) instead of failing collection.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need the dev extra (hypothesis)"
)

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.api import Scenario, ScenarioResult  # noqa: E402
from repro.engine.cache import CacheStats  # noqa: E402
from repro.errors import ConfigurationError  # noqa: E402
from repro.experiments.base import ExperimentResult, ShapeCheck  # noqa: E402
from repro.api.plan import ShardFailure  # noqa: E402
from repro.io import (  # noqa: E402
    from_record,
    store_record_from_dict,
    store_record_to_dict,
    to_record,
)
from repro.reporting.ascii_plot import PlotSeries  # noqa: E402
from repro.service.jobs import (  # noqa: E402
    JOB_STATUSES,
    MAX_PRIORITY,
    MIN_PRIORITY,
    RESULT_SOURCES,
    JobRecord,
    expired_job_record,
)
from repro.service.journal import (  # noqa: E402
    JOURNAL_KINDS,
    JournalEntry,
    LeaseRecord,
)
from repro.service.store import StoreRecord  # noqa: E402

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10
)
hex_hashes = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
counts = st.integers(min_value=0, max_value=10_000)


@st.composite
def scenario_results(draw):
    """A small concrete ScenarioResult with JSON-faithful payloads."""
    n = draw(st.integers(min_value=1, max_value=4))
    result = ExperimentResult(
        experiment_id=draw(names),
        title=draw(st.text(max_size=12)),
        x_label="x",
        y_label="y",
        series=(
            PlotSeries(
                label=draw(st.text(max_size=8)),
                x=[draw(finite) for _ in range(n)],
                y=[draw(finite) for _ in range(n)],
            ),
        ),
        parameters={draw(names): draw(finite)},
        checks=(
            ShapeCheck(
                claim=draw(st.text(max_size=12)),
                passed=draw(st.booleans()),
                detail="",
            ),
        ),
        log_y=draw(st.booleans()),
    )
    return ScenarioResult(
        scenario=Scenario(
            experiment_id=result.experiment_id,
            overrides={draw(names): draw(finite)},
            label=draw(st.one_of(st.none(), st.text(max_size=12))),
        ),
        result=result,
        elapsed_s=draw(st.floats(min_value=0.0, max_value=1e6)),
        cache_stats=CacheStats(
            hits=draw(counts),
            misses=draw(counts),
            currsize=draw(counts),
            per_cache=((draw(names), (1, 2, 3)),),
        ),
        reused_hits=draw(counts),
    )


@st.composite
def store_records(draw):
    """A StoreRecord wrapping a synthetic scenario result."""
    return StoreRecord(
        hash=draw(hex_hashes),
        code_version=draw(st.text(max_size=16)),
        created_at=draw(st.floats(min_value=0.0, max_value=4e9)),
        scenario_result=draw(scenario_results()),
        checksum=draw(
            st.one_of(st.just(""), st.just("sha256:" + "0" * 64))
        ),
    )


@st.composite
def job_records(draw):
    """A JobRecord whose per-scenario vectors stay aligned."""
    hashes = tuple(
        draw(st.lists(hex_hashes, min_size=0, max_size=5, unique=True))
    )
    sources = tuple(
        draw(st.sampled_from(RESULT_SOURCES)) for _ in hashes
    )
    status = draw(st.sampled_from(JOB_STATUSES))
    return JobRecord(
        id=f"job-{draw(st.integers(min_value=0, max_value=10_000))}",
        status=status,
        plan_name=draw(st.text(max_size=12)),
        plan_hash=draw(hex_hashes),
        scenario_hashes=hashes,
        sources=sources,
        store_hits=sum(1 for s in sources if s == "store"),
        computed=sum(1 for s in sources if s == "computed"),
        deduped=sum(1 for s in sources if s == "inflight"),
        elapsed_s=draw(st.floats(min_value=0.0, max_value=1e6)),
        error=(
            draw(st.text(min_size=1, max_size=20))
            if status == "failed"
            else None
        ),
        priority=draw(
            st.integers(min_value=MIN_PRIORITY, max_value=MAX_PRIORITY)
        ),
        timeout_s=draw(
            st.one_of(
                st.none(),
                st.floats(
                    min_value=1e-3, max_value=1e6, allow_nan=False
                ),
            )
        ),
    )


def _through_json(record):
    """A real serialize/parse cycle, not just dict identity."""
    return json.loads(json.dumps(record))


class TestStoreRecordRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(record=store_records())
    def test_json_round_trip_preserves_record(self, record):
        """StoreRecord -> JSON text -> StoreRecord is stable.

        Equality is checked on the canonical export record (the
        embedded result holds numpy arrays, whose ``==`` is
        elementwise) -- exactly the fidelity the store relies on.
        """
        exported = store_record_to_dict(record)
        rebuilt = store_record_from_dict(_through_json(exported))
        assert store_record_to_dict(rebuilt) == exported
        assert rebuilt.hash == record.hash
        assert rebuilt.code_version == record.code_version
        assert rebuilt.created_at == record.created_at
        assert rebuilt.scenario_result.scenario == record.scenario_result.scenario

    def test_missing_fields_are_rejected(self):
        with pytest.raises(ConfigurationError):
            store_record_from_dict({"hash": "ab" * 32})
        with pytest.raises(ConfigurationError):
            store_record_from_dict({})


class TestJobRecordRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(record=job_records())
    def test_json_round_trip_is_identity(self, record):
        """JobRecord -> JSON text -> JobRecord reproduces the original."""
        rebuilt = from_record(
            JobRecord, _through_json(to_record(record))
        )
        assert rebuilt == record

    def test_absent_counters_default_to_zero(self):
        rebuilt = from_record(JobRecord, {"id": "job-1", "status": "queued"})
        assert rebuilt.store_hits == 0
        assert rebuilt.computed == 0
        assert rebuilt.deduped == 0
        assert rebuilt.elapsed_s == 0.0
        assert rebuilt.error is None
        assert rebuilt.scenario_hashes == ()

    def test_absent_priority_defaults_to_normal(self):
        # Records from a pre-priority server must still parse.
        rebuilt = from_record(JobRecord, {"id": "job-1", "status": "done"})
        assert rebuilt.priority == 1

    def test_expired_record_round_trips(self):
        record = expired_job_record("job-9")
        rebuilt = from_record(
            JobRecord, _through_json(to_record(record))
        )
        assert rebuilt == record
        assert rebuilt.status == "expired"

    def test_missing_fields_are_rejected(self):
        with pytest.raises(ConfigurationError):
            from_record(JobRecord, {"id": "job-1"})
        with pytest.raises(ConfigurationError):
            from_record(JobRecord, {"status": "done"})

    def test_absent_timeout_defaults_to_none(self):
        # Records from a pre-deadline server must still parse.
        rebuilt = from_record(JobRecord, {"id": "job-1", "status": "done"})
        assert rebuilt.timeout_s is None


@st.composite
def shard_failures(draw):
    """A ShardFailure with aligned positions and scenario ids."""
    n = draw(st.integers(min_value=1, max_value=5))
    positions = tuple(
        sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=512),
                    min_size=n,
                    max_size=n,
                    unique=True,
                )
            )
        )
    )
    return ShardFailure(
        index=draw(st.integers(min_value=0, max_value=64)),
        positions=positions,
        scenario_ids=tuple(draw(names) for _ in positions),
        attempts=draw(st.integers(min_value=1, max_value=8)),
        cause=draw(st.sampled_from(["error", "crash", "timeout"])),
        message=draw(st.text(max_size=40)),
        elapsed_s=draw(st.floats(min_value=0.0, max_value=1e6)),
    )


class TestShardFailureRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(failure=shard_failures())
    def test_json_round_trip_is_identity(self, failure):
        """ShardFailure -> JSON text -> ShardFailure reproduces it."""
        rebuilt = from_record(
            ShardFailure, _through_json(to_record(failure))
        )
        assert rebuilt == failure

    def test_optional_fields_default(self):
        rebuilt = from_record(
            ShardFailure, {"index": 2, "positions": [3, 5], "cause": "timeout"}
        )
        assert rebuilt.scenario_ids == ()
        assert rebuilt.attempts == 0
        assert rebuilt.message == ""
        assert rebuilt.elapsed_s == 0.0

    def test_missing_fields_are_rejected(self):
        with pytest.raises(ConfigurationError):
            from_record(ShardFailure, {"index": 0, "positions": [1]})
        with pytest.raises(ConfigurationError):
            from_record(ShardFailure, {"cause": "error"})


json_scalars = st.one_of(st.none(), st.booleans(), finite, names)


@st.composite
def journal_entries(draw):
    """A JournalEntry with a JSON-faithful kind-specific payload."""
    return JournalEntry(
        kind=draw(st.sampled_from(JOURNAL_KINDS)),
        at=draw(st.floats(min_value=0.0, max_value=4e9)),
        job_id=draw(
            st.one_of(
                st.just(""),
                st.integers(min_value=0, max_value=9999).map(
                    lambda n: f"job-{n}"
                ),
            )
        ),
        data=draw(
            st.dictionaries(names, json_scalars, max_size=4)
        ),
    )


@st.composite
def lease_records(draw):
    """A LeaseRecord whose expiry never precedes its acquisition."""
    acquired = draw(st.floats(min_value=0.0, max_value=4e9))
    return LeaseRecord(
        plan_hash=draw(hex_hashes),
        owner_id=draw(names),
        job_id=f"job-{draw(st.integers(min_value=0, max_value=9999))}",
        acquired_at=acquired,
        expires_at=acquired + draw(st.floats(min_value=0.0, max_value=1e6)),
    )


class TestJournalEntryRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(entry=journal_entries())
    def test_json_round_trip_is_identity(self, entry):
        """JournalEntry -> JSON line -> JournalEntry reproduces it."""
        rebuilt = from_record(
            JournalEntry, _through_json(to_record(entry))
        )
        assert rebuilt == entry

    def test_optional_fields_default(self):
        rebuilt = from_record(JournalEntry, {"kind": "boot"})
        assert rebuilt.at == 0.0
        assert rebuilt.job_id == ""
        assert rebuilt.data == {}

    def test_missing_kind_is_rejected(self):
        with pytest.raises(ConfigurationError):
            from_record(JournalEntry, {"at": 1.0, "job_id": "job-1"})

    def test_non_object_data_is_rejected(self):
        with pytest.raises(ConfigurationError):
            from_record(JournalEntry, {"kind": "accepted", "data": [1, 2]})


class TestLeaseRecordRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(lease=lease_records())
    def test_json_round_trip_is_identity(self, lease):
        """LeaseRecord -> JSON text -> LeaseRecord reproduces it."""
        rebuilt = from_record(
            LeaseRecord, _through_json(to_record(lease))
        )
        assert rebuilt == lease

    def test_missing_fields_are_rejected(self):
        with pytest.raises(ConfigurationError):
            from_record(LeaseRecord, {"plan_hash": "ab" * 32})
        with pytest.raises(ConfigurationError):
            from_record(LeaseRecord, {"owner_id": "me"})
