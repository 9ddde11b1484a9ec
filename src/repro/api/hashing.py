"""Canonical scenario/plan hashing: the result store's content addresses.

A scenario's hash is the identity under which its result is cached,
shared and served (:mod:`repro.service`), so it must be *stable*:
the same physical work must produce the same hash in every process,
on every platform, for every way of writing the same scenario.
:func:`scenario_hash` therefore hashes a **canonical record**:

* the JSON-safe form of the scenario (``experiment_id``, ``overrides``,
  ``sweep``) with every NumPy scalar normalised to its builtin
  equivalent (:func:`repro.io._jsonable` converts ``np.float64`` /
  ``np.int64`` / ``np.bool_`` before serialisation),
* serialised with **sorted keys** and minimal separators, so dict
  insertion order never leaks into the digest,
* salted with the **code version** (:func:`code_version`): package
  version plus a result-format revision, so a release that changes
  result semantics invalidates every stale store entry at once,
* optionally extended with the session ``defaults`` in effect, because
  a default override (``temperature_k=400``) changes the computed
  result just as an explicit override does.

The scenario ``label`` is deliberately **excluded**: it is presentation
metadata, and two scenarios differing only in label must share one
cached result. See ``docs/API.md`` ("Simulation service & result
store") for the full hash contract.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .plan import RunPlan
    from .scenario import Scenario

#: Revision of the stored-result format/semantics. Bump when a change
#: makes previously stored results wrong (new physics, changed solver
#: tolerances, reworked experiment defaults): every store entry keyed
#: under the old revision becomes unreachable, never silently wrong.
#: ``tests/service/test_wire_format.py`` pins the exact bytes of store
#: objects, journal lines, HTTP bodies and scenario hashes; a change
#: that moves any of them must bump this revision.
RESULT_FORMAT_REVISION = 1


def code_version() -> str:
    """The code-version salt baked into every scenario hash.

    Combines the package version with :data:`RESULT_FORMAT_REVISION`,
    so both a release bump and an explicit format-revision bump retire
    stale store entries.
    """
    from .. import __version__

    return f"{__version__}/r{RESULT_FORMAT_REVISION}"


def canonical_scenario_record(scenario: "Scenario") -> "dict[str, Any]":
    """The scenario fields that define its computational identity.

    The JSON-safe ``experiment_id`` / ``overrides`` / ``sweep`` record
    (NumPy scalars normalised by :func:`repro.io.to_record`),
    with the presentation-only ``label`` dropped.
    """
    from .. import io

    record = io.to_record(scenario)
    record.pop("label", None)
    return record


def canonical_json(record: "Mapping[str, Any]") -> str:
    """Serialise a JSON-safe record to its one canonical text form.

    Sorted keys, minimal separators, ASCII-only escapes: any two dicts
    that compare equal (after NumPy normalisation) serialise to the
    same bytes, so the digest never depends on insertion order,
    platform, or which process built the record.
    """
    return json.dumps(
        record,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def scenario_hash(
    scenario: "Scenario",
    *,
    defaults: "Mapping[str, Any] | None" = None,
    salt: "str | None" = None,
) -> str:
    """The content address of one concrete scenario's result.

    SHA-256 over the canonical JSON of the scenario record, the
    session ``defaults`` in effect (they change computed results
    exactly like overrides do), and the code-version ``salt``
    (:func:`code_version` unless given). Stable across processes,
    platforms and NumPy scalar types; hex digest, 64 characters.
    """
    from .. import io

    record = {
        "salt": salt if salt is not None else code_version(),
        "scenario": canonical_scenario_record(scenario),
        "defaults": {
            k: io._jsonable(v) for k, v in dict(defaults or {}).items()
        },
    }
    text = canonical_json(record)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plan_hash(
    plan: "RunPlan",
    *,
    defaults: "Mapping[str, Any] | None" = None,
    salt: "str | None" = None,
) -> str:
    """The content address of a whole plan: its expanded scenario hashes.

    SHA-256 over the ordered list of :func:`scenario_hash` digests of
    ``plan.expanded()`` -- *not* over the plan name, so renaming a plan
    (or regrouping the same concrete scenarios into different sweep
    families) keeps the hash, while any change to the actual work
    changes it.
    """
    digests = [
        scenario_hash(s, defaults=defaults, salt=salt)
        for s in plan.expanded()
    ]
    text = canonical_json({"scenarios": digests})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
