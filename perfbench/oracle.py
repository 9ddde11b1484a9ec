"""Correctness checks of the benchmark's ops.

Each check returns ``None`` when an op's outputs are right and a short
reason when they are not; a failing op counts against ``ok_share``.

* paper-plan: every result matches its committed golden snapshot
  (``tests/golden/snapshots/``, read only) with the golden suite's
  rule -- exact structure, numbers to 1e-9 relative, check ``detail``
  strings ignored.
* design-sweep: the results are bit-identical to a serial
  ``session.run_plan`` of the same plan.
* store-*: the job's sources are all ``store`` (hits) or all
  ``computed`` (misses), and fetched results equal results computed in
  this process.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.io import experiment_result_to_dict

RTOL = 1e-9


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mismatch(got: Any, want: Any, path: str = "") -> "str | None":
    """First difference between two records: structure exact, numbers to RTOL."""
    if _numeric(got) and _numeric(want):
        if got == want or abs(got - want) <= RTOL * abs(want):
            return None
        return f"{path}: {got!r} drifted from {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for key in want:
            found = mismatch(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (a, b) in enumerate(zip(got, want)):
            found = mismatch(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def _strip_details(record: Mapping[str, Any]) -> "dict[str, Any]":
    out = dict(record)
    out["checks"] = [
        {k: v for k, v in check.items() if k != "detail"}
        for check in record.get("checks", [])
    ]
    return out


def load_goldens(snapshot_dir: Path) -> "dict[str, dict[str, Any]]":
    """Golden records by experiment id, details stripped."""
    return {
        path.stem: _strip_details(json.loads(path.read_text()))
        for path in sorted(snapshot_dir.glob("*.json"))
    }


def check_goldens(
    results: Iterable[Any], goldens: Mapping[str, Mapping[str, Any]]
) -> "str | None":
    """paper-plan: each experiment result against its golden record."""
    seen = 0
    for result in results:
        seen += 1
        want = goldens.get(result.experiment_id)
        if want is None:
            return f"no golden for {result.experiment_id}"
        found = mismatch(
            _strip_details(experiment_result_to_dict(result)),
            want,
            result.experiment_id,
        )
        if found:
            return found
    if seen != len(goldens):
        return f"{seen} results for {len(goldens)} goldens"
    return None


def exact_form(results: Iterable[Any]) -> "list[str]":
    """Exact text form of each result; equal lists mean bit-identical."""
    return [
        json.dumps(experiment_result_to_dict(r), sort_keys=True)
        for r in results
    ]


def check_identical(got: "list[str]", want: "list[str]") -> "str | None":
    """design-sweep / store-*: exact equality of result forms."""
    if len(got) != len(want):
        return f"{len(got)} results, expected {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"result {i} differs from the in-process run"
    return None


def check_sources(sources: Iterable[str], expected: str) -> "str | None":
    """store-*: every scenario came from ``expected``."""
    wrong = sorted({s for s in sources if s != expected})
    return f"sources {wrong}, expected all {expected!r}" if wrong else None
