"""Property-based tests for the scenario layer's data contracts.

Hypothesis generates adversarial-but-valid scenarios, plans and result
records and checks the invariants the executor and io layers lean on:

* ``Scenario`` / ``RunPlan`` / ``ScenarioResult`` survive their JSON
  round trips exactly (through real ``json.dumps``/``loads`` text, not
  just dict conversion), and
* ``RunPlan.expanded()`` is the cartesian product it claims to be --
  count, ordering and override precedence.

Hypothesis ships in the ``dev`` extra; when it is absent the module
skips as a whole (``pytest.importorskip``) instead of failing
collection, so the tier-1 suite still runs on minimal installs.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need the dev extra (hypothesis)"
)

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.api import RunPlan, Scenario, ScenarioResult  # noqa: E402
from repro.engine.cache import CacheStats  # noqa: E402
from repro.experiments.base import ExperimentResult, ShapeCheck  # noqa: E402
from repro.io import from_record, to_record  # noqa: E402
from repro.reporting.ascii_plot import PlotSeries  # noqa: E402

# JSON-representable scalars that survive a text round trip exactly:
# finite floats (repr round-trips), bounded ints, bools, short text.
scalars = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=12),
)

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10
)


@st.composite
def scenarios(draw):
    """A valid Scenario: overrides and sweep axes over disjoint names."""
    keys = draw(
        st.lists(names, unique=True, max_size=6)
    )
    split = draw(st.integers(min_value=0, max_value=len(keys)))
    overrides = {k: draw(scalars) for k in keys[:split]}
    sweep = {
        k: tuple(
            draw(st.lists(scalars, min_size=1, max_size=3))
        )
        for k in keys[split:]
    }
    return Scenario(
        experiment_id=draw(names),
        overrides=overrides,
        sweep=sweep,
        label=draw(st.one_of(st.none(), st.text(max_size=12))),
    )


@st.composite
def plans(draw):
    """A valid RunPlan of 1..4 scenario families."""
    return RunPlan(
        name=draw(st.text(max_size=12)),
        scenarios=tuple(
            draw(st.lists(scenarios(), min_size=1, max_size=4))
        ),
    )


def _through_json(record):
    """A real serialize/parse cycle, not just dict identity."""
    return json.loads(json.dumps(record))


class TestScenarioRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios())
    def test_json_round_trip_is_identity(self, scenario):
        """Scenario -> JSON text -> Scenario reproduces the original."""
        rebuilt = from_record(Scenario, _through_json(to_record(scenario)))
        assert rebuilt == scenario
        assert rebuilt.name == scenario.name

    @settings(max_examples=100, deadline=None)
    @given(plan=plans())
    def test_plan_json_round_trip_is_identity(self, plan):
        """RunPlan -> JSON text -> RunPlan reproduces the original."""
        assert from_record(RunPlan, _through_json(to_record(plan))) == plan


class TestExpansionInvariants:
    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios())
    def test_count_is_cartesian_product(self, scenario):
        """len(expand()) is the product of the axis lengths."""
        expected = math.prod(len(v) for v in scenario.sweep.values())
        assert len(scenario.expand()) == expected

    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios())
    def test_order_is_product_over_sorted_axes(self, scenario):
        """Expansion enumerates itertools.product over sorted axis names."""
        axes = sorted(scenario.sweep)
        points = [
            dict(zip(axes, values))
            for values in itertools.product(
                *(scenario.sweep[a] for a in axes)
            )
        ]
        expanded = scenario.expand()
        assert len(expanded) == len(points)
        for concrete, point in zip(expanded, points):
            for axis, value in point.items():
                assert concrete.overrides[axis] == value

    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios())
    def test_expansion_preserves_base_overrides(self, scenario):
        """Base overrides survive into every concrete scenario."""
        for concrete in scenario.expand():
            assert not concrete.sweep
            assert concrete.experiment_id == scenario.experiment_id
            for key, value in scenario.overrides.items():
                assert concrete.overrides[key] == value

    @settings(max_examples=100, deadline=None)
    @given(plan=plans())
    def test_plan_expansion_concatenates_in_order(self, plan):
        """A plan expands each family in place, preserving order."""
        concatenated = tuple(
            concrete
            for scenario in plan.scenarios
            for concrete in scenario.expand()
        )
        assert plan.expanded() == concatenated

    def test_sweep_axis_colliding_with_override_rejected(self):
        """The precedence question never arises: collisions are errors."""
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Scenario("fig6", overrides={"a": 1}, sweep={"a": [1, 2]})


@st.composite
def experiment_results(draw):
    """A synthetic ExperimentResult with JSON-faithful payloads."""
    n = draw(st.integers(min_value=1, max_value=5))
    series = tuple(
        PlotSeries(
            label=draw(st.text(max_size=8)),
            x=[
                draw(st.floats(allow_nan=False, allow_infinity=False))
                for _ in range(n)
            ],
            y=[
                draw(st.floats(allow_nan=False, allow_infinity=False))
                for _ in range(n)
            ],
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    checks = tuple(
        ShapeCheck(
            claim=draw(st.text(max_size=12)),
            passed=draw(st.booleans()),
            detail=draw(st.text(max_size=12)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    return ExperimentResult(
        experiment_id=draw(names),
        title=draw(st.text(max_size=12)),
        x_label=draw(st.text(max_size=8)),
        y_label=draw(st.text(max_size=8)),
        series=series,
        parameters={draw(names): draw(scalars)},
        checks=checks,
        log_y=draw(st.booleans()),
    )


@st.composite
def scenario_results(draw):
    """A ScenarioResult over a concrete scenario and synthetic counters."""
    concrete = draw(
        scenarios().filter(lambda s: not s.sweep)
    )
    counts = st.integers(min_value=0, max_value=10_000)
    per_cache = {
        name: (draw(counts), draw(counts), draw(counts))
        for name in draw(st.lists(names, unique=True, max_size=3))
    }
    stats = CacheStats(
        hits=sum(c[0] for c in per_cache.values()),
        misses=sum(c[1] for c in per_cache.values()),
        currsize=sum(c[2] for c in per_cache.values()),
        per_cache=tuple(per_cache.items()),
    )
    return ScenarioResult(
        scenario=concrete,
        result=draw(experiment_results()),
        elapsed_s=draw(
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
        ),
        cache_stats=stats,
        reused_hits=draw(counts),
    )


class TestScenarioResultRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(result=scenario_results())
    def test_json_round_trip_preserves_record(self, result):
        """ScenarioResult -> JSON text -> ScenarioResult is stable.

        Equality is checked on the canonical export record (the result
        holds numpy arrays, whose ``==`` is elementwise), which is
        exactly the fidelity the executor and io layers rely on.
        """
        record = to_record(result)
        rebuilt = from_record(ScenarioResult, _through_json(record))
        assert to_record(rebuilt) == record
        assert rebuilt.scenario == result.scenario
        assert rebuilt.reused_hits == result.reused_hits
        assert rebuilt.cache_stats == result.cache_stats
