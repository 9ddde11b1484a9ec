"""The seeded generators: reproducible, seed-sensitive, inside device limits."""

import pytest

import workloads
from repro.api import scenario_hash


def _hashes(scenarios):
    return [scenario_hash(s) for s in scenarios]


GENERATORS = {
    "design-sweep": lambda seed: workloads.design_sweep(seed, 3).expanded(),
    "hit-pool": workloads.hit_pool,
    "hit-plan": lambda seed: workloads.hit_plan(
        seed, 3, workloads.hit_pool(seed)
    ).expanded(),
    "miss-plan": lambda seed: workloads.miss_plan(seed, 3).expanded(),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_inputs(name):
    make = GENERATORS[name]
    assert _hashes(make(7)) == _hashes(make(7))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_different_seed_different_inputs(name):
    make = GENERATORS[name]
    assert _hashes(make(7)) != _hashes(make(8))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_shape_does_not_depend_on_seed(name):
    make = GENERATORS[name]
    kinds = [[s.experiment_id for s in make(seed)] for seed in (1, 2)]
    if name == "hit-plan":  # a draw from the pool: same size, any kinds
        assert len(kinds[0]) == len(kinds[1])
    else:
        assert kinds[0] == kinds[1]


def test_sizes():
    assert len(workloads.design_sweep(1, 0).expanded()) == 32
    assert len(workloads.hit_pool(1)) == workloads.HIT_POOL_SIZE == 256
    assert len(workloads.hit_plan(1, 0, workloads.hit_pool(1)).expanded()) == 32
    assert len(workloads.miss_plan(1, 0).expanded()) == 12
    assert len(workloads.background_pool()) == workloads.MISS_BACKGROUND_SIZE
    assert len(workloads.paper_plan().expanded()) == 21


def test_design_sweep_covers_the_named_overrides():
    overrides = {}
    for scenario in workloads.design_sweep(5, 0).expanded():
        overrides.setdefault(scenario.experiment_id, set()).update(
            scenario.overrides
        )
    assert overrides == {
        "device-summary": {"gcr"},
        "abl-wkb": {"tunnel_oxide_nm"},
        "erase-transient": {"tunnel_oxide_nm"},
        "fig5": {"tunnel_oxide_nm"},
        "mem-ftl": {"workload_seed"},
        "mem-array": {"pattern_seed"},
        "rel-endurance": {"pulse_duration_s"},
        "cmp-si": {"n_points"},
    }


def _all_scenarios(seed):
    yield from workloads.design_sweep(seed, 0).expanded()
    yield from workloads.hit_pool(seed)
    for op in range(20):
        yield from workloads.miss_plan(seed, op).expanded()


@pytest.mark.parametrize("seed", range(25))
def test_overrides_respect_device_constraints(seed):
    for scenario in _all_scenarios(seed):
        o = scenario.overrides
        if "tunnel_oxide_nm" in o:
            low, high = workloads.TUNNEL_OXIDE_NM
            assert low <= o["tunnel_oxide_nm"] <= high
            assert o["tunnel_oxide_nm"] < workloads.CONTROL_OXIDE_NM
        for key in ("gcr", "geometric_gcr"):
            if key in o:
                assert 0.4 <= o[key] <= 0.7
        if "pulse_duration_s" in o:
            assert 1e-5 <= o["pulse_duration_s"] <= 1e-3
        if "temperature_k" in o:
            assert 200.0 <= o["temperature_k"] <= 400.0


def test_control_oxide_matches_the_device():
    from repro.api import SimulationSession

    device = SimulationSession().device()
    assert device.geometry.control_oxide_thickness_m == pytest.approx(
        workloads.CONTROL_OXIDE_NM * 1e-9
    )


def test_miss_plans_never_repeat_a_scenario():
    seen = set(_hashes(workloads.background_pool()))
    for op in range(50):
        fresh = _hashes(workloads.miss_plan(9, op).expanded())
        assert len(set(fresh)) == len(fresh)
        assert seen.isdisjoint(fresh)
        seen.update(fresh)


def test_hit_plans_draw_distinct_pool_scenarios():
    pool = workloads.hit_pool(4)
    pool_hashes = set(_hashes(pool))
    assert len(pool_hashes) == len(pool)
    for op in range(10):
        drawn = _hashes(workloads.hit_plan(4, op, pool).expanded())
        assert len(set(drawn)) == len(drawn)
        assert pool_hashes.issuperset(drawn)


def test_ops_of_one_run_get_different_plans():
    pool = workloads.hit_pool(2)
    for make in (
        lambda op: workloads.design_sweep(2, op),
        lambda op: workloads.miss_plan(2, op),
        lambda op: workloads.hit_plan(2, op, pool),
    ):
        assert _hashes(make(0).expanded()) != _hashes(make(1).expanded())


def test_strata_cover_the_range():
    import random

    points = sorted(workloads._strata(random.Random(3), 4))
    for i, u in enumerate(points):
        assert i / 4 <= u < (i + 1) / 4
