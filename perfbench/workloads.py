"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same scenarios, a different seed gives different override values. The
*shape* of each input (which experiments, how many of each) is fixed,
and the ``k`` scenarios of one experiment in a plan draw their value
from ``k`` equal strata of its range (one random point per stratum,
in random order), so every plan spans the whole range and plans of
different seeds cost about the same.

Parameter ranges and where they come from (fixed before any run; they
are not narrowed to hide failures):

* ``gcr`` in [0.4, 0.7] -- the gate-coupling sweep of the paper's
  Figs. 6 and 8 (the ``fig6`` / ``fig8`` default ``gcrs``).
* ``tunnel_oxide_nm`` in [5.0, 7.0] -- inside the 4-8 nm sweep of
  Figs. 7 and 9 and strictly below the 8 nm control oxide; a tunnel
  oxide at or above it fails a whole plan with ``ConfigurationError``.
* ``temperature_k`` in [200, 400] K -- the ``abl-temp`` default range.
* ``pulse_duration_s`` log-uniform in [1e-5, 1e-3] s -- from the 10 us
  program transient of ``fig4`` up to 1 ms, around the 100 us default.
* ``n_points`` of ``cmp-si`` in [13, 37] -- the 25-point default grid
  +/- 12 points.
* ``che_drain_current_a`` in [2.5e-4, 1e-3] A -- the 0.5 mA ``cmp-che``
  default, halved to doubled.
* ``activation_energy_ev`` in [0.8, 1.4] eV -- the 1.1 eV ``rel-bake``
  default +/- 0.3 eV.
* ``geometric_gcr`` of ``abl-cq`` in [0.4, 0.7] -- as ``gcr``.
* ``workload_seed`` / ``pattern_seed`` -- any 31-bit integer.
"""

from __future__ import annotations

import random

from repro.api import RunPlan, Scenario
from repro.experiments.registry import available_experiments

GCR = (0.4, 0.7)
TUNNEL_OXIDE_NM = (5.0, 7.0)
CONTROL_OXIDE_NM = 8.0
TEMPERATURE_K = (200.0, 400.0)
PULSE_S = (1e-5, 1e-3)
CMP_SI_POINTS = (13, 37)
CHE_CURRENT_A = (2.5e-4, 1e-3)
ACTIVATION_EV = (0.8, 1.4)
SEED_MAX = 2**31 - 1

#: Experiments of the design sweep and how many scenarios of each (32
#: in all). The heaviest are few, so one op stays well under a second
#: on two workers and a run holds enough ops for a tail.
DESIGN_MIX = (
    ("device-summary", 2),
    ("abl-wkb", 2),
    ("mem-ftl", 1),
    ("erase-transient", 7),
    ("fig5", 7),
    ("mem-array", 5),
    ("rel-endurance", 4),
    ("cmp-si", 4),
)
#: Cheap experiments the store-hits pool and the store-misses
#: background fill are drawn from.
CHEAP_KINDS = (
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "abl-temp",
    "abl-cq",
    "rel-bake",
    "rel-silc",
)
#: Mid-cost experiments of a store-misses op, two scenarios each.
MISS_KINDS = (
    "fig4",
    "fig5",
    "erase-transient",
    "cmp-che",
    "rel-endurance",
    "fig6",
)

HIT_POOL_SIZE = 256
HIT_PLAN_SIZE = 32
MISS_PLAN_SIZE = 12
#: Objects in the store a store-misses run starts from.
MISS_BACKGROUND_SIZE = 1000
#: The background fill does not depend on the workload seed, so its
#: store can be built once and copied for every run.
BACKGROUND_SEED = 0


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def _strata(rng: random.Random, count: int) -> "list[float]":
    """``count`` points in [0, 1), one per equal stratum, shuffled."""
    points = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(points)
    return points


def _linear(bounds: "tuple[float, float]", u: float) -> float:
    low, high = bounds
    return low + (high - low) * u


def _log(bounds: "tuple[float, float]", u: float) -> float:
    low, high = bounds
    return low * (high / low) ** u


def _design_overrides(kind: str, u: float, rng: random.Random) -> dict:
    if kind == "device-summary":
        return {"gcr": _linear(GCR, u)}
    if kind in ("abl-wkb", "erase-transient", "fig5"):
        return {"tunnel_oxide_nm": _linear(TUNNEL_OXIDE_NM, u)}
    if kind == "mem-ftl":
        return {"workload_seed": rng.randint(0, SEED_MAX)}
    if kind == "mem-array":
        return {"pattern_seed": rng.randint(0, SEED_MAX)}
    if kind == "rel-endurance":
        return {"pulse_duration_s": _log(PULSE_S, u)}
    if kind == "cmp-si":
        low, high = CMP_SI_POINTS
        return {"n_points": min(high, low + int(u * (high - low + 1)))}
    raise ValueError(f"no design-sweep overrides for {kind!r}")


def _cheap_overrides(kind: str, u: float) -> dict:
    if kind in ("fig6", "fig8"):
        return {"temperature_k": _linear(TEMPERATURE_K, u)}
    if kind in ("fig7", "fig9"):
        return {"gcr": _linear(GCR, u)}
    if kind in ("abl-temp", "rel-silc"):
        return {"tunnel_oxide_nm": _linear(TUNNEL_OXIDE_NM, u)}
    if kind == "abl-cq":
        return {"geometric_gcr": _linear(GCR, u)}
    if kind == "rel-bake":
        return {"activation_energy_ev": _linear(ACTIVATION_EV, u)}
    raise ValueError(f"no cheap overrides for {kind!r}")


def _miss_overrides(kind: str, u: float, rng: random.Random) -> dict:
    if kind in ("fig4", "fig5", "erase-transient"):
        # The second axis is drawn plainly: stratifying one is enough
        # to keep plan cost even.
        return {
            "tunnel_oxide_nm": _linear(TUNNEL_OXIDE_NM, u),
            "gcr": _linear(GCR, rng.random()),
        }
    if kind == "cmp-che":
        return {"che_drain_current_a": _linear(CHE_CURRENT_A, u)}
    if kind == "rel-endurance":
        return {"pulse_duration_s": _log(PULSE_S, u)}
    if kind == "fig6":
        return {"temperature_k": _linear(TEMPERATURE_K, u)}
    raise ValueError(f"no store-misses overrides for {kind!r}")


def _stratified(
    rng: random.Random,
    mix: "tuple[tuple[str, int], ...]",
    overrides,
) -> "tuple[Scenario, ...]":
    return tuple(
        Scenario(kind, overrides=overrides(kind, u))
        for kind, count in mix
        for u in _strata(rng, count)
    )


def paper_plan() -> RunPlan:
    """The 21 registered experiments at their defaults, one plan."""
    return RunPlan(
        name="paper-plan",
        scenarios=tuple(Scenario(e) for e in available_experiments()),
    )


def paper_session_seed(seed: int, op: int) -> int:
    """The session seed of one paper-plan op (fresh session per op)."""
    return _rng(seed, f"paper-session-{op}").randint(0, SEED_MAX)


def design_sweep(seed: int, op: int) -> RunPlan:
    """The 32-scenario heavy-experiment plan of one design-sweep op."""
    rng = _rng(seed, f"design-sweep-{op}")
    scenarios = _stratified(
        rng, DESIGN_MIX, lambda kind, u: _design_overrides(kind, u, rng)
    )
    return RunPlan(name="design-sweep", scenarios=scenarios)


def cheap_pool(seed: int, size: int) -> "tuple[Scenario, ...]":
    """``size`` distinct cheap scenarios, an equal share of each cheap kind."""
    mix = tuple((kind, size // len(CHEAP_KINDS)) for kind in CHEAP_KINDS)
    return _stratified(_rng(seed, "cheap-pool"), mix, _cheap_overrides)


def hit_pool(seed: int) -> "tuple[Scenario, ...]":
    """The 256-scenario pool a store-hits run pre-fills its store with."""
    return cheap_pool(seed, HIT_POOL_SIZE)


def hit_plan(seed: int, op: int, pool: "tuple[Scenario, ...]") -> RunPlan:
    """32 distinct pool scenarios for one store-hits op."""
    rng = _rng(seed, f"hit-plan-{op}")
    return RunPlan(
        name=f"store-hits-{op}",
        scenarios=tuple(rng.sample(pool, HIT_PLAN_SIZE)),
    )


def background_pool() -> "tuple[Scenario, ...]":
    """The seed-independent fill of a store-misses run's store."""
    return cheap_pool(BACKGROUND_SEED, MISS_BACKGROUND_SIZE)


def miss_plan(seed: int, op: int) -> RunPlan:
    """12 never-seen mid-cost scenarios for one store-misses op.

    Override values are continuous draws from an op-specific stream,
    so no two ops (and no background object) share a scenario hash.
    """
    rng = _rng(seed, f"miss-plan-{op}")
    mix = tuple((kind, MISS_PLAN_SIZE // len(MISS_KINDS)) for kind in MISS_KINDS)
    return RunPlan(
        name=f"store-misses-{op}",
        scenarios=_stratified(
            rng, mix, lambda kind, u: _miss_overrides(kind, u, rng)
        ),
    )
