"""Registry mapping experiment ids to their ``run`` callables, lazily.

Experiments register as ``"module:function"`` spec strings and resolve
on first use, so importing the registry (or :mod:`repro.api`, which
depends on it) stays cheap and a broken figure module cannot take down
unrelated experiments -- the import error surfaces only when *that*
experiment is requested, wrapped as a
:class:`~repro.errors.ConfigurationError`.

Protocol: every registered callable has the redesigned signature
``run(ctx: SimulationContext | None = None, **params) -> ExperimentResult``.
Because ``ctx`` defaults to ``None`` (resolved to the default session by
:func:`repro.api.session.ensure_context`), the pre-redesign zero-argument
calling convention keeps working unchanged -- that is the registry's
backwards-compatibility shim.
"""

from __future__ import annotations

import importlib
from typing import Callable, TYPE_CHECKING

from ..errors import ConfigurationError
from .base import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..api.session import SimulationContext

#: The redesigned experiment protocol: ``run(ctx=None, **params)``.
Runner = Callable[..., ExperimentResult]

_PACKAGE = __name__.rsplit(".", 1)[0]

_SPECS: "dict[str, str]" = {
    "fig2": f"{_PACKAGE}.fig2:run",
    "fig4": f"{_PACKAGE}.fig4:run",
    "fig5": f"{_PACKAGE}.fig5:run",
    "fig6": f"{_PACKAGE}.fig6:run",
    "fig7": f"{_PACKAGE}.fig7:run",
    "fig8": f"{_PACKAGE}.fig8:run",
    "fig9": f"{_PACKAGE}.fig9:run",
    "abl-wkb": f"{_PACKAGE}.ablations:run_model_comparison",
    "abl-cq": f"{_PACKAGE}.ablations:run_quantum_capacitance",
    "abl-temp": f"{_PACKAGE}.ablations:run_temperature",
    "cmp-si": f"{_PACKAGE}.comparisons:run_silicon_comparison",
    "cmp-che": f"{_PACKAGE}.comparisons:run_che_comparison",
    "device-summary": f"{_PACKAGE}.summary:run",
    "erase-transient": f"{_PACKAGE}.erase_transient:run",
    "rel-endurance": f"{_PACKAGE}.reliability:run_endurance",
    "rel-bake": f"{_PACKAGE}.reliability:run_bake",
    "rel-silc": f"{_PACKAGE}.reliability:run_silc",
    "mem-array": f"{_PACKAGE}.memory:run_array",
    "mem-mlc": f"{_PACKAGE}.memory:run_mlc",
    "mem-ftl": f"{_PACKAGE}.memory:run_ftl",
    "mem-disturb": f"{_PACKAGE}.memory:run_disturb",
}

_RESOLVED: "dict[str, Runner]" = {}

#: Relative cost hints (dimensionless, 1.0 = a cheap vectorized figure
#: sweep) used by the parallel executor's LPT shard rule to
#: balance shards before running anything. Only the *ratios* matter,
#: and ids absent here default to 1.0 via :func:`experiment_cost`.
#:
#: Values are **measured**, not hand-tuned: best-of-3 default-parameter
#: wall clock on a warm session, normalized to the median cheap figure
#: sweep (regenerate with ``python benchmarks/measure_costs.py`` after
#: performance work; last measured after ISPP moved to pulse blocks,
#: which added the mem-* rows; the other rows were re-measured within
#: ~10% of their values and kept).
_COST_HINTS: "dict[str, float]" = {
    "abl-wkb": 198.0,  # batched Tsu-Esaki transfer-matrix integrals
    "mem-ftl": 160.0,  # 600+ ISPP page programs under FTL churn
    "device-summary": 103.0,  # program + erase transients + retention
    "cmp-si": 23.0,  # two full device transients + leakage
    "rel-endurance": 18.0,  # shared stress transients + wear kernel
    "mem-disturb": 11.0,  # disturb accumulation + RTN ensemble
    "erase-transient": 10.0,  # program equilibrium + erase transient
    "mem-mlc": 9.0,  # MLC staircase program + read
    "fig5": 7.5,  # transient sampling
    "cmp-che": 6.7,
    "mem-array": 5.1,  # SLC page-batch program + populations
    "fig4": 4.5,  # transient sampling
    "fig2": 3.0,  # band-diagram assembly
}

#: Ids of the experiments reproducing actual paper figures. Figure 2
#: (the FN band diagram) is included; Figures 1 and 3 are conceptual
#: layout/schematic drawings with no quantitative content to reproduce.
PAPER_FIGURES = ("fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")


def experiment_cost(experiment_id: str) -> float:
    """The relative cost hint of one experiment (default 1.0).

    A dimensionless estimate of how expensive one run is compared to a
    cheap vectorized figure sweep; the parallel executor's LPT shard
    rule balances shards on these hints. Unknown ids are *not*
    rejected here (the registry check happens when the experiment is
    resolved) -- they simply cost 1.0.
    """
    return _COST_HINTS.get(experiment_id, 1.0)


def available_experiments() -> "tuple[str, ...]":
    """Sorted ids of every registered experiment (nothing imported)."""
    return tuple(sorted(_SPECS))


def resolve_experiment(experiment_id: str) -> Runner:
    """Import and return one experiment's ``run`` callable.

    Resolution is memoized; unknown ids and broken figure modules both
    raise :class:`~repro.errors.ConfigurationError`, the latter naming
    the failing module so one bad experiment never masks the others.
    """
    if experiment_id in _RESOLVED:
        return _RESOLVED[experiment_id]
    try:
        spec = _SPECS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_SPECS))
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: {known}"
        ) from None
    module_name, _, attr = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
        runner = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(
            f"experiment {experiment_id!r} failed to load from {spec!r}: {exc}"
        ) from exc
    _RESOLVED[experiment_id] = runner
    return runner


def get_experiment(experiment_id: str) -> Runner:
    """Look up one experiment runner by id (alias of resolution).

    The returned callable still works with zero arguments -- the
    pre-redesign convention -- and additionally accepts a
    :class:`~repro.api.session.SimulationContext` plus keyword
    parameter overrides.
    """
    return resolve_experiment(experiment_id)


def run_experiment(
    experiment_id: str,
    ctx: "SimulationContext | None" = None,
    **params: object,
) -> ExperimentResult:
    """Run one experiment by id, optionally parameterized.

    ``run_experiment("fig6")`` behaves exactly as before the API
    redesign; ``run_experiment("fig6", ctx, temperature_k=400.0)`` runs
    it inside a session context with overrides. When a context is given
    its session's cache set is activated for the run (the same routing
    as :meth:`~repro.api.session.SimulationSession.run`), and unknown
    parameter names raise :class:`~repro.errors.ConfigurationError`
    either way.
    """
    fn = resolve_experiment(experiment_id)
    # Local import: api.session imports this module (lazily resolved
    # specs), so the reverse edge must not exist at import time.
    from ..api.session import merge_parameters

    merged = merge_parameters(fn, {}, params, experiment_id)
    if ctx is None:
        return fn(None, **merged)
    with ctx.session.activate():
        return fn(ctx, **merged)


def run_all(
    paper_only: bool = False,
    ctx: "SimulationContext | None" = None,
) -> "list[ExperimentResult]":
    """Run every registered experiment (or only the paper figures)."""
    ids = PAPER_FIGURES if paper_only else available_experiments()
    return [run_experiment(i, ctx) for i in ids]
