"""Benchmark: batched Poisson-Schrodinger channel-well bias sweep.

The channel quantum well behind the Tsu-Esaki emitter model is solved
self-consistently (Schrodinger -> Fermi bisection -> Poisson -> mix)
per bias point. The seed path pays, per lane and per damped iteration,
one LAPACK tridiagonal eigensolve, an 80-step scalar Fermi bisection
and a pure-Python Thomas solve. The batched backend advances the whole
bias sweep together: a cold stacked eigensolve on the first iteration,
machine-precision Rayleigh-quotient eigenlevel *tracking* (batched
block-tridiagonal inverse iterations) afterwards, one vectorized Fermi
bisection and one stacked-RHS banded Poisson solve per iteration, with
per-lane convergence masks retiring settled lanes.

``test_channel_well_sweep_speedup`` gates the backend at >= 5x over
the retained scalar loop on the 64-bias sweep while pinning agreement
at 1e-9; the ``benchmark`` tests put the absolute wall times of both
paths in the pytest-benchmark table (and BENCH_results.json).
"""

from __future__ import annotations

import numpy as np

from conftest import best_of_interleaved, record_speedup

from repro.electrostatics import solve_channel_well
from repro.engine import channel_well_sweep

#: The 64-bias programming-window sweep of confining surface fields.
FIELDS = np.linspace(3e8, 9e8, 64)
SHEET_DENSITY = 5e16

SPEEDUP_GATE = 5.0

#: Smaller sweep for the absolute-wall-time benchmark rows (the scalar
#: path at 64 biases costs seconds per round).
FIELDS_SMALL = FIELDS[::8]


def _scalar_sweep(fields: np.ndarray):
    """The seed path: one full self-consistent solve per bias point."""
    return [solve_channel_well(float(f), SHEET_DENSITY) for f in fields]


def test_channel_well_sweep_speedup():
    """The batched sweep is >= 5x the scalar loop at 1e-9 agreement."""
    scalar = _scalar_sweep(FIELDS)
    batch = channel_well_sweep(FIELDS, SHEET_DENSITY)

    for i, lane in enumerate(scalar):
        assert int(batch.iterations[i]) == lane.iterations
        np.testing.assert_allclose(
            batch.subband_energies_ev[i],
            lane.subband_energies_ev,
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            batch.subband_densities_m2[i],
            lane.subband_densities_m2,
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            batch.potential_ev[i],
            lane.potential_ev,
            rtol=1e-9,
            atol=1e-12 * float(np.max(np.abs(lane.potential_ev))),
        )

    t_scalar, t_batch = best_of_interleaved(
        lambda: _scalar_sweep(FIELDS),
        lambda: channel_well_sweep(FIELDS, SHEET_DENSITY),
    )
    speedup = t_scalar / t_batch
    record_speedup(
        "poisson_schrodinger_channel_well_sweep",
        speedup,
        t_scalar,
        t_batch,
        gate=SPEEDUP_GATE,
        detail=(
            f"{FIELDS.size} bias lanes x 301 nodes, self-consistent to "
            "1e-5 eV, RQI-tracked batched eigensolves vs scalar loop"
        ),
    )
    assert speedup >= SPEEDUP_GATE, (
        f"batched channel-well sweep only {speedup:.1f}x faster than the "
        f"scalar loop ({t_scalar * 1e3:.0f} ms vs {t_batch * 1e3:.0f} ms "
        f"for {FIELDS.size} bias points)"
    )


def test_channel_well_scalar_reference_speed(benchmark):
    """Absolute wall time of the retained per-bias scalar solver."""
    benchmark.pedantic(
        _scalar_sweep, args=(FIELDS_SMALL,), rounds=2, iterations=1
    )


def test_channel_well_batch_speed(benchmark):
    """Absolute wall time of the batched sweep (same small sweep)."""
    benchmark.pedantic(
        channel_well_sweep,
        args=(FIELDS_SMALL, SHEET_DENSITY),
        rounds=2,
        iterations=1,
    )
