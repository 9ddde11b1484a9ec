"""Benchmark: recurrence-based endurance kernel vs the per-cycle loop.

An endurance corner sweep asks the same question -- how fast does the
memory window close? -- for many wear-law corners (here 32 Monte-Carlo
style trapped-charge fractions) sampled at up to every cycle of a
10k-cycle life. The seed path pays, per corner, two exact stress
transients plus a per-sampled-cycle Python loop through the scalar
wear laws. The batched backend runs the shared stress transients
*once* and evaluates all (lane x cycle-count) wear observables in one
closed-form NumPy kernel.

``test_endurance_sweep_speedup`` gates the kernel at >= 10x over the
retained scalar loop on the 10k-cycle x 32-lane sweep while pinning
agreement at 1e-9; the ``benchmark`` tests record the absolute wall
times of both paths.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from conftest import best_of_interleaved, record_speedup

from repro.reliability import EnduranceModel

N_CYCLES = 10_000
#: Per-cycle wear sampling: every distinct sampled count of a 10k life.
N_SAMPLES = 10_000
#: 32 trapped-charge-fraction corners (the reliability Monte Carlo).
FRACTIONS = np.linspace(0.02, 0.12, 32)

SPEEDUP_GATE = 10.0


def _model(device):
    return EnduranceModel(device)


def _scalar_sweep(device):
    """The seed path: one scalar simulate per corner, stress re-paid."""
    return [
        dataclasses.replace(
            _model(device), trapped_charge_fraction=float(f)
        ).simulate_scalar_reference(N_CYCLES, n_samples=N_SAMPLES)
        for f in FRACTIONS
    ]


def _batch_sweep(device):
    return _model(device).simulate_batch(
        N_CYCLES,
        n_samples=N_SAMPLES,
        trapped_charge_fractions=FRACTIONS,
    )


def test_endurance_sweep_speedup(paper_device):
    """The batched wear kernel is >= 10x the scalar corner loop."""
    scalar = _scalar_sweep(paper_device)
    batch = _batch_sweep(paper_device)

    assert batch.n_lanes == FRACTIONS.size
    for i, lane in enumerate(scalar):
        np.testing.assert_allclose(
            batch.cycle_counts, lane.cycle_counts, rtol=1e-9
        )
        np.testing.assert_allclose(
            batch.trap_density_m2[i], lane.trap_density_m2, rtol=1e-9
        )
        np.testing.assert_allclose(
            batch.life_consumed[i], lane.life_consumed, rtol=1e-9
        )
        np.testing.assert_allclose(
            batch.window_closure_v[i], lane.window_closure_v, rtol=1e-9
        )
        np.testing.assert_allclose(
            batch.cycles_to_breakdown[i],
            lane.cycles_to_breakdown,
            rtol=1e-9,
        )

    t_scalar, t_batch = best_of_interleaved(
        lambda: _scalar_sweep(paper_device),
        lambda: _batch_sweep(paper_device),
    )
    speedup = t_scalar / t_batch
    record_speedup(
        "endurance_corner_sweep",
        speedup,
        t_scalar,
        t_batch,
        gate=SPEEDUP_GATE,
        detail=(
            f"{N_CYCLES} cycles x {FRACTIONS.size} corners at "
            f"{batch.cycle_counts.size} sampled counts, shared stress "
            "transients + closed-form wear kernel vs per-corner loop"
        ),
    )
    assert speedup >= SPEEDUP_GATE, (
        f"batched endurance sweep only {speedup:.1f}x faster than the "
        f"scalar corner loop ({t_scalar * 1e3:.0f} ms vs "
        f"{t_batch * 1e3:.1f} ms for {FRACTIONS.size} lanes)"
    )


def test_endurance_scalar_reference_speed(benchmark, paper_device):
    """Absolute wall time of the retained per-corner scalar loop."""
    benchmark.pedantic(
        _scalar_sweep, args=(paper_device,), rounds=2, iterations=1
    )


def test_endurance_batch_speed(benchmark, paper_device):
    """Absolute wall time of the batched corner sweep."""
    benchmark.pedantic(
        _batch_sweep, args=(paper_device,), rounds=2, iterations=1
    )
