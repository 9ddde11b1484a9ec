"""System benchmark: read-disturb accumulation (DESIGN.md sys-nand
companion).

Workload: hammer one page of a disturb-enabled block with reads and
measure the threshold drift of the unselected pages; asserts the
physics-calibrated budget (events to 0.1 V of drift) is consistent
with the per-event model.

Two speedup gates ride on the batched kernels:

* ``test_read_disturb_batch_speedup`` -- boolean-indexed whole-block
  disturb accumulation vs the per-cell reference loop, >= 5x.
* ``test_rtn_ensemble_speedup`` -- the vectorized RTN trajectory
  ensemble on derived independent streams vs the per-lane per-step
  loop, >= 5x, with every lane pinned bit-exactly.
"""

import numpy as np

from conftest import best_of, record_speedup

from repro.device import FloatingGateTransistor
from repro.memory import (
    ArrayConfig,
    DisturbModel,
    RtnTrap,
    apply_read_disturb_batch,
    apply_read_disturb_scalar_reference,
    build_vector_array,
)

#: Wide block of the gated disturb comparison.
N_WORDLINES = 32
N_BITLINES = 2048
N_READS = 40

#: RTN ensemble of the gated trajectory comparison -- long lanes so the
#: per-lane stream derivation (paid identically by both paths) is
#: amortised and the per-step work dominates.
N_TRAJECTORIES = 256
N_STEPS = 8000

SPEEDUP_GATE = 5.0


def test_read_disturb_accumulation(benchmark, cell_kernel):
    device = FloatingGateTransistor()
    disturb = DisturbModel(
        device, pass_voltage_v=8.0, event_duration_s=1e-3
    )

    def setup():
        array = build_vector_array(
            cell_kernel,
            ArrayConfig(n_blocks=1, wordlines_per_block=4, bitlines=32),
            disturb=disturb,
            seed=29,
        )
        return (array,), {}

    def hammer(array):
        before = array.page_thresholds(0, 3).copy()
        for _ in range(50):
            array.read_page(0, 0)
        after = array.page_thresholds(0, 3)
        return float(np.mean(after - before))

    mean_drift = benchmark.pedantic(hammer, setup=setup, rounds=3, iterations=1)
    # Read disturb is scaled to 1% of the program-disturb drift.
    expected = 50 * 0.01 * disturb.drift_per_event_v()
    assert mean_drift >= 0.0
    assert mean_drift <= expected * 1.5 + 1e-12


def _hammer_block(accumulate, drift_v):
    """Accumulate N_READS read disturbs over one wide block matrix."""
    vt = np.zeros((N_WORDLINES, N_BITLINES))
    for _ in range(N_READS):
        accumulate(vt, 0, drift_v)
    return vt


def test_read_disturb_batch_speedup():
    """Whole-block disturb accumulation beats the per-cell loop >= 5x."""
    device = FloatingGateTransistor()
    disturb = DisturbModel(
        device, pass_voltage_v=8.0, event_duration_s=1e-3
    )
    drift_v = disturb.drift_per_event_v()

    vt_batch = _hammer_block(apply_read_disturb_batch, drift_v)
    vt_scalar = _hammer_block(
        apply_read_disturb_scalar_reference, drift_v
    )
    np.testing.assert_array_equal(vt_batch, vt_scalar)
    assert (vt_batch[0] == 0.0).all()
    assert (vt_batch[1:] > 0.0).all()

    t_scalar = best_of(
        lambda: _hammer_block(
            apply_read_disturb_scalar_reference, drift_v
        ),
        repeats=2,
    )
    t_batch = best_of(
        lambda: _hammer_block(apply_read_disturb_batch, drift_v)
    )
    speedup = t_scalar / t_batch
    record_speedup(
        "read_disturb_accumulation",
        speedup,
        t_scalar,
        t_batch,
        gate=SPEEDUP_GATE,
        detail=(
            f"{N_READS} reads over a {N_WORDLINES} x {N_BITLINES} "
            "block, boolean-indexed accumulation vs per-cell loop"
        ),
    )
    assert speedup >= SPEEDUP_GATE, (
        f"batched read-disturb accumulation only {speedup:.1f}x faster "
        f"than the scalar reference ({t_scalar * 1e3:.0f} ms vs "
        f"{t_batch * 1e3:.1f} ms)"
    )


def _trap():
    return RtnTrap(
        amplitude_v=0.05, capture_time_s=1e-3, emission_time_s=2e-3
    )


def _ensemble_batch(trap):
    dt_s = trap.capture_time_s / 10.0
    return trap.sample_trajectory_batch(
        N_STEPS * dt_s, dt_s, N_TRAJECTORIES, seed=41
    )


def _ensemble_scalar(trap, n_trajectories=N_TRAJECTORIES):
    dt_s = trap.capture_time_s / 10.0
    return np.array(
        [
            trap.sample_trajectory_scalar_reference(
                N_STEPS * dt_s, dt_s, lane, seed=41
            )
            for lane in range(n_trajectories)
        ]
    )


def test_rtn_ensemble_speedup():
    """The vectorized RTN ensemble beats the per-lane loop >= 5x."""
    trap = _trap()
    batch = _ensemble_batch(trap)
    scalar = _ensemble_scalar(trap)
    np.testing.assert_array_equal(batch, scalar)
    occupancy = (batch > 0.0).mean()
    assert abs(occupancy - trap.occupancy) < 0.1

    t_scalar = best_of(lambda: _ensemble_scalar(trap), repeats=2)
    t_batch = best_of(lambda: _ensemble_batch(trap))
    speedup = t_scalar / t_batch
    record_speedup(
        "rtn_trajectory_ensemble",
        speedup,
        t_scalar,
        t_batch,
        gate=SPEEDUP_GATE,
        detail=(
            f"{N_TRAJECTORIES} trajectories x {N_STEPS} steps on "
            "derived independent streams, vectorized Markov recurrence "
            "vs per-lane loop"
        ),
    )
    assert speedup >= SPEEDUP_GATE, (
        f"batched RTN ensemble only {speedup:.1f}x faster than the "
        f"per-lane loop ({t_scalar * 1e3:.0f} ms vs "
        f"{t_batch * 1e3:.1f} ms)"
    )
