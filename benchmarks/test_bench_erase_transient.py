"""Benchmark: the erase transient (dynamic mirror of Figure 5).

Two workloads:

* the single-cell reproduction -- a full -15 V erase of the saturated
  programmed cell, including the reversed Jin/Jout balance extraction
  (this is the golden-parity path: one lane, bit-identical to the seed
  integrator), and
* the erase-voltage sweep -- many erase transients advanced as **one
  vector ODE state** by the array-valued integrator, gated at >= 3x
  over the historical one-adaptive-solve-per-lane path at matching
  physics (final charges within 1e-6 relative; the two paths differ
  only by adaptive step placement, not by model).
"""

from __future__ import annotations

import numpy as np

from conftest import assert_reproduced, best_of_interleaved, record_speedup

from repro.device import simulate_transient
from repro.engine import clear_caches, transient_sweep
from repro.experiments import run_experiment

#: Erase staircase: one lane per erase voltage, programmed cell start.
ERASE_VOLTAGES = np.linspace(-13.0, -17.0, 48)
DURATION_S = 1e-2
N_SAMPLES = 64

SPEEDUP_GATE = 3.0


def test_erase_transient_reproduction(benchmark):
    result = benchmark.pedantic(
        run_experiment, args=("erase-transient",), rounds=3, iterations=1
    )
    assert_reproduced(result)


def _erase_sweep(device, bias, initial_charge_c: float):
    return transient_sweep(
        device,
        bias,
        ERASE_VOLTAGES,
        duration_s=DURATION_S,
        n_samples=N_SAMPLES,
        initial_charge_c=initial_charge_c,
    )


def _erase_per_lane(device, bias, initial_charge_c: float):
    """The historical reference: one adaptive solve per erase voltage."""
    return [
        simulate_transient(
            device,
            bias.with_gate_voltage(float(vgs)),
            initial_charge_c=initial_charge_c,
            duration_s=DURATION_S,
            n_samples=N_SAMPLES,
        )
        for vgs in ERASE_VOLTAGES
    ]


def _programmed_charge(sim_session, device) -> float:
    """Equilibrium charge of the +15 V programmed state (erase start)."""
    from repro.device.transient import equilibrium_charge

    program = sim_session.context().bias("program", vgs_v=15.0)
    return equilibrium_charge(device, program)


def test_erase_sweep_vector_speedup(sim_session, paper_device):
    """The vector integrator is >= 3x the per-lane adaptive path."""
    bias = sim_session.context().bias("erase", vgs_v=-15.0)
    q0 = _programmed_charge(sim_session, paper_device)
    clear_caches()

    per_lane = _erase_per_lane(paper_device, bias, q0)
    vector = _erase_sweep(paper_device, bias, q0)
    np.testing.assert_allclose(
        vector.final_charge_c,
        [r.final_charge_c for r in per_lane],
        rtol=1e-6,
    )
    np.testing.assert_allclose(
        vector.q_equilibrium_c,
        [r.q_equilibrium_c for r in per_lane],
        rtol=1e-9,
    )

    # Warm caches for both paths, then race them.
    t_per_lane, t_vector = best_of_interleaved(
        lambda: _erase_per_lane(paper_device, bias, q0),
        lambda: _erase_sweep(paper_device, bias, q0),
    )
    speedup = t_per_lane / t_vector
    record_speedup(
        "erase_transient_vector_sweep",
        speedup,
        t_per_lane,
        t_vector,
        gate=SPEEDUP_GATE,
        detail=(
            f"{ERASE_VOLTAGES.size} erase lanes x {N_SAMPLES} samples, "
            f"duration {DURATION_S:g} s, single solve_ivp vs per-lane"
        ),
    )
    assert speedup >= SPEEDUP_GATE, (
        f"vector erase sweep only {speedup:.1f}x faster than the per-lane "
        f"path ({t_per_lane * 1e3:.1f} ms vs {t_vector * 1e3:.1f} ms for "
        f"{ERASE_VOLTAGES.size} lanes)"
    )


def test_erase_sweep_per_lane_speed(benchmark, sim_session, paper_device):
    """Absolute wall time of the historical per-lane erase sweep."""
    bias = sim_session.context().bias("erase", vgs_v=-15.0)
    q0 = _programmed_charge(sim_session, paper_device)
    benchmark(_erase_per_lane, paper_device, bias, q0)


def test_erase_sweep_vector_speed(benchmark, sim_session, paper_device):
    """Absolute wall time of the vector-state erase sweep."""
    bias = sim_session.context().bias("erase", vgs_v=-15.0)
    q0 = _programmed_charge(sim_session, paper_device)
    benchmark(_erase_sweep, paper_device, bias, q0)
