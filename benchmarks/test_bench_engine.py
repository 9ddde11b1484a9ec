"""Benchmark: batch engine vs the per-cell looped path.

The acceptance workload of PR 1: a 1000-point program-transient sweep
(the tunneling state -- V_FG, Jin, Jout, net current -- at 1000 stored
charges along the paper's programming transient) evaluated

* the seed way: one scalar ``tunneling_state`` call per point, and
* the engine way: one vectorized ``tunneling_states`` batch.

``test_engine_speedup_and_accuracy`` asserts the batch path is at least
5x faster while matching the looped results to 1e-9 relative tolerance;
the two ``benchmark`` tests put both paths in the pytest-benchmark
table. A third pair does the same for the Figure-6-style family sweep.
"""

from __future__ import annotations

import numpy as np

from conftest import best_of_interleaved, record_speedup

from repro.device import PROGRAM_BIAS
from repro.engine import BatchSpec, clear_caches, fn_batch, tunneling_states

N_POINTS = 1000


def _transient_charges(device, n_points: int = N_POINTS) -> np.ndarray:
    """Charge samples spanning a full programming transient."""
    from repro.device import simulate_transient

    result = simulate_transient(
        device, PROGRAM_BIAS, duration_s=1e-3, n_samples=64
    )
    return np.linspace(0.0, result.final_charge_c, n_points)


def _looped_states(device, charges):
    """The seed's per-cell path: one scalar call per charge point."""
    states = [
        device.tunneling_state(PROGRAM_BIAS, float(q)) for q in charges
    ]
    return (
        np.array([s.vfg_v for s in states]),
        np.array([s.jin_a_m2 for s in states]),
        np.array([s.jout_a_m2 for s in states]),
        np.array([s.net_current_a for s in states]),
    )


def test_engine_speedup_and_accuracy(paper_device):
    """Batch path >= 5x faster than the loop, matching to 1e-9 rtol."""
    charges = _transient_charges(paper_device)
    clear_caches()

    vfg, jin, jout, net = _looped_states(paper_device, charges)
    batch = tunneling_states(paper_device, PROGRAM_BIAS, charges)

    for ref, got in (
        (vfg, batch.vfg_v),
        (jin, batch.jin_a_m2),
        (jout, batch.jout_a_m2),
        (net, batch.net_current_a),
    ):
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)

    # Best-of-N guards the ratio against scheduler noise on shared CI
    # runners; the measured margin (~three orders of magnitude over the
    # 5x bar) leaves the assertion far from the flake zone, and the
    # extra repeats give the microsecond-scale batch path a quiet
    # window.
    t_loop, t_batch = best_of_interleaved(
        lambda: _looped_states(paper_device, charges),
        lambda: tunneling_states(paper_device, PROGRAM_BIAS, charges),
        repeats=15,
    )
    speedup = t_loop / t_batch
    record_speedup(
        "engine_tunneling_states",
        speedup,
        t_loop,
        t_batch,
        gate=5.0,
        detail=f"{N_POINTS}-point program-transient state sweep",
    )
    assert speedup >= 5.0, (
        f"batch engine only {speedup:.1f}x faster than the looped path "
        f"({t_loop * 1e3:.2f} ms vs {t_batch * 1e3:.2f} ms for "
        f"{N_POINTS} points)"
    )


def test_transient_sweep_loop_speed(benchmark, paper_device):
    charges = _transient_charges(paper_device)
    benchmark(_looped_states, paper_device, charges)


def test_transient_sweep_batch_speed(benchmark, paper_device):
    charges = _transient_charges(paper_device)
    benchmark(tunneling_states, paper_device, PROGRAM_BIAS, charges)


def _looped_family_sweep(vgs, gcrs):
    """Figure-6 family the seed way: scalar eq. (3) + (7) per point."""
    from repro.electrostatics import floating_gate_voltage_simple
    from repro.materials.graphene import GRAPHENE_WORK_FUNCTION_EV
    from repro.materials.oxides import SIO2
    from repro.tunneling import FowlerNordheimModel, TunnelBarrier
    from repro.units import nm_to_m

    barrier = TunnelBarrier(
        barrier_height_ev=GRAPHENE_WORK_FUNCTION_EV - SIO2.electron_affinity_ev,
        thickness_m=nm_to_m(5.0),
        mass_ratio=SIO2.tunneling_mass_ratio,
    )
    model = FowlerNordheimModel(barrier)
    return np.array(
        [
            [
                abs(
                    model.current_density_from_voltage(
                        floating_gate_voltage_simple(g, float(v))
                    )
                )
                for v in vgs
            ]
            for g in gcrs
        ]
    )


def _batched_family_sweep(vgs, gcrs):
    spec = BatchSpec.family_grid(vgs, gcrs=gcrs, tunnel_oxides_nm=(5.0,))
    return fn_batch(spec).j_magnitude_a_m2


def test_family_sweep_matches_loop():
    vgs = np.linspace(8.0, 17.0, 250)
    gcrs = (0.4, 0.5, 0.6, 0.7)
    np.testing.assert_allclose(
        _batched_family_sweep(vgs, gcrs),
        _looped_family_sweep(vgs, gcrs),
        rtol=1e-9,
        atol=0.0,
    )


def test_family_sweep_loop_speed(benchmark):
    vgs = np.linspace(8.0, 17.0, 250)
    benchmark(_looped_family_sweep, vgs, (0.4, 0.5, 0.6, 0.7))


def test_family_sweep_batch_speed(benchmark):
    vgs = np.linspace(8.0, 17.0, 250)
    benchmark(_batched_family_sweep, vgs, (0.4, 0.5, 0.6, 0.7))
