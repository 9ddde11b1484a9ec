"""Benchmark: vectorized Tsu-Esaki energy integral vs the scalar loop.

The quantum-accuracy reference of the ablation experiments evaluates

    J(V) = C * integral T(E) N(E, V) dE

over ``n_energy`` longitudinal energies. The seed implementation walked
that grid in Python -- one scalar WKB action (a 501-point list
comprehension) or one scalar transfer-matrix product (60 slabs of 2x2
complex matmuls) per energy. The vectorized solver backend evaluates
the whole energy grid in one batched kernel call and closes the
integral with a single ``np.trapezoid``.

``test_tsu_esaki_energy_sweep_speedup`` gates the backend at >= 10x
over the retained scalar reference for *both* transmission methods
while pinning agreement at 1e-9 relative tolerance; the ``benchmark``
tests put the absolute wall times of the two paths in the
pytest-benchmark table (and therefore in BENCH_results.json).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import best_of_interleaved, record_speedup

from repro.tunneling import TsuEsakiModel, TunnelBarrier
from repro.units import nm_to_m

#: The ablation barrier: graphene emitter on 5 nm SiO2.
BARRIER = TunnelBarrier(
    barrier_height_ev=3.61, thickness_m=nm_to_m(5.0), mass_ratio=0.42
)

#: The abl-wkb programming window.
VOLTAGES = np.linspace(6.0, 10.5, 10)

SPEEDUP_GATE = 10.0


def _scalar_sweep(model: TsuEsakiModel) -> np.ndarray:
    """The seed path: per-energy Python loop inside each voltage point."""
    return np.array(
        [
            model.current_density_scalar_reference(float(v))
            for v in VOLTAGES
        ]
    )


@pytest.mark.parametrize("method", ["wkb", "transfer_matrix"])
def test_tsu_esaki_energy_sweep_speedup(method):
    """The vectorized energy integral is >= 10x the scalar loop at 1e-9."""
    model = TsuEsakiModel(BARRIER, method=method)

    j_scalar = _scalar_sweep(model)  # warm + correctness baseline
    j_vector = model.current_density_batch(VOLTAGES)
    np.testing.assert_allclose(j_vector, j_scalar, rtol=1e-9)

    t_scalar, t_vector = best_of_interleaved(
        lambda: _scalar_sweep(model),
        lambda: model.current_density_batch(VOLTAGES),
    )
    speedup = t_scalar / t_vector
    record_speedup(
        f"tsu_esaki_energy_sweep[{method}]",
        speedup,
        t_scalar,
        t_vector,
        gate=SPEEDUP_GATE,
        detail=(
            f"{VOLTAGES.size} voltages x {model.n_energy} energies, "
            f"method={method}"
        ),
    )
    assert speedup >= SPEEDUP_GATE, (
        f"vectorized Tsu-Esaki ({method}) only {speedup:.1f}x faster than "
        f"the scalar energy loop ({t_scalar * 1e3:.1f} ms vs "
        f"{t_vector * 1e3:.1f} ms for {VOLTAGES.size} voltage points)"
    )


def test_tsu_esaki_scalar_reference_speed(benchmark):
    """Absolute wall time of the retained per-energy scalar loop."""
    model = TsuEsakiModel(BARRIER, method="wkb")
    benchmark(_scalar_sweep, model)


def test_tsu_esaki_vectorized_speed(benchmark):
    """Absolute wall time of the batched (bias x energy) integral."""
    model = TsuEsakiModel(BARRIER, method="wkb")
    benchmark(model.current_density_batch, VOLTAGES)
