"""Batch engine: vectorized lanes must match the scalar device path."""

import numpy as np
import pytest

from repro.device import (
    ERASE_BIAS,
    PROGRAM_BIAS,
    FloatingGateTransistor,
    simulate_transient,
    simulate_transient_batch,
)
from repro.electrostatics import floating_gate_voltage_simple
from repro.engine import (
    BatchSpec,
    design_screen,
    fn_batch,
    transient_sweep,
    tunneling_states,
)
from repro.errors import ConfigurationError
from repro.experiments.sweeps import SweepSettings
from repro.tunneling import FowlerNordheimModel, TunnelBarrier
from repro.units import nm_to_m


@pytest.fixture(scope="module")
def device():
    return FloatingGateTransistor()


def scalar_fn_magnitude(vgs, gcr, xto_nm):
    settings = SweepSettings()
    barrier = TunnelBarrier(
        barrier_height_ev=settings.barrier_height_ev,
        thickness_m=nm_to_m(xto_nm),
        mass_ratio=settings.mass_ratio,
    )
    model = FowlerNordheimModel(barrier)
    return abs(
        model.current_density_from_voltage(
            floating_gate_voltage_simple(gcr, vgs)
        )
    )


class TestBatchSpec:
    def test_broadcast_shape(self):
        spec = BatchSpec(
            gate_voltages_v=np.linspace(8, 17, 10).reshape(1, -1),
            gcrs=np.array([0.4, 0.6]).reshape(-1, 1),
        )
        assert spec.shape == (2, 10)
        assert spec.size == 20

    def test_family_grid_layout(self):
        spec = BatchSpec.family_grid(
            np.linspace(8, 17, 5), gcrs=(0.4, 0.5, 0.6)
        )
        assert spec.shape == (3, 5)

    def test_rejects_bad_gcr(self):
        with pytest.raises(ConfigurationError):
            BatchSpec(gate_voltages_v=np.array([10.0]), gcrs=np.array([1.2]))

    def test_rejects_bad_oxide(self):
        with pytest.raises(ConfigurationError):
            BatchSpec(
                gate_voltages_v=np.array([10.0]),
                tunnel_oxides_nm=np.array([0.0]),
            )

    def test_rejects_unbroadcastable_lanes(self):
        with pytest.raises(ValueError):
            BatchSpec(
                gate_voltages_v=np.zeros(3) + 10.0,
                gcrs=np.array([0.4, 0.6]),
            )


class TestFnBatch:
    def test_matches_scalar_path_elementwise(self):
        vgs = np.linspace(8.0, 17.0, 23)
        spec = BatchSpec.family_grid(vgs, gcrs=(0.4, 0.7))
        result = fn_batch(spec)
        for i, gcr in enumerate((0.4, 0.7)):
            for j, v in enumerate(vgs):
                expected = scalar_fn_magnitude(float(v), gcr, 5.0)
                assert result.j_magnitude_a_m2[i, j] == pytest.approx(
                    expected, rel=1e-12
                )

    def test_erase_polarity_is_signed(self):
        spec = BatchSpec(gate_voltages_v=np.array([-15.0, 15.0]))
        result = fn_batch(spec)
        assert result.j_a_m2[0] < 0.0 < result.j_a_m2[1]
        assert result.j_magnitude_a_m2[0] == pytest.approx(
            result.j_magnitude_a_m2[1]
        )

    def test_zero_voltage_gives_zero_current(self):
        spec = BatchSpec(gate_voltages_v=np.array([0.0, 12.0]))
        result = fn_batch(spec)
        assert result.j_a_m2[0] == 0.0
        assert result.j_a_m2[1] > 0.0


class TestTunnelingStates:
    def test_matches_scalar_tunneling_state(self, device):
        charges = np.linspace(0.0, -2e-16, 50)
        batch = tunneling_states(device, PROGRAM_BIAS, charges)
        for i, q in enumerate(charges):
            state = device.tunneling_state(PROGRAM_BIAS, float(q))
            assert batch.vfg_v[i] == pytest.approx(state.vfg_v, rel=1e-12)
            assert batch.jin_a_m2[i] == pytest.approx(
                state.jin_a_m2, rel=1e-9
            )
            assert batch.jout_a_m2[i] == pytest.approx(
                state.jout_a_m2, rel=1e-9
            )
            assert batch.net_current_a[i] == pytest.approx(
                state.net_current_a, rel=1e-9
            )

    def test_erase_bias_reverses_sign(self, device):
        programmed = -2e-16
        batch = tunneling_states(device, ERASE_BIAS, np.array([programmed]))
        assert batch.jin_a_m2[0] < 0.0

    def test_scalar_input_allowed(self, device):
        batch = tunneling_states(device, PROGRAM_BIAS, 0.0)
        state = device.tunneling_state(PROGRAM_BIAS, 0.0)
        assert float(batch.jin_a_m2) == pytest.approx(state.jin_a_m2)


class TestTransientSweep:
    def test_matches_individual_transients(self, device):
        sweep = transient_sweep(
            device,
            PROGRAM_BIAS,
            [14.0, 16.0],
            duration_s=1e-3,
            n_samples=32,
        )
        for vgs, result in zip(sweep.gate_voltages_v, sweep.results):
            solo = simulate_transient(
                device,
                PROGRAM_BIAS.with_gate_voltage(float(vgs)),
                duration_s=1e-3,
                n_samples=32,
            )
            assert result.final_charge_c == pytest.approx(
                solo.final_charge_c, rel=1e-6
            )

    def test_tsat_monotone_in_voltage(self, device):
        sweep = transient_sweep(
            device,
            PROGRAM_BIAS,
            [15.0, 17.0],
            duration_s=1e-2,
            n_samples=64,
        )
        assert np.all(np.isfinite(sweep.t_sat_s))
        assert sweep.t_sat_s[1] < sweep.t_sat_s[0]

    def test_empty_sweep_rejected(self, device):
        with pytest.raises(ConfigurationError):
            transient_sweep(device, PROGRAM_BIAS, [])


class TestDesignScreen:
    def test_shapes(self):
        screen = design_screen(np.linspace(10, 20, 5), np.linspace(4, 8, 3))
        assert screen.j0_a_m2.shape == (5, 3)
        assert screen.field_v_per_m.shape == (5, 3)

    def test_best_point_respects_ceiling(self):
        screen = design_screen(np.linspace(10, 20, 9), np.linspace(4, 8, 9))
        vgs, xto = screen.best_point(2.5e9)
        field = 0.6 * vgs / nm_to_m(xto)
        assert field <= 2.5e9 * (1 + 1e-12)

    def test_best_point_none_when_infeasible(self):
        screen = design_screen(np.linspace(10, 20, 5), np.linspace(4, 8, 5))
        assert screen.best_point(1e6) is None

    def test_unconstrained_best_is_fast_corner(self):
        screen = design_screen(np.linspace(10, 20, 5), np.linspace(4, 8, 5))
        vgs, xto = screen.best_point()
        assert vgs == 20.0
        assert xto == 4.0


class TestTransientSweepIntegrators:
    def test_vector_matches_per_lane(self, device):
        vec = transient_sweep(
            device,
            PROGRAM_BIAS,
            [14.0, 16.0],
            duration_s=1e-3,
            n_samples=24,
        )
        per = [
            simulate_transient(
                device,
                PROGRAM_BIAS.with_gate_voltage(vgs),
                duration_s=1e-3,
                n_samples=24,
            )
            for vgs in (14.0, 16.0)
        ]
        np.testing.assert_allclose(
            vec.final_charge_c,
            [r.final_charge_c for r in per],
            rtol=1e-6,
        )
        np.testing.assert_allclose(
            vec.q_equilibrium_c,
            [r.q_equilibrium_c for r in per],
            rtol=1e-12,
        )

    def test_rk4_matches_vector(self, device):
        vec = transient_sweep(
            device,
            PROGRAM_BIAS,
            [15.0, 17.0],
            duration_s=1e-3,
            n_samples=24,
        )
        rk4 = simulate_transient_batch(
            device,
            tuple(PROGRAM_BIAS.with_gate_voltage(v) for v in (15.0, 17.0)),
            duration_s=1e-3,
            n_samples=24,
            method="rk4",
        )
        np.testing.assert_allclose(
            [r.final_charge_c for r in rk4.results],
            vec.final_charge_c,
            rtol=1e-4,
        )

    def test_single_voltage_stays_bit_identical(self, device):
        """A one-lane sweep rides the golden-parity scalar path."""
        sweep = transient_sweep(
            device,
            PROGRAM_BIAS,
            [15.0],
            duration_s=1e-3,
            n_samples=24,
        )
        solo = simulate_transient(
            device,
            PROGRAM_BIAS.with_gate_voltage(15.0),
            duration_s=1e-3,
            n_samples=24,
        )
        np.testing.assert_array_equal(
            sweep.results[0].charge_c, solo.charge_c
        )
