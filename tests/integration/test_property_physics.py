"""Second property-test battery: deeper physics invariants.

Covers reciprocity of the transfer matrix, FN/direct-tunneling
continuity, WKB-vs-exact ordering, MLC Gray-code structure, Arrhenius
round trips and Poisson superposition -- each over randomised
parameters.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import ELECTRON_MASS, VACUUM_PERMITTIVITY
from repro.solver import (
    BarrierSegment,
    PiecewiseBarrier,
    PoissonProblem1D,
    solve_poisson_1d,
    transmission_probability,
    uniform_grid,
)
from repro.tunneling import (
    DirectTunnelingModel,
    FowlerNordheimModel,
    TunnelBarrier,
)
from repro.units import ev_to_j, nm_to_m


class TestTransferMatrixProperties:
    @given(
        heights=st.lists(
            st.floats(min_value=0.5, max_value=4.0), min_size=1, max_size=4
        ),
        widths=st.lists(
            st.floats(min_value=0.2, max_value=1.5), min_size=1, max_size=4
        ),
        energy_ev=st.floats(min_value=0.05, max_value=6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_transmission_always_in_unit_interval(
        self, heights, widths, energy_ev
    ):
        n = min(len(heights), len(widths))
        segments = [
            BarrierSegment(nm_to_m(widths[i]), ev_to_j(heights[i]), ELECTRON_MASS)
            for i in range(n)
        ]
        barrier = PiecewiseBarrier(segments)
        t = transmission_probability(barrier, ev_to_j(energy_ev))
        assert 0.0 <= t <= 1.0

    @given(
        h1=st.floats(min_value=0.5, max_value=3.0),
        h2=st.floats(min_value=0.5, max_value=3.0),
        w1=st.floats(min_value=0.3, max_value=1.2),
        w2=st.floats(min_value=0.3, max_value=1.2),
        energy_ev=st.floats(min_value=0.05, max_value=2.5),
    )
    # Two heights straddling E by one ulp: a slab not nudged off the
    # band edge kept a near-zero k and broke reciprocity at 1.5e-9.
    @example(h1=0.5, h2=0.5000000000000001, w1=0.5, w2=0.75, energy_ev=0.5)
    @settings(max_examples=60, deadline=None)
    def test_reciprocity_left_right(self, h1, h2, w1, w2, energy_ev):
        """T(E) is identical for the barrier and its mirror image
        (time-reversal symmetry of the scattering problem)."""
        m = ELECTRON_MASS
        forward = PiecewiseBarrier(
            [
                BarrierSegment(nm_to_m(w1), ev_to_j(h1), m),
                BarrierSegment(nm_to_m(w2), ev_to_j(h2), m),
            ]
        )
        backward = PiecewiseBarrier(
            [
                BarrierSegment(nm_to_m(w2), ev_to_j(h2), m),
                BarrierSegment(nm_to_m(w1), ev_to_j(h1), m),
            ]
        )
        e = ev_to_j(energy_ev)
        assert transmission_probability(forward, e) == pytest.approx(
            transmission_probability(backward, e), rel=1e-9
        )


class TestTunnelingModelContinuity:
    @given(
        phi=st.floats(min_value=2.0, max_value=4.5),
        mass=st.floats(min_value=0.2, max_value=0.8),
        thickness_nm=st.floats(min_value=3.0, max_value=8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_direct_meets_fn_at_barrier_voltage(
        self, phi, mass, thickness_nm
    ):
        barrier = TunnelBarrier(phi, nm_to_m(thickness_nm), mass)
        dt = DirectTunnelingModel(barrier)
        fn = FowlerNordheimModel(barrier)
        # Continuity at V_ox = phi_B and agreement above it.
        for v in (phi, phi * 1.3):
            assert dt.current_density_from_voltage(v) == pytest.approx(
                fn.current_density_from_voltage(v), rel=1e-9
            )

    @given(
        phi=st.floats(min_value=2.0, max_value=4.5),
        mass=st.floats(min_value=0.2, max_value=0.8),
        fraction=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_direct_exceeds_fn_below_barrier(self, phi, mass, fraction):
        """The finite trapezoid always has less WKB action than the
        fictitious full triangle."""
        barrier = TunnelBarrier(phi, nm_to_m(4.0), mass)
        v = fraction * phi
        dt = DirectTunnelingModel(barrier).current_density_from_voltage(v)
        fn = FowlerNordheimModel(barrier).current_density_from_voltage(v)
        assert dt >= fn


class TestMlcProperties:
    @given(level=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_gray_round_trip(self, level):
        from repro.memory import bits_to_level, level_to_bits

        assert bits_to_level(*level_to_bits(level)) == level

    @given(
        guard=st.floats(min_value=0.0, max_value=0.45),
    )
    @settings(max_examples=40, deadline=None)
    def test_levels_ordered_for_any_guard(self, guard):
        from repro.memory import CellKernel, MlcLevels

        kernel = CellKernel(
            erased_vt_v=-3.0,
            programmed_vt_v=5.0,
            program_pulse_shift_v=1.0,
            ispp_step_v=0.3,
            pulse_duration_s=1e-4,
        )
        levels = MlcLevels.from_kernel(kernel, guard_fraction=guard)
        assert all(
            a < b for a, b in zip(levels.targets_v, levels.targets_v[1:])
        )
        for i, ref in enumerate(levels.references_v):
            assert levels.targets_v[i] < ref < levels.targets_v[i + 1]


class TestArrheniusProperties:
    @given(
        ea=st.floats(min_value=0.3, max_value=2.0),
        t_bake=st.floats(min_value=350.0, max_value=550.0),
        duration=st.floats(min_value=1.0, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_time_conversion_round_trip(self, ea, t_bake, duration):
        from repro.reliability import ArrheniusAcceleration

        model = ArrheniusAcceleration(activation_energy_ev=ea)
        use_time = model.equivalent_use_time_s(duration, t_bake)
        assert model.bake_time_for_target_s(
            use_time, t_bake
        ) == pytest.approx(duration, rel=1e-9)


class TestPoissonProperties:
    @given(
        phi_l=st.floats(min_value=-5.0, max_value=5.0),
        phi_r=st.floats(min_value=-5.0, max_value=5.0),
        rho_scale=st.floats(min_value=-1e6, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_superposition(self, phi_l, phi_r, rho_scale):
        """phi(bc + charge) == phi(bc only) + phi(charge only)."""
        grid = uniform_grid(0.0, 1e-8, 61)
        eps = np.full(grid.n - 1, VACUUM_PERMITTIVITY)
        rho = np.full(grid.n, rho_scale)
        zero = np.zeros(grid.n)

        both = solve_poisson_1d(
            PoissonProblem1D(grid, eps, rho, phi_l, phi_r)
        ).potential
        bc_only = solve_poisson_1d(
            PoissonProblem1D(grid, eps, zero, phi_l, phi_r)
        ).potential
        charge_only = solve_poisson_1d(
            PoissonProblem1D(grid, eps, rho, 0.0, 0.0)
        ).potential
        assert np.allclose(both, bc_only + charge_only, atol=1e-9)
