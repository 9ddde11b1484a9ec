"""Device-calibrated array cell kernel and per-cell state transitions.

Cells live as entries of the matrix backend's ``ArrayState``; the
lifecycle tests drive single cells through the same page kernels the
array uses.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.memory import (
    READ_DISTURB_SCALE,
    ArrayConfig,
    CellKernel,
    IsppPolicy,
    SenseAmplifier,
    apply_read_disturb_batch,
    build_vector_array,
    ispp_step_batch,
)


def _pulse(kernel, vt_v, shift_v):
    """Apply one noiseless program pulse of ``shift_v`` to one cell."""
    vt, _ = ispp_step_batch(
        np.array([[vt_v]]),
        np.array([[True]]),
        shift_v,
        IsppPolicy(verify_level_v=kernel.programmed_vt_v, noise_sigma_v=0.0),
        np.random.default_rng(0),
        kernel.programmed_vt_v,
    )
    return float(vt[0, 0])


class TestKernelCalibration:
    def test_window_positive(self, cell_kernel):
        assert cell_kernel.window_v > 1.0

    def test_erased_below_programmed(self, cell_kernel):
        assert cell_kernel.erased_vt_v < cell_kernel.programmed_vt_v

    def test_pulse_shift_smaller_than_window(self, cell_kernel):
        assert (
            0.0
            < cell_kernel.program_pulse_shift_v
            <= cell_kernel.window_v
        )

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ConfigurationError):
            CellKernel(
                erased_vt_v=2.0,
                programmed_vt_v=1.0,
                program_pulse_shift_v=0.5,
                ispp_step_v=0.3,
                pulse_duration_s=1e-4,
            )


class TestCellLifecycle:
    def test_fresh_cell_starts_erased(self, cell_kernel):
        array = build_vector_array(
            cell_kernel,
            ArrayConfig(
                n_blocks=1, wordlines_per_block=1, bitlines=1,
                process_sigma_v=0.0,
            ),
        )
        assert not array.state.programmed.any()
        assert array.state.vt_v[0, 0, 0] == pytest.approx(
            cell_kernel.erased_vt_v
        )

    def test_program_pulses_raise_vt(self, cell_kernel):
        before = cell_kernel.erased_vt_v
        assert _pulse(cell_kernel, before, 0.5) == pytest.approx(before + 0.5)

    def test_vt_capped_at_programmed_ceiling(self, cell_kernel):
        vt = cell_kernel.erased_vt_v
        for _ in range(100):
            vt = _pulse(cell_kernel, vt, 2.0)
        assert vt <= cell_kernel.programmed_vt_v + 1e-9

    def test_erase_resets_and_counts_cycles(self, cell_kernel):
        array = build_vector_array(
            cell_kernel,
            ArrayConfig(n_blocks=1, wordlines_per_block=1, bitlines=1),
        )
        array.program_page(0, 0, np.zeros(1, dtype=np.uint8))
        assert array.state.programmed[0, 0, 0]
        array.erase_block(0)
        assert not array.state.programmed[0, 0, 0]
        assert array.state.pe_cycles[0, 0, 0] == 1
        assert array.state.vt_v[0, 0, 0] == pytest.approx(
            cell_kernel.erased_vt_v, abs=0.5
        )

    def test_negative_pulse_rejected(self, cell_kernel):
        """A negative pulse never lowers Vt: the shift is clamped at 0."""
        before = cell_kernel.erased_vt_v
        assert _pulse(cell_kernel, before, -0.5) == before

    def test_read_state_against_reference(self, cell_kernel):
        mid = cell_kernel.erased_vt_v + 0.5 * cell_kernel.window_v
        sense = SenseAmplifier(reference_v=mid, noise_sigma_v=0.0)
        vt = np.array([cell_kernel.erased_vt_v])
        assert sense.sense_page_batch(vt)[0] == 1  # erased '1'
        vt = np.array(
            [_pulse(cell_kernel, vt[0], cell_kernel.window_v)]
        )
        assert sense.sense_page_batch(vt)[0] == 0  # programmed '0'

    def test_disturb_shifts_threshold(self, cell_kernel):
        vt = np.full((2, 1), cell_kernel.erased_vt_v)
        before = vt[1, 0]
        apply_read_disturb_batch(vt, 0, 1.0)
        assert vt[1, 0] == pytest.approx(before + READ_DISTURB_SCALE)


class TestManufacture:
    def test_fresh_cells_have_process_variation(self, cell_kernel):
        array = build_vector_array(
            cell_kernel,
            ArrayConfig(
                n_blocks=1, wordlines_per_block=1, bitlines=500,
                process_sigma_v=0.1,
            ),
        )
        thresholds = array.page_thresholds(0, 0)
        assert thresholds.std() == pytest.approx(0.1, abs=0.02)

    def test_rejects_zero_cells(self):
        with pytest.raises(ConfigurationError):
            ArrayConfig(n_blocks=1, wordlines_per_block=1, bitlines=0)
