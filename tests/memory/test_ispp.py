"""ISPP program-verify loop."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MemoryOperationError
from repro.memory import (
    IsppPolicy,
    ispp_step_batch,
    program_page_batch,
    program_page_scalar_reference,
)


def _one_pulse(vt, select, policy, rng, ceiling):
    """One public single-pulse step, shaped like a page program call."""
    return ispp_step_batch(vt, select, policy.step_v, policy, rng, ceiling)


@pytest.fixture()
def policy(cell_kernel):
    return IsppPolicy(
        verify_level_v=cell_kernel.erased_vt_v + 0.6 * cell_kernel.window_v,
        step_v=0.3,
        first_pulse_shift_v=0.5,
        noise_sigma_v=0.03,
    )


def fresh_page(cell_kernel, n, process_sigma_v=0.08, rng=None):
    """One erased page of ``n`` cells and its per-cell Vt ceiling."""
    rng = rng or np.random.default_rng(0)
    offsets = rng.normal(0.0, process_sigma_v, size=(1, n))
    return (
        cell_kernel.erased_vt_v + offsets,
        cell_kernel.programmed_vt_v + offsets,
    )


class TestProgramming:
    def test_all_selected_cells_verify(self, cell_kernel, policy, rng):
        vt, ceiling = fresh_page(cell_kernel, 32, rng=rng)
        select = np.ones((1, 32), dtype=bool)
        outcome = program_page_batch(vt, select, policy, rng, ceiling)
        assert outcome.success
        assert (outcome.final_vt_v >= policy.verify_level_v).all()

    def test_inhibited_cells_untouched(self, cell_kernel, policy, rng):
        vt, ceiling = fresh_page(cell_kernel, 16, rng=rng)
        select = (np.arange(16) % 2 == 0).reshape(1, -1)
        outcome = program_page_batch(vt, select, policy, rng, ceiling)
        np.testing.assert_array_equal(
            outcome.final_vt_v[~select], vt[~select]
        )
        assert (outcome.final_vt_v[~select] < policy.verify_level_v).all()

    def test_verify_tightens_distribution(self, cell_kernel, policy, rng):
        """Post-ISPP spread is set by the step size, not by the (larger)
        process variation."""
        vt, ceiling = fresh_page(
            cell_kernel, 200, process_sigma_v=0.3, rng=rng
        )
        select = np.ones((1, 200), dtype=bool)
        outcome = program_page_batch(vt, select, policy, rng, ceiling)
        assert outcome.final_vt_v.std() < vt.std()

    def test_slow_cells_get_more_pulses(self, cell_kernel, rng):
        """A higher verify level costs extra pulses."""
        low = IsppPolicy(
            verify_level_v=cell_kernel.erased_vt_v
            + 0.3 * cell_kernel.window_v,
            first_pulse_shift_v=0.4,
            step_v=0.3,
        )
        high = IsppPolicy(
            verify_level_v=cell_kernel.erased_vt_v
            + 0.8 * cell_kernel.window_v,
            first_pulse_shift_v=0.4,
            step_v=0.3,
        )
        vt, ceiling = fresh_page(
            cell_kernel, 16, rng=np.random.default_rng(3)
        )
        select = np.ones((1, 16), dtype=bool)
        p_low = program_page_batch(vt, select, low, rng, ceiling)
        p_high = program_page_batch(vt, select, high, rng, ceiling)
        assert p_high.pulses_used[0] > p_low.pulses_used[0]

    def test_unreachable_verify_reports_failures(self, cell_kernel, rng):
        policy = IsppPolicy(
            verify_level_v=cell_kernel.programmed_vt_v + 50.0,
            max_pulses=4,
        )
        vt, ceiling = fresh_page(cell_kernel, 8, rng=rng)
        select = np.ones((1, 8), dtype=bool)
        outcome = program_page_batch(vt, select, policy, rng, ceiling)
        assert not outcome.success
        assert int(outcome.failed_mask.sum()) == 8
        assert outcome.pulses_used[0] == 4


class TestValidation:
    def test_mask_length_mismatch(self, cell_kernel, policy, rng):
        vt, ceiling = fresh_page(cell_kernel, 4, rng=rng)
        with pytest.raises(MemoryOperationError):
            program_page_batch(
                vt, np.ones((1, 3), dtype=bool), policy, rng, ceiling
            )

    def test_rejects_bad_policy(self):
        with pytest.raises(ConfigurationError):
            IsppPolicy(verify_level_v=1.0, step_v=0.0)
        with pytest.raises(ConfigurationError):
            IsppPolicy(verify_level_v=1.0, max_pulses=0)

    @pytest.mark.parametrize(
        "program",
        [
            program_page_batch,
            program_page_scalar_reference,
            pytest.param(_one_pulse, id="ispp_step_batch"),
        ],
    )
    def test_nan_ceiling_rejected(self, cell_kernel, policy, rng, program):
        """A NaN ceiling is an error in both paths, not a silent NaN Vt
        (batch) or a failed cell (per-cell loop)."""
        vt = np.full((1, 3), cell_kernel.erased_vt_v)
        select = np.ones((1, 3), dtype=bool)
        with pytest.raises(MemoryOperationError, match="NaN"):
            program(vt, select, policy, rng, np.array([[np.nan, 5.0, 5.0]]))
