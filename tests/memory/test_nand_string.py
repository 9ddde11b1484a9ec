"""NAND strings and page operations on the matrix backend.

A NAND string is one bit-line column of a block in the array's
``(blocks, wordlines, bitlines)`` threshold matrix; a page is one
word-line row across every string of the block.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MemoryOperationError
from repro.memory import (
    ArrayConfig,
    IsppPolicy,
    SenseAmplifier,
    build_vector_array,
    ispp_step_batch,
)


@pytest.fixture()
def operations(cell_kernel):
    """One block of 16 strings, 8 word lines each."""
    return build_vector_array(
        cell_kernel,
        ArrayConfig(n_blocks=1, wordlines_per_block=8, bitlines=16),
    )


class TestStringStructure:
    def test_build_string_dimensions(self, cell_kernel):
        array = build_vector_array(
            cell_kernel,
            ArrayConfig(n_blocks=1, wordlines_per_block=64, bitlines=4),
        )
        assert array.state.vt_v[0, :, 0].shape == (64,)

    def test_wordline_bounds_checked(self, operations):
        with pytest.raises(MemoryOperationError):
            operations.read_page(0, 8)

    def test_conduction_rule(self, cell_kernel):
        """The selected cell conducts (reads '1') only while its
        threshold is below the reference."""
        mid = cell_kernel.erased_vt_v + 0.5 * cell_kernel.window_v
        sense = SenseAmplifier(reference_v=mid, noise_sigma_v=0.0)
        array = build_vector_array(
            cell_kernel,
            ArrayConfig(n_blocks=1, wordlines_per_block=4, bitlines=1),
            sense=sense,
        )
        assert array.read_page(0, 0)[0] == 1  # erased cell conducts
        array.state.vt_v[0, 0, 0] += cell_kernel.window_v
        assert array.read_page(0, 0)[0] == 0

    def test_rejects_empty_string(self):
        with pytest.raises(ConfigurationError):
            ArrayConfig(n_blocks=1, wordlines_per_block=0, bitlines=16)


class TestPageOperations:
    def test_program_read_round_trip(self, operations, rng):
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        operations.program_page(0, 3, bits)
        back = operations.read_page(0, 3)
        assert (back == bits).all()

    def test_program_marks_states(self, operations):
        operations.program_page(0, 1, np.zeros(16, dtype=np.uint8))
        assert operations.state.programmed[0, 1].all()

    def test_other_pages_unaffected_without_disturb(self, operations):
        before = operations.page_thresholds(0, 5)
        operations.program_page(0, 2, np.zeros(16, dtype=np.uint8))
        after = operations.page_thresholds(0, 5)
        np.testing.assert_array_equal(before, after)

    def test_erase_all_resets_everything(self, operations):
        operations.program_page(0, 0, np.zeros(16, dtype=np.uint8))
        operations.erase_block(0)
        assert (operations.read_page(0, 0) == 1).all()
        assert not operations.state.programmed.any()

    def test_read_count_tracked(self, operations):
        operations.read_page(0, 4)
        operations.read_page(0, 4)
        assert operations.state.read_counts[0, 4] == 2

    def test_wrong_bit_width_rejected(self, operations):
        with pytest.raises(MemoryOperationError):
            operations.program_page(0, 0, np.zeros(3, dtype=np.uint8))


class TestStructuralValidation:
    def test_rejects_mixed_string_lengths(self):
        """The matrix cannot hold strings of unequal length: a pending
        mask whose shape disagrees with the Vt matrix is rejected."""
        with pytest.raises(MemoryOperationError):
            ispp_step_batch(
                np.zeros((8, 2)),
                np.ones((4, 2), dtype=bool),
                0.5,
                IsppPolicy(verify_level_v=0.0),
                np.random.default_rng(0),
                np.inf,
            )
