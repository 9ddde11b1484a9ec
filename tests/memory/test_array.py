"""Block/page array semantics."""

import numpy as np
import pytest

from repro.errors import MemoryOperationError
from repro.memory import ArrayConfig, build_vector_array


@pytest.fixture()
def array(cell_kernel):
    return build_vector_array(
        cell_kernel,
        ArrayConfig(n_blocks=3, wordlines_per_block=4, bitlines=16),
    )


class TestPageLifecycle:
    def test_program_and_read(self, array, rng):
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        array.program_page(0, 0, bits)
        assert (array.read_page(0, 0) == bits).all()

    def test_reprogram_without_erase_rejected(self, array, rng):
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        array.program_page(1, 2, bits)
        with pytest.raises(MemoryOperationError):
            array.program_page(1, 2, bits)

    def test_erase_enables_reprogram(self, array, rng):
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        array.program_page(1, 2, bits)
        array.erase_block(1)
        array.program_page(1, 2, bits)  # no raise
        assert (array.read_page(1, 2) == bits).all()

    def test_fresh_pages_read_all_ones(self, array):
        assert (array.read_page(2, 3) == 1).all()


class TestBlockSemantics:
    def test_erase_counts_tracked(self, array):
        array.erase_block(0)
        array.erase_block(0)
        array.erase_block(2)
        assert array.block_erase_counts() == [2, 0, 1]

    def test_erase_clears_whole_block_only(self, array, rng):
        bits = np.zeros(16, dtype=np.uint8)
        array.program_page(0, 0, bits)
        array.program_page(1, 0, bits)
        array.erase_block(0)
        assert (array.read_page(0, 0) == 1).all()  # erased
        assert (array.read_page(1, 0) == 0).all()  # untouched

    def test_out_of_range_block_rejected(self, array):
        with pytest.raises(MemoryOperationError):
            array.read_page(5, 0)


class TestDistributions:
    def test_page_thresholds_bimodal_after_program(self, array, rng):
        bits = np.array([0, 1] * 8, dtype=np.uint8)
        array.program_page(0, 1, bits)
        vts = array.page_thresholds(0, 1)
        programmed = vts[bits == 0]
        erased = vts[bits == 1]
        assert programmed.min() > erased.max()
