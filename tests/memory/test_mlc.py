"""Multi-level cell programming and readout."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MemoryOperationError
from repro.memory import (
    GRAY_BITS,
    MlcLevels,
    bits_to_level,
    level_to_bits,
    program_mlc_page_batch,
    read_mlc_page_batch,
)


@pytest.fixture()
def levels(cell_kernel):
    return MlcLevels.from_kernel(cell_kernel)


class TestLevelLayout:
    def test_four_ascending_targets(self, levels):
        assert len(levels.targets_v) == 4
        assert all(
            a < b for a, b in zip(levels.targets_v, levels.targets_v[1:])
        )

    def test_references_between_adjacent_targets(self, levels):
        for i, ref in enumerate(levels.references_v):
            assert levels.targets_v[i] < ref < levels.targets_v[i + 1]

    def test_targets_inside_window(self, levels, cell_kernel):
        assert levels.targets_v[0] >= cell_kernel.erased_vt_v
        assert levels.targets_v[-1] <= cell_kernel.programmed_vt_v

    def test_level_of_classifies_targets(self, levels):
        for i, target in enumerate(levels.targets_v):
            assert levels.level_of(target) == i

    def test_rejects_bad_guard(self, cell_kernel):
        with pytest.raises(ConfigurationError):
            MlcLevels.from_kernel(cell_kernel, guard_fraction=0.6)


class TestGrayCode:
    def test_round_trip(self):
        for level in range(4):
            msb, lsb = level_to_bits(level)
            assert bits_to_level(msb, lsb) == level

    def test_adjacent_levels_differ_by_one_bit(self):
        for a, b in zip(GRAY_BITS, GRAY_BITS[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1

    def test_erased_level_is_all_ones(self):
        assert level_to_bits(0) == (1, 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(MemoryOperationError):
            level_to_bits(4)
        with pytest.raises(MemoryOperationError):
            bits_to_level(2, 0)


def fresh_page(cell_kernel, n, rng):
    """One erased ``(1, n)`` page with 50 mV of process variation."""
    return cell_kernel.erased_vt_v + rng.normal(0.0, 0.05, size=(1, n))


class TestProgramRead:
    def test_page_round_trip_all_levels(self, cell_kernel, levels, rng):
        vt = fresh_page(cell_kernel, 32, rng)
        targets = (np.arange(32) % 4).reshape(1, -1)
        vt, pulses = program_mlc_page_batch(vt, levels, targets, rng=rng)
        assert pulses.sum() > 0
        msb, lsb = read_mlc_page_batch(vt, levels)
        for i, level in enumerate(targets[0]):
            assert (int(msb[0, i]), int(lsb[0, i])) == level_to_bits(level), (
                f"cell {i} target L{level} read as "
                f"({msb[0, i]}, {lsb[0, i]}), vt = {vt[0, i]:.2f}"
            )

    def test_doubles_capacity_per_cell(self, cell_kernel, levels, rng):
        """32 cells carry 64 bits."""
        vt = fresh_page(cell_kernel, 32, rng)
        vt, _ = program_mlc_page_batch(
            vt, levels, np.full((1, 32), 3), rng=rng
        )
        msb, lsb = read_mlc_page_batch(vt, levels)
        assert msb.size + lsb.size == 64

    def test_erased_cells_stay_at_l0(self, cell_kernel, levels, rng):
        vt = fresh_page(cell_kernel, 8, rng)
        vt, _ = program_mlc_page_batch(
            vt, levels, np.zeros((1, 8), dtype=int), rng=rng
        )
        msb, lsb = read_mlc_page_batch(vt, levels)
        assert (msb == 1).all() and (lsb == 1).all()

    def test_levels_programmed_in_ascending_passes(
        self, cell_kernel, levels, rng
    ):
        """Mixed page: each cell ends at (or just above) its own target,
        not at the highest target of the page."""
        vt = fresh_page(cell_kernel, 16, rng)
        targets = np.array([[1] * 8 + [3] * 8])
        vt, _ = program_mlc_page_batch(vt, levels, targets, rng=rng)
        assert vt[0, :8].max() < levels.references_v[1]
        assert vt[0, 8:].min() > levels.references_v[2]

    def test_rejects_bad_targets(self, cell_kernel, levels, rng):
        vt = fresh_page(cell_kernel, 4, rng)
        with pytest.raises(MemoryOperationError):
            program_mlc_page_batch(vt, levels, np.array([[0, 1, 2]]), rng=rng)
        with pytest.raises(MemoryOperationError):
            program_mlc_page_batch(
                vt, levels, np.array([[0, 1, 2, 5]]), rng=rng
            )
