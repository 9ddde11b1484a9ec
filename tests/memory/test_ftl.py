"""Page-mapped FTL: mapping, GC, wear levelling."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MemoryOperationError
from repro.memory import ArrayConfig, PageMappedFtl, build_vector_array


def make_ftl(cell_kernel, blocks=3, pages=4, bits=16, op=1):
    array = build_vector_array(
        cell_kernel,
        ArrayConfig(
            n_blocks=blocks, wordlines_per_block=pages, bitlines=bits
        ),
    )
    return PageMappedFtl(array, overprovision_blocks=op)


class TestBasicMapping:
    def test_write_read_round_trip(self, cell_kernel, rng):
        ftl = make_ftl(cell_kernel)
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        ftl.write(0, bits)
        assert (ftl.read(0) == bits).all()

    def test_overwrite_returns_new_data(self, cell_kernel, rng):
        ftl = make_ftl(cell_kernel)
        first = rng.integers(0, 2, 16).astype(np.uint8)
        second = 1 - first
        ftl.write(3, first)
        ftl.write(3, second)
        assert (ftl.read(3) == second).all()

    def test_unwritten_page_rejected(self, cell_kernel):
        ftl = make_ftl(cell_kernel)
        with pytest.raises(MemoryOperationError):
            ftl.read(1)

    def test_capacity_excludes_overprovisioning(self, cell_kernel):
        ftl = make_ftl(cell_kernel, blocks=4, pages=4, op=1)
        assert ftl.logical_capacity_pages == 12

    def test_out_of_capacity_write_rejected(self, cell_kernel, rng):
        ftl = make_ftl(cell_kernel)
        with pytest.raises(MemoryOperationError):
            ftl.write(
                ftl.logical_capacity_pages,
                rng.integers(0, 2, 16).astype(np.uint8),
            )


class TestGarbageCollection:
    def test_sustained_overwrites_trigger_gc(self, cell_kernel, rng):
        ftl = make_ftl(cell_kernel)
        for i in range(30):
            ftl.write(
                i % 4, rng.integers(0, 2, 16).astype(np.uint8)
            )
        assert ftl.stats.gc_invocations > 0
        assert ftl.stats.block_erases > 0

    def test_data_survives_gc(self, cell_kernel, rng):
        ftl = make_ftl(cell_kernel)
        reference = {}
        for i in range(40):
            page = i % ftl.logical_capacity_pages
            bits = rng.integers(0, 2, 16).astype(np.uint8)
            ftl.write(page, bits)
            reference[page] = bits
        for page, bits in reference.items():
            assert (ftl.read(page) == bits).all()

    def test_write_amplification_above_one_under_churn(
        self, cell_kernel, rng
    ):
        ftl = make_ftl(cell_kernel)
        for i in range(40):
            ftl.write(
                int(rng.integers(0, ftl.logical_capacity_pages)),
                rng.integers(0, 2, 16).astype(np.uint8),
            )
        assert ftl.stats.write_amplification >= 1.0

    def test_sequential_overwrite_of_single_page(self, cell_kernel, rng):
        """Hot single page: GC must keep reclaiming its old copies."""
        ftl = make_ftl(cell_kernel)
        last = None
        for _ in range(25):
            last = rng.integers(0, 2, 16).astype(np.uint8)
            ftl.write(0, last)
        assert (ftl.read(0) == last).all()


class TestGcRelocationRace:
    def test_overwrite_of_page_relocated_by_same_write_gc(
        self, cell_kernel, rng
    ):
        """Regression: writing a page whose allocation triggers a GC
        that relocates *that same page* must not leave a stale reverse
        mapping behind (the stale copy used to be resurrected by a later
        GC, overwriting fresh data with old)."""
        ftl = make_ftl(cell_kernel, blocks=4, pages=4, bits=16)
        reference = {}
        for i in range(300):
            page = int(rng.integers(0, ftl.logical_capacity_pages))
            bits = rng.integers(0, 2, 16).astype(np.uint8)
            ftl.write(page, bits)
            reference[page] = bits
        for page, bits in reference.items():
            assert (ftl.read(page) == bits).all()


class TestWearLevelling:
    def test_wear_spread_stays_small(self, cell_kernel, rng):
        ftl = make_ftl(cell_kernel, blocks=4, pages=4, op=1)
        for i in range(60):
            ftl.write(
                int(rng.integers(0, ftl.logical_capacity_pages)),
                rng.integers(0, 2, 16).astype(np.uint8),
            )
        assert ftl.wear_spread() <= 4.0


class TestValidation:
    def test_rejects_zero_overprovisioning(self, cell_kernel):
        array = build_vector_array(
            cell_kernel, ArrayConfig(n_blocks=2, wordlines_per_block=2, bitlines=8)
        )
        with pytest.raises(ConfigurationError):
            PageMappedFtl(array, overprovision_blocks=0)

    def test_rejects_full_overprovisioning(self, cell_kernel):
        array = build_vector_array(
            cell_kernel, ArrayConfig(n_blocks=2, wordlines_per_block=2, bitlines=8)
        )
        with pytest.raises(ConfigurationError):
            PageMappedFtl(array, overprovision_blocks=2)
