"""ECC-protected memory controller."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MemoryOperationError
from repro.memory import (
    ArrayConfig,
    HammingCode,
    MemoryController,
    PageMappedFtl,
    build_vector_array,
)


@pytest.fixture()
def controller(cell_kernel):
    array = build_vector_array(
        cell_kernel,
        ArrayConfig(n_blocks=3, wordlines_per_block=4, bitlines=39),
    )
    ftl = PageMappedFtl(array, overprovision_blocks=1)
    return MemoryController(ftl, HammingCode(32), host_page_bits=32)


class TestRoundTrip:
    def test_write_read(self, controller, rng):
        payload = rng.integers(0, 2, 32).astype(np.uint8)
        controller.write(0, payload)
        assert (controller.read(0) == payload).all()
        assert controller.stats.pages_written == 1
        assert controller.stats.pages_read == 1

    def test_multiple_pages_independent(self, controller, rng):
        payloads = {
            i: rng.integers(0, 2, 32).astype(np.uint8) for i in range(4)
        }
        for page, bits in payloads.items():
            controller.write(page, bits)
        for page, bits in payloads.items():
            assert (controller.read(page) == bits).all()

    def test_overwrites_survive_gc(self, controller, rng):
        last = None
        for _ in range(20):
            last = rng.integers(0, 2, 32).astype(np.uint8)
            controller.write(1, last)
        assert (controller.read(1) == last).all()


class TestEccPath:
    def test_single_flipped_cell_corrected(self, controller, rng):
        payload = rng.integers(0, 2, 32).astype(np.uint8)
        controller.write(2, payload)
        # Reach inside the physical array and flip one stored cell of
        # the mapped page.
        ppage = controller.ftl._map[2]
        block, wl = controller.ftl._physical_address(ppage)
        array = controller.ftl.array
        kernel = array.kernel
        vt = array.state.vt_v[block, wl]
        if vt[5] > kernel.erased_vt_v + 0.5 * kernel.window_v:
            vt[5] = kernel.erased_vt_v  # programmed -> erased flip
        else:
            vt[5] = kernel.programmed_vt_v
        decoded = controller.read(2)
        assert (decoded == payload).all()
        assert controller.stats.bits_corrected == 1


class TestValidation:
    def test_rejects_wrong_payload_width(self, controller, rng):
        with pytest.raises(MemoryOperationError):
            controller.write(0, rng.integers(0, 2, 31).astype(np.uint8))

    def test_rejects_code_too_big_for_page(self, cell_kernel):
        array = build_vector_array(
            cell_kernel,
            ArrayConfig(n_blocks=2, wordlines_per_block=2, bitlines=16),
        )
        ftl = PageMappedFtl(array, overprovision_blocks=1)
        with pytest.raises(ConfigurationError):
            MemoryController(ftl, HammingCode(32), host_page_bits=32)
