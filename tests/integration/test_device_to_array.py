"""Device physics flowing through to the array/controller stack."""

import numpy as np
import pytest

from repro.device import FloatingGateTransistor
from repro.memory import (
    ArrayConfig,
    DisturbModel,
    HammingCode,
    MemoryController,
    PageMappedFtl,
    build_vector_array,
    calibrate_kernel,
)


class TestKernelFollowsDevice:
    def test_thinner_oxide_device_wider_pulse_shift(self, cell_kernel):
        """A faster-tunneling device calibrates to a faster kernel."""
        from dataclasses import replace

        fast_device = FloatingGateTransistor()
        fast_device = replace(
            fast_device,
            geometry=fast_device.geometry.with_tunnel_oxide_nm(4.5),
        )
        fast_kernel = calibrate_kernel(fast_device, pulse_duration_s=1e-5)
        slow_kernel = calibrate_kernel(
            FloatingGateTransistor(), pulse_duration_s=1e-5
        )
        assert (
            fast_kernel.program_pulse_shift_v
            > slow_kernel.program_pulse_shift_v
        )


class TestArrayWithDisturbs:
    def test_disturb_accumulates_on_unselected_pages(self, cell_kernel):
        device = FloatingGateTransistor()
        disturb = DisturbModel(
            device, pass_voltage_v=9.0, event_duration_s=1e-3
        )
        array = build_vector_array(
            cell_kernel,
            ArrayConfig(n_blocks=1, wordlines_per_block=4, bitlines=8),
            disturb=disturb,
        )
        victim_before = array.page_thresholds(0, 3).copy()
        for wl in range(3):
            array.program_page(0, wl, np.zeros(8, dtype=np.uint8))
        victim_after = array.page_thresholds(0, 3)
        drift = victim_after - victim_before
        assert np.all(drift >= 0.0)
        assert drift.max() > 0.0

    def test_disturb_small_enough_to_not_flip_data(self, cell_kernel):
        device = FloatingGateTransistor()
        disturb = DisturbModel(device, pass_voltage_v=6.0)
        array = build_vector_array(
            cell_kernel,
            ArrayConfig(n_blocks=1, wordlines_per_block=8, bitlines=16),
            disturb=disturb,
        )
        bits = np.tile(
            np.array([0, 1], dtype=np.uint8), 8
        )
        array.program_page(0, 0, bits)
        for wl in range(1, 8):
            array.program_page(0, wl, bits)
        assert (array.read_page(0, 0) == bits).all()


class TestFullStack:
    def test_controller_over_physical_cells_end_to_end(self, cell_kernel, rng):
        array = build_vector_array(
            cell_kernel,
            ArrayConfig(n_blocks=4, wordlines_per_block=4, bitlines=39),
        )
        controller = MemoryController(
            PageMappedFtl(array, overprovision_blocks=1),
            HammingCode(32),
            host_page_bits=32,
        )
        data = {
            i: rng.integers(0, 2, 32).astype(np.uint8) for i in range(8)
        }
        for page, bits in data.items():
            controller.write(page, bits)
        # Churn to force garbage collection underneath.
        for _ in range(20):
            page = int(rng.integers(0, 8))
            data[page] = rng.integers(0, 2, 32).astype(np.uint8)
            controller.write(page, data[page])
        for page, bits in data.items():
            assert (controller.read(page) == bits).all()
        assert controller.stats.uncorrectable_pages == 0
