"""Sense amplifier."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.memory import SenseAmplifier


@pytest.fixture()
def sense(cell_kernel):
    mid = cell_kernel.erased_vt_v + 0.5 * cell_kernel.window_v
    return SenseAmplifier(reference_v=mid, noise_sigma_v=0.0)


class TestSensing:
    def test_erased_reads_one(self, cell_kernel, sense):
        vt = np.array([cell_kernel.erased_vt_v])
        assert sense.sense_page_batch(vt)[0] == 1

    def test_programmed_reads_zero(self, cell_kernel, sense):
        vt = np.array([cell_kernel.erased_vt_v + cell_kernel.window_v])
        assert sense.sense_page_batch(vt)[0] == 0

    def test_page_read_returns_bit_array(self, cell_kernel, sense, rng):
        vt = cell_kernel.erased_vt_v + rng.normal(0.0, 0.08, size=16)
        vt[:8] += cell_kernel.window_v
        bits = sense.sense_page_batch(vt)
        assert bits.dtype == np.uint8
        assert list(bits[:8]) == [0] * 8
        assert list(bits[8:]) == [1] * 8

    def test_margin_distance_from_reference(self, sense):
        """The side of the reference a cell sits on decides its bit,
        however small the margin."""
        margins = np.array([-0.5, -1e-6, 1e-6, 0.5])
        bits = sense.sense_page_batch(sense.reference_v + margins)
        assert list(bits) == [1, 1, 0, 0]


class TestNoise:
    def test_marginal_cell_flips_with_noise(self, cell_kernel, rng):
        noisy = SenseAmplifier(
            reference_v=cell_kernel.erased_vt_v, noise_sigma_v=0.2
        )
        # Every cell sits exactly at the reference.
        vt = np.full(200, cell_kernel.erased_vt_v)
        reads = noisy.sense_page_batch(vt, rng)
        assert 0 < int(reads.sum()) < 200  # both outcomes observed

    def test_noiseless_read_deterministic(self, cell_kernel, sense, rng):
        vt = np.full(20, cell_kernel.erased_vt_v)
        assert set(sense.sense_page_batch(vt, rng).tolist()) == {1}

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigurationError):
            SenseAmplifier(reference_v=0.0, noise_sigma_v=-0.1)
