"""Baseline-comparison experiments (cmp-si, cmp-che)."""

import pytest

from repro.experiments import run_experiment
from repro.experiments.comparisons import (
    run_che_comparison,
    run_silicon_comparison,
)


class TestSiliconComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return run_silicon_comparison(n_points=15)

    def test_all_checks_pass(self, result):
        assert result.all_checks_pass, result.render_checks()

    def test_two_devices_compared(self, result):
        labels = [s.label for s in result.series]
        assert any("MLGNR" in lbl for lbl in labels)
        assert any("Si" in lbl for lbl in labels)

    def test_barriers_recorded(self, result):
        gnr_phi, si_phi = result.parameters["barriers_ev"]
        assert gnr_phi == pytest.approx(3.61, abs=0.01)
        assert si_phi == pytest.approx(3.10, abs=0.01)

    def test_short_pulse_fails_speed_check_readably(self):
        """A pulse too short for the MLGNR cell to saturate is a failed
        check with a readable detail, not a TypeError."""
        result = run_silicon_comparison(n_points=5, duration_s=1e-4)
        speed = next(c for c in result.checks if "faster" in c.claim)
        assert not speed.passed
        assert "MLGNR not saturated" in speed.detail


class TestCheComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return run_che_comparison(n_points=15)

    def test_all_checks_pass(self, result):
        assert result.all_checks_pass, result.render_checks()

    def test_registered_in_runner(self):
        result = run_experiment("cmp-che")
        assert result.experiment_id == "cmp-che"
