"""JSON configuration serialization."""

import pytest

from repro.device import FloatingGateTransistor, PROGRAM_BIAS
from repro.device.geometry import DeviceGeometry
from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentResult
from repro.io import (
    experiment_result_to_dict,
    from_record,
    load_json,
    save_json,
    to_record,
)
from repro.optimization import DesignPoint
from repro.units import nm_to_m


class TestGeometryRoundTrip:
    def test_default_round_trip(self):
        g = DeviceGeometry()
        assert from_record(DeviceGeometry, to_record(g)) == g

    def test_custom_round_trip(self):
        g = DeviceGeometry(
            tunnel_oxide_thickness_m=nm_to_m(6.0),
            control_oxide_thickness_m=nm_to_m(10.0),
            control_gate_area_multiplier=2.5,
        )
        assert from_record(DeviceGeometry, to_record(g)) == g

    def test_validation_reapplied_on_load(self):
        record = to_record(DeviceGeometry())
        record["tunnel_oxide_thickness_m"] = 1e-8  # > control oxide
        with pytest.raises(ConfigurationError):
            from_record(DeviceGeometry, record)


class TestDeviceRoundTrip:
    def test_default_device(self):
        device = FloatingGateTransistor()
        restored = from_record(FloatingGateTransistor, to_record(device))
        assert restored == device

    def test_restored_device_behaves_identically(self):
        device = FloatingGateTransistor()
        restored = from_record(FloatingGateTransistor, to_record(device))
        assert restored.floating_gate_voltage(
            PROGRAM_BIAS
        ) == pytest.approx(device.floating_gate_voltage(PROGRAM_BIAS))
        assert restored.gate_coupling_ratio == pytest.approx(
            device.gate_coupling_ratio
        )

    def test_materials_resolved_by_name(self):
        record = to_record(FloatingGateTransistor())
        assert record["tunnel_dielectric"] == "SiO2"
        restored = from_record(FloatingGateTransistor, record)
        assert restored.tunnel_dielectric.name == "SiO2"

    def test_missing_field_rejected(self):
        record = to_record(FloatingGateTransistor())
        del record["geometry"]
        with pytest.raises(ConfigurationError):
            from_record(FloatingGateTransistor, record)


class TestDesignPointRoundTrip:
    def test_round_trip(self):
        point = DesignPoint(program_voltage_v=16.0, tunnel_oxide_nm=6.0)
        assert from_record(DesignPoint, to_record(point)) == point


class TestExperimentExport:
    def test_result_is_json_safe(self, tmp_path):
        import json

        from repro.experiments import run_experiment

        result = run_experiment("fig6")
        record = experiment_result_to_dict(result)
        text = json.dumps(record)  # must not raise
        assert "fig6" in text
        assert len(record["series"]) == 4
        assert all(c["passed"] for c in record["checks"])

    def test_result_round_trip(self):
        import numpy as np

        from repro.experiments import run_experiment
        result = run_experiment("fig8")
        restored = from_record(
            ExperimentResult, experiment_result_to_dict(result)
        )
        assert restored.experiment_id == result.experiment_id
        assert restored.log_y == result.log_y
        assert len(restored.series) == len(result.series)
        for a, b in zip(restored.series, result.series):
            assert a.label == b.label
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)
        assert [c.passed for c in restored.checks] == [
            bool(c.passed) for c in result.checks
        ]

    def test_round_trip_through_file(self, tmp_path):
        from repro.experiments import run_experiment
        result = run_experiment("fig6")
        path = save_json(
            experiment_result_to_dict(result), tmp_path / "fig6.json"
        )
        restored = from_record(ExperimentResult, load_json(path))
        assert restored.render_plot()  # reconstructable figure

    def test_incomplete_result_record_rejected(self):
        with pytest.raises(ConfigurationError):
            from_record(ExperimentResult, {"experiment_id": "fig6"})

    def test_scenario_result_record_is_json_safe(self):
        import json

        from repro.api import Scenario, SimulationSession

        outcome = SimulationSession().run_scenario(
            Scenario("fig6", overrides={"n_points": 10})
        )
        record = to_record(outcome)
        text = json.dumps(record)
        assert "fig6" in text
        assert record["cache"]["misses"] >= 0


class TestFileIo:
    def test_save_load_round_trip(self, tmp_path):
        record = to_record(FloatingGateTransistor())
        path = save_json(record, tmp_path / "device.json")
        assert load_json(path) == record

    def test_load_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_json(tmp_path / "absent.json")

    def test_load_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": broken')
        with pytest.raises(ConfigurationError) as err:
            load_json(path)
        assert "malformed" in str(err.value)

    def test_save_creates_directories(self, tmp_path):
        path = save_json({"a": 1}, tmp_path / "deep" / "cfg.json")
        assert path.exists()
