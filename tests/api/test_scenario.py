"""Scenario: expansion semantics and the JSON round trip."""

import pytest

from repro.api import Scenario
from repro.errors import ConfigurationError
from repro.io import from_record, to_record


class TestValidation:
    def test_needs_experiment_id(self):
        with pytest.raises(ConfigurationError):
            Scenario(experiment_id="")

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario("fig6", sweep={"temperature_k": []})

    def test_override_sweep_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                "fig6",
                overrides={"temperature_k": 300.0},
                sweep={"temperature_k": [0.0, 300.0]},
            )


class TestExpansion:
    def test_no_sweep_expands_to_itself(self):
        scenario = Scenario("fig6", overrides={"n_points": 12})
        assert scenario.expand() == (scenario,)

    def test_cartesian_product(self):
        family = Scenario(
            "fig6",
            sweep={
                "temperature_k": [0.0, 300.0],
                "tunnel_oxide_nm": [4.0, 5.0, 6.0],
            },
        )
        expanded = family.expand()
        assert len(expanded) == 6
        points = {
            (s.overrides["temperature_k"], s.overrides["tunnel_oxide_nm"])
            for s in expanded
        }
        assert (300.0, 4.0) in points and (0.0, 6.0) in points
        assert all(not s.sweep for s in expanded)

    def test_expansion_keeps_base_overrides(self):
        family = Scenario(
            "fig6",
            overrides={"n_points": 8},
            sweep={"temperature_k": [0.0, 300.0]},
        )
        assert all(
            s.overrides["n_points"] == 8 for s in family.expand()
        )

    def test_expanded_labels_identify_the_point(self):
        family = Scenario("fig6", sweep={"temperature_k": [300.0]})
        assert "temperature_k=300.0" in family.expand()[0].name


class TestJsonRoundTrip:
    def test_dict_round_trip(self):
        scenario = Scenario(
            "fig7",
            overrides={"gcr": 0.5, "tunnel_oxides_nm": (4.0, 6.0, 8.0)},
            sweep={"temperature_k": [0.0, 300.0]},
            label="oxide-study",
        )
        assert from_record(Scenario, to_record(scenario)) == scenario

    def test_file_round_trip(self, tmp_path):
        scenario = Scenario("fig6", overrides={"temperature_k": 400.0})
        path = scenario.save(tmp_path / "scenario.json")
        assert Scenario.load(path) == scenario

    def test_record_is_plain_json(self):
        import json

        record = to_record(
            Scenario("fig6", overrides={"gcrs": (0.4, 0.6)})
        )
        assert json.loads(json.dumps(record)) == record

    def test_unknown_record_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            from_record(Scenario, {"experiment_id": "fig6", "bogus": 1})

    def test_missing_id_rejected(self):
        with pytest.raises(ConfigurationError):
            from_record(Scenario, {"overrides": {}})
