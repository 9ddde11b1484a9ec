"""Experiment registry and CLI runner."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    PAPER_FIGURES,
    available_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments.runner import main


class TestRegistry:
    def test_all_paper_figures_registered(self):
        available = available_experiments()
        for fid in PAPER_FIGURES:
            assert fid in available

    def test_ablations_registered(self):
        available = available_experiments()
        for aid in ("abl-wkb", "abl-cq", "abl-temp"):
            assert aid in available

    def test_unknown_id_raises_with_listing(self):
        with pytest.raises(ConfigurationError) as err:
            get_experiment("fig99")
        assert "fig6" in str(err.value)

    def test_run_experiment_returns_result(self):
        result = run_experiment("fig6")
        assert result.experiment_id == "fig6"


class TestRunnerCli:
    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "abl-temp" in out

    def test_single_experiment_run(self, capsys):
        code = main(["fig6", "--no-plot"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failures" in out
        assert "fig6" in out

    def test_csv_export(self, tmp_path, capsys):
        code = main(["fig6", "--no-plot", "--csv-dir", str(tmp_path)])
        assert code == 0
        csv_file = tmp_path / "fig6.csv"
        assert csv_file.exists()
        header = csv_file.read_text().splitlines()[0]
        assert header == "series,V_GS [V],J_FN [A/m^2]"

    def test_plot_mode_renders_axes(self, capsys):
        code = main(["fig7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "XTO=4nm" in out

    def test_paper_only_runs_exactly_the_figures(self, capsys):
        code = main(["--paper-only", "--no-plot"])
        out = capsys.readouterr().out
        assert code == 0
        for fid in PAPER_FIGURES:
            assert f"{fid}:" in out
        assert "abl-wkb" not in out
        assert "cmp-si" not in out


class TestRunnerSetOption:
    def test_set_overrides_a_parameter(self, capsys):
        code = main(["fig6", "--no-plot", "--set", "temperature_k=400"])
        out = capsys.readouterr().out
        assert code == 0
        assert "temperature_k=400" in out
        assert "0 failures" in out

    def test_set_parses_json_lists(self, capsys):
        code = main(["fig6", "--no-plot", "--set", "gcrs=[0.45,0.65]"])
        out = capsys.readouterr().out
        assert code == 0
        assert "GCR=45%" in out and "GCR=65%" in out

    def test_unknown_set_key_is_an_error(self, capsys):
        code = main(["fig6", "--no-plot", "--set", "bogus_key=1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "bogus_key" in err

    def test_malformed_set_is_an_error(self, capsys):
        code = main(["fig6", "--no-plot", "--set", "novalue"])
        assert code == 2


class TestRunnerJsonExport:
    def test_json_dir_exports_result(self, tmp_path, capsys):
        import json

        code = main(["fig6", "--no-plot", "--json-dir", str(tmp_path)])
        assert code == 0
        record = json.loads((tmp_path / "fig6.json").read_text())
        assert record["experiment_id"] == "fig6"
        assert len(record["series"]) == 4
        assert all(c["passed"] for c in record["checks"])

    def test_json_round_trip_through_io(self, tmp_path):
        from repro.experiments.base import ExperimentResult
        from repro.io import from_record, load_json

        main(["fig6", "--no-plot", "--json-dir", str(tmp_path)])
        restored = from_record(
            ExperimentResult, load_json(tmp_path / "fig6.json")
        )
        import numpy as np

        from repro.experiments import run_experiment

        fresh = run_experiment("fig6")
        for a, b in zip(restored.series, fresh.series):
            np.testing.assert_allclose(a.y, b.y, rtol=1e-12)


class TestRunnerPlanMode:
    def _write_plan(self, tmp_path):
        import json

        plan = {
            "name": "cli-plan",
            "scenarios": [
                {"experiment_id": "fig6", "overrides": {"n_points": 10}},
                {"experiment_id": "fig8", "overrides": {"n_points": 10}},
                {
                    "experiment_id": "fig7",
                    "sweep": {"temperature_k": [0.0, 300.0]},
                    "overrides": {"n_points": 8},
                },
            ],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return path

    def test_plan_runs_through_one_session(self, tmp_path, capsys):
        code = main(
            ["--plan", str(self._write_plan(tmp_path)), "--no-plot"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 scenarios" in out
        assert "cross-scenario cache hits" in out

    def test_plan_exports_scenario_records(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "out"
        code = main(
            [
                "--plan",
                str(self._write_plan(tmp_path)),
                "--no-plot",
                "--json-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        records = sorted(out_dir.glob("*.json"))
        assert len(records) == 4
        first = json.loads(records[0].read_text())
        assert "scenario" in first and "result" in first

    def test_parallel_plan_exports_match_serial(self, tmp_path, capsys):
        """``--workers 2`` exports what ``--workers 1`` does.

        CSV series match byte for byte. A JSON record also carries the
        run's attribution (``elapsed_s`` and cache counters), which
        differs between any two runs, so its ``scenario`` and
        ``result`` must match byte for byte.
        """
        import json

        plan = {
            "name": "runner-parallel",
            "scenarios": [
                {
                    "experiment_id": "fig6",
                    "overrides": {"n_points": 6},
                    "sweep": {"temperature_k": [300.0, 400.0]},
                },
                {"experiment_id": "abl-temp", "overrides": {"n_points": 4}},
            ],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        exports = {}
        for workers in ("2", "1"):
            out_dir = tmp_path / f"workers-{workers}"
            code = main(
                [
                    "--plan",
                    str(plan_path),
                    "--workers",
                    workers,
                    "--no-plot",
                    "--csv-dir",
                    str(out_dir),
                    "--json-dir",
                    str(out_dir),
                ]
            )
            assert code == 0
            exports[workers] = {}
            for path in sorted(out_dir.iterdir()):
                if path.suffix == ".json":
                    record = json.loads(path.read_text())
                    text = json.dumps(
                        [record["scenario"], record["result"]],
                        sort_keys=True,
                    )
                else:
                    text = path.read_text()
                exports[workers][path.name] = text
        assert len(exports["1"]) == 6  # three scenarios, CSV + JSON each
        assert exports["2"] == exports["1"]
        assert "shard 1:" in capsys.readouterr().out

    def test_plan_conflicts_with_set(self, tmp_path, capsys):
        code = main(
            [
                "--plan",
                str(self._write_plan(tmp_path)),
                "--set",
                "temperature_k=400",
            ]
        )
        assert code == 2

    def test_missing_plan_file_is_an_error(self, tmp_path, capsys):
        code = main(["--plan", str(tmp_path / "absent.json")])
        assert code == 2

    def test_malformed_plan_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"scenarios": [')
        code = main(["--plan", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_repeated_scenarios_export_distinct_files(self, tmp_path, capsys):
        import json

        plan = {
            "scenarios": [
                {"experiment_id": "fig6", "overrides": {"n_points": 8}},
                {"experiment_id": "fig6", "overrides": {"n_points": 8}},
            ]
        }
        plan_path = tmp_path / "twice.json"
        plan_path.write_text(json.dumps(plan))
        out_dir = tmp_path / "out"
        code = main(
            ["--plan", str(plan_path), "--no-plot", "--json-dir", str(out_dir)]
        )
        assert code == 0
        assert len(list(out_dir.glob("*.json"))) == 2
