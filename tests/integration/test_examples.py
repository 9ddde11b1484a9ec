"""The example scripts stay runnable (smoke tests on the fast ones).

The slower studies (oxide scaling, design optimisation) are exercised
indirectly: every API they touch is covered by the unit and benchmark
suites; running them here would dominate the suite's wall time.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "band_diagram_tour.py",
    "scenario_service.py",
    "nand_array_demo.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_cleanly(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_all_examples_present():
    expected = {
        "quickstart.py",
        "program_erase_transient.py",
        "oxide_scaling_study.py",
        "nand_array_demo.py",
        "design_optimization.py",
        "band_diagram_tour.py",
        "reliability_lifetime.py",
        "scenario_service.py",
    }
    present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert expected <= present


def test_quickstart_reports_paper_numbers():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert "9.00 V" in result.stdout  # eq. (3) headline number
    assert "0.600" in result.stdout  # the paper's GCR
