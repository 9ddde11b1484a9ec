"""The correctness oracles catch perturbed results; the reporting counts them."""

from pathlib import Path

import numpy as np
import pytest

import oracle
import run
from repro.api import SimulationSession

GOLDENS = Path(__file__).resolve().parents[2] / "tests" / "golden" / "snapshots"


@pytest.fixture(scope="module")
def goldens():
    return oracle.load_goldens(GOLDENS)


def _fresh(experiment_id):
    return SimulationSession(seed=987654).run(experiment_id)


def _scale_one_point(result, factor):
    y = result.series[0].y
    y[len(y) // 2] *= factor
    return result


def test_defaults_match_the_goldens(goldens):
    results = [_fresh(e) for e in ("fig6", "mem-array")]
    assert oracle.check_goldens(results, {e: goldens[e] for e in ("fig6", "mem-array")}) is None


def test_golden_check_catches_a_perturbed_point(goldens):
    result = _scale_one_point(_fresh("fig6"), 1.0 + 1e-6)
    problem = oracle.check_goldens([result], {"fig6": goldens["fig6"]})
    assert problem is not None and "drifted" in problem


def test_golden_check_tolerates_last_digit_noise(goldens):
    result = _scale_one_point(_fresh("fig6"), 1.0 + 1e-12)
    assert oracle.check_goldens([result], {"fig6": goldens["fig6"]}) is None


def test_golden_check_catches_a_missing_experiment(goldens):
    problem = oracle.check_goldens([_fresh("fig6")], goldens)
    assert problem is not None


def test_exact_form_catches_one_ulp():
    want = oracle.exact_form([_fresh("fig7")])
    result = _fresh("fig7")
    y = result.series[0].y
    y[0] = np.nextafter(y[0], np.inf)
    assert oracle.check_identical(oracle.exact_form([result]), want) is not None
    assert oracle.check_identical(oracle.exact_form([_fresh("fig7")]), want) is None


def test_exact_form_catches_a_count_mismatch():
    want = oracle.exact_form([_fresh("fig7")])
    assert oracle.check_identical([], want) is not None


def test_sources_must_all_match():
    assert oracle.check_sources(["store"] * 3, "store") is None
    assert oracle.check_sources(["store", "computed"], "store") is not None
    assert oracle.check_sources(["inflight"], "computed") is not None


def _op(index, wall_s, problem=None, scenarios=10):
    op = run.Op(index, 100.0 + index, 100.0 + index + wall_s, None)
    op.problem = problem
    op.scenarios = 0 if problem else scenarios
    return op


def test_a_failed_op_counts_against_ok_share():
    ops = [_op(0, 0.1), _op(1, 0.1, problem="result 0 differs")]
    metrics, _ = run.end_to_end(ops, [1.0], 50.0)
    assert metrics["ok_share"] == 0.5
    assert metrics["scenarios_per_s"] == pytest.approx(10 / 0.2)


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    value, percentile = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(90.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)

