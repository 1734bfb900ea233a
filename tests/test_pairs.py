"""The summary of ``tools/pairs.py``, on fixed rows."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

METRICS = [{"name": "episodes_per_s", "unit": "1/s", "better": "higher"},
           {"name": "op_s.p90", "unit": "s", "better": "lower"}]


def _result(rate, p90, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"episodes_per_s": {"value": rate, "unit": "1/s"},
                        "op_s.p90": {"value": p90, "unit": "s"}}}


def test_summary_gives_medians_the_base_iqr_and_the_changes_wins():
    # a tie counts for neither side; a lower p90 is a win
    rows = [(_result(50.0, 0.20), _result(52.0, 0.19)),
            (_result(54.0, 0.18), _result(54.0, 0.18)),
            (_result(51.0, 0.17), _result(50.0, 0.21)),
            (_result(53.0, 0.19), _result(55.0, 0.18)),
            (_result(52.0, 0.20), _result(53.0, 0.20))]
    assert pairs.summarize(rows, METRICS) == [
        # base 50 51 52 53 54: median 52, inclusive quartiles 51 and 53
        ("episodes_per_s", "1/s", 52.0, 53.0, 2.0, 3),
        # base .17 .18 .19 .20 .20: quartiles .18 and .20
        ("op_s.p90", "s", 0.19, 0.19, pytest.approx(0.02), 2)]


def test_one_pair_has_no_spread():
    rows = [(_result(50.0, 0.2), _result(49.0, 0.1))]
    assert pairs.summarize(rows, METRICS) == [
        ("episodes_per_s", "1/s", 50.0, 49.0, 0.0, 0),
        ("op_s.p90", "s", 0.2, 0.1, 0.0, 1)]


def test_a_crashed_incorrect_or_failing_run_counts_as_a_failure():
    assert pairs.failures([_result(1.0, 1.0)] * 3) == 0
    assert pairs.failures([_result(1.0, 1.0), None,
                           _result(1.0, 1.0, correct=False),
                           _result(1.0, 1.0, failed=2)]) == 3
