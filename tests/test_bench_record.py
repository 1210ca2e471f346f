"""The verdicts of scripts/bench_record.py."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _entry(parent, change, wins, better="higher", bound=0.2):
    """A metric entry with (median, q1, q3) per side."""
    side = lambda m, q1, q3: {"median": m, "q1": q1, "q3": q3}
    return {
        "better": better,
        "bound": bound,
        "parent": side(*parent),
        "change": side(*change),
        "change_wins": wins,
    }


class TestVerdict:
    # the change doubles the median and wins every pair
    CLEAR = ((100.0, 98.0, 102.0), (200.0, 196.0, 204.0))

    def test_gain_from_ten_pairs(self):
        assert bench_record.verdict(_entry(*self.CLEAR, wins=10), 10) == "gain"
        assert bench_record.verdict(_entry(*self.CLEAR, wins=9), 10) == "gain"

    @pytest.mark.parametrize("pairs", [2, 3, 9])
    def test_no_gain_from_fewer_pairs(self, pairs):
        assert bench_record.verdict(_entry(*self.CLEAR, wins=pairs), pairs) == "unchanged"

    def test_too_few_wins(self):
        assert bench_record.verdict(_entry(*self.CLEAR, wins=8), 10) == "unchanged"

    def test_improvement_inside_the_parent_spread(self):
        entry = _entry((100.0, 90.0, 110.0), (105.0, 104.0, 106.0), wins=10)
        assert bench_record.verdict(entry, 10) == "unchanged"

    @pytest.mark.parametrize("pairs", [3, 10])
    def test_regressed(self, pairs):
        entry = _entry((10.0, 9.9, 10.1), (13.0, 12.9, 13.1), wins=0, better="lower")
        assert bench_record.verdict(entry, pairs) == "regressed"

    def test_lower_is_better_gain(self):
        entry = _entry((10.0, 9.9, 10.1), (5.0, 4.9, 5.1), wins=10, better="lower")
        assert bench_record.verdict(entry, 10) == "gain"

    def test_unresolved(self):
        entry = _entry((100.0, 70.0, 130.0), (101.0, 99.0, 103.0), wins=5)
        assert bench_record.verdict(entry, 10) == "unresolved"
