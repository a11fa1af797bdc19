"""The pure parts of tools/bench_pairs.py: seed lists and the per-metric summary of alternated pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("1801-1803,1810") == [1801, 1802, 1803, 1810]
    assert bench_pairs.parse_seeds("7") == [7]


@pytest.mark.parametrize("better,wins", [("higher", 3), ("lower", 1)])
def test_compare_counts_the_pairs_the_change_won(better, wins):
    parent = [10.0, 12.0, 11.0, 13.0]
    change = [11.0, 13.0, 10.0, 14.0]
    out = bench_pairs.compare(parent, change, better)
    assert out["change_wins"] == wins
    assert out["parent"] == {"q1": 10.75, "median": 11.5, "q3": 12.25}
    assert out["parent_iqr"] == 1.5
    assert out["median_ratio"] == 12.0 / 11.5
    assert out["runs"] == {"parent": parent, "change": change}
