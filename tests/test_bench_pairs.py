"""tools/bench_pairs.py's no-regression verdict, on fixed runs."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def verdict(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs

    return bench_pairs.verdict


# Ten parent runs with median 100 and quartiles [98.25, 101.75]: spread 3.5.
PARENT = [96.0, 97.0, 98.0, 99.0, 99.5, 100.5, 101.0, 102.0, 103.0, 104.0]


def test_within_bound(verdict):
    change = [x * 1.05 for x in PARENT]
    assert verdict(PARENT, change, 0.1, lower=True) == "within bound"
    assert verdict(PARENT, change, 0.1, lower=False) == "within bound"


def test_worse_reads_the_better_direction(verdict):
    # Median 115: 15 worse where lower is better, 15 better where higher is.
    change = [x + 15.0 for x in PARENT]
    assert verdict(PARENT, change, 0.1, lower=True) == "worse"
    assert verdict(PARENT, change, 0.1, lower=False) == "within bound"
    assert verdict(PARENT, [x - 15.0 for x in PARENT], 0.1, lower=False) == "worse"


def test_the_bound_is_relative_to_the_parent_median(verdict):
    # 9.9 worse than the parent's 100 is within a 0.1 bound; 10.1 is not.
    assert verdict(PARENT, [x + 9.9 for x in PARENT], 0.1, lower=True) == "within bound"
    assert verdict(PARENT, [x + 10.1 for x in PARENT], 0.1, lower=True) == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved(verdict):
    # The parent's quartile spread, 3.5, is over 0.03 of its median.
    assert verdict(PARENT, list(PARENT), 0.03, lower=True) == "unresolved"
    # Unless every change run beats every parent run.
    faster = [x - 10.0 for x in PARENT[:5]] * 2
    assert max(faster) < min(PARENT)
    assert verdict(PARENT, faster, 0.03, lower=True) == "within bound"
    # A median worse by more than the bound is worse, spread or not.
    assert verdict(PARENT, [x + 4.0 for x in PARENT], 0.03, lower=True) == "worse"


def test_one_run_per_side(verdict):
    assert verdict([100.0], [109.0], 0.1, lower=True) == "within bound"
    assert verdict([100.0], [111.0], 0.1, lower=True) == "worse"
