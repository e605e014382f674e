"""Self-tests for the benchmark's helpers (no program, no timing).

Run with ``python3 -m pytest perfbench/test_helpers.py``.
"""

import itertools

import pytest

from helpers import (
    beyond,
    blob_row,
    derive_seed,
    key_indices,
    layer_table,
    percentile,
    self_times,
    spread,
    sweep_seeds,
    tail,
)


def test_tail_needs_ten_samples_beyond_it():
    assert beyond(100, 0.90) == 10
    assert tail(list(range(1, 101))) == 90
    assert beyond(99, 0.90) == 9
    with pytest.raises(ValueError, match="needs 10 samples beyond"):
        tail(list(range(99)))
    # A lower percentile is reportable on fewer samples.
    assert tail(list(range(1, 21)), q=0.5) == 10
    with pytest.raises(ValueError):
        tail([1.0] * 5, q=0.5)


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 0.5) == 3
    assert percentile(values, 0.2) == 1
    assert percentile(values, 1.0) == 5
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_self_time_subtracts_children_once():
    spans = [
        # id, parent, name, start, end, cpu, tag
        (1, 0, "outer", 0.0, 10.0, 6.0, None),
        (2, 1, "child", 1.0, 4.0, 1.0, None),
        (3, 1, "child", 3.0, 5.0, 1.0, None),  # overlaps the first child
        (4, 2, "grandchild", 1.5, 2.0, 0.5, None),
        (5, 0, "other", 20.0, 21.0, 1.0, None),
    ]
    times = self_times(spans)
    assert times[1] == pytest.approx((10.0 - 4.0, 6.0 - 2.0))
    assert times[2] == pytest.approx((3.0 - 0.5, 0.5))
    assert times[4] == pytest.approx((0.5, 0.5))
    assert times[5] == pytest.approx((1.0, 1.0))
    table = layer_table(spans)
    assert table["child"]["count"] == 2
    assert table["child"]["busy_s"] == pytest.approx(5.0)
    assert table["child"]["self_s"] == pytest.approx(2.5 + 2.0)
    # Waiting is self time spent off CPU: 6 s self, 4 s of it on CPU.
    assert table["outer"]["wait_s"] == pytest.approx(2.0)


def test_a_child_reaching_past_its_parent_is_clipped():
    spans = [
        (1, 0, "outer", 0.0, 2.0, 0.0, None),
        (2, 1, "child", 1.0, 3.0, 0.0, None),
    ]
    assert self_times(spans)[1][0] == pytest.approx(1.0)


def test_same_seed_same_inputs():
    assert sweep_seeds(7, "sweep", 5) == sweep_seeds(7, "sweep", 5)
    assert sweep_seeds(7, "sweep", 5) != sweep_seeds(8, "sweep", 5)
    # Purposes never share seeds: no sweep can be a cache hit on another.
    assert not set(sweep_seeds(7, "sweep", 50)) & set(sweep_seeds(7, "warm-up", 50))
    assert len(set(sweep_seeds(7, "sweep", 50))) == 50
    first = list(itertools.islice(key_indices(7, 0, 8192), 1000))
    assert first == list(itertools.islice(key_indices(7, 0, 8192), 1000))
    assert first != list(itertools.islice(key_indices(7, 1, 8192), 1000))
    assert all(0 <= i < 8192 for i in first)
    assert blob_row(7, 3) == blob_row(7, 3) != blob_row(8, 3)
    assert derive_seed(7, "a", 1) != derive_seed(7, "a1")


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0, 9.5, 10.5, 10.0]
    assert 0.0 < spread(values) < 0.1
