"""Tests for the Fenwick tree and reuse-distance tracker (the monitor oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from tests.monitor.reuse_oracle import (
    _COMPACT_FACTOR,
    _COMPACT_FLOOR,
    COLD_DISTANCE,
    FenwickTree,
    ReuseDistanceTracker,
    naive_reuse_distances,
)


class TestFenwickTree:
    def test_prefix_sums(self):
        tree = FenwickTree(8)
        tree.add(3, 5)
        tree.add(5, 2)
        assert tree.prefix_sum(2) == 0
        assert tree.prefix_sum(3) == 5
        assert tree.prefix_sum(8) == 7

    def test_range_sum(self):
        tree = FenwickTree(8)
        for i in range(1, 9):
            tree.add(i, 1)
        assert tree.range_sum(3, 5) == 3
        assert tree.range_sum(5, 3) == 0

    def test_growth(self):
        tree = FenwickTree(2)
        tree.add(1, 7)
        tree.add(100, 3)  # forces growth, must preserve prior values
        assert tree.prefix_sum(1) == 7
        assert tree.prefix_sum(100) == 10

    def test_validation(self):
        with pytest.raises(SimulationError):
            FenwickTree(0)
        with pytest.raises(SimulationError):
            FenwickTree(4).add(0, 1)

    def test_prefix_beyond_capacity_clamps(self):
        tree = FenwickTree(4)
        tree.add(2, 3)
        assert tree.prefix_sum(1000) == 3

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.sampled_from([1, 2, 3, 5, 8]),
        updates=st.lists(
            st.tuples(st.integers(1, 40), st.integers(-3, 3)),
            min_size=1,
            max_size=30,
        ),
    )
    def test_growth_preserves_every_prefix_sum(self, capacity, updates):
        """_grow rebuilds point values exactly, whatever the tree holds.

        Regression test for the point-value extraction: a Fenwick node's
        value must be recovered as its range sum minus its *direct
        children's* range sums; growth from any mid-stream state (mixed
        signs, cancelled positions, non-power-of-two capacities) must
        leave all prefix sums unchanged.
        """
        tree = FenwickTree(capacity)
        reference = {}
        for position, delta in updates:
            tree.add(position, delta)  # may grow mid-stream
            reference[position] = reference.get(position, 0) + delta
        tree._grow(4 * tree._size)  # and one explicit final growth
        for position in range(1, max(reference) + 2):
            expected = sum(v for p, v in reference.items() if p <= position)
            assert tree.prefix_sum(position) == expected


class TestReuseDistanceTracker:
    def test_cold_misses(self):
        tracker = ReuseDistanceTracker()
        assert tracker.observe(1) == COLD_DISTANCE
        assert tracker.observe(2) == COLD_DISTANCE

    def test_immediate_reuse_distance_zero(self):
        tracker = ReuseDistanceTracker()
        tracker.observe(1)
        assert tracker.observe(1) == 0

    def test_one_intervening_line(self):
        tracker = ReuseDistanceTracker()
        tracker.observe(1)
        tracker.observe(2)
        assert tracker.observe(1) == 1

    def test_repeated_intervening_counts_once(self):
        tracker = ReuseDistanceTracker()
        tracker.observe(1)
        tracker.observe(2)
        tracker.observe(2)
        tracker.observe(2)
        assert tracker.observe(1) == 1

    def test_scan_distance_is_working_set_minus_one(self):
        tracker = ReuseDistanceTracker()
        ws = 16
        for addr in range(ws):
            tracker.observe(addr)
        assert tracker.observe(0) == ws - 1

    def test_distinct_lines(self):
        tracker = ReuseDistanceTracker()
        for addr in [1, 2, 1, 3]:
            tracker.observe(addr)
        assert tracker.distinct_lines == 3

    def test_reset(self):
        tracker = ReuseDistanceTracker()
        tracker.observe(1)
        tracker.reset()
        assert tracker.observe(1) == COLD_DISTANCE
        assert tracker.distinct_lines == 1


@settings(max_examples=40, deadline=None)
@given(addresses=st.lists(st.integers(0, 25), min_size=1, max_size=250))
def test_tracker_matches_naive_reference(addresses):
    tracker = ReuseDistanceTracker()
    assert [tracker.observe(a) for a in addresses] == naive_reuse_distances(
        addresses
    )


@settings(max_examples=40, deadline=None)
@given(
    runs=st.lists(
        st.lists(st.integers(0, 25), min_size=0, max_size=60),
        min_size=1,
        max_size=6,
    )
)
def test_observe_run_matches_observe_loop(runs):
    """The batched tracker path is exact: distances and final state.

    Runs are interleaved with scalar observes (one per run boundary) so
    the batched path is exercised from arbitrary mid-stream states, not
    just a fresh tracker.
    """
    batched = ReuseDistanceTracker()
    scalar = ReuseDistanceTracker()
    for run in runs:
        assert batched.observe_run(run) == [scalar.observe(a) for a in run]
        assert batched.observe(99) == scalar.observe(99)
        assert batched._clock == scalar._clock
        assert batched._last_position == scalar._last_position
    probe = list(range(26)) + [99]
    assert batched.observe_run(probe) == [scalar.observe(a) for a in probe]


@settings(max_examples=20, deadline=None)
@given(
    addresses=st.lists(st.integers(0, 15), min_size=1, max_size=150),
    capacity=st.sampled_from([1, 2, 4, 8]),
)
def test_reuse_distance_predicts_fa_lru_hits(addresses, capacity):
    """distance < C  <=>  hit in a fully-associative LRU cache of C lines."""
    from repro.sim.cache import SetAssociativeCache

    tracker = ReuseDistanceTracker()
    cache = SetAssociativeCache(1, capacity)
    for addr in addresses:
        distance = tracker.observe(addr)
        hit = cache.access(addr)
        assert hit == (distance != COLD_DISTANCE and distance < capacity)


class TestCompaction:
    """The oracle's observe_run renumbers its markers; distances never move."""

    @staticmethod
    def _runs(seed, lines, total):
        rng = np.random.default_rng(seed)
        runs, done = [], 0
        while done < total:
            size = int(rng.integers(0, 400))
            runs.append(rng.integers(0, lines, size=size).tolist())
            done += size
        return runs

    @pytest.mark.parametrize("lines", [50, 3000])
    def test_distances_match_a_non_compacting_tracker(self, lines):
        compacting = ReuseDistanceTracker()
        plain = ReuseDistanceTracker()  # per-address observe never compacts
        for run in self._runs(lines, lines, 30_000):
            assert compacting.observe_run(run) == [plain.observe(a) for a in run]
        assert compacting.distinct_lines == plain.distinct_lines
        # The plain tree grew with every observation; the compacting one
        # stays a few times the working set.
        bound = 2 * _COMPACT_FACTOR * max(lines, _COMPACT_FLOOR)
        assert compacting._fenwick._size <= bound < plain._fenwick._size
