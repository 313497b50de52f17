"""Reuse-distance tracking for the utility monitor.

The UMON-style monitor (Section 7) must know, for each candidate
partition size, how many recent accesses *would have hit* in a partition
of that size. For an LRU-managed cache this is classical Mattson stack
analysis: an access hits in a cache of capacity ``C`` lines exactly when
its *reuse distance* — the number of distinct lines touched since the
previous access to the same line — is smaller than ``C``. One pass over
the access stream therefore yields hit counts for *all* candidate sizes
simultaneously, which is exactly the property UMON's single shadow-tag
array exploits in hardware.

:class:`ReuseDistanceTracker` computes reuse distances online in
O(log n) per access with a Fenwick tree over access timestamps holding
one marker at each line's last-access position. Only the markers'
relative order matters, so the batched path periodically renumbers
them 1..D (D = distinct lines) and rebuilds the tree: its size stays
proportional to the working set instead of to the number of
observations.
"""

from __future__ import annotations

from repro.errors import SimulationError


class FenwickTree:
    """A binary indexed tree over a growable range of positions."""

    __slots__ = ("_tree", "_size")

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise SimulationError("Fenwick capacity must be >= 1")
        self._size = capacity
        self._tree = [0] * (capacity + 1)

    def _grow(self, needed: int) -> None:
        new_size = self._size
        while new_size < needed:
            new_size *= 2
        # Rebuild from per-position values (O(n log n), amortized by doubling).
        # A node's point value is its range sum minus its direct children's
        # range sums (the children tile the rest of the node's range).
        tree = self._tree
        values = [0] * (self._size + 1)
        for i in range(1, self._size + 1):
            value = tree[i]
            child = i - 1
            stop = i - (i & -i)
            while child > stop:
                value -= tree[child]
                child -= child & -child
            values[i] = value
        new_tree = [0] * (new_size + 1)
        for i in range(1, self._size + 1):
            if values[i]:
                j = i
                while j <= new_size:
                    new_tree[j] += values[i]
                    j += j & -j
        self._tree = new_tree
        self._size = new_size

    @classmethod
    def of_ones(cls, count: int, capacity: int) -> "FenwickTree":
        """A tree holding 1 at positions ``1..count``, built in O(capacity)."""
        tree = cls(capacity)
        values = tree._tree
        for position in range(1, count + 1):
            values[position] = 1
        for position in range(1, capacity + 1):
            parent = position + (position & -position)
            if parent <= capacity:
                values[parent] += values[position]
        return tree

    def add(self, position: int, delta: int) -> None:
        """Add ``delta`` at a 1-based position."""
        if position < 1:
            raise SimulationError("Fenwick positions are 1-based")
        if position > self._size:
            self._grow(position)
        tree = self._tree
        while position <= self._size:
            tree[position] += delta
            position += position & -position

    def prefix_sum(self, position: int) -> int:
        """Sum of values at positions ``1..position``."""
        if position > self._size:
            position = self._size
        total = 0
        tree = self._tree
        while position > 0:
            total += tree[position]
            position -= position & -position
        return total

    def range_sum(self, low: int, high: int) -> int:
        """Sum of values at positions ``low..high`` inclusive."""
        if high < low:
            return 0
        return self.prefix_sum(high) - self.prefix_sum(low - 1)


#: Sentinel reuse distance for a first-touch (cold) access.
COLD_DISTANCE = -1

#: :meth:`ReuseDistanceTracker.observe_run` renumbers the live markers
#: once the clock would pass this multiple of ``max(distinct lines,
#: _COMPACT_FLOOR)``, so the tree never outgrows a few times the
#: working set.
_COMPACT_FACTOR = 4
_COMPACT_FLOOR = 1024


class ReuseDistanceTracker:
    """Online LRU reuse distances over a line-address stream."""

    __slots__ = ("_fenwick", "_last_position", "_clock")

    def __init__(self):
        self._fenwick = FenwickTree()
        self._last_position: dict[int, int] = {}
        self._clock = 0

    @property
    def distinct_lines(self) -> int:
        """Number of distinct lines observed so far."""
        return len(self._last_position)

    def observe(self, line_addr: int) -> int:
        """Record one access; returns its reuse distance.

        Returns :data:`COLD_DISTANCE` for the first access to a line.
        The reuse distance is the number of *distinct other* lines
        accessed since the previous access to ``line_addr``; the access
        hits in an LRU cache of capacity ``C`` iff ``0 <= distance < C``.
        """
        self._clock += 1
        now = self._clock
        previous = self._last_position.get(line_addr)
        if previous is None:
            distance = COLD_DISTANCE
        else:
            distance = self._fenwick.range_sum(previous + 1, now - 1)
            self._fenwick.add(previous, -1)
        self._fenwick.add(now, 1)
        self._last_position[line_addr] = now
        return distance

    def observe_run(self, line_addrs: list[int]) -> list[int]:
        """Record a run of accesses; returns their reuse distances.

        All-integer arithmetic, so the distances are exactly those of
        per-address :meth:`observe` calls; the tree is pre-grown to the
        run's last timestamp and the Fenwick walks are inlined over local
        references, which is what makes this the batched monitor's hot
        path. Before the run, a clock that would outgrow a few times the
        working set is compacted (:meth:`_compact`), which keeps the
        tree small without changing any distance.
        """
        last_position = self._last_position
        distinct = len(last_position)
        limit = _COMPACT_FACTOR * max(distinct, _COMPACT_FLOOR)
        if self._clock + len(line_addrs) > limit and self._clock > distinct:
            self._compact(limit)
        fenwick = self._fenwick
        clock = self._clock
        if clock + len(line_addrs) > fenwick._size:
            fenwick._grow(clock + len(line_addrs))
        tree = fenwick._tree
        size = fenwick._size
        get_previous = last_position.get
        distances: list[int] = []
        append = distances.append
        for line_addr in line_addrs:
            clock += 1
            previous = get_previous(line_addr)
            if previous is None:
                append(COLD_DISTANCE)
            else:
                # range_sum(previous + 1, clock - 1) as two prefix walks.
                total = 0
                position = clock - 1
                while position > 0:
                    total += tree[position]
                    position -= position & -position
                position = previous
                while position > 0:
                    total -= tree[position]
                    position -= position & -position
                append(total)
                position = previous
                while position <= size:
                    tree[position] -= 1
                    position += position & -position
            position = clock
            while position <= size:
                tree[position] += 1
                position += position & -position
            last_position[line_addr] = clock
        self._clock = clock
        return distances

    def _compact(self, capacity: int) -> None:
        """Renumber the live markers 1..D in order; rebuild the tree.

        A reuse distance counts the markers strictly between two
        timestamps, which depends only on the markers' relative order,
        so every future distance is unchanged.
        """
        last_position = self._last_position
        for rank, line_addr in enumerate(
            sorted(last_position, key=last_position.__getitem__), 1
        ):
            last_position[line_addr] = rank
        self._clock = len(last_position)
        self._fenwick = FenwickTree.of_ones(self._clock, capacity)

    def reset(self) -> None:
        """Forget all history (used when a monitor is cleared)."""
        self._fenwick = FenwickTree()
        self._last_position.clear()
        self._clock = 0
