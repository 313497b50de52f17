"""UMON-style LLC utilization monitor (Section 7 of the paper).

For each security domain, the monitor estimates how many LLC hits the
domain's recent accesses would have achieved under *each* supported
partition size. The hardware realization is a tag-only shadow table over
sampled sets; the software model here is the equivalent Mattson stack
analysis. An access hits in an LRU partition of ``C`` lines exactly when
fewer than ``C`` distinct other lines were touched since its previous
access, so one pass yields hits at every candidate size.

The monitor only needs each access's *bin*: the smallest candidate size
it would hit, or "misses everywhere". It keeps a capped LRU recency
stack with one boundary pointer per candidate size, which yields that
bin directly instead of an exact reuse distance (see
:class:`UMONMonitor`).

Two operating modes matter for the paper:

* **Untangle mode** (``timing_independent=True``): the monitor is fed
  only *retired, public* post-L1 accesses in program order — secret-
  annotated accesses are filtered out upstream (Principle 1 plus
  annotations, Section 5.2).
* **Conventional mode** (``timing_independent=False``): every post-L1
  access is monitored, including secret-dependent ones. The scheme's
  actions then depend on secrets — the leakage Untangle eliminates.

Set sampling (``sampling_shift``) monitors only lines whose address
hashes into ``1 / 2**shift`` of the space and scales counts back up,
like UMON's sampled shadow sets.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: The recency stack renumbers its live lines densely once its slot
#: list reaches this multiple of ``max(deepest capacity, floor)``.
_COMPACT_FACTOR = 4
_COMPACT_FLOOR = 16


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: cheap avalanching hash for set sampling.

    Sampling on raw low address bits correlates with strided access
    patterns — a stride that is a multiple of ``2**shift`` is sampled at
    100% or 0%, biasing the hits-per-size curve. Hashing first makes the
    sampled subset pattern-independent (like UMON's set hashing).
    """
    x = int(x) & _MASK64
    x = (x ^ (x >> 33)) * 0xFF51AFD7ED558CCD & _MASK64
    x = (x ^ (x >> 33)) * 0xC4CEB9FE1A85EC53 & _MASK64
    return x ^ (x >> 33)


_U64_SHIFT = np.uint64(33)
_U64_MULT1 = np.uint64(0xFF51AFD7ED558CCD)
_U64_MULT2 = np.uint64(0xC4CEB9FE1A85EC53)


def mix64_array(addrs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_mix64` over an address array; returns uint64.

    Bit-identical to the scalar finalizer: the int64 → uint64 cast is the
    two's-complement reinterpretation (``x & _MASK64``), and uint64
    multiplication wraps modulo ``2**64`` exactly like the masked Python
    product. Streams hash their addresses once through this and reuse the
    result every pass (:attr:`repro.sim.cpu.InstructionStream.hashed_addresses`).
    """
    x = addrs.astype(np.uint64)
    x = (x ^ (x >> _U64_SHIFT)) * _U64_MULT1
    x = (x ^ (x >> _U64_SHIFT)) * _U64_MULT2
    return x ^ (x >> _U64_SHIFT)


class UMONMonitor:
    """Per-domain shadow monitor producing hits-per-candidate-size curves.

    Parameters
    ----------
    candidate_sizes:
        Ascending partition sizes (in lines) to evaluate — the scheme's
        action alphabet.
    window:
        Monitor window ``M_w``: the approximate number of recent monitored
        accesses summarized by a snapshot ("the monitor only considers the
        past M_w retired memory instructions", Section 8). Implemented as
        exponential aging: when the epoch exceeds the window, accumulated
        counts are halved.
    sampling_shift:
        Monitor only addresses with ``hash(addr) % 2**shift == 0``;
        counts are scaled by ``2**shift``. Zero monitors everything.
    timing_independent:
        Declared compliance with Principle 1; checked by
        :func:`repro.core.principles.require_timing_independent_metric`.

    The sampled lines form an LRU recency stack: ``_last`` maps each
    tracked line to the timestamp of its latest access, and
    ``_slots[t]`` holds the line last accessed at ``t`` (``None`` once
    that line moved on or was forgotten). Candidate size ``j`` has the
    capacity ``ceil(size_j / 2**shift)`` in sampled lines (the sampled
    stack stands for ``2**shift`` times as many lines), and boundary
    ``_bounds[j]`` is the timestamp of the ``capacity_j``-th most
    recent tracked line, or -1 while fewer lines are tracked. An access
    whose previous timestamp is ``p`` hits at size ``j`` exactly when
    ``p >= _bounds[j]``, so its bin is ``#{j : p < _bounds[j]}``; every
    boundary at or above ``p`` then moves up to the next live slot.
    Lines that fall below the deepest boundary can only miss at every
    size on their next access, the same bin as a cold access, so they
    are forgotten: the stack holds at most the deepest capacity's lines.
    """

    def __init__(
        self,
        candidate_sizes: tuple[int, ...] | list[int],
        window: int = 100_000,
        sampling_shift: int = 0,
        timing_independent: bool = True,
    ):
        sizes = list(candidate_sizes)
        if not sizes or sizes != sorted(set(sizes)):
            raise ConfigurationError("candidate sizes must be unique and ascending")
        if window < 1:
            raise ConfigurationError("monitor window must be >= 1")
        if sampling_shift < 0:
            raise ConfigurationError("sampling shift must be non-negative")
        self._sizes = sizes
        self._window = window
        self._sampling_shift = sampling_shift
        self._sampling_mask = (1 << sampling_shift) - 1
        self._scale = float(1 << sampling_shift)
        self.timing_independent = timing_independent
        # Sizes whose capacities collide (say 16 and 32 lines at shift 5)
        # keep equal boundaries.
        self._capacities = [-(-size >> sampling_shift) for size in sizes]
        self._compact_at = _COMPACT_FACTOR * max(
            self._capacities[-1], _COMPACT_FLOOR
        )
        self._last: dict[int, int] = {}
        self._slots: list[int | None] = []
        # One boundary per size, then a -2 sentinel below every
        # timestamp that ends the boundary scans.
        self._bounds = [-1] * len(sizes) + [-2]
        # _bins[i] counts accesses whose smallest hitting size is sizes[i];
        # the last bin collects accesses that miss at every candidate size.
        self._bins = np.zeros(len(sizes) + 1, dtype=np.float64)
        self._epoch_accesses = 0.0
        self.total_observed = 0
        #: Accesses that passed the set-sampling filter (== fed to the
        #: recency stack; equals ``total_observed`` when sampling is
        #: off). Exported on the ``sim.run`` trace span, so campaigns
        #: can verify the sampling rate the monitor actually achieved.
        self.sampled_observed = 0

    # ------------------------------------------------------------------
    @property
    def candidate_sizes(self) -> list[int]:
        return list(self._sizes)

    @property
    def window(self) -> int:
        return self._window

    @property
    def uses_address_hashes(self) -> bool:
        """Whether :meth:`observe_block` can use precomputed address hashes."""
        return self._sampling_mask != 0

    # ------------------------------------------------------------------
    def observe(self, line_addr: int) -> None:
        """Feed one post-L1 access (already annotation-filtered upstream)."""
        self.total_observed += 1
        if self._sampling_mask and (_mix64(line_addr) & self._sampling_mask):
            return
        self.sampled_observed += 1
        self._observe_lines([line_addr])

    def observe_block(
        self, addrs: np.ndarray, hashes: np.ndarray | None = None
    ) -> None:
        """Feed a run of post-L1 accesses in one call.

        Equivalent, counter for counter and bit for bit, to calling
        :meth:`observe` once per address in order: the sampling filter
        applies the same hash test (vectorized) and both feed the same
        stack walk. ``hashes`` optionally carries precomputed SplitMix64
        hashes aligned with ``addrs``.
        """
        self.total_observed += int(addrs.shape[0])
        if self._sampling_mask:
            if hashes is None:
                hashes = mix64_array(addrs)
            keep = (hashes & np.uint64(self._sampling_mask)) == 0
            addrs = addrs[keep]
            if not addrs.shape[0]:
                return
        self.sampled_observed += int(addrs.shape[0])
        self._observe_lines(addrs.tolist())

    def _observe_lines(self, lines: list[int]) -> None:
        """Bin sampled accesses in order and age the window counters.

        The counters are replayed as local Python floats with the
        per-access ``+= 1.0`` / halving sequence (IEEE-754 identical to
        the numpy scalar ops) and written back once.
        """
        last = self._last
        slots = self._slots
        bounds = self._bounds
        deepest = len(self._sizes) - 1
        cold_bin = deepest + 1
        compact_at = self._compact_at
        get_last = last.get
        append = slots.append
        clock = len(slots)
        scale = self._scale
        window = self._window
        bins = self._bins.tolist()
        epoch = self._epoch_accesses
        for line in lines:
            if clock >= compact_at:
                self._compact()
                clock = len(slots)
            previous = get_last(line)
            last[line] = clock
            append(line)
            clock += 1
            if previous is None:
                bin_index = cold_bin
                if bounds[deepest] < 0:
                    self._warm_up()
                else:
                    # The new line pushes every boundary up one live
                    # line; the line below the deepest is forgotten.
                    gone = bounds[deepest]
                    for j in range(cold_bin):
                        t = bounds[j] + 1
                        while slots[t] is None:
                            t += 1
                        bounds[j] = t
                    del last[slots[gone]]
                    slots[gone] = None
            else:
                slots[previous] = None
                # Boundaries descend with j: those above the previous
                # access (misses) and any sitting on it move up.
                j = 0
                t = bounds[0]
                while t > previous:
                    t += 1
                    while slots[t] is None:
                        t += 1
                    bounds[j] = t
                    j += 1
                    t = bounds[j]
                bin_index = j
                while t == previous:
                    t += 1
                    while slots[t] is None:
                        t += 1
                    bounds[j] = t
                    j += 1
                    t = bounds[j]
            bins[bin_index] += 1.0
            epoch += 1.0
            if epoch * scale > window:
                # Exponential aging keeps the snapshot focused on roughly
                # the last `window` monitored accesses.
                bins = [value * 0.5 for value in bins]
                epoch *= 0.5
        self._bins[:] = bins
        self._epoch_accesses = epoch

    def _warm_up(self) -> None:
        """Place a cold line while the deepest boundary is still unset.

        Nothing is forgotten yet: the set boundaries move up one live
        line, and each boundary whose capacity the tracked lines now
        reach starts at the oldest tracked line.
        """
        slots = self._slots
        bounds = self._bounds
        j = 0
        while bounds[j] >= 0:
            t = bounds[j] + 1
            while slots[t] is None:
                t += 1
            bounds[j] = t
            j += 1
        capacities = self._capacities
        tracked = len(self._last)
        while j < len(capacities) and capacities[j] == tracked:
            t = 0
            while slots[t] is None:
                t += 1
            bounds[j] = t
            j += 1

    def _compact(self) -> None:
        """Renumber the live lines densely, in order.

        Bins depend only on the order of timestamps, so nothing a later
        access sees changes. Runs at a fixed slot count, in warm-up too,
        so the slot list stays a few times the deepest capacity.
        """
        slots = self._slots
        bounds = self._bounds
        marked = [slots[t] if t >= 0 else None for t in bounds[:-1]]
        slots[:] = [line for line in slots if line is not None]
        last = self._last
        for t, line in enumerate(slots):
            last[line] = t
        for j, line in enumerate(marked):
            if line is not None:
                bounds[j] = last[line]

    def hits_per_size(self) -> np.ndarray:
        """Estimated hits at each candidate size over the current window.

        ``result[k]`` is the (scaled) number of recent accesses that would
        hit in a partition of ``candidate_sizes[k]`` lines. The curve is
        non-decreasing in size by construction (stack inclusion).
        """
        cumulative = np.cumsum(self._bins[:-1])
        return cumulative * self._scale

    def misses_at_size(self, size_index: int) -> float:
        """Estimated misses at candidate size ``size_index`` this window."""
        total = float(self._bins.sum()) * self._scale
        return total - float(self.hits_per_size()[size_index])

    def epoch_accesses(self) -> float:
        """Scaled number of accesses in the current aging window."""
        return self._epoch_accesses * self._scale

    def reset_window(self) -> None:
        """Clear the windowed counters (the recency stack persists)."""
        self._bins[:] = 0.0
        self._epoch_accesses = 0.0

    def clear(self) -> None:
        """Forget everything, including the recency stack."""
        self.reset_window()
        self._last.clear()
        self._slots.clear()
        self._bounds[:-1] = [-1] * len(self._sizes)
        self.total_observed = 0
        self.sampled_observed = 0
