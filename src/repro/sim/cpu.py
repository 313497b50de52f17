"""Core execution and timing model.

Replaces gem5's cycle-level OoO core with a deterministic instruction-
level cost model that preserves the one coupling the evaluation needs:
IPC responds to LLC partition size through cache hits and misses.

Model
-----
* Every retired instruction costs ``1 / issue_width`` cycles of pipeline
  occupancy.
* A memory instruction additionally stalls the core for
  ``latency / mlp`` cycles, where ``latency`` is the round-trip latency
  of the serving level and ``mlp`` is the workload's memory-level
  parallelism factor (how many misses it typically overlaps).
* Optional per-access timing jitter models microarchitectural
  non-determinism (DRAM scheduling, prefetcher interference). Jitter
  changes *when* things happen but never *what* retires — exactly the
  separation Untangle's principles rely on, and what the differential
  timing-independence tests exploit.

Instruction streams are numpy arrays; the core walks them memory-access
by memory-access, retiring non-memory blocks in bulk, so simulation cost
is proportional to the number of memory accesses, not instructions.

Two inner kernels implement that walk (selected by ``REPRO_SIM_KERNEL``,
see :mod:`repro.sim.kernelmode`):

* The **batched** kernel (:meth:`Core._run_batched`) is one exact
  per-event loop. It runs one event at a time, performing the same
  float additions in the same order as the reference, but keeps its
  hot state in locals, reads the stream through memoryviews, and walks
  the packed-recency L1, LLC and monitor-filter dicts inline. It
  cannot skip ahead: Untangle's assessment points must fall on the
  exact instruction where public progress reaches its target
  (Principle 2), and measurement boundaries and the cycle budget are
  exact too. So the loop recomputes the progress crossing only at a
  pass wrap, checks measurement boundaries with one integer compare,
  and applies cache statistics, service counters and the monitor's
  observations in bulk when it returns — nothing reads them mid-call.
  Stalls and timing jitter are handled inline, with the reference's
  draw order.
* The **reference** kernel is the original one-call-per-access loop,
  retained verbatim for differential testing and as the before/after
  baseline of ``benchmarks/bench_kernel.py``. Cores whose L1 is not a
  packed-recency LRU cache, or whose LLC view exposes no
  ``kernel_binding`` (way partitioning), always use it.

After a stream's slice finishes, the core keeps re-running the stream
(wrapping around) to maintain LLC pressure, per the paper's methodology,
while its statistics stay frozen.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.config import ArchConfig
from repro.core.annotations import AnnotationVector
from repro.errors import ConfigurationError, SimulationError
from repro.monitor.umon import mix64_array
from repro.sim.cache import SetAssociativeCache
from repro.sim.hierarchy import MISSING, DomainMemory, MemoryLevel
from repro.sim.kernelmode import batching_enabled
from repro.sim.stats import DomainStats

#: Stand-in for "never" in the batched loop's integer compares (no
#: measurement boundary left).
_NEVER = 1 << 62


class StopReason(enum.Enum):
    """Why :meth:`Core.run` returned control to the system driver."""

    #: The cycle budget of the current quantum was reached.
    QUANTUM = "quantum"
    #: The public-progress target was reached (Untangle assessment point).
    PROGRESS = "progress"


class InstructionStream:
    """A dynamic instruction stream with secret-dependence annotations.

    Parameters
    ----------
    addresses:
        int64 array, one entry per instruction: the cache-line address
        accessed by a memory instruction, or ``-1`` for a non-memory
        instruction.
    annotations:
        Per-instruction :class:`~repro.core.annotations.AnnotationVector`;
        defaults to all-public.
    """

    __slots__ = (
        "addresses",
        "annotations",
        "stall_cycles",
        "length",
        "mem_positions",
        "event_positions",
        "cum_public",
        "public_per_pass",
        "max_stall",
        "_hashed",
    )

    def __init__(
        self,
        addresses: np.ndarray,
        annotations: AnnotationVector | None = None,
        stall_cycles: np.ndarray | None = None,
    ):
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        if addresses.ndim != 1 or addresses.shape[0] == 0:
            raise ConfigurationError("instruction stream must be a non-empty 1-D array")
        if annotations is None:
            annotations = AnnotationVector.public(addresses.shape[0])
        if len(annotations) != addresses.shape[0]:
            raise ConfigurationError(
                "annotations must align with the instruction stream"
            )
        if stall_cycles is not None:
            stall_cycles = np.ascontiguousarray(stall_cycles, dtype=np.int64)
            if stall_cycles.shape != addresses.shape:
                raise ConfigurationError("stall cycles must align with the stream")
            if np.any(stall_cycles < 0):
                raise ConfigurationError("stall cycles must be non-negative")
        self.addresses = addresses
        self.annotations = annotations
        self.stall_cycles = stall_cycles
        self.length = int(addresses.shape[0])
        self.mem_positions = np.flatnonzero(addresses >= 0)
        # Positions the core must handle one at a time: memory accesses
        # plus explicit stalls (e.g. the usleep of Figure 1c).
        if stall_cycles is None:
            self.event_positions = self.mem_positions
            self.max_stall = 0
        else:
            self.event_positions = np.flatnonzero(
                (addresses >= 0) | (stall_cycles > 0)
            )
            self.max_stall = int(stall_cycles.max())
        # cum_public[i] = number of progress-counted instructions among the
        # first i instructions of one pass of the stream.
        counted = (~annotations.progress_excluded).astype(np.int64)
        self.cum_public = np.concatenate(([0], np.cumsum(counted)))
        self.public_per_pass = int(self.cum_public[-1])
        self._hashed: np.ndarray | None = None

    @property
    def hashed_addresses(self) -> np.ndarray:
        """SplitMix64 hash of every address, computed once and cached.

        Set-sampling monitors decide per address whether to observe it by
        hashing it (:func:`repro.monitor.umon.mix64_array`); since the
        stream is re-executed pass after pass, hashing each address once
        up front turns that decision into an array mask. Entries at
        non-memory positions (address ``-1``) are meaningless and never
        consumed.
        """
        if self._hashed is None:
            self._hashed = mix64_array(self.addresses)
        return self._hashed

    @property
    def memory_instruction_count(self) -> int:
        return int(self.mem_positions.shape[0])

    @property
    def memory_fraction(self) -> float:
        return self.memory_instruction_count / self.length


@dataclass
class CoreConfig:
    """Per-core execution parameters derived from the workload."""

    mlp: float = 2.0
    slice_instructions: int = 100_000
    warmup_instructions: int = 0
    timing_jitter: int = 0
    timing_jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.mlp <= 0:
            raise ConfigurationError("mlp must be positive")
        if self.slice_instructions < 1:
            raise ConfigurationError("slice must be at least one instruction")
        if self.warmup_instructions < 0 or self.timing_jitter < 0:
            raise ConfigurationError("warmup and jitter must be non-negative")


class Core:
    """One core executing one domain's instruction stream."""

    def __init__(
        self,
        domain: int,
        stream: InstructionStream,
        memory: DomainMemory,
        arch: ArchConfig,
        core_config: CoreConfig,
        stats: DomainStats,
    ):
        self.domain = domain
        self.stream = stream
        self.memory = memory
        self.stats = stats
        self._cpi = 1.0 / arch.issue_width
        self._inv_mlp = 1.0 / core_config.mlp
        self._warmup_end = core_config.warmup_instructions
        self._slice_end = (
            core_config.warmup_instructions + core_config.slice_instructions
        )
        self._jitter = core_config.timing_jitter
        self._jitter_rng = (
            np.random.default_rng(core_config.timing_jitter_seed)
            if core_config.timing_jitter > 0
            else None
        )
        # The batched loop walks the raw packed-recency dicts, so it needs
        # LRU set-associative L1 (and monitor filter) plus an LLC view
        # that exposes its backing cache.
        filter_cache = memory._monitor_filter
        self._use_batched = (
            batching_enabled()
            and _packed(memory.l1)
            and (filter_cache is None or _packed(filter_cache))
            and getattr(memory.llc_view, "kernel_binding", None) is not None
        )
        # Views, not lists: indexing yields plain ints and bools without
        # copying the stream, where a list would hold a boxed Python
        # object per instruction for the life of the core.
        self._views = (
            memoryview(stream.event_positions),
            memoryview(stream.addresses),
            memoryview(stream.annotations.metric_excluded),
            memoryview(stream.cum_public),
            None
            if stream.stall_cycles is None
            else memoryview(stream.stall_cycles),
        )

        self.cycles: float = 0.0
        self.retired: int = 0
        self.public_retired: int = 0
        self._rel_pos: int = 0
        self._mem_cursor: int = 0
        self._pass_public_base: int = 0
        self._measuring = self._warmup_end == 0
        if self._measuring:
            self.stats.begin_measurement(0.0, 0)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the measured slice has completed."""
        return self.stats.finished

    @property
    def now(self) -> int:
        """Current local time as an integer timestamp."""
        return int(self.cycles)

    # ------------------------------------------------------------------
    def _check_boundaries(self) -> None:
        if not self._measuring and self.retired >= self._warmup_end:
            self._measuring = True
            self.stats.begin_measurement(self.cycles, self.retired)
        if self._measuring and not self.stats.finished and self.retired >= self._slice_end:
            self.stats.end_measurement(self.cycles, self.retired)

    def _advance_nonmem(self, count: int) -> None:
        """Retire ``count`` instructions starting at the current position.

        The range must not contain a memory instruction (callers guarantee
        this by stopping at the next memory position).
        """
        if count <= 0:
            return
        start = self._rel_pos
        end = start + count
        self.cycles += count * self._cpi
        self.retired += count
        cum = self.stream.cum_public
        self.public_retired += int(cum[end] - cum[start])
        self._rel_pos = end
        self._check_boundaries()

    def _execute_event(self, rel_pos: int) -> None:
        """Retire the memory or stall instruction at ``rel_pos``."""
        stream = self.stream
        addr = int(stream.addresses[rel_pos])
        extra = 0.0
        if addr >= 0:
            latency = self.memory.access(
                addr, bool(stream.annotations.metric_excluded[rel_pos])
            )
            extra = latency * self._inv_mlp
            if self._jitter_rng is not None:
                extra += float(self._jitter_rng.integers(0, self._jitter + 1))
        if stream.stall_cycles is not None:
            extra += float(stream.stall_cycles[rel_pos])
        self.cycles += self._cpi + extra
        self.retired += 1
        if not stream.annotations.progress_excluded[rel_pos]:
            self.public_retired += 1
        self._rel_pos = rel_pos + 1
        self._check_boundaries()

    def _wrap_pass(self) -> None:
        """Start a fresh pass of the stream (pressure-maintenance loop)."""
        if self._rel_pos != self.stream.length:
            raise SimulationError("pass wrap before the stream tail retired")
        self._rel_pos = 0
        self._mem_cursor = 0
        self._pass_public_base = self.public_retired

    def _public_crossing_rel(self, progress_target: int) -> int | None:
        """Pass-relative position where public progress reaches the target.

        Returns the smallest ``i`` such that retiring the first ``i``
        instructions of the current pass reaches ``progress_target``
        public instructions in total, or ``None`` if the target is not
        reached within this pass.
        """
        needed = progress_target - self._pass_public_base
        if needed > self.stream.public_per_pass:
            return None
        index = int(np.searchsorted(self.stream.cum_public, needed, side="left"))
        return index if index <= self.stream.length else None

    # ------------------------------------------------------------------
    def run(self, until_cycle: float, progress_target: int | None = None) -> StopReason:
        """Execute until the cycle budget or the public-progress target.

        The core stops *exactly* at the instruction where the public
        progress counter reaches ``progress_target`` — this precision is
        what makes Untangle's assessment points (and hence its utilization
        metric snapshots) functions of the instruction stream alone.
        """
        if self._use_batched:
            return self._run_batched(until_cycle, progress_target)
        return self._run_reference(until_cycle, progress_target)

    def _run_reference(
        self, until_cycle: float, progress_target: int | None
    ) -> StopReason:
        """The original per-access loop, kept verbatim as the reference."""
        stream = self.stream
        event_positions = stream.event_positions
        num_events = event_positions.shape[0]
        length = stream.length
        while self.cycles < until_cycle:
            if progress_target is not None and self.public_retired >= progress_target:
                return StopReason.PROGRESS
            next_event = (
                int(event_positions[self._mem_cursor])
                if self._mem_cursor < num_events
                else length
            )
            if progress_target is not None:
                crossing = self._public_crossing_rel(progress_target)
                if crossing is not None and crossing <= next_event:
                    self._advance_nonmem(crossing - self._rel_pos)
                    return StopReason.PROGRESS
            if next_event >= length:
                self._advance_nonmem(length - self._rel_pos)
                self._wrap_pass()
                continue
            self._advance_nonmem(next_event - self._rel_pos)
            self._execute_event(next_event)
            self._mem_cursor += 1
        return StopReason.QUANTUM

    def _next_boundary(self) -> int:
        """``retired`` count at which :meth:`_check_boundaries` next acts."""
        if not self._measuring:
            return self._warmup_end
        if not self.stats.finished:
            return self._slice_end
        return _NEVER

    def _cross_boundary(self, cycles: float, retired: int) -> int:
        """Act on a measurement boundary reached by the batched loop.

        Books the boundary at the loop's current ``cycles``/``retired``
        exactly as :meth:`_check_boundaries` would, and returns the
        next boundary.
        """
        self.cycles = cycles
        self.retired = retired
        self._check_boundaries()
        return self._next_boundary()

    def _crossing(self, progress_target: int | None) -> int:
        """The progress crossing in this pass, or ``length + 1`` if none.

        :meth:`_public_crossing_rel` as an int the batched loop can
        compare against positions without a ``None`` check.
        """
        if progress_target is not None:
            crossing = self._public_crossing_rel(progress_target)
            if crossing is not None:
                return crossing
        return self.stream.length + 1

    def _run_batched(
        self, until_cycle: float, progress_target: int | None
    ) -> StopReason:
        """Batched kernel: the reference loop with its state in locals.

        Bit-exact with :meth:`_run_reference`: the same events in the
        same order, the same float additions in the same order, the same
        cache operations and the same jitter draws. What differs is only
        where the state lives while the call runs. Position and cycles
        are locals (retired and public progress follow from the
        position); the stream is read through memoryviews; the L1, the
        monitor's shadow filter and the LLC are walked inline over their
        packed-recency dicts (the LLC through the view's
        ``kernel_binding``, fetched per call because a resize replaces
        the backing sets between calls). The progress crossing moves
        only at a pass wrap, and a measurement boundary is one integer
        compare against :meth:`_next_boundary`.

        Hit/miss/eviction counters, the service-level counts and the
        monitor's observations are applied in bulk on return: within one
        call nothing reads them (other cores, resizes and assessments
        act only between calls), and the monitor is fed the collected
        candidates in their original order through ``observe_block``.
        """
        if (
            progress_target is not None
            and self.public_retired >= progress_target
            and self.cycles < until_cycle
        ):
            return StopReason.PROGRESS
        stream = self.stream
        length = stream.length
        ev, addresses, metric_excluded, cum, stalls = self._views
        cpi = self._cpi
        inv_mlp = self._inv_mlp
        rng = self._jitter_rng
        draw = rng.integers if rng is not None else None
        jitter_high = self._jitter + 1

        memory = self.memory
        l1 = memory.l1
        l1_sets = l1._sets
        l1_num_sets = l1.num_sets
        l1_assoc = l1.associativity
        llc, offset, domain_stats = memory.llc_view.kernel_binding()
        llc_sets = llc._sets
        llc_num_sets = llc.num_sets
        llc_assoc = llc.associativity
        l1_extra = memory._l1_latency * inv_mlp
        llc_extra = memory._llc_latency * inv_mlp
        dram_extra = memory._dram_latency * inv_mlp
        # Monitor feed: shadow-filter misses of public accesses, or (no
        # filter) live-L1 misses, minus secret ones when annotations are
        # respected. Candidates are stream positions, observed on return.
        monitor = memory.monitor
        filt = memory._monitor_filter
        if filt is not None:
            f_sets = filt._sets
            f_num_sets = filt.num_sets
            f_assoc = filt.associativity
        live_feed = filt is None and monitor is not None
        live_all = not memory.monitor_respects_annotations
        observed: list[int] = []
        observe = observed.append

        l1_hit = l1_miss = l1_evict = 0
        llc_hit = llc_miss = llc_evict = 0
        f_hit = f_miss = f_evict = 0

        cycles = self.cycles
        rel_pos = self._rel_pos
        cursor = self._mem_cursor
        # Within a pass, retired and public progress are functions of the
        # position (``retired = pass_retired + rel_pos``, ``public =
        # pass_public + cum[rel_pos]``), so the loop tracks only the
        # position and compares it against the next measurement boundary
        # translated into this pass (``bound``).
        pass_retired = self.retired - rel_pos
        pass_public = self._pass_public_base
        bound = self._next_boundary() - pass_retired
        # ``edge``: where this pass stops being plain events — the
        # progress crossing (an index <= length) or the pass end. Public
        # progress reaches the target exactly at the crossing, so the
        # reference's loop-top progress check can only fire on entry
        # (handled above); after that, reaching the edge decides it.
        crossing = self._crossing(progress_target)
        edge = min(crossing, length)

        reason = StopReason.QUANTUM
        while cycles < until_cycle:
            try:
                pos = ev[cursor]
            except IndexError:
                pos = length
            if pos >= edge:
                pos = edge
            # Retire the non-memory gap up to the next event (or edge).
            count = pos - rel_pos
            if count > 0:
                cycles += count * cpi
                rel_pos = pos
                if rel_pos >= bound:
                    bound = (
                        self._cross_boundary(cycles, pass_retired + rel_pos)
                        - pass_retired
                    )
            if pos == edge:
                if pos == crossing:
                    reason = StopReason.PROGRESS
                    break
                # Pass wrap (pressure-maintenance loop).
                rel_pos = 0
                cursor = 0
                pass_retired += length
                pass_public += cum[length]
                bound -= length
                self._pass_public_base = pass_public
                crossing = self._crossing(progress_target)
                edge = min(crossing, length)
                continue

            addr = addresses[pos]
            if addr >= 0:
                if filt is not None and not metric_excluded[pos]:
                    ways = f_sets[addr % f_num_sets]
                    if ways.pop(addr, MISSING) is None:
                        f_hit += 1
                    else:
                        f_miss += 1
                        if len(ways) >= f_assoc:
                            del ways[next(iter(ways))]
                            f_evict += 1
                        observe(pos)
                    ways[addr] = None
                ways = l1_sets[addr % l1_num_sets]
                if ways.pop(addr, MISSING) is None:
                    ways[addr] = None
                    l1_hit += 1
                    extra = l1_extra
                else:
                    l1_miss += 1
                    if len(ways) >= l1_assoc:
                        del ways[next(iter(ways))]
                        l1_evict += 1
                    ways[addr] = None
                    if live_feed and (live_all or not metric_excluded[pos]):
                        observe(pos)
                    tagged = addr + offset
                    ways = llc_sets[tagged % llc_num_sets]
                    if ways.pop(tagged, MISSING) is None:
                        llc_hit += 1
                        extra = llc_extra
                    else:
                        llc_miss += 1
                        if len(ways) >= llc_assoc:
                            del ways[next(iter(ways))]
                            llc_evict += 1
                        extra = dram_extra
                    ways[tagged] = None
                if draw is not None:
                    extra += float(draw(0, jitter_high))
                if stalls is not None:
                    extra += float(stalls[pos])
            else:
                extra = float(stalls[pos])
            cycles += cpi + extra
            rel_pos = pos + 1
            cursor += 1
            if rel_pos >= bound:
                bound = (
                    self._cross_boundary(cycles, pass_retired + rel_pos)
                    - pass_retired
                )

        self.cycles = cycles
        self.retired = pass_retired + rel_pos
        self.public_retired = pass_public + cum[rel_pos]
        self._rel_pos = rel_pos
        self._mem_cursor = cursor

        stats = l1.stats
        stats.hits += l1_hit
        stats.misses += l1_miss
        stats.evictions += l1_evict
        l1._resident += l1_miss - l1_evict
        stats = llc.stats
        stats.hits += llc_hit
        stats.misses += llc_miss
        stats.evictions += llc_evict
        llc._resident += llc_miss - llc_evict
        if domain_stats is not None:
            domain_stats.hits += llc_hit
            domain_stats.misses += llc_miss
        if filt is not None:
            stats = filt.stats
            stats.hits += f_hit
            stats.misses += f_miss
            stats.evictions += f_evict
            filt._resident += f_miss - f_evict
        counts = memory.level_counts
        counts[MemoryLevel.L1] += l1_hit
        counts[MemoryLevel.LLC] += llc_hit
        counts[MemoryLevel.DRAM] += llc_miss
        if observed:
            positions = np.array(observed, dtype=np.int64)
            memory.feed_monitor(
                stream.addresses[positions],
                stream.hashed_addresses[positions]
                if memory.monitor_wants_hashes
                else None,
            )
        return reason


def _packed(cache) -> bool:
    """Whether a cache is the packed-recency LRU kernel cache."""
    return type(cache) is SetAssociativeCache and cache._lru
