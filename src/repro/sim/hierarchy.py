"""Per-domain memory hierarchy: private L1 -> LLC view -> DRAM.

Each access walks the hierarchy and returns the round-trip latency of the
level that served it. The domain's utilization monitor is fed the
L1-filtered access stream (the paper's UMON-style hardware table filters
out "memory accesses that would hit in the private caches", Section 7) —
but the *filter itself* depends on who is asking:

* When the hierarchy respects annotations (Principle 1, Untangle-style
  schemes), the monitor's L1 filter is a private shadow tag directory
  warmed only by the monitored (public) accesses. The live L1 holds
  secret lines too — the data really moves — so filtering by live-L1
  misses would let a secret-warmed L1 decide which *public* accesses the
  monitor sees, making the metric a function of the secret (exactly the
  Edge 1 leak Principle 1 exists to close). The shadow filter's "would
  this hit in the private cache" answer is a pure function of the public
  access sequence, so the monitor window contents are too.
* When annotations are not respected (conventional schemes, the Time
  baseline), the monitor observes live-L1-missing accesses including
  secret ones — the secret-dependent metric that motivates the paper.

:meth:`DomainMemory.access` resolves one access (the reference
kernel's path). The batched CPU kernel (:meth:`repro.sim.cpu.Core.run`)
walks the same caches inline, with the same dict operations in the
same order, and hands its collected monitor candidates to
:meth:`DomainMemory.feed_monitor` once per call.
"""

from __future__ import annotations

import enum
from typing import Protocol

import numpy as np

from repro.config import ArchConfig
from repro.sim.kernelmode import make_cache
from repro.sim.partition import LLCView


#: Sentinel distinct from the packed-recency dicts' stored value (None),
#: so ``ways.pop(addr, MISSING) is None`` is a one-lookup hit test.
MISSING = object()


class MemoryLevel(enum.IntEnum):
    """The level of the hierarchy that served an access."""

    L1 = 1
    LLC = 2
    DRAM = 3


class MonitorSink(Protocol):
    """Destination for monitored (L1-filtered) memory accesses."""

    def observe(self, line_addr: int) -> None:
        """Record one public post-L1 access."""
        ...


class DomainMemory:
    """One domain's private L1 plus its LLC view.

    Parameters
    ----------
    config:
        Machine parameters (latencies, L1 geometry).
    llc_view:
        This domain's LLC access object (partitioned or shared).
    monitor:
        Optional utilization-monitor sink fed with L1-filtered accesses.
    monitor_respects_annotations:
        When ``True`` (Untangle), secret-annotated accesses never reach
        the monitor, and the monitor's L1 filter is a private shadow tag
        directory warmed only by public accesses — a pure function of
        the public access sequence (Principle 1; see the module
        docstring). When ``False`` (conventional schemes), every
        live-L1-missing access is monitored — which is what makes their
        metric secret-dependent.
    """

    __slots__ = (
        "l1",
        "llc_view",
        "monitor",
        "monitor_respects_annotations",
        "_monitor_filter",
        "_l1_latency",
        "_llc_latency",
        "_dram_latency",
        "level_counts",
    )

    def __init__(
        self,
        config: ArchConfig,
        llc_view: LLCView,
        monitor: MonitorSink | None = None,
        monitor_respects_annotations: bool = True,
    ):
        l1_sets = max(1, config.l1_lines // config.l1_associativity)
        self.l1 = make_cache(l1_sets, config.l1_associativity)
        self.llc_view = llc_view
        self.monitor = monitor
        self.monitor_respects_annotations = monitor_respects_annotations
        # The shadow tag directory filtering the monitored stream (same
        # geometry as the L1 it models).
        self._monitor_filter = (
            make_cache(l1_sets, config.l1_associativity)
            if monitor is not None and monitor_respects_annotations
            else None
        )
        self._l1_latency = config.l1_latency
        self._llc_latency = config.llc_latency
        self._dram_latency = config.dram_latency
        self.level_counts = {level: 0 for level in MemoryLevel}

    @property
    def monitor_wants_hashes(self) -> bool:
        """Whether precomputed address hashes would help the monitor.

        True when the monitor set-samples by SplitMix64 address hash
        (see :class:`repro.monitor.umon.UMONMonitor`); callers that hold
        a per-stream hash cache can then pass it to
        :meth:`feed_monitor` and skip re-hashing per observation.
        """
        return self.monitor is not None and bool(
            getattr(self.monitor, "uses_address_hashes", False)
        )

    def access(self, line_addr: int, metric_excluded: bool = False) -> int:
        """Perform one memory access; returns its round-trip latency.

        ``metric_excluded`` marks secret-annotated accesses: they traverse
        the caches normally (the data still moves!) but are hidden from
        the monitor when annotations are respected — and excluded from
        its shadow filter, so they cannot even shift which public
        accesses the monitor sees.
        """
        filter_cache = self._monitor_filter
        if filter_cache is not None and not metric_excluded:
            if not filter_cache.access(line_addr):
                self.monitor.observe(line_addr)
        if self.l1.access(line_addr):
            self.level_counts[MemoryLevel.L1] += 1
            return self._l1_latency
        if (
            filter_cache is None
            and self.monitor is not None
            and (not self.monitor_respects_annotations or not metric_excluded)
        ):
            self.monitor.observe(line_addr)
        if self.llc_view.access(line_addr):
            self.level_counts[MemoryLevel.LLC] += 1
            return self._llc_latency
        self.level_counts[MemoryLevel.DRAM] += 1
        return self._dram_latency

    def feed_monitor(
        self, addrs: np.ndarray, hashes: np.ndarray | None = None
    ) -> None:
        """Observe a run of already-filtered monitor candidates, in order.

        ``addrs`` holds exactly the accesses :meth:`access` would have
        passed to ``monitor.observe``; ``hashes`` optionally carries
        their precomputed SplitMix64 hashes. Monitors with an
        ``observe_block`` take the run in one call, others per address.
        """
        monitor = self.monitor
        observe_block = getattr(monitor, "observe_block", None)
        if observe_block is not None:
            observe_block(addrs, hashes)
            return
        observe = monitor.observe
        for line_addr in addrs.tolist():
            observe(line_addr)

    def reset_level_counts(self) -> None:
        """Zero the per-level service counters (used at warmup end)."""
        for level in MemoryLevel:
            self.level_counts[level] = 0
