"""Multicore system driver.

Ties together cores, per-domain memory hierarchies, the LLC organization,
the utilization monitors, and a partitioning scheme, and advances them in
fixed cycle quanta:

1. Each core runs until the quantum boundary, stopping early whenever its
   domain's public-progress target is reached — at which point the scheme
   performs a resizing assessment at that exact instruction (Untangle's
   progress-based schedule).
2. At each quantum boundary the scheme gets a time-based hook (used by
   the Time scheme's fixed-interval assessments) and any delayed resizing
   actions whose scheduled application time has passed are applied.
3. Partition sizes are sampled periodically for the distribution charts.

The scheme object owns all policy (when to assess, what to resize, how to
charge leakage); the system owns all mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.config import ArchConfig
from repro.core.actions import ResizingAction
from repro.core.trace import ResizingTrace
from repro.errors import ConfigurationError, SimulationError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.liveness import progress_beat
from repro.sim.cpu import Core, CoreConfig, InstructionStream, StopReason
from repro.sim.hierarchy import DomainMemory
from repro.sim.kernelmode import kernel_mode
from repro.sim.stats import DomainStats

# Per-run (never per-access) simulator metrics: incremented once when a
# system run finishes, so the recording cost is invisible next to the
# millions of simulated cycles it summarizes.
_REG = obs_metrics.get_registry()
_M_RUNS = _REG.counter("repro_sim_runs_total", "Completed system runs")
_M_QUANTA = _REG.counter("repro_sim_quanta_total", "Interleaving quanta advanced")
_M_CYCLES = _REG.counter("repro_sim_cycles_total", "Cycles simulated")


@dataclass
class DomainSpec:
    """One security domain: a workload stream plus core parameters."""

    name: str
    stream: InstructionStream
    core_config: CoreConfig


class SchemeProtocol(Protocol):
    """What the system requires of a partitioning scheme."""

    name: str

    def build(self, system: "MultiDomainSystem") -> None:
        """Create the LLC organization, monitors, and accountants."""
        ...

    def progress_target(self, domain: int) -> int | None:
        """Public-progress count of the domain's next assessment, if any."""
        ...

    def on_progress(self, system: "MultiDomainSystem", domain: int, now: int) -> None:
        """A domain reached its progress target: perform an assessment."""
        ...

    def on_quantum(self, system: "MultiDomainSystem", now: int) -> None:
        """Quantum boundary: time-based assessments and delayed actions."""
        ...

    def partition_size(self, domain: int) -> int:
        """The domain's current (nominal) partition size in lines."""
        ...


@dataclass
class SystemResult:
    """Outcome of one system run."""

    stats: list[DomainStats]
    traces: list[ResizingTrace]
    total_cycles: int
    completed: bool


class MultiDomainSystem:
    """An ``ArchConfig.num_cores``-domain simulated machine.

    Parameters
    ----------
    arch:
        Machine parameters.
    domains:
        One :class:`DomainSpec` per core, in domain order.
    scheme:
        The partitioning scheme (see :mod:`repro.schemes`).
    quantum:
        Cycle quantum for interleaving cores. Smaller quanta tighten the
        interleaving of Shared-LLC accesses and the timing resolution of
        delayed actions.
    sample_interval:
        Cycle period of partition-size distribution samples (the paper
        samples every 100 us).
    """

    def __init__(
        self,
        arch: ArchConfig,
        domains: list[DomainSpec],
        scheme: SchemeProtocol,
        *,
        quantum: int = 500,
        sample_interval: int = 5_000,
    ):
        if len(domains) != arch.num_cores:
            raise ConfigurationError(
                f"{len(domains)} domains for {arch.num_cores} cores"
            )
        if quantum < 1 or sample_interval < 1:
            raise ConfigurationError("quantum and sample interval must be >= 1")
        self.arch = arch
        self.domains = domains
        self.scheme = scheme
        self.quantum = quantum
        self.sample_interval = sample_interval

        self.stats = [DomainStats(domain=i) for i in range(arch.num_cores)]
        #: Per-domain (action, timestamp) logs, appended by the scheme.
        self.trace_logs: list[list[tuple[ResizingAction, int]]] = [
            [] for _ in range(arch.num_cores)
        ]
        #: Populated by ``scheme.build``: per-domain memory hierarchies.
        self.memories: list[DomainMemory] = []
        scheme.build(self)
        if len(self.memories) != arch.num_cores:
            raise SimulationError(
                "scheme.build must populate one DomainMemory per core"
            )
        self.cores = [
            Core(
                domain=i,
                stream=spec.stream,
                memory=self.memories[i],
                arch=arch,
                core_config=spec.core_config,
                stats=self.stats[i],
            )
            for i, spec in enumerate(domains)
        ]

    # ------------------------------------------------------------------
    def record_action(self, domain: int, action: ResizingAction, timestamp: int) -> None:
        """Append an action to the domain's resizing trace log.

        Timestamps are forced strictly increasing (the trace format's
        invariant) by nudging collisions forward one time unit.
        """
        log = self.trace_logs[domain]
        if log and timestamp <= log[-1][1]:
            timestamp = log[-1][1] + 1
        log.append((action, timestamp))

    def sample_partition_sizes(self, now: int) -> None:
        for domain in range(self.arch.num_cores):
            self.stats[domain].record_partition_sample(
                now, self.scheme.partition_size(domain)
            )

    @property
    def all_finished(self) -> bool:
        return all(core.finished for core in self.cores)

    # ------------------------------------------------------------------
    def _observability_attrs(self) -> dict:
        """Per-run counters attached to the ``sim.run`` trace span.

        Resizing-action counts come from the trace logs the scheme
        appends to; monitor observation counters come from whatever
        UMON-style monitors the scheme built (schemes without monitors
        — Static, Shared — report zeros).
        """
        monitors = [
            m for m in getattr(self.scheme, "monitors", []) or [] if m is not None
        ]
        observed = sum(int(getattr(m, "total_observed", 0)) for m in monitors)
        sampled = sum(int(getattr(m, "sampled_observed", 0)) for m in monitors)
        return {
            "resizes": sum(len(log) for log in self.trace_logs),
            "assessments": sum(s.assessments for s in self.stats),
            "monitor_observed": observed,
            "monitor_sampled": sampled,
        }

    def run(self, max_cycles: int = 50_000_000) -> SystemResult:
        """Advance the system until every domain's slice finishes."""
        with obs_trace.span(
            "sim.run", scheme=self.scheme.name, kernel=kernel_mode()
        ) as span:
            now = 0
            next_sample = 0
            quanta = 0
            completed = False
            while now < max_cycles:
                if self.all_finished:
                    completed = True
                    break
                quantum_end = now + self.quantum
                for core in self.cores:
                    while core.cycles < quantum_end:
                        target = self.scheme.progress_target(core.domain)
                        reason = core.run(float(quantum_end), target)
                        if reason is not StopReason.PROGRESS:
                            break
                        self.scheme.on_progress(self, core.domain, core.now)
                        if self.scheme.progress_target(core.domain) == target:
                            raise SimulationError(
                                "scheme did not advance the progress target "
                                f"of domain {core.domain}"
                            )
                now = quantum_end
                quanta += 1
                # Liveness evidence for the engine's worker heartbeats:
                # a quantum is thousands of simulated accesses, so this
                # is far off the hot path.
                progress_beat()
                self.scheme.on_quantum(self, now)
                if now >= next_sample:
                    self.sample_partition_sizes(now)
                    next_sample = now + self.sample_interval
            # The loop's finished-check runs at quantum tops only, so a run
            # whose last core retires during the final quantum at exactly
            # max_cycles would otherwise be misreported as incomplete.
            if not completed:
                completed = self.all_finished
            # Close the measurement window of any domain whose slice the
            # max_cycles cap cut short, so partial slices report IPC over
            # the instructions that actually ran instead of a silent 0.
            # ``finished`` stays False: completion checks are unaffected.
            for core in self.cores:
                core.stats.close_measurement_window(core.cycles, core.retired)
            span.set(
                total_cycles=now,
                quanta=quanta,
                completed=completed,
                **self._observability_attrs(),
            )
        _M_RUNS.inc()
        _M_QUANTA.inc(quanta)
        _M_CYCLES.inc(now)
        _REG.counter(
            "repro_sim_resizes_total",
            "Resizing actions recorded, by scheme",
            scheme=self.scheme.name,
        ).inc(sum(len(log) for log in self.trace_logs))
        traces = [
            ResizingTrace.from_pairs(log) for log in self.trace_logs
        ]
        return SystemResult(
            stats=self.stats,
            traces=traces,
            total_cycles=now,
            completed=completed,
        )
