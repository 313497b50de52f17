"""LLC organizations: set-partitioned and shared (Section 8 of the paper).

The evaluation uses *set partitioning*: each security domain owns a
disjoint group of LLC sets sized to its current partition. Because set
groups are disjoint, a domain's partition behaves exactly like a private
set-associative cache whose set count is ``partition_lines / associativity``;
that is how :class:`PartitionedLLC` models it. Resizing a domain re-hashes
its lines into the new set count (surviving lines keep their data, as in
a real set-repartitioning where some sets are reassigned).

:class:`SharedLLC` is the insecure baseline: one cache shared by all
domains, with per-domain statistics, where workloads conflict.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, SimulationError
from repro.sim.cache import CacheStats, SetAssociativeCache
from repro.sim.kernelmode import make_cache


def sets_for_lines(lines: int, associativity: int) -> int:
    """Number of sets for a partition of ``lines`` lines.

    Partition sizes are required to be multiples of the associativity so
    every size maps to a whole number of sets (true of all nine paper
    sizes).
    """
    if lines < associativity:
        raise ConfigurationError(
            f"partition of {lines} lines smaller than one set ({associativity} ways)"
        )
    if lines % associativity != 0:
        raise ConfigurationError(
            f"partition of {lines} lines is not a whole number of "
            f"{associativity}-way sets"
        )
    return lines // associativity


class LLCView:
    """What a domain's memory hierarchy sees of the LLC.

    ``access`` returns ``True`` on hit. Implementations: a partition of
    :class:`PartitionedLLC`, or a :class:`SharedLLC` bound to a domain.
    """

    def access(self, line_addr: int) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class ResizeOutcome:
    """Result of applying a partition resize."""

    domain: int
    old_lines: int
    new_lines: int
    lines_lost: int


class PartitionedLLC:
    """A set-partitioned LLC: one private set group per domain.

    Parameters
    ----------
    total_lines:
        Total LLC capacity in lines.
    associativity:
        Ways per set (shared by all partitions).
    initial_lines:
        Starting partition size per domain (one value for all domains).
    num_domains:
        Number of security domains.
    """

    def __init__(
        self,
        total_lines: int,
        associativity: int,
        num_domains: int,
        initial_lines: int,
    ):
        if num_domains < 1:
            raise ConfigurationError("need at least one domain")
        if initial_lines * num_domains > total_lines:
            raise ConfigurationError(
                f"{num_domains} domains x {initial_lines} lines exceed the "
                f"{total_lines}-line LLC"
            )
        self.total_lines = total_lines
        self.associativity = associativity
        self.num_domains = num_domains
        self._sizes = [initial_lines] * num_domains
        self._caches = [
            make_cache(sets_for_lines(initial_lines, associativity), associativity)
            for _ in range(num_domains)
        ]
        self.resizes: list[ResizeOutcome] = []

    # ------------------------------------------------------------------
    def size_of(self, domain: int) -> int:
        """Current partition size of a domain, in lines."""
        return self._sizes[domain]

    @property
    def allocated_lines(self) -> int:
        """Sum of all partition sizes."""
        return sum(self._sizes)

    @property
    def free_lines(self) -> int:
        """Unallocated LLC capacity."""
        return self.total_lines - self.allocated_lines

    def available_for(self, domain: int) -> int:
        """Largest size the domain could grow to right now."""
        return self.free_lines + self._sizes[domain]

    def stats_of(self, domain: int) -> CacheStats:
        return self._caches[domain].stats

    def cache_of(self, domain: int) -> SetAssociativeCache:
        """The backing cache of a domain's partition (for inspection).

        The concrete type follows the selected kernel mode (see
        :mod:`repro.sim.kernelmode`); both expose the same interface.
        """
        return self._caches[domain]

    # ------------------------------------------------------------------
    def view(self, domain: int) -> "PartitionView":
        """The domain-private view used by its memory hierarchy."""
        if not 0 <= domain < self.num_domains:
            raise ConfigurationError(f"domain {domain} out of range")
        return PartitionView(self, domain)

    def access(self, domain: int, line_addr: int) -> bool:
        """Access a line within the domain's partition."""
        return self._caches[domain].access(line_addr)

    def resize(self, domain: int, new_lines: int) -> ResizeOutcome:
        """Resize a domain's partition, enforcing the capacity invariant."""
        old_lines = self._sizes[domain]
        if new_lines == old_lines:
            outcome = ResizeOutcome(domain, old_lines, new_lines, 0)
            self.resizes.append(outcome)
            return outcome
        others = self.allocated_lines - old_lines
        if others + new_lines > self.total_lines:
            raise SimulationError(
                f"resizing domain {domain} to {new_lines} lines would exceed "
                f"the {self.total_lines}-line LLC ({others} allocated elsewhere)"
            )
        lost = self._caches[domain].resize_sets(
            sets_for_lines(new_lines, self.associativity)
        )
        self._sizes[domain] = new_lines
        outcome = ResizeOutcome(domain, old_lines, new_lines, lost)
        self.resizes.append(outcome)
        return outcome


class PartitionView(LLCView):
    """A single domain's view of a :class:`PartitionedLLC`."""

    __slots__ = ("_llc", "_domain")

    def __init__(self, llc: PartitionedLLC, domain: int):
        self._llc = llc
        self._domain = domain

    def access(self, line_addr: int) -> bool:
        return self._llc.access(self._domain, line_addr)

    def kernel_binding(self) -> tuple:
        """(backing cache, address offset, per-domain stats or None).

        Lets the batched CPU kernel walk the backing cache directly; a
        partition view has no address tagging and no separate per-domain
        counters (the cache's own stats are the domain's).
        """
        return self._llc._caches[self._domain], 0, None

    @property
    def partition_lines(self) -> int:
        return self._llc.size_of(self._domain)


class SharedLLC:
    """An unpartitioned LLC shared by all domains (the Shared scheme).

    Domain identity is folded into the tag so different domains' equal
    virtual line addresses do not falsely share cache lines, while still
    *conflicting* in the same sets — the paper's "cache conflicts between
    workloads" effect.
    """

    def __init__(self, total_lines: int, associativity: int, num_domains: int):
        if num_domains < 1:
            raise ConfigurationError("need at least one domain")
        self.total_lines = total_lines
        self.associativity = associativity
        self.num_domains = num_domains
        self._cache = make_cache(
            sets_for_lines(total_lines, associativity), associativity
        )
        self._domain_stats = [CacheStats() for _ in range(num_domains)]

    def view(self, domain: int) -> "SharedView":
        if not 0 <= domain < self.num_domains:
            raise ConfigurationError(f"domain {domain} out of range")
        return SharedView(self, domain)

    def size_of(self, domain: int) -> int:
        """Nominal per-domain size: the whole LLC (it is shared)."""
        return self.total_lines

    def stats_of(self, domain: int) -> CacheStats:
        return self._domain_stats[domain]

    #: Per-domain address-space offset: a large odd constant so domains'
    #: lines spread across (and conflict in) every set while their tags
    #: stay distinct. A simple ``addr * num_domains + domain`` folding
    #: would stripe each domain into its own set residue class —
    #: accidentally partitioning the "shared" cache.
    _DOMAIN_STRIDE = 7_368_787

    def access(self, domain: int, line_addr: int) -> bool:
        tagged = line_addr + domain * self._DOMAIN_STRIDE
        hit = self._cache.access(tagged)
        stats = self._domain_stats[domain]
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1
        return hit


class SharedView(LLCView):
    """A single domain's view of a :class:`SharedLLC`."""

    __slots__ = ("_llc", "_domain")

    def __init__(self, llc: SharedLLC, domain: int):
        self._llc = llc
        self._domain = domain

    def access(self, line_addr: int) -> bool:
        return self._llc.access(self._domain, line_addr)

    def kernel_binding(self) -> tuple:
        """(backing cache, address offset, per-domain stats).

        The batched CPU kernel adds the offset to every address (the
        shared LLC's domain tagging) and bulk-updates the domain's
        hit/miss stats, mirroring :meth:`SharedLLC.access`.
        """
        llc = self._llc
        domain = self._domain
        return llc._cache, domain * llc._DOMAIN_STRIDE, llc._domain_stats[domain]
