"""Differential tests: the batched kernel against the reference kernel.

Two layers claim *bit-identical* behavior to the retained reference
implementations, and each is driven here through randomized sequences
with every observable compared after every step:

* **Cache level** — the packed-recency
  :class:`~repro.sim.cache.SetAssociativeCache` against the list-based
  :class:`~repro.sim.cache.ReferenceSetAssociativeCache`, through
  accesses and access runs interleaved with ``resize_sets``,
  ``invalidate`` and ``probe``: hit/miss results, counters, resident
  counts and the full resident set in recency order.
* **Core level** — :meth:`~repro.sim.cpu.Core.run` under the batched
  kernel (one exact per-event loop with inline cache walks and bulk
  counter/monitor updates) against the reference per-access loop, over
  random streams with annotations, stalls and jitter, random quanta
  down to one cycle, progress targets that cross at pass wraps, warmup
  and slice ends inside gaps and on events, partitioned and shared
  LLCs, and both monitor feeds (shadow filter and live-L1 misses).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ArchConfig
from repro.core.annotations import AnnotationVector
from repro.monitor.umon import UMONMonitor
from repro.sim.cache import ReferenceSetAssociativeCache, SetAssociativeCache
from repro.sim.cpu import Core, CoreConfig, InstructionStream, StopReason
from repro.sim.hierarchy import DomainMemory, MemoryLevel
from repro.sim.kernelmode import KERNEL_ENV
from repro.sim.partition import PartitionedLLC, SharedLLC
from repro.sim.stats import DomainStats


# ----------------------------------------------------------------------
# Cache-level differential property test
# ----------------------------------------------------------------------
_ADDR = st.integers(min_value=0, max_value=48)

_OPS = st.one_of(
    st.tuples(st.just("access"), _ADDR),
    st.tuples(st.just("access_run"), st.lists(_ADDR, min_size=1, max_size=24)),
    st.tuples(st.just("probe"), _ADDR, st.booleans()),
    st.tuples(st.just("invalidate"), _ADDR),
    st.tuples(st.just("invalidate_all")),
    st.tuples(st.just("resize_sets"), st.integers(min_value=1, max_value=9)),
)


def _state(cache) -> tuple:
    """Every observable of a cache, for exact comparison."""
    stats = cache.stats
    return (
        cache.num_sets,
        cache.resident_lines,
        cache.resident_addresses(),
        (stats.hits, stats.misses, stats.evictions, stats.invalidations),
    )


def _apply(cache, op) -> object:
    """Run one operation; returns its comparable result."""
    if op[0] == "access":
        return cache.access(op[1])
    if op[0] == "access_run":
        hits, evictions = cache.access_run(np.array(op[1], dtype=np.int64))
        return (hits.tolist(), evictions)
    if op[0] == "probe":
        return cache.probe(op[1], touch=op[2])
    if op[0] == "invalidate":
        return cache.invalidate(op[1])
    if op[0] == "invalidate_all":
        return cache.invalidate_all()
    assert op[0] == "resize_sets"
    return cache.resize_sets(op[1])


class TestCacheDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        num_sets=st.integers(min_value=1, max_value=7),
        associativity=st.integers(min_value=1, max_value=4),
        ops=st.lists(_OPS, min_size=1, max_size=40),
    )
    def test_packed_recency_matches_reference(self, num_sets, associativity, ops):
        fast = SetAssociativeCache(num_sets, associativity)
        reference = ReferenceSetAssociativeCache(num_sets, associativity)
        for op in ops:
            assert _apply(fast, op) == _apply(reference, op), op
            assert _state(fast) == _state(reference), op


# ----------------------------------------------------------------------
# Core-level differential: the batched loop vs the reference loop
# ----------------------------------------------------------------------
#: Caches small enough (2-way sets everywhere) and DRAM fast enough
#: that a few hundred cycles fill sets and force evictions.
_SIZES = (4, 8, 16)
_ARCH = ArchConfig(
    num_cores=2,
    issue_width=4,
    l1_lines=4,
    l1_associativity=2,
    llc_lines=32,
    llc_associativity=2,
    l1_latency=1,
    llc_latency=5,
    dram_latency=20,
    supported_partition_lines=_SIZES,
    default_partition_lines=8,
)

#: One instruction: (address or -1, metric_excluded, progress_excluded,
#: stall cycles). Three in four are memory accesses, over about an
#: LLC's worth of lines, so the L1, the LLC and DRAM all serve accesses
#: and every cache evicts.
_LINE = st.integers(min_value=0, max_value=40)
_INSTRUCTION = st.tuples(
    st.one_of(st.just(-1), _LINE, _LINE, _LINE),
    st.booleans(),
    st.booleans(),
    st.one_of(st.just(0), st.integers(min_value=1, max_value=40)),
)

#: Between run() calls: a run with a quantum (cycles past ``now``) and a
#: progress target (None, a public-progress delta, or "pass" = exactly
#: the end of the current pass); a partition resize; or a peer domain's
#: accesses to the shared LLC.
_STEP = st.one_of(
    st.tuples(
        st.just("run"),
        st.integers(min_value=1, max_value=400),
        st.one_of(
            st.none(),
            st.just("pass"),
            st.integers(min_value=0, max_value=120),
        ),
    ),
    st.tuples(st.just("resize"), st.sampled_from(_SIZES)),
    st.tuples(st.just("peer"), st.lists(_LINE, max_size=12)),
)


@contextmanager
def _kernel(mode: str):
    """Select a kernel mode for the objects built inside the block."""
    previous = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            del os.environ[KERNEL_ENV]
        else:
            os.environ[KERNEL_ENV] = previous


def _build(stream, core_config, shared, respects, shift):
    """A core with its own LLC and monitor, under the selected kernel."""
    if shared:
        llc = SharedLLC(_ARCH.llc_lines, _ARCH.llc_associativity, 2)
    else:
        llc = PartitionedLLC(
            _ARCH.llc_lines,
            _ARCH.llc_associativity,
            2,
            _ARCH.default_partition_lines,
        )
    monitor = UMONMonitor(_SIZES, window=40, sampling_shift=shift)
    memory = DomainMemory(
        _ARCH, llc.view(0), monitor=monitor,
        monitor_respects_annotations=respects,
    )
    core = Core(0, stream, memory, _ARCH, core_config, DomainStats(domain=0))
    return core, llc


def _observables(core, llc) -> tuple:
    memory = core.memory
    llc_cache = llc._cache if isinstance(llc, SharedLLC) else llc.cache_of(0)
    monitor = memory.monitor
    filter_cache = memory._monitor_filter
    return (
        core.cycles,
        core.retired,
        core.public_retired,
        core.stats,
        dict(memory.level_counts),
        _state(memory.l1),
        _state(llc_cache),
        (llc.stats_of(0).hits, llc.stats_of(0).misses),
        None if filter_cache is None else _state(filter_cache),
        monitor._bins.tolist(),
        monitor.total_observed,
        monitor.sampled_observed,
    )


class TestCoreDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        instructions=st.lists(_INSTRUCTION, min_size=1, max_size=60),
        with_stalls=st.booleans(),
        mlp=st.sampled_from([1.0, 1.5, 3.0]),
        warmup=st.integers(min_value=0, max_value=90),
        slice_length=st.integers(min_value=1, max_value=120),
        jitter=st.sampled_from([0, 0, 3]),
        shared=st.booleans(),
        respects=st.booleans(),
        shift=st.sampled_from([0, 1]),
        steps=st.lists(_STEP, min_size=1, max_size=25),
    )
    def test_batched_loop_matches_reference(
        self, instructions, with_stalls, mlp, warmup,
        slice_length, jitter, shared, respects, shift, steps,
    ):
        addresses = np.array([i[0] for i in instructions], dtype=np.int64)
        annotations = AnnotationVector(
            np.array([i[1] for i in instructions], dtype=bool),
            np.array([i[2] for i in instructions], dtype=bool),
        )
        stalls = (
            np.array([i[3] for i in instructions], dtype=np.int64)
            if with_stalls
            else None
        )
        stream = InstructionStream(addresses, annotations, stalls)
        config = CoreConfig(
            mlp=mlp,
            slice_instructions=slice_length,
            warmup_instructions=warmup,
            timing_jitter=jitter,
            timing_jitter_seed=11,
        )
        with _kernel("batched"):
            batched, batched_llc = _build(stream, config, shared, respects, shift)
        with _kernel("reference"):
            reference, reference_llc = _build(
                stream, config, shared, respects, shift
            )
        assert batched._use_batched and not reference._use_batched

        for step in steps:
            if step[0] == "resize":
                if not shared:
                    for llc in (batched_llc, reference_llc):
                        llc.resize(0, step[1])
                continue
            if step[0] == "peer":
                if shared:
                    for llc in (batched_llc, reference_llc):
                        for addr in step[1]:
                            llc.access(1, addr)
                continue
            _, quantum, progress = step
            if progress is None:
                target = None
            elif progress == "pass":
                # Public progress at the end of the current pass, so the
                # crossing lands on the stream tail (or, with a
                # progress-excluded tail, before it) and the next target
                # beyond it crosses after a wrap.
                pos = reference._rel_pos
                target = (
                    reference.public_retired
                    - int(stream.cum_public[pos])
                    + stream.public_per_pass
                )
            else:
                target = reference.public_retired + progress
            until = float(int(reference.cycles) + quantum)
            reasons = [
                core.run(until, target) for core in (batched, reference)
            ]
            assert reasons[0] is reasons[1]
            assert _observables(batched, batched_llc) == _observables(
                reference, reference_llc
            )


def _seeded_stream(rng, length, progress_excluded=True):
    """A random annotated stream with stalls over about an LLC of lines."""
    addresses = rng.integers(0, 41, size=length).astype(np.int64)
    addresses[rng.random(length) < 0.25] = -1
    metric = rng.random(length) < 0.3
    progress = (
        rng.random(length) < 0.3 if progress_excluded
        else np.zeros(length, dtype=bool)
    )
    stalls = np.where(
        rng.random(length) < 0.2, rng.integers(1, 40, size=length), 0
    ).astype(np.int64)
    return InstructionStream(addresses, AnnotationVector(metric, progress), stalls)


def _seeded_pair(stream, shared, jitter=0):
    config = CoreConfig(
        mlp=1.5,
        slice_instructions=150,
        warmup_instructions=40,
        timing_jitter=jitter,
        timing_jitter_seed=5,
    )
    with _kernel("batched"):
        batched = _build(stream, config, shared, False, 0)
    with _kernel("reference"):
        reference = _build(stream, config, shared, False, 0)
    assert batched[0]._use_batched and not reference[0]._use_batched
    return batched, reference


@pytest.mark.parametrize("organization", ["partitioned", "shared"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partial_commit_matches_scalar_prefix(organization, seed):
    """A batched run stopped partway equals the reference prefix, exactly.

    Short quanta stop the batched loop mid-pass, so each run commits only
    a prefix of the stream; its state after every stop must equal the
    reference loop's after the same prefix. Partition resizes between
    runs (partitioned) exercise the LLC view the loop walks inline.
    """
    rng = np.random.default_rng(seed)
    stream = _seeded_stream(rng, 200)
    shared = organization == "shared"
    (batched, batched_llc), (reference, reference_llc) = _seeded_pair(
        stream, shared, jitter=3
    )
    stopped_mid_pass = 0
    for step in range(30):
        until = float(int(reference.cycles) + int(rng.integers(1, 60)))
        reasons = [core.run(until) for core in (batched, reference)]
        assert reasons[0] is reasons[1]
        assert _observables(batched, batched_llc) == _observables(
            reference, reference_llc
        )
        stopped_mid_pass += reference._rel_pos != 0
        if not shared and step % 7 == 3:
            lines = int(rng.choice(_SIZES))
            assert batched_llc.resize(0, lines) == reference_llc.resize(0, lines)
    assert stopped_mid_pass > 0  # the runs really stopped inside a pass


def test_access_block_matches_scalar_loop():
    """One long run to a progress target equals the scalar loop."""
    rng = np.random.default_rng(7)
    stream = _seeded_stream(rng, 500, progress_excluded=False)
    (batched, batched_llc), (reference, reference_llc) = _seeded_pair(
        stream, shared=False
    )
    reasons = [
        core.run(float(1 << 40), stream.public_per_pass)
        for core in (batched, reference)
    ]
    assert reasons == [StopReason.PROGRESS, StopReason.PROGRESS]
    assert batched.retired == reference.retired == 500
    assert _observables(batched, batched_llc) == _observables(
        reference, reference_llc
    )
    assert batched.memory.level_counts[MemoryLevel.DRAM] > 0  # really missed


def test_commit_zero_leaves_no_trace():
    """A run with no cycles left, or progress already met, changes nothing."""
    rng = np.random.default_rng(3)
    stream = _seeded_stream(rng, 120)
    (batched, batched_llc), _ = _seeded_pair(stream, shared=False)
    batched.run(300.0)
    before = _observables(batched, batched_llc)
    assert batched.run(batched.cycles) is StopReason.QUANTUM
    assert _observables(batched, batched_llc) == before
    assert (
        batched.run(batched.cycles + 500, batched.public_retired)
        is StopReason.PROGRESS
    )
    assert _observables(batched, batched_llc) == before
