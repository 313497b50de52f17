"""Span wrappers around the program's public entry points (traced runs).

Each wrapper replaces a name where its caller looks it up — a class
attribute, or a module attribute resolved at call time — and opens a
``repro.obs.trace.span`` around the original. With ``REPRO_TRACE``
pointing at a sink, the spans land in the program's own trace file;
forked workers inherit the wrappers and the sink, and their spans carry
the supervisor's open span as parent.

Scheme hooks run once per simulated quantum, far too often for a span
each. They feed a per-process accumulator instead, and the enclosing
``bench.sim.run`` span reports the hook time it contained as ``hook_s``.
"""

from __future__ import annotations

import functools
import time


def _wrap(owner, attr: str, span_name: str, attrs_of=None) -> None:
    from repro.obs import trace

    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        with trace.span(span_name) as span:
            result = original(*args, **kwargs)
            if attrs_of is not None:
                span.set(**attrs_of(result))
            return result

    setattr(owner, attr, wrapped)


class HookClock:
    """Time spent in scheme hooks in this process (outermost calls only)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self._depth = 0

    def wrap(self, original):
        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            if self._depth:
                return original(*args, **kwargs)
            self._depth = 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1
                self._depth = 0

        return wrapped


def _wrap_sim_run(clock: HookClock) -> None:
    from repro.obs import trace
    from repro.sim.system import MultiDomainSystem

    original = MultiDomainSystem.run

    @functools.wraps(original)
    def run(self, *args, **kwargs):
        seconds, calls = clock.seconds, clock.calls
        with trace.span("bench.sim.run") as span:
            result = original(self, *args, **kwargs)
            span.set(
                hook_s=clock.seconds - seconds, hook_calls=clock.calls - calls
            )
            return result

    MultiDomainSystem.run = run


def install() -> HookClock:
    """Install every wrapper; returns the scheme-hook accumulator."""
    import repro.__main__ as cli
    import repro.harness.experiment as experiment
    import repro.harness.report as report
    import repro.harness.sensitivity as sensitivity
    import repro.harness.tables as tables
    import repro.registry.builtin as builtin
    import repro.schemes.untangle as untangle
    import repro.workloads.workload as workload
    from repro.harness.exec import ExecutionEngine, MixSchemeCell, ResultCache
    from repro.harness.exec import SensitivityCell
    from repro.harness.journal import RunJournal
    from repro.harness.store import PrecomputeStore
    from repro.registry import REGISTRY

    _wrap(cli, "build_engine", "bench.build_engine")
    _wrap(tables, "table6", "bench.campaign")
    _wrap(sensitivity, "run_sensitivity_study", "bench.campaign")
    _wrap(report, "render_table6", "bench.render")
    _wrap(report, "render_sensitivity", "bench.render")
    _wrap(ExecutionEngine, "run", "bench.engine.run")
    _wrap(MixSchemeCell, "execute", "bench.cell")
    _wrap(SensitivityCell, "execute", "bench.cell")
    _wrap(ResultCache, "get", "bench.cache.get", lambda r: {"hit": r is not None})
    _wrap(ResultCache, "put", "bench.cache.put")
    _wrap(RunJournal, "record", "bench.journal.record")
    _wrap(RunJournal, "flush", "bench.journal.flush")
    _wrap(RunJournal, "load", "bench.journal.load")
    _wrap(PrecomputeStore, "populate", "bench.store.populate")
    _wrap(experiment, "cached_build_workload", "bench.workloads.fetch")
    _wrap(sensitivity, "cached_spec_stream", "bench.workloads.fetch")
    # Compositions are imported at call time by the store's builders.
    _wrap(workload, "compose_workload_arrays", "bench.workloads.compose")
    _wrap(sensitivity, "compose_spec_stream_arrays", "bench.workloads.compose")
    _wrap(untangle, "populate_rate_table", "bench.rmax")
    for module in (untangle, experiment, builtin):
        _wrap(module, "get_rate_table", "bench.rmax")

    clock = HookClock()
    _wrap_sim_run(clock)
    classes = {
        cls
        for entry in REGISTRY.registrations("scheme")
        for cls in entry.produces
    }
    for cls in classes:
        for hook in ("on_progress", "on_quantum"):
            setattr(cls, hook, clock.wrap(getattr(cls, hook)))
    return clock
