"""Simulation-kernel selection: batched (default) vs reference.

The simulator has two equivalent inner kernels:

* ``batched`` — the production path: packed-recency caches
  (:class:`repro.sim.cache.SetAssociativeCache`) walked inline by one
  exact per-event core loop with its state in locals
  (:meth:`repro.sim.cpu.Core.run`).
* ``reference`` — the original per-access kernel: list-based caches
  (:class:`repro.sim.cache.ReferenceSetAssociativeCache`) and the
  one-call-per-access core loop, retained for differential testing and
  as the before/after baseline of ``benchmarks/bench_kernel.py``.

Results are bit-identical between the two — hit/miss/eviction/
invalidation counters, IPC, resizing traces, and leakage numbers — which
the equivalence tests pin for every scheme. Select with the
``REPRO_SIM_KERNEL`` environment variable (read at construction time, so
a test can flip it per simulation with ``monkeypatch.setenv``).
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError
from repro.sim.cache import ReferenceSetAssociativeCache, SetAssociativeCache
from repro.sim.replacement import ReplacementPolicy

#: Environment variable selecting the simulation kernel.
KERNEL_ENV = "REPRO_SIM_KERNEL"

#: Recognized kernel modes.
KERNEL_MODES = ("batched", "reference")


def kernel_mode() -> str:
    """The currently selected kernel mode (``batched`` unless overridden)."""
    mode = os.environ.get(KERNEL_ENV, "batched").strip().lower() or "batched"
    if mode not in KERNEL_MODES:
        raise ConfigurationError(
            f"unknown {KERNEL_ENV} value {mode!r}; expected one of {KERNEL_MODES}"
        )
    return mode


def batching_enabled() -> bool:
    """Whether the batched kernel is selected."""
    return kernel_mode() == "batched"


def make_cache(
    num_sets: int,
    associativity: int,
    policy: ReplacementPolicy | None = None,
):
    """A set-associative cache built for the selected kernel mode."""
    cls = SetAssociativeCache if batching_enabled() else ReferenceSetAssociativeCache
    return cls(num_sets, associativity, policy)
