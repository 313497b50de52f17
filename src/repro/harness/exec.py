"""Parallel experiment execution engine with on-disk result caching.

Every figure and table of the paper is a grid of independent
``(mix, scheme, profile)`` — or, for Figure 11, ``(benchmark, size,
profile)`` — simulation cells. This module fans those cells out over a
process pool and memoizes their results in a content-addressed on-disk
cache, so that

* a grid of ``M`` mixes × ``S`` schemes runs on ``min(jobs, M*S)``
  cores instead of one, and
* re-running a benchmark driver after an unrelated edit performs zero
  simulations: each cell's cache key is a deterministic hash of the mix
  pairs, the scheme name, and the **full** :class:`RunProfile`, so a
  result is reused if and only if the inputs that determine it are
  unchanged.

Because each cell builds its own seeded :class:`MultiDomainSystem` from
scratch, parallel execution is *bit-identical* to serial execution (and
to a cache hit or a journal replay: the JSON round-trip used by both is
exact for Python floats). ``tests/harness/test_exec.py`` pins both
guarantees.

Fault tolerance — the measurement substrate must be at least as
dependable as the system under test:

* **Crash-safe journal + resume.** An engine with a result cache
  journals every finished cell's outcome to ``<cache-dir>/journal.jsonl``
  and reports the cell only once that record and the cell's pack entry
  are fsync'd; after a crash/SIGKILL, ``resume=True`` replays journaled
  cells from the pack (zero re-simulation) and runs only the cells that
  never completed.
* **Worker supervision.** Parallel cells run on dedicated worker
  processes watched by a supervisor: a worker that crashes or blows its
  per-cell deadline is killed and respawned, and its cell is retried
  with exponential backoff + deterministic jitter — one stuck cell can
  no longer occupy a pool slot for the rest of the run.
* **Heartbeat liveness.** Workers interleave progress-carrying
  heartbeats with their result stream, so the supervisor distinguishes
  *slow* (progress advancing — deadlines extend) from *hung* (progress
  frozen — ``worker.unresponsive`` fires, and a stall kill lands well
  before a chunk of N cells would burn N deadlines).
* **Poison-cell circuit breaker.** A cell whose every attempt killed
  its worker is quarantined as ``poisoned`` instead of shooting workers
  forever: the campaign completes, a failure manifest
  (``failures.json``) is rendered, and ``--resume`` re-attempts exactly
  the poisoned/failed cells.
* **Degraded-mode I/O.** ``ENOSPC``/``EIO`` on the journal, result
  cache, or precompute store downgrades that subsystem (journal →
  no-resume warning, cache/store → compute-only) — visible in
  telemetry, ``repro_degraded_total``, and the run span — instead of
  aborting hours of surviving work.
* **Graceful shutdown.** SIGINT/SIGTERM terminate workers cleanly,
  leave the journal valid, and surface a resume hint via
  :class:`~repro.errors.CampaignInterrupted`.
* **Orphan reaping.** Startup sweeps fault-state directories whose
  owning process died uncleanly (SIGKILL) — see
  :mod:`repro.harness.reaper`.
* **Cache integrity.** Entries carry a payload checksum; corrupt,
  truncated, or version-mismatched entries are quarantined (moved to
  the shard's ``.corrupt`` sidecar) and counted in telemetry instead
  of being silently re-parsed forever.
* **Fault injection.** A :class:`~repro.harness.faults.FaultPlan`
  (``REPRO_FAULTS``) injects crashes, hangs, worker kills, and cache
  corruption so every recovery path above is provable by tests.

Telemetry: the engine counts cache hits/misses, journal replays,
simulations, retries, failures, quarantines, and supervision events;
:func:`repro.harness.report.render_telemetry` renders the summary and
the optional ``progress`` callback receives one structured line per
completed cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.errors import CampaignInterrupted, ConfigurationError, JournalError
from repro.harness.faults import FaultPlan, faults_from_env, release_fault_state
from repro.harness.journal import JournalEntry, RunJournal
from repro.harness.reaper import reap_orphans
from repro.harness.profiling import maybe_profile, reset_claim
from repro.harness import store as precompute
from repro.harness.runconfig import RunProfile
from repro.harness.store import (
    PRECOMPUTE_ENV,
    STORE_DIR_ENV,
    PrecomputeStore,
    apply_store_stats_delta,
    clear_active_store,
    set_active_store,
    store_stats_delta,
    store_stats_snapshot,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.liveness import progress_beat, progress_value

#: Bump when the cached payload layout changes incompatibly; old entries
#: are then quarantined, not misread. (2: entries carry a payload
#: checksum. 3: symmetric linear-interpolation partition quartiles;
#: unfinished slices report partial IPC instead of 0.) A change of
#: *results* bumps :data:`repro.harness.store.SCIENCE_VERSION` instead,
#: which every cell key carries.
CACHE_FORMAT_VERSION = 3

#: Hard ceiling on cells per dispatched chunk (auto sizing stays below).
MAX_BATCH_CELLS = 32

#: Layout version of the failure manifest (``failures.json``).
MANIFEST_FORMAT_VERSION = 1

#: File the failure manifest is rendered to, in the cache directory
#: (beside the journal).
MANIFEST_NAME = "failures.json"

# Engine-level metrics, recorded per cell / per supervision event (never
# per simulated access), so they are cheap enough to count always;
# REPRO_METRICS only controls whether they are exported. They live in
# the process-wide registry (repro.obs.metrics.get_registry()) alongside
# the simulator's and journal's counters.
_REG = obs_metrics.get_registry()
_M_CELLS = {
    status: _REG.counter(
        "repro_exec_cells_total",
        "Engine cell outcomes by status",
        status=status,
    )
    for status in ("computed", "hit", "replayed", "failed", "poisoned")
}
_M_RETRIES = _REG.counter("repro_exec_retries_total", "Cell retry attempts")
_M_CYCLES = _REG.counter(
    "repro_exec_cycles_simulated_total", "Simulated cycles across cells"
)
_M_WORKER = {
    kind: _REG.counter(
        "repro_exec_worker_events_total",
        "Worker supervision events",
        kind=kind,
    )
    for kind in ("crash", "timeout", "respawn", "unresponsive")
}
_M_DEGRADED = {
    subsystem: _REG.counter(
        "repro_degraded_total",
        "I/O subsystems downgraded mid-campaign instead of aborting",
        subsystem=subsystem,
    )
    for subsystem in ("journal", "cache", "store")
}
_M_BACKOFF = _REG.counter(
    "repro_exec_backoff_seconds_total", "Retry backoff delay scheduled"
)
_M_CACHE = {
    kind: _REG.counter(
        "repro_cache_requests_total",
        "Result-cache lookups by outcome",
        outcome=kind,
    )
    for kind in ("hit", "miss", "quarantined")
}
_M_PACK_BYTES = _REG.counter(
    "repro_cache_pack_bytes_total",
    "Bytes appended to result-cache pack segments",
)
_M_CELL_SECONDS = _REG.histogram(
    "repro_exec_cell_seconds",
    "Per-cell wall time (completed cells)",
    buckets=obs_metrics.CELL_SECONDS_BUCKETS,
)
_M_BATCH_CELLS = _REG.histogram(
    "repro_batch_cells",
    "Cells per dispatched chunk",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
)


# ----------------------------------------------------------------------
# Cells: one independent unit of simulation work
# ----------------------------------------------------------------------
def _profile_token(profile: RunProfile) -> dict[str, Any]:
    """The full profile as a canonical, JSON-able dict (cache identity)."""
    return dataclasses.asdict(profile)


@dataclass(frozen=True)
class MixSchemeCell:
    """One mix simulated under one scheme — a Figure 10/12-17 cell.

    ``scheme_params`` holds registry parameter overrides as a sorted
    ``((name, value), ...)`` tuple (see
    :func:`repro.registry.canonical_params`). It is *omitted* from the
    cache token when empty, so every cell spelled the old way — every
    cell of every existing campaign — keeps its exact cache key.
    """

    pairs: tuple[tuple[str, str], ...]
    scheme: str
    profile: RunProfile
    scheme_params: tuple[tuple[str, Any], ...] = ()

    @property
    def label(self) -> str:
        base = f"mix[{'|'.join(s + '+' + c for s, c in self.pairs)}]/{self.scheme}"
        if not self.scheme_params:
            return base
        overrides = ",".join(f"{k}={v}" for k, v in self.scheme_params)
        return f"{base}{{{overrides}}}"

    def cache_token(self) -> dict[str, Any]:
        token = {
            "kind": "mix-scheme",
            "pairs": [list(pair) for pair in self.pairs],
            "scheme": self.scheme,
            "profile": _profile_token(self.profile),
        }
        if self.scheme_params:
            token["scheme_params"] = {
                name: list(value) if isinstance(value, tuple) else value
                for name, value in self.scheme_params
            }
        return token

    def execute(self) -> Any:
        from repro.harness.experiment import run_mix_scheme

        return run_mix_scheme(
            list(self.pairs),
            self.scheme,
            self.profile,
            scheme_params=dict(self.scheme_params) or None,
        )

    def batch_group(self) -> tuple:
        """Chunk-compatibility key for cell-major batching.

        Cells sharing a scheme (including parameter overrides) and
        profile have comparable runtimes and identical store needs, so
        chunking them through one worker amortizes dispatch without
        creating stragglers inside a chunk.
        """
        return (
            "mix-scheme", self.scheme, self.profile.name,
            self.scheme_params,
        )

    def store_needs(self) -> list[tuple]:
        """Precomputable artifacts this cell will consume (store populate).

        One workload trace per pair (mirroring ``run_mix_scheme``'s
        seeds) plus whatever the scheme's registration declares — for
        the Untangle variants, the exact rate table its factory will
        request.
        """
        from repro.registry import scheme_store_needs

        needs: list[tuple] = [
            ("trace", spec, crypto, self.profile.workload_scale,
             self.profile.seed + index)
            for index, (spec, crypto) in enumerate(self.pairs)
        ]
        try:
            needs.extend(
                scheme_store_needs(
                    self.scheme, self.profile, dict(self.scheme_params)
                )
            )
        except ConfigurationError:
            # An unregistered scheme fails loudly at execute(); store
            # populate must not be the first place to die.
            pass
        return needs

    @staticmethod
    def cycles_of(value: Any) -> int:
        return int(value.total_cycles)

    @staticmethod
    def encode(value: Any) -> dict[str, Any]:
        return {
            "scheme": value.scheme,
            "total_cycles": value.total_cycles,
            "workloads": [
                {
                    "label": w.label,
                    "ipc": w.ipc,
                    "assessments": w.assessments,
                    "visible_actions": w.visible_actions,
                    "leakage_bits": w.leakage_bits,
                    "partition_quartiles": list(w.partition_quartiles),
                }
                for w in value.workloads
            ],
        }

    @staticmethod
    def decode(payload: dict[str, Any]) -> Any:
        from repro.harness.experiment import SchemeRunResult, WorkloadResult

        return SchemeRunResult(
            scheme=payload["scheme"],
            total_cycles=payload["total_cycles"],
            workloads=[
                WorkloadResult(
                    label=w["label"],
                    ipc=w["ipc"],
                    assessments=w["assessments"],
                    visible_actions=w["visible_actions"],
                    leakage_bits=w["leakage_bits"],
                    partition_quartiles=tuple(w["partition_quartiles"]),
                )
                for w in payload["workloads"]
            ],
        )


@dataclass(frozen=True)
class SensitivityCell:
    """One benchmark alone at one partition size — a Figure 11 cell."""

    benchmark: str
    partition_lines: int
    profile: RunProfile

    @property
    def label(self) -> str:
        return f"sensitivity[{self.benchmark}]/{self.partition_lines}"

    def cache_token(self) -> dict[str, Any]:
        return {
            "kind": "sensitivity",
            "benchmark": self.benchmark,
            "partition_lines": self.partition_lines,
            "profile": _profile_token(self.profile),
        }

    def execute(self) -> Any:
        from repro.harness.sensitivity import run_benchmark_at_size
        from repro.workloads.spec import SPEC_BENCHMARKS

        return run_benchmark_at_size(
            SPEC_BENCHMARKS[self.benchmark], self.partition_lines, self.profile
        )

    def batch_group(self) -> tuple:
        """Chunk-compatibility key: all sizes of one profile batch well
        (they share the benchmark-trace store needs and kernel shape)."""
        return ("sensitivity", self.profile.name)

    def store_needs(self) -> list[tuple]:
        """One shared SPEC-only trace per benchmark, reused by all sizes."""
        scale = self.profile.workload_scale
        return [
            (
                "spec-stream",
                self.benchmark,
                scale.spec_instructions,
                scale.lines_per_mb,
                self.profile.seed,
            )
        ]

    @staticmethod
    def cycles_of(value: Any) -> int | None:
        return None

    @staticmethod
    def encode(value: Any) -> dict[str, Any]:
        return {"ipc": value}

    @staticmethod
    def decode(payload: dict[str, Any]) -> Any:
        return payload["ipc"]


def cell_key(cell: Any) -> str:
    """Deterministic content hash identifying one cell's result."""
    token = {
        "format": CACHE_FORMAT_VERSION,
        "science": precompute.SCIENCE_VERSION,
        **cell.cache_token(),
    }
    canonical = json.dumps(token, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed store of cell results in packed segments.

    Entries are appended to per-shard pack segments
    (``<directory>/packs/<key[:1]>.pack``, one JSON line per entry)
    with an in-memory offset index, persisted as a compact sidecar
    (``<shard>.idx``) on teardown so a warm process locates every entry
    without rescanning. One put is one ``write(2)`` on an already-open
    ``O_APPEND`` descriptor — no per-entry ``mkdir``/``mkstemp``/
    ``os.replace`` — which is what lets the campaign control plane
    scale to 100k trivial cells. A key with no packed entry is a miss.

    Integrity: every entry carries the SHA-256 of its value payload. A
    packed entry that is torn, garbled, checksum-mismatched, or
    format-incompatible is *quarantined* — its bytes are appended to
    the shard's ``<shard>.corrupt`` sidecar and the pack is compacted
    (atomic rewrite + rename) to drop exactly the damaged lines,
    counted in :attr:`quarantined`.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        #: Entries quarantined by :meth:`get` over this instance's life.
        self.quarantined = 0
        #: Successful/absent lookups over this instance's life.
        self.hits = 0
        self.misses = 0
        # Packed-segment state: per-shard offset index, bytes scanned,
        # open O_APPEND descriptors, and which sidecars need rewriting.
        self._index: dict[str, dict[str, tuple[int, int]]] = {}
        self._scanned: dict[str, int] = {}
        self._fds: dict[str, int] = {}
        self._dirty: set[str] = set()
        self._packs_dir_made = False
        #: Shards already brought up to date by :meth:`_refresh_shard`
        #: this instance (one ``stat`` + tail scan per shard, not per
        #: get). A validation failure still forces a full re-scan.
        self._refreshed: set[str] = set()
        #: Shards appended to since the last :meth:`sync`.
        self._unsynced: set[str] = set()

    # -- paths ----------------------------------------------------------
    @staticmethod
    def _pack_shard(key: str) -> str:
        """Pack shard of a key: one hex character, sixteen segments.

        Few, large, append-only files keep descriptors, sidecars and
        fsync targets few, and sixteen segments keep even a 100k-cell
        cache at a comfortable per-segment size.
        """
        return key[:1]

    def _pack_path(self, shard: str) -> Path:
        return self.directory / "packs" / f"{shard}.pack"

    def _index_path(self, shard: str) -> Path:
        return self.directory / "packs" / f"{shard}.idx"

    def _corrupt_path(self, shard: str) -> Path:
        return self.directory / "packs" / f"{shard}.corrupt"

    @staticmethod
    def _value_checksum(value: Any) -> str:
        canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @staticmethod
    def _encode_entry(key: str, payload: dict[str, Any]) -> bytes:
        """One pack line, serializing the value exactly once.

        The value's canonical JSON feeds the sha256 *and* is spliced
        verbatim into the entry line (canonical JSON round-trips
        exactly, so the checksum re-verifies on read).
        """
        value_json = json.dumps(
            payload.get("value"), sort_keys=True, separators=(",", ":")
        )
        sha = hashlib.sha256(value_json.encode("utf-8")).hexdigest()
        rest = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "sha256": sha,
            **{k: v for k, v in payload.items() if k != "value"},
        }
        head = json.dumps(rest, separators=(",", ":"))
        return (head[:-1] + ',"value":' + value_json + "}\n").encode("utf-8")

    # -- pack plumbing --------------------------------------------------
    def _ensure_packs_dir(self) -> None:
        if not self._packs_dir_made:
            (self.directory / "packs").mkdir(parents=True, exist_ok=True)
            self._packs_dir_made = True

    def _fd(self, shard: str) -> int:
        """The shard's append descriptor, opened (and tail-repaired) once."""
        fd = self._fds.get(shard)
        if fd is not None:
            return fd
        self._ensure_packs_dir()
        fd = os.open(
            self._pack_path(shard),
            os.O_APPEND | os.O_CREAT | os.O_RDWR,
            0o644,
        )
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            # A torn final append (crash mid-write) left no newline;
            # terminate it so the fragment scans as one damaged line
            # instead of gluing itself onto the next entry.
            os.write(fd, b"\n")
        self._fds[shard] = fd
        return fd

    def _load_sidecar(self, shard: str, size: int) -> int:
        """Seed the in-memory index from ``<shard>.idx``; returns the
        byte offset up to which the sidecar is authoritative."""
        try:
            sidecar = json.loads(self._index_path(shard).read_bytes())
        except (OSError, ValueError):
            return 0
        if (
            not isinstance(sidecar, dict)
            or sidecar.get("format") != CACHE_FORMAT_VERSION
            or not isinstance(sidecar.get("entries"), dict)
            or not isinstance(sidecar.get("pack_bytes"), int)
            or sidecar["pack_bytes"] > size
        ):
            # Stale or damaged sidecar (e.g. the pack was compacted or
            # truncated after it was written): fall back to a full scan.
            return 0
        index = self._index.setdefault(shard, {})
        for key, loc in sidecar["entries"].items():
            if (
                isinstance(key, str)
                and isinstance(loc, list)
                and len(loc) == 2
                and all(isinstance(v, int) for v in loc)
            ):
                index[key] = (loc[0], loc[1])
        return sidecar["pack_bytes"]

    def _refresh_shard(self, shard: str) -> None:
        """Index any pack bytes this instance has not scanned yet.

        Damaged lines found while scanning (torn tail from a crash,
        foreign garbage) are quarantined immediately; parseable entries
        are indexed newest-wins. A trailing fragment without a newline
        is left unscanned — the tail repair in :meth:`_fd` bounds it.

        Runs once per shard per instance: a fresh instance always
        re-scans (so cross-process appends are picked up between
        campaigns), but within one campaign the supervisor is the only
        writer, so repeating the ``stat`` on every get buys nothing.
        :meth:`_read_packed` drops the memo when validation fails.
        """
        if shard in self._refreshed:
            return
        self._refreshed.add(shard)
        path = self._pack_path(shard)
        try:
            size = path.stat().st_size
        except OSError:
            self._index.setdefault(shard, {})
            self._scanned.setdefault(shard, 0)
            return
        scanned = self._scanned.get(shard)
        if scanned is None:
            scanned = self._load_sidecar(shard, size)
        if size <= scanned:
            self._index.setdefault(shard, {})
            self._scanned[shard] = scanned
            return
        try:
            with open(path, "rb") as handle:
                handle.seek(scanned)
                blob = handle.read(size - scanned)
        except OSError:
            self._index.setdefault(shard, {})
            self._scanned.setdefault(shard, scanned)
            return
        index = self._index.setdefault(shard, {})
        offset = scanned
        damaged: list[tuple[int, int]] = []
        end = len(blob)
        pos = 0
        while pos < end:
            newline = blob.find(b"\n", pos)
            if newline < 0:
                break  # in-flight/torn tail: not scanned, not damaged
            line = blob[pos : newline + 1]
            length = len(line)
            key = None
            try:
                fields = json.loads(line)
                if isinstance(fields, dict):
                    key = fields.get("key")
            except ValueError:
                pass
            if isinstance(key, str):
                index[key] = (offset, length)
            elif line.strip():
                damaged.append((offset, length))
            offset += length
            pos = newline + 1
        self._scanned[shard] = offset
        if damaged:
            for dmg_offset, dmg_length in damaged:
                self._quarantine_packed_bytes(
                    shard, blob[dmg_offset - scanned :][:dmg_length]
                )
            self._compact_shard(shard)

    def _quarantine_packed_bytes(self, shard: str, data: bytes) -> None:
        """Book one damaged packed entry: counted, bytes preserved in
        the shard's ``.corrupt`` sidecar for diagnosis."""
        self.quarantined += 1
        _M_CACHE["quarantined"].inc()
        obs_trace.event(
            "cache.quarantine", path=str(self._pack_path(shard)), shard=shard
        )
        try:
            self._ensure_packs_dir()
            with open(self._corrupt_path(shard), "ab") as handle:
                handle.write(data if data.endswith(b"\n") else data + b"\n")
        except OSError:
            pass

    def _compact_shard(self, shard: str) -> None:
        """Rewrite the shard's pack from its surviving index entries.

        Atomic (temp file + rename), so readers never see a half-
        compacted pack; only the quarantined lines are dropped, every
        surviving entry's bytes are preserved verbatim.
        """
        path = self._pack_path(shard)
        index = self._index.get(shard, {})
        with obs_trace.span(
            "cache.compact", path=str(path), entries=len(index)
        ):
            fd = self._fd(shard)
            survivors: list[tuple[str, bytes]] = []
            for key, (offset, length) in sorted(
                index.items(), key=lambda item: item[1][0]
            ):
                data = os.pread(fd, length, offset)
                if len(data) == length:
                    survivors.append((key, data))
            tmp_fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{shard}-", suffix=".tmp"
            )
            try:
                new_index: dict[str, tuple[int, int]] = {}
                offset = 0
                with os.fdopen(tmp_fd, "wb") as handle:
                    for key, data in survivors:
                        handle.write(data)
                        new_index[key] = (offset, len(data))
                        offset += len(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            # The open descriptor still points at the pre-compaction
            # inode; reopen lazily.
            os.close(self._fds.pop(shard))
            self._index[shard] = new_index
            self._scanned[shard] = offset
            self._dirty.add(shard)

    def _write_sidecar(self, shard: str) -> None:
        index = self._index.get(shard)
        if index is None:
            return
        payload = {
            "format": CACHE_FORMAT_VERSION,
            "pack_bytes": self._scanned.get(shard, 0),
            "entries": {key: list(loc) for key, loc in index.items()},
        }
        path = self._index_path(shard)
        try:
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{shard}-", suffix=".idx.tmp"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except (OSError, UnboundLocalError):
                pass

    def release_handles(self) -> None:
        """Persist dirty sidecar indexes and close pack descriptors.

        Called on engine teardown (and finalization) so a campaign
        holds at most one descriptor per touched shard while running
        and zero afterwards.
        """
        for shard in sorted(self._dirty):
            self._write_sidecar(shard)
        self._dirty.clear()
        for shard in list(self._fds):
            try:
                os.close(self._fds.pop(shard))
            except OSError:
                pass

    close = release_handles

    def __del__(self):  # pragma: no cover - finalization best-effort
        try:
            self.release_handles()
        except Exception:
            pass

    @staticmethod
    def _valid(payload: Any) -> bool:
        return (
            isinstance(payload, dict)
            and payload.get("format") == CACHE_FORMAT_VERSION
            and "value" in payload
            and payload.get("sha256")
            == ResultCache._value_checksum(payload["value"])
        )

    # -- lookup ---------------------------------------------------------
    def _read_packed(self, shard: str, key: str) -> dict[str, Any] | None:
        """The packed entry for ``key``, quarantining it if damaged.

        Returns the payload on success, ``None`` when the key has no
        (surviving) packed entry. A validation failure first forces a
        full shard rescan — the index may be stale if another process
        appended or compacted — and only quarantines if the freshly
        located bytes are damaged too.
        """
        for attempt in range(2):
            loc = self._index.get(shard, {}).get(key)
            if loc is None:
                return None
            offset, length = loc
            try:
                data = os.pread(self._fd(shard), length, offset)
            except OSError:
                return None
            payload: Any = None
            if len(data) == length:
                try:
                    payload = json.loads(data)
                except ValueError:
                    payload = None
            if (
                isinstance(payload, dict)
                and payload.get("key") == key
                and self._valid(payload)
            ):
                return payload
            if attempt == 0:
                # Stale index? Re-scan the shard from scratch before
                # declaring the entry damaged.
                self._index.pop(shard, None)
                self._scanned.pop(shard, None)
                self._refreshed.discard(shard)
                self._refresh_shard(shard)
                if self._index.get(shard, {}).get(key) == loc:
                    break  # same bytes — genuinely damaged
        loc = self._index.get(shard, {}).get(key)
        if loc is None:
            return None
        offset, length = loc
        try:
            data = os.pread(self._fd(shard), length, offset)
        except OSError:
            data = b""
        self._index[shard].pop(key, None)
        self._quarantine_packed_bytes(shard, data)
        self._compact_shard(shard)
        return None

    def get(self, key: str) -> dict[str, Any] | None:
        shard = self._pack_shard(key)
        self._refresh_shard(shard)
        payload = self._read_packed(shard, key)
        if payload is not None:
            self.hits += 1
            _M_CACHE["hit"].inc()
            return payload
        self.misses += 1
        _M_CACHE["miss"].inc()
        return None

    # -- write ----------------------------------------------------------
    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Write one entry durably-replaceable and atomically visible.

        One append of one serialized line (newline-terminated appends
        are atomic for readers; a newer line for the same key shadows
        older ones). Raises ``OSError`` (e.g.
        ``ENOSPC``/``EIO``): the engine downgrades the cache to
        compute-only on the first write failure rather than silently
        dropping every entry onto a full disk for the rest of the
        campaign.
        """
        line = self._encode_entry(key, payload)
        shard = self._pack_shard(key)
        fd = self._fd(shard)
        offset = os.lseek(fd, 0, os.SEEK_END)
        os.write(fd, line)
        _M_PACK_BYTES.inc(len(line))
        index = self._index.setdefault(shard, {})
        index[key] = (offset, len(line))
        if self._scanned.get(shard, 0) == offset:
            # Contiguous with what we have scanned; otherwise a foreign
            # writer appended in between and the next refresh re-scans.
            self._scanned[shard] = offset + len(line)
        self._dirty.add(shard)
        self._unsynced.add(shard)

    def sync(self) -> None:
        """Fsync every pack shard appended to since the last call.

        The engine calls this before it acks a computed cell, so an
        acked value survives power loss as its journal record does.
        Raises ``OSError``, like :meth:`put`. (A compacted shard was
        already fsync'd by its rewrite and has no open descriptor.)
        """
        while self._unsynced:
            fd = self._fds.get(self._unsynced.pop())
            if fd is not None:
                os.fsync(fd)

    # -- fault seam -----------------------------------------------------
    def corrupt_entry(self, key: str) -> None:
        """Garble the stored entry for ``key`` in place (fault injection).

        The entry is damaged *within* its line — byte length and
        neighbors untouched, so exactly one entry is affected. A key
        with no packed entry is left alone.
        """
        shard = self._pack_shard(key)
        self._refresh_shard(shard)
        loc = self._index.get(shard, {}).get(key)
        if loc is None:
            return
        offset, length = loc
        stamp = b"#torn-write#"[: max(1, length - 2)]
        try:
            # Not the shard's O_APPEND descriptor: pwrite on O_APPEND
            # appends regardless of offset (Linux), which would leave
            # the target line intact.
            fd = os.open(self._pack_path(shard), os.O_WRONLY)
            try:
                os.pwrite(fd, stamp, offset)
            finally:
                os.close(fd)
        except OSError:
            pass


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
@dataclass
class CellRecord:
    """Per-cell telemetry line."""

    label: str
    status: str  # "hit" | "replayed" | "computed" | "failed" | "poisoned"
    wall_seconds: float
    attempts: int
    cycles: int | None = None
    error: str | None = None


@dataclass
class EngineTelemetry:
    """Counters accumulated across one engine's lifetime."""

    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    journal_replays: int = 0
    simulations: int = 0
    retries: int = 0
    failures: int = 0
    #: Subset of ``failures`` quarantined as poison: every attempt ended
    #: in a worker death, so retrying further is hopeless by evidence.
    poisoned: int = 0
    #: Corrupt/stale cache entries this engine moved to their shard's
    #: ``.corrupt`` sidecar.
    quarantines: int = 0
    #: Worker processes that died mid-cell (and were respawned).
    worker_crashes: int = 0
    #: Workers killed for blowing the per-cell deadline (or for stalling
    #: past the stall deadline with frozen heartbeat progress).
    worker_timeouts: int = 0
    workers_respawned: int = 0
    #: ``worker.unresponsive`` warnings: heartbeats silent or progress
    #: frozen long enough to flag, before any kill decision.
    worker_unresponsive: int = 0
    #: I/O subsystems downgraded mid-run instead of aborting the
    #: campaign: subsystem name -> first error, e.g.
    #: ``{"cache": "OSError: [Errno 28] No space left on device"}``.
    degraded: dict[str, str] = field(default_factory=dict)
    #: Total retry backoff delay scheduled (seconds).
    backoff_seconds: float = 0.0
    #: True when the run ended via SIGINT/SIGTERM.
    interrupted: bool = False
    wall_seconds: float = 0.0
    cell_seconds: float = 0.0
    cycles_simulated: int = 0
    #: Precompute-store accounting (PR 5), absorbed once per run from
    #: the metrics registry (populate + serial cells + worker deltas).
    store_trace_hits: int = 0
    store_trace_misses: int = 0
    store_trace_bytes: int = 0
    store_rmax_hits: int = 0
    store_rmax_misses: int = 0
    store_quarantines: int = 0
    #: Full workload compositions / Dinkelbach solves paid anywhere in
    #: the campaign — a warm store drives both to zero.
    workload_builds: int = 0
    rmax_solves: int = 0
    #: Chunks sent to workers / cells carried by those chunks. Equal
    #: when ``batch_cells=1``; their ratio is the realized batch factor.
    batches_dispatched: int = 0
    batched_cells: int = 0
    #: One record per cell, in completion order (the failure manifest
    #: and the per-cell percentiles read them).
    records: list[CellRecord] = field(default_factory=list)

    def note(self, record: CellRecord) -> None:
        self.records.append(record)
        self.cells += 1
        self.cell_seconds += record.wall_seconds
        _M_CELLS[record.status].inc()
        _M_CELL_SECONDS.observe(record.wall_seconds)
        if record.status == "hit":
            self.cache_hits += 1
            return
        if record.status == "replayed":
            # Replayed cells were read from the pack, *not*
            # re-simulated: they must never count as misses or
            # simulations (they would double-book work that a previous
            # campaign already paid for).
            self.journal_replays += 1
            return
        self.cache_misses += 1
        if record.status == "computed":
            self.simulations += 1
            if record.cycles is not None:
                self.cycles_simulated += record.cycles
                _M_CYCLES.inc(record.cycles)
        else:
            # "poisoned" is a flavor of failure: it counts inside
            # ``failures`` (keeping the accounting invariant four-way)
            # with its own subset counter for the breakdown/manifest.
            self.failures += 1
            if record.status == "poisoned":
                self.poisoned += 1
        retries = max(0, record.attempts - 1)
        self.retries += retries
        if retries:
            _M_RETRIES.inc(retries)

    def snapshot(self) -> dict[str, Any]:
        """Canonical counter dict — the single source of truth that both
        :func:`repro.harness.report.render_telemetry` and the metrics
        exporters render from.

        Invariant (pinned by tests):
        ``computed + hit + replayed + failed == total``
        (``poisoned`` is a subset of ``failed``, not a fifth term).
        """
        seconds = sorted(record.wall_seconds for record in self.records)

        def percentile(q: float) -> float | None:
            # Exact nearest rank; a cache hit is a 0.0 s cell.
            if not seconds:
                return None
            return seconds[max(0, math.ceil(q * len(seconds)) - 1)]

        return {
            "total": self.cells,
            "computed": self.simulations,
            "hit": self.cache_hits,
            "replayed": self.journal_replays,
            "failed": self.failures,
            "poisoned": self.poisoned,
            "misses": self.cache_misses,
            "retries": self.retries,
            "quarantined": self.quarantines,
            "worker_crashes": self.worker_crashes,
            "worker_timeouts": self.worker_timeouts,
            "workers_respawned": self.workers_respawned,
            "worker_unresponsive": self.worker_unresponsive,
            "degraded": dict(self.degraded),
            "backoff_seconds": self.backoff_seconds,
            "interrupted": self.interrupted,
            "wall_seconds": self.wall_seconds,
            "cell_seconds": self.cell_seconds,
            "cycles_simulated": self.cycles_simulated,
            "store_trace_hits": self.store_trace_hits,
            "store_trace_misses": self.store_trace_misses,
            "store_trace_bytes": self.store_trace_bytes,
            "store_rmax_hits": self.store_rmax_hits,
            "store_rmax_misses": self.store_rmax_misses,
            "store_quarantines": self.store_quarantines,
            "workload_builds": self.workload_builds,
            "rmax_solves": self.rmax_solves,
            "steals": 0,  # read by perfbench/run.py (engine.steals)
            "batches": self.batches_dispatched,
            "batched_cells": self.batched_cells,
            "cell_seconds_p50": percentile(0.5),
            "cell_seconds_p90": percentile(0.9),
            "cell_seconds_p99": percentile(0.99),
        }

    def absorb_store(self, delta: dict[str, float]) -> None:
        """Fold one run's store/build/solve counter delta into telemetry.

        ``delta`` comes from :func:`repro.harness.store.store_stats_delta`
        over the run's registry snapshots — by then worker deltas have
        already been replayed into the parent registry, so each unit of
        work is counted exactly once regardless of where it executed.
        """
        self.store_trace_hits += int(delta.get("store_trace_hits", 0))
        self.store_trace_misses += int(delta.get("store_trace_misses", 0))
        self.store_trace_bytes += int(delta.get("store_trace_bytes", 0))
        self.store_rmax_hits += int(delta.get("store_rmax_hits", 0))
        self.store_rmax_misses += int(delta.get("store_rmax_misses", 0))
        self.store_quarantines += int(
            delta.get("store_quarantined_trace", 0)
            + delta.get("store_quarantined_rmax", 0)
        )
        self.workload_builds += int(delta.get("workload_builds", 0))
        self.rmax_solves += int(delta.get("rmax_solves", 0))

    def publish(self, registry=None) -> None:
        """Mirror the timing aggregates into the metrics registry.

        The count-like fields are already incremented live (in
        :meth:`note` and by the supervisor); only the engine-lifetime
        seconds, which accumulate outside any single counter event, are
        synced here as gauges.
        """
        registry = registry if registry is not None else _REG
        registry.gauge(
            "repro_exec_wall_seconds", "Engine wall-clock time"
        ).set(self.wall_seconds)
        # Per-cell seconds are NOT mirrored here: the
        # ``repro_exec_cell_seconds`` histogram already exports the sum
        # (and a second series under the same name would be invalid
        # Prometheus exposition).


@dataclass
class CellOutcome:
    """Result of running one cell through the engine."""

    cell: Any
    key: str
    value: Any | None
    status: str  # "hit" | "replayed" | "computed" | "failed" | "poisoned"
    wall_seconds: float
    attempts: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status not in ("failed", "poisoned")


# ----------------------------------------------------------------------
# Retry backoff
# ----------------------------------------------------------------------
def backoff_delay(
    key: str, attempt: int, base: float, cap: float
) -> float:
    """Exponential backoff with *deterministic* jitter.

    ``base * 2**(attempt-1)`` capped at ``cap``, scaled by a jitter
    factor in ``[0.5, 1.0)`` derived from a hash of ``(key, attempt)``
    — so concurrent retries de-synchronize, yet a re-run of the same
    campaign schedules bit-identical delays (no hidden randomness).
    """
    if base <= 0:
        return 0.0
    raw = min(cap, base * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    jitter = 0.5 + digest[0] / 512.0
    return raw * jitter


# ----------------------------------------------------------------------
# Cost model (run-queue order)
# ----------------------------------------------------------------------
def _cost_family(label: str) -> str:
    """The scheduling family of a cell label (its trailing component).

    ``mix[...]/untangle`` → ``untangle``; parameter overrides are
    stripped (``.../threshold{expand_fraction=0.95}`` → ``threshold``)
    so variants of one scheme share its weight;
    ``sensitivity[x]/4096`` → ``4096`` (sensitivity sizes fall through
    to the default weight, which is fine — they are mutually
    homogeneous).
    """
    family = label.rsplit("/", 1)[-1]
    return family.split("{", 1)[0]


def expected_cost(cell: Any) -> float:
    """Expected relative runtime of one cell, for LPT dispatch order.

    The registered ``cost_weight`` of the label's scheme family
    (Untangle variants pay monitors + Dinkelbach-style assessments;
    Time pays monitors; Static/Shared are bare simulation); non-scheme
    families — e.g. sensitivity partition sizes — take the neutral
    weight. Only the *ordering* matters: an inaccurate estimate costs
    balance, never correctness, because idle workers keep taking the
    next queued chunk.
    """
    from repro.registry import scheme_cost_weight

    weight = scheme_cost_weight(_cost_family(cell.label))
    return 1.0 if weight is None else weight


# ----------------------------------------------------------------------
# Worker entry points (must be importable for multiprocessing)
# ----------------------------------------------------------------------
def _execute_cell(
    cell: Any,
    faults: FaultPlan | None = None,
    worker_id: int | None = None,
) -> tuple[Any, float]:
    """Run one cell in the current process; returns (value, wall_seconds)."""
    if faults is not None:
        faults.on_cell_start(cell.label, worker_id)
    with obs_trace.span("cell.compute", label=cell.label, worker=worker_id):
        start = time.perf_counter()
        value = maybe_profile(cell.label, cell.execute, worker_id)
        return value, time.perf_counter() - start


def _chunk_messages(chunk, faults, worker_id):
    """Yield one result message per cell of a chunk, in chunk order."""
    for index, cell in chunk:
        start = time.perf_counter()
        # Store/build/solve counters accumulate in *this* process's
        # registry; ship the per-cell delta home so the parent registry
        # (the one the exporters and telemetry read) accounts for work
        # wherever it ran.
        stats_before = store_stats_snapshot()
        try:
            value, wall = _execute_cell(cell, faults, worker_id)
            delta = store_stats_delta(stats_before, store_stats_snapshot())
            yield (index, "ok", value, wall, delta)
        except Exception as exc:  # graceful degradation
            delta = store_stats_delta(stats_before, store_stats_snapshot())
            yield (
                index,
                "error",
                f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start,
                delta,
            )


def _heartbeat_loop(
    conn: multiprocessing.connection.Connection,
    send_lock: threading.Lock,
    stop: threading.Event,
    interval: float,
) -> None:
    """Heartbeat thread body: ship the progress counter home periodically.

    Each beat is ``("heartbeat", progress_value())`` — the supervisor
    compares successive values to distinguish a *slow* cell (counter
    advancing: simulation quanta are completing) from a *hung* one
    (beats arriving with a frozen counter, or no beats at all once even
    this thread is stopped). The thread runs as a daemon and exits on
    the first failed send: a broken pipe means the supervisor is gone.

    Note the limits of the evidence: Python threads share the GIL, so a
    C extension that blocks *without releasing the GIL* also silences
    the heartbeat — which is fine, because silence is treated exactly
    like frozen progress.
    """
    while not stop.wait(interval):
        try:
            with send_lock:
                conn.send(("heartbeat", progress_value()))
        except Exception:
            return


def _worker_main(
    conn: multiprocessing.connection.Connection,
    worker_id: int,
    faults: FaultPlan | None,
    heartbeat: float | None = None,
) -> None:
    """Worker loop: receive chunks of ``(index, cell)`` tasks, send back
    one result message per cell.

    Cell-major batching: a chunk's cells run back-to-back in one
    worker, amortizing dispatch. Results stream home *per cell* (the
    message shape is unchanged from per-cell dispatch), so supervisor
    accounting, deadlines, and retry bookkeeping see individual cells —
    and results stay bit-identical to serial execution.

    Liveness: with ``heartbeat`` set, a daemon thread interleaves
    ``("heartbeat", progress)`` tuples with the result stream (the send
    lock keeps messages whole), so the supervisor can tell slow from
    hung *mid-cell* instead of waiting out a whole chunk of deadlines.

    SIGINT is ignored so a terminal Ctrl-C reaches only the supervisor,
    which then terminates workers deliberately (after flushing the
    journal) instead of racing N KeyboardInterrupts. SIGTERM is reset
    to its default action: a forked worker inherits the supervisor's
    flag-setting handler, which would make ``Process.terminate()`` a
    no-op and force the slow SIGKILL fallback when reaping hung workers.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    send_lock = threading.Lock()
    stop_beats = threading.Event()
    if heartbeat:
        threading.Thread(
            target=_heartbeat_loop,
            args=(conn, send_lock, stop_beats, heartbeat),
            daemon=True,
            name=f"repro-heartbeat-{worker_id}",
        ).start()
    try:
        while True:
            try:
                chunk = conn.recv()
            except (EOFError, OSError):
                return
            if chunk is None:
                return
            for message in _chunk_messages(chunk, faults, worker_id):
                # A finished cell is progress even if the cell's own
                # execution never beat (non-simulation cells).
                progress_beat()
                try:
                    with send_lock:
                        conn.send(message)
                except Exception as exc:  # e.g. an unpicklable result
                    try:
                        with send_lock:
                            conn.send(
                                (
                                    message[0],
                                    "error",
                                    "result not transferable: "
                                    f"{type(exc).__name__}: {exc}",
                                    message[3],
                                    message[4],
                                )
                            )
                    except Exception:
                        return
    finally:
        stop_beats.set()


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Supervisor-side handle for one worker process."""

    process: Any
    conn: multiprocessing.connection.Connection
    id: int
    #: Cells of the in-flight chunk that have not reported a result yet;
    #: ``chunk[0]`` is the cell currently executing (the deadline applies
    #: to it alone). Empty when the worker is idle.
    chunk: list[tuple[int, Any, str]] = field(default_factory=list)
    started: float = 0.0
    deadline: float | None = None
    #: When the last heartbeat (or result/dispatch) was observed.
    last_beat: float = 0.0
    #: Progress counter carried by the last heartbeat. Starts at 0 (the
    #: counter of a fresh process), so a first cell that never advances
    #: is correctly seen as frozen rather than as one unit of progress.
    last_progress: int = 0
    #: When progress was first observed frozen (None = progressing).
    stall_since: float | None = None
    #: The ``worker.unresponsive`` warning fired for the current stall.
    unresponsive_fired: bool = False


class _Supervisor:
    """Owns the worker pool for one parallel engine run.

    Unlike the former round-barrier ``Pool.apply_async`` loop, tasks are
    assigned to dedicated workers with per-task deadlines: a hung or
    crashed worker is killed and respawned immediately, its task is
    rescheduled with backoff, and every other worker keeps streaming
    cells — no failure can stall the round or leak a pool slot.

    Pending cells are grouped into batch-compatible *chunks* (cell-
    major batching: one worker runs a run of cells back to back) and
    queued on **one run queue**, most expensive first (LPT by
    registered cost weight). Every idle worker takes the first ready
    entry, so no worker idles while work is queued and a straggler can
    only ever hold the one worker running it.

    Workers report results per *cell*, attempts/deadlines are booked
    per cell, and outcomes are bit-identical to serial execution.
    Backed-off retries queue ahead of planned chunks, in the order they
    failed, and dispatch once their backoff has elapsed.
    """

    #: How long one poll of the worker pipes blocks, seconds. Bounds
    #: both deadline-detection latency and interrupt responsiveness.
    POLL_SECONDS = 0.1

    def __init__(self, engine: "ExecutionEngine", pending):
        self.engine = engine
        self.context = multiprocessing.get_context()
        self.attempts = {index: 0 for index, _, _ in pending}
        #: Cumulative elapsed seconds per cell across all its attempts —
        #: crashed/hung/failed attempts included, so telemetry no longer
        #: undercounts failed cells as zero-cost.
        self.elapsed = {index: 0.0 for index, _, _ in pending}
        slots = min(engine.jobs, len(pending))
        #: The run queue of ``(ready_at, cells)`` entries. Backed-off
        #: retries form its prefix, each with ``ready_at`` = the end of
        #: its backoff; dead chunks' unstarted tails and planned chunks
        #: follow with ``ready_at = 0.0``.
        self.queue: deque[tuple[float, list]] = deque(
            (0.0, cells) for cells in self._plan_chunks(pending, slots)
        )
        #: Per-cell count of attempts that ended in a worker *death*
        #: (crash / deadline kill / stall kill) rather than a reported
        #: error — the poison circuit breaker's evidence.
        self.deaths = {index: 0 for index, _, _ in pending}
        # Liveness policy, derived once. A stall kill needs an explicit
        # mandate: either the engine's stall_timeout, or a per-cell
        # timeout to bound it by — heartbeats alone never license
        # killing, because cells that do not instrument progress (no
        # simulation quanta) would look permanently stalled.
        hb = engine.heartbeat
        self._stall_kill: float | None = None
        self._unresponsive_after: float | None = None
        if hb:
            if engine.stall_timeout is not None:
                self._stall_kill = engine.stall_timeout
            elif engine.timeout is not None:
                self._stall_kill = min(
                    engine.timeout, max(5.0 * hb, 2.0)
                )
            self._unresponsive_after = 3.0 * hb
            if self._stall_kill is not None:
                self._unresponsive_after = min(
                    self._unresponsive_after, 0.6 * self._stall_kill
                )
        self._next_worker_id = 0
        self.workers = [self._spawn() for _ in range(slots)]

    # ------------------------------------------------------------------
    # Chunk planning and the run queue
    # ------------------------------------------------------------------
    def _plan_chunks(self, pending, slots: int) -> list[list]:
        """Group batch-compatible cells into dispatch chunks, LPT order.

        Cells sharing a ``batch_group()`` key are packed, in input
        order, into runs of at most ``engine.batch_cells`` cells. When
        unset, the cap auto-sizes to leave every group at least
        ``2 * slots`` chunks, so batching amortizes dispatch overhead
        without ever costing load balance (small groups — e.g. the few
        expensive Untangle cells of a mixed campaign — stay singletons).
        Cells without a ``batch_group`` hook are never chunked.

        Chunks come back most expensive first by summed
        :func:`expected_cost`; equal costs keep plan order.
        """
        groups: dict[Any, list] = {}
        order: list[tuple[Any, list]] = []  # plan order, groups coalesced
        for task in pending:
            hook = getattr(task[1], "batch_group", None)
            if hook is None:
                order.append((None, [task]))
                continue
            group = hook()
            if group not in groups:
                groups[group] = []
                order.append((group, groups[group]))
            groups[group].append(task)
        chunks: list[list] = []
        for group, cells in order:
            if group is None:
                cap = 1
            elif self.engine.batch_cells is not None:
                cap = min(MAX_BATCH_CELLS, self.engine.batch_cells)
            else:
                cap = max(1, min(MAX_BATCH_CELLS, len(cells) // (slots * 2)))
            chunks.extend(
                cells[start : start + cap]
                for start in range(0, len(cells), cap)
            )
        return sorted(
            chunks,
            key=lambda run: sum(expected_cost(cell) for _, cell, _ in run),
            reverse=True,
        )

    def _front(self) -> int:
        """Queue position just behind the queued retries (the only
        entries with a nonzero ``ready_at``)."""
        position = 0
        while position < len(self.queue) and self.queue[position][0]:
            position += 1
        return position

    def _next_chunk(self, now: float):
        """Pop the first ready run of cells off the queue, or ``None``."""
        for position, (ready_at, cells) in enumerate(self.queue):
            if ready_at <= now:
                del self.queue[position]
                return cells
        return None

    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.context.Pipe()
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self.context.Process(
            target=_worker_main,
            args=(
                child_conn,
                worker_id,
                self.engine.faults,
                self.engine.heartbeat,
            ),
            daemon=True,
            name=f"repro-exec-{worker_id}",
        )
        process.start()
        child_conn.close()
        return _Worker(
            process=process,
            conn=parent_conn,
            id=worker_id,
            last_beat=time.monotonic(),
        )

    def _reap(self, worker: _Worker) -> None:
        """Tear one worker down for good (terminate if still alive)."""
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
        else:
            worker.process.join()
        try:
            worker.conn.close()
        except OSError:
            pass

    def _replace(self, worker: _Worker) -> None:
        """Kill a crashed/hung worker and spawn its replacement."""
        self._reap(worker)
        self.workers.remove(worker)
        # A replacement is always useful: the failed task is about to be
        # requeued by the caller (or other tasks are still queued), and
        # spawning is cheap next to multi-second simulation cells.
        self.workers.append(self._spawn())
        self.engine.telemetry.workers_respawned += 1
        _M_WORKER["respawn"].inc()
        obs_trace.event("worker.respawn", worker=worker.id)

    def _lose(
        self, worker: _Worker, event: str, error: str, **attrs: Any
    ) -> Iterator[tuple[int, CellOutcome]]:
        """The one worker-loss path: crash, deadline kill or stall kill.

        The chunk and deadline are cleared *first*, so no later sweep
        can book the same loss again (e.g. a ``worker.timeout`` for a
        cell a dead-at-dispatch worker never received). Then the head
        cell is charged its elapsed time, the loss is counted
        (``worker.crash`` as a crash, kills as timeouts) and traced,
        the worker is replaced, the unstarted tail is requeued, and the
        head cell books one failed attempt that killed its worker. The
        tail never incremented ``attempts`` nor reported a result, so
        it comes back unpenalized: ahead of planned work (it was next
        in line) and without consuming retries.
        """
        cells = worker.chunk
        worker.chunk = []
        worker.deadline = None
        index, cell, key = cells[0]
        self.elapsed[index] += time.monotonic() - worker.started
        if event == "worker.crash":
            self.engine.telemetry.worker_crashes += 1
            _M_WORKER["crash"].inc()
        else:
            self.engine.telemetry.worker_timeouts += 1
            _M_WORKER["timeout"].inc()
        obs_trace.event(event, worker=worker.id, label=cell.label, **attrs)
        self._replace(worker)
        if len(cells) > 1:
            self.queue.insert(self._front(), (0.0, cells[1:]))
        yield from self._attempt_failed(
            index, cell, key, error, worker_died=True
        )

    # ------------------------------------------------------------------
    def run(self) -> Iterator[tuple[int, CellOutcome]]:
        try:
            while self.queue or any(w.chunk for w in self.workers):
                if self.engine._interrupted:
                    raise KeyboardInterrupt
                yield from self._assign()
                yield from self._collect()
        finally:
            self._shutdown()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _assign(self) -> Iterator[tuple[int, CellOutcome]]:
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.chunk:
                continue
            cells = self._next_chunk(now)
            if cells is None:
                return
            yield from self._dispatch(worker, cells)

    def _dispatch(
        self, worker: _Worker, cells
    ) -> Iterator[tuple[int, CellOutcome]]:
        """Send a chunk to an idle worker; handle a dead one in place."""
        worker.chunk = list(cells)
        self.engine.telemetry.batches_dispatched += 1
        self.engine.telemetry.batched_cells += len(cells)
        _M_BATCH_CELLS.observe(float(len(cells)))
        if len(cells) > 1:
            obs_trace.event(
                "batch.dispatch",
                worker=worker.id,
                cells=len(cells),
                first=cells[0][1].label,
            )
        self._start_cell(worker, time.monotonic())
        try:
            worker.conn.send([(index, cell) for index, cell, _ in cells])
        except (OSError, ValueError):
            # The worker (or its pipe) is already dead.
            yield from self._lose(
                worker,
                "worker.crash",
                "worker died before dispatch",
                exitcode=worker.process.exitcode,
            )

    def _start_cell(self, worker: _Worker, now: float) -> None:
        """Book the head of the worker's chunk as executing now.

        Attempts increment per *cell start*, not per chunk dispatch, so
        retry budgets are identical to per-cell dispatch; the deadline
        restarts for each cell of a chunk as its predecessor reports.
        """
        index, cell, _ = worker.chunk[0]
        self.attempts[index] += 1
        obs_trace.event(
            "cell.dispatch",
            label=cell.label,
            worker=worker.id,
            attempt=self.attempts[index],
        )
        worker.started = now
        worker.deadline = (
            now + self.engine.timeout
            if self.engine.timeout is not None
            else None
        )
        # A fresh cell gets a fresh stall clock (the dispatch itself is
        # the most recent sign of life).
        worker.last_beat = now
        worker.stall_since = None
        worker.unresponsive_fired = False

    def _collect(self) -> Iterator[tuple[int, CellOutcome]]:
        handles: dict[Any, _Worker] = {}
        for worker in self.workers:
            handles[worker.conn] = worker
            handles[worker.process.sentinel] = worker
        ready = multiprocessing.connection.wait(
            list(handles), timeout=self.POLL_SECONDS
        )
        serviced: set[int] = set()
        for handle in ready:
            worker = handles[handle]
            if worker.id in serviced or worker not in self.workers:
                continue
            serviced.add(worker.id)
            yield from self._service(worker)
        now = time.monotonic()
        for worker in list(self.workers):
            if (
                worker.chunk
                and worker.deadline is not None
                and now > worker.deadline
                and worker.id not in serviced
            ):
                yield from self._lose(
                    worker,
                    "worker.timeout",
                    f"timeout after {self.engine.timeout:.1f}s "
                    "(worker killed)",
                    timeout=self.engine.timeout,
                )
        if self._unresponsive_after is not None:
            yield from self._stall_sweep(now, serviced)

    def _stalled_for(self, worker: _Worker, now: float) -> float:
        """Seconds of stall evidence against a worker's current cell.

        Two independent signals, strongest wins: the progress counter
        has been frozen across heartbeats since ``stall_since``, or the
        pipe has been *silent* well past the beat interval (the process
        is stopped, wedged in a non-GIL-releasing call, or its beat
        thread is dead) — silence only starts counting once it exceeds
        two intervals, so ordinary scheduling jitter never registers.
        """
        frozen = (
            now - worker.stall_since if worker.stall_since is not None else 0.0
        )
        silent = now - worker.last_beat
        if silent <= 2.0 * (self.engine.heartbeat or 0.0):
            silent = 0.0
        return max(frozen, silent)

    def _stall_sweep(
        self, now: float, serviced: set[int]
    ) -> Iterator[tuple[int, CellOutcome]]:
        """Escalate workers whose heartbeats show no progress.

        First ``worker.unresponsive`` — an early warning fired well
        before any kill, so operators watching the trace see a hang
        forming instead of discovering it a full deadline later. Then,
        if stall kills are licensed (see ``__init__``), the worker is
        killed at ``_stall_kill`` seconds of evidence: a chunk of N
        cells no longer needs N deadlines to declare a dead worker.
        """
        for worker in list(self.workers):
            if not worker.chunk or worker.id in serviced:
                continue
            if worker not in self.workers:
                continue
            stalled = self._stalled_for(worker, now)
            if (
                not worker.unresponsive_fired
                and stalled >= self._unresponsive_after
            ):
                worker.unresponsive_fired = True
                self.engine.telemetry.worker_unresponsive += 1
                _M_WORKER["unresponsive"].inc()
                obs_trace.event(
                    "worker.unresponsive",
                    worker=worker.id,
                    label=worker.chunk[0][1].label,
                    stalled_seconds=round(stalled, 3),
                    progress=worker.last_progress,
                )
            if self._stall_kill is not None and stalled >= self._stall_kill:
                yield from self._lose(
                    worker,
                    "worker.stall-kill",
                    f"no progress for {stalled:.1f}s despite heartbeats "
                    "(worker killed)",
                    stalled_seconds=round(stalled, 3),
                )

    def _note_beat(self, worker: _Worker, progress: int) -> None:
        """Fold one heartbeat into the worker's liveness state.

        Advancing progress is proof of life: it clears the stall clock
        and — when a per-cell timeout is set — extends the deadline, so
        the timeout bounds *inactivity* rather than total runtime and a
        slow-but-working cell is never killed mid-computation. A frozen
        counter starts the stall clock; the sweep in :meth:`_collect`
        escalates it to a warning and (policy permitting) a kill.
        """
        now = time.monotonic()
        worker.last_beat = now
        if progress > worker.last_progress:
            worker.last_progress = progress
            worker.stall_since = None
            worker.unresponsive_fired = False
            if worker.chunk and self.engine.timeout is not None:
                worker.deadline = now + self.engine.timeout
        elif worker.stall_since is None:
            worker.stall_since = now

    def _service(self, worker: _Worker) -> Iterator[tuple[int, CellOutcome]]:
        """Handle a worker whose pipe or sentinel became ready.

        Heartbeats are drained greedily (they only update liveness
        state); at most one *result* is consumed per call, preserving
        the one-result-per-service accounting the rest of the
        supervisor is built around.
        """
        message = None
        try:
            while worker.conn.poll():
                received = worker.conn.recv()
                if (
                    isinstance(received, tuple)
                    and received
                    and received[0] == "heartbeat"
                ):
                    self._note_beat(worker, received[1])
                    continue
                message = received
                break
        except (EOFError, OSError):
            message = None
        if message is not None:
            index, status, payload, wall, stats_delta = message
            apply_store_stats_delta(stats_delta)
            assert worker.chunk and worker.chunk[0][0] == index
            _, cell, key = worker.chunk.pop(0)
            self.elapsed[index] += wall
            if worker.chunk:
                # The worker moved on to the chunk's next cell the moment
                # it sent this result: restart attempts/deadline for it.
                self._start_cell(worker, time.monotonic())
            else:
                worker.deadline = None
            if status == "ok":
                yield index, CellOutcome(
                    cell=cell,
                    key=key,
                    value=payload,
                    status="computed",
                    wall_seconds=self.elapsed[index],
                    attempts=self.attempts[index],
                    error=None,
                )
            else:
                yield from self._attempt_failed(index, cell, key, payload)
            return
        if worker.process.is_alive():
            return  # spurious wakeup
        if not worker.chunk:
            # An idle worker died (infant mortality): just replace it.
            self._replace(worker)
            return
        exitcode = worker.process.exitcode
        yield from self._lose(
            worker,
            "worker.crash",
            f"worker crashed (exit code {exitcode})",
            exitcode=exitcode,
        )

    def _attempt_failed(
        self,
        index: int,
        cell: Any,
        key: str,
        error: str,
        *,
        worker_died: bool = False,
    ) -> Iterator[tuple[int, CellOutcome]]:
        """Book one failed attempt: retry with backoff, or give up.

        ``worker_died`` marks attempts that took their worker down with
        them (crash, deadline kill, stall kill). A cell whose *every*
        attempt killed a worker is quarantined as ``poisoned`` rather
        than merely ``failed``: the evidence says retrying it again
        would only shoot more workers, so the circuit breaker trips,
        the rest of the campaign completes, and the journal entry
        ensures a ``--resume`` re-attempts exactly this cell.
        """
        if worker_died:
            self.deaths[index] += 1
        if self.attempts[index] <= self.engine.retries:
            delay = self.engine._book_retry(
                cell, key, self.attempts[index], error
            )
            self.queue.insert(
                self._front(),
                (time.monotonic() + delay, [(index, cell, key)]),
            )
            return
        poisoned = (
            self.deaths[index] > 0
            and self.deaths[index] == self.attempts[index]
        )
        if poisoned:
            obs_trace.event(
                "cell.poisoned",
                label=cell.label,
                attempts=self.attempts[index],
                error=error,
            )
        yield index, CellOutcome(
            cell=cell,
            key=key,
            value=None,
            status="poisoned" if poisoned else "failed",
            wall_seconds=self.elapsed[index],
            attempts=self.attempts[index],
            error=error,
        )

    def _shutdown(self) -> None:
        for worker in self.workers:
            if not worker.chunk and worker.process.is_alive():
                try:
                    worker.conn.send(None)  # polite stop for idle workers
                except (OSError, ValueError):
                    pass
            else:
                worker.process.terminate()
        for worker in self.workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            try:
                worker.conn.close()
            except OSError:
                pass
        self.workers = []


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ExecutionEngine:
    """Fan simulation cells out over a supervised process pool.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` (the default) executes serially in the
        calling process — the debugging fallback — but still consults
        the cache and journal. Results are bit-identical either way.
    cache:
        Optional :class:`ResultCache`; ``None`` disables caching. The
        engine journals to ``<cache directory>/journal.jsonl``
        (:attr:`journal`) exactly when there is a cache: every finished
        cell is durably journaled before it is reported.
    timeout:
        Per-cell deadline in seconds (parallel mode only: a serial run
        cannot preempt the simulation it is executing). A worker past
        its deadline is killed and respawned. ``None`` waits forever.
        With heartbeats on, the deadline is *extended* whenever a beat
        shows advancing progress: it bounds inactivity, not runtime, so
        slow-but-working cells survive while hung ones die early.
    heartbeat:
        Interval in seconds of worker liveness heartbeats (default 1).
        Each beat carries the worker's progress counter (advanced per
        simulation quantum and per finished cell), letting the
        supervisor distinguish slow from hung mid-chunk: frozen
        progress fires a ``worker.unresponsive`` warning after ~3
        intervals, and — when a ``timeout`` or ``stall_timeout``
        licenses killing — a stall kill well before a chunk of N cells
        would burn N deadlines. ``0``/``None`` disables heartbeats.
    stall_timeout:
        Seconds of frozen progress after which a stalled worker is
        killed (requires ``heartbeat``). Defaults to
        ``min(timeout, max(5 * heartbeat, 2.0))`` when a timeout is
        set; without either, stalls only warn — heartbeats alone never
        license killing, because cells that do not instrument progress
        would look permanently stalled.
    retries:
        How many times a failed, crashed, or timed-out cell is
        re-attempted (default one retry).
    backoff_base / backoff_cap:
        Exponential-backoff schedule for those retries: attempt ``n``
        is delayed ``base * 2**(n-1)`` seconds (capped), with
        deterministic jitter — see :func:`backoff_delay`.
    resume:
        Replay journaled outcomes, reading each value from the cache's
        pack, instead of re-running them; cells absent from (or failed
        in) the journal, or whose pack entry is missing or damaged,
        execute.
    faults:
        Optional :class:`FaultPlan` for chaos testing.
    progress:
        Optional callback receiving one structured line per finished
        cell, e.g. ``print`` or a logger method.
    store:
        Optional :class:`~repro.harness.store.PrecomputeStore`. Before
        cells fan out, every distinct artifact the pending cells declare
        via ``store_needs()`` is precomputed once (``store.populate``,
        traced as a ``store.populate`` span); workers then attach
        zero-copy instead of regenerating. The store is deactivated and
        ``REPRO_STORE_DIR`` restored when the run exits — the SIGINT
        path included. ``None`` disables the layer; results are
        bit-identical either way. Independent of ``cache``: the *result*
        cache memoizes finished cells, the store memoizes the expensive
        *inputs* of cells that do run.
    batch_cells:
        Cells per dispatched chunk. ``None`` or ``0`` auto-sizes per
        batch group (see ``_Supervisor._plan_chunks``); ``1`` forces
        per-cell dispatch; larger values cap at :data:`MAX_BATCH_CELLS`.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        *,
        timeout: float | None = None,
        heartbeat: float | None = 1.0,
        stall_timeout: float | None = None,
        retries: int = 1,
        backoff_base: float = 0.05,
        backoff_cap: float = 30.0,
        resume: bool = False,
        faults: FaultPlan | None = None,
        progress: Callable[[str], None] | None = None,
        store: PrecomputeStore | None = None,
        batch_cells: int | None = None,
    ):
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if heartbeat is not None and heartbeat < 0:
            raise ConfigurationError("heartbeat must be >= 0")
        heartbeat = heartbeat or None  # 0 disables, like REPRO_HEARTBEAT=0
        if stall_timeout is not None and stall_timeout <= 0:
            raise ConfigurationError("stall_timeout must be positive")
        if stall_timeout is not None and heartbeat is None:
            raise ConfigurationError(
                "stall_timeout requires heartbeats (heartbeat > 0)"
            )
        if backoff_base < 0 or backoff_cap < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if batch_cells is not None and batch_cells < 0:
            raise ConfigurationError("batch_cells must be >= 0")
        self.jobs = jobs
        #: ``None`` means auto-size per batch group; 0 normalizes to it.
        self.batch_cells = batch_cells if batch_cells else None
        self.cache = cache
        self.timeout = timeout
        self.heartbeat = heartbeat
        self.stall_timeout = stall_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.journal = (
            RunJournal(cache.directory / "journal.jsonl", faults=faults)
            if cache is not None
            else None
        )
        self.resume = resume
        self.faults = faults
        self.progress = progress
        self.store = store
        self.telemetry = EngineTelemetry()
        #: Path of the failure manifest rendered by the last run, if any.
        self.manifest_path: Path | None = None
        self._interrupted = False
        self._serial_mode = True
        self._campaign: str | None = None
        self._old_handlers: dict[int, Any] = {}
        #: Finished cells whose journal record is not yet fsync'd
        #: (group commit): the ack — the progress line that marks a
        #: cell resume-skippable — is held until its sequence number is
        #: durable. (outcome, done, total, seq), FIFO; ``seq`` is
        #: ``None`` for a cell with no journal record to wait for.
        self._pending_acks: deque[
            tuple[CellOutcome, int, int, int | None]
        ] = deque()

    # ------------------------------------------------------------------
    # Signal handling (graceful shutdown)
    # ------------------------------------------------------------------
    def _install_signals(self) -> None:
        self._interrupted = False
        self._old_handlers = {}
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._old_handlers[signum] = signal.signal(
                    signum, self._on_signal
                )
            except (ValueError, OSError):
                pass

    def _restore_signals(self) -> None:
        for signum, handler in self._old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        self._old_handlers = {}

    def _on_signal(self, signum, frame) -> None:
        if self._interrupted:
            # Second signal: the user means it — die with default action.
            try:
                signal.signal(signum, signal.SIG_DFL)
            except (ValueError, OSError):
                pass
            os.kill(os.getpid(), signum)
            return
        self._interrupted = True
        if self._serial_mode:
            # Serial execution has no supervisor loop polling the flag;
            # unwind the in-flight cell now (run() converts this to a
            # clean CampaignInterrupted after flushing state).
            raise KeyboardInterrupt

    # ------------------------------------------------------------------
    def _emit(self, outcome: CellOutcome, done: int, total: int) -> None:
        if self.progress is None:
            return
        cycles = outcome.cell.cycles_of(outcome.value) if outcome.ok else None
        parts = [
            f"[exec {done}/{total}]",
            outcome.cell.label,
            f"status={outcome.status}",
            f"wall={outcome.wall_seconds:.2f}s",
        ]
        if cycles is not None:
            parts.append(f"cycles={cycles}")
        if outcome.attempts > 1:
            parts.append(f"attempts={outcome.attempts}")
        if outcome.error:
            parts.append(f"error={outcome.error}")
        self.progress(" ".join(parts))

    def _degrade(self, subsystem: str, error: Exception) -> None:
        """Downgrade one I/O subsystem after a write failure.

        A full or failing disk under the journal, result cache, or
        precompute store must cost *durability* (no resume, no memoized
        results, no shared inputs), never the campaign itself — hours
        of surviving simulation work would be lost to an error in a
        bookkeeping layer. The first failure per subsystem is recorded
        in telemetry (``degraded:`` lines), metrics
        (``repro_degraded_total``), the trace (``degraded`` event and
        an ``engine.run`` span attribute), and the progress stream;
        subsequent writes to that subsystem are skipped.
        """
        if subsystem in self.telemetry.degraded:
            return
        detail = f"{type(error).__name__}: {error}"
        self.telemetry.degraded[subsystem] = detail
        _M_DEGRADED[subsystem].inc()
        obs_trace.event("degraded", subsystem=subsystem, error=detail)
        consequence = {
            "journal": "campaign continues WITHOUT crash recovery "
            "(--resume will re-run cells finished from here on)",
            "cache": "campaign continues compute-only "
            "(results from here on are not memoized)",
            "store": "campaign continues compute-only "
            "(workers rebuild inputs instead of attaching)",
        }[subsystem]
        if self.progress is not None:
            self.progress(f"[exec] degraded: {subsystem} — {detail}; {consequence}")

    def _check_io(self, subsystem: str) -> None:
        """Raise any injected I/O fault armed for ``subsystem``."""
        if self.faults is not None:
            self.faults.check_io(subsystem)

    def _finish(
        self, outcome: CellOutcome, done: int, total: int
    ) -> CellOutcome:
        cycles = (
            outcome.cell.cycles_of(outcome.value)
            if outcome.status == "computed"
            else None
        )
        self.telemetry.note(
            CellRecord(
                label=outcome.cell.label,
                status=outcome.status,
                wall_seconds=outcome.wall_seconds,
                attempts=outcome.attempts,
                cycles=cycles,
                error=outcome.error,
            )
        )
        if (
            outcome.status == "computed"
            and self.cache is not None
            and "cache" not in self.telemetry.degraded
        ):
            try:
                self._check_io("cache")
                self.cache.put(
                    outcome.key,
                    {
                        "cell": outcome.cell.cache_token(),
                        "value": outcome.cell.encode(outcome.value),
                        "wall_seconds": outcome.wall_seconds,
                    },
                )
            except OSError as exc:
                self._degrade("cache", exc)
            else:
                if self.faults is not None and self.faults.should_corrupt(
                    outcome.cell.label
                ):
                    self.cache.corrupt_entry(outcome.key)
        seq: int | None = None
        if (
            self.journal is not None
            and outcome.status != "replayed"
            and "journal" not in self.telemetry.degraded
        ):
            try:
                self._check_io("journal")
                seq = self.journal.record(
                    JournalEntry(
                        key=outcome.key,
                        label=outcome.cell.label,
                        status=outcome.status,
                        wall_seconds=outcome.wall_seconds,
                        attempts=outcome.attempts,
                        campaign=self._campaign,
                        error=outcome.error,
                    )
                )
            except (OSError, JournalError) as exc:
                self._degrade("journal", exc)
                # Durability is waived from here on; release any held
                # acks — the lines were honest when their cells ran.
                self._drain_acks(force=True)
        # Ack-after-fsync: the progress line (the ack that marks this
        # cell done and resume-skippable) waits for the group commit
        # covering its journal record.
        self._pending_acks.append((outcome, done, total, seq))
        self._drain_acks(force=self.journal is None)
        return outcome

    def _drain_acks(self, force: bool = False) -> None:
        """Emit held progress lines whose journal records are durable.

        The journal holds no values, so before any line goes out the
        pack shards written since the last release are fsync'd too
        (:meth:`ResultCache.sync`); a failure there degrades the cache
        like a failed put. ``force=True`` (teardown after a final
        flush, or journal degradation) releases everything: at that
        point either the records are on disk or durability is no longer
        promised.
        """
        durable = self.journal.durable_seq if self.journal is not None else 0
        ready = 0
        for _, _, _, seq in self._pending_acks:
            if not force and seq is not None and seq > durable:
                break
            ready += 1
        if not ready:
            return
        if self.cache is not None and "cache" not in self.telemetry.degraded:
            try:
                self.cache.sync()
            except OSError as exc:
                self._degrade("cache", exc)
        for _ in range(ready):
            self._emit(*self._pending_acks.popleft()[:3])

    def _book_retry(
        self, cell: Any, key: str, attempt: int, error: str
    ) -> float:
        """Book one scheduled retry of ``cell``; returns its backoff.

        The one retry booking of the serial and supervised paths:
        deterministic delay (:func:`backoff_delay`), telemetry, metric
        and ``cell.retry`` event. The caller waits the delay out.
        """
        delay = backoff_delay(
            key, attempt, self.backoff_base, self.backoff_cap
        )
        self.telemetry.backoff_seconds += delay
        _M_BACKOFF.inc(delay)
        obs_trace.event(
            "cell.retry",
            label=cell.label,
            attempt=attempt,
            delay=delay,
            error=error,
        )
        return delay

    # ------------------------------------------------------------------
    # Failure manifest
    # ------------------------------------------------------------------
    def _manifest_target(self) -> Path | None:
        if self.cache is not None:
            return Path(self.cache.directory) / MANIFEST_NAME
        return None

    def _write_manifest(
        self, outcomes: list[CellOutcome | None], total: int
    ) -> None:
        """Render ``failures.json`` in the cache directory after a run.

        Written when any cell ended ``failed``/``poisoned`` (and on a
        fully clean run any stale manifest from a previous campaign is
        removed, so its presence is a reliable signal). Interrupted
        runs skip it: their story is the journal plus the resume hint.
        The write is atomic and failure-tolerant — a manifest must
        never be able to take down the campaign it reports on.
        """
        target = self._manifest_target()
        if target is None:
            return
        failing = [o for o in outcomes if o is not None and not o.ok]
        if not failing:
            try:
                target.unlink()
            except OSError:
                pass
            self.manifest_path = None
            return
        manifest = {
            "format": MANIFEST_FORMAT_VERSION,
            "campaign": self._campaign,
            "total": total,
            "failed": sum(1 for o in failing if o.status == "failed"),
            "poisoned": sum(1 for o in failing if o.status == "poisoned"),
            "degraded": dict(self.telemetry.degraded),
            "cells": [
                {
                    "label": o.cell.label,
                    "key": o.key,
                    "status": o.status,
                    "attempts": o.attempts,
                    "wall_seconds": o.wall_seconds,
                    "error": o.error,
                }
                for o in failing
            ],
            "resume": "re-run with --resume (or REPRO_RESUME=1) to "
            "re-attempt exactly these cells",
        }
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=target.parent, prefix=".failures-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(manifest, handle, indent=2)
                os.replace(tmp, target)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self.manifest_path = target
        obs_trace.event(
            "manifest.written",
            path=str(target),
            failed=manifest["failed"],
            poisoned=manifest["poisoned"],
        )

    # ------------------------------------------------------------------
    def run(
        self, cells: Sequence[Any], *, campaign: str | None = None
    ) -> list[CellOutcome]:
        """Execute every cell; outcomes come back in input order.

        On SIGINT/SIGTERM the run shuts down cleanly — journal flushed,
        workers terminated — and raises
        :class:`~repro.errors.CampaignInterrupted` carrying the
        outcomes that completed.
        """
        start = time.perf_counter()
        total = len(cells)
        outcomes: list[CellOutcome | None] = [None] * total
        done = 0
        self._campaign = campaign
        self._pending_acks.clear()
        run_span = obs_trace.span(
            "engine.run",
            campaign=campaign,
            jobs=self.jobs,
            cells=total,
        )
        run_span.__enter__()
        journaled = (
            self.journal.load()
            if (self.journal is not None and self.resume)
            else {}
        )
        quarantined_before = self.cache.quarantined if self.cache else 0
        stats_before = store_stats_snapshot()
        reset_claim()  # each campaign gets one REPRO_PROFILE capture
        # Startup hygiene: reclaim fault-state dirs a SIGKILL'd previous
        # run could not tear down (owner-PID probed, so concurrent live
        # campaigns are never touched).
        reap_orphans()
        self.manifest_path = None
        # export_env() below publishes this run's store to workers; the
        # caller's value comes back on every exit path.
        store_dir_env = os.environ.get(STORE_DIR_ENV)
        self._install_signals()
        try:
            pending: list[tuple[int, Any, str]] = []
            for index, cell in enumerate(cells):
                key = cell_key(cell)
                payload = self.cache.get(key) if self.cache is not None else None
                if payload is None:
                    pending.append((index, cell, key))
                    continue
                # A journaled ok cell replays; its value, like a hit's,
                # comes from the pack.
                entry = journaled.get(key)
                status = "replayed" if entry is not None and entry.ok else "hit"
                done += 1
                with obs_trace.span(f"cell.{status}", label=cell.label):
                    outcomes[index] = self._finish(
                        CellOutcome(
                            cell=cell,
                            key=key,
                            value=cell.decode(payload["value"]),
                            status=status,
                            wall_seconds=0.0,
                            attempts=0,
                        ),
                        done,
                        total,
                    )

            if pending and self.store is not None:
                # Populate-before-fan-out: every distinct artifact the
                # pending cells declare is computed exactly once here,
                # then served zero-copy to serial cells, forked workers
                # (inherited mapping), and spawned/respawned workers
                # (reattach via the exported environment). An I/O error
                # (full/failing disk) downgrades the run to compute-only
                # — workers rebuild inputs — instead of aborting it.
                try:
                    self._check_io("store")
                    set_active_store(self.store)
                    self.store.export_env()
                    needs: list[tuple] = []
                    for _, cell, _ in pending:
                        hook = getattr(cell, "store_needs", None)
                        if hook is not None:
                            needs.extend(hook())
                    if needs:
                        with obs_trace.span(
                            "store.populate",
                            store=self.store.describe(),
                            needs=len(needs),
                        ) as populate_span:
                            ensured = self.store.populate(
                                needs, jobs=self.jobs
                            )
                            populate_span.set(distinct=ensured)
                except OSError as exc:
                    self._degrade("store", exc)
                    # Detach so neither this process nor any (re)spawned
                    # worker keeps hitting the failing backend.
                    clear_active_store()
                    os.environ.pop(STORE_DIR_ENV, None)

            if pending:
                if self.jobs == 1:
                    self._serial_mode = True
                    runner = self._run_serial(pending)
                else:
                    self._serial_mode = False
                    runner = _Supervisor(self, pending).run()
                for index, outcome in runner:
                    done += 1
                    outcomes[index] = self._finish(outcome, done, total)
        except KeyboardInterrupt:
            self.telemetry.interrupted = True
            completed = [o for o in outcomes if o is not None]
            journal_path = self.journal.path if self.journal else None
            hint = (
                f"campaign interrupted with {done}/{total} cells finished"
            )
            if journal_path is not None:
                hint += (
                    f"; completed cells are journaled at {journal_path} — "
                    "re-run with --resume (or REPRO_RESUME=1) to finish "
                    "without re-simulating them"
                )
            raise CampaignInterrupted(
                hint, outcomes=completed, journal_path=journal_path
            ) from None
        finally:
            self._restore_signals()
            self._serial_mode = True
            if (
                self.journal is not None
                and "journal" not in self.telemetry.degraded
            ):
                # Commit any partial group-commit batch before acking:
                # every progress line ever emitted stays backed by an
                # fsync'd record, even for the tail of the campaign.
                try:
                    self.journal.flush()
                except (OSError, JournalError) as exc:
                    self._degrade("journal", exc)
            self._drain_acks(force=True)
            if self.journal is not None:
                # Drop the append handle and the linger flusher, as the
                # cache drops its descriptors below; the next run's
                # first record reopens both.
                try:
                    self.journal.close()
                except (OSError, JournalError) as exc:
                    self._degrade("journal", exc)
            if self.cache is not None:
                # Persist pack sidecar indexes and drop descriptors so
                # a campaign never leaks fds across runs.
                self.cache.release_handles()
            if not self.telemetry.interrupted:
                # Interrupted runs tell their story via the journal +
                # resume hint; completed runs with failures render the
                # failure manifest (and clean runs remove a stale one).
                self._write_manifest(outcomes, total)
            self._campaign = None
            # One-shot chaos state is per-run: drop the auto-created
            # fault-state directory (recreated if this plan runs again).
            release_fault_state(self.faults)
            if self.cache is not None:
                self.telemetry.quarantines += (
                    self.cache.quarantined - quarantined_before
                )
            # One run-level registry delta: populate + serial cells +
            # worker deltas (already replayed into this registry by
            # _service), each counted exactly once.
            self.telemetry.absorb_store(
                store_stats_delta(stats_before, store_stats_snapshot())
            )
            if self.store is not None:
                # Teardown on every exit path — SIGINT included — so
                # neither this store nor its exported directory outlives
                # the run: later engines and in-process builders resolve
                # what they resolved before it.
                self.store.release()
                clear_active_store()
                if store_dir_env is None:
                    os.environ.pop(STORE_DIR_ENV, None)
                else:
                    os.environ[STORE_DIR_ENV] = store_dir_env
            self.telemetry.wall_seconds += time.perf_counter() - start
            self.telemetry.publish()
            snap = self.telemetry.snapshot()
            run_span.set(
                done=done,
                computed=snap["computed"],
                hit=snap["hit"],
                replayed=snap["replayed"],
                failed=snap["failed"],
                poisoned=snap["poisoned"],
                degraded=sorted(self.telemetry.degraded),
                interrupted=snap["interrupted"],
                store_trace_hits=snap["store_trace_hits"],
                store_trace_misses=snap["store_trace_misses"],
                store_trace_bytes=snap["store_trace_bytes"],
            )
            run_span.__exit__(None, None, None)
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _run_serial(self, pending):
        for index, cell, key in pending:
            if self._interrupted:
                raise KeyboardInterrupt
            attempts = 0
            error: str | None = None
            # Accumulated *execution* time across attempts. Backoff
            # sleeps are excluded, matching the supervised parallel
            # path (which books only real worker time) — a retried
            # serial cell used to report wall_seconds inflated by
            # its own backoff delays.
            elapsed = 0.0
            value = None
            status = "failed"
            while attempts <= self.retries:
                attempts += 1
                attempt_start = time.perf_counter()
                try:
                    value, wall = _execute_cell(cell, self.faults)
                    elapsed += wall
                    status = "computed"
                    error = None
                    break
                except KeyboardInterrupt:
                    raise
                except Exception as exc:  # graceful degradation
                    elapsed += time.perf_counter() - attempt_start
                    error = f"{type(exc).__name__}: {exc}"
                    if attempts <= self.retries:
                        delay = self._book_retry(cell, key, attempts, error)
                        if delay:
                            time.sleep(delay)
            yield index, CellOutcome(
                cell=cell,
                key=key,
                value=value,
                status=status,
                wall_seconds=elapsed,
                attempts=attempts,
                error=error,
            )


# ----------------------------------------------------------------------
# Engine settings: one resolver for the CLI and the library
# ----------------------------------------------------------------------
_ON = ("1", "true", "yes", "on")
_OFF = ("0", "false", "no", "off")
_SWITCH = f"{'/'.join(_ON)} to enable, {'/'.join(_OFF)} to disable"
_INT = "a non-negative integer"
_SECS = "a non-negative number of seconds"


def _count(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError(raw)
    return value


def _seconds(raw: str) -> float:
    value = float(raw)
    if not value >= 0:  # also rejects nan
        raise ValueError(raw)
    return value


def _switch(raw: str) -> bool:
    text = raw.lower()
    if text not in _ON + _OFF:
        raise ValueError(raw)
    return text in _ON


#: Every engine setting, one row each: ``name: (env var, parser,
#: accepted forms, default)``. ``name`` is the :func:`engine_from_env`
#: keyword — and the ``dest`` of the CLI flag, where there is one —
#: that overrides the env var. Flags reach the resolver as raw text and
#: go through the same parser, so a flag and its env var accept the
#: same forms.
ENGINE_SETTINGS: dict[str, tuple[str, Callable[[str], Any], str, Any]] = {
    "jobs": ("REPRO_JOBS", _count, f"{_INT} (1 = serial, 0 = one per CPU)", 1),
    "retries": ("REPRO_RETRIES", _count, f"{_INT} retry budget per cell", 1),
    "timeout": ("REPRO_TIMEOUT", _seconds, f"{_SECS} (0 = no deadline)", 0.0),
    "heartbeat": ("REPRO_HEARTBEAT", _seconds, f"{_SECS} (0 = off)", 1.0),
    "stall_timeout": (
        "REPRO_STALL_TIMEOUT", _seconds, f"{_SECS} (0 = from the timeout)", 0.0
    ),
    "batch_cells": (
        "REPRO_BATCH_CELLS", _count, f"{_INT} (0 = auto, 1 = per cell)", 0
    ),
    "resume": ("REPRO_RESUME", _switch, _SWITCH, False),
    "cache": ("REPRO_CACHE", _switch, _SWITCH, True),
    "cache_dir": ("REPRO_CACHE_DIR", str, "a directory path", None),
    "precompute": (PRECOMPUTE_ENV, _switch, _SWITCH, True),
    "store_dir": (STORE_DIR_ENV, str, "a directory path", None),
}


def _parse_setting(name: str, raw: str, source: str) -> Any:
    _, parse, accepted, _ = ENGINE_SETTINGS[name]
    try:
        return parse(raw.strip())
    except ValueError:
        raise ConfigurationError(
            f"{source}={raw!r} is invalid; accepted: {accepted}"
        ) from None


def _env_setting(name: str) -> Any:
    """Row ``name`` parsed from its env var; ``None`` when unset."""
    env = ENGINE_SETTINGS[name][0]
    raw = os.environ.get(env, "").strip()
    return _parse_setting(name, raw, env) if raw else None


def engine_from_env(
    default_cache_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    **flag_values: Any,
) -> ExecutionEngine:
    """Build an engine from flag values, ``REPRO_*`` env vars and defaults.

    Each :data:`ENGINE_SETTINGS` row resolves flag > env > default. A
    flag value of ``None`` means "not given"; a string (the CLI's raw
    flag text) is parsed like the env var. ``default_cache_dir`` is
    the cache directory when neither ``cache_dir`` nor
    ``REPRO_CACHE_DIR`` names one (the CLI passes ``.repro-cache``);
    with no directory at all, caching is off. Placement:

    * the journal is ``<cache-dir>/journal.jsonl`` exactly when the
      result cache is on (the engine opens it beside its cache);
    * the precompute store, unless ``precompute`` is off, is
      ``store_dir``, else ``<cache-dir>/store`` (even with the result
      cache off: the store memoizes cell *inputs*, not results), else
      there is no store and cells build their inputs in-process.

    ``REPRO_FAULTS`` adds a chaos plan (:mod:`repro.harness.faults`).
    Turning ``precompute`` off while ``REPRO_PRECOMPUTE`` explicitly
    enables it is a conflict. Malformed values raise
    :class:`~repro.errors.ConfigurationError` naming the value and the
    accepted forms. The environment is read, never written.
    """
    unknown = sorted(set(flag_values) - set(ENGINE_SETTINGS))
    if unknown:
        raise TypeError(f"unknown engine settings: {', '.join(unknown)}")

    def setting(name: str) -> Any:
        value = flag_values.get(name)
        if isinstance(value, str):
            value = _parse_setting(name, value, name)
        elif value is None:
            value = _env_setting(name)
        return ENGINE_SETTINGS[name][3] if value is None else value

    cache_dir = setting("cache_dir") or default_cache_dir
    cache = None
    if setting("cache") and cache_dir is not None:
        cache = ResultCache(cache_dir)
    store: PrecomputeStore | None = None
    if setting("precompute"):
        store_dir = setting("store_dir")
        if store_dir is None and cache_dir is not None:
            store_dir = Path(cache_dir) / "store"
        if store_dir is not None:
            store = PrecomputeStore(store_dir)
    elif _env_setting("precompute"):  # the flag turned it off
        raise ConfigurationError(
            f"--no-precompute-store conflicts with {PRECOMPUTE_ENV}="
            f"{os.environ[PRECOMPUTE_ENV]!r}; accepted: drop the flag, or "
            f"set {PRECOMPUTE_ENV}=off (or unset it)"
        )
    return ExecutionEngine(
        jobs=setting("jobs") or os.cpu_count() or 1,
        cache=cache,
        timeout=setting("timeout") or None,
        heartbeat=setting("heartbeat"),
        stall_timeout=setting("stall_timeout") or None,
        retries=setting("retries"),
        resume=setting("resume"),
        faults=faults_from_env(),
        progress=progress,
        store=store,
        batch_cells=setting("batch_cells"),
    )
