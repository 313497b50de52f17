"""Crash-safe campaign journal: append-only JSONL of cell outcomes.

A long campaign (a figure's mix grid, the Figure 11 sensitivity sweep,
Table 6) is dozens of multi-second simulation cells. If the process
dies mid-run — machine crash, OOM kill, Ctrl-C — the journal is what
survives: every *finished* cell's outcome was appended as one JSON line
(fsync'd before the engine reports the cell done), so a restart with
``--resume`` / ``REPRO_RESUME=1`` replays journaled results and re-runs
only the cells that never completed or failed.

The journal is an index, not a store: a line records a cell's key,
label, status, attempts, wall time, campaign and error — never its
value. Values live once, in the result cache's pack segments
(:class:`repro.harness.exec.ResultCache`); a replay reads the value
from there, and a journaled cell whose pack entry is gone or damaged
is simulated again.

Design points that make the journal trustworthy after a hard kill:

* **Append-only, one line per outcome.** A crash can only ever damage
  the final line (a partial append); :meth:`RunJournal.load` skips any
  line that does not parse and counts it in ``corrupt_lines`` instead
  of aborting.
* **Per-line checksum.** Each record carries a SHA-256 digest of its
  own fields, so a torn or bit-flipped line is detected even when it
  happens to remain valid JSON.
* **Last entry wins.** Re-running a campaign appends; on load, the
  newest record for a cell key shadows older ones, so a cell that
  failed yesterday and succeeded today resumes as succeeded.

Group commit: on grids of trivial cells a per-entry fsync *is* the
campaign — one disk flush per cell. So the journal buffers serialized
lines in user space and commits them with a single ``write`` +
``fsync`` per batch, bounded by :data:`DEFAULT_BATCH_ENTRIES` entries
and a linger deadline (a daemon flusher thread commits a partial batch
at most :data:`DEFAULT_LINGER_SECONDS` after its first entry; shutdown
and degraded teardown flush whatever remains). The durability contract
is kept by *deferring the ack*, not weakening it: :meth:`record`
returns a sequence number, :attr:`durable_seq` advances only after the
batch's fsync, and the engine reports a cell done (making it
resume-skippable) only once its sequence number is durable and the
pack shards holding new values are fsync'd too.

The journal lives next to the result cache (``<cache-dir>/journal.jsonl``);
the engine writes one record per computed / cache-hit / failed cell
and never rewrites existing lines.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, TextIO

from repro.errors import JournalError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults ↔ journal)
    from repro.harness.faults import FaultPlan

#: Bump when the journal line layout changes incompatibly; old journals
#: are then ignored on resume instead of being misread. (2: lines no
#: longer carry the cell's value; the result cache's pack holds it.)
JOURNAL_FORMAT_VERSION = 2

#: Group commit: entries per fsync batch, and the longest a partial
#: batch waits for its fsync.
DEFAULT_BATCH_ENTRIES = 64
DEFAULT_LINGER_SECONDS = 0.05

_REG = obs_metrics.get_registry()
_M_APPENDS = _REG.counter(
    "repro_journal_appends_total", "Cell outcomes durably journaled"
)
_M_CORRUPT = _REG.counter(
    "repro_journal_corrupt_lines_total", "Damaged journal lines skipped on load"
)
_M_BATCH = _REG.histogram(
    "repro_journal_batch_entries",
    "Entries committed per journal fsync batch",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
)


def _checksum(fields: dict[str, Any]) -> str:
    """Digest of one record's canonical JSON (order-independent)."""
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class JournalEntry:
    """One journaled cell outcome."""

    key: str
    label: str
    status: str  # "computed" | "hit" | "failed" | "poisoned"
    wall_seconds: float
    attempts: int
    campaign: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        # Poisoned cells (retry budget exhausted by worker deaths) are
        # journaled so a --resume campaign knows to re-attempt exactly
        # them — an ok entry would be replayed and never retried.
        return self.status not in ("failed", "poisoned")


class RunJournal:
    """Append-only JSONL journal of campaign cell outcomes.

    Records are group-committed (see the module docstring): once the
    engine has reported a cell finished, its outcome survives SIGKILL.
    """

    def __init__(self, path: str | Path, *, faults: "FaultPlan | None" = None):
        self.path = Path(path)
        #: Fault plan consulted at each flush (``journal-batch-crash``).
        self.faults = faults
        self._handle: TextIO | None = None
        #: Lines skipped by the last :meth:`load` (torn writes, bit rot).
        self.corrupt_lines = 0
        # Group-commit state, guarded by _lock (the flusher thread and
        # the recording thread both touch the buffer).
        self._lock = threading.Lock()
        self._buffer: list[str] = []
        self._buffered_at: float | None = None
        self._seq = 0
        #: Highest sequence number whose record has been fsync'd. A
        #: cell is safe to ack once its :meth:`record` sequence number
        #: is ``<= durable_seq``.
        self.durable_seq = 0
        #: Fsync batches committed over this instance's life.
        self.flushes = 0
        self._flusher: threading.Thread | None = None
        self._closed = threading.Event()

    # ------------------------------------------------------------------
    def _open(self) -> TextIO:
        if self._handle is None or self._handle.closed:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fresh = not self.path.exists() or self.path.stat().st_size == 0
                self._handle = open(self.path, "a", encoding="utf-8")
            except OSError as exc:
                raise JournalError(f"cannot open journal {self.path}: {exc}")
            if fresh:
                # The header is written synchronously even under group
                # commit: it carries no cell outcome, and a journal file
                # should identify its format from byte one.
                self._write_lines(
                    [
                        json.dumps(
                            {"kind": "header", "format": JOURNAL_FORMAT_VERSION},
                            separators=(",", ":"),
                        )
                        + "\n"
                    ]
                )
        return self._handle

    def _write_lines(self, lines: list[str]) -> None:
        handle = self._handle
        assert handle is not None
        try:
            handle.write("".join(lines))
            handle.flush()
            os.fsync(handle.fileno())
        except OSError as exc:
            raise JournalError(f"cannot append to journal {self.path}: {exc}")

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        self.flushes += 1
        if self.faults is not None:
            # The injected crash window: entries are serialized but
            # still in the user-space buffer — nothing has reached the
            # kernel, so an os._exit here genuinely loses them, exactly
            # like a crash between a cell finishing and its group
            # commit. Acks for these entries were never emitted.
            self.faults.on_journal_flush(self.flushes)
        lines = self._buffer
        entries = len(lines)
        self._buffer = []
        self._buffered_at = None
        with obs_trace.span(
            "journal.flush", path=str(self.path), entries=entries
        ):
            try:
                self._write_lines(lines)
            except JournalError:
                # The batch is lost either way (degraded journal);
                # dropping it keeps a retried flush from re-appending
                # half-written lines. durable_seq stays put, so none of
                # these cells is ever acked as durable.
                raise
            self.durable_seq = self._seq
        _M_APPENDS.inc(entries)
        _M_BATCH.observe(entries)

    def _linger_flusher(self) -> None:
        # Commits a partial batch at most DEFAULT_LINGER_SECONDS after
        # its first entry, so slow cells are not held hostage by a big
        # batch size. Exits once the buffer is empty; the next record
        # restarts it, so an idle journal holds no thread.
        while not self._closed.wait(DEFAULT_LINGER_SECONDS / 2):
            with self._lock:
                if self._buffered_at is None:
                    self._flusher = None
                    return
                age = time.monotonic() - self._buffered_at
                if age >= DEFAULT_LINGER_SECONDS:
                    try:
                        self._flush_locked()
                    except JournalError:
                        # The recording thread surfaces the failure on
                        # its next record/flush; the engine degrades.
                        pass

    def _ensure_flusher(self) -> None:
        # Called with _lock held.
        if self._flusher is None and not self._closed.is_set():
            self._flusher = threading.Thread(
                target=self._linger_flusher,
                name="journal-linger-flush",
                daemon=True,
            )
            self._flusher.start()

    # ------------------------------------------------------------------
    def record(self, entry: JournalEntry) -> int:
        """Append one cell outcome; returns its sequence number.

        The record may still be buffered when this returns: the caller
        must hold its ack until the returned sequence number is
        ``<= durable_seq`` (advanced by the batch's fsync, forced by
        :meth:`flush`).
        """
        fields = {
            "kind": "cell",
            "format": JOURNAL_FORMAT_VERSION,
            "key": entry.key,
            "label": entry.label,
            "status": entry.status,
            "wall_seconds": entry.wall_seconds,
            "attempts": entry.attempts,
            "campaign": entry.campaign,
            "error": entry.error,
        }
        # Serialize once: the checksum is over the canonical (sorted)
        # JSON of the fields, and the digest is spliced into that same
        # string to form the line. load() is key-order independent — it
        # pops sha256 and re-canonicalizes — so sorted lines verify
        # exactly like the old insertion-ordered ones.
        canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        line = canonical[:-1] + ',"sha256":"' + digest + '"}\n'
        with self._lock:
            self._open()
            self._seq += 1
            seq = self._seq
            self._buffer.append(line)
            if self._buffered_at is None:
                self._buffered_at = time.monotonic()
            if len(self._buffer) >= DEFAULT_BATCH_ENTRIES:
                self._flush_locked()
            else:
                self._ensure_flusher()
        obs_trace.event(
            "journal.append", label=entry.label, status=entry.status
        )
        return seq

    def flush(self) -> None:
        """Force-commit any buffered entries (shutdown/degrade path)."""
        with self._lock:
            if self._handle is None or self._handle.closed:
                return
            self._flush_locked()

    def load(self) -> dict[str, JournalEntry]:
        """Read the journal back: newest valid entry per cell key.

        Tolerates a missing file (empty campaign), a torn final line
        (crash mid-append), and checksum mismatches; damaged lines are
        counted in :attr:`corrupt_lines`, never raised.
        """
        self.corrupt_lines = 0
        entries: dict[str, JournalEntry] = {}
        try:
            handle = open(self.path, "r", encoding="utf-8")
        except OSError:
            return {}
        with handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    fields = json.loads(line)
                except ValueError:
                    self.corrupt_lines += 1
                    continue
                if not isinstance(fields, dict):
                    self.corrupt_lines += 1
                    continue
                if fields.get("kind") == "header":
                    continue
                if (
                    fields.get("kind") != "cell"
                    or fields.get("format") != JOURNAL_FORMAT_VERSION
                ):
                    self.corrupt_lines += 1
                    continue
                claimed = fields.pop("sha256", None)
                if claimed != _checksum(fields):
                    self.corrupt_lines += 1
                    continue
                try:
                    entry = JournalEntry(
                        key=fields["key"],
                        label=fields["label"],
                        status=fields["status"],
                        wall_seconds=fields["wall_seconds"],
                        attempts=fields["attempts"],
                        campaign=fields.get("campaign"),
                        error=fields.get("error"),
                    )
                except KeyError:
                    self.corrupt_lines += 1
                    continue
                entries[entry.key] = entry
        if self.corrupt_lines:
            _M_CORRUPT.inc(self.corrupt_lines)
        obs_trace.event(
            "journal.load",
            path=str(self.path),
            entries=len(entries),
            corrupt_lines=self.corrupt_lines,
        )
        return entries

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Commit buffered entries, stop the linger flusher, close the file.

        The journal stays usable: the next :meth:`record` reopens the
        file and starts a new flusher.
        """
        self._closed.set()
        flusher = self._flusher
        if flusher is not None:
            flusher.join()
        with self._lock:
            self._flusher = None
            self._closed.clear()
            if self._handle is not None and not self._handle.closed:
                try:
                    self._flush_locked()
                finally:
                    self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
