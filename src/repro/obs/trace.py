"""Span-based tracer with a thread/process-safe JSONL event sink.

One campaign is many processes: the supervisor, its workers, and (for
serial runs) the calling process itself. The tracer therefore keeps its
configuration in the environment — ``REPRO_TRACE`` names the sink file —
so forked/spawned workers inherit it for free, and every process appends
self-contained JSON lines to the *same* file:

* each line is written with a single ``os.write`` on an ``O_APPEND``
  descriptor, so concurrent appends from many processes interleave
  whole lines, never torn fragments (for line sizes far below the pipe
  buffer, which ours are);
* a ``threading.Lock`` serializes writers inside one process;
* readers (:mod:`repro.obs.summarize`) skip lines that do not parse, so
  a trace cut short by SIGKILL is still usable.

Line schema (``kind`` discriminates):

* ``{"kind": "span", "name": ..., "t0": ..., "t1": ..., "dur": ...,
  "wall": ..., "pid": ..., "id": ..., "parent": ..., "attrs": {...}}``
  — a closed span; ``t0``/``t1`` are ``time.monotonic()`` readings
  (comparable across processes on one machine), ``wall`` is the
  ``time.time()`` at the start, ``parent`` is the enclosing span's id
  in the same thread (``None`` at top level).
* ``{"kind": "event", "name": ..., "t": ..., "wall": ..., "pid": ...,
  "parent": ..., "attrs": {...}}`` — a point-in-time event.

**Fast path**: with ``REPRO_TRACE`` unset (or ``0``), :func:`span` and
:func:`event` cost one environment lookup and return immediately —
nested instrumented code runs at full speed. Hot per-access simulation
loops are never instrumented at all; spans wrap whole simulation runs
and engine cells.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any

#: Environment variable naming the trace sink. ``1``/``true`` picks the
#: default location (``trace.jsonl`` beside the result cache directory,
#: like the profiler's ``.pstats`` output); any other non-empty value
#: that is not ``0`` is the path itself.
TRACE_ENV = "REPRO_TRACE"

#: Trace line layout version (carried by the summarizer's validation).
TRACE_FORMAT_VERSION = 1

_TRUTHY = ("1", "true", "yes", "on")


def beside_cache_dir() -> Path:
    """Where default run outputs (trace, ``.pstats``) are written.

    The parent of the result cache directory (``REPRO_CACHE_DIR``, which
    the CLI sets from ``--cache-dir`` for the command's duration), so a
    cache wipe keeps them; the working directory when none is named.
    """
    cache_dir = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return Path(cache_dir).parent if cache_dir else Path.cwd()


def default_trace_path() -> Path:
    """Default sink: ``trace.jsonl`` beside the result cache directory."""
    return beside_cache_dir() / "trace.jsonl"


class _SpanHandle:
    """A live span: context manager collecting attributes until close."""

    __slots__ = ("_tracer", "name", "attrs", "_t0", "_wall", "_id", "_parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0
        self._wall = 0.0
        self._id: str | None = None
        self._parent: str | None = None

    def set(self, **attrs: Any) -> "_SpanHandle":
        """Attach attributes to the span (merged into the close line)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._id, self._parent = self._tracer._push()
        self._wall = time.time()
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = time.monotonic()
        self._tracer._pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._write(
            {
                "kind": "span",
                "name": self.name,
                "t0": self._t0,
                "t1": t1,
                "dur": t1 - self._t0,
                "wall": self._wall,
                "pid": os.getpid(),
                "id": self._id,
                "parent": self._parent,
                "attrs": self.attrs,
            }
        )


class _NoopSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Appends span/event lines to one JSONL file.

    Safe for concurrent use by threads (internal lock) and by processes
    (``O_APPEND`` single-write appends). Failures to write are swallowed
    after disabling the sink: observability must never take down a
    campaign.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fd: int | None = None
        self._lock = threading.Lock()
        self._broken = False
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- span stack (per thread) ---------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self) -> tuple[str, str | None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = f"{os.getpid()}-{next(self._ids)}"
        stack.append(span_id)
        return span_id, parent

    def _pop(self) -> None:
        stack = self._stack()
        if stack:
            stack.pop()

    def current_span_id(self) -> str | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- sink ----------------------------------------------------------
    def _ensure_open(self) -> int | None:
        if self._broken:
            return None
        if self._fd is None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            except OSError:
                self._broken = True
                return None
        return self._fd

    def _write(self, fields: dict[str, Any]) -> None:
        try:
            data = (
                json.dumps(fields, separators=(",", ":"), default=str) + "\n"
            ).encode("utf-8")
        except (TypeError, ValueError):
            return
        with self._lock:
            fd = self._ensure_open()
            if fd is None:
                return
            try:
                os.write(fd, data)
            except OSError:
                self._broken = True

    # -- public --------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        return _SpanHandle(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        self._write(
            {
                "kind": "event",
                "name": name,
                "t": time.monotonic(),
                "wall": time.time(),
                "pid": os.getpid(),
                "parent": self.current_span_id(),
                "attrs": attrs,
            }
        )

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None


# ----------------------------------------------------------------------
# Module-level API keyed off the environment
# ----------------------------------------------------------------------
# The active tracer is cached per observed REPRO_TRACE value, so a test
# (or a CLI flag) flipping the environment takes effect on the next
# span/event, while steady-state cost is one os.environ lookup and one
# string comparison.
_cached_raw: str | None = None
_tracer: Tracer | None = None
_cache_lock = threading.Lock()


def _active() -> Tracer | None:
    global _cached_raw, _tracer
    raw = os.environ.get(TRACE_ENV, "")
    if raw == _cached_raw:
        return _tracer
    with _cache_lock:
        if raw == _cached_raw:
            return _tracer
        stripped = raw.strip()
        old = _tracer
        if not stripped or stripped == "0":
            _tracer = None
        elif stripped.lower() in _TRUTHY:
            _tracer = Tracer(default_trace_path())
        else:
            _tracer = Tracer(stripped)
        _cached_raw = raw
        if old is not None:
            old.close()
        return _tracer


def tracing_enabled() -> bool:
    """Whether spans/events are being recorded right now."""
    return _active() is not None


def configure_tracing(path: str | Path | None) -> None:
    """Enable (or, with ``None``, disable) tracing process-wide.

    Writes ``REPRO_TRACE`` so worker processes forked/spawned later
    inherit the same sink — this is how ``--trace`` reaches cells that
    execute in the pool.
    """
    if path is None:
        os.environ.pop(TRACE_ENV, None)
    else:
        os.environ[TRACE_ENV] = str(path)


def span(name: str, **attrs: Any):
    """A new span under the active tracer, or the shared no-op."""
    tracer = _active()
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a point-in-time event (no-op when tracing is disabled)."""
    tracer = _active()
    if tracer is not None:
        tracer.event(name, **attrs)
