"""Cell-major batching and the supervisor's one run queue.

Pins the scheduling guarantees:

* **Chunking** — batch-compatible cells are dispatched as chunks
  (``batch_cells`` explicit or auto-sized per group), with per-chunk
  ``batch.dispatch`` events and exact batches/batched-cells telemetry.
* **One run queue** — chunks dispatch most expensive first (registered
  scheme cost weight), every idle worker takes the next ready chunk, a
  dead chunk's unstarted tail goes back to the front unpenalized, and a
  backed-off retry waits out its backoff.
* **Dead-at-dispatch accounting** — a worker that dies before receiving
  its chunk is booked as exactly one crash (never a timeout), and the
  cell retries through the normal backoff path.
* **Bit identity** — batched parallel results are byte-for-byte the
  serial results, cache disabled.
"""

from __future__ import annotations

import json
import time
from collections import deque

import pytest

from repro.harness.exec import (
    ExecutionEngine,
    MixSchemeCell,
    ResultCache,
    _Supervisor,
    cell_key,
    expected_cost,
)
from repro.harness.runconfig import TEST
from repro.obs.trace import TRACE_ENV
from repro.registry import scheme_cost_weight

PAIRS = (("gcc_2", "AES-128"), ("imagick_0", "SHA-256"))


class SleepCell:
    """A busy-wait cell whose label ends in a scheme family (its cost)."""

    def __init__(self, ident: int, seconds: float, family: str = "sleep"):
        self.ident = ident
        self.seconds = seconds
        self.family = family

    @property
    def label(self) -> str:
        return f"sleep[{self.ident}]/{self.family}"

    def cache_token(self):
        return {"kind": "sleep", "ident": self.ident, "s": self.seconds}

    def execute(self):
        time.sleep(self.seconds)
        return self.ident

    @staticmethod
    def cycles_of(value):
        return None

    @staticmethod
    def encode(value):
        return {"v": value}

    @staticmethod
    def decode(payload):
        return payload["v"]


class BatchableCell(SleepCell):
    """A sleep cell that opts into cell-major chunking."""

    def batch_group(self):
        return ("batchable",)


def _planner(engine, pending=(), slots=2):
    """A supervisor stripped to its queue state — no worker spawns."""
    supervisor = _Supervisor.__new__(_Supervisor)
    supervisor.engine = engine
    supervisor.queue = deque(
        (0.0, cells) for cells in supervisor._plan_chunks(pending, slots)
    )
    supervisor.attempts = {index: 0 for index, _, _ in pending}
    supervisor.elapsed = {index: 0.0 for index, _, _ in pending}
    supervisor.deaths = {index: 0 for index, _, _ in pending}
    return supervisor


def _pending(cells):
    return [(i, cell, cell_key(cell)) for i, cell in enumerate(cells)]


def read_events(path, name):
    events = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "event" and record["name"] == name:
            events.append(record)
    return events


class TestCostModel:
    def test_expected_cost_is_registered_family_weight(self):
        untangle = MixSchemeCell(pairs=PAIRS, scheme="untangle", profile=TEST)
        static = MixSchemeCell(pairs=PAIRS, scheme="static", profile=TEST)
        assert expected_cost(untangle) == scheme_cost_weight("untangle")
        assert expected_cost(untangle) > expected_cost(static)
        # Parameter overrides share their scheme's weight; unregistered
        # families take the neutral weight.
        assert expected_cost(SleepCell(0, 0.0, "threshold{x=1}")) == (
            scheme_cost_weight("threshold")
        )
        assert expected_cost(SleepCell(0, 0.0)) == 1.0


class TestChunking:
    def test_explicit_batch_cells_chunk_dispatch(self, monkeypatch, tmp_path):
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        cells = [BatchableCell(i, 0.01) for i in range(6)]
        engine = ExecutionEngine(jobs=2, batch_cells=3)
        outcomes = engine.run(cells)
        assert all(o.status == "computed" for o in outcomes)
        snap = engine.telemetry.snapshot()
        assert snap["batches"] == 2
        assert snap["batched_cells"] == 6
        batch_events = read_events(sink, "batch.dispatch")
        assert len(batch_events) == 2
        assert all(e["attrs"]["cells"] == 3 for e in batch_events)

    def test_auto_cap_keeps_every_slot_busy_twice(self, tmp_path):
        # 12 compatible cells on 2 workers auto-chunk at 12 // (2*2) = 3,
        # i.e. 4 chunks — batching amortizes without costing balance.
        cells = [BatchableCell(i, 0.0) for i in range(12)]
        engine = ExecutionEngine(jobs=2)
        engine.run(cells)
        snap = engine.telemetry.snapshot()
        assert snap["batches"] == 4
        assert snap["batched_cells"] == 12

    def test_cells_without_batch_group_stay_singletons(self):
        cells = [SleepCell(i, 0.0) for i in range(5)]
        engine = ExecutionEngine(jobs=2, batch_cells=4)
        engine.run(cells)
        snap = engine.telemetry.snapshot()
        assert snap["batches"] == 5
        assert snap["batched_cells"] == 5

    def test_negative_batch_cells_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExecutionEngine(jobs=2, batch_cells=-1)


class TestDeadAtDispatch:
    def test_single_crash_no_timeout(self, monkeypatch, tmp_path):
        """A worker dead before ``conn.send`` books one crash, zero
        timeouts, and one ordinary retry for the head cell.

        Regression: the send failure used to be swallowed with the
        deadline left armed, so the sweep could *also* book a
        ``worker.timeout`` for a cell the worker never received.
        """
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        engine = ExecutionEngine(
            jobs=2, timeout=30.0, retries=1, backoff_base=0.001
        )
        cells = [SleepCell(i, 0.01) for i in range(2)]
        pending = [(i, cell, cell_key(cell)) for i, cell in enumerate(cells)]
        supervisor = _Supervisor(engine, pending)
        victim = supervisor.workers[0].process
        victim.kill()
        victim.join()
        outcomes = dict(supervisor.run())
        assert len(outcomes) == 2
        assert all(o.status == "computed" for o in outcomes.values())
        assert engine.telemetry.worker_crashes == 1
        assert engine.telemetry.worker_timeouts == 0
        # Exactly one cell burned exactly one crash retry.
        assert sorted(o.attempts for o in outcomes.values()) == [1, 2]
        assert not read_events(sink, "worker.timeout")
        assert len(read_events(sink, "worker.crash")) == 1


class TestRunQueue:
    def test_queue_balances_a_costly_decoy(self):
        """The decoy claims the largest weight but finishes at once: the
        worker that took it keeps taking the next queued cell, so the
        six slow cells split across both workers."""
        decoy = SleepCell(0, 0.05, "untangle")
        slow = [SleepCell(i, 0.3, "static") for i in range(1, 7)]
        engine = ExecutionEngine(jobs=2)
        outcomes = engine.run([decoy] + slow)
        assert all(o.status == "computed" for o in outcomes)
        snap = engine.telemetry.snapshot()
        # One worker alone would need >= 1.8s for the slow cells.
        assert snap["wall_seconds"] < 1.5

    def test_dispatch_order_is_non_increasing_weight(
        self, monkeypatch, tmp_path
    ):
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        families = ["static", "untangle", "shared", "time", "threshold"] * 2
        cells = [SleepCell(i, 0.0, f) for i, f in enumerate(families)]
        ExecutionEngine(jobs=2).run(cells)
        weights = {cell.label: expected_cost(cell) for cell in cells}
        order = [
            weights[e["attrs"]["label"]]
            for e in read_events(sink, "cell.dispatch")
        ]
        assert len(order) == len(cells)
        assert order == sorted(order, reverse=True)

    def test_dead_chunk_tail_dispatches_next_unpenalized(
        self, monkeypatch, tmp_path
    ):
        from repro.harness.faults import FaultPlan

        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(TRACE_ENV, str(sink))
        cells = [BatchableCell(i, 0.0) for i in range(6)]
        # One worker, chunks [0 1 2] [3 4 5]; cell 1 crashes its worker
        # once. Its retry backs off >= 0.25s, so the queue front is the
        # dead chunk's unstarted tail [2].
        engine = ExecutionEngine(
            jobs=1,
            batch_cells=3,
            retries=1,
            backoff_base=0.5,
            faults=FaultPlan(
                crash_cells=("sleep[1]/",), state_dir=str(tmp_path / "s")
            ),
        )
        outcomes = dict(_Supervisor(engine, _pending(cells)).run())
        assert all(o.status == "computed" for o in outcomes.values())
        assert outcomes[1].attempts == 2
        assert outcomes[2].attempts == 1
        assert engine.telemetry.worker_crashes == 1
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        crash = next(
            i for i, r in enumerate(records) if r["name"] == "worker.crash"
        )
        after = next(
            r for r in records[crash:] if r["name"] == "cell.dispatch"
        )
        assert after["attrs"]["label"] == cells[2].label
        assert after["attrs"]["attempt"] == 1

    def test_backed_off_retry_waits_for_its_ready_time(self):
        engine = ExecutionEngine(jobs=2, retries=3, backoff_base=10.0)
        cells = [SleepCell(i, 0.0) for i in range(4)]
        pending = _pending(cells)
        supervisor = _planner(engine, pending[2:])
        for index in (1, 0):  # cell 1 fails first
            supervisor.attempts[index] = 1
            list(
                supervisor._attempt_failed(
                    index, cells[index], pending[index][2], "boom"
                )
            )
        now = time.monotonic()
        # Backing off (>= half of backoff_base): the queued retries are
        # skipped and planned work dispatches.
        assert supervisor._next_chunk(now) == [pending[2]]
        retries = [ready_at for ready_at, _ in supervisor.queue if ready_at]
        assert len(retries) == 2 and min(retries) > now + 4.0
        # Once ready, retries go ahead of planned work, in failure order.
        ready = max(retries)
        assert supervisor._next_chunk(ready) == [pending[1]]
        assert supervisor._next_chunk(ready) == [pending[0]]
        assert supervisor._next_chunk(ready) == [pending[3]]
        assert not supervisor.queue

    def test_batched_results_bit_identical_to_serial(self):
        cells = [
            MixSchemeCell(pairs=PAIRS, scheme=scheme, profile=TEST)
            for scheme in ("static", "shared", "time")
        ]
        serial = ExecutionEngine(jobs=1).run(cells)
        batched = ExecutionEngine(jobs=3, batch_cells=2).run(cells)
        for a, b in zip(serial, batched):
            assert a.cell.encode(a.value) == b.cell.encode(b.value)


class TestResumeUnderBatching:
    def test_invariant_holds_with_replays_and_batches(self, tmp_path):
        old = [BatchableCell(i, 0.0) for i in range(6)]
        first = ExecutionEngine(jobs=4, cache=ResultCache(tmp_path))
        first.run(old)

        new = [BatchableCell(i, 0.0) for i in range(6, 10)]
        second = ExecutionEngine(
            jobs=4, cache=ResultCache(tmp_path), resume=True
        )
        outcomes = second.run(old + new)
        assert all(o.ok for o in outcomes)
        snap = second.telemetry.snapshot()
        assert snap["replayed"] == 6
        assert snap["computed"] == 4
        assert (
            snap["computed"] + snap["hit"] + snap["replayed"] + snap["failed"]
            == snap["total"]
        )
        # Replayed cells never reach the supervisor: only the four new
        # cells were chunked and dispatched.
        assert snap["batched_cells"] == 4
