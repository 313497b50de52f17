"""Tests for the crash-safe campaign journal and journal-backed resume.

The guarantee the fault-tolerant runner depends on: any cell the engine
*reported finished* is durably journaled (and its value durably packed
in the result cache), and a resumed run replays it bit-identically with
zero re-simulation — even when the journal tail is torn by a crash or
a previous attempt failed. A journaled cell whose pack entry is lost
is simulated again.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness import journal as journal_module
from repro.harness.exec import ExecutionEngine, ResultCache, cell_key
from repro.harness.experiment import run_mix_scheme
from repro.harness.journal import (
    JOURNAL_FORMAT_VERSION,
    JournalEntry,
    RunJournal,
    _checksum,
)
from repro.harness.runconfig import TEST

from tests.harness.test_exec import PAIRS, SleepCell, make_cells


def entry(key="k1", status="computed", **kw):
    defaults = dict(
        key=key,
        label=f"cell-{key}",
        status=status,
        wall_seconds=0.5,
        attempts=1,
    )
    defaults.update(kw)
    return JournalEntry(**defaults)


def assert_invariant(engine):
    snap = engine.telemetry.snapshot()
    assert (
        snap["computed"] + snap["hit"] + snap["replayed"] + snap["failed"]
        == snap["total"]
    ), snap


@pytest.fixture()
def no_linger(monkeypatch):
    """Group commit driven by the batch size alone: while this is
    active, journals never flush a partial batch on their own."""
    monkeypatch.setattr(journal_module, "DEFAULT_LINGER_SECONDS", 3600.0)


class TestRunJournal:
    def test_round_trip(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record(entry("k1", campaign="smoke"))
        journal.record(entry("k2", status="failed", error="boom"))
        journal.close()
        loaded = RunJournal(tmp_path / "j.jsonl").load()
        assert set(loaded) == {"k1", "k2"}
        assert loaded["k1"] == entry("k1", campaign="smoke")
        assert loaded["k1"].ok
        assert loaded["k1"].campaign == "smoke"
        assert not loaded["k2"].ok and loaded["k2"].error == "boom"

    def test_missing_file_is_empty(self, tmp_path):
        assert RunJournal(tmp_path / "absent.jsonl").load() == {}

    def test_last_entry_wins(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record(entry("k1", status="failed", error="boom"))
        journal.record(entry("k1", status="computed"))
        journal.flush()
        loaded = journal.load()
        assert loaded["k1"].ok

    def test_torn_final_line_is_tolerated(self, tmp_path):
        """A crash mid-append damages only the last line; the rest loads."""
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record(entry("k1"))
        journal.record(entry("k2"))
        journal.close()
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # SIGKILL mid-write of k2
        path.write_text("\n".join(lines))
        fresh = RunJournal(path)
        loaded = fresh.load()
        assert set(loaded) == {"k1"}
        assert fresh.corrupt_lines == 1

    def test_bitflip_detected_by_checksum(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record(entry("k1", wall_seconds=1.0))
        journal.close()
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace('"wall_seconds":1.0', '"wall_seconds":9.0')
        path.write_text("\n".join(lines) + "\n")
        fresh = RunJournal(path)
        assert fresh.load() == {}
        assert fresh.corrupt_lines == 1

    def test_line_with_retired_profile_field_still_loads(self, tmp_path):
        # Journals written before the "profile" field was dropped carry
        # it; the checksum covers the fields a line has, so they load.
        fields = {
            "kind": "cell",
            "format": JOURNAL_FORMAT_VERSION,
            "key": "k1",
            "label": "cell-k1",
            "status": "computed",
            "wall_seconds": 0.5,
            "attempts": 1,
            "campaign": None,
            "error": None,
            "profile": "test",
        }
        fields["sha256"] = _checksum(fields)
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps(fields) + "\n")
        journal = RunJournal(path)
        assert journal.load() == {"k1": entry("k1")}
        assert journal.corrupt_lines == 0

    def test_format_version_mismatch_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record(entry("k1"))
        journal.close()
        text = path.read_text().replace(
            f'"format":{JOURNAL_FORMAT_VERSION}', '"format":-1'
        )
        path.write_text(text)
        assert RunJournal(path).load() == {}

        # A version-1 line carried the cell's value inline; it is
        # skipped as damaged, never replayed from that value.
        cell = SleepCell(0.01)
        v1 = {
            "kind": "cell",
            "format": 1,
            "key": cell_key(cell),
            "label": cell.label,
            "status": "computed",
            "wall_seconds": 0.5,
            "attempts": 1,
            "campaign": None,
            "value": {"seconds": 99.0},
            "error": None,
        }
        v1["sha256"] = _checksum(v1)
        (tmp_path / "journal.jsonl").write_text(json.dumps(v1) + "\n")
        fresh = RunJournal(tmp_path / "journal.jsonl")
        assert fresh.load() == {}
        assert fresh.corrupt_lines == 1
        engine = ExecutionEngine(
            jobs=1, cache=ResultCache(tmp_path), resume=True
        )
        outcomes = engine.run([cell])
        assert outcomes[0].status == "computed"
        assert outcomes[0].value == 0.01
        assert engine.telemetry.journal_replays == 0

    def test_appends_are_one_json_line_each(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record(entry("k1"))
        journal.record(entry("k2"))
        journal.flush()
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 3  # header + two records
        assert json.loads(lines[0])["kind"] == "header"
        assert all(json.loads(l)["kind"] == "cell" for l in lines[1:])


class TestGroupCommit:
    """Group-commit batching: fewer fsyncs, unchanged durability story."""

    def test_batched_records_buffer_until_batch_fills(
        self, tmp_path, monkeypatch, no_linger
    ):
        monkeypatch.setattr(journal_module, "DEFAULT_BATCH_ENTRIES", 3)
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        s1 = journal.record(entry("k1"))
        s2 = journal.record(entry("k2"))
        # Buffered in user space: not yet durable, not yet on disk.
        assert journal.durable_seq == 0
        assert len(path.read_text().splitlines()) == 1  # header only
        s3 = journal.record(entry("k3"))
        assert journal.durable_seq == s3 == 3
        assert journal.flushes == 1  # one fsync for all three
        loaded = RunJournal(path).load()
        assert set(loaded) == {"k1", "k2", "k3"}
        assert (s1, s2, s3) == (1, 2, 3)

    def test_flush_commits_a_partial_batch(self, tmp_path, no_linger):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path)
        journal.record(entry("k1"))
        assert journal.durable_seq == 0
        journal.flush()
        assert journal.durable_seq == 1
        assert RunJournal(path).load()["k1"].ok

    def test_close_flushes_buffered_entries(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record(entry("k1"))
        assert set(RunJournal(path).load()) == {"k1"}

    def test_linger_flushes_a_stalled_partial_batch(self, tmp_path):
        import time

        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record(entry("k1"))
        deadline = time.monotonic() + 2.0
        while journal.durable_seq < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert journal.durable_seq == 1
        journal.close()

    def test_engine_acks_only_after_fsync(
        self, tmp_path, monkeypatch, no_linger
    ):
        """Progress lines lag the fsync, never lead it: every acked cell
        is durable even while later cells sit in the buffer."""
        monkeypatch.setattr(journal_module, "DEFAULT_BATCH_ENTRIES", 2)
        acked: list[str] = []
        durable_at_ack: list[int] = []

        def progress(line: str) -> None:
            acked.append(line)
            durable_at_ack.append(engine.journal.durable_seq)

        engine = ExecutionEngine(
            jobs=1, cache=ResultCache(tmp_path), progress=progress
        )
        engine.run([SleepCell(0.01), SleepCell(0.02), SleepCell(0.03)])
        assert len(acked) == 3
        # Ack i is emitted only once its own record is durable.
        assert all(durable >= i + 1 for i, durable in enumerate(durable_at_ack))
        # The odd tail cell was committed by the teardown flush.
        assert engine.journal.durable_seq == 3
        assert len(RunJournal(tmp_path / "journal.jsonl").load()) == 3

    def test_engine_acks_only_after_pack_fsync(self, tmp_path, monkeypatch):
        """The journal holds no values, so a computed cell's ack also
        waits for an fsync of the pack shard holding its value."""
        events: list[tuple] = []
        real_fsync = os.fsync

        def fsync(fd):
            real_fsync(fd)
            st = os.fstat(fd)
            events.append(("fsync", (st.st_dev, st.st_ino)))

        monkeypatch.setattr(os, "fsync", fsync)
        cache = ResultCache(tmp_path)
        real_put = cache.put

        def put(key, payload):
            real_put(key, payload)
            events.append(("put", key))

        cache.put = put
        cells = [SleepCell(0.01), SleepCell(0.02), SleepCell(0.03)]
        engine = ExecutionEngine(
            jobs=1,
            cache=cache,
            progress=lambda line: events.append(("ack", line.split()[2])),
        )
        outcomes = engine.run(cells)
        assert [o.status for o in outcomes] == ["computed"] * 3
        for outcome in outcomes:
            st = os.stat(cache._pack_path(outcome.key[:1]))
            shard = (st.st_dev, st.st_ino)
            put_at = events.index(("put", outcome.key))
            ack_at = events.index(("ack", outcome.cell.label))
            assert ("fsync", shard) in events[put_at:ack_at], events


    def test_engine_closes_its_journal_after_each_run(
        self, tmp_path, monkeypatch, no_linger
    ):
        """No journal handle or flusher outlives a run, and a second run
        on the same engine still journals and group-commits."""
        monkeypatch.setattr(journal_module, "DEFAULT_BATCH_ENTRIES", 2)
        engine = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        journal = engine.journal
        for run, cells in enumerate(
            ([SleepCell(0.01), SleepCell(0.02), SleepCell(0.03)],
             [SleepCell(0.04), SleepCell(0.05), SleepCell(0.06)]),
            1,
        ):
            outcomes = engine.run(cells)
            assert [o.status for o in outcomes] == ["computed"] * 3
            assert journal._handle.closed
            assert journal._flusher is None
            # Per run: one full batch of two, then the teardown flush.
            assert journal.flushes == 2 * run
            assert journal.durable_seq == 3 * run
        loaded = RunJournal(tmp_path / "journal.jsonl").load()
        assert len(loaded) == 6
        assert all(e.status == "computed" for e in loaded.values())


def engine_at(tmp_path, **kwargs):
    """An engine whose cache, and so whose journal, is ``tmp_path``."""
    return ExecutionEngine(jobs=1, cache=ResultCache(tmp_path), **kwargs)


class TestEngineJournaling:
    def test_every_finished_cell_is_journaled(self, tmp_path):
        engine = engine_at(tmp_path)
        cells = [SleepCell(0.01), SleepCell(0.02)]
        engine.run(cells, campaign="unit")
        loaded = engine.journal.load()
        assert len(loaded) == 2
        assert all(e.status == "computed" for e in loaded.values())
        assert all(e.campaign == "unit" for e in loaded.values())

    def test_resume_replays_without_resimulating(self, tmp_path):
        """Resume replays journaled cells from the pack: zero simulations."""
        cells = [SleepCell(0.01), SleepCell(0.02)]
        baseline = engine_at(tmp_path).run(cells)
        resumed = engine_at(tmp_path, resume=True)
        outcomes = resumed.run(cells)
        assert resumed.telemetry.simulations == 0
        assert resumed.telemetry.journal_replays == len(cells)
        assert [o.status for o in outcomes] == ["replayed", "replayed"]
        assert [o.value for o in outcomes] == [o.value for o in baseline]

    def test_resume_replay_is_bit_identical_for_mix_cells(self, tmp_path):
        direct = run_mix_scheme(list(PAIRS), "static", TEST)
        cells = make_cells(schemes=("static",))
        engine_at(tmp_path).run(cells)
        resumed = engine_at(tmp_path, resume=True)
        outcomes = resumed.run(cells)
        assert resumed.telemetry.simulations == 0
        # The JSON round-trip is exact: floats compare equal bit-wise.
        assert outcomes[0].value == direct

    def test_failed_cells_rerun_on_resume(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.record(
            JournalEntry(
                key=cell_key(SleepCell(0.01)),
                label="sleep[0.01]",
                status="failed",
                wall_seconds=0.1,
                attempts=2,
                error="boom",
            )
        )
        journal.close()
        engine = engine_at(tmp_path, resume=True)
        outcomes = engine.run([SleepCell(0.01)])
        assert outcomes[0].status == "computed"
        assert engine.telemetry.simulations == 1
        # The journal now remembers the success, not the failure.
        assert RunJournal(tmp_path / "journal.jsonl").load()[outcomes[0].key].ok

    def test_unknown_cells_run_normally_under_resume(self, tmp_path):
        engine = engine_at(tmp_path, resume=True)
        outcomes = engine.run([SleepCell(0.01)])
        assert outcomes[0].status == "computed"

    def test_resume_with_parallel_engine(self, tmp_path):
        cells = [SleepCell(0.01), SleepCell(0.02), SleepCell(0.03)]
        ExecutionEngine(jobs=2, cache=ResultCache(tmp_path)).run(cells)
        resumed = ExecutionEngine(
            jobs=2, cache=ResultCache(tmp_path), resume=True
        )
        outcomes = resumed.run(cells)
        assert resumed.telemetry.simulations == 0
        assert [o.value for o in outcomes] == [0.01, 0.02, 0.03]

    def test_partial_journal_resumes_only_missing_cells(self, tmp_path):
        """The crash-recovery contract: journaled cells replay; a cell
        whose record was torn is not replayed, and is served from the
        pack entry written before its record."""
        path = tmp_path / "journal.jsonl"
        cells = [SleepCell(0.01), SleepCell(0.02), SleepCell(0.03)]
        engine_at(tmp_path).run(cells)
        # Simulate a SIGKILL mid-append: drop the last record's tail.
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        resumed = engine_at(tmp_path, resume=True)
        outcomes = resumed.run(cells)
        assert resumed.telemetry.journal_replays == 2
        assert resumed.telemetry.cache_hits == 1
        assert resumed.telemetry.simulations == 0
        assert [o.status for o in outcomes] == ["replayed", "replayed", "hit"]
        assert [o.value for o in outcomes] == [0.01, 0.02, 0.03]
        assert_invariant(resumed)

    def test_damaged_pack_entry_is_resimulated_on_resume(self, tmp_path):
        """A journaled ok cell with no valid pack entry has no value to
        replay: it is simulated again, and the damage is quarantined."""
        cells = [SleepCell(0.01), SleepCell(0.02)]
        baseline = engine_at(tmp_path).run(cells)
        damaged = baseline[0].key
        cache = ResultCache(tmp_path)
        cache.corrupt_entry(damaged)
        cache.release_handles()
        assert RunJournal(tmp_path / "journal.jsonl").load()[damaged].ok

        resumed = engine_at(tmp_path, resume=True)
        outcomes = resumed.run(cells)
        assert [o.status for o in outcomes] == ["computed", "replayed"]
        assert [o.value for o in outcomes] == [o.value for o in baseline]
        snap = resumed.telemetry.snapshot()
        assert (snap["computed"], snap["replayed"], snap["quarantined"]) == (
            1,
            1,
            1,
        )
        assert_invariant(resumed)
        sidecar = tmp_path / "packs" / f"{damaged[:1]}.corrupt"
        assert b"#torn-write#" in sidecar.read_bytes()

    def test_cache_hits_are_journaled_for_future_resume(self, tmp_path):
        engine_at(tmp_path).run([SleepCell(0.01)])
        engine = engine_at(tmp_path)
        outcomes = engine.run([SleepCell(0.01)])
        assert outcomes[0].status == "hit"
        loaded = engine.journal.load()
        assert loaded[outcomes[0].key].status == "hit"
        assert loaded[outcomes[0].key].ok
