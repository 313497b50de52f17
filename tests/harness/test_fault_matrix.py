"""The deterministic fault matrix: every failure domain, one suite.

Each case injects one fault class into an otherwise identical small
campaign and asserts the three properties the robustness layer promises
(`docs/robustness.md`):

1. **Accounting stays truthful** — the telemetry invariant
   ``computed + hit + replayed + failed == total`` holds under every
   fault, so no cell is double-counted or silently dropped.
2. **Surviving results are bit-identical** to a fault-free run — fault
   handling may cost durability or retries, never correctness.
3. **Nothing leaks** — no worker processes and no ``/dev/shm/repro-*``
   segments outlive the run.

Plus the per-class contracts: crashes/hangs/stalls recover within the
retry budget; a deterministic poison cell trips the circuit breaker
(``poisoned`` status, failure manifest, non-ok exit, resume re-attempts
exactly it); slow-but-progressing cells are *not* killed however long
they stall-watch; and ``EIO``/``ENOSPC`` on journal/cache/store degrade
that subsystem instead of aborting the campaign.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.exec import ExecutionEngine, ResultCache
from repro.harness.faults import CRASH_EXIT_CODE, FaultPlan, parse_fault_spec
from repro.harness.journal import RunJournal
from repro.harness.store import PrecomputeStore

TOTAL = 6
SHM_ROOT = Path("/dev/shm")
REPO_ROOT = Path(__file__).resolve().parents[2]
GROUPCOMMIT_CHILD = Path(__file__).with_name("_groupcommit_child.py")
GC_CELLS = 6  # keep in sync with _groupcommit_child.CELLS
GC_BATCH = 3  # keep in sync with _groupcommit_child.BATCH_ENTRIES


class MatrixCell:
    """Deterministic unit of work with float-carrying results.

    The floats make bit-identity assertions meaningful: any lossy
    round-trip (journal, cache, pipe) or nondeterministic recovery path
    would show up as a value mismatch against the fault-free baseline.
    """

    def __init__(self, index: int):
        self.index = index

    @property
    def label(self) -> str:
        return f"m[{self.index}]"

    def cache_token(self):
        return {"kind": "fault-matrix", "index": self.index}

    def execute(self):
        time.sleep(0.03)
        return {
            "index": self.index,
            "third": (self.index + 1) / 3.0,
            "seventh": (self.index + 1) / 7.0,
        }

    @staticmethod
    def cycles_of(value):
        return None

    @staticmethod
    def encode(value):
        return value

    @staticmethod
    def decode(payload):
        return payload


def shm_segments() -> set[str]:
    if not SHM_ROOT.is_dir():
        return set()
    return {p.name for p in SHM_ROOT.glob("repro-*")}


def run_campaign(
    tmp_path: Path,
    faults: FaultPlan | None,
    *,
    subdir: str = "run",
    resume: bool = False,
    stall_timeout: float | None = None,
):
    """One small parallel campaign with the full I/O stack attached
    (``root/packs``, ``root/journal.jsonl`` and ``root/store``)."""
    root = tmp_path / subdir
    engine = ExecutionEngine(
        jobs=2,
        cache=ResultCache(root),
        resume=resume,
        store=PrecomputeStore(root / "store"),
        timeout=5.0,
        heartbeat=0.2,
        stall_timeout=stall_timeout,
        retries=2,
        backoff_base=0.01,
        faults=faults,
    )
    outcomes = engine.run(
        [MatrixCell(i) for i in range(TOTAL)], campaign="fault-matrix"
    )
    return engine, outcomes


def assert_invariant(engine):
    snap = engine.telemetry.snapshot()
    assert (
        snap["computed"] + snap["hit"] + snap["replayed"] + snap["failed"]
        == snap["total"]
        == TOTAL
    ), snap


def assert_no_leaks(shm_before: set[str]):
    # Workers are joined by supervisor shutdown; give the OS a beat.
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()
    assert shm_segments() <= shm_before


@pytest.fixture()
def baseline(tmp_path):
    """Fault-free reference values (and proof the campaign is green)."""
    engine, outcomes = run_campaign(tmp_path, None, subdir="baseline")
    assert [o.status for o in outcomes] == ["computed"] * TOTAL
    assert_invariant(engine)
    return [o.value for o in outcomes]


# Each entry: (fault spec, needs_state_dir, expected status list or None
# meaning all computed). Specs are parsed by the same parser REPRO_FAULTS
# uses, so the matrix doubles as coverage of the spec grammar.
MATRIX = {
    "crash-recovers": ("crash=m[2]", True),
    "kill-worker-recovers": ("kill-worker=0", True),
    "hang-is-stall-killed": ("hang=m[1];hang-seconds=3600", True),
    "stall-frozen-progress": ("heartbeat-stall=m[1];stall-seconds=30", True),
    "corrupt-entry-quarantined": ("corrupt=m[0]", True),
    "io-error-journal": ("io-error=journal", True),
    "io-error-cache": ("io-error=cache", True),
    "io-error-store": ("io-error=store", True),
    "enospc-cache": ("enospc=cache", True),
    "enospc-journal": ("enospc=journal", True),
}


class TestFaultMatrix:
    @pytest.mark.parametrize("case", sorted(MATRIX))
    def test_campaign_survives_fault(self, tmp_path, baseline, case):
        spec, needs_state = MATRIX[case]
        if needs_state:
            state = tmp_path / "fault-state"
            state.mkdir()
            spec = f"{spec};state={state}"
        plan = parse_fault_spec(spec)
        shm_before = shm_segments()
        engine, outcomes = run_campaign(tmp_path, plan, subdir=case)

        # Recovery: every cell completed despite the injected fault.
        assert [o.status for o in outcomes] == ["computed"] * TOTAL
        assert_invariant(engine)
        # Bit-identity: fault handling never changes surviving results.
        assert [o.value for o in outcomes] == baseline
        assert_no_leaks(shm_before)
        # A clean finish leaves no failure manifest behind.
        assert engine.manifest_path is None

        if case.startswith(("io-error", "enospc")):
            subsystem = spec.split(";")[0].split("=")[1]
            assert list(engine.telemetry.degraded) == [subsystem]
            if case.startswith("enospc"):
                assert "28" in engine.telemetry.degraded[subsystem] or (
                    "No space" in engine.telemetry.degraded[subsystem]
                )
        else:
            assert engine.telemetry.degraded == {}

        if case in ("hang-is-stall-killed", "stall-frozen-progress"):
            # The kill came from stall evidence, and the early warning
            # fired before it.
            assert engine.telemetry.worker_timeouts >= 1
            assert engine.telemetry.worker_unresponsive >= 1

    def test_slow_cell_with_progress_is_never_killed(self, tmp_path, baseline):
        """Slow is not hung: a cell beating progress survives a stall
        deadline shorter than its runtime."""
        state = tmp_path / "fault-state"
        state.mkdir()
        plan = parse_fault_spec(f"slow=m[4];slow-seconds=1.2;state={state}")
        engine, outcomes = run_campaign(
            tmp_path, plan, stall_timeout=0.8
        )
        assert [o.status for o in outcomes] == ["computed"] * TOTAL
        assert [o.value for o in outcomes] == baseline
        assert engine.telemetry.worker_timeouts == 0
        assert engine.telemetry.worker_crashes == 0

    def test_poison_cell_trips_circuit_breaker(self, tmp_path, baseline):
        """A deterministically crashing cell is quarantined after the
        retry budget; the campaign completes and renders a manifest."""
        plan = parse_fault_spec("poison=m[3]")
        shm_before = shm_segments()
        engine, outcomes = run_campaign(tmp_path, plan, subdir="poison")

        statuses = [o.status for o in outcomes]
        assert statuses[3] == "poisoned"
        assert statuses[:3] + statuses[4:] == ["computed"] * (TOTAL - 1)
        assert not outcomes[3].ok
        assert outcomes[3].attempts == 3  # retries=2 exhausted
        assert_invariant(engine)
        snap = engine.telemetry.snapshot()
        assert snap["failed"] == 1 and snap["poisoned"] == 1
        survivors = [o.value for o in outcomes if o.ok]
        assert survivors == baseline[:3] + baseline[4:]
        assert_no_leaks(shm_before)

        # The failure manifest names the poisoned cell.
        assert engine.manifest_path is not None
        manifest = json.loads(engine.manifest_path.read_text())
        assert manifest["poisoned"] == 1 and manifest["failed"] == 0
        assert manifest["cells"][0]["label"] == "m[3]"
        assert manifest["cells"][0]["status"] == "poisoned"

        # --resume re-attempts exactly the poisoned cell (fault gone —
        # the flaky node was replaced — so it now completes).
        resumed_engine, resumed = run_campaign(
            tmp_path, None, subdir="poison", resume=True
        )
        assert [o.status for o in resumed] == (
            ["replayed"] * 3 + ["computed"] + ["replayed"] * 2
        )
        assert resumed_engine.telemetry.simulations == 1
        assert [o.value for o in resumed] == baseline
        # The clean resume clears the stale manifest.
        assert resumed_engine.manifest_path is None
        assert not (tmp_path / "poison" / "failures.json").exists()

    def test_degraded_journal_still_completes_without_resume(self, tmp_path):
        """With the journal degraded mid-run, later cells are simply not
        journaled — a resume serves them from the pack or re-runs them,
        it does not crash."""
        state = tmp_path / "fault-state"
        state.mkdir()
        plan = parse_fault_spec(f"io-error=journal;state={state}")
        engine, outcomes = run_campaign(tmp_path, plan, subdir="dj")
        assert [o.status for o in outcomes] == ["computed"] * TOTAL
        assert "journal" in engine.telemetry.degraded
        # The journal stopped before completing all cells.
        journaled = RunJournal(tmp_path / "dj" / "journal.jsonl").load()
        assert len(journaled) < TOTAL


def run_groupcommit_child(cache: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_RESUME", None)
    return subprocess.run(
        [sys.executable, str(GROUPCOMMIT_CHILD), str(cache), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        timeout=120,
    )


def parse_child_result(output: str) -> dict:
    result_lines = [l for l in output.splitlines() if l.startswith("RESULT ")]
    assert result_lines, output
    result = json.loads(result_lines[-1][len("RESULT "):])
    snap = result["snapshot"]
    assert (
        snap["computed"] + snap["hit"] + snap["replayed"] + snap["failed"]
        == snap["total"]
        == GC_CELLS
    ), snap
    return result


class TestJournalBatchCrashWindow:
    """The group-commit crash window: entries buffered but not fsync'd.

    With a batched journal the dangerous window is between a cell
    finishing and its batch's fsync. The ack protocol closes it: a cell
    is only reported done (progress line, resume-skip eligibility) after
    the fsync that made its record durable. ``journal-batch-crash=2``
    hard-kills the child at the start of the second flush, while that
    batch is still in user space — the buffered cells must be neither
    acked nor journaled. Their values were appended to the pack before
    the crash (unsynced, but a process exit does not drop them), so
    ``--resume`` serves them as cache hits; with the packs gone too, it
    re-simulates exactly the cells whose values were lost.
    """

    def test_journal_batch_crash_loses_only_unacked_cells(self, tmp_path):
        cache = tmp_path / "cache"
        journal = cache / "journal.jsonl"
        crashed = run_groupcommit_child(cache, "journal-batch-crash=2")
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stdout

        # Acks stop at the durability horizon: only the first batch's
        # cells (fsync'd by flush #1) ever produced a progress line.
        acked = [
            l for l in crashed.stdout.splitlines() if l.startswith("[exec")
        ]
        assert len(acked) == GC_BATCH, crashed.stdout

        # The journal holds exactly the fsync'd batch — the buffered
        # batch died in user space, leaving no torn lines behind.
        fresh = RunJournal(journal)
        loaded = fresh.load()
        assert fresh.corrupt_lines == 0
        assert len(loaded) == GC_BATCH
        assert all(entry.ok for entry in loaded.values())

        # Resume replays the durable cells; the lost records' cells are
        # served from their pack entries — never acked, never replayed.
        resumed = run_groupcommit_child(cache, "--resume")
        assert resumed.returncode == 0, resumed.stdout
        result = parse_child_result(resumed.stdout)
        assert result["replays"] == GC_BATCH
        assert result["hits"] == GC_CELLS - GC_BATCH
        assert result["simulations"] == 0
        assert result["statuses"] == (
            ["replayed"] * GC_BATCH + ["hit"] * (GC_CELLS - GC_BATCH)
        )

        # Bit-identical to an uninterrupted reference run.
        clean = run_groupcommit_child(tmp_path / "reference")
        assert clean.returncode == 0, clean.stdout
        reference = parse_child_result(clean.stdout)
        assert reference["simulations"] == GC_CELLS
        assert result["values"] == reference["values"]

    def test_journal_batch_first_flush_crash_loses_everything(self, tmp_path):
        """Crash before any fsync: zero acks, empty journal, nothing
        replayed; the first batch's packed values serve as hits."""
        cache = tmp_path / "cache"
        crashed = run_groupcommit_child(cache, "journal-batch-crash=1")
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stdout
        acked = [
            l for l in crashed.stdout.splitlines() if l.startswith("[exec")
        ]
        assert acked == [], crashed.stdout
        assert len(RunJournal(cache / "journal.jsonl").load()) == 0

        resumed = run_groupcommit_child(cache, "--resume")
        assert resumed.returncode == 0, resumed.stdout
        result = parse_child_result(resumed.stdout)
        assert result["replays"] == 0
        assert result["hits"] == GC_BATCH
        assert result["simulations"] == GC_CELLS - GC_BATCH

    def test_journal_batch_crash_without_packs_reruns_lost_cells(
        self, tmp_path
    ):
        """The journal is an index, not a store: with the packs gone,
        even the durably journaled cells have no value to replay, and
        ``--resume`` re-simulates exactly the cells whose values were
        lost — bit-identically."""
        cache = tmp_path / "cache"
        crashed = run_groupcommit_child(cache, "journal-batch-crash=2")
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stdout
        loaded = RunJournal(cache / "journal.jsonl").load()
        assert len(loaded) == GC_BATCH
        assert all(entry.ok for entry in loaded.values())
        shutil.rmtree(cache / "packs")

        resumed = run_groupcommit_child(cache, "--resume")
        assert resumed.returncode == 0, resumed.stdout
        result = parse_child_result(resumed.stdout)
        assert result["replays"] == result["hits"] == 0
        assert result["simulations"] == GC_CELLS
        assert result["statuses"] == ["computed"] * GC_CELLS

        clean = run_groupcommit_child(tmp_path / "reference")
        assert clean.returncode == 0, clean.stdout
        assert result["values"] == parse_child_result(clean.stdout)["values"]


class TestFdHygiene:
    def test_repeated_faulted_runs_do_not_leak_fds(self, tmp_path):
        fd_dir = Path("/proc/self/fd")
        if not fd_dir.is_dir():
            pytest.skip("/proc not available")
        plan = parse_fault_spec("poison=m[3]")
        run_campaign(tmp_path, plan, subdir="warmup")
        before = len(list(fd_dir.iterdir()))
        for round_ in range(2):
            run_campaign(tmp_path, plan, subdir=f"round{round_}")
        after = len(list(fd_dir.iterdir()))
        # Slack for interpreter noise; a real leak (pipes per worker per
        # run) would blow well past it.
        assert after <= before + 8
