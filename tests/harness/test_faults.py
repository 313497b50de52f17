"""Fault-injection suite: prove every recovery path of the runner.

Each test injects one of the failures the campaign runner claims to
survive — worker crash, worker hang past the deadline, corrupt cache
entry, infant-mortality worker — and asserts full recovery: the grid
completes, no prior completed-cell result is lost, and the telemetry
records what happened.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ConfigurationError
from repro.harness.exec import ExecutionEngine, ResultCache, cell_key
from repro.harness.faults import FaultPlan, faults_from_env, parse_fault_spec
from repro.harness.journal import RunJournal

from tests.harness.test_exec import SleepCell


class TestParseFaultSpec:
    def test_full_spec(self):
        plan = parse_fault_spec(
            "crash=alpha;hang=beta;corrupt=gamma;kill-worker=2;"
            "hang-seconds=7.5;state=/tmp/x"
        )
        assert plan.crash_cells == ("alpha",)
        assert plan.hang_cells == ("beta",)
        assert plan.corrupt_cells == ("gamma",)
        assert plan.kill_workers == (2,)
        assert plan.hang_seconds == 7.5
        assert plan.state_dir == "/tmp/x"

    def test_multiple_clauses_accumulate(self):
        plan = parse_fault_spec("crash=a;crash=b")
        assert plan.crash_cells == ("a", "b")

    def test_journal_batch_crash_clause(self):
        plan = parse_fault_spec("journal-batch-crash=2")
        assert plan.journal_batch_crash == 2

    def test_journal_batch_crash_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            parse_fault_spec("journal-batch-crash=0")
        with pytest.raises(ConfigurationError):
            parse_fault_spec("journal-batch-crash=soon")

    def test_unknown_kind_rejected_with_help(self):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_fault_spec("explode=x")
        assert "explode" in str(excinfo.value)
        assert "crash=" in str(excinfo.value)  # accepted forms listed

    def test_malformed_clause_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_fault_spec("crash")
        with pytest.raises(ConfigurationError):
            parse_fault_spec("kill-worker=soon")

    def test_faults_from_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults_from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", f"crash=x;state={tmp_path}")
        plan = faults_from_env()
        assert plan.crash_cells == ("x",)
        assert plan.state_dir == str(tmp_path)

    def test_faults_from_env_gets_one_shot_state_dir(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash=x")
        plan = faults_from_env()
        assert plan.state_dir is not None


class TestFireOnce:
    def test_state_dir_makes_faults_one_shot(self, tmp_path):
        plan = FaultPlan(corrupt_cells=("a",), state_dir=str(tmp_path))
        assert plan.should_corrupt("cell-a")
        assert not plan.should_corrupt("cell-a")  # already fired

    def test_without_state_dir_faults_repeat(self):
        plan = FaultPlan(corrupt_cells=("a",))
        assert plan.should_corrupt("cell-a")
        assert plan.should_corrupt("cell-a")

    def test_non_matching_labels_unaffected(self, tmp_path):
        plan = FaultPlan(corrupt_cells=("a",), state_dir=str(tmp_path))
        assert not plan.should_corrupt("cell-b")


class TestWorkerCrashRecovery:
    def test_crashed_worker_is_respawned_and_cell_retried(self, tmp_path):
        plan = FaultPlan(crash_cells=("sleep[0.05]",), state_dir=str(tmp_path))
        engine = ExecutionEngine(
            jobs=2, retries=1, backoff_base=0.01, faults=plan
        )
        outcomes = engine.run([SleepCell(0.05), SleepCell(0.01)])
        # The crashed cell recovered; the other cell was never disturbed.
        assert [o.status for o in outcomes] == ["computed", "computed"]
        assert outcomes[0].value == 0.05
        assert outcomes[0].attempts == 2
        assert engine.telemetry.worker_crashes == 1
        assert engine.telemetry.workers_respawned >= 1
        assert engine.telemetry.retries == 1

    def test_crash_error_is_reported_when_budget_exhausted(self):
        # No state dir: the fault fires on every attempt.
        plan = FaultPlan(crash_cells=("sleep[0.05]",))
        engine = ExecutionEngine(
            jobs=2, retries=1, backoff_base=0.01, faults=plan
        )
        outcomes = engine.run([SleepCell(0.05), SleepCell(0.01)])
        # Every attempt crashed its worker: the circuit breaker
        # quarantines the cell as poisoned (a flavor of failed).
        assert outcomes[0].status == "poisoned"
        assert not outcomes[0].ok
        assert "worker crashed" in outcomes[0].error
        assert outcomes[0].attempts == 2
        assert outcomes[1].status == "computed"  # grid kept going

    def test_completed_results_survive_a_crash(self, tmp_path):
        """Prior completed cells stay journaled when a later cell crashes."""
        plan = FaultPlan(crash_cells=("sleep[0.2]",))
        engine = ExecutionEngine(
            jobs=2,
            retries=0,
            backoff_base=0.01,
            faults=plan,
            cache=ResultCache(tmp_path),
        )
        outcomes = engine.run([SleepCell(0.01), SleepCell(0.2)])
        assert outcomes[0].status == "computed"
        loaded = RunJournal(tmp_path / "journal.jsonl").load()
        assert loaded[outcomes[0].key].ok
        assert not loaded[outcomes[1].key].ok


class TestWorkerHangRecovery:
    def test_hung_worker_is_killed_and_cell_retried(self, tmp_path):
        plan = FaultPlan(
            hang_cells=("sleep[0.05]",),
            hang_seconds=60.0,
            state_dir=str(tmp_path),
        )
        engine = ExecutionEngine(
            jobs=2, retries=1, timeout=0.5, backoff_base=0.01, faults=plan
        )
        start = time.perf_counter()
        outcomes = engine.run([SleepCell(0.05), SleepCell(0.01)])
        elapsed = time.perf_counter() - start
        assert [o.status for o in outcomes] == ["computed", "computed"]
        assert engine.telemetry.worker_timeouts == 1
        assert engine.telemetry.workers_respawned >= 1
        # The supervisor killed the hang at the deadline; it did not
        # wait out the 60-second sleep.
        assert elapsed < 30.0

    def test_hang_does_not_block_other_cells(self, tmp_path):
        """One stuck cell cannot occupy the pool for the rest of the run:
        cells queued behind it complete while it is being killed."""
        plan = FaultPlan(
            hang_cells=("sleep[0.05]",),
            hang_seconds=60.0,
            state_dir=str(tmp_path),
        )
        engine = ExecutionEngine(
            jobs=2, retries=1, timeout=1.0, backoff_base=0.01, faults=plan
        )
        cells = [SleepCell(0.05)] + [SleepCell(0.01 + i / 1000) for i in range(4)]
        outcomes = engine.run(cells)
        assert all(o.status == "computed" for o in outcomes)


class TestCorruptCacheRecovery:
    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        plan = FaultPlan(
            corrupt_cells=("sleep[0.01]",), state_dir=str(tmp_path / "state")
        )
        (tmp_path / "state").mkdir()
        first = ExecutionEngine(jobs=1, cache=ResultCache(cache_dir), faults=plan)
        first.run([SleepCell(0.01)])

        second = ExecutionEngine(jobs=1, cache=ResultCache(cache_dir))
        outcomes = second.run([SleepCell(0.01)])
        # Not a silent miss: quarantined, counted, recomputed.
        assert outcomes[0].status == "computed"
        assert second.telemetry.quarantines == 1
        assert second.telemetry.simulations == 1
        key = cell_key(SleepCell(0.01))
        # The damaged line's bytes are preserved in the shard's
        # quarantine sidecar for diagnosis (the packed analogue of the
        # legacy *.json.corrupt rename).
        corrupt_sidecar = cache_dir / "packs" / f"{key[:1]}.corrupt"
        assert corrupt_sidecar.exists()
        assert corrupt_sidecar.stat().st_size > 0
        # The recomputed entry replaced the corrupt one: third run hits.
        third = ExecutionEngine(jobs=1, cache=ResultCache(cache_dir))
        assert third.run([SleepCell(0.01)])[0].status == "hit"
        assert third.telemetry.quarantines == 0


class TestKillWorkerRecovery:
    def test_infant_mortality_worker_is_replaced(self, tmp_path):
        plan = FaultPlan(kill_workers=(0,), state_dir=str(tmp_path))
        engine = ExecutionEngine(
            jobs=2, retries=1, backoff_base=0.01, faults=plan
        )
        outcomes = engine.run([SleepCell(0.01), SleepCell(0.02), SleepCell(0.03)])
        assert all(o.status == "computed" for o in outcomes)
        assert engine.telemetry.worker_crashes >= 1
        assert engine.telemetry.workers_respawned >= 1
