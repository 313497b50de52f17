"""End-to-end crash/interrupt recovery, exercised through real processes.

These are the acceptance tests of the fault-tolerant runner: a campaign
process killed with SIGKILL (no chance to clean up) or interrupted with
SIGINT leaves a valid journal behind, and ``--resume`` completes the
campaign with *zero re-simulations* of journaled cells (their values
come from the result cache's pack) and final results bit-identical to
an uninterrupted run.

The campaign itself lives in ``_resume_child.py`` and runs in a child
``python`` process, so the kill is a genuine OS-level kill of the whole
interpreter — not a simulated exception.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.journal import RunJournal

REPO_ROOT = Path(__file__).resolve().parents[2]
CHILD = Path(__file__).with_name("_resume_child.py")
TOTAL_CELLS = 4  # keep in sync with _resume_child.CELLS


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_RESUME", None)
    return env


def start_child(cache: Path, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(CHILD), str(cache), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=child_env(),
    )


def read_until_progress(proc: subprocess.Popen, lines: int) -> list[str]:
    """Read child stdout until ``lines`` progress lines have appeared.

    The engine journals a cell *before* emitting its progress line, so
    once a line is visible the corresponding journal record (and packed
    value) is durable.
    """
    seen: list[str] = []
    while len(seen) < lines:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"child exited early (rc={proc.wait()}) after {seen}"
            )
        if line.startswith("[exec"):
            seen.append(line.strip())
    return seen


def run_to_completion(cache: Path, *args: str) -> dict:
    proc = start_child(cache, *args)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0, out
    result_lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    assert result_lines, out
    return json.loads(result_lines[-1][len("RESULT "):])


class TestSigkillResume:
    def test_sigkilled_campaign_resumes_bit_identical(self, tmp_path):
        cache = tmp_path / "cache"
        proc = start_child(cache)
        read_until_progress(proc, 2)
        proc.kill()  # SIGKILL: no handlers, no atexit, no flush
        proc.wait(timeout=30)
        proc.stdout.close()

        # The journal survived the kill and is loadable.
        loaded = RunJournal(cache / "journal.jsonl").load()
        completed = sum(1 for e in loaded.values() if e.ok)
        assert 2 <= completed < TOTAL_CELLS

        resumed = run_to_completion(cache, "--resume")
        # Zero re-simulation of journaled cells. A cell killed after its
        # pack append but before its journal commit comes back as a hit.
        assert resumed["replays"] == completed
        assert (
            resumed["simulations"] + resumed["hits"] == TOTAL_CELLS - completed
        )
        assert resumed["statuses"].count("replayed") == completed

        # Bit-identical to an uninterrupted run.
        baseline = run_to_completion(tmp_path / "baseline")
        assert baseline["simulations"] == TOTAL_CELLS
        assert resumed["values"] == baseline["values"]

    def test_resume_of_resumed_run_is_all_replays(self, tmp_path):
        cache = tmp_path / "cache"
        proc = start_child(cache)
        read_until_progress(proc, 1)
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
        run_to_completion(cache, "--resume")
        again = run_to_completion(cache, "--resume")
        assert again["simulations"] == 0
        assert again["replays"] == TOTAL_CELLS


class TestSigintResume:
    def test_sigint_leaves_valid_journal_and_resumes_clean(self, tmp_path):
        cache = tmp_path / "cache"
        proc = start_child(cache)
        read_until_progress(proc, 1)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 130, out
        assert "INTERRUPTED" in out
        assert "--resume" in out  # the resume hint names the flag

        # The journal is valid — no torn or corrupt lines.
        fresh = RunJournal(cache / "journal.jsonl")
        loaded = fresh.load()
        assert fresh.corrupt_lines == 0
        completed = sum(1 for e in loaded.values() if e.ok)
        assert 1 <= completed < TOTAL_CELLS

        resumed = run_to_completion(cache, "--resume")
        assert resumed["simulations"] == TOTAL_CELLS - completed
        assert resumed["replays"] == completed
        assert resumed["statuses"].count("computed") == TOTAL_CELLS - completed


class TestSigtermResume:
    def test_sigterm_is_as_graceful_as_sigint(self, tmp_path):
        """Orchestrators (Slurm, Kubernetes, systemd) send SIGTERM, not
        SIGINT. The engine installs the same graceful handler for both:
        drain the in-flight cell, journal it, exit 130 with the resume
        hint."""
        cache = tmp_path / "cache"
        proc = start_child(cache)
        read_until_progress(proc, 1)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 130, out
        assert "INTERRUPTED" in out
        assert "--resume" in out

        fresh = RunJournal(cache / "journal.jsonl")
        loaded = fresh.load()
        assert fresh.corrupt_lines == 0
        completed = sum(1 for e in loaded.values() if e.ok)
        assert 1 <= completed < TOTAL_CELLS

        resumed = run_to_completion(cache, "--resume")
        assert resumed["replays"] == completed
        assert resumed["simulations"] == TOTAL_CELLS - completed
