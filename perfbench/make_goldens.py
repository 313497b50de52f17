"""Regenerate ``golden/goldens.json`` with the reference kernel.

    python3 perfbench/make_goldens.py

For the profile seed :data:`fingerprint.PROFILE_SEED` and both
commands, runs the benchmark's child once with
``REPRO_SIM_KERNEL=reference`` and tracing on, and stores each cell's
fingerprint, the rendered stdout and the deterministic counts
(``engine.cells``, ``sim.cycles``, ``sim.quanta``,
``schemes.assessments``, ``schemes.resizes``). Then it runs
``python -m repro --profile scaled <command>`` with the default kernel
and fails unless its stdout equals the golden stdout byte for byte: the
benchmark's driver runs what users run.

Takes about two minutes. Regenerate only when the science changes on
purpose, and say why where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import fingerprint
import ledger
import run

def golden_campaign(command: str, jobs: int) -> dict:
    rep = run.fresh_dir(run.WORK / "goldens", command)
    trace_path = rep / "trace.jsonl"
    sample = run.spawn("run", command, jobs, rep / "cache", rep, trace_path,
                       kernel="reference")
    if sample["result"]["failed"]:
        raise run.BenchError(f"{command}: cells failed")
    sample["spans"] = ledger.load_spans(trace_path)
    sample["jobs"] = jobs
    metrics = run.layer_metrics({"samples": [sample]})
    return {
        "cells": sample["result"]["fingerprints"],
        "stdout": sample["stdout"],
        "counts": {name: metrics[name] for name in run.DETERMINISTIC_COUNTS},
    }


def cli_stdout(command: str, jobs: int) -> str:
    rep = run.fresh_dir(run.WORK / "goldens", f"cli-{command}")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "--profile", "scaled", "--jobs",
         str(jobs), "--cache-dir", str(rep / "cache"), command],
        env=run.child_env(), cwd=rep, capture_output=True, text=True,
        check=True,
    )
    return completed.stdout


def main() -> int:
    commands = run.WORKLOADS[run.WARM]
    goldens = {"format": 1, "kernel": "reference", "seeds": {}}
    seed = fingerprint.PROFILE_SEED
    try:
        paper = goldens["seeds"][str(seed)] = {
            command: golden_campaign(command, jobs)
            for command, jobs in commands
        }
        print(f"seed {seed}: done", file=sys.stderr)
        for command, jobs in commands:
            if cli_stdout(command, jobs) != paper[command]["stdout"]:
                print(f"error: python -m repro {command} output differs "
                      "from the benchmark driver's", file=sys.stderr)
                return 1
            print(f"cli {command}: identical to the driver", file=sys.stderr)
    finally:
        shutil.rmtree(run.WORK / "goldens", ignore_errors=True)
    fingerprint.GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(fingerprint.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
