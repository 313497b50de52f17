"""End-to-end benchmark of the Untangle reproduction.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``table6-cold``   — ``table6`` at ``--jobs 2`` from an empty cache;
* ``fig11-cold``    — ``sensitivity`` (Figure 11) at ``--jobs 1`` from an
  empty cache;
* ``warm-rerender`` — both commands again, each against a byte-identical
  copy of its own fully populated cache.

Every campaign runs the paper profile (seed 2023, the seed the goldens
hold); ``--seed`` does not change what is simulated.

Every campaign runs in a child process (:mod:`child`) with every ambient
``REPRO_*`` variable removed and all caches under ``.perfbench/`` in the
checkout. Untraced runs (``--trace 0``) report the end-to-end metrics;
``--trace 1`` reruns the workload with span wrappers (:mod:`launcher`)
and reports the per-layer ledger (:mod:`ledger`). Each run checks every
cell against the golden fingerprints and the rendered stdout against the
golden output. The last stdout line is the result object; the line
before it holds the host facts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import fingerprint
import ledger

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
WORK = ROOT / ".perfbench"

#: Workload -> the (command, jobs) campaigns one repetition runs.
WORKLOADS = {
    "table6-cold": (("table6", 2),),
    "fig11-cold": (("sensitivity", 1),),
    "warm-rerender": (("table6", 2), ("sensitivity", 1)),
}
WARM = "warm-rerender"

#: Untraced repetitions a run makes at least. One ~20 s Figure 11
#: campaign is short enough for the host's speed to drift under it
#: from run to run; the median of two is steadier. The other workloads
#: fill ``--seconds`` with one repetition or with many.
MIN_REPS = {"fig11-cold": 2}

#: Set-up children per run; ``setup_s`` is their median. Half run before
#: the first repetition, one after each repetition, the rest at the end.
SETUP_SAMPLES = 10
#: A child that runs longer than this is killed and the run fails.
CHILD_DEADLINE_S = 170.0

#: Per-layer counts that must repeat exactly; the goldens hold their
#: values.
DETERMINISTIC_COUNTS = ("engine.cells", "sim.cycles", "sim.quanta",
                        "schemes.assessments", "schemes.resizes")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def child_env(trace_path: Path | None = None, kernel: str | None = None) -> dict:
    """The environment without ambient ``REPRO_*``; ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if trace_path is not None:
        env["REPRO_TRACE"] = str(trace_path)
    if kernel is not None:
        env["REPRO_SIM_KERNEL"] = kernel
    return env


def _pack_bytes(cache: Path) -> int:
    return sum(p.stat().st_size for p in (cache / "packs").glob("*.pack"))


def spawn(mode: str, command: str, jobs: int, cache: Path, scratch: Path,
          trace_path: Path | None = None, kernel: str | None = None) -> dict:
    """Run one child to completion; its timings, rusage and outputs."""
    result_path = scratch / "result.json"
    stdout_path = scratch / "stdout.txt"
    stderr_path = scratch / "stderr.txt"
    for path in (result_path, stdout_path):
        path.unlink(missing_ok=True)
    journal = cache / "journal.jsonl"
    journal_before = journal.stat().st_size if journal.exists() else 0
    packs_before = _pack_bytes(cache)
    argv = [mode, command, str(jobs), str(cache), str(fingerprint.PROFILE_SEED),
            str(result_path)]
    argv_tail = ["traced"] if trace_path is not None else []
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *argv, repr(t_spawn), *argv_tail],
            stdout=out,
            stderr=err,
            env=child_env(trace_path, kernel),
            cwd=scratch,
            start_new_session=True,
        )
        status, usage = _reap(proc, t_spawn + CHILD_DEADLINE_S)
    if status != 0 or not result_path.exists():
        tail = stderr_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"{mode} {command} child exited {status}:\n{tail}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    return {
        "pid": proc.pid,
        "result": result,
        "stdout": stdout_path.read_text(),
        "wall_s": result["t_out"] - result["t_spawn"],
        "setup_s": result["t_engine"] - result["t_spawn"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "journal_bytes": (journal.stat().st_size if journal.exists() else 0)
        - journal_before,
        "pack_bytes": _pack_bytes(cache) - packs_before,
    }


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for ``proc`` with ``wait4`` (rusage covers its whole tree:
    every worker it waited for) and make sure its session is gone."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                _kill_session(proc.pid)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise BenchError(f"child exceeded {CHILD_DEADLINE_S:.0f}s")
            time.sleep(0.01)
    finally:
        _kill_session(proc.pid)


def _kill_session(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
class Checker:
    """Compares every campaign against the goldens of the profile seed."""

    def __init__(self):
        seed = str(fingerprint.PROFILE_SEED)
        self.golden = fingerprint.load_goldens()["seeds"].get(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        if self.golden is None:
            self.problems.append(f"no goldens for profile seed {seed}")

    def campaign(self, command: str, sample: dict, warm: bool) -> None:
        result = sample["result"]
        golden = (self.golden or {}).get(command, {})
        cells = golden.get("cells", {})
        self.attempted += max(result["cells"], len(cells))
        bad = fingerprint.mismatches(cells, result["fingerprints"])
        self.failed += max(len(bad), result["failed"])
        if bad:
            self.problems.append(f"{command}: {len(bad)} cells differ, e.g. {bad[0]}")
        if sample["stdout"] != golden.get("stdout"):
            self.problems.append(f"{command}: rendered output differs from golden")
        if warm and result["telemetry"]["computed"]:
            self.problems.append(
                f"{command}: warm run simulated {result['telemetry']['computed']} cells"
            )

    def counts(self, workload: str, counts: dict) -> None:
        """Deterministic counts of a traced repetition must repeat exactly.

        A warm repetition simulates nothing: only its cells count.
        """
        expected = dict.fromkeys(DETERMINISTIC_COUNTS, 0)
        for command, _ in WORKLOADS[workload]:
            golden = (self.golden or {}).get(command, {}).get("counts", {})
            for name in expected:
                if workload != WARM or name == "engine.cells":
                    expected[name] += golden.get(name, 0)
        for name, value in expected.items():
            if counts.get(name) != value:
                self.problems.append(
                    f"{name} = {counts.get(name)}, expected {value}"
                )

    @property
    def correct(self) -> bool:
        return not self.problems


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def program_digest() -> str:
    """Digest of the code a campaign runs: every file under ``src/``
    except bytecode, and the benchmark's child."""
    digest = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files) + [CHILD]:
        digest.update(str(path).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@functools.cache
def state_root() -> Path:
    """``.perfbench/state/<program digest>``: populated caches written by
    the code under test. State another version of the code wrote is
    deleted, so a warm run never reads a format it did not write."""
    root = WORK / "state" / program_digest()
    for other in (WORK / "state").glob("*"):
        if other != root:
            shutil.rmtree(other, ignore_errors=True)
    return root


def state_dir(command: str) -> Path:
    return state_root() / command


def populated_cache(command: str, jobs: int, scratch: Path,
                    checker: Checker) -> Path:
    """The fully populated cache of one cold campaign, made once per
    version of the code (see :func:`state_root`) and never written to
    afterwards: warm repetitions run against copies of it."""
    state = state_dir(command)
    if not state.is_dir():
        staging = fresh_dir(scratch, "populate")
        sample = spawn("run", command, jobs, staging / "cache", staging)
        checker.campaign(command, sample, warm=False)
        if not checker.correct:
            raise BenchError("; ".join(checker.problems))
        keep_state(staging, state)
    return state / "cache"


def keep_state(rep: Path, state: Path) -> None:
    """Publish a cold run's final cache as ``state`` (untimed, atomic)."""
    if state.is_dir():
        return
    staging = state.parent / f".staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    shutil.copytree(rep / "cache", staging / "cache")
    state.parent.mkdir(parents=True, exist_ok=True)
    try:
        os.replace(staging, state)
    except OSError:
        shutil.rmtree(staging, ignore_errors=True)


def repetition(workload: str, scratch: Path, checker: Checker,
               traced: bool = False) -> dict:
    """One repetition of the workload: its campaigns, summed."""
    warm = workload == WARM
    samples = []
    for command, jobs in WORKLOADS[workload]:
        rep = fresh_dir(scratch, f"rep-{command}")
        if warm:
            source = populated_cache(command, jobs, scratch, checker)
            shutil.copytree(source, rep / "cache")
        trace_path = rep / "trace.jsonl" if traced else None
        sample = spawn("run", command, jobs, rep / "cache", rep, trace_path)
        checker.campaign(command, sample, warm)
        if not warm and not traced:
            keep_state(rep, state_dir(command))
        if traced:
            sample["spans"] = ledger.load_spans(trace_path)
        sample["jobs"] = jobs
        samples.append(sample)
    return {
        "wall_s": sum(s["wall_s"] for s in samples),
        "cpu_s": sum(s["cpu_s"] for s in samples),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
        "samples": samples,
    }


def setup_times(workload: str, scratch: Path, checker: Checker,
                samples: int) -> list[float]:
    """Interpreter start until the engine is built, on the workload's
    starting cache state, summed over its campaigns; one value per
    sample. Building the engine writes nothing into a populated cache,
    so the warm samples share one copy of it."""
    caches = []
    for command, jobs in WORKLOADS[workload]:
        rep = fresh_dir(scratch, f"setup-{command}")
        if workload == WARM:
            source = populated_cache(command, jobs, scratch, checker)
            shutil.copytree(source, rep / "cache")
        caches.append((command, jobs, rep))
    return [
        sum(spawn("setup", command, jobs, rep / "cache", rep)["setup_s"]
            for command, jobs, rep in caches)
        for _ in range(samples)
    ]


def repeat(workload: str, seconds: float, scratch: Path, checker: Checker,
           min_reps: int = 1, between=None) -> list[dict]:
    """Untraced repetitions until they have taken ``seconds`` (at least
    ``min_reps``), calling ``between()`` after each."""
    reps = []
    spent = 0.0
    while len(reps) < min_reps or spent < seconds:
        start = time.monotonic()
        reps.append(repetition(workload, scratch, checker))
        spent += time.monotonic() - start
        if between is not None:
            between()
    return reps


# ----------------------------------------------------------------------
# Per-layer metrics of a traced repetition
# ----------------------------------------------------------------------
def tail_percentile(samples: list[float], q: float) -> float | None:
    """The ``q`` quantile, or ``None`` unless at least ten samples lie
    beyond it (fewer make the tail a guess)."""
    values = sorted(samples)
    index = int(q * len(values))
    if len(values) - index - 1 < 10:
        return None
    return values[index]


def _rooted(sample: dict) -> list[dict]:
    """The child's spans, its root stretched back to interpreter start
    and the import (before any span could open) added under it."""
    result = sample["result"]
    spans = []
    for span in sample["spans"]:
        if span.get("name") == "bench.driver" and span.get("pid") == sample["pid"]:
            span = dict(span, t0=result["t_spawn"])
            span["dur"] = span["t1"] - span["t0"]
            spans.append(span)
            spans.append({
                "name": "bench.import", "id": f"import-{sample['pid']}",
                "parent": span["id"], "pid": sample["pid"],
                "t0": result["t_spawn"], "t1": result["t_imported"],
                "dur": result["t_imported"] - result["t_spawn"], "attrs": {},
            })
        else:
            spans.append(span)
    return spans


#: Ledger layers reported under the name of their layer's metrics rather
#: than as ``ledger.<layer>_s``.
LEDGER_NAMES = {"engine": "engine.self_s", "sim": "sim.self_s",
                "residue": "trace.residue_s"}


def layer_metrics(traced: dict) -> dict[str, float]:
    m: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        m[name] = m.get(name, 0) + value

    cell_seconds: list[float] = []
    busy = 0.0
    for sample in traced["samples"]:
        spans = _rooted(sample)
        result = sample["result"]
        tele = result["telemetry"]
        by_name: dict[str, list[dict]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)

        def dur(name: str) -> float:
            return sum(s["dur"] for s in by_name.get(name, []))

        def count(name: str) -> int:
            return len(by_name.get(name, []))

        def attr(name: str, key: str) -> float:
            return sum(s["attrs"].get(key, 0) for s in by_name.get(name, []))

        for layer, seconds in ledger.layer_ledger(spans).items():
            add(LEDGER_NAMES.get(layer, f"ledger.{layer}_s"), seconds)
        add("trace.wall_s", ledger.root_wall(spans))
        add("startup.import_s", dur("bench.import"))
        add("startup.build_engine_s", dur("bench.build_engine"))
        add("engine.run_s", dur("bench.engine.run"))
        busy += dur("bench.engine.run") * sample["jobs"]
        add("engine.cells", tele["total"])
        add("engine.computed", tele["computed"])
        add("engine.hits", tele["hit"])
        add("engine.failed", tele["failed"])
        add("engine.steals", tele["steals"])
        cell_seconds.extend(result["cell_seconds"])
        gets = by_name.get("bench.cache.get", [])
        add("cache.gets", len(gets))
        add("cache.hits", sum(1 for s in gets if s["attrs"].get("hit")))
        add("cache.get_s", dur("bench.cache.get"))
        add("cache.puts", count("bench.cache.put"))
        add("cache.put_s", dur("bench.cache.put"))
        add("cache.bytes_written", sample["pack_bytes"])
        add("journal.records", count("bench.journal.record"))
        add("journal.flushes", result["journal_flushes"])
        add("journal.flush_s", dur("journal.flush"))
        add("journal.load_s", dur("bench.journal.load"))
        add("journal.bytes_appended", sample["journal_bytes"])
        add("store.populate_s", dur("bench.store.populate"))
        add("store.trace_hits", tele["store_trace_hits"])
        add("store.trace_misses", tele["store_trace_misses"])
        add("store.rmax_misses", tele["store_rmax_misses"])
        add("workloads.builds", count("bench.workloads.compose"))
        add("workloads.build_s", dur("bench.workloads.compose"))
        add("rmax.solves", tele["rmax_solves"])
        add("rmax.solve_s", dur("bench.rmax"))
        add("sim.runs", count("bench.sim.run"))
        add("sim.run_s", dur("bench.sim.run"))
        add("sim.cycles", attr("sim.run", "total_cycles"))
        add("sim.quanta", attr("sim.run", "quanta"))
        add("sim.monitor_observed", attr("sim.run", "monitor_observed"))
        add("schemes.assessments", attr("sim.run", "assessments"))
        add("schemes.resizes", attr("sim.run", "resizes"))
        add("schemes.hook_s", attr("bench.sim.run", "hook_s"))
        add("report.render_s", dur("bench.render"))

    hits = m.pop("cache.hits")
    m["cache.hit_ratio"] = hits / m["cache.gets"] if m["cache.gets"] else 0.0
    m["sim.cycles_per_s"] = m["sim.cycles"] / m["sim.run_s"] if m["sim.run_s"] else 0.0
    m["engine.parallel_eff"] = sum(cell_seconds) / busy if busy else 0.0
    m["engine.cell_samples"] = len(cell_seconds)
    # -1 marks a percentile not reported (see tail_percentile).
    p50 = statistics.median(cell_seconds) if cell_seconds else None
    p90 = tail_percentile(cell_seconds, 0.9)
    m["engine.cell_p50_s"] = -1.0 if p50 is None else p50
    m["engine.cell_p90_s"] = -1.0 if p90 is None else p90
    m["trace.residue_frac"] = (
        m["trace.residue_s"] / m["trace.wall_s"] if m["trace.wall_s"] else 0.0
    )
    return m


#: Per-layer unit by name suffix, first match wins; anything else counts.
UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_frac", "ratio"), ("_ratio", "ratio"),
         ("_eff", "ratio"), ("bytes_written", "bytes"), ("bytes_appended", "bytes"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


# ----------------------------------------------------------------------
def measure(args: argparse.Namespace, scratch: Path, checker: Checker) -> dict:
    workload = args.workload
    if not args.trace:
        # Set-up samples before, between and after the repetitions, so
        # their median spans the run's whole stretch of host time.
        setups = setup_times(workload, scratch, checker,
                             SETUP_SAMPLES // 2)

        def between() -> None:
            if len(setups) < SETUP_SAMPLES:
                setups.extend(setup_times(workload, scratch, checker, 1))

        reps = repeat(workload, args.seconds, scratch, checker,
                      MIN_REPS.get(workload, 1), between)
        setups += setup_times(workload, scratch, checker,
                              SETUP_SAMPLES - len(setups))
        print("repetition wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in reps),
              file=sys.stderr)
        return {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
    # Traced: untraced repetitions for the overhead baseline, then as
    # many traced ones. The per-layer metrics all come from the traced
    # repetition of median wall time, so its ledger sums to its wall.
    plain = repeat(workload, args.seconds / 2, scratch, checker)
    traced = [repetition(workload, scratch, checker, traced=True)
              for _ in plain]
    per_rep = sorted((layer_metrics(r) for r in traced),
                     key=lambda m: m["trace.wall_s"])
    for rep in per_rep:
        checker.counts(workload, rep)
    metrics = per_rep[len(per_rep) // 2]
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    calib = [calibrate(), calibrate()]
    scratch = WORK / f"run-{os.getpid()}"
    checker = Checker()
    try:
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        # Untimed: compile the package's bytecode once per checkout.
        subprocess.run([sys.executable, "-c", "import repro.__main__"],
                       env=child_env(), cwd=scratch, check=True)
        metrics = measure(args, scratch, checker)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    calib += [calibrate(), calibrate()]
    if args.trace:
        metrics["host.calib_s"] = statistics.median(calib)
        metrics["check.fail_ratio"] = checker.failed / max(checker.attempted, 1)
    host = dict(host_facts(), workload=args.workload, seed=args.seed,
                profile_seed=fingerprint.PROFILE_SEED, calib_s=calib,
                loadavg_before=load_before, loadavg_after=os.getloadavg())
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value,
                   "unit": END_TO_END_UNITS.get(name) or unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
