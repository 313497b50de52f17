"""One benchmark process: run a command the way ``python -m repro`` does.

    python child.py MODE COMMAND JOBS CACHE_DIR SEED RESULT_JSON T_SPAWN [traced]

MODE is ``setup`` (import, parse, build the engine, stop) or ``run``
(also run the campaign and print the rendered artifact to stdout).
COMMAND is ``table6`` or ``sensitivity``. It uses the CLI's own
``build_parser``/``build_engine`` and the same harness and rendering
calls as ``repro.__main__``, with the profile seeded by SEED. T_SPAWN is
the parent's ``time.monotonic()`` just before it started this process.

Timestamps (``time.monotonic()``, comparable across processes) and the
per-cell fingerprints go to RESULT_JSON; stdout carries only the
rendered artifact, byte for byte what the CLI prints. With ``traced``,
the span wrappers of :mod:`launcher` are installed after the import.
"""

from __future__ import annotations

import json
import sys
import time

import repro.__main__ as cli
import repro.harness.report as report
import repro.harness.sensitivity as sensitivity
import repro.harness.tables as tables
from repro.harness.exec import ExecutionEngine
from repro.harness.runconfig import PROFILES
from repro.obs import trace

from fingerprint import fingerprint

T_IMPORTED = time.monotonic()


def _capture_outcomes(sink: list) -> None:
    original = ExecutionEngine.run

    def run(self, cells, **kwargs):
        outcomes = original(self, cells, **kwargs)
        sink.extend(outcomes)
        return outcomes

    ExecutionEngine.run = run


def main(argv: list[str]) -> int:
    mode, command, jobs, cache_dir, seed, result_path, t_spawn = argv[:7]
    traced = argv[7:] == ["traced"]
    outcomes: list = []
    _capture_outcomes(outcomes)
    if traced:
        import launcher

        launcher.install()
    result: dict = {"t_spawn": float(t_spawn), "t_imported": T_IMPORTED}
    with trace.span("bench.driver"):
        args = cli.build_parser().parse_args(
            ["--profile", "scaled", "--jobs", jobs, "--cache-dir", cache_dir,
             command]
        )
        engine = cli.build_engine(args)
        result["t_engine"] = time.monotonic()
        if mode == "run":
            profile = PROFILES[args.profile].with_seed(int(seed))
            if command == "table6":
                text = report.render_table6(tables.table6(profile, engine=engine))
            else:
                curves = sensitivity.run_sensitivity_study(
                    profile=profile, engine=engine
                )
                text = report.render_sensitivity(curves)
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
    result["t_out"] = time.monotonic()
    if mode == "run":
        snap = engine.telemetry.snapshot()
        result["telemetry"] = {
            k: v for k, v in snap.items() if isinstance(v, (int, float))
        }
        result["journal_flushes"] = (
            engine.journal.flushes if engine.journal is not None else 0
        )
        result["cell_seconds"] = [
            r.wall_seconds for r in engine.telemetry.records
            if r.status == "computed"
        ]
        result["fingerprints"] = {
            o.cell.label: fingerprint(o.cell.encode(o.value))
            for o in outcomes
            if o.ok
        }
        result["cells"] = len(outcomes)
        result["failed"] = sum(1 for o in outcomes if not o.ok)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
