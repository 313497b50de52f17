"""Child campaign for the group-commit crash-window tests.

Runs a small serial campaign against a result cache (journal at
``CACHE_DIR/journal.jsonl``) whose journal group-commits three entries
per fsync, linger effectively disabled, so the parent can kill the
process in the window between a batch's buffered entries and their
fsync — via the ``journal-batch-crash=<n>`` fault, which hard-exits at
the start of flush number ``n`` while the batch is still in user
space. Progress lines are acks: the engine prints one only after the
cell's record (and its packed value) is fsync'd, so the parent can
assert that no lost cell was ever acked.

Usage: python _groupcommit_child.py CACHE_DIR [FAULT_SPEC] [--resume]

Prints one progress line per acked cell and, if the campaign survives,
a final ``RESULT {json}`` line with the telemetry the parent asserts on.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.harness import journal
from repro.harness.exec import ExecutionEngine, ResultCache
from repro.harness.faults import parse_fault_spec

CELLS = 6
BATCH_ENTRIES = 3


class TrivialCell:
    """Instant cell whose value carries floats that must survive the
    pack round-trip bit-identically."""

    def __init__(self, index: int):
        self.index = index

    @property
    def label(self) -> str:
        return f"trivial[{self.index}]"

    def cache_token(self):
        return {"kind": "groupcommit-child", "index": self.index}

    def execute(self):
        return {"index": self.index, "seventh": (self.index + 1) / 7.0}

    @staticmethod
    def cycles_of(value):
        return None

    @staticmethod
    def encode(value):
        return value

    @staticmethod
    def decode(payload):
        return payload


def main() -> int:
    cache_dir = Path(sys.argv[1])
    rest = sys.argv[2:]
    resume = "--resume" in rest
    spec = next((arg for arg in rest if not arg.startswith("--")), None)
    faults = parse_fault_spec(spec) if spec else None
    journal.DEFAULT_BATCH_ENTRIES = BATCH_ENTRIES
    journal.DEFAULT_LINGER_SECONDS = 3600.0
    engine = ExecutionEngine(
        jobs=1,
        cache=ResultCache(cache_dir),
        resume=resume,
        faults=faults,
        progress=lambda line: print(line, flush=True),
    )
    outcomes = engine.run(
        [TrivialCell(i) for i in range(CELLS)], campaign="groupcommit-child"
    )
    result = {
        "simulations": engine.telemetry.simulations,
        "replays": engine.telemetry.journal_replays,
        "hits": engine.telemetry.cache_hits,
        "snapshot": {
            k: v
            for k, v in engine.telemetry.snapshot().items()
            if k in ("total", "computed", "hit", "replayed", "failed")
        },
        "values": [o.value for o in outcomes],
        "statuses": [o.status for o in outcomes],
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
