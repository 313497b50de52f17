"""Child campaign for the crash/interrupt resume tests.

Runs a small serial campaign against a result cache (and so a journal,
``CACHE_DIR/journal.jsonl``) whose directory is given on the command
line, printing one progress line per finished cell (the parent test
kills the process after a couple of lines) and a final ``RESULT {json}``
line with the telemetry the parent asserts on.

Usage: python _resume_child.py CACHE_DIR [--resume]

Exit status 130 on SIGINT, mirroring the ``python -m repro`` CLI.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.errors import CampaignInterrupted
from repro.harness.exec import ExecutionEngine, ResultCache

CELLS = 4
CELL_SECONDS = 0.4


class SlowCell:
    """Deterministic slow cell: value carries floats that must survive
    the pack round-trip bit-identically."""

    def __init__(self, index: int):
        self.index = index

    @property
    def label(self) -> str:
        return f"slow[{self.index}]"

    def cache_token(self):
        return {"kind": "resume-child-slow", "index": self.index}

    def execute(self):
        time.sleep(CELL_SECONDS)
        return {"index": self.index, "third": (self.index + 1) / 3.0}

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
    resume = "--resume" in sys.argv[2:]
    engine = ExecutionEngine(
        jobs=1,
        cache=ResultCache(cache_dir),
        resume=resume,
        progress=lambda line: print(line, flush=True),
    )
    try:
        outcomes = engine.run([SlowCell(i) for i in range(CELLS)], campaign="resume-child")
    except CampaignInterrupted as exc:
        print(f"INTERRUPTED {exc}", flush=True)
        return 130
    result = {
        "simulations": engine.telemetry.simulations,
        "replays": engine.telemetry.journal_replays,
        "hits": engine.telemetry.cache_hits,
        "values": [o.value for o in outcomes],
        "statuses": [o.status for o in outcomes],
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
