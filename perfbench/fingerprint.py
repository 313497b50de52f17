"""Per-cell result fingerprints and the golden comparison.

A fingerprint is the canonical JSON of a cell's encoded result (the
same encoding the result cache stores): for a Table 6 cell the IPC,
leakage bits, assessments, visible actions and partition quartiles of
every workload plus the total cycles; for a Figure 11 cell its IPC.
``json`` writes floats with ``repr``, so equal fingerprints mean
bit-identical results.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "goldens.json"

#: The profile seed every campaign runs with: the paper profile's, the
#: one the goldens hold. The benchmark's ``--seed`` does not change it,
#: so every run of a workload simulates the same campaign.
PROFILE_SEED = 2023


def fingerprint(encoded) -> str:
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def load_goldens(path: Path = GOLDEN_PATH) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError:
        return {"seeds": {}}


def mismatches(golden: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Labels whose fingerprint differs from, or is missing in, ``actual``.

    Cells the golden set does not know are mismatches too: a run must
    produce exactly the golden cells.
    """
    return sorted(
        label
        for label in set(golden) | set(actual)
        if golden.get(label) != actual.get(label)
    )
