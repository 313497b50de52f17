"""Layer ledger: split a traced run's wall time into per-layer self time.

A span's *self time* is the part of its interval that none of its child
spans covers. Children are found through the ``parent`` ids the trace
sink records; spans of forked workers inherit the supervisor's open span
as their parent, so one tree spans every process of a run.

When spans of several processes are exposed at the same instant (two
workers each inside a cell), that instant is split evenly between them.
For a serial run this is exactly "duration minus the union of the
children"; for a parallel run it keeps the ledger additive, so the
layer self-times sum to the root's wall time. Whatever the root itself
keeps is the residue: run time no layer span accounts for.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

#: Benchmark span name -> ledger layer. Spans the program records on its
#: own (``sim.run``, ``journal.flush`` ...) are not layers; they are
#: read for their attributes and are transparent to the tree.
LAYER_OF = {
    "bench.driver": "residue",
    "bench.import": "startup",
    "bench.build_engine": "startup",
    "bench.campaign": "campaign",
    "bench.engine.run": "engine",
    "bench.cell": "cell",
    "bench.cache.get": "cache",
    "bench.cache.put": "cache",
    "bench.journal.record": "journal",
    "bench.journal.flush": "journal",
    "bench.journal.load": "journal",
    "bench.store.populate": "store",
    "bench.workloads.fetch": "workloads",
    "bench.workloads.compose": "workloads",
    "bench.rmax": "rmax",
    "bench.sim.run": "sim",
    "bench.render": "report",
}

#: Every ledger layer, in the order they are reported.
LAYERS = (
    "startup",
    "campaign",
    "engine",
    "cell",
    "store",
    "workloads",
    "rmax",
    "sim",
    "schemes",
    "cache",
    "journal",
    "report",
)


def load_spans(path: str | Path) -> list[dict]:
    """Every closed span in a trace JSONL file (torn lines skipped)."""
    spans = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError:
        return spans
    with handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("kind") == "span":
                spans.append(record)
    return spans


def _kept_parents(spans: list[dict], kept: set[str]) -> dict[str, str | None]:
    """Each kept span's nearest kept ancestor (through transparent spans)."""
    parent_of = {s["id"]: s.get("parent") for s in spans}
    resolved: dict[str, str | None] = {}
    for span_id in kept:
        parent = parent_of.get(span_id)
        while parent is not None and parent not in kept:
            parent = parent_of.get(parent)
        resolved[span_id] = parent
    return resolved


def self_times(spans: list[dict], kept: set[str] | None = None) -> dict[str, float]:
    """Self time of each span in ``kept`` (default: all), by span id.

    Sweeps the span boundaries in time order. Between two boundaries,
    the *exposed* spans are those open with no open child; each gets an
    equal share of the interval.
    """
    if kept is None:
        kept = {s["id"] for s in spans}
    parents = _kept_parents(spans, kept)
    boundaries = []
    for s in spans:
        if s["id"] in kept:
            # Ends sort before starts at the same instant: a span that
            # closes exactly when its sibling opens never overlaps it.
            boundaries.append((s["t0"], 1, s["id"]))
            boundaries.append((s["t1"], 0, s["id"]))
    boundaries.sort()
    shares: dict[str, float] = defaultdict(float)
    open_spans: set[str] = set()
    open_children: dict[str, int] = defaultdict(int)
    previous = None
    for t, opening, span_id in boundaries:
        if previous is not None and t > previous and open_spans:
            exposed = [s for s in open_spans if open_children[s] == 0]
            share = (t - previous) / len(exposed)
            for s in exposed:
                shares[s] += share
        previous = t
        parent = parents[span_id]
        if opening:
            open_spans.add(span_id)
            if parent is not None:
                open_children[parent] += 1
        else:
            open_spans.discard(span_id)
            if parent is not None:
                open_children[parent] -= 1
    return {span_id: shares.get(span_id, 0.0) for span_id in kept}


def layer_ledger(spans: list[dict]) -> dict[str, float]:
    """Self seconds per layer, plus ``residue`` (the root's own time).

    Scheme hook time is measured inside ``bench.sim.run`` by cheap
    accumulators rather than per-call spans (hooks run every quantum);
    it arrives as the span's ``hook_s`` attribute and moves from the
    ``sim`` layer to ``schemes``.
    """
    bench = [s for s in spans if s.get("name") in LAYER_OF]
    kept = {s["id"] for s in bench}
    shares = self_times(spans, kept)
    ledger = {layer: 0.0 for layer in LAYERS}
    ledger["residue"] = 0.0
    for s in bench:
        layer = LAYER_OF[s["name"]]
        share = shares[s["id"]]
        if s["name"] == "bench.sim.run":
            hooks = float(s.get("attrs", {}).get("hook_s", 0.0))
            # The hooks' share of the span's exposed time: the span may
            # have been exposed for less than its duration (parallel).
            moved = hooks * share / s["dur"] if s["dur"] > 0 else 0.0
            ledger["schemes"] += moved
            share -= moved
        ledger[layer] += share
    return ledger


def root_wall(spans: list[dict]) -> float:
    """Duration of the benchmark's root span (the traced wall time)."""
    return sum(s["dur"] for s in spans if s.get("name") == "bench.driver")
