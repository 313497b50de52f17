"""Tests of the benchmark's own pieces: ledger, fingerprints, percentiles.

    python3 -m pytest perfbench/tests -q
"""

import math

import pytest

import fingerprint
import ledger
import run


def span(name, span_id, parent, t0, t1, pid=1, **attrs):
    return {"kind": "span", "name": name, "id": span_id, "parent": parent,
            "t0": t0, "t1": t1, "dur": t1 - t0, "pid": pid, "attrs": attrs}


def test_self_time_of_nested_spans_is_duration_minus_children():
    spans = [
        span("root", "r", None, 0.0, 10.0),
        span("a", "a", "r", 1.0, 4.0),
        span("a1", "a1", "a", 2.0, 3.0),
        span("b", "b", "r", 5.0, 9.0),
    ]
    assert ledger.self_times(spans) == pytest.approx(
        {"r": 3.0, "a": 2.0, "a1": 1.0, "b": 4.0}
    )


def test_self_time_across_two_worker_pids_splits_overlap_and_sums_to_wall():
    spans = [
        span("bench.driver", "1-1", None, 0.0, 10.0, pid=1),
        # A program span in worker 2: transparent, its child re-parents.
        span("cell.compute", "2-5", "1-1", 1.0, 5.0, pid=2),
        span("bench.sim.run", "2-6", "2-5", 1.0, 5.0, pid=2, hook_s=1.0),
        span("bench.sim.run", "3-5", "1-1", 3.0, 7.0, pid=3, hook_s=0.0),
    ]
    kept = {"1-1", "2-6", "3-5"}
    shares = ledger.self_times(spans, kept)
    # [1,3] worker 2 alone, [3,5] both workers, [5,7] worker 3 alone.
    assert shares == pytest.approx({"1-1": 4.0, "2-6": 3.0, "3-5": 3.0})
    layers = ledger.layer_ledger(spans)
    assert layers["residue"] == pytest.approx(4.0)
    # Worker 2's sim span kept 3 of its 4 s; its hook second moves to
    # the schemes layer in that proportion.
    assert layers["schemes"] == pytest.approx(0.75)
    assert layers["sim"] == pytest.approx(5.25)
    assert sum(layers.values()) == pytest.approx(ledger.root_wall(spans))


def test_fingerprint_check_flags_a_one_ulp_change():
    value = {"ipc": 0.1921869594741612, "partition_quartiles": [64, 128.5]}
    golden = {"cell": fingerprint.fingerprint(value)}
    same = {"cell": fingerprint.fingerprint(dict(value))}
    assert fingerprint.mismatches(golden, same) == []
    nudged = dict(value, ipc=math.nextafter(value["ipc"], math.inf))
    assert fingerprint.mismatches(
        golden, {"cell": fingerprint.fingerprint(nudged)}
    ) == ["cell"]


def test_fingerprint_check_flags_missing_and_extra_cells():
    golden = {"a": "1", "b": "2"}
    assert fingerprint.mismatches(golden, {"a": "1", "c": "3"}) == ["b", "c"]


def test_percentile_rule_reports_no_p90_on_twelve_samples():
    assert run.tail_percentile([float(i) for i in range(12)], 0.9) is None
    assert run.tail_percentile([float(i) for i in range(100)], 0.9) is None
    assert run.tail_percentile([float(i) for i in range(324)], 0.9) == 291.0


def test_warm_state_is_kept_per_version_of_the_code(tmp_path, monkeypatch):
    module = tmp_path / "src" / "repro" / "core.py"
    module.parent.mkdir(parents=True)
    module.write_text("A = 1\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "WORK", tmp_path / ".perfbench")
    try:
        run.state_root.cache_clear()
        first = run.state_root()
        first.mkdir(parents=True)
        # Bytecode the runs leave behind does not change the version.
        (module.parent / "__pycache__").mkdir()
        (module.parent / "__pycache__" / "core.pyc").write_bytes(b"\0")
        run.state_root.cache_clear()
        assert run.state_root() == first
        module.write_text("A = 2\n")
        run.state_root.cache_clear()
        assert run.state_root() != first
        assert not first.exists()
    finally:
        run.state_root.cache_clear()
