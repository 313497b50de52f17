"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
from operator import attrgetter

import pytest

from repro.__main__ import build_engine, build_parser, main
from repro.errors import ConfigurationError
from repro.harness.exec import ENGINE_SETTINGS, ExecutionEngine, engine_from_env
from repro.harness.profiling import PROFILE_DIR_ENV, PROFILE_ENV
from repro.obs.trace import TRACE_ENV, tracing_enabled


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mix_requires_valid_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mix", "17"])

    def test_profile_choices(self):
        args = build_parser().parse_args(["--profile", "test", "table6"])
        assert args.profile == "test"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--profile", "huge", "table6"])

    def test_rmax_capacity(self):
        args = build_parser().parse_args(["rmax", "--capacity", "4"])
        assert args.capacity == 4

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["--trace", "t.jsonl", "--metrics-out", "m.prom", "mix", "1"]
        )
        assert args.trace == "t.jsonl"
        assert args.metrics_out == "m.prom"

    def test_trace_summarize_takes_a_path(self):
        args = build_parser().parse_args(["trace-summarize", "t.jsonl"])
        assert args.command == "trace-summarize"
        assert args.trace_path == "t.jsonl"


class TestExecution:
    def test_rmax_command(self, capsys):
        assert main(["--profile", "test", "rmax", "--capacity", "2"]) == 0
        out = capsys.readouterr().out
        assert "R_max table" in out
        assert "m=  0" in out

    def test_mix_command_small_with_observability(
        self, capsys, monkeypatch, tmp_path
    ):
        """One traced campaign end to end: figures on stdout, a parseable
        trace JSONL, and a metrics textfile + JSON snapshot on exit."""
        monkeypatch.setenv(TRACE_ENV, "0")  # restored after the test
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "--profile",
                    "test",
                    "--no-cache",
                    "--trace",
                    str(trace),
                    "--metrics-out",
                    str(metrics),
                    "mix",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Mix 1" in out
        assert "Geo. mean" in out
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert {"engine.run", "cell.compute", "sim.run"} <= names
        prom = metrics.read_text()
        assert "repro_exec_cells_total" in prom
        assert "repro_sim_runs_total" in prom
        snapshot = json.loads((tmp_path / "metrics.prom.json").read_text())
        assert "repro_exec_cells_total" in snapshot

    def test_trace_summarize_command(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            json.dumps(
                {
                    "kind": "span",
                    "name": "cell.compute",
                    "t0": 0.0,
                    "t1": 2.0,
                    "dur": 2.0,
                    "wall": 0.0,
                    "pid": 1,
                    "id": "1-1",
                    "parent": None,
                    "attrs": {},
                }
            )
            + "\n"
        )
        assert main(["trace-summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "cell.compute" in out


class TestOutputsBesideCacheDir:
    """``REPRO_TRACE=1`` and ``--cprofile`` write beside the cache dir,
    whether ``--cache-dir`` or ``REPRO_CACHE_DIR`` names it."""

    def run_mix(self, monkeypatch, tmp_path, argv):
        # setenv, not delenv: monkeypatch then restores what main() sets.
        monkeypatch.setenv(PROFILE_ENV, "")
        monkeypatch.setenv(PROFILE_DIR_ENV, "")
        monkeypatch.setenv(TRACE_ENV, "0")
        tracing_enabled()  # drop any tracer a previous test left open
        monkeypatch.setenv(TRACE_ENV, "1")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        argv = ["--profile", "test", "--cprofile", "all", *argv]
        assert main([*argv, "mix", "1", "--schemes", "static"]) == 0
        monkeypatch.setenv(TRACE_ENV, "0")
        tracing_enabled()  # close the trace file
        assert list(cwd.iterdir()) == []

    def assert_outputs_in(self, directory):
        assert (directory / "trace.jsonl").stat().st_size > 0
        assert len(list(directory.glob("profile-*.pstats"))) == 1

    def test_cache_dir_flag(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        cache = tmp_path / "flag" / "cache"
        self.run_mix(monkeypatch, tmp_path, ["--cache-dir", str(cache)])
        self.assert_outputs_in(tmp_path / "flag")

    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env" / "cache"))
        self.run_mix(monkeypatch, tmp_path, [])
        self.assert_outputs_in(tmp_path / "env")


class TestEnvironmentRestored:
    def test_cprofile_and_trace_do_not_outlive_the_command(
        self, monkeypatch, tmp_path
    ):
        """``--cprofile`` and ``--trace`` switch profiling and tracing on
        through the environment for the command's duration only."""
        from tests.harness.test_exec import SleepCell

        monkeypatch.delenv(PROFILE_ENV, raising=False)
        monkeypatch.delenv(PROFILE_DIR_ENV, raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv(TRACE_ENV, raising=False)
        tracing_enabled()  # drop any tracer a previous test left open
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        trace = tmp_path / "trace.jsonl"
        before = dict(os.environ)
        argv = [
            "--profile", "test", "--cache-dir", str(tmp_path / "cache"),
            "--cprofile", "all", "--trace", str(trace),
            "mix", "1", "--schemes", "static",
        ]
        assert main(argv) == 0
        assert dict(os.environ) == before
        assert not tracing_enabled()  # also closes the trace file
        profiles = sorted(tmp_path.rglob("profile-*.pstats"))
        assert len(profiles) == 1
        traced = trace.read_bytes()
        assert traced

        # A later in-process engine neither profiles nor traces.
        ExecutionEngine(jobs=1).run([SleepCell(0.01)])
        assert sorted(tmp_path.rglob("profile-*.pstats")) == profiles
        assert trace.read_bytes() == traced
        assert list(cwd.iterdir()) == []


class TestSchemesFlag:
    def test_parser_accepts_registered_names(self):
        args = build_parser().parse_args(
            ["mix", "1", "--schemes", "static", "threshold"]
        )
        assert args.schemes == ["static", "threshold"]

    def test_parser_rejects_unregistered_names(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mix", "1", "--schemes", "nosuch"])

    def test_ad_hoc_scheme_set_renders_plain_table(self, capsys):
        assert (
            main(
                [
                    "--profile",
                    "test",
                    "--no-cache",
                    "mix",
                    "1",
                    "--schemes",
                    "static",
                    "threshold",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Mix 1: static, threshold" in out
        assert "Geomean speedup over static" in out
        # The figure renderer (which needs time/untangle columns) must
        # not have been used.
        assert "Maintain fraction" not in out


class TestScenarioCommand:
    def test_runs_a_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "tiny.toml"
        spec.write_text(
            "[scenario]\n"
            'name = "tiny"\n'
            'profile = "test"\n'
            'schemes = ["static"]\n'
            "[[scenario.workloads]]\n"
            'label = "pair"\n'
            'pairs = [["gcc_0", "RSA-2048"]]\n'
        )
        assert main(["--no-cache", "scenario", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "Scenario 'tiny'" in out
        assert "scenario[tiny]" in out

    def test_bad_spec_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "bad.toml"
        spec.write_text("[scenario]\nname = 'x'\nmixes = [1]\nschemes = ['nosuch']\n")
        assert main(["--no-cache", "scenario", str(spec)]) == 2
        assert "unknown scheme" in capsys.readouterr().err


class TestConformCommand:
    def test_quick_battery_for_one_scheme(self, capsys):
        assert main(["conform", "static", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "static  (profile: test)" in out
        assert "[PASS] kernel-identity" in out
        assert "Conformance OK" in out

    def test_unknown_scheme_exits_2(self, capsys):
        assert main(["conform", "nosuch"]) == 2
        assert "unregistered scheme" in capsys.readouterr().err

    def test_names_conflict_with_all(self, capsys):
        assert main(["conform", "--all", "static"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_quick_conflicts_with_full(self, capsys):
        assert main(["conform", "static", "--quick", "--full"]) == 2
        assert "conflict" in capsys.readouterr().err

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        # A scheme registered as untangle-compliant whose factory
        # produces the time-based scheme must fail the battery — and
        # the CLI must exit non-zero for CI to notice.
        from repro.registry import REGISTRY, Registration
        from repro.schemes.timebased import TimeScheme

        registration = REGISTRY.get("scheme", "time")
        impostor = Registration(
            kind="scheme",
            name="impostor",
            factory=registration.factory,
            untangle_compliant=True,
            produces=(TimeScheme,),
        )
        with REGISTRY.temporary(impostor):
            assert main(["conform", "impostor", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "Conformance FAILED" in out


def _cli_engine(flags: list[str]) -> ExecutionEngine:
    return build_engine(build_parser().parse_args([*flags, "mix", "1"]))


#: Per env var of the settings table: (value, value the flag must beat,
#: flag argv or None when the row has no flag, engine attribute).
SETTING_CASES = {
    "REPRO_JOBS": ("2", "2", ["--jobs", "3"], attrgetter("jobs")),
    "REPRO_RETRIES": ("3", "3", ["--retries", "0"], attrgetter("retries")),
    "REPRO_TIMEOUT": ("7", "7", ["--timeout", "0"], attrgetter("timeout")),
    "REPRO_HEARTBEAT": (
        "0.5", "0.5", ["--heartbeat", "0"], attrgetter("heartbeat")
    ),
    "REPRO_STALL_TIMEOUT": ("4", None, None, attrgetter("stall_timeout")),
    "REPRO_BATCH_CELLS": (
        "4", "4", ["--batch-cells", "1"], attrgetter("batch_cells")
    ),
    "REPRO_RESUME": ("TRUE", "0", ["--resume"], attrgetter("resume")),
    "REPRO_CACHE": (
        "0",
        "1",
        ["--no-cache"],
        lambda e: (e.cache is not None, e.journal is not None),
    ),
    "REPRO_CACHE_DIR": (
        "env-cache",
        "env-cache",
        ["--cache-dir", "flag-cache"],
        lambda e: (e.cache.directory, e.journal.path, e.store.directory),
    ),
    # REPRO_PRECOMPUTE=on with the flag is a rejected conflict instead.
    "REPRO_PRECOMPUTE": (
        "off", "off", ["--no-precompute-store"], lambda e: e.store is None
    ),
    "REPRO_STORE_DIR": ("env-store", None, None, lambda e: e.store.directory),
}


class TestEngineSettings:
    """The CLI and ``engine_from_env`` share one resolver."""

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        for env, *_ in ENGINE_SETTINGS.values():
            monkeypatch.delenv(env, raising=False)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        # Both entry points resolve the same cache directory.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    @pytest.mark.parametrize("name", sorted(ENGINE_SETTINGS))
    def test_cli_matches_library_and_flag_beats_env(self, name, monkeypatch):
        env = ENGINE_SETTINGS[name][0]
        value, against, flag, attribute = SETTING_CASES[env]
        monkeypatch.setenv(env, value)
        assert attribute(_cli_engine([])) == attribute(engine_from_env())
        if flag is None:
            return
        monkeypatch.setenv(env, against)
        with_env = attribute(_cli_engine(flag))
        monkeypatch.delenv(env)
        assert with_env == attribute(_cli_engine(flag))

    def test_zero_timeout_means_no_deadline_for_flag_and_env(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TIMEOUT", "0")
        assert engine_from_env().timeout is None
        assert _cli_engine([]).timeout is None
        monkeypatch.setenv("REPRO_TIMEOUT", "7")
        assert _cli_engine(["--timeout", "0"]).timeout is None
        with pytest.raises(ConfigurationError):
            ExecutionEngine(timeout=0)
