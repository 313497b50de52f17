"""Scheme conformance kit: the contract every registered scheme must meet.

``python -m repro conform <scheme>`` (or ``--all``) runs each registered
scheme through the checks the paper's claims and the harness's
infrastructure both depend on:

* **principles** — every per-core monitor the built scheme installs
  satisfies Principle 1 and its schedule satisfies Principle 2, via the
  same :mod:`repro.core.principles` gate the schemes enforce at build
  time. Required for registrations declaring ``untangle_compliant``.
* **action-leakage** — the visible resizing action sequence is
  bit-identical across secret swaps on secret-sensitive workloads
  (Section 5.2's end-to-end property; zero action leakage).
* **kernel-identity** — results are bit-identical under the
  ``reference`` and ``batched`` simulation kernels.
* **store-tokens** — cache keys and precompute-store needs are stable
  across interpreter processes (fresh ``PYTHONHASHSEED``), so caches
  and stores survive restarts.
* **telemetry** — an engine pass over the scheme's cells preserves the
  accounting invariant ``computed + hit + replayed + failed == total``.

Checks that require compliance declarations are *skipped* (not failed)
for baseline schemes that deliberately break them — ``time`` leaks by
design; that is its role in the evaluation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

from repro.core.principles import (
    PrincipleViolation,
    require_progress_based_schedule,
    require_timing_independent_metric,
)
from repro.errors import ConfigurationError
from repro.harness.exec import ExecutionEngine, MixSchemeCell, cell_key
from repro.harness.experiment import prepare_mix_scheme, run_mix_scheme
from repro.harness.runconfig import PROFILES, TEST, RunProfile
from repro.registry.core import (
    REGISTRY,
    Registration,
    unregistered_scheme_classes,
)
from repro.sim.kernelmode import KERNEL_ENV
from repro.sim.system import DomainSpec, MultiDomainSystem
from repro.workloads.workload import build_workload

#: Mixes the conformance runs use. Both include secret-demand AND
#: secret-timing sensitive crypto so the secret-swap check has teeth.
QUICK_PAIRS = (("gcc_0", "RSA-2048"), ("deepsjeng_0", "AES-128"))
FULL_PAIRS = (
    ("gcc_0", "RSA-2048"),
    ("deepsjeng_0", "AES-128"),
    ("xz_0", "ECDSA"),
    ("parest_0", "AES-256"),
)

#: Secrets swapped in the action-leakage check.
SECRETS = (0, 0b101101)


@dataclass(frozen=True)
class ConformanceCheck:
    """One check outcome: ``passed``, ``failed``, or ``skipped``."""

    name: str
    status: str
    detail: str = ""


@dataclass
class ConformanceReport:
    """All check outcomes for one registered scheme."""

    scheme: str
    profile_name: str
    checks: list[ConformanceCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.status != "failed" for check in self.checks)

    def check(self, name: str) -> ConformanceCheck:
        for check in self.checks:
            if check.name == name:
                return check
        raise ConfigurationError(f"no conformance check named {name!r}")


def _record(report, name, runner) -> None:
    """Run one check body, folding outcomes/violations into the report."""
    try:
        detail = runner()
    except (PrincipleViolation, ConfigurationError, AssertionError) as exc:
        report.checks.append(ConformanceCheck(name, "failed", str(exc)))
    else:
        report.checks.append(ConformanceCheck(name, "passed", detail or ""))


def _skip(report, name, why) -> None:
    report.checks.append(ConformanceCheck(name, "skipped", why))


# ----------------------------------------------------------------------
# Check bodies
# ----------------------------------------------------------------------
def _check_principles(
    registration: Registration, profile: RunProfile, pairs
) -> str:
    prepared = prepare_mix_scheme(list(pairs), registration.name, profile)
    scheme = prepared.system.scheme
    monitors = list(getattr(scheme, "monitors", []))
    checked = 0
    for index, monitor in enumerate(monitors):
        if monitor is None:
            raise PrincipleViolation(
                f"scheme {registration.name!r} declares untangle "
                f"compliance but core {index} has no monitor to certify"
            )
        require_timing_independent_metric(monitor)
        checked += 1
    schedule = getattr(scheme, "schedule", None)
    if schedule is None:
        raise PrincipleViolation(
            f"scheme {registration.name!r} declares untangle compliance "
            "but exposes no schedule to certify against Principle 2"
        )
    require_progress_based_schedule(schedule)
    return f"{checked} monitor(s) P1-certified, schedule P2-certified"


def _victim_action_sequence(
    name: str, profile: RunProfile, spec: str, crypto: str, secret: int
):
    """The lone victim's resize-decision sequence for one secret.

    The Section 5.2 property is per-victim: the action sequence is a
    pure function of the victim's own public retired instructions. It
    is asserted on a single-domain system (as the timing-independence
    integration tests do) because with co-runners present the decisions
    legitimately also depend on the co-runners' demand — coupling the
    accountant charges for, rather than a leak.
    """
    built = build_workload(
        spec, crypto, profile.workload_scale, seed=profile.seed,
        secret=secret,
    )
    scheme = REGISTRY.create("scheme", name, profile, 1)
    system = MultiDomainSystem(
        profile.arch(1),
        [DomainSpec(f"{spec}+{crypto}", built.stream, built.core_config)],
        scheme,
        quantum=profile.quantum,
        sample_interval=profile.sample_interval,
    )
    system.run(max_cycles=profile.max_cycles)
    return tuple(action.new_size for action, _ in system.trace_logs[0])


def _check_action_leakage(
    registration: Registration, profile: RunProfile, pairs
) -> str:
    decisions = 0
    for spec, crypto in pairs:
        sequences = [
            _victim_action_sequence(
                registration.name, profile, spec, crypto, secret
            )
            for secret in SECRETS
        ]
        base, swapped = sequences
        if base != swapped:
            divergence = min(len(base), len(swapped))
            for index, (a, b) in enumerate(zip(base, swapped)):
                if a != b:
                    divergence = index
                    break
            raise AssertionError(
                f"scheme {registration.name!r} leaks through actions: "
                f"{spec}+{crypto}'s resize sequence changed with the "
                f"secret ({len(base)} vs {len(swapped)} decisions, first "
                f"divergence at index {divergence})"
            )
        decisions += len(base)
    assert decisions > 0, (
        f"scheme {registration.name!r} never assessed on the conformance "
        "workloads; the secret-swap check is vacuous"
    )
    return (
        f"{decisions} decisions identical across {len(SECRETS)} secrets "
        f"on {len(pairs)} victims"
    )


def _run_with_kernel(name, profile, pairs, mode):
    previous = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = mode
    try:
        return run_mix_scheme(list(pairs), name, profile)
    finally:
        if previous is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = previous


def _check_kernel_identity(
    registration: Registration, profile: RunProfile, pairs
) -> str:
    batched = _run_with_kernel(registration.name, profile, pairs, "batched")
    reference = _run_with_kernel(
        registration.name, profile, pairs, "reference"
    )
    encoded = MixSchemeCell.encode(batched)
    assert encoded == MixSchemeCell.encode(reference), (
        f"scheme {registration.name!r} is not bit-identical across "
        "kernels: batched and reference runs disagree"
    )
    return f"batched == reference over {len(pairs)} workloads"


_CHILD_TOKEN_SCRIPT = """
import json, sys
from repro.harness.exec import MixSchemeCell, cell_key
from repro.harness.runconfig import PROFILES

spec = json.loads(sys.stdin.read())
cell = MixSchemeCell(
    pairs=tuple(tuple(p) for p in spec["pairs"]),
    scheme=spec["scheme"],
    profile=PROFILES[spec["profile"]],
)
print(json.dumps({"key": cell_key(cell), "needs": repr(cell.store_needs())}))
"""


def _check_store_tokens(
    registration: Registration, profile: RunProfile, pairs
) -> str:
    if PROFILES.get(profile.name) != profile:
        return (
            "skipped cross-process comparison: profile "
            f"{profile.name!r} is not a named profile the child can load"
        )
    cell = MixSchemeCell(
        pairs=tuple(pairs), scheme=registration.name, profile=profile
    )
    parent = {"key": cell_key(cell), "needs": repr(cell.store_needs())}
    env = dict(os.environ)
    # A different hash seed reorders every dict/set the token math might
    # accidentally lean on; stable tokens must not notice.
    env["PYTHONHASHSEED"] = "12345"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), *sys.path) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", _CHILD_TOKEN_SCRIPT],
        input=json.dumps(
            {
                "pairs": [list(p) for p in pairs],
                "scheme": registration.name,
                "profile": profile.name,
            }
        ),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if child.returncode != 0:
        raise AssertionError(
            f"store-token child process failed:\n{child.stderr.strip()}"
        )
    remote = json.loads(child.stdout)
    assert remote["key"] == parent["key"], (
        f"scheme {registration.name!r} cache key is process-dependent: "
        f"{parent['key']} here vs {remote['key']} in a fresh interpreter"
    )
    assert remote["needs"] == parent["needs"], (
        f"scheme {registration.name!r} store needs are process-dependent:"
        f" {parent['needs']} here vs {remote['needs']} in a fresh "
        "interpreter"
    )
    return "cache key and store needs stable across interpreters"


def _check_telemetry(
    registration: Registration, profile: RunProfile, pairs
) -> str:
    engine = ExecutionEngine()
    cells = [
        MixSchemeCell(
            pairs=tuple(lane), scheme=registration.name, profile=profile
        )
        for lane in (list(pairs), list(reversed(pairs)))
    ]
    outcomes = engine.run(cells, campaign=f"conform[{registration.name}]")
    failed = [o.cell.label for o in outcomes if not o.ok]
    assert not failed, (
        f"scheme {registration.name!r} cells failed under the engine: "
        + ", ".join(failed)
    )
    snapshot = engine.telemetry.snapshot()
    accounted = (
        snapshot["computed"]
        + snapshot["hit"]
        + snapshot["replayed"]
        + snapshot["failed"]
    )
    assert accounted == snapshot["total"], (
        f"telemetry invariant broken for {registration.name!r}: "
        f"computed+hit+replayed+failed = {accounted} != total "
        f"{snapshot['total']}"
    )
    return (
        f"{snapshot['total']} cells accounted "
        f"({snapshot['computed']} computed)"
    )


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def run_scheme_conformance(
    name: str, profile: RunProfile = TEST, *, quick: bool = True
) -> ConformanceReport:
    """Run the full conformance battery for one registered scheme."""
    registration = REGISTRY.get("scheme", name)
    pairs = QUICK_PAIRS if quick else FULL_PAIRS
    report = ConformanceReport(scheme=name, profile_name=profile.name)

    if registration.untangle_compliant:
        _record(
            report,
            "principles",
            lambda: _check_principles(registration, profile, pairs),
        )
        _record(
            report,
            "action-leakage",
            lambda: _check_action_leakage(registration, profile, pairs),
        )
    else:
        why = (
            f"registration {name!r} does not declare untangle compliance "
            "(baseline scheme; P1/P2 and zero action leakage not claimed)"
        )
        _skip(report, "principles", why)
        _skip(report, "action-leakage", why)

    _record(
        report,
        "kernel-identity",
        lambda: _check_kernel_identity(registration, profile, pairs),
    )
    _record(
        report,
        "store-tokens",
        lambda: _check_store_tokens(registration, profile, pairs),
    )
    _record(
        report,
        "telemetry",
        lambda: _check_telemetry(registration, profile, pairs),
    )
    return report


def check_registration_drift() -> ConformanceReport:
    """Fail if an importable scheme class is not covered by the registry.

    The drift detector walks ``repro.schemes`` for concrete
    ``BaseScheme`` subclasses and demands each appear in some
    registration's ``produces`` — a new scheme module that forgets to
    register stays invisible to campaigns, specs, and this very
    conformance gate, which is exactly the failure mode this check
    exists to catch.
    """
    report = ConformanceReport(scheme="<registry>", profile_name="-")
    missing = unregistered_scheme_classes()
    if missing:
        report.checks.append(
            ConformanceCheck(
                "registration-drift",
                "failed",
                "importable but unregistered scheme class(es): "
                + ", ".join(missing)
                + " — register them (or add them to an existing "
                "registration's 'produces')",
            )
        )
    else:
        report.checks.append(
            ConformanceCheck(
                "registration-drift",
                "passed",
                "every importable scheme class is covered by a "
                "registration",
            )
        )
    return report


def run_all(
    schemes: list[str] | None = None,
    profile: RunProfile = TEST,
    *,
    quick: bool = True,
    drift: bool = True,
) -> list[ConformanceReport]:
    """Conformance for the named schemes (default: all registered)."""
    names = schemes if schemes else list(REGISTRY.names("scheme"))
    reports = []
    if drift:
        reports.append(check_registration_drift())
    for name in names:
        reports.append(run_scheme_conformance(name, profile, quick=quick))
    return reports
