"""Mix experiments: run one workload mix under the Table 4 schemes.

This is the engine behind Figures 10 and 12-17 and Table 6. A mix of
eight ``SPEC + crypto`` workloads is simulated under Static, Time,
Untangle, and Shared; per-workload IPC (normalized to Static), leakage
per assessment, total leakage, and partition-size distributions are
extracted, matching the panels of each figure group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.harness.exec import ExecutionEngine, MixSchemeCell
from repro.harness.runconfig import RunProfile, SCALED
from repro.harness.store import cached_build_workload
from repro.registry import (
    SchemeSelection,
    canonical_params,
    create_scheme,
    default_campaign_schemes,
    scheme_names,
    scheme_registration,
)
# Kept importable: perfbench/launcher.py wraps ``get_rate_table`` on
# every module that exposes it.
from repro.schemes.untangle import get_rate_table  # noqa: F401
from repro.sim.system import DomainSpec, MultiDomainSystem, SystemResult
from repro.workloads.mixes import get_mix


def __getattr__(name: str):
    # SCHEME_NAMES stays importable for compatibility but is re-derived
    # from the registry on every access, so registering a scheme — in
    # tree or from a plugin — immediately widens every consumer
    # (CLI choices, differential tests, docs) without a second list to
    # keep in sync.
    if name == "SCHEME_NAMES":
        return scheme_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class WorkloadResult:
    """Per-workload outcome under one scheme."""

    label: str
    ipc: float
    assessments: int
    visible_actions: int
    leakage_bits: float
    partition_quartiles: tuple[float, float, float, float, float]

    @property
    def bits_per_assessment(self) -> float:
        return self.leakage_bits / self.assessments if self.assessments else 0.0

    @property
    def maintain_fraction(self) -> float:
        if not self.assessments:
            return 0.0
        return (self.assessments - self.visible_actions) / self.assessments


@dataclass
class SchemeRunResult:
    """Outcome of one mix under one scheme."""

    scheme: str
    workloads: list[WorkloadResult]
    total_cycles: int

    def workload(self, label: str) -> WorkloadResult:
        for result in self.workloads:
            if result.label == label:
                return result
        raise ConfigurationError(f"no workload {label!r} in this run")

    @property
    def mean_bits_per_assessment(self) -> float:
        values = [w.bits_per_assessment for w in self.workloads if w.assessments]
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_total_leakage(self) -> float:
        values = [w.leakage_bits for w in self.workloads]
        return sum(values) / len(values) if values else 0.0

    @property
    def maintain_fraction(self) -> float:
        assessments = sum(w.assessments for w in self.workloads)
        visible = sum(w.visible_actions for w in self.workloads)
        if not assessments:
            return 0.0
        return (assessments - visible) / assessments


@dataclass
class MixResult:
    """Outcome of one mix under all requested schemes."""

    mix_id: int | None
    labels: list[str]
    runs: dict[str, SchemeRunResult] = field(default_factory=dict)

    def normalized_ipc(self, scheme: str) -> dict[str, float]:
        """Per-workload IPC normalized to Static (a figure's bottom row).

        A Static baseline that retired zero instructions for some
        workload makes normalization undefined for the whole mix; this
        raises (naming the stalled workloads) instead of emitting a
        ``0.0`` placeholder, which downstream geomeans used to silently
        drop — *inflating* the reported speedup of every other workload.
        """
        if "static" not in self.runs:
            raise ConfigurationError("normalization requires a static run")
        baseline = {w.label: w.ipc for w in self.runs["static"].workloads}
        stalled = sorted(
            label for label, ipc in baseline.items() if ipc <= 0
        )
        if stalled:
            raise ConfigurationError(
                "static baseline retired zero instructions for "
                f"{', '.join(stalled)} (mix {self.mix_id!r}); normalized "
                "IPC is undefined for this mix — shorten the slice or "
                "inspect the workload instead of trusting a placeholder"
            )
        return {
            w.label: w.ipc / baseline[w.label]
            for w in self.runs[scheme].workloads
        }

    def geomean_speedup(self, scheme: str) -> float:
        """System-wide speedup over Static (geometric mean of IPC ratios).

        Every workload participates: a scheme that stalls one workload
        to zero IPC yields a geomean of exactly ``0.0`` (the
        mathematical value), where filtering non-positive ratios used to
        report the geomean of the *surviving* workloads — overstating a
        scheme precisely when it starves someone.
        """
        ratios = list(self.normalized_ipc(scheme).values())
        if not ratios:
            return 0.0
        if any(r <= 0 for r in ratios):
            return 0.0
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def mix_labels(pairs: list[tuple[str, str]] | tuple[tuple[str, str], ...]) -> list[str]:
    """Per-workload labels for a mix, disambiguating repeated pairs.

    A mix may legitimately run the same ``(spec, crypto)`` pair on two
    cores; labels must still be unique or :meth:`MixResult.normalized_ipc`
    collapses them in the baseline dict and
    :meth:`SchemeRunResult.workload` silently returns the first match.
    Repeats get a ``#2``, ``#3``, ... suffix in mix order.
    """
    counts: dict[str, int] = {}
    labels = []
    for spec, crypto in pairs:
        base = f"{spec}+{crypto}"
        counts[base] = counts.get(base, 0) + 1
        labels.append(base if counts[base] == 1 else f"{base}#{counts[base]}")
    return labels


def make_scheme(
    name: str,
    profile: RunProfile,
    num_domains: int,
    params: dict | None = None,
):
    """Instantiate a registered scheme by name for the given profile.

    The factory lives in the registry (``repro.registry.builtin`` for
    the built-ins; third parties register their own), so any registered
    scheme — not a hard-wired list — is a campaign citizen. ``params``
    are validated against the registration's declared parameter schema.
    """
    return create_scheme(name, profile, num_domains, params)


@dataclass
class PreparedMixScheme:
    """One (mix, scheme) cell built and ready to run.

    :func:`prepare_mix_scheme` / :func:`finalize_mix_scheme` split
    :func:`run_mix_scheme` around the simulation itself, so checks can
    inspect a built system (its scheme, monitors, schedule) without
    running it.
    """

    scheme_name: str
    labels: list[str]
    system: MultiDomainSystem
    profile: RunProfile


def prepare_mix_scheme(
    pairs: list[tuple[str, str]],
    scheme_name: str,
    profile: RunProfile = SCALED,
    *,
    scheme_params: dict | None = None,
) -> PreparedMixScheme:
    """Build the system for one (mix, scheme) cell without running it."""
    workloads = [
        cached_build_workload(
            spec, crypto, profile.workload_scale, seed=profile.seed + index
        )
        for index, (spec, crypto) in enumerate(pairs)
    ]
    labels = mix_labels(pairs)
    domains = [
        DomainSpec(label, w.stream, w.core_config)
        for label, w in zip(labels, workloads)
    ]
    scheme = make_scheme(scheme_name, profile, len(domains), scheme_params)
    arch = profile.arch(len(domains))
    system = MultiDomainSystem(
        arch,
        domains,
        scheme,
        quantum=profile.quantum,
        sample_interval=profile.sample_interval,
    )
    return PreparedMixScheme(scheme_name, labels, system, profile)


def finalize_mix_scheme(
    prepared: PreparedMixScheme, outcome: SystemResult
) -> SchemeRunResult:
    """Extract the :class:`SchemeRunResult` from a finished system run."""
    results = [
        WorkloadResult(
            label=prepared.labels[i],
            ipc=stats.ipc,
            assessments=stats.assessments,
            visible_actions=stats.visible_actions,
            leakage_bits=stats.leakage_bits,
            partition_quartiles=stats.partition_size_quartiles(),
        )
        for i, stats in enumerate(outcome.stats)
    ]
    return SchemeRunResult(
        scheme=prepared.scheme_name,
        workloads=results,
        total_cycles=outcome.total_cycles,
    )


def run_mix_scheme(
    pairs: list[tuple[str, str]],
    scheme_name: str,
    profile: RunProfile = SCALED,
    *,
    scheme_params: dict | None = None,
) -> SchemeRunResult:
    """Simulate one mix under one scheme."""
    prepared = prepare_mix_scheme(
        pairs, scheme_name, profile, scheme_params=scheme_params
    )
    outcome = prepared.system.run(max_cycles=profile.max_cycles)
    return finalize_mix_scheme(prepared, outcome)


def _assemble_mix_results(
    grid: list[tuple[int | None, list[tuple[str, str]]]],
    schemes: tuple,
    profile: RunProfile,
    engine: ExecutionEngine,
    campaign: str | None = None,
) -> list[MixResult]:
    """Fan every (mix, scheme) cell of a grid through one engine run.

    ``schemes`` entries are registry names or
    :class:`~repro.registry.SchemeSelection` objects (name + parameter
    overrides + result alias) — scenario compilation reuses this exact
    function, so a declarative spec produces the same cells, in the
    same order, with the same cache keys as a hand-wired call.

    A failed cell (after the engine's retries) leaves its scheme out of
    that mix's ``runs`` dict instead of aborting the grid; the failure
    stays visible in ``engine.telemetry``. The ``campaign`` tag labels
    this grid's entries in the engine's crash-recovery journal.
    """
    selections = [SchemeSelection.of(scheme) for scheme in schemes]
    # Fail fast on unknown names / bad overrides — before any cell is
    # submitted. Otherwise a typo'd scheme just becomes a failed cell
    # and silently drops its column from every mix's ``runs``.
    for selection in selections:
        scheme_registration(selection.name).validated_params(
            dict(selection.params)
        )
    cells = [
        MixSchemeCell(
            pairs=tuple(pairs),
            scheme=selection.name,
            profile=profile,
            scheme_params=canonical_params(selection.params),
        )
        for _, pairs in grid
        for selection in selections
    ]
    outcomes = engine.run(cells, campaign=campaign)
    results = []
    cursor = 0
    for mix_id, pairs in grid:
        result = MixResult(mix_id=mix_id, labels=mix_labels(pairs))
        for selection in selections:
            outcome = outcomes[cursor]
            cursor += 1
            if outcome.ok:
                result.runs[selection.run_key] = outcome.value
        results.append(result)
    return results


def run_mix(
    mix_id: int,
    profile: RunProfile = SCALED,
    schemes: tuple | None = None,
    *,
    engine: ExecutionEngine | None = None,
) -> MixResult:
    """Simulate one paper mix under the requested schemes.

    ``schemes`` defaults to the registry's campaign set (the paper's
    Static/Time/Untangle/Shared columns); entries may be registry names
    or :class:`~repro.registry.SchemeSelection` overrides.

    Without an ``engine`` the schemes run serially in-process, uncached —
    the historical behavior. With one, scheme cells fan out over the
    engine's worker pool and hit its result cache; results are
    bit-identical either way.
    """
    engine = engine if engine is not None else ExecutionEngine()
    schemes = schemes if schemes is not None else default_campaign_schemes()
    pairs = get_mix(mix_id)
    return _assemble_mix_results(
        [(mix_id, pairs)], schemes, profile, engine, campaign=f"mix{mix_id}"
    )[0]


def run_custom_mix(
    pairs: list[tuple[str, str]],
    profile: RunProfile = SCALED,
    schemes: tuple | None = None,
    *,
    engine: ExecutionEngine | None = None,
) -> MixResult:
    """Simulate an arbitrary mix of (spec, crypto) pairs."""
    engine = engine if engine is not None else ExecutionEngine()
    schemes = schemes if schemes is not None else default_campaign_schemes()
    return _assemble_mix_results(
        [(None, list(pairs))], schemes, profile, engine, campaign="custom-mix"
    )[0]


def run_mix_grid(
    mix_ids: tuple[int, ...] | list[int],
    profile: RunProfile = SCALED,
    schemes: tuple | None = None,
    *,
    engine: ExecutionEngine | None = None,
    campaign: str | None = None,
) -> dict[int, MixResult]:
    """Simulate several paper mixes at once.

    All ``len(mix_ids) * len(schemes)`` cells are submitted in a single
    engine pass, so a parallel engine can overlap cells *across* mixes —
    the whole-figure fan-out behind Figures 10/12-17 and Table 6.
    """
    engine = engine if engine is not None else ExecutionEngine()
    schemes = schemes if schemes is not None else default_campaign_schemes()
    grid = [(mix_id, get_mix(mix_id)) for mix_id in mix_ids]
    if campaign is None:
        campaign = f"mix-grid[{','.join(str(m) for m in mix_ids)}]"
    results = _assemble_mix_results(grid, schemes, profile, engine, campaign)
    return {mix_id: result for (mix_id, _), result in zip(grid, results)}
