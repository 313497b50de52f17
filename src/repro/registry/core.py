"""The plugin registry: schemes, monitors, channel models, generators.

The paper's central claim is that Untangle is a *framework*: any scheme
assembled from a P1 metric and a P2 schedule (Table 2) inherits its
leakage bounds. The harness therefore must not hard-wire scheme names
into if-chains — new schemes (in-tree or third-party) register here and
immediately become campaign citizens: ``make_scheme`` resolves them,
the CLI offers them, scenario specs reference them by name, and the
conformance kit (:mod:`repro.registry.conformance`) validates them.

Registration is declarative: a factory plus a parameter schema
(:class:`ParamSpec`), so scenario specs can override parameters by name
with type checking, and cache tokens can embed the overrides
canonically. Two registration channels exist:

* decorators on the module-level :data:`REGISTRY` (how the built-ins in
  :mod:`repro.registry.builtin` register), and
* ``repro.plugins`` entry points for third-party distributions: each
  entry point resolves to a callable invoked with the registry (or to a
  module whose import registers as a side effect). Plugin failures are
  recorded, never raised — a broken plugin must not take down campaigns
  that never use it.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib.metadata import entry_points
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import ConfigurationError

#: Registrable object kinds (Table 2's scheme components plus workloads).
KINDS = ("scheme", "monitor", "channel-model", "workload")

#: Entry-point group third-party distributions register under.
ENTRY_POINT_GROUP = "repro.plugins"

#: Scalar types a parameter value (or sequence element) may take — the
#: JSON-representable subset, so overrides embed in cache tokens.
_SCALARS = (str, int, float, bool)


@dataclass(frozen=True)
class ParamSpec:
    """One declared, overridable parameter of a registered factory."""

    name: str
    default: Any
    types: tuple[type, ...]
    doc: str = ""

    def validate(self, value: Any) -> Any:
        """Type-check one override; returns the canonicalized value."""
        # bool is an int subclass; accept it only when declared.
        if isinstance(value, bool) and bool not in self.types:
            raise ConfigurationError(
                f"parameter {self.name!r} expects "
                f"{self._expected()}, got bool {value!r}"
            )
        if not isinstance(value, self.types):
            raise ConfigurationError(
                f"parameter {self.name!r} expects "
                f"{self._expected()}, got {type(value).__name__} {value!r}"
            )
        if isinstance(value, (list, tuple)):
            bad = [v for v in value if not isinstance(v, _SCALARS)]
            if bad:
                raise ConfigurationError(
                    f"parameter {self.name!r} elements must be scalars, "
                    f"got {bad!r}"
                )
            return tuple(value)
        return value

    def _expected(self) -> str:
        return "/".join(t.__name__ for t in self.types)


@dataclass(frozen=True)
class Registration:
    """One named factory plus everything the harness needs to wire it.

    ``params`` declares which keyword overrides the factory accepts;
    anything else is rejected at validation time, so a typo in a
    scenario spec fails loudly instead of silently running defaults.

    ``untangle_compliant`` is the registration's *claim* that the
    factory's schemes satisfy P1+P2 (zero action leakage); the
    conformance kit holds every claimant to it with secret-swap runs.

    ``produces`` names the concrete class(es) the factory returns —
    the drift detector uses it to flag importable-but-unregistered
    scheme classes. ``store_needs(profile, params)`` mirrors
    ``MixSchemeCell.store_needs``: the precomputable artifacts cells of
    this scheme consume (e.g. the exact rate table the factory will
    request). ``cost_weight`` is the scheduler's cost model: parallel runs
    dispatch the most expensive cells first.
    """

    kind: str
    name: str
    factory: Callable[..., Any]
    description: str = ""
    params: tuple[ParamSpec, ...] = ()
    untangle_compliant: bool = False
    cost_weight: float = 1.0
    produces: tuple[type, ...] = ()
    store_needs: Callable[..., list] | None = None
    default_for_campaign: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown registration kind {self.kind!r}; known: {KINDS}"
            )
        if not self.name:
            raise ConfigurationError("registration needs a non-empty name")

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.params)

    def param(self, name: str) -> ParamSpec:
        for spec in self.params:
            if spec.name == name:
                return spec
        raise ConfigurationError(
            f"{self.kind} {self.name!r} has no parameter {name!r}; "
            f"declared: {', '.join(self.param_names) or '(none)'}"
        )

    def validated_params(self, params: Mapping[str, Any] | None) -> dict:
        """Type-checked overrides only (factory defaults fill the rest)."""
        if not params:
            return {}
        return {
            name: self.param(name).validate(value)
            for name, value in params.items()
        }

    def effective_params(self, params: Mapping[str, Any] | None) -> dict:
        """Declared defaults overlaid with the validated overrides."""
        effective = {spec.name: spec.default for spec in self.params}
        effective.update(self.validated_params(params))
        return effective


def canonical_params(
    params: Mapping[str, Any] | Iterable[tuple[str, Any]] | None,
) -> tuple[tuple[str, Any], ...]:
    """Overrides as a sorted, hashable tuple — the cache-token form.

    Lists become tuples so the result can ride a frozen dataclass field
    (``MixSchemeCell.scheme_params``); sorting makes the cell identity
    independent of spelling order in a scenario file.
    """
    if not params:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(
        (name, tuple(value) if isinstance(value, list) else value)
        for name, value in sorted(items)
    )


@dataclass(frozen=True)
class SchemeSelection:
    """One scheme column of a campaign: registry name plus overrides.

    ``alias`` names the column in result dicts (``MixResult.runs``) and
    defaults to the scheme name; a scenario comparing two
    parameterizations of one scheme gives each an alias.
    """

    name: str
    alias: str | None = None
    params: tuple[tuple[str, Any], ...] = ()

    @property
    def run_key(self) -> str:
        return self.alias if self.alias else self.name

    @staticmethod
    def of(value: "str | SchemeSelection") -> "SchemeSelection":
        if isinstance(value, SchemeSelection):
            return value
        return SchemeSelection(name=value)


class Registry:
    """Name → :class:`Registration`, per kind, in registration order."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], Registration] = {}
        self._plugins_loaded = False
        #: Failure strings from entry-point plugins that did not load.
        self.plugin_errors: list[str] = []

    # -- registration --------------------------------------------------
    def register(
        self, registration: Registration, *, replace: bool = False
    ) -> Registration:
        key = (registration.kind, registration.name)
        if key in self._entries and not replace:
            raise ConfigurationError(
                f"{registration.kind} {registration.name!r} is already "
                "registered; pass replace=True to override"
            )
        self._entries[key] = registration
        return registration

    def add(self, kind: str, name: str, **meta: Any) -> Callable:
        """Decorator channel: ``@REGISTRY.add("scheme", "mine", ...)``."""

        def decorator(factory: Callable) -> Callable:
            description = meta.pop(
                "description", inspect.getdoc(factory) or ""
            ).split("\n", 1)[0]
            self.register(
                Registration(
                    kind=kind,
                    name=name,
                    factory=factory,
                    description=description,
                    **meta,
                ),
                replace=meta_replace,
            )
            return factory

        meta_replace = bool(meta.pop("replace", False))
        return decorator

    def scheme(self, name: str, **meta: Any) -> Callable:
        return self.add("scheme", name, **meta)

    def monitor(self, name: str, **meta: Any) -> Callable:
        return self.add("monitor", name, **meta)

    def channel_model(self, name: str, **meta: Any) -> Callable:
        return self.add("channel-model", name, **meta)

    def workload_generator(self, name: str, **meta: Any) -> Callable:
        return self.add("workload", name, **meta)

    def unregister(self, kind: str, name: str) -> None:
        if self._entries.pop((kind, name), None) is None:
            raise ConfigurationError(f"{kind} {name!r} is not registered")

    @contextmanager
    def temporary(self, registration: Registration) -> Iterator[Registration]:
        """Scoped registration (tests): restores the prior state on exit."""
        key = (registration.kind, registration.name)
        previous = self._entries.get(key)
        self.register(registration, replace=True)
        try:
            yield registration
        finally:
            if previous is None:
                self._entries.pop(key, None)
            else:
                self._entries[key] = previous

    # -- lookup --------------------------------------------------------
    def get(self, kind: str, name: str) -> Registration:
        self._load_plugins()
        entry = self._entries.get((kind, name))
        if entry is None:
            raise ConfigurationError(
                f"unknown {kind} {name!r}; registered: "
                f"{', '.join(self.names(kind)) or '(none)'}"
            )
        return entry

    def names(self, kind: str) -> tuple[str, ...]:
        self._load_plugins()
        return tuple(n for k, n in self._entries if k == kind)

    def registrations(self, kind: str) -> tuple[Registration, ...]:
        self._load_plugins()
        return tuple(
            entry for (k, _), entry in self._entries.items() if k == kind
        )

    def create(
        self,
        kind: str,
        name: str,
        *args: Any,
        params: Mapping[str, Any] | None = None,
    ) -> Any:
        """Instantiate via the named factory with validated overrides."""
        entry = self.get(kind, name)
        return entry.factory(*args, **entry.validated_params(params))

    # -- entry-point plugins -------------------------------------------
    def _load_plugins(self) -> None:
        if self._plugins_loaded:
            return
        self._plugins_loaded = True
        try:
            discovered = entry_points(group=ENTRY_POINT_GROUP)
        except Exception as exc:  # pragma: no cover - metadata breakage
            self.plugin_errors.append(
                f"entry-point discovery failed: {exc}"
            )
            return
        for ep in discovered:
            try:
                loaded = ep.load()
                if callable(loaded):
                    loaded(self)
            except Exception as exc:
                self.plugin_errors.append(
                    f"plugin {ep.name!r} ({ep.value}) failed: {exc}"
                )


#: The process-wide registry every harness layer resolves against.
REGISTRY = Registry()


def get_registry() -> Registry:
    return REGISTRY


def unregistered_scheme_classes(package: str = "repro.schemes") -> list[str]:
    """Importable scheme classes no registration claims to produce.

    The registry/:data:`~repro.harness.experiment.SCHEME_NAMES` drift
    detector: walks the scheme package, imports every module, and
    reports each :class:`~repro.schemes.base.BaseScheme` subclass
    defined there that is absent from every registration's ``produces``
    — a scheme someone wrote but forgot to register, which campaigns,
    the CLI, and the conformance kit would all silently miss.
    """
    import importlib
    import pkgutil

    from repro.schemes.base import BaseScheme

    covered: set[type] = set()
    for entry in REGISTRY.registrations("scheme"):
        covered.update(entry.produces)
    pkg = importlib.import_module(package)
    missing: set[str] = set()
    for info in pkgutil.iter_modules(pkg.__path__):
        module = importlib.import_module(f"{package}.{info.name}")
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseScheme)
                and obj is not BaseScheme
                and obj.__module__ == module.__name__
                and not inspect.isabstract(obj)
                and obj not in covered
            ):
                missing.add(f"{obj.__module__}.{obj.__qualname__}")
    return sorted(missing)
