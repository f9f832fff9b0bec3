"""Plugin registries for the declarative experiment API.

Every extensible choice in the reproduction — revisit policies, change-rate
estimators, page change models, storage backends and canned experiment
scenarios — is a named entry in one of the registries below. The specs
(:mod:`repro.api.specs`) resolve those names through the registries
instead of hard-coded string comparisons, so a new policy (or
scenario) only needs a ``@register_*`` decorator to become available to the
CLI, the JSON spec runner and the tests alike.

The module is deliberately dependency-free (it imports nothing from the rest
of ``repro``): domain modules import their ``register_*`` decorator from
here and self-register at import time, which keeps the dependency direction
domain -> registry rather than api -> domain.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Iterator, List, Optional, TypeVar

FactoryT = TypeVar("FactoryT", bound=Callable[..., Any])


class UnknownEntryError(ValueError):
    """Raised when a name is not registered; lists the registered choices."""

    def __init__(self, kind: str, name: str, registered: List[str]) -> None:
        choices = ", ".join(repr(choice) for choice in registered) or "(none)"
        super().__init__(
            f"unknown {kind} {name!r}; registered {kind} names: {choices}"
        )
        self.kind = kind
        self.name = name
        self.registered = registered


class Registry:
    """A named collection of factories (classes or callables).

    Args:
        kind: Human-readable singular name of what is registered, used in
            error messages (``"revisit policy"``, ``"scenario"``, ...).
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._entries: Dict[str, Callable[..., Any]] = {}

    @property
    def kind(self) -> str:
        """What this registry holds (for error messages and listings)."""
        return self._kind

    def register(
        self, name: str, factory: Optional[FactoryT] = None
    ) -> Callable[[FactoryT], FactoryT]:
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering a name replaces the previous entry, so tests and
        plugins can override built-ins.
        """

        def _register(obj: FactoryT) -> FactoryT:
            if not callable(obj):
                raise TypeError(f"{self._kind} {name!r} must be callable")
            self._entries[name] = obj
            return obj

        if factory is not None:
            return _register(factory)
        return _register

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name``.

        Raises:
            UnknownEntryError: If ``name`` is not registered; the message
                lists every registered choice.
        """
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownEntryError(self._kind, name, self.names()) from None

    def create(self, name: str, **kwargs: Any) -> Any:
        """Instantiate the entry, passing only the kwargs its factory accepts.

        Factories differ in what they can be configured with (for example
        only the optimal revisit policy takes ``use_importance``), so extra
        keyword arguments are silently dropped unless the factory declares
        ``**kwargs`` itself.
        """
        factory = self.get(name)
        return factory(**self._accepted_kwargs(factory, kwargs))

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self._entries)

    def validate(self, name: str) -> str:
        """Return ``name`` if registered, else raise :class:`UnknownEntryError`."""
        self.get(name)
        return name

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _accepted_kwargs(
        factory: Callable[..., Any], kwargs: Dict[str, Any]
    ) -> Dict[str, Any]:
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):  # builtins without introspectable sigs
            return kwargs
        if any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in signature.parameters.values()
        ):
            return kwargs
        return {
            key: value for key, value in kwargs.items() if key in signature.parameters
        }


#: Revisit policies: name -> RevisitPolicy factory (see repro.freshness.policies).
REVISIT_POLICIES = Registry("revisit policy")
#: Change-rate estimators: name -> ChangeRateEstimator factory
#: (see repro.estimation.rate_estimators).
ESTIMATORS = Registry("estimator")
#: Page change models: name -> ChangeProcess factory (see repro.simweb.change_models).
CHANGE_MODELS = Registry("change model")
#: Canned experiment scenarios: name -> scenario function (see repro.api.scenarios).
SCENARIOS = Registry("scenario")
#: Collection storage backends: name -> StorageBackend factory
#: (see repro.storage.backends).
STORAGE_BACKENDS = Registry("storage backend")
#: Fault models for deterministic fault injection: name -> FaultModel factory
#: (see repro.faults).
FAULT_MODELS = Registry("fault model")

register_revisit_policy = REVISIT_POLICIES.register
register_estimator = ESTIMATORS.register
register_change_model = CHANGE_MODELS.register
register_scenario = SCENARIOS.register
register_storage_backend = STORAGE_BACKENDS.register
register_fault_model = FAULT_MODELS.register
