"""Decorator-based plugin registries for systems, datasets and
meta-information functions.

Everything composable — the FiCSUM variants, the Table VI baselines,
the Table II datasets, the Table I meta-information functions and any
user-defined extension — registers through one mechanism::

    from repro.registry import register_system, register_dataset

    @register_system("my-system")
    def build_my_system(meta, config, seed):
        return MySystem(meta.n_features, meta.n_classes, seed=seed)

    @register_dataset("MY-STREAM", paper_length=10_000, n_features=4,
                      n_contexts=3, n_classes=2, drift_type="p(X)")
    def my_pool(seed):
        return [...]  # list of ConceptGenerator

``repro.evaluation.runner.build_system`` and
``repro.streams.datasets.make_dataset`` are thin queries over these
registries, so a registration is immediately visible to the CLI, the
benchmark harness and :class:`repro.experiments.Engine`.

Registrations happen at import time of the defining module; worker
processes spawned by the engine import the built-in modules, so
user-defined plugins must be importable (e.g. registered in a module
the spec's consumer imports) to survive process-pool execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, TypeVar

T = TypeVar("T")


class Registry(Mapping[str, T]):
    """A named plugin table with informative failure modes.

    Registering a duplicate name raises (pass ``replace=True`` to
    override deliberately); looking up an unknown name raises a
    ``KeyError`` that lists every registered entry.  The mapping
    protocol (``in``, ``len``, iteration) is read-only.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}

    def add(self, name: str, entry: T, replace: bool = False) -> T:
        if not replace and name in self._entries:
            raise ValueError(
                f"duplicate {self.kind} name {name!r}; pass replace=True "
                f"to override the existing registration"
            )
        self._entries[name] = entry
        return entry

    # Deliberately narrower than Mapping.get: no default returns T and
    # raises, matching how the package treats unknown names as errors.
    def get(self, name: str, *default: T) -> T:  # type: ignore[override]
        """The entry for ``name``.

        Without a ``default``, an unknown name raises a ``KeyError``
        listing every registered entry (the lookup used throughout the
        package); with one, it is returned instead, as ``dict.get``
        would.
        """
        try:
            return self._entries[name]
        except KeyError:
            if default:
                return default[0]
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests and interactive use)."""
        self._entries.pop(name, None)

    def names(self) -> List[str]:
        return sorted(self._entries)

    def ordered_names(self) -> List[str]:
        """Names in registration order (schema layouts depend on it)."""
        return list(self._entries)

    def __getitem__(self, name: str) -> T:
        return self.get(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.names()})"


@dataclass(frozen=True)
class SystemEntry:
    """A registered adaptive system.

    ``builder(meta, config, seed)`` returns an
    :class:`repro.system.AdaptiveSystem`; ``consumes_config`` marks the
    FiCSUM family, whose builders accept a
    :class:`repro.core.FicsumConfig` (baseline builders ignore it, and
    the CLI refuses FiCSUM-only flags for them).
    """

    name: str
    builder: Callable
    consumes_config: bool = False

    def __call__(self, meta: Any, config: Any, seed: int) -> Any:
        return self.builder(meta, config, seed)


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry: Table II characteristics + pool factory.

    ``pool(seed)`` returns the list of
    :class:`repro.streams.base.ConceptGenerator` instances the
    recurrent stream cycles through.
    """

    name: str
    paper_length: int
    n_features: int
    n_contexts: int
    n_classes: int
    drift_type: str  # "p(y|X)", "p(X)" or "mixed" (Table IV segments)
    pool: Callable[[int], list]


#: All runnable systems, name -> SystemEntry.
SYSTEMS: "Registry[SystemEntry]" = Registry("system")

#: All runnable datasets, name -> DatasetSpec.
DATASETS: "Registry[DatasetSpec]" = Registry("dataset")

#: All meta-information functions, name -> MetaFeature component
#: (see :mod:`repro.metafeatures.components`; the built-in Table I set
#: registers at import of :mod:`repro.metafeatures`).
METAFEATURES: "Registry[Any]" = Registry("meta-feature")


def register_system(
    name: str, *, consumes_config: bool = False, replace: bool = False
) -> Callable:
    """Decorator: register ``builder(meta, config, seed)`` under ``name``."""

    def decorate(builder: Callable) -> Callable:
        SYSTEMS.add(
            name,
            SystemEntry(name=name, builder=builder, consumes_config=consumes_config),
            replace=replace,
        )
        return builder

    return decorate


def register_dataset(
    name: str,
    *,
    paper_length: int,
    n_features: int,
    n_contexts: int,
    n_classes: int,
    drift_type: str,
    replace: bool = False,
) -> Callable:
    """Decorator: register a concept-pool factory with its Table II row."""

    def decorate(pool: Callable) -> Callable:
        DATASETS.add(
            name,
            DatasetSpec(
                name=name,
                paper_length=paper_length,
                n_features=n_features,
                n_contexts=n_contexts,
                n_classes=n_classes,
                drift_type=drift_type,
                pool=pool,
            ),
            replace=replace,
        )
        return pool

    return decorate


def register_metafeature(
    component: Optional[Any] = None, *, replace: bool = False
) -> Any:
    """Register a :class:`~repro.metafeatures.components.MetaFeature`.

    Usable as a bare decorator on a component class (instantiated with
    no arguments), as a parameterised decorator, or called directly
    with an already-constructed instance::

        @register_metafeature
        class WindowRange(MetaFeature):
            name = "range"
            ...

        register_metafeature(Acf(lag=1))

    The component's ``name`` attribute keys the registry; its ``group``
    attribute defines the Table V group it expands from.
    """

    def decorate(obj: Any) -> Any:
        instance = obj() if isinstance(obj, type) else obj
        METAFEATURES.add(instance.name, instance, replace=replace)
        return obj

    if component is not None:
        return decorate(component)
    return decorate


def metafeature_entry(name: str) -> Any:
    """The registered component for ``name`` (KeyError lists known ones)."""
    return METAFEATURES.get(name)


def metafeature_names() -> List[str]:
    """All registered meta-feature names, in registration order."""
    return METAFEATURES.ordered_names()


def system_entry(name: str) -> SystemEntry:
    """The registration for ``name`` (KeyError lists available systems)."""
    return SYSTEMS.get(name)


def system_consumes_config(name: str) -> bool:
    """Whether ``name`` is in the FiCSUM family (accepts a FicsumConfig)."""
    return SYSTEMS.get(name).consumes_config


def system_names() -> List[str]:
    """All registered system names."""
    return SYSTEMS.names()


def dataset_entry(name: str) -> DatasetSpec:
    """The registration for ``name`` (KeyError lists available datasets)."""
    return DATASETS.get(name)


__all__ = [
    "Registry",
    "SystemEntry",
    "DatasetSpec",
    "SYSTEMS",
    "DATASETS",
    "METAFEATURES",
    "register_system",
    "register_dataset",
    "register_metafeature",
    "metafeature_entry",
    "metafeature_names",
    "system_entry",
    "system_consumes_config",
    "system_names",
    "dataset_entry",
]
