"""Generic named-component registry.

A :class:`Registry` maps names to *specs* — small frozen dataclasses carrying
a factory plus metadata (see :mod:`repro.registry.specs`).  Registries are the
library's extension points: every component that used to be selected through a
hardcoded tuple or an ``if``/``elif`` chain (algorithms, channel families,
failure-detector setups, workload presets) is now looked up by name, so
third-party code can plug new implementations in with a decorator and have
them become first-class citizens of :class:`~repro.experiments.config.Scenario`
validation, the CLI and the batch runner.

Design notes
------------
* **One way to register.**  :meth:`Registry.decorator` builds the registry's
  spec class around the decorated factory; ``repro.registry.register_*`` are
  these bound methods, and lookups go through the registry itself
  (``algorithms.get(name)``, ``engines.names()``).
* **Insertion order is preserved** — ``names()`` lists built-ins first, in
  registration order, which keeps CLI ``choices`` and error messages stable.
* **Built-ins load lazily.**  Each registry may name a *loader* module; it is
  imported once, before the first read, and registers the built-in
  components.  Registration itself never triggers the loader, so built-in
  modules can register freely while being imported.
* **Errors are loud and helpful.**  Duplicate names raise
  :class:`DuplicateComponentError`; unknown names raise
  :class:`UnknownComponentError` listing every registered name and how to add
  a new one.  Both derive from ``ValueError`` so existing callers that catch
  ``ValueError`` (e.g. ``Scenario.__post_init__`` users) keep working.
"""

from __future__ import annotations

import dataclasses
import importlib
import threading
from contextlib import contextmanager
from typing import Any, Callable, Generic, Iterator, Optional, TypeVar

S = TypeVar("S")
F = TypeVar("F", bound=Callable[..., Any])

#: Appended to every unknown-name error.
_HINT = "Register new components with the repro.registry.register_* decorators"

#: Shared by every registry while running a built-in loader.  A single lock
#: (rather than the per-registry one) prevents lock-ordering deadlocks: one
#: loader import typically registers into *several* registries, so two
#: threads first-reading two different registries must serialise on the same
#: lock rather than each holding their own while waiting on Python's module
#: import lock.
_LOAD_LOCK = threading.RLock()


class RegistryError(ValueError):
    """Base class for registry failures (a :class:`ValueError` on purpose)."""


class DuplicateComponentError(RegistryError):
    """A name was registered twice in the same registry."""


class UnknownComponentError(RegistryError):
    """A name was looked up that no one registered."""


class Registry(Generic[S]):
    """An ordered name → spec mapping with decorator-based registration.

    Parameters
    ----------
    kind:
        Human-readable component kind (``"algorithm"``, ``"channel"``, …) used
        in error messages.
    spec_type:
        The frozen spec dataclass this registry holds; :meth:`decorator`
        builds it and ``repro-urb components`` reads its ``TABLE_COLUMNS``.
    loader:
        Optional name of the module registering the built-in components.
        Imported at most once, lazily, before the first *read* operation.
    """

    def __init__(self, kind: str, spec_type: type[S], *,
                 loader: Optional[str] = None) -> None:
        self.kind = kind
        self.spec_type = spec_type
        self._specs: dict[str, S] = {}
        self._loader = loader
        self._loaded = loader is None
        self._loading = False
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def decorator(self, name: str, *, description: str = "",
                  replace: bool = False, **fields: Any) -> Callable[[F], F]:
        """Decorator registering its factory as *name*; returns it unchanged.

        Keywords naming a field of the spec class (``requires_majority``,
        ``batched``, …) set that field; any other keyword lands in the
        spec's ``extra``.  *description* defaults to the factory's
        docstring.
        """
        known = {field.name for field in dataclasses.fields(self.spec_type)}
        extra = {key: fields.pop(key) for key in list(fields)
                 if key not in known}

        def decorate(factory: F) -> F:
            self.register(
                self.spec_type(
                    name=name,
                    factory=factory,
                    description=description or (factory.__doc__ or "").strip(),
                    extra=extra,
                    **fields,
                ),
                replace=replace,
            )
            return factory

        return decorate

    def register(self, spec: S, *, replace: bool = False) -> S:
        """Register *spec* under ``spec.name`` and return it.

        Raises :class:`DuplicateComponentError` unless *replace* is true.
        """
        name = spec.name
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind} names must be non-empty strings")
        with self._lock:
            if not replace and name in self._specs:
                raise DuplicateComponentError(
                    f"{self.kind} {name!r} is already registered; pass "
                    f"replace=True to override it deliberately"
                )
            self._specs[name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove *name* (mainly for tests); unknown names raise."""
        with self._lock:
            if name not in self._specs:
                raise UnknownComponentError(
                    f"cannot unregister unknown {self.kind} {name!r}"
                )
            del self._specs[name]

    @contextmanager
    def scoped(self, spec: S, *, replace: bool = False) -> Iterator[S]:
        """Context manager registering *spec* for the duration of a block.

        Restores the previous binding (if any) on exit — convenient in tests
        and short-lived experiments.
        """
        self._ensure_loaded()
        with self._lock:
            previous = self._specs.get(spec.name)
        self.register(spec, replace=replace)
        try:
            yield spec
        finally:
            with self._lock:
                if previous is not None:
                    self._specs[spec.name] = previous
                else:
                    self._specs.pop(spec.name, None)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        # Serialise loading on the lock shared by ALL registries (not this
        # registry's own): the loader imports a module that registers into
        # several registries, so per-registry locking here would deadlock two
        # threads first-reading two different registries.  Other threads
        # block until the load finishes; the loading thread itself re-enters
        # through the RLock.
        with _LOAD_LOCK:
            if self._loaded or self._loading:
                return
            self._loading = True
            try:
                assert self._loader is not None
                importlib.import_module(self._loader)
                self._loaded = True
            finally:
                self._loading = False

    def get(self, name: str) -> S:
        """The spec registered under *name*.

        Raises :class:`UnknownComponentError` with the full list of known
        names (and a registration hint) otherwise.
        """
        self._ensure_loaded()
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(repr(n) for n in self._specs) or "<none>"
            raise UnknownComponentError(
                f"unknown {self.kind} {name!r}; registered: {known}. {_HINT}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """All registered names, in registration order (built-ins first)."""
        self._ensure_loaded()
        return tuple(self._specs)

    def specs(self) -> tuple[S, ...]:
        """All registered specs, in registration order."""
        self._ensure_loaded()
        return tuple(self._specs.values())

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._specs

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {len(self)} registered)"
