"""First-class name registries for every pluggable component.

The checker resolves several kinds of components by name: schedulers
(``CheckConfig.scheduler``), hash-kernel backends (``SchemeConfig.
backend``), scheme kinds (``SchemeConfig.kind``), workloads and fault
probes (the CLI's positional ``app``), mixers, rounding policies, and
the Table 2 seeded-bug variants.  Before this module each lookup was a
private dict or an if/elif chain with its own error wording; now they
all go through one :class:`Registry`, so the CLI, campaigns, and tests
resolve components one way and ``repro list --registries`` can audit
every registered name in one sweep.

A :class:`Registry` is an insertion-ordered :class:`~collections.abc.
Mapping` (several call sites rely on iteration order — the workload
registry lists applications in Table 1 order), with a configurable
error type so lookups keep raising what their callers already catch
(``SchedulerError`` for schedulers, ``ValueError`` elsewhere).

Registries register themselves in a module-level catalog at
construction; :func:`all_registries` imports the home module of every
known kind so the catalog is complete no matter which subsystems the
caller already touched.
"""

from __future__ import annotations

from collections.abc import Mapping

#: Global catalog: registry kind -> Registry, in creation order.
REGISTRIES: dict = {}

_MISSING = object()


class _Deferred:
    """A registered ``"module:attribute"`` path, imported on first lookup."""

    __slots__ = ("path",)

    def __init__(self, path: str):
        self.path = path

    def load(self):
        import importlib

        module, _, attribute = self.path.partition(":")
        return getattr(importlib.import_module(module), attribute)


#: ``kind -> home module`` for every registry shipped with the library;
#: importing the module populates the catalog entry.
_HOME_MODULES = {
    "schedulers": "repro.sim.scheduler",
    "hash-backends": "repro.core.hashing.kernels",
    "scheme-kinds": "repro.core.schemes.base",
    "workloads": "repro.workloads",
    "faults": "repro.sim.faults",
    "seeded-bugs": "repro.workloads.seeded_bugs",
    "mixers": "repro.core.hashing.mixers",
    "roundings": "repro.core.hashing.rounding",
    "executors": "repro.core.engine.executors",
    "memory-models": "repro.sim.memmodel",
}


class Registry(Mapping):
    """One named component family: ``str -> implementation``.

    *kind* is the catalog key (plural, e.g. ``"schedulers"``); *what*
    is the singular noun used in error messages (default: *kind* minus
    a trailing ``s``); *error* is the exception type unknown-name
    lookups raise.  Iteration follows registration order.
    """

    def __init__(self, kind: str, *, error=ValueError, what: str | None = None):
        self.kind = kind
        self.error = error
        self.what = what if what is not None else kind.rstrip("s")
        self._entries: dict = {}
        REGISTRIES[kind] = self

    def register(self, name: str, obj=None):
        """Register *obj* under *name*; usable as a decorator.

        Re-registering a name is an error — shadowing a component
        silently is exactly the bug class registries exist to prevent.
        Use :meth:`unregister` first to replace one deliberately.
        """
        if obj is None:
            return lambda target: self.register(name, target)
        if name in self._entries:
            raise self.error(
                f"{self.what} {name!r} is already registered in "
                f"{self.kind!r}")
        self._entries[name] = obj
        return obj

    def register_deferred(self, name: str, path: str) -> None:
        """Register the object at *path* (``"module:attribute"``) under
        *name* without importing its module.

        The first lookup of *name* imports it, so a component whose
        module is costly to load is paid for only by the callers that
        resolve it; membership tests and :meth:`names` never import.
        """
        self.register(name, _Deferred(path))

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)

    def get(self, name: str, default=_MISSING):
        """Resolve *name*, raising this registry's error type if unknown.

        Unlike ``dict.get`` this raises on a miss — silent None results
        turned lookup typos into downstream crashes; pass *default* to
        opt back into the soft behavior.
        """
        obj = self._entries.get(name, _MISSING)
        if obj is _MISSING:
            if default is not _MISSING:
                return default
            raise self.error(
                f"unknown {self.what} {name!r}{self._suggestion(name)}; "
                f"available: {sorted(self._entries)}")
        if type(obj) is _Deferred:
            obj = self._entries[name] = obj.load()
        return obj

    def _suggestion(self, name: str) -> str:
        """A ``did you mean`` hint for near-miss lookups.

        Every registry shares this wording, so a typo in any component
        name — scheduler, executor, memory model, workload — gets the
        same one-edit correction in its error message.
        """
        import difflib

        close = difflib.get_close_matches(str(name), list(self._entries), n=1)
        return f" (did you mean {close[0]!r}?)" if close else ""

    def names(self) -> tuple:
        """Registered names in registration order."""
        return tuple(self._entries)

    # Mapping interface — existing call sites use the registries as
    # plain dicts (``in``, iteration, ``.items()``, ``registry[name]``).
    def __getitem__(self, name: str):
        return self.get(name)

    def __contains__(self, name) -> bool:
        # The Mapping mixin probes __getitem__ and catches KeyError;
        # ours raises the registry's own error type, so membership must
        # test the underlying dict directly.
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {list(self._entries)!r})"


def all_registries() -> dict:
    """The complete catalog, importing every home module first.

    Returns ``{kind: Registry}`` in the canonical order of
    ``_HOME_MODULES`` — the order ``repro list --registries`` prints.
    """
    import importlib

    for module in _HOME_MODULES.values():
        importlib.import_module(module)
    return {kind: REGISTRIES[kind] for kind in _HOME_MODULES}


def self_check() -> list:
    """Resolve every registered name in every registry.

    Returns ``[(kind, name), ...]`` for everything that resolved; any
    failure propagates — this is the ``repro list --registries``
    assertion that no registration went stale.
    """
    resolved = []
    for kind, registry in all_registries().items():
        for name in registry.names():
            if registry.get(name) is None:
                raise LookupError(
                    f"registry {kind!r} resolved {name!r} to None")
            resolved.append((kind, name))
    return resolved
