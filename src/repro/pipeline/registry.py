"""One registry for every pluggable stage kind.

A single table covering all pipeline extension points, attacks included::

    from repro.pipeline.registry import register

    @register("locker", "rll")
    def _lock_rll(netlist, spec):
        ...

A new scenario — another locker, a new attack family, an exotic reporter —
is one decorated function away from being addressable from a spec file.
Duplicate registration and unknown lookups raise
:class:`repro.errors.PipelineError` so typos fail loudly at spec-validation
time, not mid-grid.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.errors import PipelineError

#: The stage kinds a spec can reference.
KINDS: tuple[str, ...] = ("locker", "synth", "defense", "attack", "reporter")

_REGISTRY: dict[str, dict[str, Any]] = {kind: {} for kind in KINDS}


def _kind_table(kind: str) -> dict[str, Any]:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise PipelineError(
            f"unknown registry kind {kind!r}; kinds: {list(KINDS)}"
        ) from None


def register(kind: str, name: str) -> Callable:
    """Decorator registering ``obj`` under ``(kind, name)``.

    >>> @register("reporter", "null")          # doctest: +SKIP
    ... def null_reporter(run, spec): return ""
    """
    table = _kind_table(kind)

    def decorator(obj: Any) -> Any:
        if name in table:
            raise PipelineError(
                f"duplicate registration: {kind} {name!r} is already "
                f"{table[name]!r}"
            )
        table[name] = obj
        return obj

    return decorator


def get(kind: str, name: str) -> Any:
    """Look up a registered object; raises with the available names."""
    table = _kind_table(kind)
    try:
        return table[name]
    except KeyError:
        raise PipelineError(
            f"unknown {kind} {name!r}; available: {sorted(table)}"
        ) from None


def registered(kind: str, name: str) -> bool:
    """True if ``(kind, name)`` is registered."""
    return name in _kind_table(kind)


def available(kind: str) -> list[str]:
    """Sorted names registered under ``kind``."""
    return sorted(_kind_table(kind))


def unregister(kind: str, name: str) -> None:
    """Remove a registration (plugin teardown / test isolation)."""
    table = _kind_table(kind)
    if name not in table:
        raise PipelineError(f"{kind} {name!r} is not registered")
    del table[name]


def items(kind: str) -> Iterator[tuple[str, Any]]:
    """(name, object) pairs registered under ``kind``, sorted by name."""
    table = _kind_table(kind)
    return iter(sorted(table.items()))
