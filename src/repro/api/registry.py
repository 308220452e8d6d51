"""The request-type registry: one dispatch seam for the whole API.

Every place that used to switch on request types — ``execute()``'s
``isinstance`` ladder, ``request_from_dict``'s hand-maintained dict,
the daemon's "never cache a bench" special case — now asks this module
instead.  A request kind is registered exactly once, with everything
the serving stack needs to know about it:

* its dataclass (``cls.TYPE`` is the wire discriminator — the ``type``
  tag of the v1 envelope);
* its executor (a callable ``(request) -> result``), attached by
  :mod:`repro.api.execute`.  That module imports only this registry and
  :mod:`repro.api.v1`; each executor imports the engine layers it runs
  on when first called, so a process that only parses, validates and
  digests requests never loads the engine;
* whether the daemon may cache its results by request digest
  (``cacheable`` — false only for measurements like ``bench``, whose
  answers are wall-clock samples, not values).

Adding a request kind is therefore one :func:`register_request` call
plus one :func:`register_result` call; the parser, the serial
``execute()`` interpreter, the daemon, the fleet dispatcher and the CLI
all pick it up with no further wiring.  The old wire payloads are
untouched: dispatch still keys on the same ``type`` discriminator the
frozen golden fixtures pin, so pre-registry payloads and digests are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

__all__ = [
    "RequestEntry",
    "REQUEST_CLASSES",
    "RESULT_CLASSES",
    "register_request",
    "register_result",
    "request_entry",
    "parse_request",
    "parse_result",
    "executor_for",
    "cacheable",
]


@dataclass
class RequestEntry:
    """Everything registered about one request kind."""

    cls: type
    executor: Callable | None = None
    cacheable: bool = True


#: ``type`` discriminator -> registered request dataclass.  Live view:
#: :data:`repro.api.v1.REQUEST_TYPES` is this very object, so late
#: registrations (plugins, tests) are visible everywhere at once.
REQUEST_CLASSES: dict[str, type] = {}

#: ``type`` discriminator -> registered result dataclass.
RESULT_CLASSES: dict[str, type] = {}

_ENTRIES: dict[str, RequestEntry] = {}


def _api_error(message: str):
    from repro.api.v1 import ApiError  # deferred: v1 imports this module

    return ApiError(message)


def register_request(cls: type, executor: Callable | None = None, *,
                     cacheable: bool | None = None) -> None:
    """Register (or complete) a request kind under ``cls.TYPE``.

    Called twice per kind by design: :mod:`repro.api.v1` registers the
    dataclass, and :mod:`repro.api.execute` attaches the executor; the
    ``repro.api`` package imports both, so every importer finds the
    built-in kinds complete.  Re-registering merges — ``None``
    arguments keep whatever is already recorded.  Registering a *different* class under an
    existing discriminator is always an error: silently replacing a
    kind would let two processes disagree about what a digest means.
    """
    kind = getattr(cls, "TYPE", "")
    if not kind:
        raise ValueError(f"{cls.__name__} has no TYPE discriminator")
    entry = _ENTRIES.get(kind)
    if entry is not None and entry.cls is not cls:
        raise ValueError(
            f"request type {kind!r} is already registered to "
            f"{entry.cls.__name__}; refusing to rebind it to {cls.__name__}")
    if entry is None:
        entry = RequestEntry(cls=cls)
        _ENTRIES[kind] = entry
        REQUEST_CLASSES[kind] = cls
    if executor is not None:
        entry.executor = executor
    if cacheable is not None:
        entry.cacheable = cacheable


def register_result(cls: type) -> None:
    """Register a result kind under ``cls.TYPE``."""
    kind = getattr(cls, "TYPE", "")
    if not kind:
        raise ValueError(f"{cls.__name__} has no TYPE discriminator")
    existing = RESULT_CLASSES.get(kind)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"result type {kind!r} is already registered to "
            f"{existing.__name__}; refusing to rebind it to {cls.__name__}")
    RESULT_CLASSES[kind] = cls


def request_entry(kind: str) -> RequestEntry | None:
    """The registry entry for a discriminator (None if unregistered)."""
    return _ENTRIES.get(kind)


def parse_request(data: Mapping[str, Any]):
    """Parse any v1 request payload, dispatching on its ``type`` tag."""
    if not isinstance(data, Mapping):
        raise _api_error(
            f"a request must be a JSON object; got {type(data).__name__}")
    kind = data.get("type")
    cls = REQUEST_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise _api_error(f"unknown request type {kind!r}; "
                         f"valid types: {sorted(REQUEST_CLASSES)}")
    return cls.from_dict(data)


def parse_result(data: Mapping[str, Any]):
    """Parse any v1 result payload, dispatching on its ``type`` tag."""
    if not isinstance(data, Mapping):
        raise _api_error(
            f"a result must be a JSON object; got {type(data).__name__}")
    kind = data.get("type")
    cls = RESULT_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise _api_error(f"unknown result type {kind!r}; "
                         f"valid types: {sorted(RESULT_CLASSES)}")
    return cls.from_dict(data)


def executor_for(request) -> Callable:
    """The registered executor for a request instance."""
    entry = _ENTRIES.get(getattr(type(request), "TYPE", ""))
    if entry is None or entry.cls is not type(request):
        raise _api_error(
            f"cannot execute a {type(request).__name__}; registered "
            f"request types: {sorted(REQUEST_CLASSES)}")
    if entry.executor is None:
        raise _api_error(
            f"request type {entry.cls.TYPE!r} has no executor "
            "registered (register_request(cls, executor) was never "
            "called for it)")
    return entry.executor


def cacheable(request) -> bool:
    """May the daemon serve this request from its digest-keyed cache?"""
    entry = _ENTRIES.get(getattr(type(request), "TYPE", ""))
    return entry.cacheable if entry is not None else False
