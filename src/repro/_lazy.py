"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imports every name it re-exports makes each
importer pay for all of them.  :func:`attach` gives the package a
module-level ``__getattr__`` instead, after the lazy-loading pattern of
Scientific Python SPEC 1: ``from repro import DLSBL`` imports
``repro.core`` on that line, and a process that never touches the name
never loads its module.
"""

from __future__ import annotations

import importlib

__all__ = ["attach"]


def attach(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for *package*.

    *exports* maps a defining module to the names the package
    re-exports from it.  A name is looked up in its module on every
    access that the package namespace does not answer, so it always
    reads the defining module's current binding.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(module), name)

    def __dir__() -> list[str]:
        eager = vars(importlib.import_module(package))
        return sorted(set(eager) | set(origin))

    return __getattr__, __dir__
