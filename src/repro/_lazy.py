"""Lazy package re-exports (PEP 562), shared by every ``__init__``.

A package lists its public names by defining module and installs the
pair this helper returns::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.measure": ("x_measure", "work_rate"),
    })

``import repro.core`` then loads no submodule; ``repro.core.x_measure``
imports :mod:`repro.core.measure` on first access and binds the value in
the package, so later lookups are plain attribute reads.  ``__all__`` and
``from package import *`` work as with eager imports.

A name shared with a submodule (``repro.core.hecr`` the function and
``repro.core.hecr`` the module) needs an eager import in the package:
importing the submodule binds the module under that name, and a bound
name never reaches ``__getattr__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` resolving ``exports``.

    ``exports`` maps each defining module to the names ``package``
    re-exports from it.
    """
    home = {name: module for module, names in exports.items()
            for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__
