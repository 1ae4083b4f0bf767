"""Pay-as-you-go package namespaces (PEP 562).

A package ``__init__`` lists which submodule defines each exported name
and installs the pair of module-level hooks built here::

    __getattr__, __dir__ = lazy_namespace(__name__, {
        "repro.sim.config": ("ChannelKind", "ScenarioConfig"),
        ...
    })

``import repro.sim`` then loads nothing but the package itself. The first
``repro.sim.ChannelKind`` (or ``from repro.sim import ChannelKind``)
imports ``repro.sim.config`` and caches the value in the package's
globals, so later lookups never reach ``__getattr__`` again. A name that
is not exported raises :class:`AttributeError`, which keeps ``hasattr``
and ``from package import submodule`` working.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_namespace"]


def lazy_namespace(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` hooks for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it.
    """
    namespace = vars(sys.modules[package])
    homes: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = homes.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(homes))

    return __getattr__, __dir__
