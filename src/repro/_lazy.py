"""On-first-use exports for the package ``__init__``s (PEP 562).

Every process compiles each module it imports, so an ``__init__`` that
imported all its submodules would make ``import repro.server.client``
compile the daemon and the executor too.
Instead each ``__init__`` names the submodule that defines each export,
and the first attribute access of a name imports just that submodule.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def exports(
    package: str, by_module: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``by_module`` maps a submodule path relative to ``package`` to the
    names it defines.  A name resolves on first access and is then bound
    in the package namespace, so later lookups never reach the hook.
    """
    origin = {
        name: f"{package}.{submodule}"
        for submodule, names in by_module.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__
