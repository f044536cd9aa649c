"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that imported every name it re-exports would
load the whole package (kernels, TLB models, page tables) before a
command ran a line of its own.  :func:`lazy_exports` gives a package a
module-level ``__getattr__`` instead: a re-exported name imports its
defining module when it is first read, so ``import repro`` costs almost
nothing and a run loads only the modules it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, modules: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``modules`` maps each defining module, relative to ``package``, to
    the names the package re-exports from it.  A read returns the
    defining module's current attribute, so the package never holds a
    copy that could go stale.
    """
    homes = {
        name: f"{package}.{module}"
        for module, names in modules.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(home), name)

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *homes})

    return __getattr__, __dir__


__all__ = ["lazy_exports"]
