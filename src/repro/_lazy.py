"""PEP 562 lazy package exports: importing a package stays cheap."""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Collection, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str], eager: Collection[str] = ()
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` exporting ``table``.

    ``table`` maps each public name to the submodule (relative to
    ``package``) that defines it.  Resolved names are cached in the
    package namespace; names of the ``eager`` submodules resolve now.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(table[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    for name, submodule in table.items():
        if submodule in eager:
            __getattr__(name)
    return __getattr__, __dir__
